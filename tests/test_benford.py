import numpy as np
import pytest

from flowdigits import (
    DigitDistribution,
    EmptyHistogramError,
    ZeroPolicy,
    benford_reference,
    digit_histogram,
    first_digit,
    leading_digits,
)

from oracles import benford_probs, first_digit as first_digit_oracle


def test_reference_values():
    ref = benford_reference()
    assert ref.prob(1) == pytest.approx(0.3010300, abs=1e-7)
    assert ref.prob(9) == pytest.approx(0.0457575, abs=1e-7)
    assert not ref.extended
    assert ref.sample_count == 0
    assert np.allclose(ref.probs, benford_probs(), atol=0)


def test_reference_extended_adds_zero():
    ref = benford_reference(extended=True)
    assert ref.prob(0) == 0.0
    assert ref.probs.shape == (10,)
    assert abs(ref.probs.sum() - 1.0) <= 1e-12
    assert np.array_equal(ref.leading, benford_reference().probs)


def test_reference_strictly_decreasing_and_normalized():
    ref = benford_reference()
    assert abs(ref.probs.sum() - 1.0) <= 1e-12
    assert (np.diff(ref.probs) < 0).all()


def test_first_digit_examples():
    assert first_digit(1) == 1
    assert first_digit(907) == 9
    assert first_digit(0) == 0


def test_first_digit_matches_string_oracle_and_decade_shift():
    rng = np.random.default_rng(7)
    for n in rng.integers(0, 10**12, size=1000).tolist():
        assert first_digit(n) == first_digit_oracle(n)
        if n >= 1:
            assert first_digit(n) == first_digit(10 * n)


def test_first_digit_rejects_negative():
    with pytest.raises(ValueError):
        first_digit(-1)


def test_leading_digits_matches_scalar():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 10**9, size=500)
    assert [first_digit(int(v)) for v in values] == leading_digits(values).tolist()


def test_histogram_count_zeros():
    hist = digit_histogram([150, 0, 210], ZeroPolicy.COUNT_ZEROS)
    assert hist.extended
    assert hist.sample_count == 3
    assert hist.prob(0) == pytest.approx(1 / 3)
    assert hist.prob(1) == pytest.approx(1 / 3)
    assert hist.prob(2) == pytest.approx(1 / 3)


def test_histogram_skip_zeros():
    hist = digit_histogram([150, 0, 210], ZeroPolicy.SKIP_ZEROS)
    assert not hist.extended
    assert hist.sample_count == 2
    assert hist.prob(1) == pytest.approx(0.5)
    assert hist.prob(2) == pytest.approx(0.5)
    assert hist.prob(0) == 0.0


def test_histogram_empty_errors():
    with pytest.raises(EmptyHistogramError):
        digit_histogram([0, 0], ZeroPolicy.SKIP_ZEROS)
    with pytest.raises(EmptyHistogramError):
        digit_histogram([], ZeroPolicy.COUNT_ZEROS)
    with pytest.raises(EmptyHistogramError):
        digit_histogram([], ZeroPolicy.SKIP_ZEROS)


def test_histogram_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(200):
        values = rng.integers(0, 10**6, size=rng.integers(1, 400))
        hist = digit_histogram(values, ZeroPolicy.COUNT_ZEROS)
        assert abs(hist.probs.sum() - 1.0) <= 1e-12
        if (values > 0).any():
            hist = digit_histogram(values, ZeroPolicy.SKIP_ZEROS)
            assert abs(hist.probs.sum() - 1.0) <= 1e-12


def test_policies_agree_without_zeros():
    rng = np.random.default_rng(5)
    values = rng.integers(1, 10**6, size=1000)
    skip = digit_histogram(values, ZeroPolicy.SKIP_ZEROS)
    count = digit_histogram(values, ZeroPolicy.COUNT_ZEROS)
    assert count.prob(0) == 0.0
    assert np.array_equal(skip.probs, count.leading)


def test_histogram_rejects_fractional_and_negative():
    with pytest.raises(ValueError):
        digit_histogram([1.5, 2.0], ZeroPolicy.COUNT_ZEROS)
    with pytest.raises(ValueError):
        digit_histogram([-3], ZeroPolicy.COUNT_ZEROS)


def test_distribution_validates_shape_and_mass():
    with pytest.raises(ValueError):
        DigitDistribution(probs=np.ones(9) / 9.0, sample_count=1, extended=True)
    with pytest.raises(ValueError):
        DigitDistribution(probs=np.ones(9), sample_count=1, extended=False)


def test_leading_digits_rejects_floats_and_negatives():
    with pytest.raises(ValueError, match="integer array"):
        leading_digits(np.array([10.0, 3.0]))
    with pytest.raises(ValueError, match="non-negative"):
        leading_digits(np.array([10, -3]))


def test_distribution_rejects_negative_probability_and_sample_count():
    with pytest.raises(ValueError, match="non-negative"):
        DigitDistribution(probs=np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0, 0]), sample_count=1, extended=False)
    with pytest.raises(ValueError, match="sample_count"):
        DigitDistribution(probs=benford_probs(), sample_count=-1, extended=False)


@pytest.mark.parametrize("policy", list(ZeroPolicy))
def test_histogram_of_integral_floats_equals_that_of_ints(policy):
    values = [0, 10, 25, 3, 999, 10**15]
    floats = digit_histogram(np.array(values, dtype=float), policy)
    ints = digit_histogram(values, policy)
    assert np.array_equal(floats.probs, ints.probs) and floats.sample_count == ints.sample_count
