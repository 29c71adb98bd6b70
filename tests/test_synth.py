import hashlib
import io

import pytest

from flowdigits import (
    AttackBurst,
    ConstantSize,
    GeneratorSpec,
    GeneratorSpecError,
    SizeUnit,
    UniformSize,
    WindowIndex,
    ZeroPolicy,
    chi_square,
    describe,
    difference_sequence,
    digit_histogram,
    generate,
    parse_flow_csv,
    size_sequence,
    window_differences,
    write_flow_csv,
)
from flowdigits.ingest import MAX_SIZE


def test_generate_is_deterministic():
    spec = GeneratorSpec(
        seed=99,
        n_normal=3000,
        size_decades=(1, 7),
        attacks=(AttackBurst(start_index=500, length=200, pattern=ConstantSize(1500)),),
    )
    assert generate(spec).flows == generate(spec).flows


def test_generate_burst_accounting():
    spec = GeneratorSpec(
        seed=5,
        n_normal=2000,
        attacks=(
            AttackBurst(start_index=100, length=300, pattern=ConstantSize(1500)),
            AttackBurst(start_index=900, length=150, pattern=UniformSize(400, 600)),
        ),
    )
    ds = generate(spec)
    assert len(ds.flows) == 2450
    assert sum(f.label for f in ds.flows) == 450
    assert ds.labeled
    for f in ds.flows[100:400]:
        assert f.label == 1
        assert f.bytes_total == 1500
    for f in ds.flows[900:1050]:
        assert f.label == 1
        assert 400 <= f.bytes_total <= 600


def test_generate_validation():
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(seed=1, n_normal=0)
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(seed=1, n_normal=100, size_decades=(2, 5))
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(
            seed=1,
            n_normal=1000,
            attacks=(
                AttackBurst(start_index=0, length=100, pattern=ConstantSize(10)),
                AttackBurst(start_index=50, length=100, pattern=ConstantSize(10)),
            ),
        )
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(
            seed=1,
            n_normal=100,
            attacks=(AttackBurst(start_index=150, length=100, pattern=ConstantSize(10)),),
        )
    with pytest.raises(GeneratorSpecError):
        ConstantSize(0)
    with pytest.raises(GeneratorSpecError):
        UniformSize(10, 5)


def test_generate_flow_fields():
    ds = generate(GeneratorSpec(seed=2, n_normal=500))
    starts = [f.rel_start for f in ds.flows]
    assert all(b > a for a, b in zip(starts, starts[1:]))
    for f in ds.flows[:50]:
        assert f.packets_total == max(1, f.bytes_total // 500)
        assert f.duration >= 0
        assert 0 <= f.src_port <= 65535
    packets = size_sequence(ds, SizeUnit.PACKETS)
    assert (packets >= 1).all()


def test_normal_traffic_tracks_reference():
    # Build-time calibration oracle: the full difference sequence of 50k
    # log-uniform flows over 6 decades stays close to the reference.
    ds = generate(GeneratorSpec(seed=20260810, n_normal=50_000, size_decades=(1, 7)))
    diffs = difference_sequence(size_sequence(ds, SizeUnit.BYTES))
    hist = digit_histogram(diffs, ZeroPolicy.COUNT_ZEROS)
    assert chi_square(hist) < 0.02


def test_burst_window_is_all_zero_differences():
    spec = GeneratorSpec(
        seed=77,
        n_normal=2000,
        attacks=(AttackBurst(start_index=500, length=400, pattern=ConstantSize(1500)),),
    )
    ds = generate(spec)
    diffs = window_differences(ds, SizeUnit.BYTES, WindowIndex(500, 900))
    hist = digit_histogram(diffs, ZeroPolicy.COUNT_ZEROS)
    assert hist.prob(0) == 1.0


def test_pareto_size_model():
    ds = generate(GeneratorSpec(seed=3, n_normal=2000, size_model="pareto"))
    sizes = size_sequence(ds, SizeUnit.BYTES)
    assert (sizes >= 10).all()
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(seed=3, n_normal=10, size_model="weird")


def test_describe_matches_generate():
    spec = GeneratorSpec(
        seed=8,
        n_normal=1000,
        attacks=(
            AttackBurst(start_index=100, length=100, pattern=ConstantSize(64)),
            AttackBurst(start_index=600, length=100, pattern=UniformSize(1, 9)),
        ),
    )
    text = describe(spec)
    assert "malicious flows: 200" in text
    assert "total flows:     1200" in text
    ds = generate(spec)
    assert sum(f.label for f in ds.flows) == 200
    assert len(ds.flows) == 1200

    quiet = describe(GeneratorSpec(seed=8, n_normal=10))
    assert "malicious flows: 0" in quiet


def test_generated_dataset_round_trips_through_csv():
    spec = GeneratorSpec(
        seed=13,
        n_normal=300,
        attacks=(AttackBurst(start_index=50, length=20, pattern=ConstantSize(777)),),
    )
    ds = generate(spec)
    buffer = io.StringIO()
    write_flow_csv(ds, buffer)
    again = parse_flow_csv(io.StringIO(buffer.getvalue()))
    assert again.labeled
    assert again.flows == ds.flows


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AttackBurst(start_index=-1, length=5, pattern=ConstantSize(7)), "start_index"),
        (lambda: AttackBurst(start_index=0, length=0, pattern=ConstantSize(7)), "length"),
        (lambda: GeneratorSpec(seed=1, n_normal=10, size_decades=(-1, 5)), "size_decades"),
    ],
)
def test_spec_rejects_negative_start_zero_length_and_negative_decade(build, message):
    with pytest.raises(GeneratorSpecError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConstantSize(MAX_SIZE + 1),
        lambda: UniformSize(1, MAX_SIZE + 1),
        lambda: GeneratorSpec(seed=1, n_normal=10, size_decades=(15, 19)),
    ],
)
def test_spec_rejects_sizes_above_int64(build):
    with pytest.raises(GeneratorSpecError):
        build()


def test_spec_accepts_the_largest_int64_sizes():
    bursts = (
        AttackBurst(start_index=0, length=2, pattern=ConstantSize(MAX_SIZE)),
        AttackBurst(start_index=2, length=2, pattern=UniformSize(MAX_SIZE - 1, MAX_SIZE)),
    )
    ds = generate(GeneratorSpec(seed=1, n_normal=50, size_decades=(14, 18), attacks=bursts))
    assert ds.bytes_total[:2].tolist() == [MAX_SIZE] * 2
    assert ds.bytes_total[2:4].min() >= MAX_SIZE - 1
    assert (ds.bytes_total[4:] < 10**18).all()


def test_generate_bytes_of_unsorted_bursts_are_pinned():
    """The flow CSV of one spec, bursts given out of order, one of them a single flow, is fixed byte for byte."""
    spec = GeneratorSpec(
        seed=11,
        n_normal=400,
        attacks=(
            AttackBurst(300, 40, ConstantSize(1500)),
            AttackBurst(20, 1, UniformSize(100, 200)),
            AttackBurst(120, 30, UniformSize(1000, 5000)),
        ),
    )
    sink = io.StringIO()
    write_flow_csv(generate(spec), sink)
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest == "a6b6f7f406cd488c3cea967c0c6c4af254f33487db113894d375c7aa0d8a6b6d"
