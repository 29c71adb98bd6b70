import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdigits import (
    CapabilityError,
    DetectorConfig,
    FlowDataset,
    LabelingRule,
    OrderingScheme,
    SimilarityMetric,
    SizeUnit,
    WindowIndex,
    WindowSpec,
    ZeroPolicy,
    label_window,
    resolve_labeling_threshold,
    run_detector,
    WindowScore,
    score_window,
    write_scores_csv,
)
from flowdigits import detector
from oracles import window_label as window_label_oracle
from test_ingest import make_flow


def dataset_with_bytes(values, labels=None):
    flows = tuple(
        make_flow(i, bytes_total=v, label=None if labels is None else labels[i])
        for i, v in enumerate(values)
    )
    return FlowDataset(flows=flows, labeled=labels is not None)


def test_labeling_rule_validation():
    with pytest.raises(ValueError):
        LabelingRule()
    with pytest.raises(ValueError):
        LabelingRule(absolute=1, relative=0.5)
    with pytest.raises(ValueError):
        LabelingRule(absolute=0)
    with pytest.raises(ValueError):
        LabelingRule(relative=0.0)
    with pytest.raises(ValueError):
        LabelingRule(relative=1.5)
    assert LabelingRule(relative=1.0).describe() == "rel:1"
    assert LabelingRule(absolute=70).describe() == "abs:70"


def test_resolve_labeling_threshold_examples():
    assert resolve_labeling_threshold(LabelingRule(relative=0.05), 200) == 10
    assert resolve_labeling_threshold(LabelingRule(relative=0.01), 50) == 1
    assert resolve_labeling_threshold(LabelingRule(absolute=70), 100) == 70
    assert resolve_labeling_threshold(LabelingRule(relative=1.0), 7) == 7
    assert resolve_labeling_threshold(LabelingRule(relative=0.2), 1000) == 200


def test_resolve_labeling_threshold_matches_exact_rational_ceiling():
    # The float product 0.05 * 200 lands a hair above 10; the resolved
    # threshold must still be the exact rational ceil.
    rng = np.random.default_rng(61)
    for _ in range(2000):
        w = int(rng.integers(1, 20001))
        t = round(float(rng.uniform(0.001, 1.0)), 3)
        if t <= 0:
            continue
        want = min(w, max(1, math.ceil(Fraction(str(t)) * w)))
        assert resolve_labeling_threshold(LabelingRule(relative=t), w) == want


def test_label_window_sign_zero_boundary():
    labels = [1] * 10 + [0] * 10
    win = WindowIndex(0, 20)
    assert label_window(labels, win, 10) == 1  # exactly T_l counts as malicious
    assert label_window(labels, win, 11) == 0
    assert label_window([0] * 5, WindowIndex(0, 5), 1) == 0


def test_label_window_requires_labels():
    with pytest.raises(CapabilityError):
        label_window([1, None, 0], WindowIndex(0, 3), 1)


def test_label_window_matches_brute_force_and_is_monotone():
    rng = np.random.default_rng(67)
    for _ in range(2000):
        w = int(rng.integers(1, 60))
        labels = rng.integers(0, 2, size=w).tolist()
        t = int(rng.integers(1, w + 1))
        win = WindowIndex(0, w)
        assert label_window(labels, win, t) == window_label_oracle(labels, t)
        if t < w:
            assert label_window(labels, win, t) >= label_window(labels, win, t + 1)


def base_config(**overrides):
    defaults = dict(
        window=WindowSpec(4, 2),
        metric=SimilarityMetric.CHI_SQUARE,
        unit=SizeUnit.BYTES,
        zero_policy=ZeroPolicy.COUNT_ZEROS,
        ordering=OrderingScheme.START_END,
        threshold_t=0.4,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


def test_score_window_constant_flows_skip_zeros_invalid_alerts():
    ds = dataset_with_bytes([500] * 6)
    cfg = base_config(window=WindowSpec(6, 3), zero_policy=ZeroPolicy.SKIP_ZEROS)
    score = score_window(ds, cfg, WindowIndex(0, 6))
    assert not score.valid
    assert math.isinf(score.score)
    assert score.decision == 1


def test_score_window_constant_flows_count_zeros_scores_one():
    ds = dataset_with_bytes([500] * 6)
    cfg = base_config(window=WindowSpec(6, 3))
    score = score_window(ds, cfg, WindowIndex(0, 6))
    assert score.valid
    assert score.score == pytest.approx(1.0, abs=1e-12)
    assert score.decision == 1


def test_decision_threshold_monotonicity():
    ds = dataset_with_bytes([500] * 6)
    low = base_config(window=WindowSpec(6, 3), threshold_t=0.5)
    high = base_config(window=WindowSpec(6, 3), threshold_t=1.5)
    assert score_window(ds, low, WindowIndex(0, 6)).decision == 1
    assert score_window(ds, high, WindowIndex(0, 6)).decision == 0
    # alert fires on equality: re-run with the threshold pinned to the score
    observed = score_window(ds, low, WindowIndex(0, 6)).score
    edge = base_config(window=WindowSpec(6, 3), threshold_t=observed)
    assert score_window(ds, edge, WindowIndex(0, 6)).decision == 1


def test_run_detector_window_count_and_truths():
    rng = np.random.default_rng(71)
    sizes = rng.integers(1, 10**6, size=10).tolist()
    labels = [0, 0, 1, 1, 0, 0, 0, 1, 0, 0]
    ds = dataset_with_bytes(sizes, labels)
    cfg = base_config(labeling=LabelingRule(absolute=1))
    scores = run_detector(ds, cfg)
    assert len(scores) == 4
    for s in scores:
        want = window_label_oracle(labels[s.window.start : s.window.end], 1)
        assert s.truth == want


def test_run_detector_unlabeled_has_no_truth():
    rng = np.random.default_rng(73)
    ds = dataset_with_bytes(rng.integers(1, 10**6, size=10).tolist())
    scores = run_detector(ds, base_config(labeling=LabelingRule(absolute=1)))
    assert len(scores) == 4
    assert all(s.truth is None for s in scores)
    assert all(s.valid for s in scores)


def test_run_detector_matches_score_window_exactly():
    rng = np.random.default_rng(79)
    sizes = rng.integers(0, 10**6, size=300)
    sizes[50:70] = 777  # a constant stretch exercises the zero-digit path
    ds = dataset_with_bytes(sizes.tolist())
    for metric in SimilarityMetric:
        for policy in ZeroPolicy:
            cfg = base_config(window=WindowSpec(20, 10), metric=metric, zero_policy=policy)
            batch = run_detector(ds, cfg)
            assert batch, metric
            for s in batch:
                single = score_window(ds, cfg, s.window)
                assert single.score == s.score, (metric, policy, s.window)
                assert single.valid == s.valid
                assert single.decision == s.decision


def test_run_detector_dense_slide_uses_cumulative_counts():
    # s = 1 with a wide window crosses the work threshold that switches the
    # batch path to cumulative counting; results must not change.
    rng = np.random.default_rng(97)
    sizes = rng.integers(0, 10**6, size=500)
    sizes[100:160] = 4242
    ds = dataset_with_bytes(sizes.tolist())
    cfg = base_config(window=WindowSpec(50, 1), zero_policy=ZeroPolicy.SKIP_ZEROS)
    batch = run_detector(ds, cfg)
    assert len(batch) == 451
    rng_idx = np.random.default_rng(3).integers(0, len(batch), size=40)
    for i in rng_idx:
        single = score_window(ds, cfg, batch[i].window)
        assert single.score == batch[i].score
        assert single.valid == batch[i].valid


def test_run_detector_deterministic():
    rng = np.random.default_rng(83)
    ds = dataset_with_bytes(rng.integers(1, 10**6, size=500).tolist())
    cfg = base_config(window=WindowSpec(50, 25), ordering=OrderingScheme.FIVE_TUPLE_START)
    first = run_detector(ds, cfg)
    second = run_detector(ds, cfg)
    assert first == second


def test_run_detector_applies_ordering():
    # Sizes alternate small/huge in raw order but are monotone once sorted
    # by start time, so ordering changes every window's digits.
    values = [10, 10**6, 20, 2 * 10**6, 30, 3 * 10**6]
    starts = [5.0, 0.0, 4.0, 1.0, 3.0, 2.0]
    flows = tuple(
        make_flow(i, bytes_total=v, rel_start=t) for i, (v, t) in enumerate(zip(values, starts))
    )
    ds = FlowDataset(flows=flows, labeled=False)
    raw_cfg = base_config(window=WindowSpec(6, 6), ordering=OrderingScheme.FIVE_TUPLE_START)
    time_cfg = base_config(window=WindowSpec(6, 6), ordering=OrderingScheme.START_END)
    raw = run_detector(ds, raw_cfg)[0].score
    by_time = run_detector(ds, time_cfg)[0].score
    assert raw != by_time


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(threshold_t=-0.1)


def test_write_scores_csv_inf_and_blank_truth():
    import io

    from flowdigits import WindowScore, write_scores_csv

    scores = [
        WindowScore(window=WindowIndex(0, 4), score=0.25, decision=0, truth=1),
        WindowScore(window=WindowIndex(2, 6), score=math.inf, decision=1, truth=None, valid=False),
    ]
    buffer = io.StringIO()
    write_scores_csv(scores, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "window_index,start_flow,end_flow,score,decision,truth,valid"
    assert lines[1] == "0,0,4,0.25,0,1,1"
    assert lines[2] == "1,2,6,inf,1,,0"


def per_object_write_scores_csv(scores, sink):
    """The writer write_scores_csv replaced: one f-string per WindowScore. The byte-for-byte oracle."""
    sink.write("window_index,start_flow,end_flow,score,decision,truth,valid\n")
    for i, s in enumerate(scores):
        truth = "" if s.truth is None else str(s.truth)
        sink.write(
            f"{i},{s.window.start},{s.window.end},{s.score!r},{s.decision},{truth},{int(s.valid)}\n"
        )


SPECIAL_SCORES = [math.inf, -0.0, 0.0, 5e-324, 1e300]
window_scores = st.builds(
    lambda start, length, score, decision, truth, valid: WindowScore(
        WindowIndex(start, start + length), score, decision, truth, valid
    ),
    st.integers(0, 10**12),
    st.integers(1, 10**6),
    st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats()),
    st.integers(0, 1),
    st.sampled_from([None, 0, 1]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(window_scores, max_size=12), chunk=st.integers(1, 4))
@example(scores=[], chunk=1)
@example(
    scores=[
        WindowScore(WindowIndex(i, i + 3), score, i % 2, [None, 0, 1][i % 3], i % 3 != 0)
        for i, score in enumerate(SPECIAL_SCORES)
    ],
    chunk=2,
)
def test_write_scores_csv_matches_the_per_object_writer(scores, chunk):
    expected, written = io.StringIO(), io.StringIO()
    per_object_write_scores_csv(scores, expected)
    with mock.patch.object(detector, "_CHUNK", chunk):
        write_scores_csv(scores, written)
        rows = [(s.window.start, s.window.end, s.score, s.decision, s.truth, s.valid) for s in scores]
        counts = detector.write_score_rows(rows, io.StringIO())
    assert written.getvalue() == expected.getvalue()
    assert counts == (len(scores), sum(s.decision for s in scores))


def test_labeling_threshold_rejects_an_empty_window_and_a_zero_threshold():
    with pytest.raises(ValueError, match="window size must be positive"):
        resolve_labeling_threshold(LabelingRule(relative=0.5), 0)
    with pytest.raises(ValueError, match="labeling threshold must be >= 1"):
        label_window([1, 0, 1], WindowIndex(0, 3), 0)
