"""Differential tests of the row-wise scoring kernel, the array ROC and the grid AUCs.

The references below score one window at a time with one ``np.sum`` per
metric, and walk a sorted() list of (score, truth) tuples for the ROC. The
array code must reproduce them bit for bit, so scores are compared through
their int64 bit patterns rather than by value. Every grid cell must equal
the per-cell ROC AUC and the pairwise oracle exactly.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdigits import (
    DetectorConfig,
    DigitDistribution,
    FlowDataset,
    KldParams,
    LabelingRule,
    SimilarityMetric,
    WindowSpec,
    ZeroPolicy,
    benford_reference,
    compute,
    grid_evaluate,
    roc_auc,
    run_detector,
    window_differences,
    windows,
)
from flowdigits import detector
from flowdigits.benford import leading_digits
from flowdigits.detector import OrderedFlows, _count_scores, window_arrays
from flowdigits.evaluation import _threshold_aucs, roc_curve
from flowdigits.ingest import MAX_SIZE
from flowdigits.similarity import DIVERGENCES
from flowdigits.windowing import window_starts
from oracles import auc_pairwise
from test_ingest import make_flow

# -- reference: the per-window loop ---------------------------------------------


def _ref_leading(ref):
    return (ref or benford_reference()).leading


def ref_chi_square(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    return float(np.sum((o - r) ** 2 / r))


def ref_euclidean(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    return float(np.sqrt(np.sum((o - r) ** 2)))


def ref_manhattan(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    return float(np.sum(np.abs(o - r)))


def ref_canberra(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    denom = o + r
    terms = np.zeros(9)
    nz = denom > 0
    terms[nz] = np.abs(o[nz] - r[nz]) / denom[nz]
    return float(terms.sum())


def ref_pearson_cc(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    if np.ptp(o) == 0:
        return 0.0
    oc = o - o.mean()
    rc = r - r.mean()
    so = np.sqrt(np.sum(oc**2))
    sr = np.sqrt(np.sum(rc**2))
    if so == 0.0 or sr == 0.0:
        return 0.0
    return float(np.sum(oc * rc) / (so * sr))


def ref_cosine(obs, ref=None):
    o, r = obs.leading, _ref_leading(ref)
    no = np.sqrt(np.sum(o**2))
    if no == 0.0:
        return 0.0
    nr = np.sqrt(np.sum(r**2))
    return float(np.sum(o * r) / (no * nr))


def ref_modified_kld(obs, ref=None, params=None):
    theta = (params or KldParams()).theta
    o, r = obs.leading, _ref_leading(ref)
    nz = o > 0
    inner = float(np.sum(o[nz] * np.log2(o[nz] / r[nz]))) if nz.any() else 0.0
    if inner < 0.0:
        inner = 0.0
    return obs.zero_mass * theta + math.sqrt(inner)


REF_FUNCS = {
    SimilarityMetric.CHI_SQUARE: ref_chi_square,
    SimilarityMetric.EUCLIDEAN: ref_euclidean,
    SimilarityMetric.MANHATTAN: ref_manhattan,
    SimilarityMetric.CANBERRA: ref_canberra,
    SimilarityMetric.PEARSON_CC: ref_pearson_cc,
    SimilarityMetric.COSINE: ref_cosine,
}


def ref_compute(metric, obs, ref=None, kld=None):
    if metric is SimilarityMetric.MODIFIED_KLD:
        return ref_modified_kld(obs, ref, kld)
    return REF_FUNCS[metric](obs, ref)


def ref_anomaly_score(metric, raw):
    if metric in DIVERGENCES:
        return raw
    if metric is SimilarityMetric.PEARSON_CC:
        raw = max(raw, 0.0)
    return 1.0 - raw


def ref_scores_from_counts(counts, policy, metric, kld):
    k = counts.shape[0]
    scores = np.full(k, math.inf)
    valid = np.zeros(k, dtype=bool)
    for i in range(k):
        row = counts[i]
        if policy is ZeroPolicy.SKIP_ZEROS:
            retained = int(row[1:].sum())
            if retained == 0:
                continue
            hist = DigitDistribution(probs=row[1:] / retained, sample_count=retained, extended=False)
        else:
            total = int(row.sum())
            if total == 0:
                continue
            hist = DigitDistribution(probs=row / total, sample_count=total, extended=True)
        raw = ref_compute(metric, hist, kld=kld)
        scores[i] = ref_anomaly_score(metric, raw)
        valid[i] = True
    return scores, valid


# -- reference: the tuple-sort ROC ----------------------------------------------


def ref_roc(pairs):
    data = sorted(((float(s), t) for s, t in pairs), key=lambda p: p[0], reverse=True)
    n_pos = sum(t for _, t in data)
    n_neg = len(data) - n_pos
    points = [(math.inf, 0.0, 0.0)]
    tp = fp = 0
    auc_num = 0
    i = 0
    while i < len(data):
        threshold = data[i][0]
        dtp = dfp = 0
        while i < len(data) and data[i][0] == threshold:
            dtp += data[i][1]
            dfp += 1 - data[i][1]
            i += 1
        auc_num += dfp * (2 * tp + dtp)
        tp += dtp
        fp += dfp
        points.append((threshold, fp / n_neg, tp / n_pos))
    return points, auc_num / (2 * n_pos * n_neg)


# -- strategies -------------------------------------------------------------------


def _sparse_row(support, values):
    return [v if d in support else 0 for d, v in enumerate(values)]


COUNT_ROWS = st.one_of(
    # any subset of the ten digits non-zero: 0 to 9 non-zero leading digits
    st.builds(
        _sparse_row,
        st.sets(st.integers(0, 9)),
        st.lists(st.integers(1, 10**6), min_size=10, max_size=10),
    ),
    # tiny windows: a handful of differences in all
    st.lists(st.integers(0, 2), min_size=10, max_size=10),
    st.just([0] * 10),
    st.builds(lambda zeros, c: [zeros] + [c] * 9, st.integers(0, 50), st.integers(1, 50)),
)

COUNT_MATRICES = st.lists(COUNT_ROWS, min_size=1, max_size=30).map(lambda rows: np.array(rows, dtype=np.int64))
THETAS = st.one_of(st.just(KldParams()), st.floats(0.01, 50.0).map(lambda t: KldParams(theta=t)))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# -- kernel -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(counts=COUNT_MATRICES, kld=THETAS)
def test_count_scores_bit_identical_to_per_window_loop(counts, kld):
    for policy in ZeroPolicy:
        for metric in SimilarityMetric:
            scores, valid = _count_scores(counts, policy, metric, kld)
            want_scores, want_valid = ref_scores_from_counts(counts, policy, metric, kld)
            assert bits(scores) == bits(want_scores), (policy, metric)
            assert valid.tolist() == want_valid.tolist(), (policy, metric)


def _distribution(counts, extended):
    counts = np.asarray(counts, dtype=np.int64)
    if not extended:
        counts = counts[1:]
    total = int(counts.sum())
    if total == 0:
        counts[-1] = total = 1
    return DigitDistribution(probs=counts / total, sample_count=total, extended=extended)


@settings(max_examples=150, deadline=None)
@given(obs=COUNT_ROWS, ref=COUNT_ROWS, obs_extended=st.booleans(), custom_ref=st.booleans(), kld=THETAS)
def test_scalar_metrics_bit_identical_with_custom_reference(obs, ref, obs_extended, custom_ref, kld):
    observation = _distribution(obs, obs_extended)
    reference = _distribution(ref, False) if custom_ref else None
    for metric in SimilarityMetric:
        with np.errstate(divide="ignore", invalid="ignore"):
            got = compute(metric, observation, reference, kld)
            want = ref_compute(metric, observation, reference, kld)
        assert bits([got]) == bits([want]), metric


def first_digits(values):
    return np.array([int(str(v)[0]) for v in values.tolist()], dtype=np.int64)


SIZES = st.lists(
    st.one_of(st.integers(0, 10**7), st.sampled_from([0, 7, 1500])),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(sizes=SIZES, w=st.integers(1, 25), step=st.integers(1, 25), policy=st.sampled_from(list(ZeroPolicy)))
def test_run_detector_bit_identical_to_brute_force_windows(sizes, w, step, policy):
    step = min(step, w)
    dataset = FlowDataset(
        flows=tuple(make_flow(i, packets_total=None, bytes_total=v) for i, v in enumerate(sizes)), labeled=False
    )
    for metric in SimilarityMetric:
        config = DetectorConfig(window=WindowSpec(w, step), metric=metric, zero_policy=policy)
        got = run_detector(dataset, config)
        wins = windows(len(sizes), config.window)
        assert [s.window for s in got] == wins
        if not wins:
            continue
        counts = np.array(
            [np.bincount(first_digits(window_differences(dataset, config.unit, win)), minlength=10) for win in wins]
        )
        want, want_valid = ref_scores_from_counts(counts, policy, metric, config.kld)
        assert bits([s.score for s in got]) == bits(want), metric
        assert [s.valid for s in got] == want_valid.tolist()



@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.one_of(st.integers(0, 10**12), st.sampled_from([0, 7, 1500])), min_size=2, max_size=80),
    data=st.data(),
)
def test_scaling_every_size_by_a_power_of_ten_keeps_every_score(sizes, data):
    # |10^k a - 10^k b| = 10^k |a - b| keeps every first digit and keeps zeros zero.
    w = data.draw(st.integers(2, min(len(sizes), 25)), label="w")
    k = data.draw(st.integers(1, len(str(MAX_SIZE // max(max(sizes), 1))) - 1), label="k")
    scaled = [v * 10**k for v in sizes]
    assert max(scaled) <= MAX_SIZE
    datasets = [
        FlowDataset(
            flows=tuple(make_flow(i, packets_total=None, bytes_total=v) for i, v in enumerate(values)), labeled=False
        )
        for values in (sizes, scaled)
    ]
    for policy in ZeroPolicy:
        for metric in SimilarityMetric:
            config = DetectorConfig(window=WindowSpec(w, 1), metric=metric, zero_policy=policy)
            base, moved = (run_detector(dataset, config) for dataset in datasets)
            assert bits([s.score for s in moved]) == bits([s.score for s in base]), (policy, metric, k)
            assert [s.valid for s in moved] == [s.valid for s in base]


# -- ROC --------------------------------------------------------------------------

SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.5, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(SCORES, st.integers(0, 1)), min_size=2, max_size=60))
def test_array_roc_equals_sorted_reference_and_pairwise_oracle(pairs):
    truths = [t for _, t in pairs]
    if len(set(truths)) < 2:
        return
    scores = [s for s, _ in pairs]
    curve = roc_curve(np.array(scores), np.array(truths))
    want_points, want_auc = ref_roc(pairs)
    assert [tuple(map(float.hex, p)) for p in curve.points] == [tuple(map(float.hex, p)) for p in want_points]
    assert curve.auc == want_auc == auc_pairwise(scores, truths)
    assert roc_auc(pairs) == curve


# -- grid AUCs ----------------------------------------------------------------------


def per_cell_auc(scores, truths):
    """roc_curve's AUC of one cell, checked against the pairwise oracle; None when single-class."""
    if truths.all() or not truths.any():
        return None
    auc = roc_curve(scores, truths).auc
    assert auc == auc_pairwise(scores.tolist(), truths.tolist())
    return auc


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(SCORES, st.integers(0, 4)), min_size=1, max_size=60),
    thresholds=st.lists(st.integers(1, 6), min_size=1, max_size=8),
)
def test_threshold_aucs_equal_per_threshold_roc_and_pairwise_oracle(rows, thresholds):
    scores = np.array([s for s, _ in rows])
    counts = np.array([c for _, c in rows], dtype=np.int64)
    want = [per_cell_auc(scores, (counts >= t).astype(np.int64)) for t in thresholds]
    assert _threshold_aucs(scores, counts, thresholds) == want


#: Flow sizes with many equal values: tied scores, and zero differences that
#: leave windows without a histogram under SKIP_ZEROS (INVALID_SCORE).
TIED_SIZES = st.one_of(
    st.lists(st.sampled_from([7, 100, 1500, 20_000]), min_size=8, max_size=90),
    st.integers(8, 90).map(lambda n: [1500] * n),
    st.lists(st.one_of(st.integers(1, 10**6), st.just(1500)), min_size=8, max_size=90),
)
LABELINGS = st.lists(
    st.one_of(
        st.one_of(st.integers(1, 4), st.integers(1, 100)).map(lambda t: LabelingRule(absolute=t)),
        st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.9, 1.0]).map(lambda t: LabelingRule(relative=t)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(
    sizes=TIED_SIZES,
    data=st.data(),
    policy=st.sampled_from(list(ZeroPolicy)),
    labelings=LABELINGS,
)
def test_grid_cells_equal_per_cell_roc_and_pairwise_oracle(sizes, data, policy, labelings):
    n = len(sizes)
    labels = data.draw(
        st.one_of(st.lists(st.integers(0, 1), min_size=n, max_size=n), st.sampled_from([[0] * n, [1] * n])),
        label="labels",
    )
    w_grid = data.draw(
        st.lists(st.one_of(st.integers(2, 8), st.integers(2, n + 1)), min_size=1, max_size=3), label="w_grid"
    )
    step = data.draw(st.one_of(st.none(), st.integers(1, min(w_grid))), label="step")
    dataset = FlowDataset(
        flows=tuple(make_flow(i, bytes_total=v, label=y) for i, (v, y) in enumerate(zip(sizes, labels))),
        labeled=True,
    )
    base = DetectorConfig(window=WindowSpec(2), zero_policy=policy)
    metrics = list(SimilarityMetric)
    result = grid_evaluate(dataset, base, w_grid, labelings, metrics, step=step)

    flows = OrderedFlows(dataset, base)
    want = []
    for w in w_grid:
        for labeling in labelings:
            for metric in metrics:
                coords = (w, labeling.describe(), metric.value)
                if w > n:
                    want.append((coords, None, "insufficient flows"))
                    continue
                config = DetectorConfig(window=WindowSpec(w, step), metric=metric, zero_policy=policy)
                starts, scores, _, _ = window_arrays(flows, config)
                auc = per_cell_auc(scores, flows.truths(starts, w, labeling))
                want.append((coords, auc, None if auc is not None else "degenerate labels"))
    assert [(c.coords, c.value, c.reason) for c in result.cells] == want


# -- the window-count pass ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(st.sampled_from([0, 1, 7, 10, 100, 1500]), st.integers(0, 10**9)), min_size=2, max_size=120
    ),
    data=st.data(),
)
def test_window_counts_equal_bruteforce_bincount_per_batch(sizes, data):
    n = len(sizes)
    w = data.draw(st.integers(1, n), label="w")
    step = data.draw(st.sampled_from([1, max(1, w // 2), w]), label="step")
    chunk = data.draw(st.integers(1, 6), label="chunk")  # batches shorter than a window, and a short last one
    span = data.draw(st.sampled_from([1, 2, 5, 1 << 16]), label="span")
    dataset = FlowDataset(
        flows=tuple(make_flow(i, packets_total=None, bytes_total=v) for i, v in enumerate(sizes)), labeled=False
    )
    flows = OrderedFlows(dataset, DetectorConfig(window=WindowSpec(w, step)))
    starts = window_starts(n, WindowSpec(w, step))
    digits = leading_digits(np.abs(np.diff(np.array(sizes, dtype=np.int64))))
    seen = 0
    with mock.patch.object(detector, "_CHUNK", chunk), mock.patch.object(detector, "_SPAN", span):
        for part, counts in flows.window_counts(starts, w - 1):
            batch = starts[part]
            assert part.start == seen and 1 <= len(batch) <= chunk
            assert len(batch) == 1 or batch[-1] - batch[0] < span
            want = [np.bincount(digits[s : s + w - 1], minlength=10).tolist() for s in batch.tolist()]
            assert counts.tolist() == want
            seen = part.stop
    assert seen == len(starts)


@pytest.mark.parametrize("metric_count", [1, 3, len(SimilarityMetric)])
def test_grid_evaluate_counts_each_present_window_size_once(metric_count):
    sizes = [100, 1500, 7, 20_000, 1500, 1500, 3, 900] * 8
    dataset = FlowDataset(
        flows=tuple(make_flow(i, bytes_total=v, label=int(i % 3 == 0)) for i, v in enumerate(sizes)), labeled=True
    )
    w_grid = [4, 2, 200, 9, 64, 65]
    passes = []
    count_pass = OrderedFlows.window_counts

    def counted(self, starts, length):
        passes.append(length + 1)
        return count_pass(self, starts, length)

    base = DetectorConfig(window=WindowSpec(2))
    labelings = [LabelingRule(absolute=1), LabelingRule(relative=0.5)]
    with mock.patch.object(OrderedFlows, "window_counts", counted):
        result = grid_evaluate(dataset, base, w_grid, labelings, list(SimilarityMetric)[:metric_count])
    assert passes == [w for w in w_grid if w <= len(sizes)]
    assert len(result.cells) == len(w_grid) * len(labelings) * metric_count


def test_ordered_flows_hold_int8_digits_and_label_prefix_sums():
    dataset = FlowDataset(flows=tuple(make_flow(i, label=i % 2) for i in range(50)), labeled=True)
    flows = OrderedFlows(dataset, DetectorConfig(window=WindowSpec(5)))
    held = {name: (a.dtype, a.shape) for name, a in vars(flows).items() if isinstance(a, np.ndarray)}
    assert held == {"_digits": (np.int8, (49,)), "_label_cum": (np.int64, (51,))}
