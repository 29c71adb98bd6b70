import dataclasses
import io
import math

import numpy as np
import pytest

from flowdigits import (
    AttackBurst,
    CapabilityError,
    ConstantSize,
    DegenerateLabelsError,
    DetectorConfig,
    EmptyStatsError,
    FlowDataset,
    FlowRecord,
    GeneratorSpec,
    LabelingRule,
    SimilarityMetric,
    SweepCell,
    WindowIndex,
    WindowScore,
    WindowSpec,
    ZeroPolicy,
    divergence_stats,
    generate,
    grid_evaluate,
    roc_auc,
    run_detector,
    window_size_sweep,
    write_roc_csv,
    write_sweep_csv,
)
from oracles import auc_pairwise


def test_roc_perfect_separation():
    pairs = [(0.9, 1), (0.8, 1), (0.1, 0), (0.7, 0)]
    assert roc_auc(pairs).auc == 1.0


def test_roc_full_tie_half_credit():
    assert roc_auc([(0.6, 1), (0.6, 0)]).auc == 0.5


def test_roc_flipped_labels_gives_zero():
    pairs = [(0.9, 0), (0.8, 0), (0.1, 1), (0.2, 1)]
    assert roc_auc(pairs).auc == 0.0


def test_roc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        roc_auc([(0.5, 1), (0.6, 1)])
    with pytest.raises(DegenerateLabelsError):
        roc_auc([])


def test_roc_rejects_nan_and_bad_labels():
    with pytest.raises(ValueError):
        roc_auc([(float("nan"), 1), (0.1, 0)])
    with pytest.raises(ValueError):
        roc_auc([(0.5, 2), (0.1, 0)])


def test_roc_curve_shape_invariants():
    rng = np.random.default_rng(101)
    scores = rng.choice([0.1, 0.2, 0.2, 0.7, math.inf], size=30)
    truths = rng.integers(0, 2, size=30)
    truths[0], truths[1] = 0, 1
    curve = roc_auc(zip(scores.tolist(), truths.tolist()))
    thresholds = [p[0] for p in curve.points]
    assert thresholds == sorted(thresholds, reverse=True)
    fprs = [p[1] for p in curve.points]
    tprs = [p[2] for p in curve.points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    assert (fprs[0], tprs[0]) == (0.0, 0.0)
    assert (fprs[-1], tprs[-1]) == (1.0, 1.0)


def test_roc_matches_pairwise_oracle_exactly_without_ties():
    rng = np.random.default_rng(103)
    sizes = [int(rng.integers(2, 300)) for _ in range(40)] + [640, 1000]
    for n in sizes:
        scores = rng.permutation(n).astype(float).tolist()
        truths = rng.integers(0, 2, size=n)
        truths[0], truths[1] = 0, 1
        truths = truths.tolist()
        # exact equality, not approximate: both sides reduce the same integers
        assert roc_auc(zip(scores, truths)).auc == auc_pairwise(scores, truths)


def test_roc_matches_pairwise_oracle_with_ties_and_inf():
    rng = np.random.default_rng(107)
    for _ in range(100):
        n = int(rng.integers(2, 100))
        scores = rng.choice([0.0, 0.25, 0.25, 0.5, 1.0, math.inf], size=n).tolist()
        truths = rng.integers(0, 2, size=n)
        truths[0], truths[1] = 0, 1
        truths = truths.tolist()
        assert roc_auc(zip(scores, truths)).auc == pytest.approx(auc_pairwise(scores, truths), abs=1e-15)


def test_roc_invariant_under_increasing_transform():
    rng = np.random.default_rng(109)
    scores = rng.uniform(0, 4, size=60).tolist()
    truths = (rng.uniform(size=60) < 0.4).astype(int)
    truths[0], truths[1] = 0, 1
    truths = truths.tolist()
    base = roc_auc(zip(scores, truths)).auc
    assert roc_auc(zip([math.exp(s) for s in scores], truths)).auc == base
    assert roc_auc(zip([3 * s + 7 for s in scores], truths)).auc == base


def ws(score, valid=True):
    return WindowScore(window=WindowIndex(0, 1), score=score, decision=0, valid=valid)


def test_divergence_stats_examples():
    stats = divergence_stats([ws(0.1), ws(0.2), ws(0.3)])
    assert (stats.average, stats.median, stats.minimum, stats.maximum) == (
        pytest.approx(0.2),
        pytest.approx(0.2),
        0.1,
        0.3,
    )
    single = divergence_stats([ws(0.5)])
    assert (single.average, single.median, single.minimum, single.maximum) == (0.5, 0.5, 0.5, 0.5)
    even = divergence_stats([ws(0.1), ws(0.3)])
    assert even.median == pytest.approx(0.2)


def test_divergence_stats_excludes_invalid():
    stats = divergence_stats([ws(0.1), ws(math.inf, valid=False), ws(0.3)])
    assert stats.n_valid == 2
    assert stats.n_invalid == 1
    assert math.isfinite(stats.maximum)
    with pytest.raises(EmptyStatsError):
        divergence_stats([ws(math.inf, valid=False)])


def synth_dataset(seed=123, n_normal=4000, bursts=()):
    return generate(GeneratorSpec(seed=seed, n_normal=n_normal, size_decades=(1, 7), attacks=bursts))


def test_window_size_sweep_absent_cell_warns_and_continues():
    ds = synth_dataset(n_normal=2000)
    cfg = DetectorConfig(window=WindowSpec(100))
    with pytest.warns(RuntimeWarning):
        result = window_size_sweep(ds, cfg, [200, 10_000_000, 400])
    assert result.axes == ("w",)
    values = {c.coords[0]: c for c in result.cells}
    assert values[10_000_000].value is None
    assert values[10_000_000].reason == "insufficient flows"
    assert values[200].value is not None
    assert values[400].value is not None


def test_window_size_sweep_deterministic():
    ds = synth_dataset(n_normal=2000)
    cfg = DetectorConfig(window=WindowSpec(100))
    one = window_size_sweep(ds, cfg, [100, 100, 300])
    assert one.cells[0].value == one.cells[1].value
    assert one == window_size_sweep(ds, cfg, [100, 100, 300])


def burst_dataset():
    burst = AttackBurst(start_index=2000, length=600, pattern=ConstantSize(1500))
    return synth_dataset(seed=321, n_normal=3400, bursts=(burst,))


def test_grid_evaluate_cardinality_and_order():
    ds = burst_dataset()
    cfg = DetectorConfig(window=WindowSpec(200))
    labelings = [LabelingRule(relative=0.2), LabelingRule(absolute=4000)]
    metrics = [SimilarityMetric.CHI_SQUARE, SimilarityMetric.MODIFIED_KLD]
    result = grid_evaluate(ds, cfg, [100, 200, 400], labelings, metrics)
    assert len(result.cells) == 3 * 2 * 2
    assert result.axes == ("w", "labeling", "metric")
    # T_l = 4000 > every window's flow count: single-class truth, absent cell
    for cell in result.cells:
        if cell.coords[1] == "abs:4000":
            assert cell.value is None
            assert cell.reason == "degenerate labels"


def test_grid_evaluate_clean_separation_reaches_auc_one():
    ds = burst_dataset()
    cfg = DetectorConfig(window=WindowSpec(200))
    result = grid_evaluate(ds, cfg, [200], [LabelingRule(relative=0.5)], [SimilarityMetric.CHI_SQUARE])
    best = result.best()
    assert best is not None
    assert best.value == 1.0


def test_grid_evaluate_threads_match_sequential():
    ds = burst_dataset()
    cfg = DetectorConfig(window=WindowSpec(200))
    labelings = [LabelingRule(relative=0.2), LabelingRule(relative=0.5)]
    metrics = [SimilarityMetric.CHI_SQUARE, SimilarityMetric.COSINE]
    sequential = grid_evaluate(ds, cfg, [100, 200, 400], labelings, metrics, threads=1)
    threaded = grid_evaluate(ds, cfg, [100, 200, 400], labelings, metrics, threads=4)
    assert sequential == threaded


def test_grid_evaluate_requires_labels():
    ds = synth_dataset(n_normal=1000)
    unlabeled = FlowDataset(
        flows=tuple(dataclasses.replace(f, label=None) for f in ds.flows),
        labeled=False,
    )
    cfg = DetectorConfig(window=WindowSpec(100))
    with pytest.raises(CapabilityError):
        grid_evaluate(unlabeled, cfg, [100], [LabelingRule(relative=0.2)], [SimilarityMetric.CHI_SQUARE])


def test_mean_scores_order_normal_mixed_malicious():
    normal = synth_dataset(seed=11, n_normal=6000)
    mixed = synth_dataset(
        seed=11,
        n_normal=5400,
        bursts=(AttackBurst(start_index=2000, length=600, pattern=ConstantSize(900)),),
    )
    malicious = synth_dataset(
        seed=11,
        n_normal=200,
        bursts=(AttackBurst(start_index=100, length=5800, pattern=ConstantSize(900)),),
    )
    cfg = DetectorConfig(window=WindowSpec(500))
    means = []
    for ds in (normal, mixed, malicious):
        means.append(divergence_stats(run_detector(ds, cfg)).average)
    assert means[0] < means[1] < means[2]


def test_write_roc_csv_format():
    curve = roc_auc([(0.9, 1), (0.8, 1), (0.1, 0), (0.7, 0)])
    buffer = io.StringIO()
    write_roc_csv(curve, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert lines[1].startswith("inf,")
    assert lines[-1] == "# auc=1.0"


def test_write_sweep_csv_format():
    ds = burst_dataset()
    cfg = DetectorConfig(window=WindowSpec(200))
    result = grid_evaluate(
        ds, cfg, [200, 100_000], [LabelingRule(relative=0.5)], [SimilarityMetric.CHI_SQUARE]
    )
    buffer = io.StringIO()
    write_sweep_csv(result, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "w,labeling,metric,auc"
    assert lines[1].startswith("200,rel:0.5,chi2,")
    assert lines[2] == "100000,rel:0.5,chi2,"
    assert lines[3].startswith("# absent: 100000,")


def test_window_size_sweep_of_constant_sizes_skipping_zeros_has_no_valid_windows():
    flows = [FlowRecord("10.0.0.1", 1, "10.0.0.2", 2, 1, 100, float(i), 0.0, 0, i) for i in range(30)]
    config = DetectorConfig(window=WindowSpec(10), zero_policy=ZeroPolicy.SKIP_ZEROS)
    result = window_size_sweep(FlowDataset(flows, labeled=True), config, [10, 20])
    assert result.cells == (
        SweepCell(coords=(10,), value=None, reason="no valid windows"),
        SweepCell(coords=(20,), value=None, reason="no valid windows"),
    )
