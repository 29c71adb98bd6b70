"""ROC/AUC benchmarking, divergence statistics and parameter-grid sweeps."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .detector import DetectorConfig, LabelingRule, OrderedFlows, WindowScore, column_rows, resolve_labeling_threshold
from .detector import window_arrays
from .errors import CapabilityError, DegenerateLabelsError, EmptyStatsError
from .ingest import FlowDataset
from .similarity import SimilarityMetric
from .windowing import WindowSpec, window_starts


@dataclass(frozen=True)
class RocCurve:
    """(threshold, fpr, tpr) points in descending threshold order, plus AUC.

    The alert rule is score >= threshold. The curve always starts at (0, 0)
    and ends at (1, 1); AUC is the trapezoidal area, which equals the
    pairwise ranking statistic P(pos > neg) + 0.5 * P(pos == neg) exactly.
    """

    points: tuple[tuple[float, float, float], ...]
    auc: float


def roc_rows(scores: np.ndarray, truths: np.ndarray) -> tuple[Iterator[tuple[float, float, float]], float]:
    """(threshold, fpr, tpr) rows and AUC for a float score array without NaN and a 0/1 int truth array.

    Thresholds sweep the distinct scores. Infinite scores rank above every
    finite score; tied scores collapse into one curve point, which gives
    tied positive/negative pairs half credit. The AUC is computed in
    integers, so equal inputs can be compared for exact equality. The
    arrays are ranked now, so degenerate labels raise here; the rows are
    read out of them as they are iterated.
    """
    n_pos = int(truths.sum())
    n_neg = len(truths) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("ROC needs at least one positive and one negative window")

    order, ends, ranks = _midranks(scores)
    # The point (0, 0) at threshold inf, then one per run of equal scores, taken at the run's end.
    tp = np.append(0, np.cumsum(truths[order])[ends])
    fp = np.append(0, ends + 1) - tp
    thresholds = np.append(math.inf, scores[order[np.append(0, ends[:-1] + 1)]])
    return column_rows((thresholds, fp / n_neg, tp / n_pos)), _auc(int(ranks @ truths), n_pos, len(truths))


def roc_curve(scores: np.ndarray, truths: np.ndarray) -> RocCurve:
    """ROC curve and AUC of ``roc_rows``, with every point held."""
    rows, auc = roc_rows(scores, truths)
    return RocCurve(points=tuple(rows), auc=auc)


def _midranks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ends, ranks) of a float score array without NaN.

    ``order`` sorts the scores descending (stable), ``ends`` is the last
    position of each run of equal scores in that order, and ``ranks`` holds
    twice each score's ascending mid-rank, an int64 shared by its run.
    """
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    runs = np.diff(ends, prepend=-1)
    ranks = np.empty(len(scores), dtype=np.int64)
    # A run of r scores ending at descending position b holds the ascending ranks n - b .. n - b + r - 1.
    ranks[order] = np.repeat(2 * (len(scores) - ends) + runs - 1, runs)
    return order, ends, ranks


def _auc(rank_sum: int, n_pos: int, n: int) -> float:
    """Mann-Whitney AUC from the positives' doubled mid-rank sum: 2U / (2 n_pos n_neg).

    2U = rank_sum - n_pos (n_pos + 1) is the trapezoid area's integer numerator.
    """
    return (rank_sum - n_pos * (n_pos + 1)) / (2 * n_pos * (n - n_pos))


def _threshold_aucs(scores: np.ndarray, counts: np.ndarray, thresholds: Sequence[int]) -> list[float | None]:
    """AUC of ``scores`` against the truths ``counts >= t`` per threshold t; None where they are single-class.

    In descending count order every threshold's positives come first, so
    each AUC is one lookup in the prefix sums of the ranks in that order.
    """
    by_count = np.argsort(-counts, kind="stable")
    rank_sums = np.append(0, np.cumsum(_midranks(scores)[2][by_count]))
    ranked_counts, n = counts[by_count], len(scores)
    n_pos = [int(np.count_nonzero(ranked_counts >= t)) for t in thresholds]
    return [_auc(int(rank_sums[k]), k, n) if 0 < k < n else None for k in n_pos]


def roc_auc(pairs: Iterable[tuple[float, int]]) -> RocCurve:
    """ROC curve and AUC for (score, truth) pairs, checked first; see roc_curve."""
    scores, truths = [], []
    for s, t in pairs:
        s = float(s)
        if math.isnan(s):
            raise ValueError("scores must not be NaN")
        if t not in (0, 1):
            raise ValueError(f"truth labels must be 0 or 1, got {t!r}")
        scores.append(s)
        truths.append(int(t))
    return roc_curve(np.array(scores, dtype=float), np.array(truths, dtype=np.int64))


@dataclass(frozen=True)
class DivergenceStats:
    """Average/median/min/max of the valid windows' anomaly scores.

    Invalid (empty-histogram) windows are excluded so the statistics stay
    finite; their count is reported alongside.
    """

    average: float
    median: float
    minimum: float
    maximum: float
    n_valid: int
    n_invalid: int


def divergence_stats(scores: Sequence[WindowScore]) -> DivergenceStats:
    values = np.array([s.score for s in scores if s.valid], dtype=float)
    n_invalid = sum(1 for s in scores if not s.valid)
    if values.size == 0:
        raise EmptyStatsError("no valid windows to aggregate")
    return DivergenceStats(
        average=float(values.mean()),
        median=float(np.median(values)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        n_valid=int(values.size),
        n_invalid=n_invalid,
    )


@dataclass(frozen=True)
class SweepCell:
    """One grid point: coords along the sweep axes, a value or an absence reason."""

    coords: tuple
    value: float | None
    reason: str | None = None


@dataclass(frozen=True)
class SweepResult:
    axes: tuple[str, ...]
    cells: tuple[SweepCell, ...]

    def best(self) -> SweepCell | None:
        present = [c for c in self.cells if c.value is not None]
        return max(present, key=lambda c: c.value) if present else None


def window_size_sweep(
    dataset: FlowDataset,
    config: DetectorConfig,
    w_grid: Sequence[int],
    step: int | None = None,
) -> SweepResult:
    """Mean anomaly score per window size.

    ``step`` fixes the slide for every grid point; by default each W slides
    by W // 2. Grid points larger than the dataset are reported absent with
    a warning instead of aborting the sweep.
    """
    flows = OrderedFlows(dataset, config)
    n = flows.n_flows
    cells = []
    for w in w_grid:
        if w > n:
            warnings.warn(f"window size {w} exceeds flow count {n}; cell skipped", RuntimeWarning)
            cells.append(SweepCell(coords=(w,), value=None, reason="insufficient flows"))
            continue
        _, scores, valid, _ = window_arrays(flows, replace(config, window=WindowSpec(w, step), labeling=None))
        if not valid.any():
            cells.append(SweepCell(coords=(w,), value=None, reason="no valid windows"))
            continue
        cells.append(SweepCell(coords=(w,), value=float(scores[valid].mean())))
    return SweepResult(axes=("w",), cells=tuple(cells))


def require_labels(dataset: FlowDataset) -> None:
    """Unless the dataset is labeled, raise a CapabilityError that says why: which flows lack labels, or none do."""
    if not dataset.labeled:
        missing, n = np.flatnonzero(dataset.label < 0), len(dataset)
        why = "it was built unlabeled, though every flow carries a label"
        if len(missing):
            why = f"{len(missing)} of {n} flows have no label, the first at seq_no {dataset.seq_no[missing[0]]}"
            why += " (a label cell other than 0 or 1 counts as none)"
        raise CapabilityError(f"evaluation requires a labeled dataset: {why}")


def grid_evaluate(
    dataset: FlowDataset,
    base_config: DetectorConfig,
    w_grid: Sequence[int],
    labeling_grid: Sequence[LabelingRule],
    metric_set: Sequence[SimilarityMetric],
    step: int | None = None,
    threads: int = 1,
) -> SweepResult:
    """AUC per (window size, labeling threshold, metric) grid cell.

    Per window size and metric, one sort ranks the window scores and every
    labeling threshold's AUC is a prefix-sum lookup (see _threshold_aucs),
    equal to roc_curve's AUC for that cell. Each grid W slides by ``step``
    (default W // 2). Cells whose window labels come out single-class are
    absent with reason "degenerate labels". ``threads`` is accepted and
    ignored: the work is array code, and a thread pool measured no faster.
    """
    require_labels(dataset)
    flows = OrderedFlows(dataset, base_config)
    cells: list[SweepCell] = []
    for w in w_grid:
        if w > flows.n_flows:
            cells.extend(
                SweepCell(coords=(w, labeling.describe(), metric.value), value=None, reason="insufficient flows")
                for labeling in labeling_grid
                for metric in metric_set
            )
            continue
        config = replace(base_config, window=WindowSpec(w, step), labeling=None)
        counts = flows.malicious_counts(window_starts(flows.n_flows, config.window), w)
        thresholds = [resolve_labeling_threshold(labeling, w) for labeling in labeling_grid]
        aucs = {
            metric: _threshold_aucs(window_arrays(flows, replace(config, metric=metric))[1], counts, thresholds)
            for metric in metric_set
        }
        for i, labeling in enumerate(labeling_grid):
            for metric in metric_set:
                value = aucs[metric][i]
                reason = "degenerate labels" if value is None else None
                cells.append(SweepCell(coords=(w, labeling.describe(), metric.value), value=value, reason=reason))
    return SweepResult(axes=("w", "labeling", "metric"), cells=tuple(cells))


def write_roc_rows(rows: Iterable[tuple[float, float, float]], auc: float, sink: IO[str]) -> None:
    """threshold,fpr,tpr rows, written as they are iterated, with a trailing '# auc=' comment."""
    sink.write("threshold,fpr,tpr\n")
    sink.writelines(f"{threshold!r},{fpr!r},{tpr!r}\n" for threshold, fpr, tpr in rows)
    sink.write(f"# auc={auc!r}\n")


def write_roc_csv(curve: RocCurve, sink: IO[str]) -> None:
    """The ROC CSV of ``write_roc_rows`` for a held curve."""
    write_roc_rows(curve.points, curve.auc, sink)


def write_sweep_csv(result: SweepResult, sink: IO[str]) -> None:
    """One row per cell; absent cells keep an empty value and a comment line."""
    value_name = "auc" if len(result.axes) > 1 else "mean_score"
    sink.write(",".join(result.axes + (value_name,)) + "\n")
    absent = []
    for cell in result.cells:
        coords = ",".join(str(c) for c in cell.coords)
        if cell.value is None:
            sink.write(f"{coords},\n")
            absent.append(f"# absent: {coords} reason={cell.reason}\n")
        else:
            sink.write(f"{coords},{cell.value!r}\n")
    for line in absent:
        sink.write(line)
