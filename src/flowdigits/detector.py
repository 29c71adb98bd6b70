"""Window scoring, alert decisions and window ground-truth labeling.

Each window's digit histogram of flow size differences is compared against
the first-digit reference; the oriented deviation is the anomaly score and
an alert fires when it reaches the decision threshold T. For labeled
datasets a window's ground truth is 1 when it contains at least T_l
malicious flows (boundary inclusive: exactly T_l counts as malicious).

``window_scores`` counts every window once and scores it under each metric
asked for; ``window_arrays`` is its one-metric case. ``window_rows`` reads its arrays out
as rows, which ``write_score_rows`` writes as CSV and ``run_detector`` wraps in objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import similarity
from .benford import ZeroPolicy, digit_probabilities, leading_digits
from .errors import CapabilityError
from .ingest import FlowDataset, OrderingScheme, flow_order
from .similarity import KldParams, SimilarityMetric
from .textblock import chunks
from .windowing import (
    SizeUnit,
    WindowIndex,
    WindowSpec,
    difference_sequence,
    size_sequence,
    window_differences,
    window_starts,
)

#: Anomaly score assigned to windows whose digit histogram is empty
#: (all differences zero under SKIP_ZEROS). Such traffic is maximally
#: repetitive, so these windows always alert instead of abstaining.
INVALID_SCORE = math.inf


@dataclass(frozen=True)
class LabelingRule:
    """Ground-truth threshold: absolute flow count or fraction of a window."""

    absolute: int | None = None
    relative: float | None = None

    def __post_init__(self):
        if (self.absolute is None) == (self.relative is None):
            raise ValueError("exactly one of absolute/relative must be set")
        if self.absolute is not None and self.absolute < 1:
            raise ValueError("absolute labeling threshold must be >= 1")
        if self.relative is not None and not 0.0 < self.relative <= 1.0:
            raise ValueError("relative labeling threshold must be in (0, 1]")

    def describe(self) -> str:
        if self.absolute is not None:
            return f"abs:{self.absolute}"
        return f"rel:{self.relative:g}"


def resolve_labeling_threshold(labeling: LabelingRule, w: int) -> int:
    """Absolute threshold for a window of w flows.

    A relative threshold maps to ceil(t * w) clamped into [1, w]. The small
    epsilon neutralizes binary float artifacts so that e.g. 0.05 * 200
    resolves to 10, the exact product, not 11.
    """
    if w < 1:
        raise ValueError("window size must be positive")
    if labeling.absolute is not None:
        return labeling.absolute
    raw = labeling.relative * w
    return min(w, max(1, math.ceil(raw - 1e-9)))


def _truths(malicious_counts: np.ndarray, t_l_abs: int) -> np.ndarray:
    """1 where a window holds at least t_l_abs malicious flows, else 0."""
    return (malicious_counts >= t_l_abs).astype(np.int64)


def label_window(flow_labels: Sequence[int | None], window: WindowIndex, t_l_abs: int) -> int:
    """Window truth: 1 iff the window holds at least t_l_abs malicious flows."""
    if t_l_abs < 1:
        raise ValueError("labeling threshold must be >= 1")
    labels = flow_labels[window.start : window.end]
    if any(value is None for value in labels):
        raise CapabilityError("window labeling requires a fully labeled dataset")
    return int(_truths(np.sum(labels, dtype=np.int64), t_l_abs))


@dataclass(frozen=True)
class DetectorConfig:
    """All tunable knobs of one detector run."""

    window: WindowSpec
    metric: SimilarityMetric = SimilarityMetric.CHI_SQUARE
    unit: SizeUnit = SizeUnit.BYTES
    zero_policy: ZeroPolicy = ZeroPolicy.COUNT_ZEROS
    ordering: OrderingScheme = OrderingScheme.START_END
    threshold_t: float = 0.4
    kld: KldParams = field(default_factory=KldParams)
    labeling: LabelingRule | None = None

    def __post_init__(self):
        if not 0.0 <= self.threshold_t < math.inf:  # the manifest records it, and JSON has no inf or nan
            raise ValueError(f"decision threshold must be a finite non-negative number, got {self.threshold_t!r}")


@dataclass(frozen=True)
class WindowScore:
    window: WindowIndex
    score: float
    decision: int
    truth: int | None = None
    valid: bool = True


def score_window(dataset: FlowDataset, config: DetectorConfig, window: WindowIndex) -> WindowScore:
    """Score one window; truth is left unset."""
    counts = np.bincount(leading_digits(window_differences(dataset, config.unit, window)), minlength=10)
    scores, valid = _count_scores(counts[None, :], config.zero_policy, config.metric, config.kld)
    score = float(scores[0])
    return WindowScore(window=window, score=score, decision=int(score >= config.threshold_t), valid=bool(valid[0]))


#: Windows counted and scored per batch, so scoring temporaries stay near this many rows of 10.
_CHUNK = 1024
#: Flows a batch's window starts may span, so a count pass's temporaries stay near this many rows.
_SPAN = 1 << 14


class OrderedFlows:
    """One dataset in window order, reduced to what window scoring reads.

    Ordering the flows and taking the first digits of their size differences
    happen once here, so sweeps over window sizes and metrics share them. It
    holds those digits (int8, one per difference) and, for a labeled dataset,
    the int64 prefix sums of the labels: 9 bytes a flow.
    """

    def __init__(self, dataset: FlowDataset, config: DetectorConfig):
        order = flow_order(dataset, config.ordering)
        self.n_flows = len(order)
        self.labeled = dataset.labeled
        self._digits = leading_digits(difference_sequence(size_sequence(dataset, config.unit)[order])).astype(np.int8)
        if self.labeled:
            self._label_cum = np.zeros(self.n_flows + 1, dtype=np.int64)
            np.cumsum(dataset.label[order], dtype=np.int64, out=self._label_cum[1:])

    def window_counts(self, starts: np.ndarray, length: int) -> Iterator[tuple[slice, np.ndarray]]:
        """(part, (k, 10) first-digit counts of the differences [start, start + length)) per batch of ascending starts.

        A batch holds at most _CHUNK starts within _SPAN flows. Each window's
        counts are the previous window's plus the digits that enter at its end
        and minus those that leave at its start: one bincount of each, and a
        cumulative sum over the batch that carries on from the previous
        batch's last window. So each digit is read once as it enters and once
        as it leaves, whatever the window size.
        """
        prev_start = prev_end = int(starts[0]) if len(starts) else 0
        carry = np.zeros(10, dtype=np.int64)  # counts of the window [prev_start, prev_end)
        lo = 0
        while lo < len(starts):
            hi = min(lo + _CHUNK, max(lo + 1, int(np.searchsorted(starts, starts[lo] + _SPAN))))
            part_starts, rows = starts[lo:hi], np.arange(0, 10 * (hi - lo), 10)  # each window's bincount key offset
            ends, last = part_starts + length, int(part_starts[-1])
            leaving = np.repeat(rows, np.diff(part_starts, prepend=prev_start))
            leaving += self._digits[prev_start:last]
            entering = np.repeat(rows, np.diff(ends, prepend=prev_end))
            entering += self._digits[prev_end : last + length]
            delta = np.bincount(entering, minlength=rows.size * 10) - np.bincount(leaving, minlength=rows.size * 10)
            delta[:10] += carry
            counts = np.cumsum(delta.reshape(-1, 10), axis=0)
            prev_start, prev_end, carry = last, last + length, counts[-1].copy()
            yield slice(lo, hi), counts
            lo = hi

    def malicious_counts(self, starts: np.ndarray, w: int) -> np.ndarray:
        """Malicious flows in each window [start, start + w). The dataset must be labeled."""
        return self._label_cum[starts + w] - self._label_cum[starts]

    def truths(self, starts: np.ndarray, w: int, labeling: LabelingRule) -> np.ndarray:
        """Ground truth of the windows [start, start + w): 1 iff at least T_l flows are malicious.

        The dataset must be labeled.
        """
        return _truths(self.malicious_counts(starts, w), resolve_labeling_threshold(labeling, w))


def _count_scores(
    counts: np.ndarray, policy: ZeroPolicy, metric: SimilarityMetric, kld: KldParams
) -> tuple[np.ndarray, np.ndarray]:
    """(anomaly scores, validity) per row of (k, 10) first-digit counts.

    A row whose histogram would be empty is invalid and scores INVALID_SCORE.
    """
    probs, totals = digit_probabilities(counts, policy)
    valid = totals > 0
    return _probability_scores(probs, valid, metric, kld), valid


def _probability_scores(probs: np.ndarray, valid: np.ndarray, metric: SimilarityMetric, kld: KldParams) -> np.ndarray:
    """Anomaly scores of the (k, 10) digit probabilities of ``digit_probabilities``; INVALID_SCORE where not valid."""
    raw = similarity._metric_rows(metric, probs[:, 1:], probs[:, 0], kld)
    return np.where(valid, similarity.anomaly_score(metric, raw), INVALID_SCORE)


def window_scores(
    flows: OrderedFlows, config: DetectorConfig, metrics: Sequence[SimilarityMetric]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, (len(metrics), k) anomaly scores, validity) of every window of config.window.

    One count pass (``OrderedFlows.window_counts``) counts the windows, and
    each batch's digit probabilities are scored under every metric before
    the next batch is counted. Validity depends on the counts and the zero
    policy only.
    """
    starts = window_starts(flows.n_flows, config.window)
    scores = np.empty((len(metrics), len(starts)))
    valid = np.empty(len(starts), dtype=bool)
    for part, counts in flows.window_counts(starts, config.window.w - 1):
        probs, totals = digit_probabilities(counts, config.zero_policy)
        valid[part] = totals > 0
        for row, metric in zip(scores, metrics):
            row[part] = _probability_scores(probs, valid[part], metric, config.kld)
    return starts, scores, valid


def window_arrays(
    flows: OrderedFlows, config: DetectorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(starts, anomaly scores, validity, truths) of every window of config.window under config.metric.

    The one-metric case of ``window_scores``. Truths are None unless the
    dataset is labeled and the config carries a labeling rule.
    """
    w = config.window.w
    starts, scores, valid = window_scores(flows, config, (config.metric,))
    truths = flows.truths(starts, w, config.labeling) if flows.labeled and config.labeling is not None else None
    return starts, scores[0], valid, truths


def window_rows(dataset: FlowDataset, config: DetectorConfig) -> Iterator[tuple]:
    """(start, end, score, decision, truth, valid) per window in order; scored now, so input errors raise here."""
    if len(dataset) < config.window.w:
        return iter(())  # nothing to score, so sizes that cannot be read are no error
    starts, scores, valid, truths = window_arrays(OrderedFlows(dataset, config), config)
    columns = (starts, starts + config.window.w, scores, (scores >= config.threshold_t).astype(int), truths, valid)
    return column_rows(columns)


def column_rows(columns: Sequence[np.ndarray | None]) -> Iterator[tuple]:
    """Rows of equal-length columns as Python values, _CHUNK at a time; a None column (not the first) reads None."""
    return chain.from_iterable(
        zip(*(repeat(None) if column is None else column[lo : lo + _CHUNK].tolist() for column in columns))
        for lo in range(0, len(columns[0]), _CHUNK)
    )


def run_detector(dataset: FlowDataset, config: DetectorConfig) -> list[WindowScore]:
    """One WindowScore per row of ``window_rows``; truths are set for a labeled dataset with a labeling rule."""
    return [WindowScore(WindowIndex(start, end), *rest) for start, end, *rest in window_rows(dataset, config)]


SCORES_CSV_HEADER = "window_index,start_flow,end_flow,score,decision,truth,valid"


def write_score_rows(rows: Iterable[tuple], sink: IO[str]) -> tuple[int, int]:
    """Window-score CSV of ``window_rows`` rows, one ``%`` template a _CHUNK; returns (windows, alerts)."""
    sink.write(SCORES_CSV_HEADER + "\n")
    windows = alerts = 0
    for chunk in chunks(rows, _CHUNK):
        starts, ends, scores, decisions, truths, valid = zip(*chunk)
        truths = ["" if truth is None else truth for truth in truths]
        cells = zip(range(windows, windows + len(chunk)), starts, ends, scores, decisions, truths, valid)
        sink.write("%d,%d,%d,%r,%d,%s,%d\n" * len(chunk) % tuple(chain.from_iterable(cells)))
        windows, alerts = windows + len(chunk), alerts + sum(decisions)
    return windows, alerts


def write_scores_csv(scores: Sequence[WindowScore], sink: IO[str]) -> None:
    """Window-score CSV; truth stays blank when unknown, score 'inf' when invalid."""
    write_score_rows(((s.window.start, s.window.end, s.score, s.decision, s.truth, s.valid) for s in scores), sink)
