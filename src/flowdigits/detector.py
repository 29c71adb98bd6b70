"""Window scoring, alert decisions and window ground-truth labeling.

Each window's digit histogram of flow size differences is compared against
the first-digit reference; the oriented deviation is the anomaly score and
an alert fires when it reaches the decision threshold T. For labeled
datasets a window's ground truth is 1 when it contains at least T_l
malicious flows (boundary inclusive: exactly T_l counts as malicious).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Sequence

import numpy as np

from . import similarity
from .benford import ZeroPolicy, digit_probabilities, leading_digits
from .errors import CapabilityError
from .ingest import FlowDataset, OrderingScheme, order_flows
from .similarity import KldParams, SimilarityMetric
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


def _truths(label_cum: np.ndarray, starts: np.ndarray, w: int, t_l_abs: int) -> np.ndarray:
    """1 where the window [start, start + w) holds at least t_l_abs malicious flows, else 0.

    ``label_cum`` is the prefix sum of the 0/1 flow labels with a leading 0.
    """
    return (label_cum[starts + w] - label_cum[starts] >= t_l_abs).astype(np.int64)


def label_window(flow_labels: Sequence[int | None], window: WindowIndex, t_l_abs: int) -> int:
    """Window truth: 1 iff the window holds at least t_l_abs malicious flows."""
    if t_l_abs < 1:
        raise ValueError("labeling threshold must be >= 1")
    labels = flow_labels[window.start : window.end]
    if any(value is None for value in labels):
        raise CapabilityError("window labeling requires a fully labeled dataset")
    label_cum = np.concatenate(([0], np.cumsum(labels, dtype=np.int64)))
    return int(_truths(label_cum, np.zeros(1, dtype=np.int64), len(labels), t_l_abs)[0])


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
        if not self.threshold_t >= 0.0:
            raise ValueError("decision threshold must be non-negative")


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


#: Windows scored per batch, so scoring temporaries stay near this many rows of 10.
_CHUNK = 1024


class OrderedFlows:
    """One dataset in window order, reduced to what window scoring reads.

    Ordering the flows and taking the first digits of their size differences
    happen once here, so sweeps over window sizes and metrics share them.
    """

    def __init__(self, dataset: FlowDataset, config: DetectorConfig):
        self.dataset = order_flows(dataset, config.ordering)
        self.n_flows = len(self.dataset.flows)
        digits = leading_digits(difference_sequence(size_sequence(self.dataset, config.unit)))
        # Sorted digit * stride + position: the positions of each digit, in
        # order, so window counts are two binary searches per digit.
        self._stride = digits.size + 1
        self._keys = digits * self._stride
        self._keys += np.arange(digits.size)
        self._keys.sort()

    @cached_property
    def _label_cum(self) -> np.ndarray:
        labels = np.fromiter((f.label for f in self.dataset.flows), dtype=np.int64, count=self.n_flows)
        return np.concatenate(([0], np.cumsum(labels)))

    def digit_counts(self, starts: np.ndarray, length: int) -> np.ndarray:
        """(k, 10) first-digit counts of the differences [start, start + length)."""
        offsets = np.arange(10)[:, None] * self._stride
        lo = np.searchsorted(self._keys, offsets + starts)
        hi = np.searchsorted(self._keys, offsets + (starts + length))
        return (hi - lo).T

    def truths(self, starts: np.ndarray, w: int, labeling: LabelingRule) -> np.ndarray:
        """Ground truth of the windows [start, start + w): 1 iff at least T_l flows are malicious.

        The dataset must be labeled.
        """
        return _truths(self._label_cum, starts, w, resolve_labeling_threshold(labeling, w))


def _count_scores(
    counts: np.ndarray, policy: ZeroPolicy, metric: SimilarityMetric, kld: KldParams
) -> tuple[np.ndarray, np.ndarray]:
    """(anomaly scores, validity) per row of (k, 10) first-digit counts.

    A row whose histogram would be empty is invalid and scores INVALID_SCORE.
    """
    probs, totals = digit_probabilities(counts, policy)
    valid = totals > 0
    raw = similarity._metric_rows(metric, probs[:, 1:], probs[:, 0], kld)
    return np.where(valid, similarity.anomaly_score(metric, raw), INVALID_SCORE), valid


def window_arrays(
    flows: OrderedFlows, config: DetectorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(starts, anomaly scores, validity, truths) of every window of config.window.

    Windows are scored in chunks of _CHUNK. Truths are None unless the
    dataset is labeled and the config carries a labeling rule.
    """
    w = config.window.w
    starts = window_starts(flows.n_flows, config.window)
    scores = np.empty(len(starts))
    valid = np.empty(len(starts), dtype=bool)
    for lo in range(0, len(starts), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        counts = flows.digit_counts(starts[part], w - 1)
        scores[part], valid[part] = _count_scores(counts, config.zero_policy, config.metric, config.kld)
    truths = None
    if flows.dataset.labeled and config.labeling is not None:
        truths = flows.truths(starts, w, config.labeling)
    return starts, scores, valid, truths


def run_detector(dataset: FlowDataset, config: DetectorConfig) -> list[WindowScore]:
    """Order the flows, score every window, and attach ground truth.

    Output is ordered by window start and is a pure function of the inputs,
    so results are identical across runs regardless of how callers schedule
    the work. Truth fields are filled only when the dataset is labeled and
    the config carries a labeling rule.
    """
    if len(dataset.flows) < config.window.w:
        return []  # nothing to score, so sizes that cannot be read are no error
    starts, scores, valid, truths = window_arrays(OrderedFlows(dataset, config), config)
    w, threshold = config.window.w, config.threshold_t
    truth_list = [None] * len(starts) if truths is None else truths.tolist()
    return [
        WindowScore(
            window=WindowIndex(start=start, end=start + w),
            score=score,
            decision=int(score >= threshold),
            truth=truth,
            valid=ok,
        )
        for start, score, ok, truth in zip(starts.tolist(), scores.tolist(), valid.tolist(), truth_list)
    ]


SCORES_CSV_HEADER = "window_index,start_flow,end_flow,score,decision,truth,valid"


def write_scores_csv(scores: Sequence[WindowScore], sink: IO[str]) -> None:
    """Window-score CSV; truth stays blank when unknown, score 'inf' when invalid."""
    sink.write(SCORES_CSV_HEADER + "\n")
    for i, s in enumerate(scores):
        truth = "" if s.truth is None else str(s.truth)
        sink.write(
            f"{i},{s.window.start},{s.window.end},{s.score!r},{s.decision},{truth},{int(s.valid)}\n"
        )
