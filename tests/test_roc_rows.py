"""The streamed ROC (`roc_rows` + `write_roc_rows`) against a held copy of the tuple-building curve.

``reference_curve`` and ``reference_csv`` copy the ROC routine as it was
before the rows were streamed: every point is built as a tuple, then written
with one f-string per point. The streamed path must write the same bytes,
and ``roc_curve`` must still hold the same points, bit for bit.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from flowdigits import DegenerateLabelsError
from flowdigits.evaluation import roc_curve, roc_rows, write_roc_csv, write_roc_rows


def reference_curve(scores, truths):
    """(points, auc) as the tuple-building ROC computed them."""
    n_pos = int(truths.sum())
    n_neg = len(truths) - n_pos
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    runs = np.diff(ends, prepend=-1)
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.repeat(2 * (len(scores) - ends) + runs - 1, runs)
    tp = np.cumsum(truths[order])[ends]
    fp = ends + 1 - tp
    thresholds = scores[order[np.append(0, ends[:-1] + 1)]]
    points = ((math.inf, 0.0, 0.0),) + tuple(
        zip(thresholds.tolist(), (fp / n_neg).tolist(), (tp / n_pos).tolist())
    )
    auc = (int(ranks @ truths) - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)
    return points, auc


def reference_csv(scores, truths):
    points, auc = reference_curve(scores, truths)
    lines = ["threshold,fpr,tpr\n"] + [f"{t!r},{f!r},{p!r}\n" for t, f, p in points] + [f"# auc={auc!r}\n"]
    return "".join(lines)


def streamed_csv(scores, truths):
    sink = io.StringIO()
    write_roc_rows(*roc_rows(scores, truths), sink)
    return sink.getvalue()


def hexes(points):
    return [tuple(float.hex(v) for v in point) for point in points]


def assert_same_as_reference(scores, truths):
    assert streamed_csv(scores, truths) == reference_csv(scores, truths)
    points, auc = reference_curve(scores, truths)
    curve = roc_curve(scores, truths)
    assert hexes(curve.points) == hexes(points)
    assert float.hex(curve.auc) == float.hex(auc)
    held = io.StringIO()
    write_roc_csv(curve, held)
    assert held.getvalue() == reference_csv(scores, truths)


SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf]),
    st.floats(allow_nan=False, allow_infinity=True),
)


@given(st.lists(st.tuples(SCORES, st.integers(0, 1)), min_size=2, max_size=300))
def test_streamed_roc_matches_the_held_copy(pairs):
    truths = np.array([t for _, t in pairs], dtype=np.int64)
    assume(0 < truths.sum() < len(truths))
    assert_same_as_reference(np.array([s for s, _ in pairs], dtype=float), truths)


@pytest.mark.parametrize("distinct", [1023, 1024, 1025, 2049])
def test_streamed_roc_matches_the_held_copy_across_chunk_edges(distinct):
    rng = np.random.default_rng(distinct)
    # inf, 0.0 and distinct - 2 finite scores; then ties, and -0.0 tying 0.0.
    values = np.concatenate(([math.inf, 0.0], rng.permutation(np.arange(1, distinct - 1)) / 7))
    scores = np.concatenate((values, values[rng.integers(0, distinct, distinct // 2)], [-0.0, -0.0, math.inf]))
    rng.shuffle(scores)
    truths = rng.integers(0, 2, len(scores))
    truths[:2] = (0, 1)
    assert len(np.unique(scores)) == distinct
    assert len(roc_curve(scores, truths).points) == distinct + 1
    assert_same_as_reference(scores, truths)


def test_roc_rows_raises_degenerate_labels_before_any_row_is_asked_for():
    with pytest.raises(DegenerateLabelsError):
        roc_rows(np.array([0.1, 0.2]), np.array([1, 1]))


class Discard:
    """A text sink that drops what it is given."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_roc_peak_memory_is_under_half_of_the_held_curve():
    rng = np.random.default_rng(5)
    scores = rng.permutation(100_000) / 3.0
    truths = (rng.random(100_000) < 0.3).astype(np.int64)
    streamed = traced_peak(lambda: write_roc_rows(*roc_rows(scores, truths), Discard()))
    held = traced_peak(lambda: roc_curve(scores, truths))
    assert streamed < held / 2
