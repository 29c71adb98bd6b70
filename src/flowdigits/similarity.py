"""Goodness-of-fit and deviation metrics against the first-digit reference.

All metrics compare the observed digit 1-9 probabilities with the reference
without renormalizing: an extended observation keeps its raw 1-9 entries, so
mass sitting on digit 0 depresses every other digit and still moves the
metric. Only the modified KLD charges digit 0 explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .benford import BENFORD_P, DigitDistribution, benford_reference


class SimilarityMetric(Enum):
    CHI_SQUARE = "chi2"
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    CANBERRA = "canberra"
    PEARSON_CC = "pearson"
    COSINE = "cosine"
    MODIFIED_KLD = "mkld"


#: Metrics where 1 means perfect fit and smaller means worse.
SIMILARITIES = frozenset({SimilarityMetric.PEARSON_CC, SimilarityMetric.COSINE})

#: Metrics where 0 means perfect fit and larger means worse.
DIVERGENCES = frozenset(SimilarityMetric) - SIMILARITIES

#: Unit contribution of digit 0 to the modified KLD: 2*log2(1/P(9)), the
#: heuristic that full mass on digit 0 diverges twice as hard as full mass
#: on digit 9 would.
DEFAULT_KLD_THETA = 2.0 * math.log2(1.0 / BENFORD_P[8])

#: The digit 1-9 reference used when a caller passes none.
_BENFORD_LEADING = benford_reference(extended=False).leading


@dataclass(frozen=True)
class KldParams:
    """Tunable weight of the digit-0 term in the modified KLD."""

    theta: float = DEFAULT_KLD_THETA

    def __post_init__(self):
        # An infinite weight would make every window without zeros 0 * inf = NaN.
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a finite positive number, got {self.theta!r}")


def _sum9(t: np.ndarray) -> np.ndarray:
    """Row sums of a (k, 9) array, each bit-identical to ``np.sum`` of that row alone.

    Over a contiguous row NumPy runs the same loop as over a lone vector:
    it starts from 0.0 and adds 8 or more values with an 8-lane pairwise
    pattern. Other layouts may be summed in another order, hence the copy.
    """
    return np.add.reduce(np.ascontiguousarray(t), axis=1)


def _sum_selected(t: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row sums of the entries of t where keep holds, as ``np.sum(row[keep])`` adds them.

    Entries outside keep must be +0.0. NumPy adds fewer than 8 values left
    to right, which a running sum over the whole row reproduces since the
    zeros add exactly nothing; 8 or 9 values take the pairwise pattern, so
    rows keeping 8 are packed first.
    """
    n_kept = np.add.reduce(keep, axis=1)
    out = np.where(n_kept < 8, np.add.accumulate(t, axis=1)[:, -1], _sum9(t))
    eight = n_kept == 8
    if eight.any():
        out[eight] = np.add.reduce(t[eight][keep[eight]].reshape(-1, 8), axis=1)
    return out


def _metric_rows(
    metric: SimilarityMetric,
    leading: np.ndarray,
    zero_mass: np.ndarray | float,
    kld: KldParams | None = None,
    ref: np.ndarray | None = None,
) -> np.ndarray:
    """Raw metric values of k observations at once, in native orientation.

    ``leading`` is (k, 9): each observation's digit 1-9 probabilities, never
    renormalized. ``zero_mass`` is (k,) or one value: the digit-0 probability
    (0 for the standard form). ``ref`` holds the 9 reference probabilities,
    Benford's by default. Every sum keeps ``np.sum``'s association, so a row
    never depends on the batch it is computed in.
    """
    o = leading
    r = (_BENFORD_LEADING if ref is None else ref)[None, :]
    if metric is SimilarityMetric.CHI_SQUARE:
        return _sum9((o - r) ** 2 / r)
    if metric is SimilarityMetric.EUCLIDEAN:
        return np.sqrt(_sum9((o - r) ** 2))
    if metric is SimilarityMetric.MANHATTAN:
        return _sum9(np.abs(o - r))
    if metric is SimilarityMetric.CANBERRA:
        # A zero denominator means o = r = 0, a zero term.
        denom = o + r
        return _sum9(np.abs(o - r) / np.where(denom > 0, denom, 1.0))
    if metric is SimilarityMetric.PEARSON_CC:
        oc = o - (_sum9(o) / 9)[:, None]
        rc = r - (_sum9(r) / 9)[:, None]
        so = np.sqrt(_sum9(oc**2))
        sr = np.sqrt(_sum9(rc**2))
        defined = (o.max(axis=1) != o.min(axis=1)) & (so != 0.0) & (sr != 0.0)
        return np.divide(_sum9(oc * rc), so * sr, out=np.zeros(len(o)), where=defined)
    if metric is SimilarityMetric.COSINE:
        no = np.sqrt(_sum9(o**2))
        nr = np.sqrt(_sum9(r**2))
        return np.divide(_sum9(o * r), no * nr, out=np.zeros(len(o)), where=no != 0.0)
    # Modified KLD: only digits with o > 0 enter the inner sum.
    pos = o > 0
    inner = _sum_selected(o * np.log2(np.where(pos, o, 1.0) / np.where(pos, r, 1.0)), pos)
    return zero_mass * (kld or KldParams()).theta + np.sqrt(np.maximum(inner, 0.0))


def compute(
    metric: SimilarityMetric,
    obs: DigitDistribution,
    ref: DigitDistribution | None = None,
    kld: KldParams | None = None,
) -> float:
    """Raw metric value, in the metric's native orientation."""
    ref_leading = None if ref is None else ref.leading
    raw = _metric_rows(metric, obs.leading[None, :], obs.zero_mass, kld, ref_leading)
    return float(raw[0])


def chi_square(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    """Pearson chi-square divergence, sum over digits 1-9 of (o-r)^2/r."""
    return compute(SimilarityMetric.CHI_SQUARE, obs, ref)


def euclidean(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    return compute(SimilarityMetric.EUCLIDEAN, obs, ref)


def manhattan(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    return compute(SimilarityMetric.MANHATTAN, obs, ref)


def canberra(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    """Sum of |o-r|/(o+r) over digits 1-9; a zero denominator contributes 0."""
    return compute(SimilarityMetric.CANBERRA, obs, ref)


def pearson_cc(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    """Sample correlation of the two 9-vectors.

    A zero-variance observation (all nine entries equal, e.g. a uniform or
    an all-zero histogram) has no defined correlation; it returns 0 so that
    an all-equal histogram never silently scores as a perfect fit.
    """
    return compute(SimilarityMetric.PEARSON_CC, obs, ref)


def cosine(obs: DigitDistribution, ref: DigitDistribution | None = None) -> float:
    """Cosine similarity of the digit 1-9 vectors; an all-zero observation
    (every value had first digit 0) returns 0 by convention."""
    return compute(SimilarityMetric.COSINE, obs, ref)


def modified_kld(
    obs: DigitDistribution,
    ref: DigitDistribution | None = None,
    params: KldParams | None = None,
) -> float:
    """Kullback-Leibler-style divergence with an explicit digit-0 charge.

    Computes p0*theta + sqrt(sum over digits 1-9 of o*log2(o/r)), with the
    0*log(0/r) = 0 convention. When p0 > 0 the observed 1-9 entries sum
    below 1 and the inner sum can go negative; it is clamped at 0 before
    the square root since the p0*theta term already accounts for that mass.
    """
    return compute(SimilarityMetric.MODIFIED_KLD, obs, ref, params)


def anomaly_score(metric: SimilarityMetric, raw):
    """Orient any metric so 0 means perfect fit and larger means worse.

    Divergences pass through; similarities map to 1 - raw, with the Pearson
    coefficient clamped below at 0 first so anti-correlation saturates at 1.
    ``raw`` may be one value or an array of them.
    """
    if metric in DIVERGENCES:
        return raw
    if metric is SimilarityMetric.PEARSON_CC:
        raw = np.maximum(raw, 0.0)
    return 1.0 - raw
