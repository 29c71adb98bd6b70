"""First-digit reference distributions and empirical digit histograms.

Benford's law gives the probability of a number's first significant digit d
as log10(1 + 1/d) for d = 1..9. Flow size differences can also be zero, so
the extended form adds digit 0 with reference probability 0 and counts
observed zeros there instead of discarding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import EmptyHistogramError

#: Analytic first-digit probabilities, index d-1 holds P(d) for d = 1..9.
BENFORD_P = tuple(math.log10(1.0 + 1.0 / d) for d in range(1, 10))


class ZeroPolicy(Enum):
    """How zero values enter a digit histogram."""

    SKIP_ZEROS = "skip"
    COUNT_ZEROS = "count"


@dataclass(frozen=True, eq=False)
class DigitDistribution:
    """Probability vector over first digits.

    The standard form covers digits 1-9 (``probs`` has length 9, digit d at
    index d-1). The extended form adds digit 0 in front (length 10, digit d
    at index d). ``sample_count`` is the number of values the histogram was
    normalized over, 0 for analytic references.
    """

    probs: np.ndarray
    sample_count: int
    extended: bool

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        want = 10 if self.extended else 9
        if p.shape != (want,):
            raise ValueError(f"expected {want} probabilities, got shape {p.shape}")
        if (p < 0).any():
            raise ValueError("digit probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("digit probabilities must sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if self.sample_count < 0:
            raise ValueError("sample_count must be non-negative")

    def prob(self, digit: int) -> float:
        """Probability of a single digit (0 is 0.0 for standard form)."""
        if self.extended:
            return float(self.probs[digit])
        if digit == 0:
            return 0.0
        return float(self.probs[digit - 1])

    @property
    def leading(self) -> np.ndarray:
        """The digit 1-9 entries, never renormalized.

        For an extended distribution with mass on digit 0 this slice sums
        to less than 1 by design.
        """
        return self.probs[1:] if self.extended else self.probs

    @property
    def zero_mass(self) -> float:
        return float(self.probs[0]) if self.extended else 0.0


def benford_reference(extended: bool = False) -> DigitDistribution:
    """The analytic reference distribution, optionally with P(0) = 0."""
    if extended:
        probs = np.array((0.0,) + BENFORD_P)
    else:
        probs = np.array(BENFORD_P)
    return DigitDistribution(probs=probs, sample_count=0, extended=extended)


def first_digit(n: int) -> int:
    """Leading decimal digit of a non-negative integer; 0 maps to digit 0.

    Pure integer arithmetic, no string or float round trips.
    """
    if n < 0:
        raise ValueError("first_digit is defined for non-negative integers")
    while n >= 10:
        n //= 10
    return n


def leading_digits(values: np.ndarray) -> np.ndarray:
    """Vectorized first_digit over an integer array."""
    v = np.asarray(values)
    if not np.issubdtype(v.dtype, np.integer):
        raise ValueError("leading_digits expects an integer array")
    if v.size and int(v.min()) < 0:
        raise ValueError("leading_digits expects non-negative values")
    v = v.astype(np.int64, copy=True)
    while True:
        big = v >= 10
        if not big.any():
            return v
        v[big] //= 10


def digit_probabilities(counts: np.ndarray, policy: ZeroPolicy) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, totals) of each row of (k, 10) first-digit counts.

    Under SKIP_ZEROS digit 0 gets probability 0 and digits 1-9 are normalized
    by their own count; under COUNT_ZEROS all ten digits are normalized by
    the full count. A row with total 0 has no histogram and comes out all 0.
    """
    counts = np.asarray(counts)
    if policy is ZeroPolicy.SKIP_ZEROS:
        counts = np.concatenate((np.zeros_like(counts[:, :1]), counts[:, 1:]), axis=1)
    totals = counts.sum(axis=1)
    return counts / np.maximum(totals, 1)[:, None], totals


def digit_histogram(values: Iterable[int], policy: ZeroPolicy) -> DigitDistribution:
    """Empirical first-digit distribution of non-negative integers.

    The one-row case of digit_probabilities: standard form under SKIP_ZEROS,
    extended form under COUNT_ZEROS. Raises EmptyHistogramError when the
    normalizing count is zero; callers decide what an un-scorable window
    means.
    """
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        fl = np.asarray(arr, dtype=float)
        if not np.all(fl == np.floor(fl)):
            raise ValueError("digit_histogram expects integer values")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("digit_histogram expects non-negative values")

    counts = np.bincount(leading_digits(arr), minlength=10)
    probs, totals = digit_probabilities(counts[None, :], policy)
    skip = policy is ZeroPolicy.SKIP_ZEROS
    if totals[0] == 0:
        raise EmptyHistogramError(f"no {'non-zero ' if skip else ''}values to build a digit histogram from")
    return DigitDistribution(
        probs=probs[0, 1:] if skip else probs[0], sample_count=int(totals[0]), extended=not skip
    )
