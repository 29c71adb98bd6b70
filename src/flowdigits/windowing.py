"""Size sequences, flow size differences and sliding windows.

The detection metric is the absolute difference between consecutive flows'
sizes. A window spans ``w`` flows and therefore contributes ``w - 1``
difference samples; differences never cross a window boundary, so every
window's score depends on its own flows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapabilityError
from .ingest import FlowDataset


class SizeUnit(Enum):
    BYTES = "bytes"
    PACKETS = "packets"


@dataclass(frozen=True)
class WindowSpec:
    """Window size ``w`` and slide step ``s``, both in flows.

    ``s`` defaults to w // 2 (at least 1), the representative half-overlap
    step; s = 1 gives the densest analysis.
    """

    w: int
    s: int | None = None

    def __post_init__(self):
        if not 1 <= self.w < 2**63:
            raise ValueError("window size must be a positive flow count below 2**63")
        if self.s is None:
            object.__setattr__(self, "s", max(1, self.w // 2))
        if not 1 <= self.s <= self.w:
            raise ValueError("slide step must satisfy 1 <= s <= w")


@dataclass(frozen=True)
class WindowIndex:
    """Half-open flow index range [start, end) of one complete window."""

    start: int
    end: int


def _sizes(dataset: FlowDataset, unit: SizeUnit, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Read-only int64 view of the sizes of flows [start, stop); packet counts must all be present."""
    if unit is SizeUnit.BYTES:
        return dataset.bytes_total[start:stop]
    present = dataset.has_packets[start:stop]
    if not present.all():
        seq_no = int(dataset.seq_no[start + int(np.argmin(present))])
        raise CapabilityError(f"dataset {dataset.source_name!r} has no packet counts (flow seq_no={seq_no})")
    return dataset.packets_total[start:stop]


def size_sequence(dataset: FlowDataset, unit: SizeUnit) -> np.ndarray:
    """Per-flow sizes in dataset order, as a read-only int64 array."""
    return _sizes(dataset, unit)


def difference_sequence(sizes) -> np.ndarray:
    """Absolute differences of consecutive sizes; length n - 1, sign ignored."""
    arr = np.asarray(sizes, dtype=np.int64)
    if arr.size < 2:
        return np.empty(0, dtype=np.int64)
    return np.abs(np.diff(arr))


def window_starts(n_flows: int, spec: WindowSpec) -> np.ndarray:
    """Start indices of all complete windows: 0, s, 2s, ... while start + w <= n."""
    return np.arange(0, max(n_flows - spec.w + 1, 0), spec.s, dtype=np.int64)


def windows(n_flows: int, spec: WindowSpec) -> list[WindowIndex]:
    """All complete windows over n_flows, as index ranges."""
    return [WindowIndex(start=i, end=i + spec.w) for i in window_starts(n_flows, spec).tolist()]


def window_differences(dataset: FlowDataset, unit: SizeUnit, window: WindowIndex) -> np.ndarray:
    """Difference sequence restricted to one window's flows (length w - 1)."""
    if not (0 <= window.start <= window.end <= len(dataset)):
        raise ValueError(f"window {window} out of range for {len(dataset)} flows")
    return difference_sequence(_sizes(dataset, unit, window.start, window.end))
