"""Deterministic labeled synthetic flow datasets.

Normal traffic draws byte sizes log-uniformly over a span of decades, which
is scale-invariant within the range and therefore lands close to the
first-digit reference; attack bursts splice in flows whose sizes are
constant (repeated same-size flows, the DDoS / port-scan signature) or
drawn from a narrow uniform band. All randomness comes from numpy's PCG64
generator seeded from the spec, so an identical spec reproduces the dataset
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeneratorSpecError
from .ingest import MAX_SIZE, FlowDataset, _rank_ipv4

#: Fixed nominal packet size (bytes) used to derive packet counts.
NOMINAL_PACKET_BYTES = 500

#: Spacing of consecutive flow start times, seconds.
START_SPACING_S = 0.05

@dataclass(frozen=True)
class ConstantSize:
    """Every flow in the burst has exactly this byte size."""

    value: int

    def __post_init__(self):
        if not 1 <= self.value <= MAX_SIZE:
            raise GeneratorSpecError(f"constant burst size must be in 1..{MAX_SIZE}")


@dataclass(frozen=True)
class UniformSize:
    """Burst flow sizes drawn uniformly from [lo, hi], inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi <= MAX_SIZE:
            raise GeneratorSpecError(f"uniform burst needs 1 <= lo <= hi <= {MAX_SIZE}")


@dataclass(frozen=True)
class AttackBurst:
    """A run of malicious flows occupying [start_index, start_index + length)
    of the final flow stream."""

    start_index: int
    length: int
    pattern: ConstantSize | UniformSize

    def __post_init__(self):
        if self.start_index < 0:
            raise GeneratorSpecError("burst start_index must be >= 0")
        if self.length < 1:
            raise GeneratorSpecError("burst length must be >= 1")


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n_normal: int
    size_decades: tuple[int, int] = (1, 7)
    attacks: tuple[AttackBurst, ...] = ()
    size_model: str = "loguniform"
    pareto_alpha: float = 1.16

    def __post_init__(self):
        if self.n_normal < 1:
            raise GeneratorSpecError("n_normal must be >= 1")
        lo, hi = self.size_decades
        if hi - lo < 4:
            raise GeneratorSpecError("size_decades must span at least 4 decades")
        if lo < 0 or hi > 18:
            raise GeneratorSpecError("size_decades exponents must lie in 0..18")
        if self.size_model not in ("loguniform", "pareto"):
            raise GeneratorSpecError(f"unknown size model {self.size_model!r}")
        if not 0 < self.pareto_alpha < np.inf:  # for every size model: the manifest records it
            raise GeneratorSpecError(f"pareto_alpha must be a finite positive number, got {self.pareto_alpha!r}")
        total = self.total_flows
        spans = sorted((b.start_index, b.start_index + b.length) for b in self.attacks)
        prev_end = 0
        for start, end in spans:
            if start < prev_end:
                raise GeneratorSpecError("attack bursts overlap")
            prev_end = end
        if spans and spans[-1][1] > total:
            raise GeneratorSpecError("attack burst extends past the end of the flow stream")

    @property
    def n_malicious(self) -> int:
        return sum(b.length for b in self.attacks)

    @property
    def total_flows(self) -> int:
        return self.n_normal + self.n_malicious


def _normal_sizes(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.size_decades
    if spec.size_model == "loguniform":
        draws = 10.0 ** rng.uniform(lo, hi, spec.n_normal)
    else:  # Pareto with scale 10^lo: heavy-tailed alternative for robustness runs.
        draws = (1.0 + rng.pareto(spec.pareto_alpha, spec.n_normal)) * 10.0**lo
    if not (draws < 2.0**63).all():  # also false for a NaN draw
        raise GeneratorSpecError(f"normal flow sizes must be below 2**63, got {draws.max()}")
    return np.floor(draws).astype(np.int64)


def _burst_sizes(burst: AttackBurst, rng: np.random.Generator) -> np.ndarray:
    if isinstance(burst.pattern, ConstantSize):
        return np.full(burst.length, burst.pattern.value, dtype=np.int64)
    return rng.integers(burst.pattern.lo, burst.pattern.hi, size=burst.length, endpoint=True, dtype=np.int64)


def generate(spec: GeneratorSpec) -> FlowDataset:
    """Build the labeled dataset described by the spec.

    Normal flows fill every index not claimed by a burst, in draw order.
    Flow start times increase strictly; burst flows share one destination
    endpoint per burst (scripted traffic hammers one target) while sources
    stay random.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    total = spec.total_flows
    attacks = sorted(spec.attacks, key=lambda b: b.start_index)

    normal = _normal_sizes(spec, rng)
    sizes = np.empty(total, dtype=np.int64)
    labels = np.zeros(total, dtype=np.int8)
    for burst in attacks:
        span = slice(burst.start_index, burst.start_index + burst.length)
        sizes[span] = _burst_sizes(burst, rng)
        labels[span] = 1
    sizes[labels == 0] = normal
    del normal

    packets = np.maximum(1, sizes // NOMINAL_PACKET_BYTES)
    durations = rng.uniform(0.0, 1.0, total)
    # Addresses are IPv4 numbers until they are ranked, each octet draw folded in as it is drawn; the table
    # formats them only where they are read.
    src_codes = _ipv4(10, rng.integers(0, 256, size=(total, 3), dtype=np.int64))
    src_ports = rng.integers(1024, 65536, size=total, dtype=np.int64).astype(np.int32)
    dst_codes = _ipv4(192 << 8 | 168, rng.integers(0, 256, size=(total, 2), dtype=np.int64))
    dst_ports = rng.integers(1, 65536, size=total, dtype=np.int64).astype(np.int32)
    # One fixed target endpoint per burst: scripted traffic hammers one destination while sources stay random.
    for burst in attacks:
        target = rng.integers(0, 256, size=2)
        span = slice(burst.start_index, burst.start_index + burst.length)
        dst_codes[span] = _ipv4(172 << 8 | 16, target)
        dst_ports[span] = int(rng.integers(1, 65536))

    ipv4 = _rank_ipv4(src_codes, dst_codes)
    columns = dict(
        bytes_total=sizes, packets_total=packets, has_packets=np.ones(total, dtype=bool), label=labels,
        rel_start=np.arange(total) * START_SPACING_S, duration=durations, seq_no=np.arange(total, dtype=np.int64),
        src_port=src_ports, dst_port=dst_ports, src_code=src_codes, dst_code=dst_codes,
    )
    return FlowDataset._from_columns(columns, None, ipv4, labeled=True, source_name=f"synthetic(seed={spec.seed})")


def _ipv4(head: int, octets: np.ndarray) -> np.ndarray:
    """IPv4 numbers, as uint32 bits viewed as int32, of the leading octets ``head`` and each row of ``octets``."""
    width = octets.shape[-1]
    numbers = octets @ (256 ** np.arange(width - 1, -1, -1)) + (head << 8 * width)
    return numbers.astype(np.uint32).view(np.int32)


def describe(spec: GeneratorSpec) -> str:
    """Human-readable summary of what generate() will produce."""
    lo, hi = spec.size_decades
    lines = [
        f"synthetic flow dataset, seed {spec.seed}",
        f"  normal flows:    {spec.n_normal} ({spec.size_model}, sizes in [10^{lo}, 10^{hi}))",
        f"  attack bursts:   {len(spec.attacks)}",
    ]
    for burst in sorted(spec.attacks, key=lambda b: b.start_index):
        if isinstance(burst.pattern, ConstantSize):
            shape = f"constant {burst.pattern.value} B"
        else:
            shape = f"uniform [{burst.pattern.lo}, {burst.pattern.hi}] B"
        lines.append(f"    flows [{burst.start_index}, {burst.start_index + burst.length}): {shape}")
    lines.append(f"  malicious flows: {spec.n_malicious}")
    lines.append(f"  total flows:     {spec.total_flows}")
    return "\n".join(lines)
