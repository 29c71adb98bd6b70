"""Seeded KDD Cup 1999-shaped connection records for the benchmark.

The real KDD'99 file is not in the repository, so the benchmark writes
records of the same shape: 41 features plus a class label per row, with
``normal.`` and attack classes. The mix exercises every path ``adapt_kdd``
and the detector take on the real data:

- log-uniform normal sizes, with about 15% UDP/ICMP rows interleaved;
- ``neptune.`` runs of zero-byte TCP rows (SYN-flood-like, all differences 0);
- ``back.`` runs of one constant size;
- ``warezclient.`` runs drawn from a narrow uniform band;
- ``smurf.`` and ``ipsweep.`` runs of ICMP rows, which the adapter drops.

The file opens with a normal stretch longer than any window the workloads
use, then a SYN-flood run, so every seed gives windows of both classes.
About 20% of all rows are not TCP (9-25% by seed). The file holds exactly
the requested number of TCP rows, so the work per op does not vary with the
seed; the total row count does. Rows depend only on the seed and the TCP row count.
Files are cached under the work directory, keyed by both, and writing them
is never timed.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

#: Bump when the row format or the segment mix changes, so stale caches miss.
KDD_SHAPE_VERSION = 2

#: Opening segments (kind, rows), before the seeded random mix.
_OPENING = (("normal", 6000), ("neptune", 300))

#: Cached input files kept per directory; older ones are deleted.
CACHE_KEEP = 4

# kind: (draw probability, log10 segment length range)
_SEGMENTS = {
    "normal": (0.55, (2.0, 3.5)),
    "neptune": (0.12, (2.0, 3.8)),
    "back": (0.08, (1.7, 2.7)),
    "warezclient": (0.08, (1.7, 2.7)),
    "smurf": (0.12, (2.0, 3.3)),
    "ipsweep": (0.05, (1.5, 2.5)),
}

# Columns 25-31 and 34-41 (the traffic-rate features) per kind.
_RATES = {
    "normal": ("0.00,0.00,0.00,0.00,1.00,0.00,0.00", "1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00"),
    "neptune": ("1.00,1.00,0.00,0.00,0.05,0.07,0.00", "0.05,0.07,0.00,0.00,1.00,1.00,0.00,0.00"),
    "back": ("0.00,0.00,0.00,0.00,1.00,0.00,0.00", "1.00,0.00,0.01,0.00,0.00,0.00,0.10,0.10"),
    "warezclient": ("0.00,0.00,0.00,0.00,1.00,0.00,0.00", "0.80,0.03,0.80,0.00,0.00,0.00,0.00,0.00"),
    "smurf": ("0.00,0.00,0.00,0.00,1.00,0.00,0.00", "1.00,0.00,1.00,0.00,0.00,0.00,0.00,0.00"),
    "ipsweep": ("0.00,0.00,0.00,0.00,1.00,0.00,1.00", "0.05,0.50,1.00,0.50,0.00,0.00,0.00,0.00"),
}


def _segment_rows(kind: str, n: int, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    """n rows of one segment kind as KDD CSV lines, and which rows are TCP."""
    proto = np.full(n, "tcp", dtype=object)
    service = np.full(n, "private", dtype=object)
    flag = np.full(n, "SF", dtype=object)
    src = np.zeros(n, dtype=np.int64)
    dst = np.zeros(n, dtype=np.int64)
    if kind == "normal":
        proto = rng.choice(np.array(["tcp", "udp", "icmp"], dtype=object), size=n, p=[0.85, 0.10, 0.05])
        service = rng.choice(np.array(["http", "smtp", "ftp_data", "telnet"], dtype=object), size=n)
        src = np.floor(10.0 ** rng.uniform(1.0, 5.0, n)).astype(np.int64)
        dst = np.floor(10.0 ** rng.uniform(2.0, 6.0, n)).astype(np.int64)
        not_tcp = proto != "tcp"
        service[not_tcp] = np.where(proto[not_tcp] == "udp", "domain_u", "ecr_i")
        dst[not_tcp] = 0
    elif kind == "neptune":
        flag[:] = "S0"
    elif kind == "back":
        service[:] = "http"
        src[:] = 54540
        dst[:] = 8314
    elif kind == "warezclient":
        service[:] = "ftp_data"
        src = rng.integers(300, 400, size=n, endpoint=True, dtype=np.int64)
    elif kind == "smurf":
        proto[:] = "icmp"
        service[:] = "ecr_i"
        src[:] = 1032
    elif kind == "ipsweep":
        proto[:] = "icmp"
        service[:] = "eco_i"
        src[:] = 18
    is_tcp = proto == "tcp"
    duration = rng.integers(0, 3, size=n) * is_tcp
    count = rng.integers(1, 512, size=n)
    srv_count = rng.integers(1, 512, size=n)
    host_count = rng.integers(0, 256, size=n)
    host_srv = rng.integers(0, 256, size=n)
    logged_in = "1" if kind in ("normal", "back", "warezclient") else "0"
    mid = f"0,0,0,0,0,{logged_in},0,0,0,0,0,0,0,0,0,0"
    rates1, rates2 = _RATES[kind]
    lines = [
        f"{duration[i]},{proto[i]},{service[i]},{flag[i]},{src[i]},{dst[i]},{mid},"
        f"{count[i]},{srv_count[i]},{rates1},{host_count[i]},{host_srv[i]},{rates2},{kind}."
        for i in range(n)
    ]
    return lines, is_tcp.astype(bool)


def kdd_lines(seed: int, tcp_rows: int) -> list[str]:
    """KDD-shaped CSV lines for this seed, holding exactly ``tcp_rows`` TCP rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = list(_SEGMENTS)
    probs = [_SEGMENTS[k][0] for k in kinds]
    lines: list[str] = []
    tcp = 0
    opening = list(_OPENING)
    while tcp < tcp_rows:
        if opening:
            kind, n = opening.pop(0)
        else:
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            lo, hi = _SEGMENTS[kind][1]
            n = int(10.0 ** rng.uniform(lo, hi))
        seg, is_tcp = _segment_rows(kind, n, rng)
        seg_tcp = np.cumsum(is_tcp)
        if tcp + int(seg_tcp[-1]) > tcp_rows:
            # Cut the segment right after the last TCP row still wanted.
            seg = seg[: int(np.searchsorted(seg_tcp, tcp_rows - tcp)) + 1]
            seg_tcp = seg_tcp[: len(seg)]
        lines.extend(seg)
        tcp += int(seg_tcp[-1])
    return lines


def kdd_input(cache_dir: Path, seed: int, tcp_rows: int) -> Path:
    """The cached KDD-shaped file for (seed, tcp_rows), written on first use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"kdd-v{KDD_SHAPE_VERSION}-tcp{tcp_rows}-s{seed}.csv"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text("\n".join(kdd_lines(seed, tcp_rows)) + "\n", encoding="utf-8")
        tmp.replace(path)
        cached = sorted(cache_dir.glob("kdd-*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
        for old in cached[CACHE_KEEP:]:
            old.unlink()
    return path
