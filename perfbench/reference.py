"""Independent reference for checking the benchmark's CLI outputs.

Nothing here imports ``flowdigits``. The metric formulas are those of
``tests/oracles.py`` (written from the closed-form definitions) applied to
whole count matrices with numpy; first digits are read from the decimal
string, as the oracle does; parsing uses stdlib ``csv`` and ``ipaddress``;
AUC is the exact Mann-Whitney statistic from doubled mid-ranks
(``scipy.stats.rankdata``), kept as an integer numerator.

Every ``check_*`` function returns a list of error strings; empty means
the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

BENFORD = np.array([math.log10(1.0 + 1.0 / d) for d in range(1, 10)])
KLD_THETA = 2.0 * math.log2(1.0 / BENFORD[8])
METRICS = ("chi2", "euclidean", "manhattan", "canberra", "pearson", "cosine", "mkld")

#: The CLI's documented built-in relative labeling grid (22 values).
REL_GRID = (
    0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09,
    0.1, 0.12, 0.14, 0.16, 0.18, 0.2,
    0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
)

FLOW_CSV_HEADER = [
    "src_ip", "src_port", "dst_ip", "dst_port", "packets_total",
    "bytes_total", "rel_start_s", "duration_s", "label",
]

#: Scores closer than this (relative, at least absolute) are treated as
#: possibly tied: two float implementations of one formula may order them
#: either way, so checks only compare what is independent of that order.
SCORE_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_digits(values: np.ndarray) -> np.ndarray:
    """Leading decimal digit of each non-negative integer, 0 for 0."""
    return np.array([int(str(v)[0]) for v in values.tolist()], dtype=np.int64)


def window_counts(digits: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """(k, 10) digit counts over the w - 1 differences of each window."""
    onehot = digits[:, None] == np.arange(10)[None, :]
    cum = np.vstack([np.zeros((1, 10), dtype=np.int64), np.cumsum(onehot, axis=0)])
    return cum[starts + w - 1] - cum[starts]


def anomaly_scores(counts: np.ndarray, metric: str) -> np.ndarray:
    """Anomaly score per window (0 = perfect fit) with zeros counted as digit 0."""
    total = counts.sum(axis=1, keepdims=True).astype(float)
    probs = counts / total
    o, p0, r = probs[:, 1:], probs[:, 0], BENFORD
    if metric == "chi2":
        return np.sum((o - r) ** 2 / r, axis=1)
    if metric == "euclidean":
        return np.sqrt(np.sum((o - r) ** 2, axis=1))
    if metric == "manhattan":
        return np.sum(np.abs(o - r), axis=1)
    if metric == "canberra":
        return np.sum(np.abs(o - r) / (o + r), axis=1)
    if metric == "pearson":
        oc = o - o.mean(axis=1, keepdims=True)
        rc = r - r.mean()
        so = np.sqrt(np.sum(oc**2, axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            cc = np.where(so == 0.0, 0.0, np.sum(oc * rc, axis=1) / (so * np.sqrt(np.sum(rc**2))))
        return 1.0 - np.maximum(cc, 0.0)
    if metric == "cosine":
        no = np.sqrt(np.sum(o**2, axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            cs = np.where(no == 0.0, 0.0, np.sum(o * r, axis=1) / (no * np.sqrt(np.sum(r**2))))
        return 1.0 - cs
    if metric == "mkld":
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(o > 0.0, o * np.log2(o / r), 0.0)
        return p0 * KLD_THETA + np.sqrt(np.maximum(terms.sum(axis=1), 0.0))
    raise ValueError(f"unknown metric {metric!r}")


def _tie_groups(sorted_desc: np.ndarray) -> np.ndarray:
    """Group id per element of a descending score array; near-equal scores share a group."""
    gap = -np.diff(sorted_desc)
    tol = SCORE_TOL * np.maximum(1.0, np.abs(sorted_desc[1:]))
    return np.concatenate(([0], np.cumsum(gap > tol)))


@dataclass(frozen=True)
class Auc:
    """Exact AUC of one (scores, truths) set, and the range that near-ties allow."""

    exact: float
    lo: float
    hi: float

    def accepts(self, value: float) -> bool:
        return value == self.exact or self.lo <= value <= self.hi


def auc(scores: np.ndarray, truths: np.ndarray) -> Auc:
    """Mann-Whitney AUC from doubled mid-ranks; ties give half credit.

    2U = sum over positives of 2 * mid-rank - n_pos * (n_pos + 1) is an
    integer. Pairs inside a group of near-equal (not identical) scores may
    count either way in another implementation, so ``lo``/``hi`` give the
    AUC with all such pairs lost or won; with no near-ties they equal
    ``exact``.
    """
    truths = truths.astype(bool)
    n_pos = int(truths.sum())
    n_neg = truths.size - n_pos
    denom = 2 * n_pos * n_neg
    doubled = (2.0 * rankdata(scores, method="average")).astype(np.int64)
    two_u = int(doubled[truths].sum()) - n_pos * (n_pos + 1)
    order = np.argsort(-scores, kind="stable")
    groups = np.empty(scores.size, dtype=np.int64)
    groups[order] = _tie_groups(scores[order])
    if len(np.unique(groups)) == len(np.unique(scores)):
        return Auc(two_u / denom, two_u / denom, two_u / denom)
    grouped = (2.0 * rankdata(-groups, method="average")).astype(np.int64)
    two_u_grouped = int(grouped[truths].sum()) - n_pos * (n_pos + 1)
    pos_per_group = np.bincount(groups[truths], minlength=groups.max() + 1)
    neg_per_group = np.bincount(groups[~truths], minlength=groups.max() + 1)
    slack = int(np.dot(pos_per_group, neg_per_group))
    return Auc(two_u / denom, (two_u_grouped - slack) / denom, (two_u_grouped + slack) / denom)


def check_manifest(output: Path, input_path: Path | None) -> list[str]:
    """The ``<output>.manifest.json`` side-car fingerprints its input and output."""
    manifest_path = Path(f"{output}.manifest.json")
    if not manifest_path.is_file():
        return [f"{manifest_path.name} missing"]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{manifest_path.name} is not JSON: {exc}"]
    errors = []
    if manifest.get("output_sha256") != sha256(output):
        errors.append(f"{manifest_path.name}: output_sha256 does not match {output.name}")
    want_in = None if input_path is None else sha256(input_path)
    if manifest.get("input_sha256") != want_in:
        errors.append(f"{manifest_path.name}: input_sha256 does not match the input")
    return errors


# -- KDD ---------------------------------------------------------------------


@dataclass(frozen=True)
class KddFlows:
    rows: int
    sizes: np.ndarray
    labels: np.ndarray

    @property
    def flows(self) -> int:
        return int(self.sizes.size)

    def digits(self) -> np.ndarray:
        return first_digits(np.abs(np.diff(self.sizes)))


def read_kdd(path: Path) -> KddFlows:
    """TCP rows of a KDD file: size = src_bytes + dst_bytes, label = class != normal."""
    rows = 0
    sizes, labels = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            rows += 1
            if row[1].strip().lower() != "tcp":
                continue
            sizes.append(int(row[4]) + int(row[5]))
            labels.append(0 if row[-1].strip().rstrip(".") == "normal" else 1)
    return KddFlows(rows, np.array(sizes, dtype=np.int64), np.array(labels, dtype=np.int64))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _split_comments(path: Path) -> tuple[list[list[str]], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [line for line in lines if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    return list(csv.reader(data)), comments


def check_roc(out: Path, kdd: KddFlows, w: int, t_abs: int) -> list[str]:
    """ROC CSV of ``evaluate --roc --step 1`` with chi2 against the reference."""
    rows, comments = _split_comments(out)
    if rows[:1] != [["threshold", "fpr", "tpr"]] or len(comments) != 1:
        return ["roc.csv: bad header or trailer"]
    pts = np.array([[float(x) for x in r] for r in rows[1:]])
    errors = []
    if pts.shape[0] < 2 or pts.shape[1] != 3:
        return ["roc.csv: fewer than two points"]
    if not (pts[0, 0] == math.inf and pts[0, 1] == 0.0 and pts[0, 2] == 0.0):
        errors.append("roc.csv: curve does not start at (0,0)")
    if not (pts[-1, 1] == 1.0 and pts[-1, 2] == 1.0):
        errors.append("roc.csv: curve does not end at (1,1)")
    if (np.diff(pts[:, 1]) < 0).any() or (np.diff(pts[:, 2]) < 0).any():
        errors.append("roc.csv: fpr/tpr not monotone")
    if not (np.diff(pts[1:, 0]) < 0).all():
        errors.append("roc.csv: thresholds not strictly decreasing")

    starts = np.arange(0, kdd.flows - w + 1)
    scores = anomaly_scores(window_counts(kdd.digits(), starts, w), "chi2")
    cum = np.concatenate(([0], np.cumsum(kdd.labels)))
    truths = (cum[starts + w] - cum[starts] >= t_abs).astype(np.int64)
    # Compare cumulative (fpr, tpr) at the end of each near-tie group: those
    # do not depend on how an implementation orders near-equal scores.
    order = np.argsort(-scores, kind="stable")
    ref_sorted = scores[order]
    ref_group = _tie_groups(ref_sorted)
    ref_ends = np.flatnonzero(np.diff(np.append(ref_group, -1)))
    n_pos = int(truths.sum())
    n_neg = truths.size - n_pos
    ref_tp = np.cumsum(truths[order])[ref_ends]
    ref_fp = (ref_ends + 1) - ref_tp
    prog = pts[1:]
    prog_ends = np.flatnonzero(np.diff(np.append(_tie_groups(prog[:, 0]), -1)))
    if len(prog_ends) != len(ref_ends):
        errors.append(f"roc.csv: {len(prog_ends)} distinct scores, reference has {len(ref_ends)}")
    else:
        if not np.allclose(prog[prog_ends, 0], ref_sorted[ref_ends], rtol=SCORE_TOL, atol=SCORE_TOL):
            errors.append("roc.csv: thresholds differ from reference window scores")
        if not (np.allclose(prog[prog_ends, 1], ref_fp / n_neg, rtol=0, atol=1e-12)
                and np.allclose(prog[prog_ends, 2], ref_tp / n_pos, rtol=0, atol=1e-12)):
            errors.append("roc.csv: fpr/tpr differ from reference")
    match = re.fullmatch(r"# auc=(.*)", comments[0])
    ref_auc = auc(scores, truths)
    if match is None or not ref_auc.accepts(float(match.group(1))):
        errors.append(f"roc.csv: {comments[0]!r}, reference auc={ref_auc.exact!r}")
    return errors


def grid_cells(kdd: KddFlows, w_grid: list[int]) -> list[tuple[str, str, str, Auc | None]]:
    """Reference (w, labeling, metric, AUC or None when absent) cells of a relative-grid sweep."""
    digits = kdd.digits()
    cum = np.concatenate(([0], np.cumsum(kdd.labels)))
    cells = []
    for w in w_grid:
        if w > kdd.flows:
            cells += [(str(w), f"rel:{t:g}", m, None) for t in REL_GRID for m in METRICS]
            continue
        starts = np.arange(0, kdd.flows - w + 1, max(1, w // 2))
        counts = window_counts(digits, starts, w)
        scores = {m: anomaly_scores(counts, m) for m in METRICS}
        in_window = cum[starts + w] - cum[starts]
        for t in REL_GRID:
            t_abs = min(w, max(1, math.ceil(t * w - 1e-9)))
            truths = in_window >= t_abs
            degenerate = truths.all() or not truths.any()
            for m in METRICS:
                cells.append((str(w), f"rel:{t:g}", m, None if degenerate else auc(scores[m], truths)))
    return cells


def check_sweep(out: Path, kdd: KddFlows, w_grid: list[int]) -> list[str]:
    rows, comments = _split_comments(out)
    if rows[:1] != [["w", "labeling", "metric", "auc"]]:
        return ["sweep.csv: bad header"]
    expected = grid_cells(kdd, w_grid)
    got = rows[1:]
    if [r[:3] for r in got] != [list(c[:3]) for c in expected]:
        return ["sweep.csv: grid coordinates differ from reference"]
    errors = []
    for row, (w, lab, m, ref) in zip(got, expected):
        if ref is None:
            if row[3] != "":
                errors.append(f"sweep.csv: {w},{lab},{m} present, reference absent")
        elif row[3] == "":
            errors.append(f"sweep.csv: {w},{lab},{m} absent, reference auc={ref.exact!r}")
        elif not ref.accepts(float(row[3])):
            errors.append(f"sweep.csv: {w},{lab},{m} auc={row[3]}, reference {ref.exact!r}")
    # Absent cells are listed once more as "# absent: <coords> reason=...".
    listed = [c.removeprefix("# absent: ").partition(" reason=")[0] for c in comments]
    if listed != [",".join(c[:3]) for c in expected if c[3] is None]:
        errors.append("sweep.csv: '# absent:' comments differ from the absent cells")
    return errors[:10]


# -- generated flow CSV and window scores -------------------------------------


@dataclass(frozen=True)
class Burst:
    """Flows [start, start + length) are malicious with sizes in [lo, hi]."""

    lo: int
    hi: int
    start: int
    length: int


def check_generated(out: Path, n_normal: int, bursts: list[Burst]) -> list[str]:
    """The generated flow CSV against the generator's documented contract."""
    rows = _read_rows(out)
    total = n_normal + sum(b.length for b in bursts)
    if rows[0] != FLOW_CSV_HEADER:
        return [f"{out.name}: bad header {rows[0]}"]
    body = rows[1:]
    if len(body) != total:
        return [f"{out.name}: {len(body)} flows, want {total}"]
    malicious = np.zeros(total, dtype=bool)
    for b in bursts:
        malicious[b.start : b.start + b.length] = True
    for i, row in enumerate(body):
        try:
            ipaddress.ip_address(row[0])
            ipaddress.ip_address(row[2])
            size, packets = int(row[5]), int(row[4])
            ports_ok = 0 <= int(row[1]) <= 65535 and 0 <= int(row[3]) <= 65535
            times_ok = float(row[6]) == i * 0.05 and 0.0 <= float(row[7]) < 1.0
        except ValueError as exc:
            return [f"{out.name}: flow {i}: {exc}"]
        if not (ports_ok and times_ok and packets == max(1, size // 500)):
            return [f"{out.name}: flow {i} breaks the generator contract: {row}"]
        if row[8] != ("1" if malicious[i] else "0"):
            return [f"{out.name}: flow {i} label {row[8]}"]
        if not malicious[i] and not 10 <= size < 10**7:
            return [f"{out.name}: normal flow {i} size {size} outside [10, 10^7)"]
    for b in bursts:
        sizes = {int(r[5]) for r in body[b.start : b.start + b.length]}
        if not all(b.lo <= s <= b.hi for s in sizes):
            return [f"{out.name}: burst at {b.start} has sizes outside [{b.lo}, {b.hi}]"]
    return []


def _five_tuple_key(row: list[str], seq: int) -> tuple:
    return (
        ipaddress.ip_address(row[0]).packed,
        int(row[1]),
        ipaddress.ip_address(row[2]).packed,
        int(row[3]),
        float(row[6]),
        seq,
    )


def check_scores(out: Path, flows_csv: Path, w: int, threshold: float) -> list[str]:
    """``score --ordering five-tuple-start`` output (W/2 slide, chi2, unlabeled)."""
    body = _read_rows(flows_csv)[1:]
    order = sorted(range(len(body)), key=lambda i: _five_tuple_key(body[i], i))
    sizes = np.array([int(body[i][5]) for i in order], dtype=np.int64)
    digits = first_digits(np.abs(np.diff(sizes)))
    starts = np.arange(0, len(sizes) - w + 1, max(1, w // 2))
    scores = anomaly_scores(window_counts(digits, starts, w), "chi2")
    rows = _read_rows(out)
    if rows[0] != ["window_index", "start_flow", "end_flow", "score", "decision", "truth", "valid"]:
        return [f"{out.name}: bad header"]
    if len(rows) - 1 != len(starts):
        return [f"{out.name}: {len(rows) - 1} windows, reference {len(starts)}"]
    for i, (row, start, score) in enumerate(zip(rows[1:], starts, scores)):
        want = [str(i), str(start), str(start + w)]
        got = float(row[3])
        if row[:3] != want or row[5:] != ["", "1"] or row[4] != str(int(got >= threshold)):
            return [f"{out.name}: window {i} row {row}"]
        if abs(got - score) > SCORE_TOL * max(1.0, abs(score)):
            return [f"{out.name}: window {i} score {got!r}, reference {float(score)!r}"]
    return []
