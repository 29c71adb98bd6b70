"""Benchmark of the flowdigits CLI, run the way users run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0

Each op is one CLI invocation, or a short sequence of them, and each
invocation runs in its own fresh Python process, one at a time: a closed
loop with one client. ``FLOWDIGITS_THREADS`` is unset for the children, so
the CLI runs single-threaded. Inputs are made from ``--seed`` before any
timing and cached under ``.perfbench_work/``.

Workloads (sizes are per op):

- ``quickstart``: ``generate`` writes a seeded dataset (36,000 log-uniform
  normal flows, one constant and one uniform burst), then ``score
  --ordering five-tuple-start --window 2500`` reads it back. Nearly all the
  work is in ``synth`` and ``ingest``; scoring is a few dozen windows.
- ``dense-roc``: ``evaluate --format kdd --roc --window 1000 --step 1
  --labeling-abs 70`` on KDD'99-shaped records (50,000 TCP flows): one
  window per flow, so the per-window scoring loop dominates.
- ``grid``: ``evaluate --format kdd`` over 7 metrics x 7 window sizes x 22
  labeling thresholds on the same records: ``grid_evaluate`` and
  ``roc_auc`` dominate.

Every op's outputs are checked outside the timed region: the first op's
against an independent reference (``reference.py``), every later op's for
byte identity with the first.

``--trace 0`` reports the end-to-end metrics: median op wall time from
spawn to exit, flows per second, peak RSS of the op's processes and set-up
time (spawn until ``flowdigits.cli`` is imported). Times are scaled to a
nominal host speed with a probe taken in each child before any flowdigits
code runs (see PROBE_NOMINAL_S); the raw median wall time is printed too. ``--trace 1`` alternates
untraced ops with ops run under ``tracer.py`` and reports per-layer times
and counts, the tracing overhead and the time no wrapped function accounts
for. The last line of standard output is one JSON object; a full record,
with run metadata and the whole trace table, goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import inputs
import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
LAUNCH = BENCH_DIR / "launch.py"

WORKLOADS = ("quickstart", "dense-roc", "grid")

#: Per-op input sizes. "tiny" is for the smoke check only.
SCALES = {
    "full": {"normal": 36_000, "kdd_tcp": 50_000},
    "tiny": {"normal": 6_000, "kdd_tcp": 8_000},
}

QUICKSTART_WINDOW = 2500
QUICKSTART_THRESHOLD = 0.4
ROC_WINDOW = 1000
ROC_LABELING_ABS = 70
GRID_WINDOWS = [50, 100, 200, 500, 1000, 2500, 5000]
GRID_METRICS = ",".join(reference.METRICS)

#: Each op's times are scaled by this over its host probe: the time each
#: child takes from spawn until numpy is imported, before any flowdigits code
#: runs (the mean over the op's children). The 2-vCPU host's speed drifts by
#: up to 2x over minutes; the probe, taken in the op's own processes, drifts
#: with the op.
PROBE_NOMINAL_S = 0.15

#: Timed ops per run at least (per kind when tracing), however long they take.
MIN_OPS = 3
#: No op starts when it could not finish this many seconds after start-up.
DEADLINE_S = 150.0

END_TO_END = {"wall_s": "s", "flows_per_s": "flows/s", "peak_rss_mb": "MiB", "setup_s": "s"}

#: Per-layer metrics read from the trace table as <module>.<function>.<field>.
TRACED_FIELDS = {
    "ingest.parse_flow_csv.s": "s",
    "ingest.parse_flow_csv.flows": "count",
    "ingest.order_flows.s": "s",
    "ingest.write_flow_csv.s": "s",
    "ingest.adapt_kdd.s": "s",
    "synth.generate.s": "s",
    "windowing.windows.s": "s",
    "windowing.windows.count": "count",
    "windowing.size_sequence.s": "s",
    "benford.leading_digits.s": "s",
    "similarity.compute.calls": "count",
    "similarity.compute.s": "s",
    "detector.run_detector.self_s": "s",
    "detector.write_scores_csv.s": "s",
    "evaluation.roc_auc.calls": "count",
    "evaluation.roc_auc.pairs": "count",
    "evaluation.roc_auc.s": "s",
    "evaluation.grid_evaluate.self_s": "s",
    "evaluation.write_roc_csv.s": "s",
    "cli.main.self_s": "s",
}
PER_LAYER = {
    **TRACED_FIELDS,
    "ingest.adapt_kdd.rows_kept_ratio": "ratio",
    "evaluation.cells_present_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
}
#: Trace counters that must repeat exactly from op to op.
EXACT_COUNTERS = ("calls", "count", "flows", "pairs", "cells", "cells_present")


@dataclass
class Plan:
    """What one op of a workload runs, and how its outputs are checked."""

    steps: list[list[str]]
    flows: int
    verify: Callable[[Path, list[str]], list[str]]
    kdd_rows: int = 0


def plan_quickstart(seed: int, scale: dict) -> Plan:
    n = scale["normal"]
    const = reference.Burst(1500, 1500, start=n // 5, length=n // 12)
    uniform = reference.Burst(100, 200, start=n // 2, length=n // 12)
    bursts = [const, uniform]
    total = n + const.length + uniform.length
    windows = (total - QUICKSTART_WINDOW) // (QUICKSTART_WINDOW // 2) + 1
    steps = [
        ["generate", "--seed", str(seed), "--normal", str(n), "--decades", "1:7",
         "--burst", f"const:{const.lo}:{const.start}:{const.length}",
         "--burst", f"uniform:{uniform.lo}:{uniform.hi}:{uniform.start}:{uniform.length}", "-o", "synth.csv"],
        ["score", "--ordering", "five-tuple-start", "--window", str(QUICKSTART_WINDOW),
         "synth.csv", "-o", "scores.csv"],
    ]

    def verify(op_dir: Path, stdouts: list[str]) -> list[str]:
        synth, scores = op_dir / "synth.csv", op_dir / "scores.csv"
        errors = reference.check_generated(synth, n, bursts) + reference.check_manifest(synth, None)
        if errors:
            return errors
        errors += reference.check_scores(scores, synth, QUICKSTART_WINDOW, QUICKSTART_THRESHOLD)
        errors += reference.check_manifest(scores, synth)
        if f"wrote {total} flows -> synth.csv" not in stdouts[0]:
            errors.append(f"generate stdout: {stdouts[0]!r}")
        if not stdouts[1].startswith(f"scored {windows} windows"):
            errors.append(f"score stdout: {stdouts[1]!r}")
        return errors

    return Plan(steps, total, verify)


def plan_kdd(workload: str, seed: int, scale: dict, op_dir: Path) -> Plan:
    path = inputs.kdd_input(WORK / "cache", seed, scale["kdd_tcp"])
    kdd = reference.read_kdd(path)
    rel = os.path.relpath(path, op_dir)
    if workload == "dense-roc":
        step = ["evaluate", "--format", "kdd", "--roc", "--window", str(ROC_WINDOW), "--step", "1",
                "--labeling-abs", str(ROC_LABELING_ABS), rel, "-o", "roc.csv"]
        windows = kdd.flows - ROC_WINDOW + 1

        def verify(op_dir: Path, stdouts: list[str]) -> list[str]:
            out = op_dir / "roc.csv"
            errors = reference.check_roc(out, kdd, ROC_WINDOW, ROC_LABELING_ABS)
            errors += reference.check_manifest(out, path)
            if not stdouts[0].startswith(f"roc over {windows} windows"):
                errors.append(f"stdout: {stdouts[0]!r}")
            return errors
    else:
        step = ["evaluate", "--format", "kdd", "--metrics", GRID_METRICS,
                "--windows", ",".join(map(str, GRID_WINDOWS)), "--tl", "0.01..0.9", rel, "-o", "sweep.csv"]

        def verify(op_dir: Path, stdouts: list[str]) -> list[str]:
            out = op_dir / "sweep.csv"
            errors = reference.check_sweep(out, kdd, GRID_WINDOWS) + reference.check_manifest(out, path)
            if not stdouts[0].startswith("best auc="):
                errors.append(f"stdout: {stdouts[0]!r}")
            return errors

    return Plan([step], kdd.flows, verify, kdd_rows=kdd.rows)


def make_plan(workload: str, seed: int, scale: dict, op_dir: Path) -> Plan:
    if workload == "quickstart":
        return plan_quickstart(seed, scale)
    return plan_kdd(workload, seed, scale, op_dir)


# -- running ops ----------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    probe_s: float
    setup_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None


@dataclass
class Op:
    dir: Path
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


class Runner:
    """Spawns each CLI step as a fresh child, one at a time, and waits for it."""

    def __init__(self, op_dir: Path, side_dir: Path, deadline: float):
        self.op_dir = op_dir
        self.side_dir = side_dir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("FLOWDIGITS_THREADS", "PERFBENCH_TRACE", "PERFBENCH_STATS")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def run(self, plan: Plan, traced: bool) -> Op:
        shutil.rmtree(self.op_dir, ignore_errors=True)
        self.op_dir.mkdir(parents=True)
        op = Op(self.op_dir, traced)
        for argv in plan.steps:
            proc = self._spawn(argv, traced)
            op.procs.append(proc)
            if proc.code != 0:
                break
        return op

    def _spawn(self, argv: list[str], traced: bool) -> Proc:
        side = self.side_dir
        stats, trace, out, err = (side / n for n in ("stats", "trace.json", "stdout", "stderr"))
        for stale in (stats, trace):
            stale.unlink(missing_ok=True)
        env = dict(self.env, PERFBENCH_STATS=str(stats))
        if traced:
            env["PERFBENCH_TRACE"] = str(trace)
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            t0 = time.monotonic()
            child = subprocess.Popen([sys.executable, str(LAUNCH), *argv], cwd=self.op_dir, env=env,
                                     stdout=stdout, stderr=stderr)
            killer = threading.Timer(max(1.0, self.deadline + 20.0 - t0), child.kill)
            killer.start()
            try:
                child.wait()
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        # A child that never got ready counts its whole life as probe and set-up.
        numpy_ready, ready, peak_kb = stats.read_text().split() if stats.is_file() else (t0 + wall, t0 + wall, 0)
        return Proc(
            code=child.returncode,
            wall_s=wall,
            probe_s=float(numpy_ready) - t0,
            setup_s=float(ready) - t0,
            rss_mb=int(peak_kb) / 1024.0,
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
            trace=json.loads(trace.read_text()) if traced and trace.is_file() else None,
        )


def op_outputs(op: Op) -> dict[str, str]:
    """SHA-256 of every file the op wrote and of each step's stdout and stderr."""
    digests = {p.name: reference.sha256(p) for p in sorted(op.dir.iterdir()) if p.is_file()}
    for i, proc in enumerate(op.procs):
        digests[f"step{i}.stdout"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        digests[f"step{i}.stderr"] = hashlib.sha256(proc.stderr.encode()).hexdigest()
    return digests


class Checker:
    """The first op that exits cleanly is checked against the reference; every
    later op must reproduce its outputs byte for byte."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.verified: dict[str, str] | None = None

    def check(self, op: Op) -> list[str]:
        for i, proc in enumerate(op.procs):
            if proc.code != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                return [f"step {i} exited with {proc.code}: {tail[0]}"]
        if len(op.procs) != len(self.plan.steps):
            return ["op did not run every step"]
        outputs = op_outputs(op)
        if self.verified is None:
            errors = self.plan.verify(op.dir, [p.stdout for p in op.procs])
            if not errors:
                self.verified = outputs
            return errors
        differ = sorted(k for k in outputs.keys() | self.verified.keys() if outputs.get(k) != self.verified.get(k))
        return [f"outputs differ from the verified op: {', '.join(differ)}"] if differ else []


# -- traces ---------------------------------------------------------------------


def merged_trace(op: Op) -> dict[str, dict]:
    """Per-function stats summed over the op's processes."""
    table: dict[str, dict] = {}
    for proc in op.procs:
        for name, stat in (proc.trace or {}).get("stats", {}).items():
            into = table.setdefault(name, {})
            for key, value in stat.items():
                into[key] = into.get(key, 0) + value
    return table


def layer_values(op: Op, plan: Plan) -> dict[str, float]:
    table = merged_trace(op)
    values = {}
    for metric in TRACED_FIELDS:
        function, _, key = metric.rpartition(".")
        values[metric] = float(table.get(function, {}).get(key, 0))
    kept = table.get("ingest.adapt_kdd", {}).get("flows", 0)
    values["ingest.adapt_kdd.rows_kept_ratio"] = kept / plan.kdd_rows if plan.kdd_rows else 0.0
    grid = table.get("evaluation.grid_evaluate", {})
    values["evaluation.cells_present_ratio"] = grid["cells_present"] / grid["cells"] if grid.get("cells") else 0.0
    values["trace.unaccounted_s"] = op.wall_s - sum((p.trace or {}).get("top_s", 0.0) for p in op.procs)
    return values


def absent_metrics(op: Op) -> list[str]:
    """Per-layer metrics whose function never ran in the op."""
    ran = {name for name, stat in merged_trace(op).items() if stat.get("calls")}
    sources = {metric: metric.rpartition(".")[0] for metric in TRACED_FIELDS}
    sources["ingest.adapt_kdd.rows_kept_ratio"] = "ingest.adapt_kdd"
    sources["evaluation.cells_present_ratio"] = "evaluation.grid_evaluate"
    return [metric for metric, function in sources.items() if function not in ran]


def host_scale(op: Op) -> float:
    """Factor that brings the op's times to the nominal host speed (see PROBE_NOMINAL_S)."""
    return PROBE_NOMINAL_S / statistics.fmean(p.probe_s for p in op.procs)


def exact_counters(op: Op) -> dict:
    return {(name, key): value for name, stat in merged_trace(op).items()
            for key, value in stat.items() if key in EXACT_COUNTERS}


# -- metadata -------------------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git ("unknown" outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(load_start: tuple[float, ...]) -> dict:
    src = ROOT / "src" / "flowdigits"
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "src_loc": {p.stem: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))},
    }


# -- the run --------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        tamper: Callable[[int, Op], None] | None = None) -> dict:
    """One benchmark run; returns the result record (see module docstring).

    ``tamper(index, op)`` is called on each op before it is checked; the smoke
    check uses it to corrupt an output.
    """
    started = time.monotonic()
    load_start = os.getloadavg()
    # Per-process directories, so runs in one checkout never share files.
    op_dir, side_dir = WORK / f"op-{os.getpid()}", WORK / f"proc-{os.getpid()}"
    side_dir.mkdir(parents=True, exist_ok=True)
    plan = make_plan(workload, seed, SCALES[scale], op_dir)
    runner = Runner(op_dir, side_dir, started + DEADLINE_S)
    checker = Checker(plan)

    ops: list[Op] = []
    counters: dict | None = None

    def one(traced: bool) -> Op:
        nonlocal counters
        op = runner.run(plan, traced)
        if tamper is not None:
            tamper(len(ops), op)
        op.errors = checker.check(op)
        if traced and not op.errors:
            seen = exact_counters(op)
            if counters is None:
                counters = seen
            elif seen != counters:
                op.errors = ["trace counters differ from the first traced op"]
        ops.append(op)
        return op

    timed: list[Op] = []
    try:
        one(False)  # warm-up: checked against the reference, not timed
        t_start = time.monotonic()
        while True:
            now = time.monotonic()
            kinds_done = len(timed) >= (2 * MIN_OPS if trace else MIN_OPS)
            if (now - t_start >= seconds and kinds_done) or now + 1.5 * ops[-1].wall_s > started + DEADLINE_S:
                break
            timed.append(one(trace and len(timed) % 2 == 1))
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
        shutil.rmtree(side_dir, ignore_errors=True)

    plain = [op for op in timed if not op.traced] or ops[:1]
    traced = [op for op in timed if op.traced] or ops[:1]
    raw_wall = statistics.median(op.wall_s for op in plain)
    if not trace:
        wall = statistics.median(op.wall_s * host_scale(op) for op in plain)
        values = {
            "wall_s": wall,
            "flows_per_s": plan.flows / wall,
            "peak_rss_mb": statistics.median(op.rss_mb for op in plain),
            "setup_s": statistics.median(p.setup_s / p.probe_s * PROBE_NOMINAL_S for op in plain for p in op.procs),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        per_op = [layer_values(op, plan) for op in traced]
        for v, op in zip(per_op, traced):
            v["trace.overhead_ratio"] = op.wall_s / raw_wall
            for name, unit in PER_LAYER.items():
                if unit == "s":
                    v[name] *= host_scale(op)
        metrics = {name: (statistics.median(v[name] for v in per_op), unit) for name, unit in PER_LAYER.items()}

    failed = sum(1 for op in ops if op.errors)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "flows": plan.flows,
        "probe_s": statistics.median(p.probe_s for op in timed or ops[:1] for p in op.procs),
        "raw_wall_s": raw_wall,
        "ops": len(ops),
        "failed": failed,
        "errors": sorted({e for op in ops for e in op.errors}),
        "metrics": metrics,
        "samples": [
            {"traced": op.traced, "wall_s": op.wall_s, "rss_mb": op.rss_mb,
             "setup_s": [p.setup_s for p in op.procs], "probe_s": [p.probe_s for p in op.procs],
             "errors": op.errors}
            for op in ops
        ],
        "trace_table": merged_trace(traced[-1]) if trace else {},
        "absent": absent_metrics(traced[-1]) if trace else [],
        "meta": metadata(load_start),
        "run_s": time.monotonic() - started,
    }


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    ops, failed = result["ops"], result["failed"]
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{ops} ops (1 warm-up), {result['flows']} flows per op input",
        f"  times are scaled per op by {PROBE_NOMINAL_S} s / host probe (median probe "
        f"{result['probe_s']:.4f} s); raw median op wall {result['raw_wall_s']:.4f} s",
    ]
    for name, (value, unit) in result["metrics"].items():
        shown = "absent" if name in result["absent"] else f"{value:.6g}"
        lines.append(f"  {name:<36} {shown:>14} {unit}")
    lines.append(f"  {'failed_ops_ratio':<36} {failed / ops:>14.6g} ({failed}/{ops})")
    lines += [f"  error: {e}" for e in result["errors"][:5]]
    lines.append("meta " + json.dumps(result["meta"], sort_keys=True))
    summary = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "flowdigits" / "cli.py").is_file():
        print(f"perfbench: no flowdigits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
