"""Smoke check of the benchmark itself at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It checks, for every workload:

- untraced and traced runs emit exactly the end-to-end and per-layer
  metrics BENCHMARK.json names, with its units, and pass their checks;
- a corrupted output file is counted as a failed op, both when it is the
  first op (caught by the reference) and a later one (caught by the byte
  comparison). The manifest is rewritten to match the corrupted file, so
  its own checksum cannot be what catches it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import reference
import run

MAIN_OUTPUT = {"quickstart": "scores.csv", "dense-roc": "roc.csv", "grid": "sweep.csv"}


def corrupt(path: Path) -> None:
    """Move the last long decimal in the file by 1% and re-sign its manifest."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in reversed(range(len(lines))):
        found = list(re.finditer(r"\d+\.\d{6,}(e-?\d+)?", lines[i]))
        if found:
            m = found[-1]
            lines[i] = lines[i][: m.start()] + repr(float(m.group()) * 0.99) + lines[i][m.end():]
            break
    else:
        raise AssertionError(f"no decimal to corrupt in {path}")
    path.write_text("".join(lines), encoding="utf-8")
    manifest_path = Path(f"{path}.manifest.json")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["output_sha256"] = reference.sha256(path)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def emitted(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {list(run.WORKLOADS)}")
    for workload in run.WORKLOADS:
        for trace, names in wanted.items():
            result = emitted(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(names)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")
        for bad_index in (0, 1):
            def tamper(index, op, bad_index=bad_index, workload=workload):
                if index == bad_index:
                    corrupt(op.dir / MAIN_OUTPUT[workload])

            result = run.run(workload, 7, 0.0, False, scale="tiny", tamper=tamper)
            if result["failed"] != 1:
                problems.append(f"{workload}: corrupting op {bad_index} gave {result['failed']} failed ops, "
                                f"errors {result['errors']}")
        print(f"smoke: {workload} checked", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
