"""Run every workload from one seed, untraced and traced, and summarize.

Usage, from the repository root:

    python3 perfbench/suite.py --seed 1 --seconds 30 [--out FILE]

For each workload it prints the end-to-end metrics with their units and
``failed_ops_ratio``, then the per-layer metrics of the traced run. With
``--out`` it also writes every result record (metrics, run metadata, trace
table) to one JSON file, the form in which baselines are kept under
``perfbench/baselines/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None, help="write all result records here")
    args = parser.parse_args(argv)
    records = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, args.seed, args.seconds, trace)
            records[f"{workload}/trace{int(trace)}"] = result
            print("\n".join(run.report(result).splitlines()[:-2]), flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
