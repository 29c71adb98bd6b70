"""Command-line entry point: score, evaluate, sweep and generate.

Exit codes are stable: 0 success, 2 input problems (unreadable or malformed
data, missing labels), 3 configuration problems (usage errors, invalid
parameter values, inconsistent generator specs, an unusable output path).
Every file written gets a side-car ``<file>.manifest.json`` recording the
resolved configuration, the input fingerprint and the tool version, so results
stay attributable.
"""

from __future__ import annotations

# ingest comes before the standard library: in this order a process's peak RSS after imports is about 0.4 MiB lower.
from .ingest import FlowDataset, OrderingScheme, adapt_kdd, parse_flow_csv, parse_tshark_conversations, write_flow_csv

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

# Only what the parser and every command need; each command imports the rest itself, when it runs.
from . import __version__
from .errors import CapabilityError, DegenerateLabelsError, EmptyStatsError, GeneratorSpecError, ParseError
from .similarity import KldParams, SimilarityMetric

if TYPE_CHECKING:
    from .detector import DetectorConfig, LabelingRule
    from .synth import AttackBurst, GeneratorSpec

#: Relative labeling thresholds evaluated when --tl gives a range.
DEFAULT_REL_GRID = (
    0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09,
    0.1, 0.12, 0.14, 0.16, 0.18, 0.2,
    0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
)

#: Absolute labeling thresholds evaluated when --labeling-abs gives a range.
DEFAULT_ABS_GRID = (*range(1, 10), *range(10, 100, 10), *range(100, 1000, 100), 1000, 2000, 3000, 4000, 5000)

DEFAULT_SWEEP_GRID = tuple(range(500, 20_001, 250))


def _load_dataset(path: str, fmt: str, max_flows: int | None) -> FlowDataset:
    if max_flows is not None and max_flows < 1:
        raise ValueError(f"--max-flows must be at least 1, got {max_flows}")
    name = Path(path).name
    if fmt == "kdd":
        return adapt_kdd(path, source_name=name, max_flows=max_flows)
    if fmt == "tshark":
        dataset = parse_tshark_conversations(path, source_name=name)
    else:
        dataset = parse_flow_csv(path, source_name=name)
    if max_flows is not None and len(dataset) > max_flows:
        dataset = dataset._take(slice(0, max_flows))
    return dataset


def _sha256(path: str | Path) -> str:
    import hashlib  # here: its OpenSSL (about 3.5 MiB) loads after the command has released its pipeline
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_dict(config: DetectorConfig | GeneratorSpec, step: int | None = None) -> dict:
    """The manifest's config: the config's fields; a grid's ``step`` is recorded as the window slide."""
    fields = asdict(config)
    if step is not None:
        fields["window"]["s"] = step
    return fields


def _checked_output(output: str, input_path: str | None) -> str:
    """The output path, checked before the input is read: a directory, one in no directory, or the input is refused."""
    path = Path(output)
    if path.is_dir() or not path.parent.is_dir():
        raise ValueError(f"output {output} is {'a directory' if path.is_dir() else 'not in an existing directory'}")
    if input_path and path.exists() and path.samefile(input_path):
        raise ValueError(f"output {output} is the input file")
    return output


def _write_output(output: str, write: Callable[[IO[str]], object], command: str, config: dict, input_path: str | None):
    """Write one output file through write(handle), then its manifest side-car; returns what write returned.
    Callers have released all but what write reads, so the OpenSSL that hashing loads does not add to their peak."""
    with open(output, "w", encoding="utf-8", newline="") as handle:
        written = write(handle)
    manifest = {
        "tool": "flowdigits",
        "version": __version__,
        "command": command,
        "config": config,
        "input": input_path,
        "input_sha256": _sha256(input_path) if input_path else None,
        "output": output,
        "output_sha256": _sha256(output),
    }
    with open(f"{output}.manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=attrgetter("value"))  # enums by value
        handle.write("\n")
    return written


def _labeling_from_args(args) -> tuple[str | float | int | None, bool]:
    """(value, absolute) of whichever of --tl and --labeling-abs was given."""
    if args.tl is not None and args.labeling_abs is not None:
        raise ValueError("--tl and --labeling-abs are mutually exclusive")
    absolute = args.labeling_abs is not None
    return (args.labeling_abs if absolute else args.tl), absolute


def _labeling_rule(value: str | float | int, absolute: bool) -> LabelingRule:
    from .detector import LabelingRule
    return LabelingRule(absolute=int(value)) if absolute else LabelingRule(relative=float(value))


def _config_from_args(args, labeling: LabelingRule | None = None, grid: bool = False) -> DetectorConfig:
    """The detector config of the flags; a grid never scores --window, so --step is not checked against it."""
    from .benford import ZeroPolicy
    from .detector import DetectorConfig
    from .windowing import SizeUnit, WindowSpec
    kld = KldParams(theta=args.theta) if args.theta is not None else KldParams()
    return DetectorConfig(
        window=WindowSpec(args.window, None if grid else args.step),
        metric=SimilarityMetric(args.metric),
        unit=SizeUnit(args.unit),
        zero_policy=ZeroPolicy(args.zeros),
        ordering=OrderingScheme(args.ordering),
        threshold_t=args.threshold,
        kld=kld,
        labeling=labeling,
    )


def _parse_list(text: str, convert: Callable, flag: str) -> list:
    """The values of a comma-separated grid flag; a flag that lists none is a configuration error."""
    values = [convert(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"{flag} lists no values: {text!r}")
    return values


def _parse_labeling_grid(text: str | None, absolute: bool) -> list[LabelingRule]:
    """A comma list of values, or "lo..hi" selecting from the built-in grid."""
    default_grid, convert = (DEFAULT_ABS_GRID, int) if absolute else (DEFAULT_REL_GRID, float)
    if text is None:
        chosen = list(default_grid)
    elif ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = convert(lo_text), convert(hi_text)
        chosen = [v for v in default_grid if lo <= v <= hi]
        if not chosen:
            raise ValueError(f"no grid values inside {text!r}")
    else:
        chosen = _parse_list(text, convert, "--labeling-abs" if absolute else "--tl")
    return [_labeling_rule(v, absolute) for v in chosen]


def _parse_burst(text: str) -> AttackBurst:
    from .synth import AttackBurst, ConstantSize, UniformSize
    parts = text.split(":")
    kind = parts[0] if parts else ""
    try:
        if kind == "const" and len(parts) == 4:
            value, start, length = (int(p) for p in parts[1:])
            return AttackBurst(start_index=start, length=length, pattern=ConstantSize(value))
        if kind == "uniform" and len(parts) == 5:
            lo, hi, start, length = (int(p) for p in parts[1:])
            return AttackBurst(start_index=start, length=length, pattern=UniformSize(lo, hi))
    except ValueError:
        raise ValueError(f"burst fields must be integers: {text!r}") from None
    raise ValueError(f"burst must look like const:SIZE:START:LEN or uniform:LO:HI:START:LEN, got {text!r}")


def _add_common_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "tshark", "kdd"), default="csv", help="input format")
    p.add_argument("--metric", choices=[m.value for m in SimilarityMetric], default="chi2")
    p.add_argument("--window", type=int, default=2500, help="flows per window (W)")
    p.add_argument("--step", type=int, default=None, help="window slide in flows (S), default W/2")
    p.add_argument("--threshold", type=float, default=0.4, help="alert threshold on the anomaly score (T)")
    p.add_argument("--zeros", choices=("skip", "count"), default="count", help="zero-difference handling")
    p.add_argument(
        "--ordering",
        choices=[o.value for o in OrderingScheme],
        default="start-end",
        help="flow ordering applied before windowing",
    )
    p.add_argument("--unit", choices=("bytes", "packets"), default="bytes", help="flow size unit")
    p.add_argument("--theta", type=float, default=None, help="digit-0 weight for the modified KLD")
    p.add_argument("--max-flows", type=int, default=None, help="truncate the dataset after this many flows")


def cmd_score(args) -> int:
    from .detector import window_rows, write_score_rows
    value, absolute = _labeling_from_args(args)
    config = _config_from_args(args, None if value is None else _labeling_rule(value, absolute))
    if args.output is not None:
        _checked_output(args.output, args.input)
    dataset = _load_dataset(args.input, args.format, args.max_flows)
    rows = window_rows(dataset, config)  # scores every window, so input errors raise before writing
    del dataset  # each command releases the flow table at its last reader
    if args.output is None:
        write_score_rows(rows, sys.stdout)
        return 0
    windows, alerts = _write_output(
        args.output, lambda h: write_score_rows(rows, h), "score", _config_dict(config), args.input
    )
    print(f"scored {windows} windows, {alerts} alerts -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    from .detector import OrderedFlows, window_arrays
    from .evaluation import grid_evaluate, require_labels, roc_rows, write_roc_rows, write_sweep_csv
    from .windowing import WindowSpec
    value, absolute = _labeling_from_args(args)
    if args.roc and (value is None or "," in value or ".." in value):
        raise ValueError("--roc needs a single --tl or --labeling-abs value")
    config = _config_from_args(args, _labeling_rule(value, absolute) if args.roc else None, grid=not args.roc)
    if not args.roc:
        labeling_grid = _parse_labeling_grid(value, absolute)
        w_grid = [WindowSpec(w, args.step).w for w in _parse_list(args.windows, int, "--windows")]
        metric_set = _parse_list(args.metrics, lambda m: SimilarityMetric(m.strip()), "--metrics")
    output = _checked_output(args.output or ("roc.csv" if args.roc else "sweep.csv"), args.input)
    dataset = _load_dataset(args.input, args.format, args.max_flows)
    require_labels(dataset)

    if args.roc:
        if len(dataset) < config.window.w:
            raise DegenerateLabelsError(f"ROC has no windows: {len(dataset)} flows are fewer than W={config.window.w}")
        flows = OrderedFlows(dataset, config)
        del dataset  # each at its last reader: the table once ordered, the flows once scored, the scores once ranked
        scores, truths = window_arrays(flows, config)[1::2]  # starts and validity are not kept
        del flows
        n_windows = len(scores)
        rows, auc = roc_rows(scores, truths)  # ranks every window, so degenerate labels raise before writing
        del scores, truths
        _write_output(
            output, lambda h: write_roc_rows(rows, auc, h), "evaluate --roc", _config_dict(config), args.input
        )
        print(f"roc over {n_windows} windows, auc={auc:.9f} -> {output}")
        return 0

    result = grid_evaluate(dataset, config, w_grid, labeling_grid, metric_set, step=args.step)
    del dataset
    best = result.best()
    if best is None:
        # Nothing is written; the input error says why each cell is absent.
        reasons = Counter(cell.reason for cell in result.cells)
        raise DegenerateLabelsError(
            "no evaluable grid cells: " + ", ".join(f"{n} with {reason}" for reason, n in sorted(reasons.items()))
        )
    _write_output(output, lambda h: write_sweep_csv(result, h), "evaluate", _config_dict(config, args.step), args.input)
    coords = dict(zip(result.axes, best.coords))
    print(
        f"best auc={best.value:.9f} at w={coords['w']} labeling={coords['labeling']} "
        f"metric={coords['metric']} -> {output}"
    )
    return 0


def cmd_sweep(args) -> int:
    from .evaluation import window_size_sweep, write_sweep_csv
    from .windowing import WindowSpec
    config = _config_from_args(args, None, grid=True)
    w_grid = _parse_list(args.windows, int, "--windows") if args.windows else DEFAULT_SWEEP_GRID
    w_grid = [WindowSpec(w, args.step).w for w in w_grid]
    output = _checked_output(args.output or "wsweep.csv", args.input)
    dataset = _load_dataset(args.input, args.format, args.max_flows)
    result = window_size_sweep(dataset, config, w_grid, step=args.step)
    del dataset
    _write_output(output, lambda h: write_sweep_csv(result, h), "sweep", _config_dict(config, args.step), args.input)
    present = sum(1 for c in result.cells if c.value is not None)
    print(f"swept {len(result.cells)} window sizes ({present} evaluable) -> {output}")
    return 0


def cmd_generate(args) -> int:
    from .synth import GeneratorSpec, describe, generate
    try:
        lo_text, hi_text = args.decades.split(":", 1)
        decades = (int(lo_text), int(hi_text))
    except ValueError:
        raise ValueError(f"--decades must look like LO:HI, got {args.decades!r}") from None
    spec = GeneratorSpec(
        seed=args.seed,
        n_normal=args.normal,
        size_decades=decades,
        attacks=tuple(_parse_burst(b) for b in args.burst),
        size_model=args.size_model,
        pareto_alpha=args.pareto_alpha,
    )
    _checked_output(args.output, None)
    dataset = generate(spec)
    _write_output(args.output, lambda h: write_flow_csv(dataset, h), "generate", _config_dict(spec), None)
    print(describe(spec))
    print(f"wrote {spec.total_flows} flows -> {args.output}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors, argparse's only exit status 2, are configuration errors: exit 3."""

    def exit(self, status=0, message=None):
        super().exit(3 if status == 2 else status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="flowdigits",
        description="First-digit analysis of TCP flow size differences for anomaly detection.",
    )
    parser.add_argument("--version", action="version", version=f"flowdigits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score sliding windows and write a window-score CSV")
    _add_common_detector_flags(p_score)
    p_score.add_argument("--tl", type=float, default=None, help="relative labeling threshold (adds a truth column)")
    p_score.add_argument("--labeling-abs", type=int, default=None, help="absolute labeling threshold")
    p_score.add_argument("input")
    p_score.add_argument("-o", "--output", default=None)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("evaluate", help="ROC/AUC evaluation over a parameter grid")
    _add_common_detector_flags(p_eval)
    p_eval.add_argument("--metrics", default="chi2", help="comma-separated metric list for the grid")
    p_eval.add_argument("--windows", default="100,200,500,1000,2500,5000", help="comma-separated window sizes")
    p_eval.add_argument("--tl", default=None, help="relative thresholds: comma list or LO..HI from the built-in grid")
    p_eval.add_argument("--labeling-abs", default=None, help="absolute thresholds: comma list or LO..HI")
    p_eval.add_argument("--roc", action="store_true", help="write a single ROC curve for --window and one threshold")
    p_eval.add_argument("input")
    p_eval.add_argument("-o", "--output", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="mean anomaly score as a function of window size")
    _add_common_detector_flags(p_sweep)
    p_sweep.add_argument("--windows", default=None, help="comma-separated window sizes (default 500..20000 step 250)")
    p_sweep.add_argument("input")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("generate", help="write a deterministic labeled synthetic dataset")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--normal", type=int, required=True, help="number of normal flows")
    p_gen.add_argument("--decades", default="1:7", help="size exponents LO:HI, sizes drawn in [10^LO, 10^HI)")
    p_gen.add_argument(
        "--burst",
        action="append",
        default=[],
        help="const:SIZE:START:LEN or uniform:LO:HI:START:LEN (repeatable)",
    )
    p_gen.add_argument("--size-model", choices=("loguniform", "pareto"), default="loguniform")
    p_gen.add_argument("--pareto-alpha", type=float, default=1.16)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, CapabilityError, DegenerateLabelsError, EmptyStatsError) as exc:
        print(f"flowdigits: input error: {exc}", file=sys.stderr)
        return 2
    except (GeneratorSpecError, ValueError) as exc:
        print(f"flowdigits: configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
