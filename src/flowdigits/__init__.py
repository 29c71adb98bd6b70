"""Flow-based anomaly detection from first-digit statistics of flow size differences.

Normal TCP traffic's consecutive flow-size differences follow the
logarithmic first-digit distribution closely; scripted attack traffic tends
not to. This package ingests flow datasets, scores sliding windows by their
deviation from that reference under a choice of seven metrics, and
benchmarks detection quality with ROC/AUC over parameter grids.

Each public name loads its module on first use (PEP 562), so a process
imports only the modules it runs.
"""

__version__ = "0.1.0"

#: Each submodule and the public names the package takes from it.
_EXPORTS = {
    "benford": (
        "BENFORD_P", "DigitDistribution", "ZeroPolicy", "benford_reference", "digit_histogram", "first_digit",
        "leading_digits",
    ),
    "detector": (
        "DetectorConfig", "LabelingRule", "WindowScore", "label_window", "resolve_labeling_threshold", "run_detector",
        "score_window", "write_scores_csv",
    ),
    "errors": (
        "CapabilityError", "DegenerateLabelsError", "EmptyHistogramError", "EmptyStatsError", "FlowDigitsError",
        "FormatError", "GeneratorSpecError", "ParseError",
    ),
    "evaluation": (
        "DivergenceStats", "RocCurve", "SweepCell", "SweepResult", "divergence_stats", "grid_evaluate", "roc_auc",
        "window_size_sweep", "write_roc_csv", "write_sweep_csv",
    ),
    "ingest": (
        "FlowDataset", "FlowRecord", "OrderingScheme", "adapt_kdd", "order_flows", "parse_flow_csv",
        "parse_tshark_conversations", "write_flow_csv",
    ),
    "similarity": (
        "DEFAULT_KLD_THETA", "KldParams", "SimilarityMetric", "anomaly_score", "canberra", "chi_square", "compute",
        "cosine", "euclidean", "manhattan", "modified_kld", "pearson_cc",
    ),
    "synth": ("AttackBurst", "ConstantSize", "GeneratorSpec", "UniformSize", "describe", "generate"),
    "windowing": (
        "SizeUnit", "WindowIndex", "WindowSpec", "difference_sequence", "size_sequence", "window_differences",
        "windows",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    """A public name or submodule, imported on first access and then kept in the package namespace."""
    owner = _OWNERS.get(name)
    if owner is None and name not in (*_EXPORTS, "cli", "textblock"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner or name}")
    value = module if owner is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
