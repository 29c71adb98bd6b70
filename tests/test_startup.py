"""Start-up imports: each process loads only the modules its command runs.

Every case runs in a fresh interpreter, because the test process has
already imported the whole package. The child prints the ``flowdigits``
submodules it has loaded, as JSON, after the code under test.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flowdigits
from flowdigits.cli import main

#: The public names of the package, as they were before the namespace became lazy.
PUBLIC_NAMES = [
    "AttackBurst", "BENFORD_P", "CapabilityError", "ConstantSize", "DEFAULT_KLD_THETA", "DegenerateLabelsError",
    "DetectorConfig", "DigitDistribution", "DivergenceStats", "EmptyHistogramError", "EmptyStatsError",
    "FlowDataset", "FlowDigitsError", "FlowRecord", "FormatError", "GeneratorSpec", "GeneratorSpecError",
    "KldParams", "LabelingRule", "OrderingScheme", "ParseError", "RocCurve", "SimilarityMetric", "SizeUnit",
    "SweepCell", "SweepResult", "UniformSize", "WindowIndex", "WindowScore", "WindowSpec", "ZeroPolicy",
    "adapt_kdd", "anomaly_score", "benford_reference", "canberra", "chi_square", "compute", "cosine", "describe",
    "difference_sequence", "digit_histogram", "divergence_stats", "euclidean", "first_digit", "generate",
    "grid_evaluate", "label_window", "leading_digits", "manhattan", "modified_kld", "order_flows",
    "parse_flow_csv", "parse_tshark_conversations", "pearson_cc", "resolve_labeling_threshold", "roc_auc",
    "run_detector", "score_window", "size_sequence", "window_differences", "window_size_sweep", "windows",
    "write_flow_csv", "write_roc_csv", "write_scores_csv", "write_sweep_csv",
]  # fmt: skip


def run_python(args: list[str], cwd: Path) -> str:
    """The stdout of a fresh interpreter run with ``args``, with this package first on its path."""
    src = str(Path(flowdigits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str, cwd: Path) -> set[str]:
    """The flowdigits submodules a fresh interpreter has loaded after running ``code``."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("flowdigits."))))
        """
    )
    stdout = run_python(["-c", script], cwd)
    return {name.removeprefix("flowdigits.") for name in json.loads(stdout.splitlines()[-1])}


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_after("import flowdigits", tmp_path) == set()


def test_importing_the_cli_loads_no_command_module(tmp_path):
    loaded = loaded_after("import flowdigits.cli", tmp_path)
    assert "cli" in loaded
    assert not loaded & {"synth", "detector", "evaluation", "windowing"}


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "synth.csv"
    argv = ["generate", "--seed", "3", "--normal", "600", "--burst", "const:1500:300:200", "-o", str(path)]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["generate", "--seed", "3", "--normal", "50", "--burst", "const:1500:10:20", "-o", "g.csv"],
         {"detector", "evaluation", "windowing"}),
        (["score", "--window", "100", "--ordering", "five-tuple-start", "{input}", "-o", "s.csv"],
         {"synth", "evaluation"}),
        (["evaluate", "--windows", "100,200", "--tl", "0.1", "{input}", "-o", "e.csv"], {"synth"}),
        (["evaluate", "--roc", "--window", "100", "--tl", "0.1", "{input}", "-o", "r.csv"], {"synth"}),
        (["sweep", "--windows", "100,200", "{input}", "-o", "w.csv"], {"synth"}),
    ],
)  # fmt: skip
def test_a_command_loads_only_the_modules_it_runs(tmp_path, synth_csv, argv, absent):
    argv = [arg.format(input=synth_csv) for arg in argv]
    code = f"""
        import contextlib, io
        from flowdigits import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        """
    loaded = loaded_after(code, tmp_path)
    assert "cli" in loaded
    assert not loaded & absent


def test_the_public_names_are_those_of_the_eager_package(tmp_path):
    assert sorted(flowdigits.__all__) == PUBLIC_NAMES
    code = f"""
        import flowdigits
        namespace = {{}}
        exec("from flowdigits import *", namespace)
        assert sorted(set(namespace) - {{"__builtins__"}}) == {PUBLIC_NAMES!r}
        assert set({PUBLIC_NAMES!r}) <= set(dir(flowdigits))
        assert flowdigits.detector.__name__ == "flowdigits.detector"
        assert flowdigits.textblock.__name__ == "flowdigits.textblock"
        assert flowdigits.generate is flowdigits.synth.generate
        try:
            flowdigits.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("flowdigits.no_such_name resolved")
        """
    assert loaded_after(code, tmp_path) >= {"benford", "detector", "synth", "textblock"}


def test_the_cli_runs_as_a_module(tmp_path):
    assert run_python(["-m", "flowdigits.cli", "--version"], tmp_path) == f"flowdigits {flowdigits.__version__}\n"
