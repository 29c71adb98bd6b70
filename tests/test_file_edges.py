"""The file edges: one decode path for every input source, one sink path for the flow CSV, manifests that
rebuild the run's config, and an unlabeled dataset that says why it is unlabeled."""

import gzip
import hashlib
import io
import json
from unittest import mock

import pytest

from flowdigits import (
    AttackBurst,
    CapabilityError,
    ConstantSize,
    DetectorConfig,
    FlowDataset,
    GeneratorSpec,
    KldParams,
    LabelingRule,
    OrderingScheme,
    SimilarityMetric,
    SizeUnit,
    UniformSize,
    WindowSpec,
    ZeroPolicy,
    adapt_kdd,
    generate,
    grid_evaluate,
    ingest,
    parse_flow_csv,
    parse_tshark_conversations,
    write_flow_csv,
)
from flowdigits.cli import main
from test_cli import generate_synth
from test_input_contract import KDD_TEXT, csv_text, tshark_text

FORMATS = {
    "csv": (parse_flow_csv, csv_text()),
    "tshark": (parse_tshark_conversations, tshark_text()),
    "kdd": (adapt_kdd, KDD_TEXT),
}


def assert_same_dataset(got, want):
    assert (got.labeled, got.source_name, got.addresses) == (want.labeled, want.source_name, want.addresses)
    for name in ingest._COLUMN_TYPES:
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


# -- one decode path ---------------------------------------------------------------------


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_source_of_one_input_reads_the_same_dataset_and_leaves_caller_streams_open(tmp_path, fmt):
    parse, text = FORMATS[fmt]
    data = text.encode("utf-8")
    path, packed = tmp_path / "input", tmp_path / "input.gz"
    path.write_bytes(data)
    packed.write_bytes(gzip.compress(data, mtime=0))
    want = parse(path)
    assert len(want) >= 2
    for source in (data, bytearray(data), str(path), packed, str(packed)):
        assert_same_dataset(parse(source), want)
    binary, textual = io.BytesIO(data), io.StringIO(text)
    with open(path, "rb") as handle:
        for stream in (binary, textual, handle):
            assert_same_dataset(parse(stream), want)
            assert not stream.closed
            stream.seek(0)  # neither closed nor detached: the caller can read it again
            assert stream.read() == (text if stream is textual else data)


# -- one sink path -----------------------------------------------------------------------


def burst_dataset():
    return generate(GeneratorSpec(seed=3, n_normal=1500, attacks=(AttackBurst(200, 1100, ConstantSize(900)),)))


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("as_text", [False, True], ids=["Path", "str"])
def test_write_flow_csv_to_a_path_writes_the_stream_text_and_closes_the_file(tmp_path, as_text):
    dataset = burst_dataset()
    sink = io.StringIO()
    write_flow_csv(dataset, sink)
    assert not sink.closed and len(dataset) > 2 * ingest._CHUNK_ROWS
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    path = tmp_path / "flows.csv"
    with mock.patch.object(ingest, "open", tracked_open, create=True):
        write_flow_csv(dataset, str(path) if as_text else path)
    assert len(opened) == 1 and opened[0].closed
    assert path.read_bytes().decode("utf-8") == sink.getvalue()


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_write_flow_csv_leaves_a_callers_file_open(tmp_path):
    dataset = burst_dataset()
    with open(tmp_path / "flows.csv", "w", encoding="utf-8", newline="") as handle:
        write_flow_csv(dataset, handle)
        assert not handle.closed
        handle.write("# caller's trailer\n")
    sink = io.StringIO()
    write_flow_csv(dataset, sink)
    assert (tmp_path / "flows.csv").read_bytes().decode("utf-8") == sink.getvalue() + "# caller's trailer\n"


# -- manifests are their config objects --------------------------------------------------


def manifest_config(output):
    return json.loads(output.with_name(output.name + ".manifest.json").read_text(encoding="utf-8"))


def spec_from_config(config):
    def pattern(fields):
        return ConstantSize(**fields) if "value" in fields else UniformSize(**fields)

    attacks = tuple(AttackBurst(b["start_index"], b["length"], pattern(b["pattern"])) for b in config["attacks"])
    return GeneratorSpec(**{**config, "size_decades": tuple(config["size_decades"]), "attacks": attacks})


def detector_config_from(config):
    return DetectorConfig(
        window=WindowSpec(**config["window"]),
        metric=SimilarityMetric(config["metric"]),
        unit=SizeUnit(config["unit"]),
        zero_policy=ZeroPolicy(config["zero_policy"]),
        ordering=OrderingScheme(config["ordering"]),
        threshold_t=config["threshold_t"],
        kld=KldParams(**config["kld"]),
        labeling=None if config["labeling"] is None else LabelingRule(**config["labeling"]),
    )


def test_generate_manifest_rebuilds_the_spec_that_writes_the_same_bytes(tmp_path):
    out = tmp_path / "synth.csv"
    argv = ["generate", "--seed", "5", "--normal", "3000", "--decades", "1:6", "--size-model", "pareto"]
    argv += ["--pareto-alpha", "1.3", "--burst", "const:1500:500:300", "--burst", "uniform:100:140:1200:200"]
    assert main([*argv, "-o", str(out)]) == 0
    manifest = manifest_config(out)
    spec = spec_from_config(manifest["config"])
    assert spec.pareto_alpha == 1.3 and spec.size_model == "pareto"
    assert [b.pattern for b in spec.attacks] == [ConstantSize(1500), UniformSize(100, 140)]
    again = tmp_path / "again.csv"
    write_flow_csv(generate(spec), again)
    assert hashlib.sha256(again.read_bytes()).hexdigest() == manifest["output_sha256"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["score", "--window", "500", "--step", "100", "--metric", "mkld", "--theta", "3.5", "--zeros", "skip"]
            + ["--ordering", "five-tuple-start", "--unit", "packets", "--threshold", "0.7", "--tl", "0.2"],
            DetectorConfig(
                WindowSpec(500, 100), SimilarityMetric.MODIFIED_KLD, SizeUnit.PACKETS, ZeroPolicy.SKIP_ZEROS,
                OrderingScheme.FIVE_TUPLE_START, 0.7, KldParams(3.5), LabelingRule(relative=0.2),
            ),
        ),
        (["score", "--window", "300"], DetectorConfig(WindowSpec(300))),
        (
            ["evaluate", "--roc", "--window", "400", "--labeling-abs", "70", "--metric", "cosine"],
            DetectorConfig(WindowSpec(400), SimilarityMetric.COSINE, labeling=LabelingRule(absolute=70)),
        ),
    ],
    ids=["score-every-flag", "score-defaults", "roc"],
)
def test_detector_manifest_rebuilds_the_config_the_run_used(tmp_path, argv, want):
    synth = generate_synth(tmp_path)
    out = tmp_path / "out.csv"
    assert main([*argv, str(synth), "-o", str(out)]) == 0
    assert detector_config_from(manifest_config(out)["config"]) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size_model", ["loguniform", "pareto"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-1.5"])
def test_generate_pareto_alpha_not_finite_and_positive_exits_3_before_writing(tmp_path, capsys, size_model, alpha):
    argv = ["generate", "--seed", "1", "--normal", "2000", "--size-model", size_model, f"--pareto-alpha={alpha}"]
    assert main([*argv, "-o", str(tmp_path / "g.csv")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("flowdigits: configuration error: pareto_alpha must be a finite positive")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


# -- why a dataset is unlabeled ----------------------------------------------------------


@pytest.mark.parametrize(
    "command", [["--windows", "500"], ["--roc", "--window", "500", "--tl", "0.1"]], ids=["grid", "roc"]
)
def test_evaluate_names_the_flows_without_a_label(tmp_path, capsys, command):
    lines = generate_synth(tmp_path, normal=3000, burst="const:1500:1000:300").read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 3300
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines[:1235] + [lines[1235].rsplit(",", 1)[0] + ",x\n"] + lines[1236:]))
    assert main(["evaluate", *command, str(bad), "-o", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == (
        "flowdigits: input error: evaluation requires a labeled dataset: 1 of 3300 flows have no label, "
        "the first at seq_no 1234 (a label cell other than 0 or 1 counts as none)\n"
    )
    stripped = tmp_path / "stripped.csv"
    stripped.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    assert main(["evaluate", *command, str(stripped), "-o", str(tmp_path / "out.csv")]) == 2
    assert "3300 of 3300 flows have no label, the first at seq_no 0 " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_a_dataset_built_unlabeled_with_every_label_says_so():
    dataset = FlowDataset(burst_dataset().flows, labeled=False)
    assert (dataset.label >= 0).all()
    message = "^evaluation requires a labeled dataset: it was built unlabeled, though every flow carries a label$"
    with pytest.raises(CapabilityError, match=message):
        grid_evaluate(dataset, DetectorConfig(WindowSpec(500)), [500], [LabelingRule(relative=0.1)], [])
