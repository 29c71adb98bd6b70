import hashlib
import io
import json

import pytest

from flowdigits import (
    DetectorConfig,
    LabelingRule,
    SimilarityMetric,
    WindowSpec,
    ZeroPolicy,
    evaluation,
    parse_flow_csv,
    roc_auc,
    run_detector,
    write_roc_csv,
    write_scores_csv,
)
from flowdigits.cli import main

KDD_NORMAL = "0,tcp,http,SF,{src},{dst},0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,normal.\n"
KDD_ATTACK = "0,tcp,private,S0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,123,6,1.00,1.00,0.00,0.00,0.05,0.07,0.00,255,26,0.10,0.05,0.00,0.00,1.00,1.00,0.00,0.00,neptune.\n"


def kdd_sample_text(n_normal=300, n_attack=300, seed=9):
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = [
        KDD_NORMAL.format(src=int(rng.integers(10, 10**6)), dst=int(rng.integers(10, 10**6)))
        for _ in range(n_normal)
    ]
    rows += [KDD_ATTACK] * n_attack
    return "".join(rows)


def generate_synth(tmp_path, name="synth.csv", burst="const:1500:2000:500", normal=4000, seed=42):
    out = tmp_path / name
    argv = [
        "generate",
        "--seed",
        str(seed),
        "--normal",
        str(normal),
        "--decades",
        "1:7",
        "-o",
        str(out),
    ]
    if burst:
        argv += ["--burst", burst]
    assert main(argv) == 0
    return out


def test_generate_writes_csv_and_manifest(tmp_path, capsys):
    out = generate_synth(tmp_path)
    captured = capsys.readouterr().out
    assert "4500 flows" in captured
    manifest = json.loads((tmp_path / "synth.csv.manifest.json").read_text())
    assert manifest["tool"] == "flowdigits"
    assert manifest["config"]["seed"] == 42
    assert manifest["output_sha256"]
    header = out.read_text().splitlines()[0]
    assert header.endswith(",label")


def test_generate_is_byte_identical(tmp_path):
    a = generate_synth(tmp_path, "a.csv")
    b = generate_synth(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_generate_documented_example_counts(tmp_path):
    out = tmp_path / "synth.csv"
    argv = [
        "generate", "--seed", "42", "--normal", "50000", "--decades", "1:7",
        "--burst", "const:1500:20000:5000", "-o", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 55_000
    labels = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert labels.count("1") == 5000


def test_generate_overlapping_bursts_exit_3(tmp_path, capsys):
    argv = [
        "generate", "--seed", "1", "--normal", "1000", "-o", str(tmp_path / "x.csv"),
        "--burst", "const:10:0:100", "--burst", "const:10:50:100",
    ]
    assert main(argv) == 3
    assert "configuration error" in capsys.readouterr().err


def test_generate_bad_burst_syntax_exit_3(tmp_path):
    argv = ["generate", "--seed", "1", "--normal", "100", "-o", str(tmp_path / "x.csv"), "--burst", "nope"]
    assert main(argv) == 3


def test_score_roundtrip(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    out = tmp_path / "scores.csv"
    argv = [
        "score", "--format", "csv", "--metric", "chi2", "--window", "500",
        "--step", "250", "--threshold", "0.4", str(synth), "-o", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "window_index,start_flow,end_flow,score,decision,truth,valid"
    assert len(lines) == 1 + (4500 - 500) // 250 + 1
    # synthetic dataset is labeled but no labeling rule was given
    assert lines[1].split(",")[5] == ""
    manifest = json.loads((out.parent / "scores.csv.manifest.json").read_text())
    assert manifest["config"]["window"] == {"w": 500, "s": 250}
    assert manifest["input_sha256"]


def test_score_with_labeling_truth_column(tmp_path):
    synth = generate_synth(tmp_path)
    out = tmp_path / "scores.csv"
    argv = ["score", "--window", "500", "--tl", "0.2", str(synth), "-o", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    truths = {row[5] for row in rows}
    assert truths == {"0", "1"}


def test_score_without_output_writes_scores_to_stdout_and_no_manifest(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    written = tmp_path / "scores.csv"
    assert main(["score", "--window", "500", str(synth), "-o", str(written)]) == 0
    expected = written.read_text()
    written.unlink()
    (tmp_path / "scores.csv.manifest.json").unlink()
    capsys.readouterr()
    assert main(["score", "--window", "500", str(synth)]) == 0
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) == 1 + (4500 - 500) // 250 + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.csv", "synth.csv.manifest.json"]


TSHARK_SAMPLE = "================\nTCP Conversations\nFilter:<No Filter>\n" + "".join(
    f"10.0.0.{i % 7 + 1}:{1000 + i} <-> 10.0.1.1:80 1 40 2 {7 * i * i} 3 {7 * i * i + 40} {i * 0.5} 1.0\n"
    for i in range(60)
)


@pytest.mark.parametrize("fmt", ["csv", "tshark"])
def test_max_flows_scores_the_first_flows_of_the_input(tmp_path, fmt):
    if fmt == "csv":
        lines, head = generate_synth(tmp_path).read_text().splitlines(keepends=True), 1
    else:
        lines, head = TSHARK_SAMPLE.splitlines(keepends=True), 3
    full, first = tmp_path / "full.txt", tmp_path / "first.txt"
    full.write_text("".join(lines))
    first.write_text("".join(lines[: head + 30]))
    common = ["score", "--format", fmt, "--window", "10", "--ordering", "five-tuple-start"]
    assert main(common + ["--max-flows", "30", str(full), "-o", str(tmp_path / "a.csv")]) == 0
    assert main(common + [str(first), "-o", str(tmp_path / "b.csv")]) == 0
    scores = (tmp_path / "a.csv").read_text()
    assert scores == (tmp_path / "b.csv").read_text()
    assert len(scores.splitlines()) == 1 + (30 - 10) // 5 + 1


@pytest.mark.parametrize(
    "labeling", [["--tl", "0.1,0.2"], ["--tl", "0.1..0.2"], ["--labeling-abs", "1,2"], ["--labeling-abs", "1..5"], []]
)
def test_evaluate_roc_without_a_single_labeling_value_exits_3(tmp_path, capsys, labeling):
    out = tmp_path / "roc.csv"
    assert main(["evaluate", "--roc", *labeling, str(tmp_path / "absent.csv"), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "flowdigits: configuration error: --roc needs a single --tl or --labeling-abs value\n"
    assert list(tmp_path.iterdir()) == []


def test_score_missing_input_exit_2(tmp_path, capsys):
    assert main(["score", str(tmp_path / "absent.csv")]) == 2
    assert "input error" in capsys.readouterr().err


def test_score_window_zero_exit_3(tmp_path):
    synth = generate_synth(tmp_path)
    assert main(["score", "--window", "0", str(synth)]) == 3


def test_score_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not,the,header\n")
    assert main(["score", str(bad)]) == 2


def test_evaluate_grid(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    out = tmp_path / "sweep.csv"
    argv = [
        "evaluate", "--metrics", "chi2,mkld", "--windows", "250,500",
        "--tl", "0.1,0.2", str(synth), "-o", str(out),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "best auc=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "w,labeling,metric,auc"
    data_lines = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_lines) == 2 * 2 * 2


def test_evaluate_tl_range_uses_builtin_grid(tmp_path):
    synth = generate_synth(tmp_path)
    out = tmp_path / "sweep.csv"
    argv = ["evaluate", "--windows", "500", "--tl", "0.01..0.9", str(synth), "-o", str(out)]
    assert main(argv) == 0
    data_lines = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(data_lines) == 22


def test_evaluate_unlabeled_exit_2(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    text = synth.read_text().splitlines()
    stripped = [text[0].rsplit(",", 1)[0]] + [line.rsplit(",", 1)[0] for line in text[1:]]
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("\n".join(stripped) + "\n")
    assert main(["evaluate", "--windows", "500", str(unlabeled)]) == 2
    assert "labeled" in capsys.readouterr().err


def test_evaluate_degenerate_labels_exit_2(tmp_path, capsys):
    quiet = generate_synth(tmp_path, "quiet.csv", burst=None)
    out = tmp_path / "s.csv"
    argv = ["evaluate", "--windows", "500", "--tl", "0.2", str(quiet), "-o", str(out)]
    capsys.readouterr()  # drop what generating the input printed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "degenerate labels" in captured.err and captured.out == ""


def test_evaluate_grid_without_an_evaluable_cell_writes_nothing(tmp_path, capsys):
    kdd = tmp_path / "kdd.csv"
    kdd.write_text(kdd_sample_text(n_normal=900, n_attack=300))
    out = tmp_path / "sweep.csv"
    argv = [
        "evaluate", "--format", "kdd", "--windows", "100,1000", "--tl", "0.1,0.2",
        "--max-flows", "777", str(kdd), "-o", str(out),
    ]
    assert main(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kdd.csv"]
    err = capsys.readouterr().err
    assert err == (
        "flowdigits: input error: no evaluable grid cells: 2 with degenerate labels, 2 with insufficient flows\n"
    )


def test_evaluate_roc_mode(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    out = tmp_path / "roc.csv"
    argv = [
        "evaluate", "--roc", "--window", "500", "--labeling-abs", "70",
        str(synth), "-o", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert lines[-1].startswith("# auc=")
    assert "auc=" in capsys.readouterr().out


def test_evaluate_roc_streams_the_library_curve_without_building_one(tmp_path, monkeypatch):
    synth = generate_synth(tmp_path)
    config = DetectorConfig(window=WindowSpec(500), labeling=LabelingRule(absolute=70))
    expected = io.StringIO()
    write_roc_csv(roc_auc((s.score, s.truth) for s in run_detector(parse_flow_csv(synth), config)), expected)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate --roc held the whole curve")

    monkeypatch.setattr(evaluation, "RocCurve", refuse)
    monkeypatch.setattr(evaluation, "roc_curve", refuse)
    out = tmp_path / "roc.csv"
    assert main(["evaluate", "--roc", "--window", "500", "--labeling-abs", "70", str(synth), "-o", str(out)]) == 0
    assert out.read_bytes() == expected.getvalue().encode()


def test_degenerate_roc_leaves_an_existing_output_and_manifest_untouched(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    out, manifest = tmp_path / "roc.csv", tmp_path / "roc.csv.manifest.json"
    out.write_text("earlier curve\n")
    manifest.write_text("{}\n")
    argv = ["evaluate", "--roc", "--window", "500", "--labeling-abs", "501", str(synth), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith("ROC needs at least one positive and one negative window\n")
    assert (out.read_text(), manifest.read_text()) == ("earlier curve\n", "{}\n")


def test_roc_on_fewer_flows_than_the_window_names_both_and_exits_2(tmp_path, capsys):
    kdd = tmp_path / "kdd.csv"
    kdd.write_text(kdd_sample_text(n_normal=180, n_attack=180))
    argv = ["evaluate", "--roc", "--format", "kdd", "--window", "1000", "--labeling-abs", "5", str(kdd)]
    assert main(argv + ["-o", str(tmp_path / "roc.csv")]) == 2
    assert capsys.readouterr().err == "flowdigits: input error: ROC has no windows: 360 flows are fewer than W=1000\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kdd.csv"]


def test_score_packets_on_kdd_exit_2(tmp_path, capsys):
    kdd = tmp_path / "kdd.csv"
    kdd.write_text(kdd_sample_text(n_normal=50, n_attack=0))
    assert main(["score", "--format", "kdd", "--unit", "packets", "--window", "10", str(kdd)]) == 2
    assert "packet counts" in capsys.readouterr().err


def test_score_input_error_writes_nothing(tmp_path, capsys):
    kdd = tmp_path / "kdd.csv"
    kdd.write_text(kdd_sample_text(n_normal=50, n_attack=0))
    out = tmp_path / "scores.csv"
    argv = ["score", "--format", "kdd", "--unit", "packets", "--window", "10", str(kdd)]
    assert main(argv + ["-o", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "scores.csv.manifest.json").exists()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, config",
    [
        ([], {}),
        (["--tl", "0.2"], {"labeling": LabelingRule(relative=0.2)}),
        # Windows inside the constant-size burst have no non-zero difference: invalid, scored inf.
        (
            ["--zeros", "skip", "--metric", "canberra"],
            {"zero_policy": ZeroPolicy.SKIP_ZEROS, "metric": SimilarityMetric.CANBERRA},
        ),
    ],
)
def test_score_file_is_write_scores_csv_of_run_detector(tmp_path, capsys, flags, config):
    synth = generate_synth(tmp_path)
    out = tmp_path / "scores.csv"
    assert main(["score", "--window", "100", "--step", "7", *flags, str(synth), "-o", str(out)]) == 0
    scores = run_detector(parse_flow_csv(synth), DetectorConfig(window=WindowSpec(100, 7), **config))
    expected = io.StringIO()
    write_scores_csv(scores, expected)
    assert out.read_bytes() == expected.getvalue().encode()
    alerts = sum(s.decision for s in scores)
    assert f"scored {len(scores)} windows, {alerts} alerts ->" in capsys.readouterr().out
    if "--zeros" in flags:
        assert any(not s.valid for s in scores) and ",inf,1,," in out.read_text()


def test_manifest_hashes_are_the_sha256_of_the_files(tmp_path):
    synth = generate_synth(tmp_path)
    out = tmp_path / "scores.csv"
    assert main(["score", "--window", "10", "--step", "1", str(synth), "-o", str(out)]) == 0
    assert synth.stat().st_size > 1 << 16 and out.stat().st_size > 1 << 16
    manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text())
    assert manifest["input_sha256"] == hashlib.sha256(synth.read_bytes()).hexdigest()
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_evaluate_kdd_format(tmp_path):
    kdd = tmp_path / "kdd.csv"
    kdd.write_text(kdd_sample_text())
    out = tmp_path / "sweep.csv"
    argv = [
        "evaluate", "--format", "kdd", "--windows", "100", "--tl", "0.2",
        "--max-flows", "500", str(kdd), "-o", str(out),
    ]
    assert main(argv) == 0
    data = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert data[0].startswith("100,rel:0.2,chi2,")


def test_sweep_command(tmp_path, capsys):
    synth = generate_synth(tmp_path, burst=None)
    out = tmp_path / "wsweep.csv"
    argv = ["sweep", "--windows", "500,1000,2000", str(synth), "-o", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "w,mean_score"
    assert len(lines) == 4
    assert "3 window sizes" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "flowdigits" in capsys.readouterr().out


def test_threads_env_variable(tmp_path, monkeypatch):
    synth = generate_synth(tmp_path)
    out_seq = tmp_path / "seq.csv"
    out_par = tmp_path / "par.csv"
    argv = ["evaluate", "--windows", "250,500", "--tl", "0.1,0.2", str(synth)]
    monkeypatch.setenv("FLOWDIGITS_THREADS", "1")
    assert main(argv + ["-o", str(out_seq)]) == 0
    monkeypatch.setenv("FLOWDIGITS_THREADS", "4")
    assert main(argv + ["-o", str(out_par)]) == 0
    assert out_seq.read_text() == out_par.read_text()


def test_generate_uniform_burst_labels_its_flows_and_keeps_their_sizes_in_band(tmp_path):
    ds = parse_flow_csv(generate_synth(tmp_path, burst="uniform:100:200:10:50", normal=300))
    assert ds.label.tolist() == [0] * 10 + [1] * 50 + [0] * 290
    assert ((ds.bytes_total[10:60] >= 100) & (ds.bytes_total[10:60] <= 200)).all()


GENERATE = ["generate", "--seed", "1", "--normal", "100", "-o", "g.csv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (GENERATE + ["--burst", "const:x:1:5"], "burst fields must be integers: 'const:x:1:5'"),
        (GENERATE + ["--decades", "5"], "--decades must look like LO:HI, got '5'"),
        # Exit 3, not 2: the input is not read.
        (["evaluate", "--tl", "0.95..0.99", "absent.csv"], "no grid values inside '0.95..0.99'"),
    ],
)
def test_malformed_burst_decades_or_empty_tl_range_exit_3(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"flowdigits: configuration error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags",
    [
        ["--decades", "15:20"],
        ["--size-model", "pareto", "--pareto-alpha", "nan"],
        ["--size-model", "pareto", "--pareto-alpha", "0.3", "--decades", "14:18"],
        ["--burst", "const:100000000000000000000:1:5"],
        ["--burst", "uniform:1:100000000000000000000:1:5"],
    ],
)
def test_generate_sizes_beyond_int64_exit_3_before_writing(tmp_path, capsys, flags):
    assert main(["generate", "--seed", "1", "--normal", "2000", "-o", str(tmp_path / "g.csv"), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("flowdigits: configuration error: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [2**63, 10**20])
@pytest.mark.parametrize(
    "argv", [["score", "--window"], ["sweep", "--windows"], ["evaluate", "--roc", "--tl", "0.5", "--window"]]
)
def test_window_size_of_2_to_the_63_or_more_exits_3_before_reading_input(tmp_path, capsys, argv, w):
    assert main([*argv, str(w), str(tmp_path / "absent.csv")]) == 3
    assert "configuration error: window size must be a positive flow count" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_roc_of_the_largest_window_size_has_no_windows(tmp_path, capsys):
    synth = generate_synth(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--roc", "--window", str(2**63 - 1), "--tl", "0.5", str(synth)]) == 2
    assert capsys.readouterr().err == f"flowdigits: input error: ROC has no windows: 4500 flows are fewer than W={2**63 - 1}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["score"],
        ["evaluate", "--roc", "--tl", "0.1", "--window", "500"],
        ["evaluate", "--windows", "500", "--tl", "0.1"],
        ["sweep", "--windows", "500"],
    ],
    ids=["score", "roc", "grid", "sweep"],
)
@pytest.mark.parametrize("output", ["f.csv", "./f.csv", "link.csv"])
def test_output_that_is_the_input_exits_3_and_leaves_it_unchanged(tmp_path, monkeypatch, capsys, command, output):
    monkeypatch.chdir(tmp_path)
    generate_synth(tmp_path, name="f.csv")
    (tmp_path / "link.csv").symlink_to("f.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main([*command, "f.csv", "-o", output]) == 3
    assert capsys.readouterr() == ("", f"flowdigits: configuration error: output {output} is the input file\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--window", "abc", "f.csv"],
        ["score", "--metric", "nope", "f.csv"],
        ["generate", "--seed", "1", "-o", "g.csv"],
        ["nope"],
    ],
    ids=["window", "metric", "generate-without-normal", "subcommand"],
)
def test_usage_error_prints_usage_and_exits_3(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: flowdigits")
    assert "error: " in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["score", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: flowdigits")


@pytest.mark.parametrize(
    "command",
    [
        ["score", "missing.csv"],
        ["evaluate", "missing.csv"],
        ["evaluate", "--roc", "--tl", "0.2", "missing.csv"],
        ["sweep", "missing.csv"],
        ["generate", "--seed", "1", "--normal", "10"],
    ],
    ids=["score", "evaluate", "roc", "sweep", "generate"],
)
@pytest.mark.parametrize(
    "output, problem",
    [(".", "is a directory"), ("nodir/x.csv", "is not in an existing directory")],
    ids=["directory", "missing-parent"],
)
def test_unusable_output_exits_3_before_the_input_is_read(tmp_path, monkeypatch, capsys, command, output, problem):
    """A missing input would exit 2 if it were read first; nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert main([*command, "-o", output]) == 3
    assert capsys.readouterr() == ("", f"flowdigits: configuration error: output {output} {problem}\n")
    assert list(tmp_path.iterdir()) == []


def test_output_under_a_file_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    generate_synth(tmp_path, name="f.csv")
    capsys.readouterr()
    assert main(["score", "f.csv", "-o", "f.csv/x.csv"]) == 3
    assert capsys.readouterr().err == "flowdigits: configuration error: output f.csv/x.csv is not in an existing directory\n"
