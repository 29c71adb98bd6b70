"""Input contract: caller streams stay open, malformed input exits 2, bad configuration exits 3."""

import gzip
import io
import json
import math
import warnings

import pytest

from flowdigits import DetectorConfig, KldParams, ParseError, WindowSpec, adapt_kdd, ingest, parse_flow_csv
from flowdigits import parse_tshark_conversations
from flowdigits.cli import DEFAULT_SWEEP_GRID, main
from test_cli import KDD_ATTACK, KDD_NORMAL, kdd_sample_text

CSV_HEADER = "src_ip,src_port,dst_ip,dst_port,packets_total,bytes_total,rel_start_s,duration_s,label\n"
CSV_ROW = "10.0.0.1,1000,10.0.0.2,80,{packets},{bytes},{start},{duration},0\n"
TSHARK_HEADER = "================\nTCP Conversations\nFilter:<No Filter>\n"
TSHARK_ROW = "10.0.0.1:1000 <-> 10.0.0.2:80 1 60 1 60 {frames} {bytes} {start} {duration}\n"


def csv_text(packets=3, bytes_total=180, start="0.5", duration="1.0"):
    row = CSV_ROW.format(packets=packets, bytes=bytes_total, start=start, duration=duration)
    return CSV_HEADER + row * 3


def tshark_text(frames=2, bytes_total=120, start="0.5", duration="1.0"):
    row = TSHARK_ROW.format(frames=frames, bytes=bytes_total, start=start, duration=duration)
    return TSHARK_HEADER + row * 3


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_flow_csv, csv_text()),
        (parse_tshark_conversations, tshark_text()),
        (adapt_kdd, KDD_NORMAL.format(src=10, dst=20) + KDD_ATTACK),
    ],
)
def test_binary_stream_stays_open_after_parsing(parse, text):
    buf = io.BytesIO(text.encode("utf-8"))
    dataset = parse(buf)
    assert len(dataset) >= 2
    assert not buf.closed
    assert buf.getvalue() == text.encode("utf-8")


def test_binary_stream_stays_open_after_parse_error():
    buf = io.BytesIO(csv_text(bytes_total=-1).encode("utf-8"))
    with pytest.raises(ParseError):
        parse_flow_csv(buf)
    assert not buf.closed


def test_gzipped_csv_and_bytes_with_byte_order_mark(tmp_path):
    data = b"\xef\xbb\xbf" + csv_text().encode("utf-8")
    path = tmp_path / "flows.csv.gz"
    with gzip.open(path, "wb") as handle:
        handle.write(data)
    for source in (path, data):
        dataset = parse_flow_csv(source)
        assert len(dataset) == 3 and dataset.labeled


def run_score(tmp_path, capsys, name, text, fmt):
    path = tmp_path / name
    path.write_text(text)
    code = main(["score", "--format", fmt, "--window", "2", str(path), "-o", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize(
    "fields",
    [
        {"bytes_total": 10**20},
        {"bytes_total": 2**63},
        {"packets": 2**63},
        {"start": "inf"},
        {"start": "nan"},
        {"duration": "inf"},
        {"duration": "-inf"},
    ],
)
def test_csv_out_of_range_sizes_and_times_exit_2(tmp_path, capsys, fields):
    code, err = run_score(tmp_path, capsys, "flows.csv", csv_text(**fields), "csv")
    assert code == 2
    assert err.startswith("flowdigits: input error:") and "line 2" in err


def test_csv_largest_int64_size_is_accepted(tmp_path, capsys):
    code, _ = run_score(tmp_path, capsys, "flows.csv", csv_text(bytes_total=2**63 - 1), "csv")
    assert code == 0


@pytest.mark.parametrize(
    "fields",
    [
        {"bytes_total": "1e30"},
        {"bytes_total": "inf"},
        {"frames": "nan"},
        {"start": "inf"},
        {"duration": "nan"},
        {"bytes_total": "12 XB"},
        {"bytes_total": "0"},
    ],
)
def test_tshark_out_of_range_counts_and_times_exit_2(tmp_path, capsys, fields):
    code, err = run_score(tmp_path, capsys, "conv.txt", tshark_text(**fields), "tshark")
    assert code == 2
    assert err.startswith("flowdigits: input error:")


def test_kdd_byte_sum_beyond_int64_exits_2(tmp_path, capsys):
    text = KDD_NORMAL.format(src=10, dst=20) + KDD_NORMAL.format(src=2**62, dst=2**62) + KDD_ATTACK
    code, err = run_score(tmp_path, capsys, "kdd.csv", text, "kdd")
    assert code == 2
    assert "src_bytes + dst_bytes" in err and "line 2" in err


KDD_TEXT = kdd_sample_text(n_normal=20, n_attack=20)
STEP_MESSAGE = "slide step must satisfy 1 <= s <= w"
LABELING = ["--labeling-abs", "1"]


@pytest.mark.parametrize(
    "fmt, text, flags, code, message",
    [
        pytest.param("csv", "src,dst\n1,2\n", LABELING, 2, "unexpected header", id="csv-bad-header"),
        pytest.param(
            "csv", CSV_HEADER + "10.0.0.1,1000,10.0.0.2\n", LABELING, 2, "expected 9 fields", id="csv-short-row"
        ),
        pytest.param(
            "csv", csv_text().replace(",1000,", ",http,"), LABELING, 2, "src_port is not an integer", id="csv-port-text"
        ),
        pytest.param(
            "csv", csv_text().replace(",80,", ",65536,"), LABELING, 2, "dst_port must be <= 65535", id="csv-port-range"
        ),
        pytest.param(
            "tshark",
            TSHARK_ROW.format(frames=2, bytes=120, start="0.5", duration="1.0") + tshark_text(),
            LABELING,
            2,
            "conversation line before any table header",
            id="tshark-row-before-header",
        ),
        pytest.param(
            "kdd", KDD_TEXT + "0,tcp,http,SF,10,20\n", LABELING, 2, "expected at least 42 fields", id="kdd-short-row"
        ),
        pytest.param(
            "csv",
            csv_text(bytes_total="9" * 200_000),
            LABELING,
            2,
            "line 2: field larger than field limit",
            id="csv-overlong-cell",
        ),
        pytest.param("csv", "", LABELING, 2, "missing header line", id="csv-empty"),
        pytest.param("tshark", "", LABELING, 2, "no conversations table", id="tshark-empty"),
        pytest.param("kdd", "", LABELING, 2, "ROC has no windows: 0 flows are fewer than W=2", id="kdd-empty"),
        pytest.param(
            "kdd", KDD_TEXT, ["--tl", "0.9", "--labeling-abs", "5"], 3, "mutually exclusive", id="roc-tl-and-abs"
        ),
        pytest.param(
            "kdd",
            KDD_TEXT,
            LABELING + ["--metric", "mkld", "--theta", "inf"],
            3,
            "theta must be a finite positive number",
            id="theta-inf",
        ),
        *(
            pytest.param(
                fmt, text, LABELING + ["--max-flows", value], 3, "--max-flows must be at least 1",
                id=f"{fmt}-max-flows{value}",
            )
            for fmt, text in (("csv", csv_text()), ("kdd", KDD_TEXT))
            for value in ("0", "-1")
        ),
    ],
)
def test_malformed_input_or_configuration_exits_cleanly_without_output(
    tmp_path, capsys, fmt, text, flags, code, message
):
    path = tmp_path / f"input.{fmt}"
    path.write_text(text)
    out = tmp_path / "roc.csv"
    got = main(["evaluate", "--roc", "--format", fmt, "--window", "2", *flags, str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert (got, "Traceback" in err) == (code, False)
    prefix = "input error" if code == 2 else "configuration error"
    assert err.startswith(f"flowdigits: {prefix}:") and message in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "fmt, parse, text",
    [
        ("csv", parse_flow_csv, csv_text()),
        ("tshark", parse_tshark_conversations, tshark_text()),
        ("kdd", adapt_kdd, KDD_TEXT),
    ],
    ids=["csv", "tshark", "kdd"],
)
@pytest.mark.parametrize("command", [["score"], ["evaluate", "--roc", *LABELING]], ids=["score", "roc"])
def test_undecodable_byte_is_an_input_error(tmp_path, capsys, fmt, parse, text, command):
    data = text.encode("utf-8")
    offset = len(data) - 4  # inside the last line
    data = data[:offset] + b"\xff" + data[offset:]
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(data)
    argv = [command[0], "--format", fmt, "--window", "2", *command[1:], str(path), "-o", str(tmp_path / "out.csv")]
    got = main(argv)
    err = capsys.readouterr().err
    assert (got, "Traceback" in err) == (2, False)
    assert err == f"flowdigits: input error: input is not UTF-8: byte 0xff at byte offset {offset}\n"
    assert list(tmp_path.iterdir()) == [path]
    # bytes input is decoded whole, so its error also names the line.
    line = data.count(b"\n", 0, offset) + 1
    with pytest.raises(ParseError, match=f"^line {line}: input is not UTF-8: byte 0xff at byte offset {offset}$"):
        parse(data)
    with pytest.raises(ParseError, match=f"^input is not UTF-8: byte 0xff at byte offset {offset}$"):
        parse(io.BytesIO(data))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 0.0])
def test_kld_theta_must_be_finite_and_positive(theta):
    with pytest.raises(ValueError, match="finite positive"):
        KldParams(theta=theta)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan, -0.1])
def test_decision_threshold_must_be_finite_and_non_negative(threshold):
    with pytest.raises(ValueError, match="finite non-negative"):
        DetectorConfig(window=WindowSpec(2), threshold_t=threshold)


@pytest.mark.parametrize("command", [["score"], ["evaluate", "--roc", *LABELING], ["sweep"]])
@pytest.mark.parametrize("threshold", ["inf", "nan"])
def test_threshold_not_finite_exits_3_and_writes_no_file(tmp_path, capsys, command, threshold):
    path = tmp_path / "input.csv"
    path.write_text(csv_text())
    got = main([*command, "--window", "2", f"--threshold={threshold}", str(path), "-o", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert (got, "Traceback" in err) == (3, False)
    assert err.startswith("flowdigits: configuration error: decision threshold must be a finite non-negative")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("max_flows", [0, -1])
def test_adapt_kdd_rejects_max_flows_below_one(max_flows):
    with pytest.raises(ValueError, match="max_flows must be at least 1"):
        adapt_kdd(io.StringIO(KDD_TEXT), max_flows=max_flows)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["evaluate", "--metrics", ","], "--metrics lists no values: ','", id="evaluate-metrics"),
        pytest.param(["evaluate", "--windows", ","], "--windows lists no values: ','", id="evaluate-windows"),
        pytest.param(["evaluate", "--windows", ""], "--windows lists no values: ''", id="evaluate-windows-blank"),
        pytest.param(["evaluate", "--tl", ","], "--tl lists no values: ','", id="evaluate-tl"),
        pytest.param(["evaluate", "--labeling-abs", ","], "--labeling-abs lists no values: ','", id="evaluate-abs"),
        pytest.param(["sweep", "--windows", ","], "--windows lists no values: ','", id="sweep-windows"),
        pytest.param(["evaluate", "--windows", "100", "--step", "300"], STEP_MESSAGE, id="evaluate-step-over-w"),
        pytest.param(
            ["evaluate", "--windows", "5000,100", "--step", "3000"], STEP_MESSAGE, id="evaluate-step-over-one-w"
        ),
        pytest.param(["evaluate", "--windows", "100", "--step", "0"], STEP_MESSAGE, id="evaluate-step-zero"),
        pytest.param(["sweep", "--windows", "100", "--step", "300"], STEP_MESSAGE, id="sweep-step-over-w"),
        pytest.param(["sweep", "--step", "600"], STEP_MESSAGE, id="sweep-step-over-default-w"),
    ],
)
def test_empty_grid_axis_exits_3_before_reading_input(tmp_path, capsys, argv, message):
    path = tmp_path / "input.kdd"
    path.write_text(KDD_TEXT)
    out = tmp_path / "grid.csv"
    got = main([argv[0], "--format", "kdd", *argv[1:], str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert (got, "Traceback" in err) == (3, False)
    assert err == f"flowdigits: configuration error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]
    # The axes are checked first: a missing input still gives the configuration error.
    path.unlink()
    assert main([argv[0], "--format", "kdd", *argv[1:], str(path), "-o", str(out)]) == 3


def test_sweep_bare_windows_flag_means_the_default_grid(tmp_path, capsys):
    path = tmp_path / "input.kdd"
    path.write_text(KDD_TEXT)
    out = tmp_path / "wsweep.csv"
    with pytest.warns(RuntimeWarning):
        assert main(["sweep", "--format", "kdd", "--windows", "", str(path), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + len(DEFAULT_SWEEP_GRID) * 2


def test_sweep_warns_once_naming_the_skipped_window_sizes_and_the_flow_count(tmp_path):
    path = tmp_path / "input.kdd"
    path.write_text(KDD_TEXT)
    out = tmp_path / "wsweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--format", "kdd", "--windows", "", str(path), "-o", str(out)]) == 0
    n, k = len(adapt_kdd(path)), len(DEFAULT_SWEEP_GRID)
    message = f"{k} of {k} window sizes exceed flow count {n}; cells skipped"
    assert [(warning.category, str(warning.message)) for warning in caught] == [(RuntimeWarning, message)]
    assert out.read_text().count(" reason=insufficient flows\n") == k


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_grid_step_is_checked_against_the_grid_not_the_unused_window(tmp_path, capsys, command):
    path = tmp_path / "input.kdd"
    path.write_text(KDD_TEXT)
    out = tmp_path / "grid.csv"
    argv = [command, "--format", "kdd", "--window", "5", "--windows", "10,20", "--step", "8", str(path), "-o", str(out)]
    assert main(argv + (["--labeling-abs", "1"] if command == "evaluate" else [])) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "grid.csv.manifest.json").read_text())["config"]["window"] == {"w": 5, "s": 8}


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_flow_csv, csv_text()),
        (parse_tshark_conversations, tshark_text()),
        (adapt_kdd, KDD_NORMAL.format(src=10, dst=20) + KDD_ATTACK),
    ],
    ids=["csv", "tshark", "kdd"],
)
def test_cr_only_line_ends_parse_alike_from_bytes_stream_and_path(tmp_path, parse, text):
    data = text.replace("\n", "\r").encode("utf-8")
    path = tmp_path / "input"
    path.write_bytes(data)
    expected = parse(path).flows
    assert len(expected) >= 2
    assert parse(data).flows == parse(io.BytesIO(data)).flows == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "parse, text",
    [(parse_flow_csv, csv_text()), (parse_tshark_conversations, tshark_text()), (adapt_kdd, KDD_TEXT)],
    ids=["csv", "tshark", "kdd"],
)
def test_undecodable_byte_in_bytes_names_its_line_for_every_line_end(parse, text, newline):
    lines = text.splitlines()
    assert len(lines) >= 3
    offset = len(newline.join(lines[:2] + [lines[2][:3]]).encode("utf-8"))
    data = newline.join(lines).encode("utf-8")
    data = data[:offset] + b"\xff" + data[offset:]
    with pytest.raises(ParseError) as info:
        parse(data)
    assert info.value.line == 3
    assert str(info.value) == f"line 3: input is not UTF-8: byte 0xff at byte offset {offset}"


#: Over-long cells: CSV cells stay under the csv module's 131,072-character field limit.
LONG = 200_000


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        pytest.param(
            "csv", csv_text(bytes_total="9" * 100_000), "line 2: field bytes_total is not an integer:", id="csv-int"
        ),
        pytest.param(
            "csv", csv_text(start="x" * 100_000), "line 2: field rel_start_s is not a number:", id="csv-float"
        ),
        pytest.param(
            "csv",
            CSV_HEADER + "a" * 100_000 + CSV_ROW[8:].format(packets=3, bytes=180, start=0.5, duration=1.0),
            "line 2: field src_ip is not an IP address:",
            id="csv-address",
        ),
        pytest.param("tshark", tshark_text(bytes_total="9" * LONG), "line 4: count '999", id="tshark-count"),
        pytest.param(
            "tshark", tshark_text(bytes_total="1 " + "x" * LONG), "line 4: unknown unit suffix", id="tshark-unit"
        ),
        pytest.param(
            "tshark",
            TSHARK_HEADER + "a" * LONG + " x <-> b\n",
            "line 4: unrecognized conversation line:",
            id="tshark-line",
        ),
        pytest.param(
            "kdd",
            KDD_NORMAL.format(src="9" * LONG, dst=20) + KDD_ATTACK,
            "line 1: field src_bytes is not an integer:",
            id="kdd-bytes",
        ),
    ],
)
def test_over_long_cell_gives_a_short_error_naming_field_and_line(tmp_path, capsys, fmt, text, message):
    code, err = run_score(tmp_path, capsys, f"input.{fmt}", text, fmt)
    assert code == 2
    assert err.startswith(f"flowdigits: input error: {message}")
    assert len(err) < 300 and " characters)" in err


#: Inputs long enough that a gzip stream cut in half still holds whole lines.
LONG_TEXTS = {
    "csv": CSV_HEADER + "".join(CSV_ROW.format(packets=3, bytes=i, start=i, duration=1) for i in range(1, 2000)),
    "tshark": TSHARK_HEADER
    + "".join(TSHARK_ROW.format(frames=2, bytes=i, start=i, duration=1) for i in range(1, 2000)),
    "kdd": kdd_sample_text(),
}


def damaged_gzip(data, damage):
    """``data`` gzipped, then cut in half or followed by a second member that cannot be decompressed."""
    packed = gzip.compress(data, mtime=0)
    if damage == "truncated":
        return packed[: len(packed) // 2]
    member = bytearray(packed)
    member[10] |= 0b110  # after the 10-byte header, deflate block type 3, which is reserved
    return packed + bytes(member)


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
@pytest.mark.parametrize("fmt", sorted(LONG_TEXTS))
@pytest.mark.parametrize("command", [["score"], ["evaluate", "--roc", *LABELING]], ids=["score", "roc"])
def test_truncated_or_corrupt_gzip_input_is_an_input_error(tmp_path, capsys, fmt, damage, command):
    data = LONG_TEXTS[fmt].encode("utf-8")
    path = tmp_path / f"input.{fmt}.gz"
    path.write_bytes(damaged_gzip(data, damage))
    argv = [command[0], "--format", fmt, "--window", "2", *command[1:], str(path), "-o", str(tmp_path / "out.csv")]
    got = main(argv)
    err = capsys.readouterr().err
    assert (got, "Traceback" in err) == (2, False)
    assert err.startswith("flowdigits: input error: compressed input is truncated or corrupt after byte offset ")
    if damage == "corrupt":  # the whole first member was read
        assert f" after byte offset {len(data)}: " in err
    assert list(tmp_path.iterdir()) == [path]


def kdd_source(tmp_path, via, data, read_error=None):
    """KDD bytes as a path or a binary stream, with a read error at their end: a 0xff byte or a cut gzip stream."""
    if read_error == "undecodable":
        data += b"\xff" + KDD_TEXT.encode("utf-8")
    elif read_error == "truncated-gzip":
        data = gzip.compress(data + KDD_TEXT.encode("utf-8"), mtime=0)
        data = data[: len(data) * 9 // 10]
    if via == "stream":
        return gzip.GzipFile(fileobj=io.BytesIO(data)) if read_error == "truncated-gzip" else io.BytesIO(data)
    path = tmp_path / ("kdd.csv.gz" if read_error == "truncated-gzip" else "kdd.csv")
    path.write_bytes(data)
    return path


READ_ERRORS = {"undecodable": "input is not UTF-8", "truncated-gzip": "compressed input is truncated or corrupt"}
BAD_KDD_LINES = {"short-row": "0,tcp,http\n", "bad-bytes": KDD_NORMAL.format(src="x", dst=20)}


@pytest.mark.parametrize("via", ["path", "stream"])
@pytest.mark.parametrize("read_error", sorted(READ_ERRORS))
@pytest.mark.parametrize("bad", sorted(BAD_KDD_LINES))
def test_bad_kdd_line_raises_before_a_later_read_error_in_its_block(tmp_path, via, read_error, bad):
    head = kdd_sample_text(n_normal=2, n_attack=0)
    # Over 8 KiB of lines between the bad line and the read error, which the
    # text reader decodes in a later read, but fewer than a block of lines.
    tail = kdd_sample_text(n_normal=300, n_attack=300)
    assert len(tail) > 8192 and head.count("\n") + tail.count("\n") < ingest._CHUNK_ROWS
    with pytest.raises(ParseError) as info:
        adapt_kdd(kdd_source(tmp_path, via, (head + BAD_KDD_LINES[bad] + tail).encode("utf-8"), read_error))
    assert info.value.line == 3
    assert READ_ERRORS[read_error] not in str(info.value)
    with pytest.raises(ParseError, match=READ_ERRORS[read_error]):  # without the bad line
        adapt_kdd(kdd_source(tmp_path, via, (head + tail).encode("utf-8"), read_error))


@pytest.mark.parametrize("via", ["path", "stream"])
@pytest.mark.parametrize("after", [*sorted(BAD_KDD_LINES), *sorted(READ_ERRORS)])
def test_nothing_after_the_max_flows_cut_off_is_checked(tmp_path, via, after):
    head = kdd_sample_text(n_normal=3, n_attack=3)
    if after in BAD_KDD_LINES:
        source = kdd_source(tmp_path, via, (head + BAD_KDD_LINES[after] + KDD_TEXT).encode("utf-8"))
    else:  # over 8 KiB after the cut-off, so the text reader never decodes that far
        source = kdd_source(tmp_path, via, (head + kdd_sample_text(n_normal=300, n_attack=0)).encode("utf-8"), after)
    dataset = adapt_kdd(source, max_flows=6)
    assert dataset.flows == adapt_kdd(head.encode("utf-8")).flows
