"""Input contract: caller streams stay open, malformed input exits 2, bad configuration exits 3."""

import gzip
import io
import math

import pytest

from flowdigits import KldParams, ParseError, adapt_kdd, parse_flow_csv, parse_tshark_conversations
from flowdigits.cli import main
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
        pytest.param("csv", "", LABELING, 2, "missing header line", id="csv-empty"),
        pytest.param("tshark", "", LABELING, 2, "no conversations table", id="tshark-empty"),
        pytest.param("kdd", "", LABELING, 2, "at least one positive and one negative window", id="kdd-empty"),
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


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 0.0])
def test_kld_theta_must_be_finite_and_positive(theta):
    with pytest.raises(ValueError, match="finite positive"):
        KldParams(theta=theta)


@pytest.mark.parametrize("max_flows", [0, -1])
def test_adapt_kdd_rejects_max_flows_below_one(max_flows):
    with pytest.raises(ValueError, match="max_flows must be at least 1"):
        adapt_kdd(io.StringIO(KDD_TEXT), max_flows=max_flows)
