"""Input contract: caller streams stay open, malformed sizes and times exit 2."""

import gzip
import io

import pytest

from flowdigits import ParseError, adapt_kdd, parse_flow_csv, parse_tshark_conversations
from flowdigits.cli import main
from test_cli import KDD_ATTACK, KDD_NORMAL

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
