import io

import numpy as np
import pytest

from flowdigits import (
    CapabilityError,
    FlowDataset,
    FormatError,
    OrderingScheme,
    ParseError,
    SizeUnit,
    adapt_kdd,
    order_flows,
    parse_flow_csv,
    parse_tshark_conversations,
    size_sequence,
    write_flow_csv,
)
from flowdigits.ingest import FlowRecord

CSV_HEADER = "src_ip,src_port,dst_ip,dst_port,packets_total,bytes_total,rel_start_s,duration_s"


def make_flow(seq, **overrides):
    base = dict(
        src_ip="10.0.0.1",
        src_port=1000 + seq,
        dst_ip="10.0.0.2",
        dst_port=80,
        packets_total=2 + seq,
        bytes_total=100 + seq,
        rel_start=float(seq),
        duration=0.5,
        label=None,
        seq_no=seq,
    )
    base.update(overrides)
    return FlowRecord(**base)


def test_parse_flow_csv_basic_row():
    text = CSV_HEADER + ",label\n10.0.0.1,5000,10.0.0.2,80,12,3400,1.5,0.2,0\n"
    ds = parse_flow_csv(io.StringIO(text))
    assert len(ds.flows) == 1
    f = ds.flows[0]
    assert (f.packets_total, f.bytes_total, f.rel_start, f.duration, f.label) == (12, 3400, 1.5, 0.2, 0)
    assert f.seq_no == 0
    assert ds.labeled


def test_parse_flow_csv_header_only_is_labeled_and_empty():
    ds = parse_flow_csv(io.StringIO(CSV_HEADER + ",label\n"))
    assert len(ds.flows) == 0
    assert ds.labeled


def test_parse_flow_csv_negative_bytes_names_line():
    text = CSV_HEADER + "\n10.0.0.1,5000,10.0.0.2,80,12,3400,1.5,0.2\n10.0.0.1,5000,10.0.0.2,80,12,-5,1.5,0.2\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_flow_csv(io.StringIO(text))


def test_parse_flow_csv_missing_header():
    with pytest.raises(FormatError):
        parse_flow_csv(io.StringIO("10.0.0.1,5000,10.0.0.2,80,12,3400,1.5,0.2\n"))
    with pytest.raises(FormatError):
        parse_flow_csv(io.StringIO(""))


def test_parse_flow_csv_bad_label_cell_unlabels_dataset():
    text = CSV_HEADER + ",label\n10.0.0.1,1,10.0.0.2,2,1,10,0,0,1\n10.0.0.1,1,10.0.0.2,2,1,10,0,0,maybe\n"
    ds = parse_flow_csv(io.StringIO(text))
    assert ds.flows[0].label == 1
    assert ds.flows[1].label is None
    assert not ds.labeled


def test_parse_flow_csv_wrong_column_count():
    text = CSV_HEADER + "\n10.0.0.1,5000,10.0.0.2,80,12,3400,1.5\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_flow_csv(io.StringIO(text))


def test_parse_flow_csv_port_range_and_address_validation():
    bad_port = CSV_HEADER + "\n10.0.0.1,70000,10.0.0.2,80,1,10,0,0\n"
    with pytest.raises(ParseError):
        parse_flow_csv(io.StringIO(bad_port))
    bad_addr = CSV_HEADER + "\nnot-an-ip,1,10.0.0.2,80,1,10,0,0\n"
    with pytest.raises(ParseError):
        parse_flow_csv(io.StringIO(bad_addr))


def test_parse_flow_csv_crlf_and_empty_packets():
    text = CSV_HEADER + "\r\n2001:db8::1,5000,10.0.0.2,80,,3400,1.5,0.2\r\n"
    ds = parse_flow_csv(io.StringIO(text))
    assert ds.flows[0].packets_total is None
    assert ds.flows[0].src_ip == "2001:db8::1"
    assert not ds.labeled


def test_flow_csv_round_trip():
    rows = [
        make_flow(0, label=0),
        make_flow(1, label=None, src_ip="2001:db8::5"),
        make_flow(2, label=1, packets_total=None, rel_start=0.30000000000000004),
    ]
    ds = FlowDataset(flows=tuple(rows), labeled=False, source_name="x")
    buffer = io.StringIO()
    write_flow_csv(ds, buffer)
    again = parse_flow_csv(io.StringIO(buffer.getvalue()))
    assert again.flows == ds.flows
    assert again.labeled == ds.labeled

    relabeled = FlowDataset(
        flows=tuple(make_flow(i, label=i % 2) for i in range(5)), labeled=True
    )
    buffer = io.StringIO()
    write_flow_csv(relabeled, buffer)
    again = parse_flow_csv(io.StringIO(buffer.getvalue()))
    assert again.flows == relabeled.flows
    assert again.labeled


@pytest.mark.parametrize("as_text", [False, True])
def test_write_flow_csv_to_a_path_matches_a_stream(tmp_path, as_text):
    flows = tuple(make_flow(i, label=i % 2, packets_total=None if i == 3 else i) for i in range(5))
    ds = FlowDataset(flows=flows, labeled=True)
    path = tmp_path / "flows.csv"
    write_flow_csv(ds, str(path) if as_text else path)
    buffer = io.StringIO()
    write_flow_csv(ds, buffer)
    assert path.read_bytes() == buffer.getvalue().encode("utf-8")
    assert parse_flow_csv(path).flows == ds.flows


TSHARK_OLD = """\
================================================================================
TCP Conversations
Filter:<No Filter>
                                               |       <-      | |       ->      | |     Total     |   Relative   |   Duration   |
                                               | Frames  Bytes | | Frames  Bytes | | Frames  Bytes |     Start    |              |
10.0.0.5:51234         <->    93.184.216.34:443      40   52000      40    4100      80   56100      12.345          3.210
192.168.1.9:49152      <->    192.168.1.1:80          5     500       7     900       12    1400      0.000000000     1.5
================================================================================
"""

TSHARK_SUFFIXED = """\
================================================================================
TCP Conversations
Filter:<No Filter>
                                                           |       <-      | |       ->      | |     Total     |    Relative    |   Duration   |
                                                           | Frames  Bytes | | Frames  Bytes | | Frames  Bytes |      Start     |              |
10.1.1.2:54321            <-> 93.184.216.34:80              21 14 kB        17 2,286 bytes      38 16 kB         0.000000000         5.4321
10.1.1.3:54000            <-> 10.9.9.9:443                  10 56 kB        12 1 MB             22 1 MB          3.500000000         9.0000
================================================================================
"""


def test_parse_tshark_plain_integers():
    ds = parse_tshark_conversations(io.StringIO(TSHARK_OLD))
    assert len(ds.flows) == 2
    f = ds.flows[0]
    assert (f.src_ip, f.src_port, f.dst_ip, f.dst_port) == ("10.0.0.5", 51234, "93.184.216.34", 443)
    assert (f.packets_total, f.bytes_total) == (80, 56100)
    assert (f.rel_start, f.duration) == (12.345, 3.210)
    assert not ds.labeled
    assert all(f.label is None for f in ds.flows)


def test_parse_tshark_si_suffixes():
    ds = parse_tshark_conversations(io.StringIO(TSHARK_SUFFIXED))
    assert ds.flows[0].bytes_total == 16_000
    assert ds.flows[0].packets_total == 38
    assert ds.flows[1].bytes_total == 1_000_000
    assert ds.flows[1].rel_start == 3.5


def test_parse_tshark_framing_required():
    with pytest.raises(FormatError):
        parse_tshark_conversations(io.StringIO("no table here\n"))
    headerless = "1.2.3.4:1 <-> 5.6.7.8:2   1 1   1 1   2 2   0.0   1.0\n"
    with pytest.raises(FormatError):
        parse_tshark_conversations(io.StringIO(headerless))


def test_parse_tshark_bad_suffix_names_token():
    bad = TSHARK_OLD.replace("40   52000", "40   52 XB")
    with pytest.raises(ParseError, match="XB"):
        parse_tshark_conversations(io.StringIO(bad))


KDD_ROWS = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,normal.\n"
    "0,udp,domain_u,SF,105,146,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,0.00,0.00,0.00,0.00,1.00,0.00,0.00,254,254,1.00,0.01,0.00,0.00,0.00,0.00,0.00,0.00,normal.\n"
    "0,tcp,private,S0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,123,6,1.00,1.00,0.00,0.00,0.05,0.07,0.00,255,26,0.10,0.05,0.00,0.00,1.00,1.00,0.00,0.00,neptune.\n"
)


def test_adapt_kdd_filters_and_labels():
    ds = adapt_kdd(io.BytesIO(KDD_ROWS.encode()))
    assert len(ds.flows) == 2
    assert ds.labeled
    first, second = ds.flows
    assert first.bytes_total == 181 + 5450
    assert first.label == 0
    assert second.label == 1
    assert [f.rel_start for f in ds.flows] == [0.0, 1.0]
    assert [f.duration for f in ds.flows] == [0.0, 0.0]
    assert [f.seq_no for f in ds.flows] == [0, 1]


def test_adapt_kdd_packets_unavailable():
    ds = adapt_kdd(io.BytesIO(KDD_ROWS.encode()))
    with pytest.raises(CapabilityError):
        size_sequence(ds, SizeUnit.PACKETS)


def test_adapt_kdd_short_row_and_bad_bytes():
    with pytest.raises(ParseError, match="line 1"):
        adapt_kdd(io.BytesIO(b"0,tcp,http\n"))
    broken = KDD_ROWS.replace("181", "x81")
    with pytest.raises(ParseError):
        adapt_kdd(io.BytesIO(broken.encode()))


def test_adapt_kdd_max_flows():
    ds = adapt_kdd(io.BytesIO(KDD_ROWS.encode() * 10), max_flows=3)
    assert len(ds.flows) == 3


def test_order_flows_start_end():
    flows = tuple(make_flow(i, rel_start=r) for i, r in enumerate([3.0, 1.0, 2.0]))
    ds = FlowDataset(flows=flows, labeled=False)
    ordered = order_flows(ds, OrderingScheme.START_END)
    assert [f.rel_start for f in ordered.flows] == [1.0, 2.0, 3.0]


def test_order_flows_tie_keeps_raw_order():
    a = make_flow(7, rel_start=1.0, duration=1.0)
    b = make_flow(4, rel_start=1.0, duration=1.0)
    ds = FlowDataset(flows=(a, b), labeled=False)
    ordered = order_flows(ds, OrderingScheme.START_END)
    assert [f.seq_no for f in ordered.flows] == [4, 7]


def test_order_flows_empty():
    ds = FlowDataset(flows=(), labeled=True)
    assert order_flows(ds, OrderingScheme.END_START).flows == ()


def test_order_flows_end_start_uses_derived_end():
    early_end = make_flow(0, rel_start=5.0, duration=0.1)
    late_end = make_flow(1, rel_start=1.0, duration=10.0)
    ds = FlowDataset(flows=(late_end, early_end), labeled=False)
    ordered = order_flows(ds, OrderingScheme.END_START)
    assert [f.seq_no for f in ordered.flows] == [0, 1]


def test_order_flows_address_bytes_not_strings():
    # Byte-wise address order: 9.0.0.0 sorts before 10.0.0.0 even though the
    # string "9..." would sort after "10...".
    low = make_flow(0, src_ip="9.0.0.0")
    high = make_flow(1, src_ip="10.0.0.0")
    ds = FlowDataset(flows=(high, low), labeled=False)
    ordered = order_flows(ds, OrderingScheme.SRC_DST_START)
    assert [f.src_ip for f in ordered.flows] == ["9.0.0.0", "10.0.0.0"]


def _random_dataset(rng, n=200):
    flows = []
    for i in range(n):
        flows.append(
            make_flow(
                i,
                src_ip=f"10.0.{rng.integers(0, 4)}.{rng.integers(0, 4)}",
                dst_ip="2001:db8::1" if rng.integers(0, 5) == 0 else "10.1.0.1",
                src_port=int(rng.integers(0, 3000)),
                dst_port=int(rng.integers(0, 3000)),
                rel_start=float(rng.integers(0, 50)),
                duration=float(rng.integers(0, 10)),
            )
        )
    return FlowDataset(flows=tuple(flows), labeled=False)


def test_order_flows_is_permutation_and_idempotent():
    rng = np.random.default_rng(17)
    ds = _random_dataset(rng)
    for scheme in OrderingScheme:
        ordered = order_flows(ds, scheme)
        assert sorted(f.seq_no for f in ordered.flows) == list(range(len(ds.flows)))
        assert order_flows(ordered, scheme).flows == ordered.flows


def test_order_flows_ties_ascending_seq_no_everywhere():
    rng = np.random.default_rng(19)
    ds = _random_dataset(rng)
    for scheme in (OrderingScheme.SRC_DST_START, OrderingScheme.FIVE_TUPLE_START):
        ordered = order_flows(ds, scheme)
        # Re-ordering a shuffled copy must give the identical result.
        shuffled = tuple(ds.flows[i] for i in rng.permutation(len(ds.flows)))
        again = order_flows(FlowDataset(flows=shuffled, labeled=False), scheme)
        assert again.flows == ordered.flows
