"""The column rules of the flow table, and the flow CSV round trip they make possible.

``FlowDataset(flows)``, the flow CSV and tshark all build through one table
builder, which refuses a chunk that breaks a column rule. ``write_flow_csv``
writes only what ``parse_flow_csv`` reads back: it refuses an endpoint that
is not an IP address before it writes a byte.
"""

import dataclasses
import io
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdigits import (
    AttackBurst,
    ConstantSize,
    FlowDataset,
    GeneratorSpec,
    UniformSize,
    generate,
    ingest,
    parse_flow_csv,
    parse_tshark_conversations,
    write_flow_csv,
)
from flowdigits.ingest import MAX_SIZE, FlowRecord

GOOD = FlowRecord("10.0.0.1", 1, "10.0.0.2", 2, 3, 100, 0.0, 1.0, 0, 0)
SIZES = f"in 0..{MAX_SIZE}"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"bytes_total": -5}, f"field bytes_total must be {SIZES}, got -5"),
        ({"bytes_total": 2**63}, f"field bytes_total must be {SIZES}, got {2**63}"),
        ({"bytes_total": 2**70}, f"field bytes_total must be {SIZES}, got {2**70}"),
        ({"packets_total": -1}, f"field packets_total must be {SIZES}, got -1"),
        ({"packets_total": 2**63}, f"field packets_total must be {SIZES}, got {2**63}"),
        ({"packets_total": 3, "bytes_total": 0}, "field bytes_total must be at least 1 in a flow with packets, got 0"),
        ({"rel_start": math.nan}, "field rel_start must be finite and non-negative, got nan"),
        ({"rel_start": -1e-300}, "field rel_start must be finite and non-negative, got -1e-300"),
        ({"rel_start": math.inf}, "field rel_start must be finite and non-negative, got inf"),
        ({"duration": -1.0}, "field duration must be finite and non-negative, got -1.0"),
        ({"duration": -math.inf}, "field duration must be finite and non-negative, got -inf"),
        ({"label": 2}, "field label must be in -1..1, got 2"),
        ({"label": -2}, "field label must be in -1..1, got -2"),
        ({"src_port": 2**32 + 80}, f"field src_port must be in 0..65535, got {2**32 + 80}"),  # 80 as int32
        ({"dst_port": -1}, "field dst_port must be in 0..65535, got -1"),
        ({"seq_no": 2**63}, f"field seq_no must be an int64, got {2**63}"),
        ({"seq_no": 2**64}, f"field seq_no must be an int64, got {2**64}"),
        ({"seq_no": -(2**63) - 1}, f"field seq_no must be an int64, got {-(2**63) - 1}"),
        ({"src_ip": None}, "field src_ip must be a string, got None"),
        ({"dst_ip": 167772161}, "field dst_ip must be a string, got 167772161"),
        ({"src_ip": b"10.0.0.1"}, "field src_ip must be a string, got b'10.0.0.1'"),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("labeled", [False, True])
def test_flow_records_breaking_a_column_rule_are_refused(change, message, chunk_rows, labeled):
    flows = [dataclasses.replace(GOOD, seq_no=i) for i in range(5)]
    flows[3] = dataclasses.replace(flows[3], **change)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows), pytest.raises(ValueError) as caught:
        FlowDataset(flows, labeled=labeled)
    assert str(caught.value) == f"record 3: {message}"


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_a_size_beyond_int64_is_refused_though_a_later_record_is_negative(chunk_rows):
    """Read as float64 together, 2**63 would equal MAX_SIZE and the -1 would be named instead."""
    flows = [GOOD] * 3 + [dataclasses.replace(GOOD, bytes_total=2**63), dataclasses.replace(GOOD, bytes_total=-1)]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        with pytest.raises(ValueError, match=f"^record 3: field bytes_total must be {SIZES}, got {2**63}$"):
            FlowDataset(flows, labeled=True)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"src_port": 80.9}, "field src_port must be an integer, got 80.9"),
        ({"src_port": 80.0}, "field src_port must be an integer, got 80.0"),
        ({"dst_port": np.float64(2.5)}, "field dst_port must be an integer, got 2.5"),
        ({"packets_total": 3.5}, "field packets_total must be an integer, got 3.5"),
        ({"packets_total": Fraction(7, 2)}, "field packets_total must be an integer, got 7/2"),
        ({"bytes_total": 100.7}, "field bytes_total must be an integer, got 100.7"),
        ({"bytes_total": Decimal("100")}, "field bytes_total must be an integer, got 100"),
        ({"label": 0.5}, "field label must be an integer, got 0.5"),
        ({"label": 1.0}, "field label must be an integer, got 1.0"),
        ({"src_port": "80"}, "field src_port must be an integer, got 80"),
        ({"dst_port": None}, "field dst_port must be an integer, got None"),
        ({"seq_no": 1.5}, "field seq_no must be an integer, got 1.5"),
        ({"seq_no": None}, "field seq_no must be an integer, got None"),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("labeled", [False, True])
def test_a_float_or_other_non_integer_in_an_integer_column_is_refused(change, message, chunk_rows, labeled):
    """The cast to the integer column would keep 80 of 80.9, while ``.flows`` kept 80.9."""
    flows = [dataclasses.replace(GOOD, seq_no=i) for i in range(5)]
    flows[3] = dataclasses.replace(flows[3], **change)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows), pytest.raises(ValueError) as caught:
        FlowDataset(flows, labeled=labeled)
    assert str(caught.value) == f"record 3: {message}"


def test_the_record_of_truncated_floats_is_refused_at_its_first_integer_field():
    record = FlowRecord("10.0.0.1", 80.9, "10.0.0.2", 2, 3, 100.7, 0.0, 1.0, 0.5, 0)
    with pytest.raises(ValueError, match=r"^record 0: field src_port must be an integer, got 80\.9$"):
        FlowDataset([record], labeled=True)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rel_start": "0.5"}, "field rel_start must be a number, got 0.5"),
        ({"rel_start": None}, "field rel_start must be a number, got None"),
        ({"rel_start": b"1"}, "field rel_start must be a number, got b'1'"),
        ({"duration": "1.0"}, "field duration must be a number, got 1.0"),
        ({"duration": None}, "field duration must be a number, got None"),
        ({"duration": b"1"}, "field duration must be a number, got b'1'"),
        ({"duration": np.str_("2")}, "field duration must be a number, got 2"),
        ({"rel_start": 1 + 0j}, "field rel_start must be a number, got (1+0j)"),
        ({"duration": np.complex128(1)}, "field duration must be a number, got (1+0j)"),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("labeled", [False, True])
def test_a_non_number_in_a_float_column_is_refused(change, message, chunk_rows, labeled):
    """Compared with its bounds, a str or None raised a bare TypeError, and a complex lost its imaginary part."""
    flows = [dataclasses.replace(GOOD, seq_no=i) for i in range(5)]
    flows[3] = dataclasses.replace(flows[3], **change)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows), pytest.raises(ValueError) as caught:
        FlowDataset(flows, labeled=labeled)
    assert str(caught.value) == f"record 3: {message}"


def test_the_record_with_a_text_start_is_refused_at_that_field():
    record = FlowRecord("10.0.0.1", 80, "10.0.0.2", 2, 3, 100, "0.5", 1.0, 0, 0)
    with pytest.raises(ValueError, match=r"^record 0: field rel_start must be a number, got 0\.5$"):
        FlowDataset([record], labeled=True)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("other", [0.25, Decimal("0.25")], ids=["float", "decimal"])
def test_float_columns_still_take_ints_floats_bools_numpy_scalars_fractions_and_decimals(chunk_rows, other):
    """Each value beside a float, and beside a Decimal, which makes the chunk an object array."""
    values = [1, 0.5, True, np.float64(2.5), np.int8(3), np.uint64(4), np.bool_(True)]
    values += [np.longdouble(0.5), Fraction(1, 2), Decimal("1.5")]
    flows = [dataclasses.replace(GOOD, rel_start=other, duration=other, seq_no=0)]
    flows += [dataclasses.replace(GOOD, rel_start=v, duration=v, seq_no=i + 1) for i, v in enumerate(values)]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        dataset = FlowDataset(flows, labeled=True)
    expected = [0.25] + [float(v) for v in values]
    assert dataset.rel_start.tolist() == expected and dataset.duration.tolist() == expected


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize(
    "first, change, message",
    [
        (
            {"rel_start": Fraction(1, 4)},
            {"rel_start": np.float32(np.inf)},
            "field rel_start must be finite and non-negative, got inf",
        ),
        ({}, {"duration": Decimal("nan")}, "field duration must be finite and non-negative, got NaN"),
        (
            {"duration": Decimal(1)},
            {"duration": 2**1100},
            f"field duration must be finite and non-negative, got {2**1100}",
        ),
        ({"src_ip": "2001:db8::1"}, {"dst_ip": None}, "field dst_ip must be a string, got None"),
        ({"dst_ip": "2001:db8::1"}, {"src_ip": 167772161}, "field src_ip must be a string, got 167772161"),
    ],
    ids=[
        "float32-inf-beside-a-fraction",
        "nan-decimal",
        "int-beyond-float64-beside-a-decimal",
        "none-endpoint-after-ipv6",
        "int-endpoint-after-ipv6",
    ],
)
def test_an_object_float_column_compares_each_value_with_its_bounds_exactly(chunk_rows, first, change, message):
    """Beside a Fraction, numpy compared the float32 with float64's max cast to float32, which is inf, and took it;
    a NaN Decimal raised decimal.InvalidOperation when compared with a bound; an int beyond float64 must not raise
    OverflowError. None warns, and the chunk that holds the refused record appends nothing."""
    flows = [dataclasses.replace(GOOD, **first), dataclasses.replace(GOOD, **change, seq_no=1)]
    table = ingest._TableBuilder()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^record 1: {message}$"):
            FlowDataset(flows, labeled=True)
        with pytest.raises(ValueError, match=f"^record 1: {message}$"):
            table.add_rows(attrgetter(*FlowRecord.__slots__)(flow) for flow in flows)
    assert table.n_rows == (1 if chunk_rows == 1 else 0)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_integer_columns_still_take_numpy_integers_bools_and_integers_beyond_int64_within_bounds(chunk_rows):
    flows = [
        dataclasses.replace(GOOD, src_port=np.int64(80), bytes_total=np.uint64(2**63 - 1), label=True),
        dataclasses.replace(GOOD, packets_total=np.uint8(7), label=np.int8(0), seq_no=1),
    ]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        dataset = FlowDataset(flows, labeled=True)
    assert dataset.src_port.tolist() == [80, 1] and dataset.bytes_total.tolist() == [2**63 - 1, 100]
    assert dataset.packets_total.tolist() == [3, 7] and dataset.label.tolist() == [1, 0]


def test_a_refused_chunk_appends_nothing():
    table = ingest._TableBuilder()
    table.add_rows([attrgetter(*FlowRecord.__slots__)(GOOD)])
    with pytest.raises(ValueError, match="^record 1: field label"):
        table.add_rows([attrgetter(*FlowRecord.__slots__)(dataclasses.replace(GOOD, label=2))])
    assert table.n_rows == 1
    assert table.dataset(labeled=None, source_name="").flows == (GOOD,)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_a_non_ip_endpoint_is_kept_in_the_table_and_refused_by_the_writer(tmp_path, chunk_rows):
    flows = [GOOD, dataclasses.replace(GOOD, src_ip="host,a", seq_no=1), dataclasses.replace(GOOD, dst_ip="x")]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        dataset = FlowDataset(flows, labeled=True)
    assert dataset.flows == tuple(flows)
    path = tmp_path / "flows.csv"
    with pytest.raises(ValueError, match="^endpoint 'host,a' is not an IP address that a flow CSV cell holds$"):
        write_flow_csv(dataset, path)
    assert not path.exists()


def test_write_flow_csv_of_a_tshark_hostname_raises_before_writing(tmp_path):
    text = "TCP Conversations\n10.0.0.1:1000 <-> host-a.example:443 1 60 2 120 3 180 0.5 1.0\n"
    dataset = parse_tshark_conversations(io.StringIO(text))
    assert dataset.flows[0].dst_ip == "host-a.example"
    sink = io.StringIO()
    with pytest.raises(ValueError, match="^endpoint 'host-a.example' is not an IP address"):
        write_flow_csv(dataset, sink)
    assert sink.getvalue() == ""
    with pytest.raises(ValueError, match="'host-a.example'"):
        write_flow_csv(dataset, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scope", ["a,b", 'a"b', "a b", "a\rb", "a\nb", " ", "a\0"])
def test_an_ipv6_scope_id_that_no_cell_reads_back_is_refused(scope):
    """``ipaddress`` takes any scope id, but a cell drops edge spaces, splits on commas and quotes, or ends lines."""
    dataset = FlowDataset([dataclasses.replace(GOOD, src_ip=f"fe80::1%{scope}")], labeled=True)
    with pytest.raises(ValueError, match="is not an IP address that a flow CSV cell holds"):
        write_flow_csv(dataset, io.StringIO())


def test_a_table_slice_writes_though_its_shared_address_table_holds_a_hostname():
    flows = [dataclasses.replace(GOOD, dst_ip="host.example"), dataclasses.replace(GOOD, seq_no=1)]
    sink = io.StringIO()
    write_flow_csv(FlowDataset(flows, labeled=True)._take(slice(1, 2)), sink)
    assert parse_flow_csv(io.StringIO(sink.getvalue())).flows == (dataclasses.replace(GOOD, seq_no=0),)


# -- the round trip ------------------------------------------------------------------

ENDPOINTS = st.sampled_from(
    ["10.0.0.1", "0.0.0.0", "255.255.255.255", "2001:db8::1", "2001:DB8:0::1", "::ffff:1.2.3.4", "fe80::1%eth0"]
)
HOSTNAMES = st.sampled_from(["host-a.example", "host,one", 'say"hi"', "01.2.3.4"])
PORTS = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))
TIMES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]), st.floats(0, allow_infinity=False))


@st.composite
def records(draw, endpoints, top=MAX_SIZE):
    """Records whose counts are at most ``top``; a flow with packets has bytes."""
    packets = draw(st.one_of(st.none(), st.sampled_from([0, 1, top]), st.integers(0, top)))
    least = 1 if packets else 0
    return FlowRecord(
        draw(endpoints),
        draw(PORTS),
        draw(endpoints),
        draw(PORTS),
        packets,
        draw(st.one_of(st.sampled_from([least, top]), st.integers(least, top))),
        draw(TIMES),
        draw(TIMES),
        draw(st.sampled_from([None, 0, 1])),
        draw(st.integers(0, 10**6)),
    )


def record_tables(endpoints):
    flows = st.lists(records(endpoints), max_size=12)
    return st.builds(FlowDataset, flows, labeled=st.just(False))


def tshark_line(record):
    """A conversation line of the record: its packets (frames) and bytes split over both directions."""
    frames, size = record.packets_total or 0, record.bytes_total
    return (
        f"{record.src_ip}:{record.src_port} <-> {record.dst_ip}:{record.dst_port} "
        f"{frames // 2} {size // 2} {frames - frames // 2} {size - size // 2} {frames} {size} "
        f"{record.rel_start!r} {record.duration!r}\n"
    )


def tshark_tables(endpoints):
    # tshark endpoints are whitespace-free tokens; its counts are read through float, exact up to 2**53.
    texts = st.lists(records(endpoints, 2**53), max_size=8).map(lambda rows: "TCP Conversations\n" + "".join(map(tshark_line, rows)))
    return texts.map(lambda text: parse_tshark_conversations(io.StringIO(text)))


PATTERNS = st.one_of(
    st.builds(ConstantSize, st.sampled_from([1, 1500, MAX_SIZE])),
    st.integers(1, 10**6).flatmap(lambda lo: st.builds(UniformSize, st.just(lo), st.integers(lo, 10**6))),
)


@st.composite
def generated(draw):
    """``generate`` of a spec with up to one burst, which may sit anywhere in the flow stream."""
    n_normal = draw(st.integers(1, 40))
    bursts = st.builds(AttackBurst, st.integers(0, n_normal), st.integers(1, 10), PATTERNS)
    attacks = draw(st.lists(bursts, max_size=1).map(tuple))
    decades = draw(st.sampled_from([(1, 7), (14, 18)]))
    return generate(GeneratorSpec(draw(st.integers(0, 2**32)), n_normal, decades, attacks))


def endpoint_texts(dataset):
    """The src and dst endpoint strings of every flow."""
    return tuple([dataset.addresses[code] for code in codes.tolist()] for codes in (dataset.src_code, dataset.dst_code))


@settings(max_examples=300, deadline=None)
@given(
    dataset=st.one_of(
        record_tables(ENDPOINTS),
        record_tables(st.one_of(ENDPOINTS, HOSTNAMES)),
        tshark_tables(ENDPOINTS),
        tshark_tables(st.one_of(ENDPOINTS, HOSTNAMES)),
        generated(),
    ),
    chunk_rows=st.sampled_from([1, 3, 4096]),
)
def test_write_then_parse_gives_back_every_column_or_the_write_refuses_a_non_ip_endpoint(dataset, chunk_rows):
    sink = io.StringIO()
    ip_only = all(ingest._is_address(text) for text in set().union(*endpoint_texts(dataset)))
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        if not ip_only:
            with pytest.raises(ValueError, match="is not an IP address"):
                write_flow_csv(dataset, sink)
            assert sink.getvalue() == ""
            return
        write_flow_csv(dataset, sink)
        back = parse_flow_csv(io.StringIO(sink.getvalue()))
    for name in ingest._COLUMN_TYPES.keys() - {"seq_no", "src_code", "dst_code"}:
        got, want = getattr(back, name), getattr(dataset, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name  # bit for bit: -0.0 stays -0.0
    assert endpoint_texts(back) == endpoint_texts(dataset)
    assert back.labeled == bool((dataset.label >= 0).all())
