"""Differential and property tests of the columnar flow table.

The references below are the row-wise ingest code the columnar table
replaced: parsers that build one FlowRecord per row, and orderings that
sort the records with ``sorted()`` on per-flow key tuples. The columnar
code must reproduce them exactly: equal records and labeled flag, or the
same exception type, message and line.
"""

import csv
import dataclasses
import io
import ipaddress
import math
import socket
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowdigits import (
    AttackBurst,
    ConstantSize,
    DetectorConfig,
    FlowDataset,
    FormatError,
    GeneratorSpec,
    OrderingScheme,
    ParseError,
    WindowSpec,
    adapt_kdd,
    generate,
    order_flows,
    parse_flow_csv,
    parse_tshark_conversations,
    run_detector,
)
from flowdigits import detector, ingest, textblock
from flowdigits.cli import main
from flowdigits.ingest import CSV_COLUMNS, MAX_SIZE, FlowRecord, _open_text

# -- reference: the row-wise parsers ------------------------------------------------


def ref_int_field(text, name, line, lo=0, hi=None):
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"field {name} is not an integer: {text!r}", line) from None
    if value < lo:
        raise ParseError(f"field {name} must be >= {lo}, got {value}", line)
    if hi is not None and value > hi:
        raise ParseError(f"field {name} must be <= {hi}, got {value}", line)
    return value


def ref_float_field(text, name, line):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"field {name} is not a number: {text!r}", line) from None
    if not (value >= 0.0 and math.isfinite(value)):
        raise ParseError(f"field {name} must be finite and non-negative, got {value}", line)
    return value


def ref_address_field(text, name, line):
    try:
        ipaddress.ip_address(text)
    except ValueError:
        raise ParseError(f"field {name} is not an IP address: {text!r}", line) from None
    return text


def ref_parse_flow_csv(source):
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("missing header line") from None
        header = tuple(cell.strip() for cell in header)
        if header[: len(CSV_COLUMNS)] != CSV_COLUMNS or len(header) > len(CSV_COLUMNS) + 1:
            raise FormatError(f"unexpected header: {','.join(header)!r}")
        has_label = len(header) == len(CSV_COLUMNS) + 1
        if has_label and header[-1] != "label":
            raise FormatError(f"unexpected header: {','.join(header)!r}")

        flows = []
        while True:
            lineno = reader.line_num + 1  # the line the next row starts on
            row = next(reader, None)
            if row is None:
                break
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            src_ip = ref_address_field(row[0].strip(), "src_ip", lineno)
            src_port = ref_int_field(row[1], "src_port", lineno, 0, 65535)
            dst_ip = ref_address_field(row[2].strip(), "dst_ip", lineno)
            dst_port = ref_int_field(row[3], "dst_port", lineno, 0, 65535)
            packets = None if row[4].strip() == "" else ref_int_field(row[4], "packets_total", lineno, 0, MAX_SIZE)
            bytes_total = ref_int_field(row[5], "bytes_total", lineno, 0, MAX_SIZE)
            if packets is not None and packets >= 1 and bytes_total < 1:
                raise ParseError("flow with packets but zero bytes", lineno)
            rel_start = ref_float_field(row[6], "rel_start_s", lineno)
            duration = ref_float_field(row[7], "duration_s", lineno)
            label = None
            if has_label:
                cell = row[8].strip()
                label = int(cell) if cell in ("0", "1") else None
            flows.append(
                FlowRecord(
                    src_ip, src_port, dst_ip, dst_port, packets, bytes_total, rel_start, duration, label, len(flows)
                )
            )
    return tuple(flows), all(f.label is not None for f in flows)


_BYTE_SUFFIXES = {"bytes": 1, "kB": 1_000, "MB": 1_000_000, "GB": 1_000_000_000}


def ref_split_endpoint(token, line):
    addr, sep, port = token.rpartition(":")
    if not sep:
        raise ParseError(f"endpoint without port: {token!r}", line)
    addr = addr.strip("[]")
    try:
        value = int(port)
    except ValueError:
        raise ParseError(f"endpoint with non-numeric port: {token!r}", line) from None
    # The one deliberate difference from the row-wise parser, which accepted
    # any integer port: ports now share the flow CSV's range.
    if not 0 <= value <= 65535:
        raise ParseError(f"endpoint port out of range 0..65535: {token!r}", line)
    return addr, value


def ref_looks_numeric(token):
    try:
        float(token.replace(",", ""))
        return True
    except ValueError:
        return False


def ref_parse_tshark_conversations(source):
    flows = []
    saw_table = False
    with _open_text(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            text = line.rstrip("\r\n").strip()
            if not text:
                continue
            if "<->" not in text:
                if "Conversations" in text:
                    saw_table = True
                continue
            if not saw_table:
                raise FormatError("conversation line before any table header", lineno)
            tokens = text.split()
            if len(tokens) < 3 or tokens[1] != "<->":
                raise ParseError(f"unrecognized conversation line: {text!r}", lineno)
            src_ip, src_port = ref_split_endpoint(tokens[0], lineno)
            dst_ip, dst_port = ref_split_endpoint(tokens[2], lineno)
            tail = tokens[3:]
            counts = []
            i = 0
            while len(counts) < 6:
                if i >= len(tail):
                    raise ParseError("conversation line has too few numeric fields", lineno)
                token = tail[i]
                try:
                    value = float(token.replace(",", ""))
                except ValueError:
                    raise ParseError(f"unparseable numeric token {token!r}", lineno) from None
                if i + 1 < len(tail) and not ref_looks_numeric(tail[i + 1]):
                    suffix = tail[i + 1]
                    if suffix not in _BYTE_SUFFIXES:
                        raise ParseError(f"unknown unit suffix {suffix!r}", lineno)
                    value *= _BYTE_SUFFIXES[suffix]
                    i += 1
                if value < 0:
                    raise ParseError(f"negative count {token!r}", lineno)
                if not value <= MAX_SIZE:
                    raise ParseError(f"count {token!r} is not a finite number up to {MAX_SIZE}", lineno)
                counts.append(int(round(value)))
                i += 1
            # A second deliberate difference: a conversation with frames but
            # zero bytes is now rejected, as the flow CSV rejects such a flow.
            if counts[4] >= 1 and counts[5] < 1:
                raise ParseError("flow with packets but zero bytes", lineno)
            if len(tail) - i != 2:
                raise ParseError(f"expected relative start and duration, got {tail[i:]!r}", lineno)
            rel_start = ref_float_field(tail[i], "relative start", lineno)
            duration = ref_float_field(tail[i + 1], "duration", lineno)
            flows.append(
                FlowRecord(
                    src_ip, src_port, dst_ip, dst_port, counts[4], counts[5], rel_start, duration, None, len(flows)
                )
            )
    if not saw_table:
        raise FormatError("no conversations table found in input")
    return tuple(flows), False


def ref_adapt_kdd(source, max_flows=None):
    flows = []
    with _open_text(source) as stream:
        for lineno, row in enumerate(csv.reader(stream), start=1):
            if not row:
                continue
            if len(row) < 42:
                raise ParseError(f"expected at least 42 fields, got {len(row)}", lineno)
            if row[1].strip().lower() != "tcp":
                continue
            src_bytes = ref_int_field(row[4].strip(), "src_bytes", lineno)
            dst_bytes = ref_int_field(row[5].strip(), "dst_bytes", lineno)
            if src_bytes + dst_bytes > MAX_SIZE:
                raise ParseError(f"src_bytes + dst_bytes exceeds {MAX_SIZE}", lineno)
            cls = row[-1].strip().rstrip(".")
            seq = len(flows)
            label = 0 if cls == "normal" else 1
            flows.append(
                FlowRecord("0.0.0.0", 0, "0.0.0.0", 0, None, src_bytes + dst_bytes, float(seq), 0.0, label, seq)
            )
            if max_flows is not None and len(flows) >= max_flows:
                break
    return tuple(flows), True


# -- reference: sorted() over per-flow key tuples ------------------------------------


def ref_ip_sort_key(text):
    try:
        return ipaddress.ip_address(text).packed
    except ValueError:
        return b"\xff" + text.encode("utf-8", "surrogateescape")


REF_KEYS = {
    OrderingScheme.START_END: lambda f: (f.rel_start, f.rel_end, f.seq_no),
    OrderingScheme.END_START: lambda f: (f.rel_end, f.rel_start, f.seq_no),
    OrderingScheme.SRC_DST_START: lambda f: (
        ref_ip_sort_key(f.src_ip),
        ref_ip_sort_key(f.dst_ip),
        f.rel_start,
        f.seq_no,
    ),
    OrderingScheme.FIVE_TUPLE_START: lambda f: (
        ref_ip_sort_key(f.src_ip),
        f.src_port,
        ref_ip_sort_key(f.dst_ip),
        f.dst_port,
        f.rel_start,
        f.seq_no,
    ),
}


# -- helpers --------------------------------------------------------------------------


def outcome(parse, text, chunk_rows):
    """(flows, labeled) or (exception type, message, line) of parse(text) with the given chunk size."""
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        try:
            result = parse(io.StringIO(text))
        except ParseError as exc:
            return type(exc), str(exc), exc.line
    if isinstance(result, FlowDataset):
        return result.flows, result.labeled
    return result


def ref_outcome(parse, text):
    try:
        return parse(io.StringIO(text))
    except ParseError as exc:
        return type(exc), str(exc), exc.line


#: Valid and invalid endpoint strings, including equal packed forms under
#: different spellings, scoped and IPv4-mapped IPv6, and hostnames.
ADDRESSES = (
    "10.0.0.1",
    "10.0.0.2",
    "9.0.0.0",
    "1.2.3.4",
    "255.255.255.255",
    "0.0.0.0",
    "2001:db8::1",
    "2001:DB8:0::1",
    "fe80::1",
    "fe80::1%eth0",
    "::ffff:1.2.3.4",
    "::ffff:102:304",
    "::1",
    "host.example",
    "alpha",
    "ünïcode",
    "01.2.3.4",
    "256.1.1.1",
    "1.2.3",
    "1.2.3.4\n",
    "1.2.3.٤",
    " 1.2.3.4 ",
    "",
)
chunk_sizes = st.sampled_from([1, 2, 3, 4096])
numbers = st.one_of(
    st.integers(-3, 10**7).map(str),
    st.sampled_from(["", " ", "0", "x", "1.5", "1_000", " 42 ", "٣", str(MAX_SIZE), str(MAX_SIZE + 1), str(10**20)]),
)
times = st.one_of(
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["0", "-0.0", "-1", "inf", "nan", "1e308", "x", "", " 2.5 "]),
)


def row_fields(draw):
    """A draw(valid, bad) for one row: mostly valid, and for some texts each field bad at 1 in 4."""
    row_bad = draw(st.integers(0, 9)) < draw(st.sampled_from([0, 0, 1, 4]))
    return lambda valid, bad: draw(bad if row_bad and draw(st.integers(0, 3)) == 0 else valid)


@st.composite
def csv_texts(draw):
    has_label = draw(st.booleans())
    header = ",".join(CSV_COLUMNS + (("label",) if has_label else ()))
    if draw(st.integers(0, 20)) == 0:
        header = draw(st.sampled_from(["", "src,dst", header + ",extra"]))
    lines = [header]
    addresses, any_address = st.sampled_from(ADDRESSES[:13]), st.sampled_from(ADDRESSES)
    ports, starts = st.integers(0, 65535).map(str), st.floats(0, 1e6).map(repr)
    sizes = st.one_of(st.integers(1, 10**9).map(str), st.sampled_from("0123456789"))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        field = row_fields(draw)
        cells = [
            field(addresses, any_address),
            field(ports, st.one_of(numbers, st.just("65536"))),
            field(addresses, any_address),
            field(ports, numbers),
            field(st.sampled_from(["", "3", "1", "0"]), numbers),
            field(sizes, numbers),
            field(starts, times),
            field(starts, times),
        ]
        if has_label:
            cells.append(field(st.sampled_from(["0", "1"]), st.sampled_from(["", "2", " 1", "x"])))
        if draw(st.integers(0, 30)) == 0:
            cells = cells[: draw(st.integers(1, len(cells)))]
        lines.append(",".join(csv_cell(c) for c in cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def csv_cell(text):
    return f'"{text}"' if any(c in text for c in ',"\n') else text


@st.composite
def tshark_texts(draw):
    lines = []
    if draw(st.integers(0, 10)):
        lines += ["================", "TCP Conversations", "Filter:<No Filter>", "    |  <-  | |  ->  |"]
    endpoints = st.tuples(
        st.sampled_from(["10.0.0.1", "[2001:db8::1]", "[fe80::1%eth0]", "host.example", "[]"]),
        st.integers(0, 65535).map(str),
    ).map(":".join)
    bad_endpoints = st.sampled_from(["1.2.3.4", "1.2.3.4:x", "1.2.3.4:70000", "1.2.3.4:-1", "1.2.3.4:" + "9" * 20])
    counts = st.one_of(
        st.integers(0, 10**6).map(str), st.sampled_from(["1,234", "56 kB", "1 MB", "2,286 bytes", "3 GB"])
    )
    bad_counts = st.sampled_from(["12 XB", "-5", "1e30", "inf", "nan", "x", "5 x"])
    valid_times = st.floats(0, 1e6).map(repr)
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "====", "garbage line"])))
            continue
        field = row_fields(draw)
        tokens = [field(endpoints, bad_endpoints), field(st.just("<->"), st.just("->"))]
        tokens.append(field(endpoints, bad_endpoints))
        tokens += [field(counts, bad_counts) for _ in range(field(st.just(6), st.integers(4, 7)))]
        tokens += [field(valid_times, times) or "0" for _ in range(field(st.just(2), st.integers(1, 3)))]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@st.composite
def kdd_texts(draw):
    lines = []
    sizes = st.integers(0, 10**6).map(str)
    bad_sizes = st.one_of(numbers, st.just(str(2**62)))
    huge = st.sampled_from([str(2**62), str(2**62 + 1), str(MAX_SIZE - 1), str(MAX_SIZE)])
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        field = row_fields(draw)
        protocol = draw(st.sampled_from(["tcp", "tcp", " TCP ", "udp", "icmp"]))
        cls = draw(st.sampled_from(["normal.", "normal", " normal. ", "neptune.", "back", "normal.."]))
        if draw(st.integers(0, 9)) == 0:  # byte counts whose sum may pass 2^63 - 1
            src, dst = draw(huge), draw(st.one_of(huge, sizes))
        else:
            src, dst = field(sizes, bad_sizes), field(sizes, bad_sizes)
        fields = ["0", protocol, "http", "SF", src, dst] + ["0"] * 35 + [cls]
        lines.append(",".join(fields[: field(st.just(42), st.integers(5, 43))]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# -- parser properties ----------------------------------------------------------------

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(text=csv_texts(), chunk_rows=chunk_sizes)
def test_parse_flow_csv_matches_rowwise_reference(text, chunk_rows):
    assert outcome(parse_flow_csv, text, chunk_rows) == ref_outcome(ref_parse_flow_csv, text)


@FUZZ
@given(text=tshark_texts(), chunk_rows=chunk_sizes)
def test_parse_tshark_matches_rowwise_reference(text, chunk_rows):
    assert outcome(parse_tshark_conversations, text, chunk_rows) == ref_outcome(ref_parse_tshark_conversations, text)


@FUZZ
@given(text=kdd_texts(), chunk_rows=chunk_sizes, max_flows=st.sampled_from([None, 1, 2, 5]))
def test_adapt_kdd_matches_rowwise_reference(text, chunk_rows, max_flows):
    got = outcome(lambda source: adapt_kdd(source, max_flows=max_flows), text, chunk_rows)
    assert got == ref_outcome(lambda source: ref_adapt_kdd(source, max_flows=max_flows), text)


def flow_csv_line(i, has_label):
    """A valid flow CSV row, varied by i: IPv4 and IPv6 endpoints, some without a packet count."""
    cells = [
        f"10.{i % 3}.{i % 7}.{i % 5}",
        str(1000 + i % 3),
        f"2001:db8::{i % 4:x}" if i % 2 else f"192.168.{i % 11}.1",
        "80",
        "" if i % 13 == 0 else str(1 + i % 9),
        str(100 + 37 * i % 1000),
        repr(i * 0.5),
        "1.0",
    ]
    return ",".join(cells + [str(int(i % 10 < 3))] * has_label)


#: Rows that csv.reader does not read as one line split on every comma, or that fail a check; label cell added.
IRREGULAR_CSV_ROWS = {
    "quoted": '"10.0.0.1",1,"10.0.0.2",2,3,40,0.5,1.0',
    "quoted-multi-line": '10.0.0.1,1,10.0.0.2,2,3,40,0.5,"1.0\n"',
    "blank": None,
    "over-long": " " * 70_000 + "10.0.0.1,1,10.0.0.2" + " " * 70_000 + ",2,3,40,0.5,1.0",
    "over-limit-cell": " " * 140_000 + "10.0.0.1,1,10.0.0.2,2,3,40,0.5,1.0",
    "short": "10.0.0.1,1",
    "zero-bytes": "10.0.0.1,1,10.0.0.2,2,1,0,0.5,1.0",
    "bom": "\ufeff10.0.0.1,1,10.0.0.2,2,3,40,0.5,1.0",
    "nul": "10.0.0.1,1,10.0.0.2,2,3,40,0.5\0,1.0",
}


@FUZZ
@given(
    n=st.integers(0, 12),
    first=st.integers(0, 100),
    has_label=st.booleans(),
    kind=st.sampled_from(sorted(IRREGULAR_CSV_ROWS)),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    bom=st.booleans(),
    source=st.sampled_from([io.StringIO, bytes, io.BytesIO]),
    chunk_rows=st.integers(1, 4),
    data=st.data(),
)
def test_parse_flow_csv_plain_blocks_before_an_irregular_line_match_rowwise_reference(
    n, first, has_label, kind, newline, final_newline, bom, source, chunk_rows, data
):
    lines = [",".join(CSV_COLUMNS + ("label",) * has_label)]
    lines += [flow_csv_line(first + i, has_label) for i in range(n)]
    irregular = IRREGULAR_CSV_ROWS[kind]
    irregular = "" if irregular is None else irregular + ",1" * has_label
    lines.insert(data.draw(st.integers(1, len(lines)), label="at"), irregular)
    text = "\ufeff" * bom + newline.join(lines) + newline * final_newline

    def make():
        return io.StringIO(text) if source is io.StringIO else source(text.encode())

    def run(parse):
        try:
            result = parse(make())
        except ParseError as exc:
            return type(exc), str(exc), exc.line
        except csv.Error as exc:  # the reference lets it escape; it is a ParseError on the reader's line
            with _open_text(make()) as stream:
                reader = csv.reader(stream)
                with pytest.raises(csv.Error):
                    list(reader)
            return ParseError, f"line {reader.line_num}: {exc}", reader.line_num
        return (result.flows, result.labeled) if isinstance(result, FlowDataset) else result

    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        got = run(parse_flow_csv)
    assert got == run(ref_parse_flow_csv)


def test_quoted_header_then_plain_blocks_are_read_column_wise(tmp_path):
    header = ",".join(f'"{name}"' for name in CSV_COLUMNS + ("label",))
    lines = [flow_csv_line(i, True) for i in range(2 * ingest._CHUNK_ROWS + 100)]
    path = tmp_path / "flows.csv"
    path.write_text(header + "\n" + "\n".join(lines) + "\n")
    with mock.patch.object(ingest, "_csv_rows", refuse_rows):
        dataset = parse_flow_csv(path)
    assert (dataset.flows, dataset.labeled) == ref_parse_flow_csv(path)


# -- the flow CSV's tokenizer path --------------------------------------------------

#: Cells where numpy's tokenizer and int() or float() could read a cell apart.
INT_EDGES = ["\x1c15", "1_0", "+5", " 5 ", "05", "-0", "1.0", "1e3", "0x1", "٣", " ", "-1", "9" * 20]
TIME_EDGES = ["-0.0", "nan", "inf", "-inf", "infinity", "1e400", "1_0.5", " 1.5 ", "+.5", "5.", "0x1p3", "\x1c1.5", ""]
ADDRESS_EDGES = [
    "01.2.3.4",
    " 1.2.3.4",
    "1.2.3.256",
    "255.255.255.2550",
    "255.255.255.255 ",
    "1.2.3.4" + " " * 12,
    "1.2.3.4\x1c",
    "2001:db8::1",
    "host",
    "",
]
#: (canonical, edge) cells of each flow CSV column, label last.
TOKENIZER_CELLS = (
    (["10.0.0.1", "255.255.255.255", "0.0.0.0", "9.10.99.100"], ADDRESS_EDGES),
    (["0", "80", "65535", "1024"], INT_EDGES + ["65536"]),
    (["192.168.1.1", "10.0.0.1", "1.2.3.4"], ADDRESS_EDGES),
    (["0", "443", "65535"], INT_EDGES + ["65536"]),
    (["0", "1", "3", "1200"], INT_EDGES + ["", str(MAX_SIZE + 1)]),
    (["1", "40", "1500", str(MAX_SIZE)], INT_EDGES + ["0", str(MAX_SIZE + 1)]),
    (["0.0", "0.5", "2.5e-05", "1e+300", "12.75"], TIME_EDGES),
    (["0.0", "0.23631726388231478", "1.0"], TIME_EDGES),
    (["0", "1"], ["", " 1", "1 ", "+1", "01", "x", "2", "10", "\x1c1"]),
)


def tokenizer_lines(draw, n, has_label, edges):
    """n flow CSV lines of canonical cells, with ``edges`` cells drawn from the edge pools."""
    pools = TOKENIZER_CELLS[: len(CSV_COLUMNS) + has_label]
    rows = [[draw(st.sampled_from(canonical)) for canonical, _ in pools] for _ in range(n)]
    for _ in range(edges):
        row, column = draw(st.integers(0, n - 1)), draw(st.integers(0, len(pools) - 1))
        rows[row][column] = draw(st.sampled_from(pools[column][1]))
    return [",".join(row) for row in rows]


def same_parse(text, chunk_rows):
    """parse_flow_csv(text) gives the reference's flows, labeled flag or error, and the bits of its times."""
    got = outcome(parse_flow_csv, text, chunk_rows)
    expected = ref_outcome(ref_parse_flow_csv, text)
    assert got == expected
    if isinstance(got[0], tuple) and got[0]:
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            dataset = parse_flow_csv(io.StringIO(text))
        for name in ("rel_start", "duration"):
            assert getattr(dataset, name).tobytes() == np.array([getattr(f, name) for f in expected[0]]).tobytes()


@FUZZ
@given(
    n=st.integers(1, 12),
    has_label=st.booleans(),
    edges=st.sampled_from([0, 0, 1, 1, 2, 3]),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    chunk_rows=st.sampled_from([1, 2, 3, 4, 1024]),
    data=st.data(),
)
def test_flow_csv_tokenizer_path_matches_rowwise_reference(
    n, has_label, edges, newline, final_newline, chunk_rows, data
):
    lines = [",".join(CSV_COLUMNS + ("label",) * has_label)] + tokenizer_lines(data.draw, n, has_label, edges)
    same_parse(newline.join(lines) + newline * final_newline, chunk_rows)


@pytest.mark.parametrize(
    "column, cell",
    [
        ("src_port", "\x1c15"),
        ("dst_port", "1_0"),
        ("src_port", "+5"),
        ("packets_total", " 5 "),
        ("bytes_total", "05"),
        ("dst_port", "1.0"),
        ("bytes_total", "1.0"),
        ("rel_start_s", "-0.0"),
        ("duration_s", "-0.0"),
        ("rel_start_s", "nan"),
        ("duration_s", "inf"),
        ("src_ip", "1.2.3.4" + " " * 12),
        ("dst_ip", "255.255.255.2550"),
        ("src_ip", "255.255.255.255 "),
        ("label", " 1"),
        ("label", "+1"),
        ("label", "01"),
        ("label", ""),
        ("packets_total", ""),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 4, 1024])
def test_flow_csv_tokenizer_edge_cell_parses_as_the_reference_does(column, cell, chunk_rows):
    header = CSV_COLUMNS + ("label",)
    rows = [f"10.0.{i}.1,{1000 + i},192.168.0.1,80,3,{100 + i},{i / 2!r},1.0,1".split(",") for i in range(6)]
    rows[3][header.index(column)] = cell
    same_parse("\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n", chunk_rows)


def generated_csv(newline="\n", final_newline=True):
    sink = io.StringIO()
    ingest.write_flow_csv(generate(GeneratorSpec(seed=5, n_normal=2500, attacks=BURSTS)), sink)
    text = sink.getvalue().replace("\n", newline)
    return text if final_newline else text.removesuffix(newline)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_parse_flow_csv_reads_a_generated_file_through_the_tokenizer(tmp_path, newline, final_newline):
    path = tmp_path / "flows.csv"
    path.write_bytes(generated_csv(newline, final_newline).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(ingest, "_csv_columns", refuse_rows):
            dataset = parse_flow_csv(path)
    assert (dataset.flows, dataset.labeled) == ref_parse_flow_csv(path)


FLOW_LINE = "10.0.0.1,5000,10.0.0.2,80,12,3400,1.5,0.2,0"


@pytest.mark.parametrize(
    "text, tokenized",
    [
        (",".join(CSV_COLUMNS) + ",label\n", True),
        (",".join(CSV_COLUMNS) + ",label", True),
        (",".join(CSV_COLUMNS) + ",label\n" + FLOW_LINE + "\n", True),
        (",".join(CSV_COLUMNS) + ",label\n" + FLOW_LINE, True),
        (",".join(CSV_COLUMNS) + ",label\r\n" + FLOW_LINE + "\r\n", True),
        (",".join(CSV_COLUMNS) + ",label\n\n" + FLOW_LINE + "\n", False),
        (",".join(CSV_COLUMNS) + ",label\n" + FLOW_LINE + "\n\n", False),
        (",".join(CSV_COLUMNS) + ",label\n" + FLOW_LINE + "\n\n" + FLOW_LINE + "\n", False),
    ],
    ids=["header", "header-no-lf", "one-row", "one-row-no-lf", "crlf", "blank-first", "blank-last", "blank-between"],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 1024])
def test_parse_flow_csv_lets_no_warning_out(text, tokenized, chunk_rows):
    """No tokenizer warning escapes, and a file without a blank line is read by the tokenizer alone."""
    columns = refuse_rows if tokenized else ingest._csv_columns
    with warnings.catch_warnings(), mock.patch.object(ingest, "_csv_columns", columns):
        warnings.simplefilter("error")
        got = outcome(parse_flow_csv, text, chunk_rows)
    assert got == ref_outcome(ref_parse_flow_csv, text)


#: Lines that the tokenizer refuses or skips, each given its label cell when the file has a label column.
ROUTING_LINES = {
    "blank": "",
    "spaces": "  ",
    "tab": "\t",
    "ipv6": "2001:db8::1,1000,10.0.0.2,80,3,100,0.5,1.0",
    "no-packets": "10.0.0.1,1000,10.0.0.2,80,,100,0.5,1.0",
    "padded": " 10.0.0.1 ,1000,10.0.0.2 , 80 ,3,100, 0.5,1.0 ",
    "bad-port": "10.0.0.1,70000,10.0.0.2,80,3,100,0.5,1.0",
    "short": "10.0.0.1,1000,10.0.0.2,80,3,100,0.5",
    "long": "10.0.0.1,1000,10.0.0.2,80,3,100,0.5,1.0,1,1",
}


def bytes_of(parse):
    """``parse`` of a text stream's value as UTF-8 bytes, whose lines end at LF, CRLF or CR."""
    return lambda stream: parse(stream.getvalue().encode())


@FUZZ
@given(
    n=st.integers(0, 12),
    has_label=st.booleans(),
    kinds=st.lists(st.sampled_from(sorted(ROUTING_LINES)), max_size=4),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    chunk_rows=st.sampled_from([1, 2, 3, 4, 1024]),
    data=st.data(),
)
def test_flow_csv_blocks_the_tokenizer_refuses_match_rowwise_reference(
    n, has_label, kinds, newline, final_newline, chunk_rows, data
):
    """Canonical rows mixed with blank and space lines, IPv6, blank packet counts, padded cells, bad and odd rows."""
    lines = tokenizer_lines(data.draw, n, has_label, 0) if n else []
    for kind in kinds:
        line = ROUTING_LINES[kind] + (",1" if has_label and ROUTING_LINES[kind].strip() else "")
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), line)
    text = newline.join([",".join(CSV_COLUMNS + ("label",) * has_label)] + lines) + newline * final_newline
    if newline != "\r":  # a text stream splits lines at LF only
        same_parse(text, chunk_rows)
    assert outcome(bytes_of(parse_flow_csv), text, chunk_rows) == ref_outcome(bytes_of(ref_parse_flow_csv), text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1024])
def test_a_canonical_file_with_blank_lines_is_read_by_the_tokenizer_alone(newline, chunk_rows):
    """``np.loadtxt`` skips an empty line, as the row reader does, so blank lines keep a block on the tokenizer."""
    header, *lines = generated_csv().splitlines()
    rows = len(lines)
    for at in (len(lines), 1500, 1024, 1023, 7, 1, 0):
        lines[at:at] = [""] * (1 + at % 3)
    text = newline.join([header, *lines]) + newline
    with (
        mock.patch.object(ingest, "_csv_columns", refuse_rows),
        mock.patch.object(ingest, "_csv_rows", refuse_rows),
    ):
        got = outcome(bytes_of(parse_flow_csv), text, chunk_rows)
    assert got == ref_outcome(bytes_of(ref_parse_flow_csv), text)
    assert len(got[0]) == rows


def numpy1_loadtxt(source, *args, **kwargs):
    """``np.loadtxt`` as numpy 1.x has it: a float cell in an int column is read, with a DeprecationWarning."""
    text = source.read()
    rows = REAL_LOADTXT(io.StringIO(text.replace(",1.0,", ",1,")), *args, **kwargs)
    if ",1.0," in text:
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
    return rows


def warning_loadtxt(source, *args, **kwargs):
    """``np.loadtxt`` that warns, and returns ports that are off by one."""
    rows = REAL_LOADTXT(source, *args, **kwargs)
    rows["src_port"] += 1
    warnings.warn("a tokenizer warning", UserWarning, stacklevel=2)
    return rows


REAL_LOADTXT = np.loadtxt


@pytest.mark.parametrize("tokenizer", [numpy1_loadtxt, warning_loadtxt])
@pytest.mark.parametrize("caller_filter", ["ignore", "default", "error"])
def test_a_block_the_tokenizer_reads_with_a_warning_is_read_column_wise(tokenizer, caller_filter):
    ports = ["80"] * 5 + ["1.0"] + ["80"] * 3
    lines = [f"10.0.{i}.1,{1000 + i},192.168.0.{i},{port},3,{100 + i},{i * 0.5},2.0,1" for i, port in enumerate(ports)]
    text = ",".join(CSV_COLUMNS) + ",label\n" + "\n".join(lines) + "\n"
    for case in (text, text.replace(",1.0,", ",80,")):
        with warnings.catch_warnings():
            warnings.simplefilter(caller_filter)
            with mock.patch.object(np, "loadtxt", tokenizer):
                got = outcome(parse_flow_csv, case, 4)
        assert got == ref_outcome(ref_parse_flow_csv, case)


#: (valid, invalid) spellings of each flow CSV field, label last.
CSV_CELL_POOLS = (
    (["1.2.3.4", "2001:db8::1", " 10.0.0.1 "], ["01.2.3.4", "host", ""]),
    (["0", "65535", "1_0", "٣"], ["65536", "-1", "9" * 25]),
    (["1.2.3.4", "2001:db8::1", " 10.0.0.1 "], ["01.2.3.4", "host", ""]),
    (["0", "65535", "1_0", "٣"], ["65536", "-1", "9" * 25]),
    (["", " ", "0", "3"], ["-1", "x"]),
    (["0", "5", str(MAX_SIZE)], [str(MAX_SIZE + 1)]),
    (["0", "-0.0", "2.5"], ["1e400", "nan", "-1"]),
    (["0", "-0.0", "2.5"], ["1e400", "nan", "-1"]),
    (["0", "1", "", "x"], []),
)


@settings(max_examples=1000, deadline=None)
@given(has_label=st.booleans(), data=st.data())
def test_csv_columns_add_a_block_or_raise_the_row_checkers_first_error(has_label, data):
    pools = CSV_CELL_POOLS[: len(CSV_COLUMNS) + has_label]
    rows = data.draw(st.lists(st.tuples(*(st.sampled_from(valid) for valid, _ in pools)), min_size=1, max_size=6))
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 1, 2, 3]), label="bad cells")):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.sampled_from(range(len(CSV_COLUMNS))))
        rows[i][j] = data.draw(st.sampled_from(pools[j][1]))
    lines = range(7, 7 + len(rows))
    expected = None
    for row, line in zip(rows, lines):
        try:
            assert ingest._check_csv_row(row, line) is None
        except ParseError as exc:
            expected = str(exc)
            break
    table = ingest._TableBuilder()
    try:
        ingest._csv_columns(table, has_label, list(zip(*rows)), lines)
    except ParseError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert table.columns()[0]["bytes_total"].tolist() == [int(row[5]) for row in rows]


def test_a_line_holding_a_line_feed_is_read_by_csv_reader():
    """A caller's text stream split on CR alone can hand over a line with an LF in it, which csv.reader refuses."""
    rows = [f"10.0.0.{i},1,10.0.0.9,2,3,{size},0.5,1.0" for i, size in enumerate([400, 500, 600])]
    text = ",".join(CSV_COLUMNS) + "\r" + rows[0] + "\n" + rows[1] + "\r" + rows[2] + "\r"
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), newline="\r")
    with pytest.raises(ParseError, match="^line 2: new-line character seen in unquoted field"):
        parse_flow_csv(stream)


def test_tshark_port_outside_0_to_65535_is_a_parse_error():
    text = "TCP Conversations\n1.2.3.4:70000 <-> 5.6.7.8:80 1 60 1 60 2 120 0.0 1.0\n"
    with pytest.raises(ParseError, match="line 2: endpoint port out of range 0..65535: '1.2.3.4:70000'"):
        parse_tshark_conversations(io.StringIO(text))


@pytest.mark.parametrize(
    "ports, message",
    [
        ((70000, -1), "record 3: field src_port must be in 0..65535, got 70000"),
        ((80, -1), "record 3: field dst_port must be in 0..65535, got -1"),
        ((80, 65536), "record 3: field dst_port must be in 0..65535, got 65536"),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_flow_records_with_a_port_outside_0_to_65535_are_refused(ports, message, chunk_rows):
    good = FlowRecord("10.0.0.1", 1, "10.0.0.2", 2, 3, 100, 0.0, 1.0, 0, 0)
    flows = [good] * 3 + [dataclasses.replace(good, src_port=ports[0], dst_port=ports[1])]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows), pytest.raises(ValueError, match=f"^{message}$"):
        FlowDataset(flows, labeled=True)


def test_ports_0_and_65535_round_trip_through_the_flow_csv():
    flows = [
        FlowRecord("10.0.0.1", 0, "10.0.0.2", 65535, 3, 100, 0.0, 1.0, 0, 0),
        FlowRecord("10.0.0.2", 65535, "10.0.0.1", 0, 2, 50, 0.5, 1.0, 1, 1),
    ]
    sink = io.StringIO()
    ingest.write_flow_csv(FlowDataset(flows, labeled=True), sink)
    assert parse_flow_csv(io.StringIO(sink.getvalue())).flows == tuple(flows)


def test_bad_row_in_an_earlier_chunk_position_wins_over_a_later_bad_line():
    good = "10.0.0.1,1,10.0.0.2,2,1,10,0,0\n"
    text = ",".join(CSV_COLUMNS) + "\n" + good + "10.0.0.1,1,10.0.0.2,2,1,-1,0,0\n" + good + "short,row\n"
    with pytest.raises(ParseError, match="line 3: field bytes_total must be >= 0, got -1"):
        parse_flow_csv(io.StringIO(text))


FLOW_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
ONE_LINE_ROW = "1.2.3.4,1,5.6.7.8,2,3,100,0.0,1.0\n"
TWO_LINE_ROW = '1.2.3.4,1,5.6.7.8,2,3,100,0.0,"1.0\n"\n'
BAD_PORT_ROW = "1.2.3.4,1,5.6.7.8,70000,3,100,0.0,1.0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(FLOW_CSV_HEADER + TWO_LINE_ROW + BAD_PORT_ROW, "field dst_port must be <= 65535, got 70000", id="row"),
        pytest.param(
            FLOW_CSV_HEADER.replace("duration_s\n", '"duration_s\n"\n') + ONE_LINE_ROW + BAD_PORT_ROW,
            "field dst_port must be <= 65535, got 70000",
            id="header",
        ),
        pytest.param(FLOW_CSV_HEADER + TWO_LINE_ROW + "1.2.3.4,1,5.6.7.8\n", "expected 8 fields, got 3", id="width"),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_flow_csv_error_after_a_two_line_row_or_header_names_the_line_its_row_starts_on(text, message, chunk_rows):
    assert outcome(parse_flow_csv, text, chunk_rows) == (ParseError, f"line 4: {message}", 4)


def kdd_line(service="http", src_bytes="10", cls="normal.", protocol="tcp"):
    return ",".join(["0", protocol, service, "SF", src_bytes, "20"] + ["0"] * 35 + [cls])


KDD_LINES = [kdd_line(), kdd_line(cls="neptune."), kdd_line(src_bytes="7")]


@pytest.mark.parametrize(
    "lines, pinned",
    [
        pytest.param([kdd_line(service='"http,x"'), *KDD_LINES], None, id="quoted-service"),
        pytest.param([kdd_line(service='"a ""b"""'), *KDD_LINES], None, id="escaped-quote"),
        pytest.param([*KDD_LINES, kdd_line(src_bytes='"15"')], None, id="quoted-bytes"),
        pytest.param([kdd_line(src_bytes='" 15 "'), kdd_line(src_bytes='"1,5"')], None, id="quoted-bad-bytes"),
        # csv.reader before Python 3.11 refuses NUL; these unquoted lines are split on commas on every version.
        pytest.param(
            [kdd_line(cls="normal.\0"), kdd_line(cls="nor\0mal."), *KDD_LINES],
            ([30, 30, 30, 30, 27], [1, 1, 0, 1, 0]),
            id="nul-in-class",
        ),
    ],
)
@pytest.mark.parametrize("chunk_rows", [1, 4096])
def test_adapt_kdd_reads_quoted_and_nul_lines_like_the_csv_reader(lines, pinned, chunk_rows):
    text = "\n".join(lines) + "\n"
    got = outcome(adapt_kdd, text, chunk_rows)
    if pinned is None:
        assert got == ref_outcome(ref_adapt_kdd, text)
    else:
        flows, labeled = got
        assert ([flow.bytes_total for flow in flows], [flow.label for flow in flows], labeled) == (*pinned, True)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_adapt_kdd_reads_crlf_and_cr_only_lines_from_a_path(tmp_path, newline):
    path = tmp_path / "kddcup.data"
    path.write_bytes(newline.join([*KDD_LINES, "", kdd_line(src_bytes='"5"'), ""]).encode())
    dataset = adapt_kdd(path)
    assert (dataset.flows, dataset.labeled) == ref_adapt_kdd(path)
    assert dataset.bytes_total.tolist() == [30, 30, 27, 25]


@pytest.mark.parametrize(
    "cells, message",
    [
        ({"src_bytes": "9" * 200_000}, "line 2: field src_bytes is not an integer: '999"),
        ({"service": '"' + "x" * 200_000 + '"'}, "line 2: field larger than field limit (131072)"),
    ],
    ids=["unquoted-bytes", "quoted-service"],
)
def test_adapt_kdd_overlong_cell_is_a_parse_error_naming_its_line(cells, message):
    text = kdd_line() + "\n" + kdd_line(**cells) + "\n"
    with pytest.raises(ParseError) as info:
        adapt_kdd(io.StringIO(text))
    assert info.value.line == 2 and str(info.value).startswith(message) and len(str(info.value)) < 300


well_formed_kdd_lines = st.builds(
    kdd_line,
    protocol=st.sampled_from(["tcp", "tcp", "tcp", "udp", "icmp"]),
    src_bytes=st.integers(0, 10**6).map(str),
    cls=st.sampled_from(["normal.", "neptune.", "back."]),
)

#: Lines unlike the well-formed ones, which a block must still read as the row-wise reference does; dst_bytes is 20.
IRREGULAR_KDD_LINES = (
    kdd_line(service='"ht,tp"'),
    kdd_line(service='"ht\rtp"'),
    kdd_line() + "\r",
    kdd_line(protocol=" TCP "),
    kdd_line(cls="normal.."),
    kdd_line(cls=" normal. "),
    kdd_line(src_bytes="1_000"),
    kdd_line(src_bytes=" 15 "),
    kdd_line(src_bytes="٣"),
    kdd_line(src_bytes="\x1c15"),
    kdd_line(src_bytes=str(MAX_SIZE - 20)),
    kdd_line(src_bytes=str(MAX_SIZE - 19)),
    kdd_line(src_bytes="-1"),
    ",".join(kdd_line().split(",")[:41]),
    "",
)


@FUZZ
@given(
    lines=st.lists(well_formed_kdd_lines, max_size=20),
    irregular=st.sampled_from(IRREGULAR_KDD_LINES),
    data=st.data(),
    chunk_rows=st.integers(2, 7),
)
def test_adapt_kdd_blocks_with_one_irregular_line_match_rowwise_reference(lines, irregular, data, chunk_rows):
    lines.insert(data.draw(st.integers(0, len(lines)), label="at"), irregular)
    max_flows = data.draw(st.sampled_from([None, 1, data.draw(st.integers(1, len(lines)), label="k")]))
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
    got = outcome(lambda source: adapt_kdd(source, max_flows=max_flows), text, chunk_rows)
    assert got == ref_outcome(lambda source: ref_adapt_kdd(source, max_flows=max_flows), text)


@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
def test_adapt_kdd_unquoted_lone_cr_is_a_parse_error_naming_its_line(chunk_rows):
    # A text stream split on LF alone leaves the CR in the line; csv.reader refuses it unquoted.
    text = "\n".join([*KDD_LINES, kdd_line(service="ht\rtp"), *KDD_LINES]) + "\n"
    kind, message, line = outcome(adapt_kdd, text, chunk_rows)
    assert (kind, line) == (ParseError, 4) and message.startswith("line 4: new-line character seen in unquoted field")


def refuse_rows(*args, **kwargs):
    raise AssertionError("a line was read row by row")


@pytest.mark.parametrize("max_flows", [None, 1, 700, 1199, 5000])
def test_adapt_kdd_reads_a_plain_file_column_wise(tmp_path, max_flows):
    protocols, classes = ("tcp", "tcp", "tcp", "udp"), ("normal.", "smurf.")
    lines = [
        kdd_line(protocol=protocols[i % 4], src_bytes=str(37 * i % 1000), cls=classes[i % 3 == 0]) for i in range(1600)
    ]
    path = tmp_path / "kddcup.data"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(ingest, "_kdd_size", refuse_rows):
        dataset = adapt_kdd(path, max_flows=max_flows)
    assert (dataset.flows, dataset.labeled) == ref_adapt_kdd(path, max_flows=max_flows)
    assert len(dataset) == min(1200, max_flows or 1200)


def test_adapt_kdd_reads_a_crlf_file_column_wise(tmp_path):
    lines = [kdd_line(src_bytes=str(37 * i % 1000), cls=("normal.", "smurf.")[i % 3 == 0]) for i in range(1500)]
    (tmp_path / "lf.data").write_bytes(("\n".join(lines) + "\n").encode())
    (tmp_path / "crlf.data").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with mock.patch.object(ingest, "_kdd_row", refuse_rows):
        crlf = adapt_kdd(tmp_path / "crlf.data")
    lf = adapt_kdd(tmp_path / "lf.data")
    for name in ingest._COLUMN_TYPES:
        assert np.array_equal(getattr(crlf, name), getattr(lf, name)), name


class LineCountingStringIO(io.StringIO):
    """A text stream that counts the lines read from it."""

    lines = 0

    def __next__(self):
        line = super().__next__()
        self.lines += 1
        return line


def ref_kdd_outcome(stream, max_flows):
    """ref_adapt_kdd's outcome; a csv.Error is a ParseError at the line it was read on (no record spans lines)."""
    try:
        return ref_adapt_kdd(stream, max_flows=max_flows)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    except csv.Error as exc:
        return ParseError, f"line {stream.lines}: {exc}", stream.lines


#: Valid lines unlike the well-formed ones: blank, quoted (commas, escapes, a class with a comma) and padded counts.
ODD_KDD_LINES = st.sampled_from(
    [
        "",
        kdd_line(service='"ht,tp"'),
        kdd_line(service='"a ""b"""'),
        kdd_line(src_bytes='"15"'),
        kdd_line(src_bytes='" 15 "'),
        kdd_line(src_bytes="\x1c15"),
        kdd_line(src_bytes="15\x1c"),
        kdd_line(src_bytes=" 15 "),
        kdd_line(protocol='" TCP "'),
        kdd_line(protocol='"udp"'),
        kdd_line(cls='"normal."'),
        kdd_line(cls='"x,normal."'),
        kdd_line(cls='"normal.,"'),
        kdd_line(cls='" normal. "'),
        kdd_line(service='"x"', cls='"neptune."'),
    ]
)
BAD_KDD_LINES = st.sampled_from(
    [
        kdd_line(src_bytes='"1,5"'),
        kdd_line(src_bytes="-1"),
        kdd_line(src_bytes="x"),
        kdd_line(src_bytes=str(MAX_SIZE)),
        ",".join(kdd_line().split(",")[:41]),
        ",".join(kdd_line(service='"a,b"').split(",")[:41]),
        "0,tcp,http",
        "   ",
    ]
)


@FUZZ
@given(
    kinds=st.lists(st.sampled_from(["well-formed", "odd", "odd", "odd", "bad"]), max_size=16),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    as_bytes=st.booleans(),
    chunk_rows=st.integers(1, 4),
    data=st.data(),
)
def test_adapt_kdd_blocks_with_several_odd_lines_match_rowwise_reference(kinds, newline, as_bytes, chunk_rows, data):
    kind_lines = {"well-formed": well_formed_kdd_lines, "odd": ODD_KDD_LINES, "bad": BAD_KDD_LINES}
    lines = [data.draw(kind_lines[kind], label=kind) for kind in kinds]
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline]), label="end")
    max_flows = data.draw(st.one_of(st.none(), st.integers(1, len(lines) + 1)), label="max_flows")
    source = text.encode() if as_bytes else io.StringIO(text)
    # Bytes are read with universal newlines; a text stream as it is, here split on LF alone.
    expected = ref_kdd_outcome(LineCountingStringIO(text, newline="" if as_bytes else "\n"), max_flows)
    assert outcome(lambda _unused: adapt_kdd(source, max_flows=max_flows), text, chunk_rows) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_adapt_kdd_reads_blank_and_quoted_lines_column_wise(tmp_path, newline):
    lines = [kdd_line(src_bytes=str(37 * i % 1000), cls=("normal.", "smurf.")[i % 3 == 0]) for i in range(1600)]
    for i in range(250, 1600, 500):
        lines[i] = ""
        lines[i + 1] = kdd_line(cls=('"x,normal."', '"normal."')[i // 500 % 2])
    path = tmp_path / "kddcup.data"
    path.write_bytes((newline.join(lines) + newline).encode())
    dataset = adapt_kdd(path)
    assert (dataset.flows, dataset.labeled) == ref_adapt_kdd(path)
    assert len(dataset) == 1597 and dataset.label[[250, 749, 1248]].tolist() == [1, 0, 1]
    rows = [ingest._kdd_row(line + newline, number) for number, line in enumerate(lines, start=7)]  # none raises
    assert sum(row is not None for row in rows) == 1597


#: Count cells on each rule of the byte path: up to 18 ASCII digits are read from the bytes; 19 digits, a sign,
#: a separator, another script's digit, a control character, a space, or no digit at all are read row by row.
BYTE_PATH_COUNTS = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.sampled_from(["0015", "+15", "1_5", "٣", "\x1c15", " 15", "", "-1", "9" * 18, "1" + "0" * 18, "9" * 19]),
)
#: (src_bytes, dst_bytes) pairs whose sum is at MAX_SIZE, above it, or near it from two 18-digit counts.
BYTE_PATH_SUMS = st.sampled_from([(str(MAX_SIZE - 20), "20"), (str(MAX_SIZE - 19), "20"), ("9" * 18, "9" * 18)])
BYTE_PATH_PROTOCOLS = st.sampled_from(["tcp", "tcp", "tcp", "udp", "icmp", "TCP", " tcp", "tcp\x1c", "icmpx", "tc"])
BYTE_PATH_CLASSES = st.sampled_from(
    ["normal.", "normal.", "neptune.", "normal", "normal..", " normal.", "Normal.", "normal.\0", "nörmal.", ""]
    + ["normal" + "." * 30, "x" * 40]
)


@st.composite
def byte_path_lines(draw, surrogates):
    """A KDD line, mostly plain, that sits on one rule of the byte path; a lone surrogate only if ``surrogates``."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(["", "   "]))
    src, dst = draw(st.one_of(st.tuples(BYTE_PATH_COUNTS, st.just("20")), BYTE_PATH_SUMS))
    classes = BYTE_PATH_CLASSES | st.just("normal.\ud800") if surrogates else BYTE_PATH_CLASSES
    service = draw(st.sampled_from(["http", "http", "ünï"]))
    extra = draw(st.sampled_from([0, 0, 0, 1, 3, -1]))  # -1: 41 fields; more: commas before the class
    fields = ["0", draw(BYTE_PATH_PROTOCOLS), service, "SF", src, dst] + ["0"] * (35 + extra) + [draw(classes)]
    return ",".join(fields)


@FUZZ
@given(
    newline=st.sampled_from(["\n", "\r\n"]),
    as_bytes=st.booleans(),
    end=st.booleans(),
    chunk_rows=st.integers(1, 4),
    data=st.data(),
)
def test_adapt_kdd_byte_path_matches_rowwise_reference(newline, as_bytes, end, chunk_rows, data):
    lines = data.draw(st.lists(byte_path_lines(surrogates=not as_bytes), max_size=12), label="lines")
    text = newline.join(lines) + (newline if end else "")
    max_flows = data.draw(st.one_of(st.none(), st.integers(1, len(lines) + 1)), label="max_flows")
    source = text.encode() if as_bytes else io.StringIO(text)
    # csv.reader before Python 3.11 refuses NUL. The reference reads \x01 in its place, which no rule tells
    # apart from NUL: neither is whitespace, and either keeps a class from being normal.
    reference = LineCountingStringIO(text.replace("\0", "\x01"), newline="" if as_bytes else "\n")
    expected = ref_kdd_outcome(reference, max_flows)
    assert outcome(lambda _unused: adapt_kdd(source, max_flows=max_flows), text, chunk_rows) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_adapt_kdd_reads_only_its_odd_lines_row_by_row(tmp_path, newline):
    protocols, classes = ("tcp", "tcp", "udp", "icmp"), ("normal.", "smurf.", "normal..", "Normal.")
    lines = [kdd_line(protocol=protocols[i % 4], src_bytes=str(37 * i), cls=classes[i % 4]) for i in range(2500)]
    path = tmp_path / "kddcup.data"
    path.write_bytes((newline.join(lines) + newline).encode())
    with mock.patch.object(ingest, "_kdd_cells", refuse_rows):
        dataset = adapt_kdd(path)
    assert (dataset.flows, dataset.labeled) == ref_adapt_kdd(path)
    odd = {
        7: "",
        700: kdd_line(service='"ht,tp"'),
        1023: kdd_line(protocol=" TCP"),
        1024: kdd_line(src_bytes="+15"),
        1500: kdd_line(src_bytes="1" + "0" * 18),
        2047: kdd_line(src_bytes="٣", cls=" normal."),
        2048: kdd_line(cls="nörmal."),
        2499: kdd_line(cls="normal" + "." * 30),
    }
    for i, line in odd.items():
        lines[i] = line
    path.write_bytes((newline.join(lines) + newline).encode())
    read, cells = [], ingest._kdd_cells
    with mock.patch.object(ingest, "_kdd_cells", lambda line: read.append(line) or cells(line)):
        dataset = adapt_kdd(path)
    assert (dataset.flows, dataset.labeled) == ref_adapt_kdd(path)
    assert read == [odd[i] + newline for i in sorted(odd)]


# -- chunk reader property ------------------------------------------------------------


class FailingSource:
    """An iterator over ``items`` that raises OSError after them if ``fail``; ``pulls`` counts the reads."""

    def __init__(self, items, fail):
        self.items, self.fail, self.pulls = items, fail, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.pulls += 1
        if self.pulls <= len(self.items):
            return self.items[self.pulls - 1]
        if self.fail:
            raise OSError("read failed")
        raise StopIteration


@settings(max_examples=500, deadline=None)
@given(
    items=st.lists(st.integers(), max_size=25),
    fail=st.booleans(),
    sizes=st.one_of(st.integers(1, 5), st.lists(st.integers(1, 5), min_size=1, max_size=8)),
    stop=st.one_of(st.none(), st.integers(1, 25)),
)
def test_chunks_hand_out_every_item_read_in_full_lists_before_a_read_error(items, fail, sizes, stop):
    """``sizes`` is a fixed size, or the sizes a callable gives in turn; the consumer stops after ``stop`` lists."""
    source, asked = FailingSource(items, fail), []

    def next_size():
        asked.append(sizes[len(asked) % len(sizes)])
        return asked[-1]

    blocks = textblock.chunks(source, sizes if isinstance(sizes, int) else next_size)
    lists, error = [], None
    try:
        for block in blocks:
            lists.append(block)
            # Nothing is read ahead of the list asked for.
            assert min(source.pulls, len(items)) == sum(map(len, lists))
            if len(lists) == stop:
                break
    except OSError as exc:
        error = exc
    wanted = [sizes] * len(lists) if isinstance(sizes, int) else asked[: len(lists)]
    assert [len(block) for block in lists[:-1]] == wanted[:-1]
    assert all(1 <= len(block) <= limit for block, limit in zip(lists[-1:], wanted[-1:]))
    joined = [item for block in lists for item in block]
    if len(lists) == stop:
        assert joined == items[: source.pulls] and error is None
    else:
        # Every item read came out, and the error, if any, only at the request after the last list.
        assert joined == items
        assert (error is not None) == fail
        # The end of the source, or its error, was read once.
        assert source.pulls == len(items) + 1
        assert next(blocks, None) is None


# -- address fast path ----------------------------------------------------------------


def ref_is_address(text):
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True



@pytest.mark.parametrize("text", ADDRESSES + ("1.2.3.04", "1.2.3.4.5", "1..2.3", "+1.2.3.4", "1.2.3.4/32", "1.2.3.-4"))
def test_address_validation_and_key_match_ipaddress(text):
    try:
        packed = ipaddress.ip_address(text).packed
    except ValueError:
        packed = None
    assert ingest._is_address(text) == ref_is_address(text)
    assert ingest._address_key(text) == ref_ip_sort_key(text)
    if ingest._IPV4.match(text):
        assert socket.inet_aton(text) == packed


@pytest.mark.parametrize("addresses", [ADDRESSES, tuple(a for a in ADDRESSES if ingest._IPV4.match(a))])
def test_address_ranks_order_and_tie_like_packed_keys(addresses):
    keys = [ref_ip_sort_key(text) for text in addresses]
    ranks = ingest._address_ranks(addresses).tolist()
    for i in range(len(keys)):
        for j in range(len(keys)):
            assert (ranks[i] < ranks[j], ranks[i] == ranks[j]) == (keys[i] < keys[j], keys[i] == keys[j])


def test_address_ranks_tell_apart_keys_that_differ_in_trailing_zero_bytes():
    # The packed 10.0.0.0 is the packed a00:: without its twelve trailing zero bytes.
    assert ingest._address_ranks(("a00::", "10.0.0.0", "a00::")).tolist() == [1, 0, 1]


@settings(max_examples=500, deadline=None)
@given(octets=st.lists(st.text(alphabet="0123456789٣ \n+-x", max_size=4), min_size=1, max_size=5))
def test_ipv4_fast_path_accepts_exactly_what_ipaddress_accepts(octets):
    text = ".".join(octets)
    try:
        packed = ipaddress.IPv4Address(text).packed
    except ValueError:
        packed = None
    assert bool(ingest._IPV4.match(text)) == (packed is not None)
    if packed is not None:
        assert socket.inet_aton(text) == packed
    assert ingest._is_address(text) == ref_is_address(text)


def ref_ipv4_value(text):
    """The address's 32-bit number if ipaddress accepts it and inet_aton packs it (IPv4), else None."""
    if not ref_is_address(text):
        return None
    try:
        return int.from_bytes(socket.inet_aton(text), "big")
    except (OSError, ValueError):
        return None


dotted_quads = st.tuples(*[st.integers(0, 255)] * 4).map(lambda octets: ".".join(map(str, octets)))
#: Octets that break a dotted quad, and the edge values that do not.
OCTET_MUTANTS = (
    "00", "01", "007", "256", "999", "1000", "1234", "", "٣", "1٣",
    " 1", "1 ", "+1", "-1", "1\n", "0x1", "0", "255",
)


@st.composite
def mutated_quads(draw):
    """A dotted quad of 3 to 5 octets, one of them drawn from OCTET_MUTANTS."""
    octets = [str(draw(st.integers(0, 255))) for _ in range(draw(st.sampled_from([3, 4, 4, 4, 5])))]
    octets[draw(st.integers(0, len(octets) - 1))] = draw(st.sampled_from(OCTET_MUTANTS))
    return ".".join(octets)


@settings(max_examples=1000, deadline=None)
@given(
    texts=st.lists(dotted_quads, max_size=6),
    odd=st.one_of(mutated_quads(), mutated_quads(), st.text(max_size=16)),
    data=st.data(),
)
def test_ipv4_values_match_ipaddress_and_inet_aton(texts, odd, data):
    if data.draw(st.booleans(), label="with odd"):
        texts.insert(data.draw(st.integers(0, len(texts)), label="at"), odd)
    expected = [ref_ipv4_value(text) for text in texts]
    values = textblock.ipv4_values(texts)
    if None in expected:
        assert values is None
    else:
        assert values.dtype == np.uint32 and values.tolist() == expected


@pytest.mark.parametrize(
    "texts",
    [
        ["1.2.3.1234"],
        ["1.2.3.256"],
        ["0..1.2"],
        ["1..2.3", "1.2.3.4"],
        ["1.2.3.04"],
        ["1.2.3.4.5", "1.2.3"],
        ["1.2.3", "4.5.6.7.8"],
        ["1.2.3.4/", "1.2.3.4"],
        ["0.0.0.0", "255.255.255.255", "9.10.99.100"],
        [],
    ],
)
def test_ipv4_values_of_edge_batches(texts):
    expected = [ref_ipv4_value(text) for text in texts]
    values = textblock.ipv4_values(texts)
    assert (values is None) == (None in expected)
    if values is not None:
        assert values.tolist() == expected


@settings(max_examples=500, deadline=None)
@given(texts=st.lists(st.one_of(dotted_quads, mutated_quads(), st.text(alphabet="0123456789. x", max_size=20)), max_size=6))
def test_ipv4_values_of_address_bytes_match_those_of_texts(texts):
    """An S16 array of the texts, as the tokenizer reads them, is checked as the texts are; a longer text is cut."""
    expected = [ref_ipv4_value(text) for text in texts]
    values = textblock.ipv4_values(np.array([text.encode() for text in texts], dtype="S16"))
    assert (values is None) == (None in expected)
    if values is not None:
        assert values.dtype == np.uint32 and values.tolist() == expected


def joined_ipv4_texts(values):
    """The dotted quads as ``str`` of each octet joined by dots."""
    return [".".join(str(value >> shift & 255) for shift in (24, 16, 8, 0)) for value in values.tolist()]


@pytest.mark.parametrize(
    "quads",
    [
        [],
        ["0.0.0.0"],
        ["255.255.255.255"],
        ["1.2.3.4", "10.20.30.40", "100.200.250.255"],
        ["9.99.100.0", "0.255.10.1", "255.0.0.9"],
    ],
)
def test_ipv4_texts_equal_octets_joined_by_dots(quads):
    values = np.array([int.from_bytes(socket.inet_aton(quad), "big") for quad in quads], dtype=np.uint32)
    assert textblock.ipv4_texts(values) == joined_ipv4_texts(values) == quads


def test_ipv4_texts_of_random_values_equal_octets_joined_by_dots():
    values = np.random.default_rng(7).integers(0, 2**32, 5000, dtype=np.uint32)
    texts = textblock.ipv4_texts(values)
    assert texts == joined_ipv4_texts(values)
    assert textblock.ipv4_values(texts).tolist() == values.tolist()


# -- ordering property ----------------------------------------------------------------

flow_records = st.builds(
    FlowRecord,
    src_ip=st.sampled_from(ADDRESSES),
    src_port=st.integers(0, 3),
    dst_ip=st.sampled_from(ADDRESSES),
    dst_port=st.integers(0, 3),
    packets_total=st.one_of(st.none(), st.integers(0, 5)),
    bytes_total=st.integers(0, 10),
    rel_start=st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 1.0, 2.5]),
    duration=st.sampled_from([0.0, 0.1, 0.2, 1.0, 1.5]),
    label=st.one_of(st.none(), st.integers(0, 1)),
    seq_no=st.integers(-5, 10**9),
).filter(lambda f: f.bytes_total or not f.packets_total)  # the table refuses packets without bytes


@settings(max_examples=300, deadline=None)
@given(flows=st.lists(flow_records, max_size=40), scheme=st.sampled_from(list(OrderingScheme)))
def test_order_flows_matches_sorted_reference(flows, scheme):
    dataset = FlowDataset(flows=flows, labeled=False)
    ordered = order_flows(dataset, scheme)
    assert ordered.flows == tuple(sorted(flows, key=REF_KEYS[scheme]))
    assert order_flows(ordered, scheme).flows == ordered.flows


def unpacked_flow_order(dataset, scheme):
    """flow_order with one lexsort key per endpoint attribute, the layout the packed keys replace."""
    src, dst = dataset.src_code, dataset.dst_code
    if dataset._ipv4 is None:
        ranks = ingest._address_ranks(dataset.addresses)
        src, dst = ranks[src], ranks[dst]
    if scheme is OrderingScheme.SRC_DST_START:
        keys = (src, dst, dataset.rel_start)
    else:
        keys = (src, dataset.src_port, dst, dataset.dst_port, dataset.rel_start)
    return np.lexsort((dataset.seq_no,) + keys[::-1])


IPV4_ADDRESSES = tuple(text for text in ADDRESSES if ingest._IPV4.match(text))


@settings(max_examples=300, deadline=None)
@given(
    pool=st.sampled_from([IPV4_ADDRESSES, ADDRESSES]),
    scheme=st.sampled_from([OrderingScheme.SRC_DST_START, OrderingScheme.FIVE_TUPLE_START]),
    data=st.data(),
)
def test_packed_endpoint_keys_order_like_one_lexsort_key_per_attribute(pool, scheme, data):
    ports = st.one_of(st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 65535))
    records = st.builds(
        FlowRecord,
        src_ip=st.sampled_from(pool),
        src_port=ports,
        dst_ip=st.sampled_from(pool),
        dst_port=ports,
        packets_total=st.none(),
        bytes_total=st.integers(0, 10),
        rel_start=st.sampled_from([0.0, 0.5, 1.0]),
        duration=st.just(0.0),
        label=st.none(),
        seq_no=st.integers(0, 10**9),
    )
    flows = data.draw(st.lists(records, max_size=40), label="flows")
    flows += [dataclasses.replace(f, seq_no=-1 - i) for i, f in enumerate(flows[:5])]  # equal key tuples
    dataset = FlowDataset(flows, labeled=False)
    if data.draw(st.booleans(), label="shuffled"):  # seq_no no longer ascending in dataset order
        dataset = dataset._take(np.array(data.draw(st.permutations(range(len(flows)))), dtype=np.intp))
    assert ingest.flow_order(dataset, scheme).tolist() == unpacked_flow_order(dataset, scheme).tolist()


# -- writer property --------------------------------------------------------------------


def ref_write_flow_csv(dataset):
    """The flow CSV as csv.writer writes it, one FlowRecord at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    with_label = dataset.labeled or any(f.label is not None for f in dataset.flows)
    writer.writerow(CSV_COLUMNS + ("label",) * with_label)
    for f in dataset.flows:
        row = [f.src_ip, f.src_port, f.dst_ip, f.dst_port, f.packets_total, f.bytes_total, f.rel_start, f.duration]
        writer.writerow(["" if v is None else v for v in row + [f.label] * with_label])
    return buffer.getvalue()


#: tshark endpoints are whitespace-free tokens, so a resolved hostname may hold a comma or a quote.
TSHARK_HOSTS = ("10.0.0.1", "2001:db8::1", "host,one", 'say"hi"', '"a,b"', "x\ry", "plain.example")
#: The endpoints of TSHARK_HOSTS that a flow CSV holds.
TSHARK_IPS = ("10.0.0.1", "2001:db8::1")


@settings(max_examples=200, deadline=None)
@given(
    flows=st.lists(
        st.builds(
            FlowRecord,
            src_ip=st.sampled_from(TSHARK_IPS),
            src_port=st.integers(0, 65535),
            dst_ip=st.sampled_from(TSHARK_IPS),
            dst_port=st.integers(0, 65535),
            packets_total=st.one_of(st.none(), st.integers(0, MAX_SIZE)),
            bytes_total=st.integers(0, MAX_SIZE),
            rel_start=st.one_of(st.floats(0, allow_infinity=False), st.just(-0.0)),
            duration=st.one_of(st.floats(0, 1e9), st.just(-0.0)),
            label=st.one_of(st.none(), st.integers(0, 1)),
            seq_no=st.integers(0, 10),
        ).filter(lambda f: f.bytes_total or not f.packets_total),
        max_size=12,
    ),
    chunk_rows=chunk_sizes,
)
def test_write_flow_csv_matches_csv_writer(flows, chunk_rows):
    dataset = FlowDataset(flows, labeled=bool(flows) and all(f.label is not None for f in flows))
    sink = io.StringIO()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        ingest.write_flow_csv(dataset, sink)
    assert sink.getvalue() == ref_write_flow_csv(dataset)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_write_flow_csv_of_tshark_hostnames_matches_csv_writer(chunk_rows):
    pairs = zip(TSHARK_HOSTS, TSHARK_HOSTS[1:] + TSHARK_HOSTS[:1])
    text = "TCP Conversations\n" + "".join(
        f"{src}:{i} <-> {dst}:80 1 60 2 120 3 180 {i}.5 1.0\n"
        for i, (src, dst) in enumerate(pairs)
        if "\r" not in src + dst
    )
    dataset = parse_tshark_conversations(io.StringIO(text))
    # The rows a flow CSV holds; their table keeps the hostnames of the others.
    dataset = dataset._take(np.array([i for i, f in enumerate(dataset.flows) if {f.src_ip, f.dst_ip} <= {*TSHARK_IPS}]))
    sink = io.StringIO()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        ingest.write_flow_csv(dataset, sink)
    assert sink.getvalue() == ref_write_flow_csv(dataset)
    assert len(dataset) == 1 and "host,one" in dataset.addresses


# -- the scoring path builds no FlowRecord --------------------------------------------


def refuse_records(*args, **kwargs):
    raise AssertionError("a FlowRecord was built")


CSV_TEXT = ",".join(CSV_COLUMNS) + ",label\n" + "".join(
    f"10.0.{i % 7}.{i % 5},{1000 + i % 3},2001:db8::{i % 4},80,"
    f"{1 + i % 9},{100 + 37 * i % 1000},{i * 0.5},1.0,{int(20 <= i < 35)}\n"
    for i in range(60)
)


@pytest.mark.parametrize("scheme", list(OrderingScheme))
def test_run_detector_on_parsed_csv_reads_no_records(scheme):
    with mock.patch.object(ingest, "FlowRecord", refuse_records):
        dataset = parse_flow_csv(io.StringIO(CSV_TEXT))
        scores = run_detector(dataset, DetectorConfig(window=WindowSpec(10), ordering=scheme))
    assert len(scores) == 11
    assert dataset._flows is None


def test_five_tuple_score_of_an_ipv4_csv_reads_blocks_and_ranks_numbers(tmp_path):
    lines = [
        f"10.{i % 3}.{i % 251}.{i % 7},{1000 + i % 5},192.168.{i % 13}.{i % 3},80,"
        f"{1 + i % 9},{100 + 37 * i % 1000},{i * 0.5},1.0,{int(i % 10 < 3)}"
        for i in range(2500)
    ]
    path = tmp_path / "flows.csv"
    path.write_text(",".join(CSV_COLUMNS) + ",label\n" + "\n".join(lines) + "\n")
    argv = ["score", "--ordering", "five-tuple-start", "--window", "100", str(path), "-o", str(tmp_path / "s.csv")]
    refuse_matching = mock.Mock(match=refuse_rows)
    with (
        mock.patch.object(ingest, "_IPV4", refuse_matching),
        mock.patch("socket.inet_aton", refuse_rows),
        mock.patch("csv.reader", refuse_rows),
    ):
        dataset = parse_flow_csv(path)
        ordered = order_flows(dataset, OrderingScheme.FIVE_TUPLE_START)
        assert main(argv) == 0
    flows, labeled = ref_parse_flow_csv(path)
    assert (dataset.flows, dataset.labeled) == (flows, labeled)
    assert ordered.flows == tuple(sorted(flows, key=REF_KEYS[OrderingScheme.FIVE_TUPLE_START]))


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "3", "--normal", "500", "--burst", "const:1500:100:50", "-o", "{dir}/synth.csv"],
        ["score", "--ordering", "five-tuple-start", "--window", "10", "{dir}/flows.csv", "-o", "{dir}/s.csv"],
        ["evaluate", "--roc", "--window", "10", "--tl", "0.5", "{dir}/flows.csv", "-o", "{dir}/roc.csv"],
        ["evaluate", "--windows", "10,20", "--ordering", "src-dst-start", "{dir}/flows.csv", "-o", "{dir}/g.csv"],
        ["sweep", "--windows", "10,20", "--ordering", "end-start", "{dir}/flows.csv", "-o", "{dir}/w.csv"],
    ],
)
def test_cli_commands_build_no_records(tmp_path, capsys, argv):
    (tmp_path / "flows.csv").write_text(CSV_TEXT)
    with mock.patch.object(ingest, "FlowRecord", refuse_records):
        assert main([a.format(dir=tmp_path) for a in argv]) == 0


# -- the score command builds no WindowScore ------------------------------------------


def refuse_window_scores(*args, **kwargs):
    raise AssertionError("a WindowScore was built")


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("to_file", [True, False])
def test_score_builds_no_window_scores(tmp_path, capsys, labeled, to_file):
    text = CSV_TEXT if labeled else "".join(line.rsplit(",", 1)[0] + "\n" for line in CSV_TEXT.splitlines())
    (tmp_path / "flows.csv").write_text(text)
    argv = ["score", "--window", "10", "--step", "1", "--tl", "0.5", str(tmp_path / "flows.csv")]
    argv += ["-o", str(tmp_path / "s.csv")] if to_file else []
    with mock.patch.object(detector, "WindowScore", refuse_window_scores):
        assert main(argv) == 0
    written = (tmp_path / "s.csv").read_text() if to_file else capsys.readouterr().out
    rows = [line.split(",") for line in written.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(51)]
    assert {row[5] for row in rows} == ({"0", "1"} if labeled else {""})


# -- IPv4 endpoints as numbers: the table builder against string interning -------------


def ref_interned(flows):
    """The string-interning reference: each distinct endpoint string once, in first-seen order."""
    return tuple(dict.fromkeys(ip for f in flows for ip in (f.src_ip, f.dst_ip)))


def assert_table_matches_reference(dataset, flows, labeled):
    """Writer bytes (before any string is built) or, for a non-IP endpoint, no write; .flows, labeled, orderings and
    the interned table."""
    sink = io.StringIO()
    if all(ingest._is_address(text) for text in ref_interned(flows)):
        ingest.write_flow_csv(dataset, sink)
        assert sink.getvalue() == ref_write_flow_csv(FlowDataset(flows, labeled))
    else:
        with pytest.raises(ValueError, match="is not an IP address"):
            ingest.write_flow_csv(dataset, sink)
        assert sink.getvalue() == ""
    assert (dataset.flows, dataset.labeled) == (flows, labeled)
    for scheme in OrderingScheme:
        expected = sorted(range(len(flows)), key=lambda i: REF_KEYS[scheme](flows[i]))
        assert ingest.flow_order(dataset, scheme).tolist() == expected
    assert sorted(dataset.addresses) == sorted(ref_interned(flows))
    # All dotted quads: the codes are the ranks of the sorted numbers, which the table keeps instead of strings.
    if all(ingest._IPV4.match(text) for text in ref_interned(flows)):
        numbers = [int(ipaddress.IPv4Address(text)) for text in dataset.addresses]
        assert numbers == sorted(set(numbers)) == dataset._ipv4.tolist()


IPV4_ENDPOINTS = st.sampled_from(["10.0.0.1", "10.0.0.2", "9.0.0.0", "255.255.255.255", "0.0.0.0", "128.0.0.1"])
OTHER_CSV_ENDPOINTS = st.sampled_from(["2001:db8::1", "2001:DB8:0::1", "a00::", "::ffff:1.2.3.4", "fe80::1%eth0"])
BAD_CSV_ENDPOINTS = st.sampled_from(["host.example", "01.2.3.4", "1.2.3", "256.1.1.1", "1.2.3.٤"])


@st.composite
def switching_endpoints(draw, other, bad=None):
    """(src, dst) pairs: all IPv4 before the switch row, whose src, dst or both are not; then a mix.

    With ``bad``, one endpoint after the switch may be malformed.
    """
    n_before, n_after = draw(st.integers(0, 9)), draw(st.integers(0, 6))
    pairs = [(draw(IPV4_ENDPOINTS), draw(IPV4_ENDPOINTS)) for _ in range(n_before)]
    switch = draw(st.sampled_from(["src", "dst", "both"]))
    pairs.append(
        (
            draw(other if switch != "dst" else IPV4_ENDPOINTS),
            draw(other if switch != "src" else IPV4_ENDPOINTS),
        )
    )
    mixed = st.one_of(IPV4_ENDPOINTS, other)
    pairs += [(draw(mixed), draw(mixed)) for _ in range(n_after)]
    if bad is not None and draw(st.booleans()):
        i, column = draw(st.integers(n_before, len(pairs) - 1)), draw(st.integers(0, 1))
        pairs[i] = tuple(draw(bad) if k == column else text for k, text in enumerate(pairs[i]))
    return pairs


@settings(max_examples=400, deadline=None)
@given(
    pairs=st.one_of(
        st.lists(st.tuples(IPV4_ENDPOINTS, IPV4_ENDPOINTS), max_size=12),
        switching_endpoints(OTHER_CSV_ENDPOINTS, BAD_CSV_ENDPOINTS),
    ),
    has_label=st.booleans(),
    chunk_rows=st.integers(1, 4),
)
def test_flow_csv_switching_from_ipv4_matches_string_interning_reference(pairs, has_label, chunk_rows):
    header = ",".join(CSV_COLUMNS + ("label",) * has_label)
    text = "".join(
        f"\n{src},{i % 3},{dst},80,{i % 4},{100 + i},{i % 5 * 0.5},1.0" + f",{i % 2}" * has_label
        for i, (src, dst) in enumerate(pairs)
    )
    expected = ref_outcome(ref_parse_flow_csv, header + text + "\n")
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        try:
            dataset = parse_flow_csv(io.StringIO(header + text + "\n"))
        except ParseError as exc:
            assert (type(exc), str(exc), exc.line) == expected
        else:
            flows, labeled = expected
            assert_table_matches_reference(dataset, flows, labeled)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4])
@pytest.mark.parametrize("switch_row", [0, 1, 2, 5])
def test_a_switch_on_the_dst_column_codes_the_blocks_src_column_as_strings(chunk_rows, switch_row):
    rows = [f"10.0.0.{i},1,9.0.0.{i},2,3,{100 + i},{i}.0,1.0" for i in range(8)]
    rows[switch_row] = rows[switch_row].replace(f"9.0.0.{switch_row}", "2001:db8::1")
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        dataset = parse_flow_csv(io.StringIO(text))
        assert_table_matches_reference(dataset, *ref_parse_flow_csv(io.StringIO(text)))
    assert dataset._ipv4 is None and len(dataset.addresses) == 16


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 4096])
@pytest.mark.parametrize("bad", ["host.example", "1.2.3", "01.2.3.4"])
def test_a_malformed_address_after_the_switch_raises_at_its_line(chunk_rows, bad):
    rows = [f"10.0.0.{i},1,9.0.0.{i},2,3,{100 + i},{i}.0,1.0" for i in range(8)]
    rows[3] = rows[3].replace("9.0.0.3", "2001:db8::1")
    rows[6] = rows[6].replace("10.0.0.6", bad)
    text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        with pytest.raises(ParseError, match=f"^line 8: field src_ip is not an IP address: '{bad}'$"):
            parse_flow_csv(io.StringIO(text))


@settings(max_examples=300, deadline=None)
@given(
    pairs=switching_endpoints(st.sampled_from(TSHARK_HOSTS + ("2001:db8::1", "a00::", " 10.0.0.1"))),
    chunk_rows=st.integers(1, 4),
    labels=st.sampled_from([None, 0, 1]),
)
def test_records_switching_from_ipv4_to_hostnames_match_string_interning_reference(pairs, chunk_rows, labels):
    flows = tuple(
        FlowRecord(src, i % 3, dst, 80, None if i % 5 == 4 else i % 4, 100 + i, i % 5 * 0.5, 1.0, labels, 7 - i)
        for i, (src, dst) in enumerate(pairs)
    )
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        dataset = FlowDataset(flows, labeled=labels is not None)
        dataset._flows = None  # build the records from the columns
        assert_table_matches_reference(dataset, flows, labels is not None)


# -- the growing table builder against chunk lists joined by np.concatenate ------------


class ChunkListTable:
    """The reference builder: a list of chunk arrays per column, joined once by ``np.concatenate``."""

    add_rows = ingest._TableBuilder.add_rows

    def __init__(self):
        self.chunks = {name: [] for name in ingest._COLUMN_TYPES}
        self.index = None  # string table; None while the code chunks hold IPv4 numbers
        self.n_rows = 0

    def codes(self, src, dst, validate):
        assert not validate
        if self.index is None:
            values = textblock.ipv4_values([*src, *dst])
            if values is not None:
                return dict(zip(("src_code", "dst_code"), np.split(values.view(np.int32), [len(src)])))
            self.index = {}
            for name in ("src_code", "dst_code"):
                self.chunks[name] = [self.intern(textblock.ipv4_texts(c.view(np.uint32))) for c in self.chunks[name]]
        return {"src_code": self.intern(src), "dst_code": self.intern(dst)}

    def intern(self, texts):
        return np.array([self.index.setdefault(text, len(self.index)) for text in texts], dtype=np.int32)

    def add(self, **columns):
        n = len(columns["bytes_total"])
        columns.setdefault("seq_no", np.arange(self.n_rows, self.n_rows + n))
        for name, dtype in ingest._COLUMN_TYPES.items():
            self.chunks[name].append(np.asarray(columns[name], dtype=dtype))
        self.n_rows += n

    def columns(self):
        columns = {
            name: np.concatenate(self.chunks[name]) if self.chunks[name] else np.empty(0, dtype=dtype)
            for name, dtype in ingest._COLUMN_TYPES.items()
        }
        if self.index is not None:
            return columns, tuple(self.index), None
        numbers = np.concatenate((columns["src_code"], columns["dst_code"])).view(np.uint32)
        ipv4, codes = np.unique(numbers, return_inverse=True)
        columns["src_code"], columns["dst_code"] = np.split(codes.astype(np.int32), 2)
        return columns, None, ipv4


#: (packets_total, bytes_total) with bytes wherever there are packets.
COUNTS = st.one_of(st.none(), st.integers(0, MAX_SIZE)).flatmap(
    lambda packets: st.tuples(st.just(packets), st.integers(1 if packets else 0, MAX_SIZE))
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.one_of(
        st.lists(st.tuples(IPV4_ENDPOINTS, IPV4_ENDPOINTS), max_size=30),
        switching_endpoints(st.sampled_from(TSHARK_HOSTS + ("2001:db8::1", "a00::", "01.2.3.4"))),
    ),
    chunk_rows=st.sampled_from([1, 3, 7]),
    data=st.data(),
)
def test_growing_table_builder_equals_chunk_lists_joined_by_concatenate(pairs, chunk_rows, data):
    """Columns grown in place many times, switching to interned strings at a random chunk, equal the reference's."""
    rows = [
        (
            src,
            data.draw(st.integers(0, 65535)),
            dst,
            data.draw(st.integers(0, 65535)),
            *data.draw(COUNTS),
            data.draw(st.floats(0.0, 1e9)),
            data.draw(st.floats(0.0, 1e3)),
            data.draw(st.sampled_from([None, 0, 1])),
        )
        for src, dst in pairs
    ]
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        table, reference = ingest._TableBuilder(), ChunkListTable()
        table.add_rows(rows)
        reference.add_rows(rows)
    dataset = table.dataset(labeled=None, source_name="")
    columns, addresses, ipv4 = reference.columns()
    for name, expected in columns.items():
        got = getattr(dataset, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        assert not got.flags.writeable
    assert dataset._addresses == addresses
    if ipv4 is None:
        assert dataset._ipv4 is None
    else:
        assert dataset._ipv4.dtype == ipv4.dtype and np.array_equal(dataset._ipv4, ipv4)


# -- IPv4 endpoint strings are built only where they are read --------------------------


def refuse_formatting(*args, **kwargs):
    raise AssertionError("an address string was formatted")


@pytest.mark.parametrize("ordering", ["five-tuple-start", "src-dst-start"])
def test_ip_ordered_score_of_an_ipv4_csv_formats_no_address(tmp_path, ordering):
    (tmp_path / "flows.csv").write_text(CSV_TEXT.replace("2001:db8::", "192.168.0."))
    argv = ["score", "--ordering", ordering, "--window", "10", str(tmp_path / "flows.csv"), "-o", str(tmp_path / "s.csv")]
    with mock.patch.object(ingest, "ipv4_texts", refuse_formatting):
        assert main(argv) == 0
        dataset = parse_flow_csv(tmp_path / "flows.csv")
        order_flows(dataset, OrderingScheme[ordering.upper().replace("-", "_")])
    assert dataset._addresses is None


def test_generate_formats_endpoints_a_chunk_at_a_time(tmp_path):
    formatted = []

    def ipv4_texts(values):
        formatted.append(len(values))
        return textblock.ipv4_texts(values)

    def refuse_table(self):
        raise AssertionError("the whole address table was built")

    argv = ["generate", "--seed", "3", "--normal", "3000", "--burst", "const:1500:100:50", "-o", str(tmp_path / "g.csv")]
    with (
        mock.patch.object(ingest, "ipv4_texts", ipv4_texts),
        mock.patch.object(ingest.FlowDataset, "addresses", property(refuse_table)),
    ):
        assert main(argv) == 0
    assert max(formatted) == ingest._CHUNK_ROWS and sum(formatted) == 2 * 3050
    expected = io.StringIO()
    ingest.write_flow_csv(generate(GeneratorSpec(seed=3, n_normal=3000, attacks=BURSTS)), expected)
    assert (tmp_path / "g.csv").read_text() == expected.getvalue()


BURSTS = (AttackBurst(100, 50, ConstantSize(1500)),)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec(seed=5, n_normal=2500, attacks=BURSTS)),
        lambda: parse_flow_csv(io.StringIO(CSV_TEXT.replace("2001:db8::", "192.168.0."))),
        lambda: adapt_kdd(io.StringIO(kdd_line() * 3)),
    ],
    ids=["generate", "parse", "kdd"],
)
def test_a_never_formatted_dataset_reads_as_one_whose_addresses_were_built(make):
    fresh, built = make(), make()
    assert fresh._addresses is None and built.addresses
    rows = np.random.default_rng(1).permutation(len(fresh))
    for a, b in [(fresh, built)] + [(fresh._take(r), built._take(r)) for r in (rows, slice(1, None, 2))]:
        sink_a, sink_b = io.StringIO(), io.StringIO()
        ingest.write_flow_csv(a, sink_a)
        ingest.write_flow_csv(b, sink_b)
        assert a._addresses is None and sink_a.getvalue() == sink_b.getvalue()
        assert a.flows == b.flows
