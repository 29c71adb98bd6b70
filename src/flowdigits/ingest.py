"""Flow dataset ingestion and ordering.

Three input formats produce the same in-memory dataset: the canonical flow
CSV (this package's interchange format), the plain-text TCP conversation
table printed by ``tshark -r <pcap> -q -z conv,tcp``, and KDD Cup 1999
connection records. Parsing is single-pass streaming; the resulting dataset
and its records are immutable and safe to share between threads.
"""

from __future__ import annotations

import csv
import gzip
import io
import ipaddress
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterator

from .errors import FormatError, ParseError

CSV_COLUMNS = (
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "packets_total",
    "bytes_total",
    "rel_start_s",
    "duration_s",
)
CSV_LABEL_COLUMN = "label"


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One bidirectional TCP flow.

    ``rel_start`` is seconds since the start of the capture; the flow's end
    time is always derived as rel_start + duration. ``seq_no`` is the flow's
    position in the raw log and breaks every ordering tie. ``packets_total``
    is None for sources that only report bytes (KDD). ``label`` is 1 for
    malicious, 0 for normal, None when unknown.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    packets_total: int | None
    bytes_total: int
    rel_start: float
    duration: float
    label: int | None
    seq_no: int

    @property
    def rel_end(self) -> float:
        return self.rel_start + self.duration


class OrderingScheme(Enum):
    """The four flow orderings; ties always fall back to raw-log order."""

    START_END = "start-end"
    END_START = "end-start"
    SRC_DST_START = "src-dst-start"
    FIVE_TUPLE_START = "five-tuple-start"


@dataclass(frozen=True)
class FlowDataset:
    flows: tuple[FlowRecord, ...]
    labeled: bool
    source_name: str = ""

    def __post_init__(self):
        if self.labeled and any(f.label is None for f in self.flows):
            raise ValueError("labeled dataset contains a flow without a label")

    def __len__(self) -> int:
        return len(self.flows)


#: Largest flow size the scoring arrays (int64) can hold.
MAX_SIZE = 2**63 - 1


@contextmanager
def _open_text(source: str | Path | IO) -> Iterator[IO[str]]:
    """Normalize a path / bytes / binary stream / text stream to a text stream.

    Paths are opened and closed here; paths ending in .gz are decompressed
    transparently. A caller's stream is never closed: a binary one is read
    through a wrapper that is detached from it afterwards.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rt", encoding="utf-8-sig", newline="") as stream:
            yield stream
    elif isinstance(source, (bytes, bytearray)):
        yield io.StringIO(source.decode("utf-8-sig"))
    elif hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            wrapper = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            try:
                yield wrapper
            finally:
                wrapper.detach()
        else:
            yield source
    else:
        raise TypeError(f"unsupported input source: {type(source)!r}")


def _int_field(text: str, name: str, line: int, lo: int = 0, hi: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"field {name} is not an integer: {text!r}", line) from None
    if value < lo:
        raise ParseError(f"field {name} must be >= {lo}, got {value}", line)
    if hi is not None and value > hi:
        raise ParseError(f"field {name} must be <= {hi}, got {value}", line)
    return value


def _float_field(text: str, name: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"field {name} is not a number: {text!r}", line) from None
    if not (value >= 0.0 and math.isfinite(value)):
        raise ParseError(f"field {name} must be finite and non-negative, got {value}", line)
    return value


def _address_field(text: str, name: str, line: int) -> str:
    try:
        ipaddress.ip_address(text)
    except ValueError:
        raise ParseError(f"field {name} is not an IP address: {text!r}", line) from None
    return text


def parse_flow_csv(source: str | Path | IO, source_name: str = "") -> FlowDataset:
    """Parse the canonical flow CSV.

    Header must be ``src_ip,src_port,dst_ip,dst_port,packets_total,
    bytes_total,rel_start_s,duration_s`` with an optional trailing ``label``
    column. An empty packets_total cell means the source had no packet
    counts. A label cell that is not exactly 0 or 1 is treated as absent,
    which makes the whole dataset unlabeled rather than failing the parse.
    """
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
        if has_label and header[-1] != CSV_LABEL_COLUMN:
            raise FormatError(f"unexpected header: {','.join(header)!r}")

        flows: list[FlowRecord] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            src_ip = _address_field(row[0].strip(), "src_ip", lineno)
            src_port = _int_field(row[1], "src_port", lineno, 0, 65535)
            dst_ip = _address_field(row[2].strip(), "dst_ip", lineno)
            dst_port = _int_field(row[3], "dst_port", lineno, 0, 65535)
            packets = None if row[4].strip() == "" else _int_field(row[4], "packets_total", lineno, 0, MAX_SIZE)
            bytes_total = _int_field(row[5], "bytes_total", lineno, 0, MAX_SIZE)
            if packets is not None and packets >= 1 and bytes_total < 1:
                raise ParseError("flow with packets but zero bytes", lineno)
            rel_start = _float_field(row[6], "rel_start_s", lineno)
            duration = _float_field(row[7], "duration_s", lineno)
            label: int | None = None
            if has_label:
                cell = row[8].strip()
                label = int(cell) if cell in ("0", "1") else None
            flows.append(
                FlowRecord(
                    src_ip=src_ip,
                    src_port=src_port,
                    dst_ip=dst_ip,
                    dst_port=dst_port,
                    packets_total=packets,
                    bytes_total=bytes_total,
                    rel_start=rel_start,
                    duration=duration,
                    label=label,
                    seq_no=len(flows),
                )
            )

    labeled = all(f.label is not None for f in flows)
    return FlowDataset(flows=tuple(flows), labeled=labeled, source_name=source_name)


def write_flow_csv(dataset: FlowDataset, sink: str | Path | IO[str]) -> None:
    """Serialize a dataset to the canonical flow CSV (round-trips exactly)."""
    if isinstance(sink, (str, Path)):
        stream: IO[str] = open(sink, "w", encoding="utf-8", newline="")
        owns = True
    else:
        stream, owns = sink, False
    try:
        writer = csv.writer(stream, lineterminator="\n")
        with_label = dataset.labeled or any(f.label is not None for f in dataset.flows)
        header = CSV_COLUMNS + ((CSV_LABEL_COLUMN,) if with_label else ())
        writer.writerow(header)
        for f in dataset.flows:
            row = [
                f.src_ip,
                f.src_port,
                f.dst_ip,
                f.dst_port,
                "" if f.packets_total is None else f.packets_total,
                f.bytes_total,
                repr(f.rel_start),
                repr(f.duration),
            ]
            if with_label:
                row.append("" if f.label is None else f.label)
            writer.writerow(row)
    finally:
        if owns:
            stream.close()


_BYTE_SUFFIXES = {"bytes": 1, "kB": 1_000, "MB": 1_000_000, "GB": 1_000_000_000}


def _iter_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for lineno, line in enumerate(stream, start=1):
        yield lineno, line.rstrip("\r\n")


def _split_endpoint(token: str, line: int) -> tuple[str, int]:
    addr, sep, port = token.rpartition(":")
    if not sep:
        raise ParseError(f"endpoint without port: {token!r}", line)
    addr = addr.strip("[]")
    try:
        return addr, int(port)
    except ValueError:
        raise ParseError(f"endpoint with non-numeric port: {token!r}", line) from None


def parse_tshark_conversations(source: str | Path | IO, source_name: str = "") -> FlowDataset:
    """Parse the text table printed by ``tshark -q -z conv,tcp``.

    Each data line carries two endpoints and eight numeric fields: frames
    and bytes for each direction and in total, then relative start and
    duration. Depending on the tshark version, byte columns are either plain
    integers or values with an SI suffix ("56 kB" means 56000); both forms
    are accepted, as are thousands separators. Flows come out unlabeled.
    """
    flows: list[FlowRecord] = []
    saw_table = False
    with _open_text(source) as stream:
        for lineno, line in _iter_lines(stream):
            text = line.strip()
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
            src_ip, src_port = _split_endpoint(tokens[0], lineno)
            dst_ip, dst_port = _split_endpoint(tokens[2], lineno)

            tail = tokens[3:]
            counts: list[int] = []
            i = 0
            while len(counts) < 6:
                if i >= len(tail):
                    raise ParseError("conversation line has too few numeric fields", lineno)
                token = tail[i]
                try:
                    value = float(token.replace(",", ""))
                except ValueError:
                    raise ParseError(f"unparseable numeric token {token!r}", lineno) from None
                if i + 1 < len(tail) and not _looks_numeric(tail[i + 1]):
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
            if len(tail) - i != 2:
                raise ParseError(
                    f"expected relative start and duration, got {tail[i:]!r}", lineno
                )
            rel_start = _float_field(tail[i], "relative start", lineno)
            duration = _float_field(tail[i + 1], "duration", lineno)

            flows.append(
                FlowRecord(
                    src_ip=src_ip,
                    src_port=src_port,
                    dst_ip=dst_ip,
                    dst_port=dst_port,
                    packets_total=counts[4],
                    bytes_total=counts[5],
                    rel_start=rel_start,
                    duration=duration,
                    label=None,
                    seq_no=len(flows),
                )
            )
    if not saw_table:
        raise FormatError("no conversations table found in input")
    return FlowDataset(flows=tuple(flows), labeled=False, source_name=source_name)


def _looks_numeric(token: str) -> bool:
    try:
        float(token.replace(",", ""))
        return True
    except ValueError:
        return False


def adapt_kdd(
    source: str | Path | IO,
    source_name: str = "",
    max_flows: int | None = None,
) -> FlowDataset:
    """Adapt KDD Cup 1999 connection records (41 features + class label).

    Only TCP rows are kept. The format has neither timestamps nor endpoint
    addresses, so rel_start is the retained row index, duration is 0 and
    endpoints are placeholders; start-time orderings therefore reduce to the
    file's natural connection order. Packet counts are absent (byte sizes
    only). The class label maps to 0 for "normal." and 1 for everything
    else; a trailing dot on the class is optional. ``max_flows`` truncates
    the dataset after that many TCP flows (for desk-scale runs).
    """
    flows: list[FlowRecord] = []
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < 42:
                raise ParseError(f"expected at least 42 fields, got {len(row)}", lineno)
            if row[1].strip().lower() != "tcp":
                continue
            src_bytes = _int_field(row[4].strip(), "src_bytes", lineno)
            dst_bytes = _int_field(row[5].strip(), "dst_bytes", lineno)
            if src_bytes + dst_bytes > MAX_SIZE:
                raise ParseError(f"src_bytes + dst_bytes exceeds {MAX_SIZE}", lineno)
            cls = row[-1].strip().rstrip(".")
            seq = len(flows)
            flows.append(
                FlowRecord(
                    src_ip="0.0.0.0",
                    src_port=0,
                    dst_ip="0.0.0.0",
                    dst_port=0,
                    packets_total=None,
                    bytes_total=src_bytes + dst_bytes,
                    rel_start=float(seq),
                    duration=0.0,
                    label=0 if cls == "normal" else 1,
                    seq_no=seq,
                )
            )
            if max_flows is not None and len(flows) >= max_flows:
                break
    return FlowDataset(flows=tuple(flows), labeled=True, source_name=source_name)


def _ip_sort_key(cache: dict[str, bytes], text: str) -> bytes:
    key = cache.get(text)
    if key is None:
        try:
            key = ipaddress.ip_address(text).packed
        except ValueError:
            # tshark may emit resolved hostnames; fall back to a stable
            # byte form so the order stays total and deterministic.
            key = b"\xff" + text.encode("utf-8", "surrogateescape")
        cache[text] = key
    return key


def order_flows(dataset: FlowDataset, scheme: OrderingScheme) -> FlowDataset:
    """Return the dataset sorted under one of the four orderings.

    Key attributes compare left to right; addresses compare on their packed
    byte form, ports numerically. Flows with equal keys keep their raw-log
    order (ascending seq_no), which also makes the operation idempotent.
    """
    cache: dict[str, bytes] = {}

    if scheme is OrderingScheme.START_END:
        def key(f: FlowRecord):
            return (f.rel_start, f.rel_end, f.seq_no)
    elif scheme is OrderingScheme.END_START:
        def key(f: FlowRecord):
            return (f.rel_end, f.rel_start, f.seq_no)
    elif scheme is OrderingScheme.SRC_DST_START:
        def key(f: FlowRecord):
            return (_ip_sort_key(cache, f.src_ip), _ip_sort_key(cache, f.dst_ip), f.rel_start, f.seq_no)
    elif scheme is OrderingScheme.FIVE_TUPLE_START:
        def key(f: FlowRecord):
            return (
                _ip_sort_key(cache, f.src_ip),
                f.src_port,
                _ip_sort_key(cache, f.dst_ip),
                f.dst_port,
                f.rel_start,
                f.seq_no,
            )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown ordering scheme: {scheme!r}")

    ordered = tuple(sorted(dataset.flows, key=key))
    return replace(dataset, flows=ordered)
