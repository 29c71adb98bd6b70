"""Flow dataset ingestion and ordering.

Three input formats produce the same in-memory dataset: the canonical flow
CSV (this package's interchange format), the plain-text TCP conversation
table printed by ``tshark -r <pcap> -q -z conv,tcp``, and KDD Cup 1999
connection records. Parsing is single-pass streaming: every parser reads
its input in chunks of ``_CHUNK_ROWS`` lines or rows (``textblock.chunks``)
and converts each chunk before it reads the next, so a bad row read before
a read error raises first. The flow CSV and KDD records convert a chunk
column-wise. A flow-CSV chunk that fails a check is checked, not
converted, row by row, which raises at its first bad row; a KDD chunk that
fails one is read again row by row. The flow CSV splits chunks of plain
lines on commas and hands the first chunk that is not plain, and the rest
of the input, to ``csv.reader``, so its quoting rules are those of ``csv``. KDD
chunks with LF or CRLF line ends are read column-wise alike. tshark checks
each row as it reads it. Input that is not UTF-8, a truncated or corrupt
gzip file, or a CSV cell over the ``csv`` field limit, is a ParseError.

A dataset is a columnar flow table: one numpy array per flow field, where
row i describes the i-th flow in dataset order.

============== ======= ===============================================
column         dtype   meaning
============== ======= ===============================================
bytes_total    int64   flow size in bytes
packets_total  int64   packet count, 0 where ``has_packets`` is False
has_packets    bool    whether the source reported a packet count
rel_start      float64 seconds since the start of the capture
duration       float64 seconds
label          int8    1 malicious, 0 normal, -1 unknown
src_port       int32
dst_port       int32
seq_no         int64   position in the raw log; breaks ordering ties
src_code       int32   index into ``addresses``
dst_code       int32   index into ``addresses``
============== ======= ===============================================

``addresses`` is a tuple of the distinct endpoint strings; when all are
dotted-quad IPv4, their 32-bit numbers are kept beside it for the IP
orderings, so that no address is parsed twice. The arrays are
read-only and nothing changes a dataset once built, so it is safe to share
between threads.
``dataset.flows`` is the same table as a tuple of ``FlowRecord``; it is
built on first read and cached, and scoring never reads it.
"""

from __future__ import annotations

import csv
import gzip
import io
import ipaddress
import math
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParseError
from .textblock import chunks, csv_cells, ipv4_values, plain_columns

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


#: The columns of a dataset and their dtypes; see the module docstring.
_COLUMN_TYPES = {
    "bytes_total": np.int64,
    "packets_total": np.int64,
    "has_packets": np.bool_,
    "rel_start": np.float64,
    "duration": np.float64,
    "label": np.int8,
    "src_port": np.int32,
    "dst_port": np.int32,
    "seq_no": np.int64,
    "src_code": np.int32,
    "dst_code": np.int32,
}


class FlowDataset:
    """A columnar flow table (see the module docstring), labeled or not.

    ``FlowDataset(flows, labeled, source_name)`` builds the columns from
    FlowRecords and keeps their seq_nos; parsers and the generator fill the
    columns directly.
    """

    bytes_total: np.ndarray
    packets_total: np.ndarray
    has_packets: np.ndarray
    rel_start: np.ndarray
    duration: np.ndarray
    label: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    seq_no: np.ndarray
    src_code: np.ndarray
    dst_code: np.ndarray

    def __init__(self, flows: Iterable[FlowRecord], labeled: bool, source_name: str = ""):
        flows = tuple(flows)
        table = _TableBuilder()
        table.add_rows(map(attrgetter(*FlowRecord.__slots__), flows))
        self._assign(*table.columns(), labeled, source_name)
        self._flows = flows

    @classmethod
    def _from_columns(
        cls,
        columns: dict[str, np.ndarray],
        addresses: tuple[str, ...],
        ipv4: np.ndarray | None,
        labeled: bool,
        source_name: str,
    ) -> FlowDataset:
        """A dataset of the columns; ``ipv4`` is ``ipv4_values(addresses)``, given by the caller that knows it."""
        dataset = cls.__new__(cls)
        dataset._assign(columns, addresses, ipv4, labeled, source_name)
        dataset._flows = None
        return dataset

    def _assign(
        self,
        columns: dict[str, np.ndarray],
        addresses: tuple[str, ...],
        ipv4: np.ndarray | None,
        labeled: bool,
        source_name: str,
    ):
        for name, values in columns.items():
            values.flags.writeable = False
            setattr(self, name, values)
        self.addresses = addresses
        # The 32-bit number of each address if all are dotted-quad IPv4, else None; the IP orderings rank these.
        self._ipv4 = ipv4
        self.labeled = labeled
        self.source_name = source_name
        if labeled and (self.label < 0).any():
            raise ValueError("labeled dataset contains a flow without a label")

    def _take(self, rows: slice | np.ndarray) -> FlowDataset:
        """The flows at ``rows`` (a slice or an index array) as a dataset sharing the address table."""
        columns = {name: getattr(self, name)[rows] for name in _COLUMN_TYPES}
        return FlowDataset._from_columns(columns, self.addresses, self._ipv4, self.labeled, self.source_name)

    @property
    def flows(self) -> tuple[FlowRecord, ...]:
        """The flows as records, in dataset order; built on first read."""
        if self._flows is None:
            self._flows = tuple(map(FlowRecord, *self._row_values(slice(None), None), self.seq_no.tolist()))
        return self._flows

    def _row_values(self, rows: slice, absent: object, addresses: Sequence[str] | None = None) -> list[Iterable]:
        """FlowRecord field values from src_ip to label of the flows at ``rows``, column by column.

        ``absent`` stands in for a missing packet count or label, and
        ``addresses``, if given, for the address table.
        """
        address = (self.addresses if addresses is None else addresses).__getitem__
        packets = self.packets_total[rows].tolist()
        has_packets = self.has_packets[rows]
        if not has_packets.all():
            packets = [p if has else absent for p, has in zip(packets, has_packets.tolist())]
        return [
            map(address, self.src_code[rows].tolist()),
            self.src_port[rows].tolist(),
            map(address, self.dst_code[rows].tolist()),
            self.dst_port[rows].tolist(),
            packets,
            self.bytes_total[rows].tolist(),
            self.rel_start[rows].tolist(),
            self.duration[rows].tolist(),
            [absent if v < 0 else v for v in self.label[rows].tolist()],
        ]

    def __len__(self) -> int:
        return len(self.seq_no)

    def __repr__(self) -> str:
        return f"FlowDataset(<{len(self)} flows>, labeled={self.labeled}, source_name={self.source_name!r})"


#: Largest flow size the scoring arrays (int64) can hold.
MAX_SIZE = 2**63 - 1

#: Rows converted to arrays at a time while parsing.
_CHUNK_ROWS = 1024

#: Strict dotted-quad IPv4, exactly as ``ipaddress`` accepts it: four ASCII
#: decimal octets up to 255, without leading zeros.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}\Z")


def _is_address(text: str) -> bool:
    """Whether ``ipaddress.ip_address`` accepts text; dotted-quad IPv4 skips it."""
    if _IPV4.match(text):
        return True
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


def _address_key(text: str) -> bytes:
    """Sort key of an endpoint: packed address bytes, or 0xff + UTF-8 for a hostname."""
    try:
        return ipaddress.ip_address(text).packed
    except ValueError:
        # tshark may emit resolved hostnames; fall back to a stable byte
        # form so the order stays total and deterministic.
        return b"\xff" + text.encode("utf-8", "surrogateescape")


def _address_ranks(addresses: Sequence[str], ipv4: np.ndarray | None = None) -> np.ndarray:
    """Dense rank of each address's sort key; different strings with equal keys tie.

    ``ipv4`` is ``ipv4_values(addresses)``: an all-IPv4 table ranks those
    numbers, and any other ranks packed keys.
    """
    if ipv4 is not None:
        return np.unique(ipv4, return_inverse=True)[1]
    # Imported here because only the address orderings need it: importing
    # socket adds about 5 ms to every start of the command-line tool.
    from socket import inet_aton

    # Object, not bytes (S), keys: an S array drops trailing NUL bytes, so 10.0.0.0 would tie with a00::.
    keys = np.array([inet_aton(text) if _IPV4.match(text) else _address_key(text) for text in addresses], dtype=object)
    return np.unique(keys, return_inverse=True)[1]


class _TableBuilder:
    """Collects flow columns a chunk at a time, with one code per distinct address."""

    def __init__(self):
        self._chunks: dict[str, list[np.ndarray]] = {name: [] for name in _COLUMN_TYPES}
        self._index: dict[str, int] = {}
        # ipv4_values of the address table a call at a time; None once one is not dotted-quad IPv4.
        self._ipv4: list[np.ndarray] | None = []
        self.n_rows = 0

    def codes(self, addresses: Iterable[str], validate: bool) -> np.ndarray | None:
        """Codes of the addresses, adding new strings to the table with the next free code.

        The strings new to the table are checked together as dotted quads
        (``textblock.ipv4_values``), so each distinct string is checked
        once. With ``validate``, if they are not all dotted quads, each is
        checked as an IP address, and one that is not makes the call return
        None; its strings stay in the table, as the caller then abandons
        the parse.
        """
        index = self._index
        known = len(index)
        codes = [index.setdefault(text, len(index)) for text in addresses]
        if len(index) > known and (validate or self._ipv4 is not None):
            new = list(islice(reversed(index), len(index) - known))[::-1]
            values = ipv4_values(new)
            if values is None:
                if validate and not all(map(_is_address, new)):
                    return None
                self._ipv4 = None
            elif self._ipv4 is not None:
                self._ipv4.append(values)
        return np.array(codes, dtype=np.int32)

    def add(self, **columns) -> None:
        """Append one chunk of rows; seq_no defaults to the rows' positions."""
        n = len(columns["bytes_total"])
        columns.setdefault("seq_no", np.arange(self.n_rows, self.n_rows + n))
        for name, dtype in _COLUMN_TYPES.items():
            self._chunks[name].append(np.asarray(columns[name], dtype=dtype))
        self.n_rows += n

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Append rows of checked FlowRecord field values (None: absent; seq_no optional), a chunk at a time."""
        for chunk in chunks(rows, _CHUNK_ROWS):
            src_ip, src_port, dst_ip, dst_port, packets, bytes_total, rel_start, duration, label, *seq_no = zip(*chunk)
            self.add(
                src_code=self.codes(src_ip, validate=False),
                src_port=src_port,
                dst_code=self.codes(dst_ip, validate=False),
                dst_port=dst_port,
                packets_total=[0 if p is None else p for p in packets],
                has_packets=[p is not None for p in packets],
                bytes_total=bytes_total,
                rel_start=rel_start,
                duration=duration,
                label=[-1 if v is None else v for v in label],
                **({"seq_no": seq_no[0]} if seq_no else {}),
            )

    def columns(self) -> tuple[dict[str, np.ndarray], tuple[str, ...], np.ndarray | None]:
        """(columns, address table, its ``ipv4_values``); each column is joined and its chunks freed in turn."""
        columns = {}
        for name, dtype in _COLUMN_TYPES.items():
            chunks = self._chunks[name]
            columns[name] = np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)
            chunks.clear()
        ipv4 = None if self._ipv4 is None else np.concatenate([np.empty(0, dtype=np.uint32), *self._ipv4])
        return columns, tuple(self._index), ipv4

    def dataset(self, labeled: bool | None, source_name: str) -> FlowDataset:
        """The collected flows; ``labeled=None`` means labeled iff every flow has a label."""
        columns, addresses, ipv4 = self.columns()
        if labeled is None:
            labeled = bool((columns["label"] >= 0).all())
        return FlowDataset._from_columns(columns, addresses, ipv4, labeled, source_name)


@contextmanager
def _open_text(source: str | Path | IO) -> Iterator[IO[str]]:
    """Normalize a path / bytes / binary stream / text stream to a text stream.

    Paths are opened and closed here; paths ending in .gz are decompressed
    transparently. A caller's stream is never closed: a binary one is read
    through a wrapper that is detached from it afterwards. Bytes that are
    not UTF-8 raise a ParseError with their byte offset, and for ``bytes``
    input with their line. So does a truncated or corrupt gzip stream, with
    the offset up to which it decompressed.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as binary, _open_text(binary) as stream:
            yield stream
    elif isinstance(source, (bytes, bytearray)):
        try:
            text = source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            offset = len(source) - len(exc.object) + exc.start
            raise _undecodable(exc, offset, _line_breaks(source[:offset]) + 1) from None
        yield io.StringIO(text, newline="")
    elif hasattr(source, "read"):
        binary = isinstance(source.read(0), bytes)
        stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="") if binary else source
        try:
            yield stream
        except UnicodeDecodeError as exc:
            # The wrapper decodes the bytes it last read, which end at the stream's tell().
            offset = source.tell() - len(exc.object) + exc.start if binary and source.seekable() else None
            raise _undecodable(exc, offset) from None
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            offset = source.tell() if binary and source.seekable() else None
            at = "" if offset is None else f" after byte offset {offset}"
            raise ParseError(f"compressed input is truncated or corrupt{at}: {exc}") from None
        finally:
            if binary:
                stream.detach()
    else:
        raise TypeError(f"unsupported input source: {type(source)!r}")


def _line_breaks(data: bytes) -> int:
    """Line breaks in ``data`` as the text reader splits them: LF, CRLF (one break) and a lone CR."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _quote(cell: str | list[str]) -> str:
    """``repr`` of a cell, or of a list of cells, for an error message.

    A repr over 256 characters keeps its first 40 and gives its length, so
    an over-long cell cannot blow up the message.
    """
    text = repr(cell)
    return text if len(text) <= 256 else f"{text[:40]}... ({len(text)} characters)"


def _undecodable(exc: UnicodeDecodeError, offset: int | None, line: int | None = None) -> ParseError:
    at = "" if offset is None else f" at byte offset {offset}"
    return ParseError(f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x}{at}", line)


def _int_field(text: str, name: str, line: int, lo: int = 0, hi: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"field {name} is not an integer: {_quote(text)}", line) from None
    if value < lo:
        raise ParseError(f"field {name} must be >= {lo}, got {value}", line)
    if hi is not None and value > hi:
        raise ParseError(f"field {name} must be <= {hi}, got {value}", line)
    return value


def _float_field(text: str, name: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"field {name} is not a number: {_quote(text)}", line) from None
    if not (value >= 0.0 and math.isfinite(value)):
        raise ParseError(f"field {name} must be finite and non-negative, got {value}", line)
    return value


def _address_field(text: str, name: str, line: int) -> None:
    if not _is_address(text):
        raise ParseError(f"field {name} is not an IP address: {_quote(text)}", line)


def _ints(cells: Sequence[str]) -> np.ndarray:
    """``int()`` of every cell as int64; ValueError or OverflowError if one does not fit."""
    return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))


def _floats(cells: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))


def _optional_ints(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, present) of integer cells where a blank cell means absent."""
    try:
        return _ints(cells), np.ones(len(cells), dtype=bool)
    except ValueError:
        present = np.array([cell.strip() != "" for cell in cells], dtype=bool)
        values = np.zeros(len(cells), dtype=np.int64)
        values[present] = _ints([cell for cell, has in zip(cells, present.tolist()) if has])
        return values, present


_LABEL_CELLS = {"0": 0, "1": 1}


def _check_csv_row(row: Sequence[str], line: int) -> None:
    """Raise the ParseError of a CSV row's first bad field, if it has one."""
    _address_field(row[0].strip(), "src_ip", line)
    _int_field(row[1], "src_port", line, 0, 65535)
    _address_field(row[2].strip(), "dst_ip", line)
    _int_field(row[3], "dst_port", line, 0, 65535)
    packets = None if row[4].strip() == "" else _int_field(row[4], "packets_total", line, 0, MAX_SIZE)
    if _int_field(row[5], "bytes_total", line, 0, MAX_SIZE) < 1 and packets is not None and packets >= 1:
        raise ParseError("flow with packets but zero bytes", line)
    _float_field(row[6], "rel_start_s", line)
    _float_field(row[7], "duration_s", line)


def _csv_columns(table: _TableBuilder, has_label: bool, cells: list[Sequence[str]], lines: Sequence[int]) -> None:
    """Convert rows given column by column, ``lines`` numbering them, as arrays.

    If any check fails, nothing is added: the rows are checked, not
    converted, one by one (``_check_csv_row``), which raises at the first
    bad row.
    """
    try:
        src = table.codes([text.strip() for text in cells[0]], validate=True)
        dst = table.codes([text.strip() for text in cells[2]], validate=True)
        src_port, dst_port, bytes_total = _ints(cells[1]), _ints(cells[3]), _ints(cells[5])
        packets, has_packets = _optional_ints(cells[4])
        rel_start, duration = _floats(cells[6]), _floats(cells[7])
    except (ValueError, OverflowError):
        valid = False
    else:
        valid = (
            src is not None
            and dst is not None
            and bool(((src_port >= 0) & (src_port <= 65535) & (dst_port >= 0) & (dst_port <= 65535)).all())
            and bool(((packets >= 0) & (bytes_total >= 0)).all())
            and not (has_packets & (packets >= 1) & (bytes_total < 1)).any()
            and all(((times >= 0.0) & np.isfinite(times)).all() for times in (rel_start, duration))
        )
    if not valid:
        for row, line in zip(zip(*cells), lines):
            _check_csv_row(row, line)
        raise AssertionError(f"lines {lines[0]}..{lines[-1]} fail the column checks but pass the row checks")
    label = [_LABEL_CELLS.get(text.strip(), -1) for text in cells[8]] if has_label else np.full(len(lines), -1)
    table.add(
        src_code=src,
        src_port=src_port,
        dst_code=dst,
        dst_port=dst_port,
        packets_total=packets,
        has_packets=has_packets,
        bytes_total=bytes_total,
        rel_start=rel_start,
        duration=duration,
        label=label,
    )


def parse_flow_csv(source: str | Path | IO, source_name: str = "") -> FlowDataset:
    """Parse the canonical flow CSV.

    Header must be ``src_ip,src_port,dst_ip,dst_port,packets_total,
    bytes_total,rel_start_s,duration_s`` with an optional trailing ``label``
    column. An empty packets_total cell means the source had no packet
    counts. A label cell that is not exactly 0 or 1 is treated as absent,
    which makes the whole dataset unlabeled rather than failing the parse.

    Lines are read in chunks of ``_CHUNK_ROWS`` (``textblock.chunks``). A
    chunk of plain lines (see ``textblock.plain_columns``) is split on
    commas; the first chunk that is not plain, and the chunks after it, are
    read by ``csv.reader``, whose rows are converted ``_CHUNK_ROWS`` at a
    time. Both read the same rows, so quoting rules, messages and line
    numbers do not depend on the chunks.
    """
    with _open_text(source) as stream:
        reader = None
        lines_before = 0  # lines read before the first line of ``reader``
        try:
            first = list(islice(stream, 1))
            columns = plain_columns(first, first[0].count(",") + 1) if first else None
            if columns is None:
                reader = csv.reader(chain(first, stream))
                header = tuple(cell.strip() for cell in next(reader))
            else:
                header = tuple(column[0].strip() for column in columns)
            if header[: len(CSV_COLUMNS)] != CSV_COLUMNS or len(header) > len(CSV_COLUMNS) + 1:
                raise FormatError(f"unexpected header: {_quote(','.join(header))}")
            has_label = len(header) == len(CSV_COLUMNS) + 1
            if has_label and header[-1] != CSV_LABEL_COLUMN:
                raise FormatError(f"unexpected header: {_quote(','.join(header))}")
            table = _TableBuilder()
            row = 2  # the line number of the next row
            blocks = chunks(stream, _CHUNK_ROWS)
            for lines in blocks:
                cells = plain_columns(lines, len(header))
                if cells is None:
                    lines_before = (1 if reader is None else reader.line_num) + row - 2  # header and plain lines
                    reader = csv.reader(chain(lines, chain.from_iterable(blocks)))
                    for numbered in chunks(_csv_rows(reader, len(header), row), _CHUNK_ROWS):
                        rows, numbers = zip(*numbered)
                        _csv_columns(table, has_label, list(zip(*rows)), numbers)
                    break
                _csv_columns(table, has_label, cells, range(row, row + len(lines)))
                row += len(lines)
                del lines, cells  # free this block before the next one is read
        except StopIteration:
            raise FormatError("missing header line") from None
        except csv.Error as exc:  # such as a cell over the field limit
            raise ParseError(str(exc), lines_before + reader.line_num) from None
    return table.dataset(labeled=None, source_name=source_name)


def _csv_rows(reader: Iterator[list[str]], width: int, start: int) -> Iterator[tuple[list[str], int]]:
    """(row, line) of each row that is not blank; ``start`` numbers the first."""
    for lineno, row in enumerate(reader, start=start):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", lineno)
        yield row, lineno


def write_flow_csv(dataset: FlowDataset, sink: str | Path | IO[str]) -> None:
    """Serialize a dataset to the canonical flow CSV (round-trips exactly).

    The text is that of ``csv.writer``: floats are written as ``repr``, so
    they round-trip exactly, and addresses are quoted by csv rules. Each
    chunk of rows is formatted with one ``%`` template.
    """
    if isinstance(sink, (str, Path)):
        stream, owns = open(sink, "w", encoding="utf-8", newline=""), True
    else:
        stream, owns = sink, False
    try:
        with_label = dataset.labeled or bool((dataset.label >= 0).any())
        header = CSV_COLUMNS + ((CSV_LABEL_COLUMN,) if with_label else ())
        stream.write(",".join(header) + "\n")
        addresses = csv_cells(dataset.addresses)
        # rel_start_s and duration_s are floats (%r); the other cells are ints, addresses or "".
        template = ",".join(["%s"] * 6 + ["%r"] * 2 + ["%s"] * with_label) + "\n"
        for lo in range(0, len(dataset), _CHUNK_ROWS):
            values = dataset._row_values(slice(lo, lo + _CHUNK_ROWS), "", addresses)[: len(header)]
            cells = tuple(chain.from_iterable(zip(*values)))
            stream.write(template * (len(cells) // len(header)) % cells)
    finally:
        if owns:
            stream.close()


_BYTE_SUFFIXES = {"bytes": 1, "kB": 1_000, "MB": 1_000_000, "GB": 1_000_000_000}


def _split_endpoint(token: str, line: int) -> tuple[str, int]:
    addr, sep, port = token.rpartition(":")
    if not sep:
        raise ParseError(f"endpoint without port: {_quote(token)}", line)
    addr = addr.strip("[]")
    try:
        value = int(port)
    except ValueError:
        raise ParseError(f"endpoint with non-numeric port: {_quote(token)}", line) from None
    if not 0 <= value <= 65535:
        raise ParseError(f"endpoint port out of range 0..65535: {_quote(token)}", line)
    return addr, value


def parse_tshark_conversations(source: str | Path | IO, source_name: str = "") -> FlowDataset:
    """Parse the text table printed by ``tshark -q -z conv,tcp``.

    Each data line carries two endpoints and eight numeric fields: frames
    and bytes for each direction and in total, then relative start and
    duration. Depending on the tshark version, byte columns are either plain
    integers or values with an SI suffix ("56 kB" means 56000); both forms
    are accepted, as are thousands separators. As in the flow CSV, endpoint
    ports must be in 0..65535 and a conversation with frames must have bytes.
    Flows come out unlabeled.
    """
    table = _TableBuilder()
    with _open_text(source) as stream:
        table.add_rows(_tshark_rows(stream))
    return table.dataset(labeled=False, source_name=source_name)


def _tshark_rows(stream: IO[str]) -> Iterator[tuple]:
    """FlowRecord field values from src_ip to label (None) per conversation line."""
    saw_table = False
    for lineno, line in enumerate(stream, start=1):
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
            raise ParseError(f"unrecognized conversation line: {_quote(text)}", lineno)
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
                raise ParseError(f"unparseable numeric token {_quote(token)}", lineno) from None
            if i + 1 < len(tail) and not _looks_numeric(tail[i + 1]):
                suffix = tail[i + 1]
                if suffix not in _BYTE_SUFFIXES:
                    raise ParseError(f"unknown unit suffix {_quote(suffix)}", lineno)
                value *= _BYTE_SUFFIXES[suffix]
                i += 1
            if value < 0:
                raise ParseError(f"negative count {_quote(token)}", lineno)
            if not value <= MAX_SIZE:
                raise ParseError(f"count {_quote(token)} is not a finite number up to {MAX_SIZE}", lineno)
            counts.append(int(round(value)))
            i += 1
        if counts[4] >= 1 and counts[5] < 1:
            raise ParseError("flow with packets but zero bytes", lineno)
        if len(tail) - i != 2:
            raise ParseError(f"expected relative start and duration, got {_quote(tail[i:])}", lineno)
        rel_start = _float_field(tail[i], "relative start", lineno)
        duration = _float_field(tail[i + 1], "duration", lineno)
        yield src_ip, src_port, dst_ip, dst_port, counts[4], counts[5], rel_start, duration, None
    if not saw_table:
        raise FormatError("no conversations table found in input")


def _looks_numeric(token: str) -> bool:
    try:
        float(token.replace(",", ""))
        return True
    except ValueError:
        return False


def _kdd_size(src_text: str, dst_text: str, line: int) -> int:
    src_bytes = _int_field(src_text.strip(), "src_bytes", line)
    dst_bytes = _int_field(dst_text.strip(), "dst_bytes", line)
    if src_bytes + dst_bytes > MAX_SIZE:
        raise ParseError(f"src_bytes + dst_bytes exceeds {MAX_SIZE}", line)
    return src_bytes + dst_bytes


def adapt_kdd(source: str | Path | IO, source_name: str = "", max_flows: int | None = None) -> FlowDataset:
    """Adapt KDD Cup 1999 connection records (41 features + class label).

    Only TCP rows are kept. The format has neither timestamps nor endpoint
    addresses, so rel_start is the retained row index, duration is 0 and
    endpoints are placeholders; start-time orderings therefore reduce to the
    file's natural connection order. Packet counts are absent (byte sizes
    only). The class label maps to 0 for "normal." and 1 for everything
    else; a trailing dot on the class is optional. ``max_flows`` truncates
    the dataset after that many TCP flows (for desk-scale runs); no line
    after the last one kept is read.

    Lines are read in chunks (``textblock.chunks``) and converted
    column-wise: each line is split up to its byte counts, the byte counts
    of the TCP rows are converted and checked as arrays, and the class is
    the line's last cell. A chunk that holds a quote, a CR that does not
    end a CRLF line end, a short or blank line, or a byte count that is not
    a non-negative integer or overflows the sum, is read row by row
    instead, which raises at its first bad line with that line's number.
    """
    if max_flows is not None and max_flows < 1:
        raise ValueError(f"max_flows must be at least 1, got {max_flows}")
    sizes, labels = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int8)]
    with _open_text(source) as stream:
        lineno, kept = 1, 0
        # A line holds at most one record, so a chunk ends at the max_flows-th TCP row at the latest.
        for lines in chunks(stream, lambda: _CHUNK_ROWS if max_flows is None else min(_CHUNK_ROWS, max_flows - kept)):
            block_sizes, block_labels = _kdd_block(lines) or _kdd_rows(lines, lineno)
            sizes.append(block_sizes)
            labels.append(block_labels)
            lineno += len(lines)
            kept += len(block_sizes)
            if kept == max_flows:
                break
            del lines  # free this block before the next one is read
    # The other columns are constant: placeholder endpoints (code 0) and ports, no packets, no duration.
    columns = {name: np.zeros(kept, dtype=dtype) for name, dtype in _COLUMN_TYPES.items()}
    columns.update(
        bytes_total=np.concatenate(sizes),
        label=np.concatenate(labels),
        rel_start=np.arange(kept, dtype=np.float64),
        seq_no=np.arange(kept),
    )
    return FlowDataset._from_columns(
        columns, ("0.0.0.0",), np.zeros(1, dtype=np.uint32), labeled=True, source_name=source_name
    )


def _kdd_block(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """(bytes_total, label) of the TCP records among the lines, column-wise; None if a check fails."""
    text = "".join(lines)
    # A CR is read only as part of a CRLF line end: strip() drops it from the class, the line's last cell.
    if '"' in text or "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    heads = [line.split(",", 6) for line in lines]
    try:
        # Cells 6 to the last: at least 42 fields in all.
        if min([head[6].count(",") for head in heads]) < 35:
            return None
    except IndexError:  # a line of fewer than 7 fields, or a blank one
        return None
    tcp_names = {name for name in {head[1] for head in heads} if name.strip().lower() == "tcp"}
    tcp = [head for head in heads if head[1] in tcp_names]
    try:
        src, dst = _ints([head[4] for head in tcp]), _ints([head[5] for head in tcp])
    except (ValueError, OverflowError):
        return None
    if not ((src >= 0) & (dst >= 0)).all() or not (src <= MAX_SIZE - dst).all():
        return None
    classes = [head[6].rpartition(",")[2] for head in tcp]
    normal = {cls for cls in set(classes) if cls.strip().rstrip(".") == "normal"}
    return src + dst, np.array([cls not in normal for cls in classes], dtype=np.int8)


def _kdd_rows(lines: list[str], lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """(bytes_total, label) of the TCP records among the lines, row by row; ``lineno`` numbers the first line.

    Lines are split on commas. A line with a quote, or with a CR that a text
    stream split on LF alone left in it, is read by ``csv.reader``.
    """
    sizes, labels = [], []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if '"' in line or "\r" in line:
            try:
                row = next(csv.reader([line]))
            except csv.Error as exc:  # such as a cell over the field limit
                raise ParseError(str(exc), lineno) from None
        else:
            row = line.split(",")
        if len(row) < 42:
            raise ParseError(f"expected at least 42 fields, got {len(row)}", lineno)
        if row[1].strip().lower() != "tcp":
            continue
        sizes.append(_kdd_size(row[4], row[5], lineno))
        labels.append(0 if row[-1].strip().rstrip(".") == "normal" else 1)
    return np.array(sizes, dtype=np.int64), np.array(labels, dtype=np.int8)


def flow_order(dataset: FlowDataset, scheme: OrderingScheme) -> np.ndarray:
    """The permutation that sorts the dataset under one of the four orderings.

    Key attributes compare left to right; addresses compare on their packed
    byte form, ports numerically. Flows with equal keys keep their raw-log
    order (ascending seq_no), which also makes the ordering idempotent.
    """
    if scheme is OrderingScheme.START_END:
        keys = (dataset.rel_start, dataset.rel_start + dataset.duration)
    elif scheme is OrderingScheme.END_START:
        keys = (dataset.rel_start + dataset.duration, dataset.rel_start)
    elif scheme is OrderingScheme.SRC_DST_START:
        ranks = _address_ranks(dataset.addresses, dataset._ipv4)
        keys = (ranks[dataset.src_code], ranks[dataset.dst_code], dataset.rel_start)
    elif scheme is OrderingScheme.FIVE_TUPLE_START:
        ranks = _address_ranks(dataset.addresses, dataset._ipv4)
        keys = (ranks[dataset.src_code], dataset.src_port, ranks[dataset.dst_code], dataset.dst_port, dataset.rel_start)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown ordering scheme: {scheme!r}")
    # lexsort is stable and takes its primary key last.
    return np.lexsort((dataset.seq_no,) + keys[::-1])


def order_flows(dataset: FlowDataset, scheme: OrderingScheme) -> FlowDataset:
    """Return the dataset sorted under one of the four orderings (see ``flow_order``)."""
    return dataset._take(flow_order(dataset, scheme))
