"""Flow dataset ingestion and ordering.

Three input formats produce the same in-memory dataset: the canonical flow
CSV (this package's interchange format), the plain-text TCP conversation
table printed by ``tshark -r <pcap> -q -z conv,tcp``, and KDD Cup 1999
connection records. Parsing is single-pass streaming: every parser reads
its input in chunks of ``_CHUNK_ROWS`` lines or rows (``textblock.chunks``)
and converts each chunk before it reads the next, so a bad row read before
a read error raises first. The table builder (``_TableBuilder``) appends
each converted chunk to columns that grow in place. The flow CSV and KDD
records convert a chunk column-wise; a chunk that fails a check is
checked, not converted, row by row, which raises at its first bad row. The
flow CSV splits plain chunks on commas and hands the input from its first
other chunk to ``csv.reader``; KDD chunks drop blank lines and hand only
lines with a quote or a stray CR to it. tshark checks each row as it reads
it. Input that is not UTF-8, a truncated or corrupt gzip file, or a CSV
cell over the ``csv`` field limit, is a ParseError.

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

``addresses`` is a tuple of the distinct endpoint strings. If all are
dotted-quad IPv4, the codes are ranks of their sorted 32-bit numbers, which
the IP orderings sort, and the strings are built on first read. The arrays
are read-only and nothing changes a dataset once built, so it is safe to
share between threads: threads that build a cached view at once get equal ones.
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParseError
from .textblock import chunks, csv_cells, ipv4_texts, ipv4_values, plain_columns

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

    ``FlowDataset(flows, labeled, source_name)`` is the table builder's
    dataset of the FlowRecords, seq_nos and all, kept as ``.flows``; parsers
    and the generator fill the columns. Only ``_from_columns`` sets fields.
    All-IPv4 codes are ranks of sorted numbers, and ``addresses`` is built on first read.
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
        self.__dict__.update(vars(table.dataset(labeled, source_name)), _flows=flows)

    @classmethod
    def _from_columns(
        cls,
        columns: dict[str, np.ndarray],
        addresses: tuple[str, ...] | None,
        ipv4: np.ndarray | None,
        labeled: bool,
        source_name: str,
    ) -> FlowDataset:
        """A dataset of the columns whose codes index ``addresses``, or ``ipv4``: sorted distinct IPv4 numbers."""
        dataset = cls.__new__(cls)
        for name, values in columns.items():
            values.flags.writeable = False
            setattr(dataset, name, values)
        dataset._addresses, dataset._ipv4 = addresses, ipv4
        dataset.labeled = labeled
        dataset.source_name = source_name
        dataset._flows = None
        if labeled and (dataset.label < 0).any():
            raise ValueError("labeled dataset contains a flow without a label")
        return dataset

    def _take(self, rows: slice | np.ndarray) -> FlowDataset:
        """The flows at ``rows`` (a slice or an index array) as a dataset sharing the address table."""
        columns = {name: getattr(self, name)[rows] for name in _COLUMN_TYPES}
        return FlowDataset._from_columns(columns, self._addresses, self._ipv4, self.labeled, self.source_name)

    @property
    def addresses(self) -> tuple[str, ...]:
        """The distinct endpoint strings that the codes index; built on first read."""
        if self._addresses is None:
            self._addresses = tuple(ipv4_texts(self._ipv4))
        return self._addresses

    @property
    def flows(self) -> tuple[FlowRecord, ...]:
        """The flows as records, in dataset order; built on first read."""
        if self._flows is None:
            values = self._row_values(slice(None), None, self.addresses)
            self._flows = tuple(map(FlowRecord, *values, self.seq_no.tolist()))
        return self._flows

    def _row_values(self, rows: slice, absent: object, addresses: Sequence[str] | None) -> list[Iterable]:
        """FlowRecord field values from src_ip to label of the flows at ``rows``, column by column.

        ``absent`` stands in for a missing packet count or label, and
        ``addresses`` for the address table; None formats the IPv4 numbers.
        """
        src, dst = (
            ipv4_texts(self._ipv4[codes]) if addresses is None else map(addresses.__getitem__, codes.tolist())
            for codes in (self.src_code[rows], self.dst_code[rows])
        )
        packets = self.packets_total[rows].tolist()
        has_packets = self.has_packets[rows]
        if not has_packets.all():
            packets = [p if has else absent for p, has in zip(packets, has_packets.tolist())]
        return [
            src,
            self.src_port[rows].tolist(),
            dst,
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


def _address_ranks(addresses: Sequence[str]) -> np.ndarray:
    """Dense rank of each address's sort key; different strings with equal keys tie."""
    # Imported here because only the address orderings need it: importing
    # socket adds about 5 ms to every start of the command-line tool.
    from socket import inet_aton

    # Object, not bytes (S), keys: an S array drops trailing NUL bytes, so 10.0.0.0 would tie with a00::.
    keys = np.array([inet_aton(text) if _IPV4.match(text) else _address_key(text) for text in addresses], dtype=object)
    return np.unique(keys, return_inverse=True)[1]


def _rank_ipv4(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The sorted distinct numbers of two IPv4 code columns (uint32 bits as int32), whose numbers become their ranks."""
    ipv4, ranks = np.unique(np.concatenate((src, dst)).view(np.uint32), return_inverse=True)
    src[:], dst[:] = ranks[: len(src)], ranks[len(src) :]
    return ipv4


class _TableBuilder:
    """Collects flow columns a chunk at a time, with one code per distinct address.

    Each column is one array that ``add`` grows in place, doubling it with ``ndarray.resize`` (a realloc), and
    ``columns`` cuts to ``n_rows``. No view of a column is kept across an ``add``.
    """

    def __init__(self):
        self._columns = {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMN_TYPES.items()}
        self._index: dict[str, int] | None = None  # string table; None while the code columns hold IPv4 numbers (int32)
        self.n_rows = 0

    def codes(self, src: Sequence[str], dst: Sequence[str], validate: bool) -> dict[str, np.ndarray] | None:
        """The src_code and dst_code of one chunk; with ``validate``, None if a new string is not an IP address."""
        if self._index is None:
            values = ipv4_values([*src, *dst])
            if values is not None:
                return dict(zip(("src_code", "dst_code"), np.split(values.view(np.int32), [len(src)])))
            self._index = {}  # the first chunk that is not all IPv4: intern the numbers so far in place
            for name in ("src_code", "dst_code"):
                codes = self._columns[name][: self.n_rows]
                codes[:] = self._intern(ipv4_texts(codes.view(np.uint32)))
        if validate and not all(map(_is_address, set(src).union(dst).difference(self._index))):
            return None
        return {"src_code": self._intern(src), "dst_code": self._intern(dst)}

    def _intern(self, texts: Iterable[str]) -> np.ndarray:
        index = self._index
        return np.array([index.setdefault(text, len(index)) for text in texts], dtype=np.int32)

    def add(self, **columns) -> None:
        """Append one chunk of rows; seq_no defaults to the rows' positions."""
        start, end = self.n_rows, self.n_rows + len(columns["bytes_total"])
        columns.setdefault("seq_no", np.arange(start, end))
        for name, column in self._columns.items():
            if end > len(column):
                column.resize(max(end, 2 * len(column)), refcheck=False)
            column[start:end] = columns[name]
        self.n_rows = end

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Append rows of checked FlowRecord field values (None: absent; seq_no optional), a chunk at a time."""
        for chunk in chunks(rows, _CHUNK_ROWS):
            src_ip, src_port, dst_ip, dst_port, packets, bytes_total, rel_start, duration, label, *seq_no = zip(*chunk)
            self.add(
                **self.codes(src_ip, dst_ip, validate=False),
                src_port=src_port,
                dst_port=dst_port,
                packets_total=[0 if p is None else p for p in packets],
                has_packets=[p is not None for p in packets],
                bytes_total=bytes_total,
                rel_start=rel_start,
                duration=duration,
                label=[-1 if v is None else v for v in label],
                **({"seq_no": seq_no[0]} if seq_no else {}),
            )

    def columns(self) -> tuple[dict[str, np.ndarray], tuple[str, ...] | None, np.ndarray | None]:
        """(columns, address table, IPv4 numbers), one of the two None; the builder hands its arrays over."""
        columns, self._columns = self._columns, None
        for column in columns.values():
            column.resize(self.n_rows, refcheck=False)
        if self._index is not None:
            return columns, tuple(self._index), None
        return columns, None, _rank_ipv4(columns["src_code"], columns["dst_code"])

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
    transparently. Paths and ``bytes`` (as a ``BytesIO``) take the binary
    stream path: one text wrapper decodes what it reads, and is detached
    afterwards, so a caller's stream is never closed. Bytes that are not
    UTF-8 raise a ParseError with their byte offset, and for ``bytes`` input
    with their line. So does a truncated or corrupt gzip stream, with the
    offset up to which it decompressed.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as binary, _open_text(binary) as stream:
            yield stream
        return
    data = source if isinstance(source, (bytes, bytearray)) else None
    source = source if data is None else io.BytesIO(data)
    if not hasattr(source, "read"):
        raise TypeError(f"unsupported input source: {type(source)!r}")
    binary = isinstance(source.read(0), bytes)
    stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="") if binary else source
    try:
        yield stream
    except UnicodeDecodeError as exc:
        # The wrapper decodes the bytes it last read, which end at the stream's tell().
        offset = source.tell() - len(exc.object) + exc.start if binary and source.seekable() else None
        raise _undecodable(exc, offset, None if data is None else _line_breaks(data[:offset]) + 1) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        offset = source.tell() if binary and source.seekable() else None
        at = "" if offset is None else f" after byte offset {offset}"
        raise ParseError(f"compressed input is truncated or corrupt{at}: {exc}") from None
    finally:
        if binary:
            stream.detach()


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
        codes = table.codes([text.strip() for text in cells[0]], [text.strip() for text in cells[2]], validate=True)
        src_port, dst_port, bytes_total = _ints(cells[1]), _ints(cells[3]), _ints(cells[5])
        packets, has_packets = _optional_ints(cells[4])
        rel_start, duration = _floats(cells[6]), _floats(cells[7])
    except (ValueError, OverflowError):
        valid = False
    else:
        valid = (
            codes is not None
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
        **codes,
        src_port=src_port,
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
        read = 0  # lines read before the first line of ``reader``, or of the next block
        try:
            first = list(islice(stream, 1))
            columns = plain_columns(first, first[0].count(",") + 1) if first else None
            if columns is None:
                reader = csv.reader(chain(first, stream))
                header = tuple(cell.strip() for cell in next(reader))
            else:
                header = tuple(column[0].strip() for column in columns)
            if header not in (CSV_COLUMNS, CSV_COLUMNS + (CSV_LABEL_COLUMN,)):
                raise FormatError(f"unexpected header: {_quote(','.join(header))}")
            has_label = len(header) > len(CSV_COLUMNS)
            table = _TableBuilder()
            read = 1 if reader is None else reader.line_num
            blocks = chunks(stream, _CHUNK_ROWS)
            for lines in blocks:
                cells = plain_columns(lines, len(header))
                if cells is None:
                    reader = csv.reader(chain(lines, chain.from_iterable(blocks)))
                    for numbered in chunks(_csv_rows(reader, len(header), read), _CHUNK_ROWS):
                        rows, numbers = zip(*numbered)
                        _csv_columns(table, has_label, list(zip(*rows)), numbers)
                    break
                _csv_columns(table, has_label, cells, range(read + 1, read + 1 + len(lines)))
                read += len(lines)
                del lines, cells  # free this block before the next one is read
        except StopIteration:
            raise FormatError("missing header line") from None
        except csv.Error as exc:  # such as a cell over the field limit
            raise ParseError(str(exc), read + reader.line_num) from None
    return table.dataset(labeled=None, source_name=source_name)


def _csv_rows(reader, width: int, before: int) -> Iterator[tuple[list[str], int]]:
    """(row, line) of each non-blank row of a ``csv.reader`` that follows ``before`` lines; ``line`` is its first."""
    line = before + 1
    for row in reader:
        if row:
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line)
            yield row, line
        line = before + reader.line_num + 1


def write_flow_csv(dataset: FlowDataset, sink: str | Path | IO[str]) -> None:
    """Serialize a dataset to the canonical flow CSV (round-trips exactly).

    One ``with`` opens and closes a path, or takes a caller's stream and leaves it open. The text is that of
    ``csv.writer``: floats are written as ``repr``, so they round-trip exactly, and addresses are quoted by csv
    rules. Each chunk is one ``%`` template; unbuilt IPv4 strings are formatted per chunk.
    """
    with nullcontext(sink) if hasattr(sink, "write") else open(sink, "w", encoding="utf-8", newline="") as stream:
        with_label = dataset.labeled or bool((dataset.label >= 0).any())
        header = CSV_COLUMNS + ((CSV_LABEL_COLUMN,) if with_label else ())
        stream.write(",".join(header) + "\n")
        addresses = None if dataset._addresses is None else csv_cells(dataset._addresses)
        # rel_start_s and duration_s are floats (%r); the other cells are ints, addresses or "".
        template = ",".join(["%s"] * 6 + ["%r"] * 2 + ["%s"] * with_label) + "\n"
        for lo in range(0, len(dataset), _CHUNK_ROWS):
            values = dataset._row_values(slice(lo, lo + _CHUNK_ROWS), "", addresses)[: len(header)]
            cells = tuple(chain.from_iterable(zip(*values)))
            stream.write(template * (len(cells) // len(header)) % cells)


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


def _kdd_size(src_text: str, dst_text: str, line: int) -> None:
    """Raise the ParseError of a TCP line's byte counts unless they are non-negative integers whose sum fits int64."""
    if _int_field(src_text.strip(), "src_bytes", line) + _int_field(dst_text.strip(), "dst_bytes", line) > MAX_SIZE:
        raise ParseError(f"src_bytes + dst_bytes exceeds {MAX_SIZE}", line)


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

    Lines are converted a chunk at a time, column-wise (``_kdd_block``),
    blank, quoted and CR-ended lines alike; a chunk that fails a check is
    checked line by line instead, which raises at its first bad line.
    """
    if max_flows is not None and max_flows < 1:
        raise ValueError(f"max_flows must be at least 1, got {max_flows}")
    blocks = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))]  # (bytes_total, label) of each chunk
    with _open_text(source) as stream:
        lineno, kept = 1, 0
        # A line holds at most one record, so a chunk ends at the max_flows-th TCP row at the latest.
        for lines in chunks(stream, lambda: _CHUNK_ROWS if max_flows is None else min(_CHUNK_ROWS, max_flows - kept)):
            blocks.append(_kdd_block(lines, lineno))
            lineno += len(lines)
            kept += len(blocks[-1][0])
            if kept == max_flows:
                break
            del lines  # free this block before the next one is read
    # The other columns are constant: placeholder endpoints (code 0) and ports, no packets, no duration.
    columns = {name: np.zeros(kept, dtype=dtype) for name, dtype in _COLUMN_TYPES.items()}
    columns["bytes_total"], columns["label"] = map(np.concatenate, zip(*blocks))
    columns.update(rel_start=np.arange(kept, dtype=np.float64), seq_no=np.arange(kept))
    return FlowDataset._from_columns(columns, None, np.zeros(1, dtype=np.uint32), True, source_name)


def _kdd_block(lines: list[str], lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """(bytes_total, label) of the TCP records among the lines, column-wise; ``lineno`` numbers the first line.

    Each line's head is ``split(",", 6)``, whose last cell ends in the class.
    A block with a quote, a CR outside a CRLF or a short line reads its odd
    lines again (``_kdd_cells``), drops blank ones and makes a class's commas
    semicolons, which keeps it not normal. If a check fails, ``_kdd_rows`` raises.
    """
    text = "".join(lines)
    heads = [line.split(",", 6) for line in lines]
    quote, stray_cr = '"' in text, "\r" in text and text.count("\r") != text.count("\r\n")
    try:  # 35 commas after cell 6 make 42 fields; head[6] reads faster than head[-1]
        commas = [head[6].count(",") for head in heads]
    except IndexError:  # a line of fewer than 7 cells, such as a blank one: its last cell holds no comma
        commas = [head[-1].count(",") for head in heads]
    fewest = min(commas)
    try:
        if quote or stray_cr or fewest < 35:
            odd = [i for i, count in enumerate(commas) if count < 35] if fewest < 35 else []
            odd += [i for i, line in enumerate(lines) if '"' in line] if quote else []
            odd += [i for i, line in enumerate(lines) if "\r" in line.rstrip("\r\n")] if stray_cr else []
            for i in sorted(set(odd), reverse=True):  # from the last: dropping a head keeps the earlier indices
                row = _kdd_cells(lines[i])
                heads[i : i + 1] = [row[:6] + ["," * (len(row) - 7) + row[-1].replace(",", ";")]] if row else []
                commas[i] = len(row) - 7 if row else 35
            fewest = min(commas)
        tcp_names = {name for name in {head[1] for head in heads} if name.strip().lower() == "tcp"}
        tcp = [head for head in heads if head[1] in tcp_names]
        try:
            src, dst = _ints([head[4] for head in tcp]), _ints([head[5] for head in tcp])
        except ValueError:  # a count that only str.strip() cleans, such as "\x1c15"
            src, dst = (_ints([head[k].strip() for head in tcp]) for k in (4, 5))
        valid = fewest >= 35 and bool(((src >= 0) & (dst >= 0) & (src <= MAX_SIZE - dst)).all())
    except (IndexError, ValueError, OverflowError, csv.Error):
        valid = False
    if not valid:
        _kdd_rows(lines, lineno)
    classes = [head[6].rpartition(",")[2] for head in tcp]
    normal = {cls for cls in set(classes) if cls.strip().rstrip(".") == "normal"}
    return src + dst, np.array([cls not in normal for cls in classes], dtype=np.int8)


def _kdd_cells(line: str) -> list[str]:
    """A line's cells: split on commas, or read by ``csv.reader`` if it holds a quote or a CR before its line end."""
    line = line.rstrip("\r\n")
    if '"' in line or "\r" in line:
        return next(csv.reader([line]))
    return line.split(",") if line else []


def _kdd_rows(lines: list[str], lineno: int) -> None:
    """Raise the first bad line's ParseError, checked row by row; ``lineno`` numbers the first. Else AssertionError."""
    for number, line in enumerate(lines, start=lineno):
        try:
            row = _kdd_cells(line)
        except csv.Error as exc:  # such as a cell over the field limit
            raise ParseError(str(exc), number) from None
        if row and len(row) < 42:
            raise ParseError(f"expected at least 42 fields, got {len(row)}", number)
        if row and row[1].strip().lower() == "tcp":
            _kdd_size(row[4], row[5], number)
    raise AssertionError(f"lines {lineno}..{lineno + len(lines) - 1} fail the column checks but pass the row checks")


def flow_order(dataset: FlowDataset, scheme: OrderingScheme) -> np.ndarray:
    """The permutation that sorts the dataset under one of the four orderings.

    Key attributes compare left to right; addresses compare on their packed
    byte form, ports numerically. Flows with equal keys keep their raw-log
    order (ascending seq_no), which also makes the ordering idempotent.
    """
    src, dst = dataset.src_code, dataset.dst_code  # ranks already in an all-IPv4 table
    if dataset._ipv4 is None and scheme in (OrderingScheme.SRC_DST_START, OrderingScheme.FIVE_TUPLE_START):
        ranks = _address_ranks(dataset.addresses)
        src, dst = ranks[src], ranks[dst]
    if scheme is OrderingScheme.START_END:
        keys = (dataset.rel_start, dataset.rel_start + dataset.duration)
    elif scheme is OrderingScheme.END_START:
        keys = (dataset.rel_start + dataset.duration, dataset.rel_start)
    elif scheme is OrderingScheme.SRC_DST_START:
        keys = (src, dst, dataset.rel_start)
    elif scheme is OrderingScheme.FIVE_TUPLE_START:
        keys = (src, dataset.src_port, dst, dataset.dst_port, dataset.rel_start)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown ordering scheme: {scheme!r}")
    # lexsort is stable and takes its primary key last.
    return np.lexsort((dataset.seq_no,) + keys[::-1])


def order_flows(dataset: FlowDataset, scheme: OrderingScheme) -> FlowDataset:
    """Return the dataset sorted under one of the four orderings (see ``flow_order``)."""
    return dataset._take(flow_order(dataset, scheme))
