"""Flow dataset ingestion and ordering.

Three input formats produce the same in-memory dataset: the canonical flow
CSV (this package's interchange format), the plain-text TCP conversation
table printed by ``tshark -r <pcap> -q -z conv,tcp``, and KDD Cup 1999
connection records. Parsing is single-pass streaming: every parser reads
a chunk of at most ``_CHUNK_ROWS`` lines or rows at a time and converts it
before it reads the next, so a bad row read before a read error raises
first. The table builder (``_TableBuilder``) checks each converted chunk
against the one set of column rules and appends it to columns that grow in
place; the flow CSV, tshark and ``FlowDataset(flows)`` build through it.
The flow CSV converts a plain chunk with one ``np.loadtxt`` call, else
reads it with ``csv.reader``: on its own if it holds rows of the header's
width only, else with the rest of the input; a chunk that fails a check
is checked row by row, which raises at its first bad row. KDD bytes are
read raw, cut at line ends and checked as UTF-8 only where converted, so
the first error in file order raises (``_line_blocks``); a block goes
through one comma index, only odd lines one by one (``_kdd_block``).
tshark checks each row as it reads it.
Input that is not UTF-8, a truncated or corrupt gzip file, or a CSV cell
over the ``csv`` field limit, is a ParseError.

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
Parsers may run on several threads at once: they change no process-wide state.
``dataset.flows`` is the same table as a tuple of ``FlowRecord``; it is
built on first read and cached, and scoring never reads it.
"""

from __future__ import annotations

import csv
import gzip
import io
import ipaddress
import math
import numbers
import re
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParseError
from .textblock import chunks, ipv4_texts, ipv4_values, plain_text, printable

CSV_COLUMNS = ("src_ip", "src_port", "dst_ip", "dst_port", "packets_total", "bytes_total", "rel_start_s", "duration_s")
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

#: Rows converted to arrays at a time while parsing, and bytes asked of a binary KDD source per read.
_CHUNK_ROWS, _READ_BYTES = 1024, 128 * 1024

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
    """The sorted distinct numbers of two IPv4 code columns (uint32 bits as int32), whose numbers become their ranks.

    Its working set is about 20 B a value: the number, its int64 sort index, the sorted number (then its rank), a
    mask and the distinct numbers (4 + 8 + 4 + 1 + up to 4). ``np.unique(..., return_inverse=True)`` holds about 40."""
    codes = np.concatenate((src, dst))
    order = codes.view(np.uint32).argsort()
    ordered = codes.view(np.uint32)[order]
    first = np.ones(len(ordered), dtype=bool)  # the first of each run of equal numbers
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    ipv4 = ordered[first]
    ranks = ordered.view(np.int32)  # in the sorted numbers' place: np.cumsum(first, dtype=np.int32) holds a cast copy
    ranks[:] = first
    np.cumsum(ranks, out=ranks)
    ranks -= 1
    codes[order] = ranks
    src[:], dst[:] = codes[: len(src)], codes[len(src) :]
    return ipv4


_PORT, _SIZE = (0, 65535, "in 0..65535"), (0, MAX_SIZE, f"in 0..{MAX_SIZE}")
_TIME = (0.0, np.finfo(np.float64).max, "finite and non-negative")
#: The bounds of each column that ``_TableBuilder.add`` checks, and the rule they make, in the order checked.
_BOUNDS = dict(src_port=_PORT, dst_port=_PORT, packets_total=_SIZE, bytes_total=_SIZE, rel_start=_TIME, duration=_TIME)
_BOUNDS.update(label=(-1, 1, "in -1..1"), seq_no=(-(2**63), 2**63 - 1, "an int64"))
#: The types an integer or a float column takes, and refuses, checked before its bounds: the cast to an integer
#: column would truncate a float (80.9 to 80), and a str, None or complex value does not compare with a bound.
_KINDS = {"i": ((int, np.integer), (), "an integer")}
_KINDS["f"] = ((numbers.Number, np.bool_), (complex, np.complexfloating), "a number")


class _TableBuilder:
    """Collects flow columns a chunk at a time, with one code per distinct address; ``add`` checks every chunk.

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
            codes = self.ipv4_codes([*src, *dst])
            if codes is not None:
                return codes
            self._index = {}  # the first chunk that is not all IPv4: intern the numbers so far in place
            for name in ("src_code", "dst_code"):
                codes = self._columns[name][: self.n_rows]
                codes[:] = self._intern(ipv4_texts(codes.view(np.uint32)))
        if validate and not all(map(_is_address, set(src).union(dst).difference(self._index))):
            return None
        return {"src_code": self._intern(src), "dst_code": self._intern(dst)}

    def ipv4_codes(self, addresses: Sequence[str] | np.ndarray) -> dict[str, np.ndarray] | None:
        """The codes of a chunk's src then dst addresses; None if one is not a dotted quad, or strings are interned."""
        values = None if self._index is not None else ipv4_values(addresses)
        return None if values is None else dict(zip(("src_code", "dst_code"), values.view(np.int32).reshape(2, -1)))

    def _intern(self, texts: Iterable[str]) -> np.ndarray:
        index = self._index
        return np.array([index.setdefault(text, len(index)) for text in texts], dtype=np.int32)

    def add(self, **columns) -> None:
        """Append one chunk of rows, seq_no defaulting to their positions, if every value is of its column's kind
        (``_KINDS``) and within ``_BOUNDS`` (as given, before the cast to its column's dtype), and no flow with packets
        has zero bytes. Else raise a ValueError naming the first bad record and field, and append nothing."""
        start, end = self.n_rows, self.n_rows + len(columns["bytes_total"])
        columns.setdefault("seq_no", np.arange(start, end))
        values = {name: np.asarray(columns[name]) for name in _BOUNDS}

        def check(name: str, ok: np.ndarray, rule: str) -> None:
            if not ok.all():
                row = int(np.argmin(ok))
                raise ValueError(f"record {start + row}: field {name} must be {rule}, got {values[name][row]}")

        for name, array in values.items():  # such as uint64, which numpy 1.x compares with a Python int as float64
            if array.dtype.kind not in "bi" + (kind := np.dtype(_COLUMN_TYPES[name]).kind):
                values[name] = array = np.array(columns[name], dtype=object)  # so Python compares them, exactly
                takes, refuses, rule = _KINDS[kind]
                check(name, np.array([isinstance(v, takes) and not isinstance(v, refuses) for v in array]), rule)
        rules = [(name, _within(values[name], lo, hi), rule) for name, (lo, hi, rule) in _BOUNDS.items()]
        size, packets, has_packets = values["bytes_total"], values["packets_total"], np.asarray(columns["has_packets"])
        rules.append(("bytes_total", (size >= 1) | (packets < 1) | ~has_packets, "at least 1 in a flow with packets"))
        for rule in rules:
            check(*rule)
        columns.update(values)
        for name, column in self._columns.items():
            if end > len(column):
                column.resize(max(end, 2 * len(column)), refcheck=False)
            column[start:end] = columns[name]
        self.n_rows = end

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Append rows of FlowRecord field values (None: absent; seq_no optional) a chunk at a time through ``add``."""
        for chunk in chunks(rows, _CHUNK_ROWS):
            src_ip, src_port, dst_ip, dst_port, packets, bytes_total, rel_start, duration, label, *seq_no = zip(*chunk)
            for name, texts in (("src_ip", src_ip), ("dst_ip", dst_ip)):
                if (row := next((i for i, text in enumerate(texts) if not isinstance(text, str)), None)) is not None:
                    raise ValueError(f"record {self.n_rows + row}: field {name} must be a string, got {texts[row]}")
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


def _within(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo <= v <= hi of each value. Python compares an object array's, a numpy scalar as its Python value (numpy would
    cast float64's max down to a float32's inf, or an int beyond float64 to a float); a NaN Decimal is out of bounds."""
    if values.dtype != object:
        return (values >= lo) & (values <= hi)
    from decimal import InvalidOperation, localcontext  # only an object array can hold a Decimal
    lo, hi, *values = (v.item() if isinstance(v, np.generic) else v for v in (lo, hi, *values))
    with localcontext() as context:
        context.traps[InvalidOperation] = False  # so a NaN Decimal compares False, where it would raise
        return np.array([lo <= v <= hi for v in values], dtype=bool)


@contextmanager
def _open_text(source: str | Path | IO, binary: bool = False) -> Iterator[IO]:
    """Normalize a path / bytes / binary stream / text stream to a text stream, or with ``binary`` a binary one.

    Paths are opened and closed here, and .gz paths decompressed. Paths and ``bytes`` (as a ``BytesIO``) take the
    binary stream path: unless ``binary``, a text wrapper decodes what it reads and is then detached, so a caller's
    stream is never closed. A UnicodeDecodeError over bytes up to the stream's tell() is a ParseError with the bad
    byte's offset, and for ``bytes`` its line; so is a cut or corrupt gzip stream, with the offset it decompressed to.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as raw, _open_text(raw, binary) as stream:
            yield stream
        return
    data = source if isinstance(source, (bytes, bytearray)) else None
    source = source if data is None else io.BytesIO(data)
    if not hasattr(source, "read"):
        raise TypeError(f"unsupported input source: {type(source)!r}")
    raw = isinstance(source.read(0), bytes)
    stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="") if raw and not binary else source
    try:
        yield stream
    except UnicodeDecodeError as exc:
        # The bytes decoded last end at the stream's tell().
        offset = source.tell() - len(exc.object) + exc.start if raw and source.seekable() else None
        raise _undecodable(exc, offset, None if data is None else _line_breaks(data[:offset]) + 1) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        offset = source.tell() if raw and source.seekable() else None
        at = "" if offset is None else f" after byte offset {offset}"
        raise ParseError(f"compressed input is truncated or corrupt{at}: {exc}") from None
    finally:
        if stream is not source:
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

    If a cell does not convert, an address is not one, or ``table.add``
    refuses the rows, nothing is added: the rows are checked, not converted,
    one by one (``_check_csv_row``), which raises at the first bad row.
    """
    try:
        codes = table.codes([text.strip() for text in cells[0]], [text.strip() for text in cells[2]], validate=True)
        columns = {"src_port": _ints(cells[1]), "dst_port": _ints(cells[3]), "bytes_total": _ints(cells[5])}
        columns["packets_total"], columns["has_packets"] = _optional_ints(cells[4])
        columns["rel_start"], columns["duration"] = _floats(cells[6]), _floats(cells[7])
        label = [_LABEL_CELLS.get(text.strip(), -1) for text in cells[8]] if has_label else -1
        if codes is not None:
            table.add(**codes, **columns, label=label)
            return
    except (ValueError, OverflowError):
        pass
    for row, line in zip(zip(*cells), lines):
        _check_csv_row(row, line)
    raise AssertionError(f"lines {lines[0]}..{lines[-1]} fail the column checks but pass the row checks")


#: numpy's row type of a flow CSV line, label aside. An address is read as
#: 16 bytes, one more than a dotted quad has, so a longer cell is not one.
_CSV_ROW = [("src_ip", "S16"), ("src_port", "i8"), ("dst_ip", "S16"), ("dst_port", "i8"), ("packets_total", "i8")]
_CSV_ROW += [("bytes_total", "i8"), ("rel_start", "f8"), ("duration", "f8")]


def _tokenized_columns(table: _TableBuilder, has_label: bool, body: str) -> bool:
    """Add a plain block (``textblock.plain_text``) through numpy's tokenizer if it is canonical, else return False.

    Canonical: printable ASCII, dotted-quad addresses while the table holds
    IPv4 numbers, labels "0", "1" or empty, and rows that ``table.add``
    takes. ``loadtxt`` refuses a row of the wrong width (a line of spaces is
    one) and skips an empty line, as ``_csv_rows`` does. On printable ASCII
    ``loadtxt`` converts a number cell only where ``int()`` or ``float()``
    gives the same value, bit for bit, and it refuses a blank packet count
    and a float cell such as "1.0" in an int column. A block of blank lines
    only holds no row to add.
    """
    if not body.strip("\n"):  # blank lines only: no row to add, and no "input contained no data" warning
        return True
    if table._index is not None or not printable(body):
        return False
    dtype = _CSV_ROW + [("label", "S2")] * has_label
    try:
        rows = np.loadtxt(io.StringIO(body), dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return False
    codes = table.ipv4_codes(np.concatenate((rows["src_ip"], rows["dst_ip"])))
    columns = {name: rows[name] for name, _ in _CSV_ROW if name not in ("src_ip", "dst_ip")}
    # A label other than "0", "1" or "" reads as 2, which ``table.add`` refuses, so that ``csv.reader`` reads it.
    label = np.select([rows["label"] == cell for cell in (b"1", b"0", b"")], [1, 0, -1], 2) if has_label else -1
    if codes is None:
        return False
    try:
        table.add(**codes, **columns, has_packets=True, label=label)
    except ValueError:
        return False
    return True


def parse_flow_csv(source: str | Path | IO, source_name: str = "") -> FlowDataset:
    """Parse the canonical flow CSV.

    Header must be ``src_ip,src_port,dst_ip,dst_port,packets_total,
    bytes_total,rel_start_s,duration_s`` with an optional trailing ``label``
    column. An empty packets_total cell means the source had no packet
    counts. A label cell that is not exactly 0 or 1 is treated as absent,
    which makes the whole dataset unlabeled rather than failing the parse.

    Lines are read in chunks of ``_CHUNK_ROWS`` (``textblock.chunks``). A
    chunk of plain lines (see ``textblock.plain_text``) is converted by one
    ``np.loadtxt`` call if it is canonical (``_tokenized_columns``), else
    read by ``csv.reader`` one row per line if every row has the header's
    width; the first chunk that is neither, and the chunks after it, are
    read by one ``csv.reader``, whose rows are converted ``_CHUNK_ROWS`` at
    a time. All read the same rows, so quoting rules, values, messages and
    line numbers do not depend on the chunks.
    """
    with _open_text(source) as stream:
        reader = None
        read = 0  # lines read before the first line of ``reader``, or of the next block
        try:
            first = list(islice(stream, 1))
            body = plain_text(first) if first else None
            if body is None:
                reader = csv.reader(chain(first, stream))
                header = tuple(cell.strip() for cell in next(reader))
            else:
                header = tuple(cell.strip() for cell in body.split(","))
            if header not in (CSV_COLUMNS, CSV_COLUMNS + (CSV_LABEL_COLUMN,)):
                raise FormatError(f"unexpected header: {_quote(','.join(header))}")
            has_label = len(header) > len(CSV_COLUMNS)
            table = _TableBuilder()
            read = 1 if reader is None else reader.line_num
            blocks = chunks(stream, _CHUNK_ROWS)
            for lines in blocks:
                body = plain_text(lines)
                if body is None or not _tokenized_columns(table, has_label, body):
                    rows = [] if body is None else list(csv.reader(lines))  # one row per line, without raising
                    if not rows or {len(row) for row in rows} != {len(header)}:  # not plain, blank line or bad width
                        reader = csv.reader(chain(lines, chain.from_iterable(blocks)))
                        for numbered in chunks(_csv_rows(reader, len(header), read), _CHUNK_ROWS):
                            rows, numbers = zip(*numbered)
                            _csv_columns(table, has_label, list(zip(*rows)), numbers)
                        break
                    _csv_columns(table, has_label, list(zip(*rows)), range(read + 1, read + 1 + len(lines)))
                read += len(lines)
                del lines, body  # free this block before the next one is read
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
    """Serialize a dataset to the canonical flow CSV, one ``%`` template per chunk of rows.

    One ``with`` opens and closes a path, or takes a caller's stream and leaves it open. Floats are written as
    ``repr``. ``parse_flow_csv`` reads the file back to the same table, seq_no aside, so every endpoint must be an IP
    address that a cell holds as it is; else, such as for a tshark hostname, a ValueError names the first one before a
    path is opened or a byte written.
    """
    if dataset._addresses is not None:  # an IPv4 table holds dotted quads only
        used = np.unique(np.concatenate((dataset.src_code, dataset.dst_code))).tolist()
        for text in map(dataset._addresses.__getitem__, used):
            # An IPv6 scope id may hold a comma, a quote, a space or a control character, which a cell does not keep.
            if not _is_address(text) or not text.isprintable() or set(' ,"').intersection(text):
                raise ValueError(f"endpoint {_quote(text)} is not an IP address that a flow CSV cell holds")
    with nullcontext(sink) if hasattr(sink, "write") else open(sink, "w", encoding="utf-8", newline="") as stream:
        with_label = dataset.labeled or bool((dataset.label >= 0).any())
        header = CSV_COLUMNS + ((CSV_LABEL_COLUMN,) if with_label else ())
        stream.write(",".join(header) + "\n")
        # rel_start_s and duration_s are floats (%r); the other cells are ints, addresses or "".
        template = ",".join(["%s"] * 6 + ["%r"] * 2 + ["%s"] * with_label) + "\n"
        for lo in range(0, len(dataset), _CHUNK_ROWS):
            values = dataset._row_values(slice(lo, lo + _CHUNK_ROWS), "", dataset._addresses)[: len(header)]
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


def _kdd_size(src_text: str, dst_text: str, line: int) -> int:
    """src_bytes + dst_bytes of a TCP line; a ParseError unless both are integers >= 0 whose sum fits int64."""
    size = _int_field(src_text.strip(), "src_bytes", line) + _int_field(dst_text.strip(), "dst_bytes", line)
    if size > MAX_SIZE:
        raise ParseError(f"src_bytes + dst_bytes exceeds {MAX_SIZE}", line)
    return size


def adapt_kdd(source: str | Path | IO, source_name: str = "", max_flows: int | None = None) -> FlowDataset:
    """Adapt KDD Cup 1999 connection records (41 features + class label).

    Only TCP rows are kept. The format has neither timestamps nor endpoint
    addresses, so rel_start is the retained row index, duration is 0 and
    endpoints are placeholders; start-time orderings therefore reduce to the
    file's natural connection order. Packet counts are absent (byte sizes
    only). The class label maps to 0 for "normal." and 1 for everything
    else; a trailing dot on the class is optional. ``max_flows`` truncates
    the dataset after that many TCP flows (for desk-scale runs); no line
    after the last one kept is checked, nor a later block read. Each block
    (``_line_blocks``) is converted from its bytes (``_kdd_block``).
    """
    if max_flows is not None and max_flows < 1:
        raise ValueError(f"max_flows must be at least 1, got {max_flows}")
    blocks = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))]  # (bytes_total, label) of each block
    with _open_text(source, binary=True) as stream:
        lineno, kept = 1, 0
        # A line holds at most one record, so a block ends at the max_flows-th TCP row at the latest.
        for data, ends in _line_blocks(stream, lambda: min(_CHUNK_ROWS, (max_flows or math.inf) - kept)):
            blocks.append(_kdd_block(data, ends, lineno))
            lineno += len(ends)
            kept += len(blocks[-1][0])
            if kept == max_flows:
                break
            del data  # free this block before the next one is read
    columns = dict(zip(("bytes_total", "label"), map(np.concatenate, zip(*blocks))))
    columns.update(rel_start=np.arange(kept, dtype=np.float64), seq_no=np.arange(kept))
    # The other columns are constant, each made once: placeholder endpoints (code 0) and ports, no packets, no duration.
    columns.update({name: np.zeros(kept, dtype) for name, dtype in _COLUMN_TYPES.items() if name not in columns})
    return FlowDataset._from_columns(columns, None, np.zeros(1, dtype=np.uint32), True, source_name)


def _line_blocks(stream: IO, limit: Callable[[], int]) -> Iterator[tuple[bytes, np.ndarray]]:
    """(data, ends) of each block of at most ``limit()`` lines of a stream: their UTF-8 bytes, and each line's end.

    A text stream splits its own lines. A binary one is read ``_READ_BYTES`` at a time (``read1``: a cut gzip stream
    hands over what it decompressed first), each read handed out up to its last LF, CRLF or lone CR; a BOM is skipped.
    The lines before an undecodable byte come first, then its UnicodeDecodeError over the bytes up to the tell().
    """
    if not isinstance(stream.read(0), bytes):
        for lines in chunks(stream, limit):
            text = "".join(lines)
            sized = lines if text.isascii() else [line.encode("utf-8", "surrogatepass") for line in lines]
            yield text.encode("utf-8", "surrogatepass"), np.cumsum(np.fromiter(map(len, sized), np.intp, len(lines)))
        return
    read = getattr(stream, "read1", stream.read)
    buf, more = stream.read(3).removeprefix(b"\xef\xbb\xbf"), True
    while more:
        more = read(_READ_BYTES)
        buf += more
        breaks = np.frombuffer(buf, dtype=np.uint8) == 10
        if b"\r" in buf:  # a CR ends a line unless an LF follows it; one that ends the read waits for the next
            breaks |= (np.frombuffer(buf, dtype=np.uint8) == 13) & ~np.append(breaks[1:], True)
        breaks[-1:] |= not more  # the input's last line ends with it
        ends = np.flatnonzero(breaks) + 1
        del breaks  # so that of this read only ``buf`` stays while its blocks are converted
        while len(ends):
            block, ends = np.split(ends, [limit()])
            data, buf = buf[: block[-1]], buf[block[-1] :]
            try:
                data.isascii() or data.decode("utf-8")
            except UnicodeDecodeError as exc:
                block = block[block <= exc.start]  # the lines wholly before the undecodable byte
                if len(block):
                    yield data[: block[-1]], block
                raise UnicodeDecodeError(exc.encoding, data + buf, exc.start, exc.end, exc.reason) from None
            yield data, block
            ends -= block[-1]


#: Bytes a class of the byte path may hold: ASCII letters and digits, "_", "." and "-".
_CLASS_BYTES = np.frombuffer(bytes(c < 128 and (chr(c).isalnum() or chr(c) in "_.-") for c in range(256)), bool)
#: A protocol cell's first four bytes as one little-endian uint32, when the cell is tcp, udp or icmp.
_TCP, _UDP, _ICMP = np.frombuffer(b"tcp,udp,icmp", dtype="<u4")
_POWERS = 10 ** np.arange(19, dtype=np.int64)  # a count of up to 18 digits is read with these
_NORMAL = np.frombuffer(b"normal" + b"." * 26, dtype=np.uint8)  # a class is compared over at least 6 bytes


def _bytes_of(data: np.ndarray, starts: np.ndarray, widths: np.ndarray, least: int, most: int, fill: int) -> np.ndarray:
    """The cells' bytes, a column each, cut or padded with ``fill`` to the widest cell's width within [least, most]."""
    rows = np.arange(min(most, int(np.max(widths, initial=least))))[:, None]
    cells = data.take(starts + rows)
    np.putmask(cells, rows >= widths, fill)
    return cells


def _kdd_block(data: bytes, ends: np.ndarray, lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """(bytes_total, label) of the TCP records in a block of lines: their bytes, ``ends`` the offset after each line.

    A comma index finds each line's protocol, counts and class; ``lineno`` numbers the first line. Odd lines are
    decoded and go to ``_kdd_row`` one by one: a quote or a byte from NUL to CR before the line end, fewer than 41
    commas, a protocol other than exactly tcp, udp or icmp, or on a tcp line a count other than 1 to 18 ASCII digits
    or a class over 32 bytes or with a byte other than an ASCII letter, digit, "_", "." or "-". Every other line
    passes ``_kdd_row``'s rules, so the first odd line that ``_kdd_row`` refuses is the block's first bad line.
    """
    encoded = data + b"." * 32  # a cell read past the last line reads dots
    data = np.frombuffer(encoded, dtype=np.uint8)
    stops = ends - (data[ends - 1] == 10)  # the line without its LF, CRLF or CR
    stops -= data[stops - 1] == 13
    commas = np.flatnonzero(data == 44)
    cuts = np.searchsorted(commas, np.append(0, ends))  # line i holds the commas cuts[i]:cuts[i + 1]
    odd = np.diff(cuts) < 41
    if b'"' in encoded or np.count_nonzero(data < 14) != (ends - stops).sum():  # a quote, or a control byte in a line
        marks = np.flatnonzero((data < 14) | (data == 34))
        at = np.searchsorted(ends, marks, side="right")
        odd[at[marks < stops[at]]] = True
    rows = np.flatnonzero(~odd)
    head = commas[cuts[rows]]
    protocol = np.ndarray((len(data) - 3,), "<u4", encoded, strides=(1,))[head + 1]  # a uint32 at every byte
    odd[rows[~((protocol == _TCP) | (protocol == _UDP) | (protocol == _ICMP) & (data[head + 5] == 44))]] = True
    rows = rows[protocol == _TCP]
    bounds = commas[cuts[rows] + np.arange(3, 6)[:, None]]  # the commas around src_bytes and dst_bytes
    widths = (bounds[1:] - bounds[:2] - 1).ravel()
    digits = _bytes_of(data, (bounds[:2] + 1).ravel(), widths, 1, 18, 48) - np.uint8(48)  # zeros pad on the right
    numbers = _POWERS[len(digits) - 1 :: -1] @ digits // _POWERS[len(digits) - np.minimum(widths, len(digits))]
    cls_start = commas[cuts[rows + 1] - 1] + 1
    cls = _bytes_of(data, cls_start, stops[rows] - cls_start, 6, 32, 46)
    plain = ((widths >= 1) & (widths <= 18) & (digits <= 9).all(axis=0)).reshape(2, -1).all(axis=0)
    odd[rows[~(plain & (stops[rows] - cls_start <= 32) & _CLASS_BYTES.take(cls).all(axis=0))]] = True
    size, label = np.full(len(ends), -1, dtype=np.int64), np.zeros(len(ends), dtype=np.int8)
    size[rows], label[rows] = numbers.reshape(2, -1).sum(axis=0), ~(cls == _NORMAL[: len(cls), None]).all(axis=0)
    size[odd] = -1
    for i in np.flatnonzero(odd).tolist():
        line = encoded[ends[i - 1] if i else 0 : ends[i]].decode("utf-8", "surrogatepass")
        size[i], label[i] = _kdd_row(line, lineno + i) or (-1, 0)
    return size[size >= 0], label[size >= 0]


def _kdd_cells(line: str) -> list[str]:
    """A line's cells: split on commas, or read by ``csv.reader`` if it holds a quote or a CR before its line end."""
    line = line.rstrip("\r\n")
    if '"' in line or "\r" in line:
        return next(csv.reader([line]))
    return line.split(",") if line else []


def _kdd_row(line: str, number: int) -> tuple[int, bool] | None:
    """(bytes_total, label) of a TCP line, None of another or a blank line; the ParseError of a bad line."""
    try:
        row = _kdd_cells(line)
    except csv.Error as exc:  # such as a cell over the field limit
        raise ParseError(str(exc), number) from None
    if row and len(row) < 42:
        raise ParseError(f"expected at least 42 fields, got {len(row)}", number)
    if row and row[1].strip().lower() == "tcp":
        return _kdd_size(row[4], row[5], number), row[-1].strip().rstrip(".") != "normal"


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
        keys = ((src.astype(np.int64) << 31) | dst, dataset.rel_start)  # codes and ranks lie in [0, 2**31)
    elif scheme is OrderingScheme.FIVE_TUPLE_START:
        # One key per endpoint: its rank above its int32 port, shifted into [0, 2**32).
        src_key = (src.astype(np.int64) << 32) | (dataset.src_port.astype(np.int64) + 2**31)
        dst_key = (dst.astype(np.int64) << 32) | (dataset.dst_port.astype(np.int64) + 2**31)
        keys = (src_key, dst_key, dataset.rel_start)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown ordering scheme: {scheme!r}")
    # lexsort is stable and takes its primary key last.
    return np.lexsort((dataset.seq_no,) + keys[::-1])


def order_flows(dataset: FlowDataset, scheme: OrderingScheme) -> FlowDataset:
    """Return the dataset sorted under one of the four orderings (see ``flow_order``)."""
    return dataset._take(flow_order(dataset, scheme))
