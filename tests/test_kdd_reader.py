"""The KDD byte reader: binary sources reach the block converter as raw bytes.

A path, ``bytes``, a binary stream or a ``.gz`` path is read a block of
bytes at a time, cut at the last line end, and checked as UTF-8 only on the
lines that are converted. A text stream keeps its own line iteration. Every
source must read as the row-wise reference reads the decoded text, whatever
the read size, the block size or ``max_flows``.
"""

import gzip
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowdigits import ParseError, adapt_kdd, ingest, textblock
from test_cli import kdd_sample_text
from test_columnar import (
    BAD_KDD_LINES,
    FUZZ,
    ODD_KDD_LINES,
    LineCountingStringIO,
    byte_path_lines,
    kdd_line,
    ref_kdd_outcome,
    well_formed_kdd_lines,
)

BOM = b"\xef\xbb\xbf"


def kdd_outcome(source, max_flows=None):
    """(flows, labeled) or (ParseError, message, line) of adapt_kdd over the source."""
    try:
        dataset = adapt_kdd(source, max_flows=max_flows)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return dataset.flows, dataset.labeled


@FUZZ
@given(
    kinds=st.lists(st.sampled_from(["well-formed", "odd", "bad", "byte-path", "byte-path"]), max_size=12),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    end=st.booleans(),
    bom=st.booleans(),
    read_bytes=st.integers(1, 64),
    chunk_rows=st.integers(1, 4),
    data=st.data(),
)
def test_binary_sources_read_as_the_rowwise_reference(kinds, newline, end, bom, read_bytes, chunk_rows, data):
    kind_lines = {
        "well-formed": well_formed_kdd_lines,
        "odd": ODD_KDD_LINES,
        "bad": BAD_KDD_LINES,
        "byte-path": byte_path_lines(surrogates=False),
    }
    lines = [data.draw(kind_lines[kind], label=kind) for kind in kinds]
    text = newline.join(lines) + (newline if end else "")
    max_flows = data.draw(st.sampled_from([None, 1, 2, data.draw(st.integers(1, len(lines) + 1), label="k")]))
    # csv.reader before Python 3.11 refuses NUL; the reference reads \x01, which no rule tells apart from it.
    expected = ref_kdd_outcome(LineCountingStringIO(text.replace("\0", "\x01"), newline=""), max_flows)
    raw = BOM * bom + text.encode("utf-8")
    with tempfile.TemporaryDirectory() as folder:
        path, packed = Path(folder) / "kdd.data", Path(folder) / "kdd.data.gz"
        path.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw, mtime=0))
        spy = mock.Mock(side_effect=textblock.chunks)
        with mock.patch.multiple(ingest, _READ_BYTES=read_bytes, _CHUNK_ROWS=chunk_rows, chunks=spy):
            for source in (raw, io.BytesIO(raw), path, packed):
                assert kdd_outcome(source, max_flows) == expected, source
            assert not spy.called
            kdd_outcome(io.StringIO(text), max_flows)
            assert spy.called


def crlf_lines(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_a_crlf_split_across_two_reads_is_one_line_end(chunk_rows):
    first = kdd_line(src_bytes="5")
    data = crlf_lines(first, kdd_line(src_bytes="6"), kdd_line(src_bytes="x"), kdd_line())
    assert data[len(first)] == ord("\r")
    # The first read ends with the CR, the second starts with its LF.
    with mock.patch.multiple(ingest, _READ_BYTES=len(first) + 1, _CHUNK_ROWS=chunk_rows):
        with pytest.raises(ParseError) as info:
            adapt_kdd(io.BytesIO(data))
        assert (info.value.line, str(info.value)) == (3, "line 3: field src_bytes is not an integer: 'x'")
        dataset = adapt_kdd(io.BytesIO(data), max_flows=2)
    assert dataset.bytes_total.tolist() == [25, 26]


def test_a_cr_that_ends_the_input_ends_its_line():
    data = (kdd_line(src_bytes="5") + "\r" + kdd_line(src_bytes="6") + "\r").encode()
    with mock.patch.object(ingest, "_READ_BYTES", len(data) - 1):
        assert adapt_kdd(data).bytes_total.tolist() == [25, 26]


def kdd_source(tmp_path, via, data):
    """The bytes as a path, a binary stream or ``bytes``."""
    if via == "path":
        path = tmp_path / "kdd.data"
        path.write_bytes(data)
        return path
    return io.BytesIO(data) if via == "stream" else data


HEAD = kdd_sample_text(n_normal=3, n_attack=3)
#: A few lines after the max_flows cut-off: far less than one read, and less than 8 KiB.
AFTER = kdd_sample_text(n_normal=5, n_attack=5)


@pytest.mark.parametrize("via", ["path", "stream", "bytes"])
def test_an_undecodable_byte_after_the_max_flows_cut_off_in_the_same_read_is_never_reported(tmp_path, via):
    data = (HEAD + AFTER).encode() + b"\xff" + AFTER.encode()
    assert len(data) < min(8192, ingest._READ_BYTES)
    dataset = adapt_kdd(kdd_source(tmp_path, via, data), max_flows=6)
    assert dataset.flows == adapt_kdd(HEAD.encode()).flows
    with pytest.raises(ParseError, match="input is not UTF-8"):  # the line after the cut-off is converted
        adapt_kdd(kdd_source(tmp_path, via, data), max_flows=17)


@pytest.mark.parametrize("via", ["path", "stream"])
def test_a_cut_gzip_stream_after_the_max_flows_cut_off_in_the_same_read_is_never_reported(tmp_path, via):
    packed = gzip.compress((HEAD + AFTER * 4).encode(), mtime=0)
    packed = packed[: len(packed) * 9 // 10]
    path = tmp_path / "kdd.data.gz"
    path.write_bytes(packed)

    def source():
        return path if via == "path" else gzip.GzipFile(fileobj=io.BytesIO(packed))

    assert adapt_kdd(source(), max_flows=6).flows == adapt_kdd(HEAD.encode()).flows
    with pytest.raises(ParseError, match="^compressed input is truncated or corrupt after byte offset "):
        adapt_kdd(source())


@pytest.mark.parametrize("via", ["path", "stream", "bytes"])
def test_a_bad_line_less_than_8_kib_before_an_undecodable_byte_raises_first(tmp_path, via):
    """The first error in file order wins, though the text reader once decoded both in one 8 KiB read."""
    data = (HEAD + "0,tcp,http\n" + AFTER).encode() + b"\xff\n"
    assert len(data) < 8192
    with pytest.raises(ParseError) as info:
        adapt_kdd(kdd_source(tmp_path, via, data))
    assert (info.value.line, str(info.value)) == (7, "line 7: expected at least 42 fields, got 3")


@pytest.mark.parametrize("read_bytes", [1, 2, 5, 128 * 1024])
@pytest.mark.parametrize("via", ["path", "stream", "bytes"])
def test_the_offset_of_an_undecodable_byte_counts_a_skipped_bom(tmp_path, via, read_bytes):
    text = (HEAD + "\r\n" + AFTER).encode()
    data = BOM + text + b"\xfe" + AFTER.encode()
    where = f"byte 0xfe at byte offset {3 + len(text)}"
    with mock.patch.object(ingest, "_READ_BYTES", read_bytes), pytest.raises(ParseError) as info:
        adapt_kdd(kdd_source(tmp_path, via, data))
    if via == "bytes":  # the line is known only for bytes
        assert (info.value.line, str(info.value)) == (18, f"line 18: input is not UTF-8: {where}")
    else:
        assert (info.value.line, str(info.value)) == (None, f"input is not UTF-8: {where}")
    with mock.patch.object(ingest, "_READ_BYTES", read_bytes):
        assert adapt_kdd(kdd_source(tmp_path, via, BOM + text)).flows == adapt_kdd(text).flows


@pytest.mark.parametrize("data", [BOM, BOM + b"\n", BOM + b"\r", b"", b"\n\r\n\r"], ids=repr)
def test_a_bom_or_blank_lines_alone_read_as_no_flows(data):
    with mock.patch.object(ingest, "_READ_BYTES", 1):
        assert len(adapt_kdd(data)) == 0
    assert len(adapt_kdd(data)) == 0
