"""Line-oriented text read, checked and written a block at a time.

``ingest`` reads text (not binary KDD input) through ``chunks``, a block
of lines or rows at a time, and builds the flow table from the results;
these helpers know nothing of flows. They check a whole block with a few
string and numpy operations and say so when it needs the slower exact
path: a block that is not plain CSV (``plain_text``) is read with the
rest of its file by ``csv.reader``, a batch of addresses that are not all
dotted quads goes to per-address checks.
"""

from __future__ import annotations

import csv
from functools import cache
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


def chunks(items: Iterable, size: int | Callable[[], int]) -> Iterator[list]:
    """The items in lists of ``size``, or of ``size()`` asked before each list; only the last may be short.

    Nothing is read before a list is asked for, nor after a short one. If
    reading raises, the items read before the error are yielded first and
    the error is raised at the next request, so that the caller converts
    them, and a bad item among them raises first.
    """
    items = iter(items)
    while True:
        limit = size() if callable(size) else size
        chunk: list = []
        try:
            chunk.extend(islice(items, limit))
        except Exception:
            if chunk:
                yield chunk
            raise
        if chunk:
            yield chunk
        if len(chunk) < limit:
            return


def plain_text(lines: list[str]) -> str | None:
    """The lines joined by LF, without their line ends, if they are plain, else None.

    ``csv.reader`` reads each line of a plain block as one row, split on
    every comma, after its trailing CR and LF characters, and cannot raise:
    the block holds no quote, no other CR or LF, no NUL (which ``csv``
    before Python 3.11 rejects) and no line over the field limit.
    """
    text = "".join(lines)
    # Without a CR, only the last line can lack a final LF.
    body = "\n".join(map(str.rstrip, lines, repeat("\r\n"))) if "\r" in text else text.removesuffix("\n")
    limit = csv.field_size_limit()
    if (
        '"' in body
        or "\r" in body
        or "\0" in body
        or body.count("\n") != len(lines) - 1
        or len(body) > limit
        and max(map(len, body.split("\n"))) > limit
    ):
        return None
    return body


def printable(body: str) -> bool:
    """Whether every character of ``body`` is printable ASCII or LF."""
    if not body.isascii():
        return False
    data = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    return bool(((data - np.uint8(ord(" ")) <= ord("~") - ord(" ")) | (data == ord("\n"))).all())


@cache
def _octet_values() -> np.ndarray:
    """The octet that the three bytes before an octet's end spell, or 256, by their classes in three 5-bit fields.

    A byte's class is ``(byte - ord("0")) & 31``: a digit's value, 30 for "." and 16 for NUL. Built on first use.
    """
    hundreds, tens, ones = np.indices((32, 32, 32), dtype=np.uint16).reshape(3, -1)
    two = tens <= 9
    three = two & (hundreds <= 9)
    value = ones + 10 * tens * two + 100 * hundreds * three
    leading_zero = two & (np.where(three, hundreds, tens) == 0)
    return np.where((ones > 9) | leading_zero | (value > 255), 256, value).astype(np.uint16)


def ipv4_values(addresses: Sequence[str] | np.ndarray) -> np.ndarray | None:
    """The 32-bit number of every address as uint32 if all are strict dotted-quad IPv4, else None.

    Strict as ``ipaddress`` is: four ASCII decimal octets up to 255, without
    leading zeros. The addresses are texts, or an ``S`` array of their bytes
    with no NUL inside. Both are checked as one byte stream, in which each
    address is followed by one NUL or more (an ``S`` array's padding). Each
    byte that is not a digit, nor a NUL after a NUL, ends an octet: these
    must be three dots and a NUL per address. No four digits may follow one
    another, and the three bytes before each end must spell an octet
    (``_octet_values``).
    """
    n = len(addresses)
    if not n:
        return np.empty(0, dtype=np.uint32)
    # Three NULs first, so that the bytes before the first address's first end are in the stream.
    if isinstance(addresses, np.ndarray):
        data = np.zeros(3 + addresses.nbytes + 1, dtype=np.uint8)
        data[3:-1] = addresses.view(np.uint8)
    else:
        text = "\0\0\0" + "\0".join(addresses) + "\0"
        if not text.isascii() or text.count("\0") != 3 + n:
            return None
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digits = data - np.uint8(ord("0"))  # "." and NUL wrap round to 254 and 208
    isdigit = digits <= 9
    nul = data == 0
    ends = np.flatnonzero(~isdigit[3:] & ~(nul[3:] & nul[2:-1])) + 3
    if (
        len(ends) != 4 * n
        or not (data[ends].reshape(n, 4) == np.frombuffer(b"...\0", dtype=np.uint8)).all()
        or (isdigit[:-3] & isdigit[1:-2] & isdigit[2:-1] & isdigit[3:]).any()
    ):
        return None
    classes = (digits & np.uint8(31)).astype(np.uint16)
    octets = _octet_values()[classes[ends - 3] << 10 | classes[ends - 2] << 5 | classes[ends - 1]]
    if (octets > 255).any():
        return None
    return octets.astype(np.uint8).view(">u4").astype(np.uint32)


@cache
def _octet_texts() -> np.ndarray:
    """Each octet value as a dot and its decimal text, NUL-padded to four bytes; built on first use."""
    return np.array([f".{octet}".encode() for octet in range(256)], dtype="S4").view(np.uint8).reshape(256, 4)


def ipv4_texts(values: np.ndarray) -> list[str]:
    """The dotted quad of each 32-bit number, which ``ipv4_values`` reads back."""
    quads = _octet_texts()[values[:, None] >> np.uint32([24, 16, 8, 0]) & 255]
    quads[:, 0, 0] = ord(" ")  # the first octet's dot parts one quad from the one before
    return quads.tobytes().replace(b"\0", b"").decode("ascii").split()
