"""Line-oriented text read, checked and written a block at a time.

``ingest`` reads every input through ``chunks``, a block of lines or rows
at a time, and builds the flow table from the results; these helpers know
nothing of flows. They check a whole block with a few string and numpy
operations and say so when it needs the slower exact path: a block that
is not plain CSV goes to ``csv.reader``, a batch of addresses that are
not all dotted quads to per-address checks.
"""

from __future__ import annotations

import csv
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


def plain_columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The cells of the lines column by column if the lines are plain, else None.

    ``csv.reader`` reads each line of a plain block as one row, split on
    every comma, after its trailing CR and LF characters: the block holds
    no quote, no other CR or LF, no NUL (which ``csv`` before Python 3.11
    rejects), no blank line and no line over the field limit, and every
    line has ``width`` cells.
    """
    text = "".join(lines)
    # Without a CR, only the last line can lack a final LF.
    body = "\n".join(map(str.rstrip, lines, repeat("\r\n"))) if "\r" in text else text.removesuffix("\n")
    limit = csv.field_size_limit()
    if (
        not body
        or '"' in body
        or "\r" in body
        or "\0" in body
        or len(body) > limit
        and max(map(len, body.split("\n"))) > limit
    ):
        return None
    # One LF between lines, and width - 1 commas on each line.
    data = np.frombuffer(body.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    breaks = np.flatnonzero(data == ord("\n"))
    if len(breaks) != len(lines) - 1:
        return None
    if (np.add.reduceat(data == ord(","), np.append(0, breaks), dtype=np.int64) != width - 1).any():
        return None
    cells = body.replace("\n", ",").split(",")
    return [cells[i::width] for i in range(width)]


def ipv4_values(texts: Sequence[str]) -> np.ndarray | None:
    """The 32-bit number of every text as uint32 if all are strict dotted-quad IPv4, else None.

    Strict as ``ipaddress`` is: four ASCII decimal octets up to 255, without
    leading zeros. The texts are checked together, as the ASCII bytes of the
    texts each followed by "/": the bytes that are not digits must be three
    dots and a slash per text, and each octet before one of them is 1 to 3
    digits, without a leading zero, up to 255.
    """
    n = len(texts)
    if not n:
        return np.empty(0, dtype=np.uint32)
    joined = "/".join(texts) + "/"
    if not joined.isascii():
        return None
    data = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    digits = data - np.uint8(ord("0"))  # "." and "/" wrap round to 254 and 255
    ends = np.flatnonzero(digits > 9)
    if len(ends) != 4 * n or not (data[ends].reshape(n, 4) == np.frombuffer(b".../", dtype=np.uint8)).all():
        return None
    # The four bytes before each octet's end. A byte before the octet is a
    # separator, or a digit of the previous octet when the one after it is
    # a separator; an index below 0 reads the final "/".
    ones, tens, hundreds, more = (digits[ends - k] for k in (1, 2, 3, 4))
    two = tens <= 9
    three = two & (hundreds <= 9)
    if (ones > 9).any() or (three & (more <= 9)).any() or (two & (np.where(three, hundreds, tens) == 0)).any():
        return None
    octets = ones + np.where(two, tens, 0) * np.uint16(10) + np.where(three, hundreds, 0) * np.uint16(100)
    if (octets > 255).any():
        return None
    return (octets.reshape(n, 4) @ np.array([1 << 24, 1 << 16, 1 << 8, 1])).astype(np.uint32)


#: The decimal text of each octet value.
_OCTETS = tuple(map(str, range(256)))


def ipv4_texts(values: np.ndarray) -> list[str]:
    """The dotted quad of each 32-bit number, which ``ipv4_values`` reads back."""
    octets = [map(_OCTETS.__getitem__, (values >> shift & 255).tolist()) for shift in (24, 16, 8, 0)]
    return list(map(".".join, zip(*octets)))


def csv_cells(texts: Sequence[str]) -> Sequence[str]:
    """Each text as ``csv.writer`` writes it as a cell of a row of several; quoted only where needed."""
    if not any(char in "".join(texts) for char in ',"\r\n'):
        return texts
    # csv.writer's writerow returns what its file's write returns: here, the row's text.
    writer = csv.writer(_Echo(), lineterminator="\n")
    return [writer.writerow((text, ""))[: -len(",\n")] for text in texts]


class _Echo:
    """A file whose write returns the text written."""

    @staticmethod
    def write(text: str) -> str:
        return text
