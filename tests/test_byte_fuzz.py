"""Byte-level fuzzing through ``main()``: a mutated input exits 0 or 2, never 1 or 3.

Each input is either raw bytes or a valid flow CSV, tshark table or KDD file
with a few byte mutations: a bit flip, a truncation, a NUL, CR-only line
ends, an invalid UTF-8 byte or a cell of 200,000 characters. ``score`` and
``evaluate --roc`` must either succeed or report an input error, with no
traceback and no output file left behind.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowdigits.cli import main
from test_cli import kdd_sample_text
from test_input_contract import csv_text, tshark_text

VALID_INPUTS = {
    "csv": csv_text().encode("utf-8"),
    "tshark": tshark_text().encode("utf-8"),
    "kdd": kdd_sample_text(n_normal=4, n_attack=4).encode("utf-8"),
}
COMMANDS = (["score"], ["evaluate", "--roc", "--labeling-abs", "1"])


def mutate(data: bytes, kind: str, where: int, bit: int) -> bytes:
    """Apply one mutation at ``where`` per mille of the data's length."""
    at = len(data) * where // 1000
    if kind == "flip":
        return data if at == len(data) else data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    if kind == "cr-only":
        return data.replace(b"\r\n", b"\r").replace(b"\n", b"\r")
    insert = {"nul": b"\0", "invalid-utf8": b"\xff", "long-cell": b"9" * 200_000}[kind]
    return data[:at] + insert + data[at:]


mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "nul", "cr-only", "invalid-utf8", "long-cell"]),
        st.integers(0, 1000),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=3,
)


def assert_exits_0_or_2_without_traceback_or_output(fmt, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_bytes(data)
        for command in COMMANDS:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command[0], "--format", fmt, "--window", "2", *command[1:], str(path), "-o", f"{tmp}/out"])
            assert code in (0, 2), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code == 2:
                assert stderr.getvalue().startswith("flowdigits: input error:")
                assert list(Path(tmp).iterdir()) == [path]
            for output in Path(tmp).glob("out*"):
                output.unlink()


@pytest.mark.parametrize("fmt", sorted(VALID_INPUTS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=mutations)
@example(edits=[("invalid-utf8", 900, 0)])
@example(edits=[("long-cell", 900, 0)])
@example(edits=[("cr-only", 0, 0), ("nul", 500, 0)])
def test_mutated_input_exits_0_or_2_without_traceback_or_output(fmt, edits):
    data = VALID_INPUTS[fmt]
    for edit in edits:
        data = mutate(data, *edit)
    assert_exits_0_or_2_without_traceback_or_output(fmt, data)


@pytest.mark.parametrize("fmt", sorted(VALID_INPUTS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.binary(max_size=300), keep=st.sampled_from([0, 0, 150]))
@example(data=b"", keep=0)
@example(data=b"\xef\xbb\xbf", keep=0)
@example(data=b"\r\r\n\n", keep=0)
def test_raw_bytes_exit_0_or_2_without_traceback_or_output(fmt, data, keep):
    # keep > 0 puts the bytes after the start of a valid file, past its header.
    assert_exits_0_or_2_without_traceback_or_output(fmt, VALID_INPUTS[fmt][:keep] + data)
