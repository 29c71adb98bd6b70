"""Peak traced memory of building a flow table, against the bytes of its columns.

The flow CSV dataset is the README quick start's: 36,000 log-uniform normal
flows and two 3,000-flow bursts. ``generate`` folds each octet draw into its
addresses as it is drawn, and the table builder grows each column in place,
so neither holds a second copy of the table while it is built. The KDD file
holds 50,000 seeded TCP records, which ``adapt_kdd`` converts a block of
lines at a time.
"""

import tracemalloc

import numpy as np
import pytest

from flowdigits import (
    AttackBurst,
    ConstantSize,
    GeneratorSpec,
    UniformSize,
    adapt_kdd,
    generate,
    parse_flow_csv,
    write_flow_csv,
)
from flowdigits.ingest import _COLUMN_TYPES

QUICKSTART = GeneratorSpec(
    seed=7,
    n_normal=36_000,
    size_decades=(1, 7),
    attacks=(AttackBurst(7_200, 3_000, ConstantSize(1500)), AttackBurst(18_000, 3_000, UniformSize(100, 200))),
)


def column_bytes(dataset):
    return sum(getattr(dataset, name).nbytes for name in _COLUMN_TYPES)


def traced_peak(run):
    """(result, peak traced bytes) of run()."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def quickstart_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("quickstart") / "synth.csv"
    write_flow_csv(generate(QUICKSTART), path)
    return path


def test_generate_peaks_at_most_three_times_its_columns():
    dataset, peak = traced_peak(lambda: generate(QUICKSTART))
    assert len(dataset) == 42_000
    assert peak <= 3 * column_bytes(dataset)


@pytest.mark.parametrize("read", [lambda path: path.read_bytes(), lambda path: path], ids=["bytes", "path"])
def test_parse_flow_csv_peaks_at_most_two_and_a_half_times_its_columns(quickstart_csv, read):
    source = read(quickstart_csv)
    dataset, peak = traced_peak(lambda: parse_flow_csv(source))
    assert len(dataset) == 42_000
    assert peak <= 2.5 * column_bytes(dataset)


@pytest.fixture(scope="module")
def kdd_file(tmp_path_factory):
    """50,000 TCP records of log-uniform sizes, with a UDP record after every ninth."""
    rng = np.random.default_rng(7)
    sizes = np.floor(10.0 ** rng.uniform(1.0, 6.0, size=(50_000, 2))).astype(np.int64).tolist()
    classes = rng.choice(["normal.", "neptune.", "warezclient."], size=50_000, p=[0.8, 0.15, 0.05]).tolist()
    features = ",".join(["0"] * 35)
    lines = []
    for i, ((src, dst), cls) in enumerate(zip(sizes, classes)):
        lines.append(f"{i % 3},tcp,http,SF,{src},{dst},{features},{cls}")
        if i % 9 == 8:
            lines.append(f"0,udp,domain_u,SF,{src},0,{features},normal.")
    path = tmp_path_factory.mktemp("kdd") / "kddcup.data"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_adapt_kdd_peaks_at_most_1_6_times_its_columns(kdd_file):
    dataset, peak = traced_peak(lambda: adapt_kdd(kdd_file))
    assert len(dataset) == 50_000
    assert peak <= 1.6 * column_bytes(dataset)
