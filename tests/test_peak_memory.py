"""Peak traced memory of building a flow table, against the bytes of its columns; what a command still holds
when it fingerprints its output.

The flow CSV dataset is the README quick start's: 36,000 log-uniform normal
flows and two 3,000-flow bursts. ``generate`` folds each octet draw into its
addresses as it is drawn, and the table builder grows each column in place,
so neither holds a second copy of the table while it is built. The KDD file
holds 50,000 seeded TCP records, which ``adapt_kdd`` converts a block of
lines at a time.

Ranking the IPv4 endpoints (``_rank_ipv4``) sets the peak of both flow-table
builds. It holds about 20 B a value (``np.unique`` with its inverse about
40), so ``generate`` and ``parse_flow_csv`` peak at about twice their
columns. Their older 3x and 2.5x bounds stay; the 2x bounds, and 24 B a
value for the ranking alone, hold it to that working set.

A manifest's first SHA-256 maps OpenSSL, so each command releases its flow
table, ordered flows and window arrays before ``_write_output`` hashes.
"""

import tracemalloc
import weakref
from contextlib import nullcontext

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
from flowdigits import cli, detector, evaluation
from flowdigits.ingest import _COLUMN_TYPES, _rank_ipv4

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


def test_rank_ipv4_peaks_at_most_24_bytes_a_value():
    """100,000 flows' endpoints as the quick start draws them: 10/8 sources, 192.168/16 destinations."""
    rng = np.random.default_rng(7)
    src = (10 << 24 | rng.integers(0, 1 << 24, 100_000)).astype(np.uint32).view(np.int32)
    dst = (192 << 24 | 168 << 16 | rng.integers(0, 1 << 16, 100_000)).astype(np.uint32).view(np.int32)
    expected = np.unique(np.concatenate((src, dst)).view(np.uint32), return_inverse=True)
    ipv4, peak = traced_peak(lambda: _rank_ipv4(src, dst))
    assert ipv4.tolist() == expected[0].tolist() and np.concatenate((src, dst)).tolist() == expected[1].tolist()
    assert peak <= 24 * 200_000


def test_generate_peaks_at_most_twice_its_columns():
    dataset, peak = traced_peak(lambda: generate(QUICKSTART))
    assert len(dataset) == 42_000
    assert peak <= 2 * column_bytes(dataset)


@pytest.mark.parametrize("read", [lambda path: path.read_bytes(), lambda path: path], ids=["bytes", "path"])
def test_parse_flow_csv_peaks_at_most_twice_its_columns(quickstart_csv, read):
    source = read(quickstart_csv)
    dataset, peak = traced_peak(lambda: parse_flow_csv(source))
    assert len(dataset) == 42_000
    assert peak <= 2 * column_bytes(dataset)


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


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "synth.csv"
    spec = GeneratorSpec(seed=11, n_normal=3_000, attacks=(AttackBurst(900, 400, ConstantSize(1500)),))
    write_flow_csv(generate(spec), path)
    return path


@pytest.fixture
def pipeline(monkeypatch):
    """Weak references, by kind, to each flow table, OrderedFlows and window array a command makes; ``at_hash`` names
    the kinds still alive when ``_sha256`` first runs, and ``at_windows`` those alive as each ``window_arrays`` starts.
    """
    refs: list[tuple[str, weakref.ref]] = []

    def keep(kind, *objects):
        refs.extend((kind, weakref.ref(obj)) for obj in objects if obj is not None)

    def alive():
        return sorted({kind for kind, ref in refs if ref() is not None})

    class Watched(detector.OrderedFlows):
        def __init__(self, *args):
            super().__init__(*args)
            keep("OrderedFlows", self)

    load_dataset, window_arrays, sha256 = cli._load_dataset, detector.window_arrays, cli._sha256
    state = {"refs": refs, "at_hash": None, "at_windows": []}

    def watched_load(*args):
        dataset = load_dataset(*args)
        keep("dataset", dataset)
        return dataset

    def watched_windows(*args):
        state["at_windows"].append(alive())
        arrays = window_arrays(*args)
        keep("window_arrays", *arrays)
        return arrays

    def watched_sha256(path):
        if state["at_hash"] is None:
            state["at_hash"] = alive()
        return sha256(path)

    monkeypatch.setattr(cli, "_load_dataset", watched_load)
    monkeypatch.setattr(cli, "_sha256", watched_sha256)
    for module in (detector, evaluation):
        monkeypatch.setattr(module, "OrderedFlows", Watched)
        monkeypatch.setattr(module, "window_arrays", watched_windows)
    return state


ALL_KINDS = ["OrderedFlows", "dataset", "window_arrays"]


@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["evaluate", "--roc", "--window", "200", "--step", "1", "--labeling-abs", "5"], ALL_KINDS),
        (["evaluate", "--windows", "100,500", "--tl", "0.01..0.1", "--metrics", "chi2,mkld"], ALL_KINDS[:2]),
        (["sweep", "--windows", "100,500,5000"], ALL_KINDS),
        (["score", "--window", "500", "--tl", "0.1"], ALL_KINDS),
    ],
    ids=["roc", "grid", "sweep", "score"],
)
def test_a_command_holds_no_flow_table_or_window_arrays_when_it_hashes(pipeline, small_csv, tmp_path, argv, kinds):
    with pytest.warns(RuntimeWarning) if argv[0] == "sweep" else nullcontext():  # W=5000 exceeds the flow count
        assert cli.main([*argv, str(small_csv), "-o", str(tmp_path / "out.csv")]) == 0
    assert sorted({kind for kind, _ in pipeline["refs"]}) == kinds
    assert pipeline["at_hash"] == []


def test_evaluate_roc_releases_the_flow_table_before_it_scores_the_windows(pipeline, small_csv, tmp_path):
    argv = ["evaluate", "--roc", "--window", "200", "--step", "1", "--labeling-abs", "5", str(small_csv)]
    assert cli.main([*argv, "-o", str(tmp_path / "roc.csv")]) == 0
    assert pipeline["at_windows"] == [["OrderedFlows"]]
