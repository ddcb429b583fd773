"""phase-diagram spreads its grid rows over worker processes; the bytes do not change.

`inline` pins the affinity mask to one CPU, so every row runs in this
process; `workers` widens it to two, so any grid of two or more rows runs in
forked pool workers, on any machine.
"""

import json
import multiprocessing
import os
import types

import pytest
import scipy.linalg.lapack

from chiraledge import cli
from chiraledge.errors import NotChiral

from golden.capture import INVOCATIONS, run_in_process
from test_cli import nan_band_solve


@pytest.fixture
def inline(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def both_ways(monkeypatch, run):
    """run() under a one-CPU and then a two-CPU affinity mask."""
    results = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        results.append(run())
    return results


def ssh_family(tmp_path, t1, t2):
    """An ssh family file over t1 = (min, max) and t2 = (min, max)."""
    path = tmp_path / "fam.json"
    axes = (("param1", "t1", t1), ("param2", "t2", t2))
    doc = {key: {"name": name, "min": lo, "max": hi} for key, name, (lo, hi) in axes}
    path.write_text(json.dumps({"family": "ssh", **doc}))
    return path


def rows_of(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]


def outcome(argv):
    """main's exit code, or the type and text of the exception it let through
    (which `python -m chiraledge` turns into exit code 1)."""
    try:
        return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc).__name__, str(exc)


def _worker_pid(_):
    return os.getpid()


class TestMapInOrder:
    def test_two_cpus_use_other_processes(self, workers):
        pids = cli._map_in_order(_worker_pid, list(range(8)))
        assert os.getpid() not in pids

    @pytest.mark.parametrize("items", [[0], []], ids=["one-item", "no-items"])
    def test_fewer_than_two_items_run_inline(self, workers, items):
        assert cli._map_in_order(_worker_pid, items) == [os.getpid()] * len(items)

    def test_one_cpu_runs_inline(self, inline):
        assert cli._map_in_order(_worker_pid, list(range(4))) == [os.getpid()] * 4

    def test_daemonic_caller_runs_inline(self, workers, monkeypatch):
        monkeypatch.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True))
        assert cli._map_in_order(_worker_pid, list(range(4))) == [os.getpid()] * 4


@pytest.mark.parametrize(
    "argv", [argv for name, argv in INVOCATIONS if name.startswith("phase-diagram")],
    ids=[name for name, _ in INVOCATIONS if name.startswith("phase-diagram")],
)
def test_golden_grid_bytes_do_not_depend_on_the_workers(monkeypatch, argv):
    inline_out, pooled_out = both_ways(monkeypatch, lambda: run_in_process(argv))
    assert pooled_out == inline_out


def test_grid_across_the_transition(monkeypatch, tmp_path):
    # t1 = 1.5 and 1.6 are both t2 grid values: two diagonal cells with no gap
    # (empty fields), and every gapped cell decays at >= 0.92, so its kernel
    # count takes the sparse path (215-1306 cells).
    path = ssh_family(tmp_path, (1.5, 1.6), (1.48, 1.62))
    out = tmp_path / "pd.csv"

    def run():
        assert cli.main(["phase-diagram", str(path), "--grid", "2x8", "--out", str(out)]) == 0
        return out.read_text()

    inline_text, pooled_text = both_ways(monkeypatch, run)
    assert pooled_text == inline_text
    rows = rows_of(pooled_text)
    assert len(rows) == 16
    empty = [(t1, t2, edge) for t1, t2, w, edge, _, _ in rows if w == ""]
    assert empty == [("1.5", "1.5", ""), ("1.6", "1.6", "")]


def test_linked_grid_bytes_do_not_depend_on_the_workers(monkeypatch, tmp_path):
    # Four rows, each crossing |t1| = |t2| once or twice, so every row has
    # runs of linked cells; t1 = 0.8 = t2 is a cell with no gap.
    path = ssh_family(tmp_path, (0.4, 1.6), (0.2, 2.0))
    out = tmp_path / "pd.csv"

    def run():
        assert cli.main(["phase-diagram", str(path), "--grid", "4x7", "--out", str(out)]) == 0
        return out.read_text()

    inline_text, pooled_text = both_ways(monkeypatch, run)
    assert pooled_text == inline_text
    rows = rows_of(pooled_text)
    assert len(rows) == 28
    assert [row[5] for row in rows].count("linked") == 16
    assert [row[5] for row in rows].count("") == 1


def test_zero_cell_grid_exits_0(workers, tmp_path):
    out = tmp_path / "pd.csv"
    path = ssh_family(tmp_path, (0.5, 1), (1, 2))
    assert cli.main(["phase-diagram", str(path), "--grid", "0x5", "--out", str(out)]) == 0
    assert rows_of(out.read_text()) == []


def test_refused_cell_stays_empty_in_a_worker(monkeypatch, tmp_path):
    # t2 = 1 decays as 0.9^n and takes the sparse path, whose band solve is
    # broken here; t2 = 2 decays as 0.45^n and stays dense.  Two equal rows,
    # so that the pool has two tasks.
    path = ssh_family(tmp_path, (0.9, 0.9), (1.0, 2.0))
    monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", nan_band_solve)

    def run():
        out = tmp_path / "pd.csv"
        assert cli.main(["phase-diagram", str(path), "--grid", "2x2", "--out", str(out)]) == 0
        return [(w, edge) for _, _, w, edge, _, _ in rows_of(out.read_text())]

    assert both_ways(monkeypatch, run) == [[("1", ""), ("1", "1")] * 2] * 2


@pytest.mark.parametrize(
    "error,expected",
    [(RuntimeError("t2 = 1.5"), ("RuntimeError", "t2 = 1.5")), (NotChiral("t2 = 1.5"), 2)],
    ids=["non-package-error", "input-error"],
)
def test_error_raised_in_a_cell_gives_the_inline_outcome(monkeypatch, tmp_path, error, expected):
    real = cli.chiral_gap

    def failing_gap(cm):
        if cm.base.right_hops[0][1, 0] == 1.5:  # the t2 = 1.5 cells
            raise error
        return real(cm)

    monkeypatch.setattr(cli, "chiral_gap", failing_gap)
    argv = ["phase-diagram", str(ssh_family(tmp_path, (0.5, 1.0), (1.0, 2.0))), "--grid", "2x3"]
    assert both_ways(monkeypatch, lambda: outcome(argv + ["--out", str(tmp_path / "pd.csv")])) == [expected] * 2


def test_phase_diagram_inside_a_daemonic_worker(workers, tmp_path):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", str(ssh_family(tmp_path, (0.5, 1.0), (1.0, 2.0))), "--grid", "2x2", "--out", str(out)]
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        assert pool.apply(cli.main, (argv,)) == 0
    finally:
        pool.terminate()
        pool.join()
    assert len(rows_of(out.read_text())) == 4
