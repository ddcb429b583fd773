"""phase-diagram runs its grid rows in grid order in the calling process.

These grids cross the transition, link cells, refuse cells and raise from
inside a row; the last test runs the subcommand inside a daemonic worker
process, which may not start processes of its own.
"""

import json
import multiprocessing

import pytest
import scipy.linalg.lapack

from chiraledge import cli
from chiraledge.errors import NotChiral

from test_cli import nan_band_solve


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


def phase_diagram_rows(tmp_path, path, grid):
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", str(path), "--grid", grid, "--out", str(out)]) == 0
    return rows_of(out.read_text())


def test_grid_across_the_transition(tmp_path):
    # t1 = 1.5 and 1.6 are both t2 grid values: two diagonal cells with no gap
    # (empty fields), and every gapped cell decays at >= 0.92, so its kernel
    # count takes the sparse path (215-1306 cells).
    rows = phase_diagram_rows(tmp_path, ssh_family(tmp_path, (1.5, 1.6), (1.48, 1.62)), "2x8")
    assert len(rows) == 16
    empty = [(t1, t2, edge) for t1, t2, w, edge, _, _ in rows if w == ""]
    assert empty == [("1.5", "1.5", ""), ("1.6", "1.6", "")]


def test_linked_grid_bytes_do_not_depend_on_the_workers(tmp_path):
    # Four rows, each crossing |t1| = |t2| once or twice; t1 = 0.8 = t2 is a
    # cell with no gap.  Row and column links join the other 27 cells into two
    # components, one on each side of the transition.
    rows = phase_diagram_rows(tmp_path, ssh_family(tmp_path, (0.4, 1.6), (0.2, 2.0)), "4x7")
    assert len(rows) == 28
    assert [row[5] for row in rows].count("linked") == 25
    assert [row[5] for row in rows].count("") == 1


def test_zero_cell_grid_exits_0(tmp_path):
    assert phase_diagram_rows(tmp_path, ssh_family(tmp_path, (0.5, 1), (1, 2)), "0x5") == []


def test_zero_column_grid_exits_0(tmp_path):
    assert phase_diagram_rows(tmp_path, ssh_family(tmp_path, (0.5, 1), (1, 2)), "5x0") == []


def test_refused_cell_stays_empty_in_a_worker(monkeypatch, tmp_path):
    # t2 = 1 decays as 0.9^n and takes the sparse path, whose band solve is
    # broken here; t2 = 2 decays as 0.45^n and stays dense.  Two equal rows.
    monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", nan_band_solve)
    rows = phase_diagram_rows(tmp_path, ssh_family(tmp_path, (0.9, 0.9), (1.0, 2.0)), "2x2")
    assert [(w, edge) for _, _, w, edge, _, _ in rows] == [("1", ""), ("1", "1")] * 2


@pytest.mark.parametrize(
    "error,expected",
    [(RuntimeError("t2 = 1.5"), ("RuntimeError", "t2 = 1.5")), (NotChiral("t2 = 1.5"), 2)],
    ids=["non-package-error", "input-error"],
)
def test_error_raised_in_a_cell_gives_the_inline_outcome(monkeypatch, tmp_path, error, expected):
    # A non-package error propagates out of main; an input error exits 2.
    real = cli.chiral_gaps

    def failing_gaps(h_pm):
        if (h_pm.coeffs[:, 2, 0, 0] == 1.5).any():  # a row holding a t2 = 1.5 cell
            raise error
        return real(h_pm)

    monkeypatch.setattr(cli, "chiral_gaps", failing_gaps)
    argv = ["phase-diagram", str(ssh_family(tmp_path, (0.5, 1.0), (1.0, 2.0))), "--grid", "2x3"]
    assert outcome(argv + ["--out", str(tmp_path / "pd.csv")]) == expected


def test_phase_diagram_inside_a_daemonic_worker(tmp_path):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", str(ssh_family(tmp_path, (0.5, 1.0), (1.0, 2.0))), "--grid", "2x2", "--out", str(out)]
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        assert pool.apply(cli.main, (argv,)) == 0
    finally:
        pool.terminate()
        pool.join()
    assert len(rows_of(out.read_text())) == 4
