import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, given, strategies as st

from chiraledge import cli, verify
from chiraledge.cli import main
from chiraledge.config import Tolerances
from chiraledge.errors import NonConvergent
from chiraledge.fixtures import ssh
from chiraledge.halfspace import edge_modes_truncated
from chiraledge.loops import model_from_loop
from chiraledge.models import MatrixLoop, model_to_dict, save_model, unit_circle
from chiraledge.spectrum import chiral_gap
from chiraledge.winding import full_winding

from test_winding import root_pair_between_samples


@pytest.fixture
def ssh_file(tmp_path):
    cm = ssh(1, 2)
    path = tmp_path / "ssh.json"
    save_model(path, cm.base, cm.grading)
    return path


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(
        json.dumps(
            {
                "family": "ssh",
                "param1": {"name": "t1", "min": 0.25, "max": 2.0},
                "param2": {"name": "t2", "min": 0.25, "max": 2.0},
            }
        )
    )
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_dimerized_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "dimerized-all")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert set(doc["cases"]) == {"dimerized-plus", "dimerized-minus", "dimerized-trivial"}

    def test_single_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "ssh:t1=1,t2=2")
        assert code == 0
        doc = json.loads(out)
        assert doc["bec"]["winding"]["winding"] == 1

    def test_small_ensemble(self, capsys):
        code, out, _ = run(capsys, "verify", "--ensemble", "dim_v=2,range=1,count=3,seed=5")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["passed"] is True

    def test_one_edge_count_per_two_band_model(self, capsys, monkeypatch):
        # The two-band strong form reads verify_bec's gap, winding and edge
        # count instead of computing them a second time.
        calls = []
        real = verify.edge_modes_truncated

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "edge_modes_truncated", counted)
        code, out, _ = run(capsys, "verify", "--ensemble", "dim_v=2,range=1,count=3,seed=5")
        assert code == 0
        doc = json.loads(out)
        assert all("two_band" in case for case in doc["cases"])
        assert len(calls) == doc["count"] == 3


class TestWindingCommand:
    def test_trivial_winding_zero(self, capsys):
        code, out, _ = run(capsys, "winding", "--fixture", "dimerized-trivial")
        assert code == 0
        assert json.loads(out)["winding"] == 0

    def test_model_file_positional(self, capsys, ssh_file):
        code, out, _ = run(capsys, "winding", str(ssh_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["winding"] == 1
        assert doc["method_roots"] == 1
        assert doc["meta"]["tool"] == "chiraledge"

    def test_method_disagreement_exits_1(self, capsys, tmp_path):
        cm = root_pair_between_samples()
        path = tmp_path / "root_pair.json"
        save_model(path, cm.base, cm.grading)
        code, out, err = run(capsys, "winding", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "NonConvergent"


class TestSpectrumCommand:
    def test_csv_and_gap(self, capsys, ssh_file, tmp_path):
        out_csv = tmp_path / "bands.csv"
        code, out, _ = run(capsys, "spectrum", str(ssh_file), "--samples", "32", "--out", str(out_csv))
        assert code == 0
        gap = json.loads(out)["gap"]
        assert gap["gapped"] is True
        lines = out_csv.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "k,E_1,E_2"
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 32


class TestEdgeCommand:
    def test_edge_both_routes(self, capsys):
        code, out, _ = run(capsys, "edge", "--fixture", "defective:theta=0.5")
        assert code == 0
        doc = json.loads(out)
        assert (doc["dim_ker_pm"], doc["dim_ker_mp"]) == (1, 0)
        assert doc["method"] == "both"
        assert doc["routes_agree"] is True

    @pytest.mark.parametrize("cells", [0, 4, 8, 16])
    def test_explicit_cells_below_decay_minimum_refused(self, capsys, cells):
        # ssh(1, 2) decays as 2^-n, so the kernel threshold needs 32 cells;
        # a shorter section would report edge_index 0 for winding 1.
        code, out, err = run(
            capsys, "edge", "--fixture", "ssh:t1=1,t2=2", "--method", "truncated", "--cells", str(cells)
        )
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "AmbiguousKernel"

    def test_energy_flag_is_malformed(self, capsys):
        # The edge index is a zero-energy count; there is no energy to choose.
        with pytest.raises(SystemExit) as exit_info:
            main(["edge", "--fixture", "ssh:t1=1,t2=2", "--energy", "0.5"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


def nan_band_solve(lu, kl, ku, b, piv):
    return np.full(b.shape, np.nan, dtype=complex), 0


class TestNonConvergentSolve:
    # ssh(0.9, 1) decays as 0.9^n: 161 cells, above the dense switch.
    def test_edge_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", nan_band_solve)
        code, out, err = run(capsys, "edge", "--fixture", "ssh:t1=0.9,t2=1")
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "NonConvergent"

    def test_phase_diagram_cell_left_empty(self, capsys, monkeypatch, tmp_path):
        family = tmp_path / "fam.json"
        family.write_text(
            json.dumps(
                {
                    "family": "ssh",
                    "param1": {"name": "t1", "min": 0.9, "max": 0.9},
                    "param2": {"name": "t2", "min": 1.0, "max": 2.0},
                }
            )
        )
        out_csv = tmp_path / "pd.csv"
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", nan_band_solve)
        code, _, _ = run(capsys, "phase-diagram", str(family), "--grid", "1x2", "--out", str(out_csv))
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        # t2 = 2 decays as 0.45^n and stays on the dense path.
        assert [(w, edge) for _, _, w, edge, _, _ in rows] == [("1", ""), ("1", "1")]


class TestScanCommand:
    def test_scan_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--fixture", "dimerized-plus", "--cells", "16", "--out", str(out_csv))
        assert code == 0
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        sides = [r.split(",")[2] for r in rows]
        assert sides == ["left", "right"]


class TestModesCommand:
    def test_defective_window(self, capsys, tmp_path):
        out_csv = tmp_path / "modes.csv"
        code, _, _ = run(
            capsys,
            "modes",
            "--fixture",
            "defective:theta=0",
            "--initial",
            "0,0,1,0",
            "--steps",
            "5",
            "--start",
            "0",
            "--out",
            str(out_csv),
        )
        assert code == 0
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        values = {int(r.split(",")[0]): [float(x) for x in r.split(",")[1:]] for r in rows}
        assert values[1][:2] == [1.0, 0.0]
        assert values[2][0] == pytest.approx(-1.0)
        assert values[3][0] == pytest.approx(0.75)
        assert values[4][0] == pytest.approx(-0.5)


class TestPhaseDiagram:
    def test_transition_pattern(self, capsys, family_file, tmp_path):
        out_csv = tmp_path / "pd.csv"
        code, _, _ = run(
            capsys, "phase-diagram", str(family_file), "--grid", "4x4", "--cells", "96", "--out", str(out_csv)
        )
        assert code == 0
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 16
        for row in rows:
            t1, t2, w, edge, margin, decided = row.split(",")
            if abs(abs(float(t1)) - abs(float(t2))) < 1e-9:
                assert w == "" and edge == "" and decided == ""
            else:
                expected = "1" if abs(float(t2)) > abs(float(t1)) else "0"
                assert w == expected and edge == expected and decided in ("routes", "linked")


    def test_uncertified_cell_left_empty(self, capsys, tmp_path):
        # sigma_min = 2e-6 is sampled at k = -pi, but no grid up to NUM_K_CAP
        # certifies it: neither the winding nor the edge index is reported.
        family = tmp_path / "fam.json"
        family.write_text(
            json.dumps(
                {
                    "family": "ssh",
                    "param1": {"name": "t1", "min": 1.0, "max": 1.0},
                    "param2": {"name": "t2", "min": 1.000002, "max": 1.000002},
                }
            )
        )
        out_csv = tmp_path / "pd.csv"
        code, _, _ = run(capsys, "phase-diagram", str(family), "--grid", "1x1", "--out", str(out_csv))
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1
        _, _, winding, edge, margin, decided = rows[0]
        assert (winding, edge, decided) == ("", "", "")
        assert float(margin) == pytest.approx(2e-6, rel=1e-6)

    def test_borderline_root_leaves_edge_empty(self, capsys, tmp_path):
        # The root -0.995 lies inside circle_band = 1e-2: the truncated route
        # refuses rather than read edge index 0 from an 8-cell section.
        family = tmp_path / "fam.json"
        family.write_text(
            json.dumps(
                {
                    "family": "ssh",
                    "param1": {"name": "t1", "min": 0.995, "max": 0.995},
                    "param2": {"name": "t2", "min": 1.0, "max": 1.0},
                }
            )
        )
        out_csv = tmp_path / "pd.csv"
        code, _, _ = run(
            capsys, "phase-diagram", str(family), "--grid", "1x1", "--tol.circle_band=1e-2", "--out", str(out_csv)
        )
        assert code == 0
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows == ["0.995,1,1,,0.005,routes"]


def phase_rows(capsys, tmp_path, t1, t2, grid):
    """The data rows of an ssh phase diagram over t1 = (min, max) and t2 = (min, max), split into fields."""
    family = tmp_path / "fam.json"
    axes = (("param1", "t1", t1), ("param2", "t2", t2))
    family.write_text(json.dumps({"family": "ssh", **{k: {"name": n, "min": lo, "max": hi} for k, n, (lo, hi) in axes}}))
    out_csv = tmp_path / "pd.csv"
    code, _, _ = run(capsys, "phase-diagram", str(family), "--grid", grid, "--out", str(out_csv))
    assert code == 0
    return [l.split(",") for l in out_csv.read_text().splitlines() if not l.startswith("#")][1:]


# The five shapes (dim_v, range) of acceptance criterion 4.
CRITERION_4_SHAPES = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]


class TestLinkedRows:
    # ssh's h_pm is t1 + t2 lambda, so sigma_min = | |t1| - |t2| | and a step
    # along a row changes one coefficient: D = |t2' - t2|.
    def test_coarse_grid_links_only_certified_steps(self, capsys, tmp_path):
        t1s, t2s = (0.25, 1.0, 1.75), (1.25, 2.0, 2.75)
        expected_runs = [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]]
        for t1, want in zip(t1s, expected_runs):
            cms = [ssh(t1, t2) for t2 in t2s]
            gaps = [chiral_gap(cm) for cm in cms]
            runs = cli._linked_runs([cm.symbol("pm") for cm in cms], gaps)
            linked = {(i - 1, i) for run in runs for i in run[1:]}
            for i in (1, 2):
                beta_a, beta_b = (gaps[j].certificate_margin / 2 for j in (i - 1, i))
                if (i - 1, i) in linked:
                    assert abs(t2s[i] - t2s[i - 1]) < (beta_a + beta_b) / 2
            # Left unlinked: the steps from gap 0.25 to gap 1 (t1 = 1 and 1.75),
            # where D = 0.75 lies between (beta_a + beta_b) / 2 and beta_a + beta_b,
            # and the step across the transition (t1 = 1.75).
            assert runs == want
        rows = phase_rows(capsys, tmp_path, (0.25, 1.75), (1.25, 2.75), "3x3")
        assert [(w, edge) for _, _, w, edge, _, _ in rows] == [("1", "1")] * 6 + [("0", "0"), ("1", "1"), ("1", "1")]
        # The best-gapped member (t2 = 2.75) decides each run by its routes.
        decided = ["linked", "linked", "routes", "routes", "linked", "routes", "routes", "routes", "routes"]
        assert [row[5] for row in rows] == decided

    def test_step_is_the_coefficient_sum_not_a_sampled_norm(self):
        # h_b - h_a = diag(1.2, 1.2 lambda) has norm 1.2 everywhere on the
        # circle, but its coefficient norms sum to D = 2.4 >= (beta_a + beta_b) / 2.
        h_a = MatrixLoop(0, np.array([2 * np.eye(2), np.zeros((2, 2))], dtype=complex))
        h_b = MatrixLoop(0, h_a.coeffs + np.array([np.diag([1.2, 0]), np.diag([0, 1.2])]))
        cms = [model_from_loop(h) for h in (h_a, h_b)]
        gaps = [chiral_gap(cm) for cm in cms]
        threshold = (gaps[0].certificate_margin + gaps[1].certificate_margin) / 4
        lams = unit_circle(512)
        sampled = np.linalg.norm(h_b.eval_many(lams) - h_a.eval_many(lams), 2, axis=(1, 2)).max()
        assert sampled < threshold < 2.4
        assert cli._linked_runs([cm.symbol("pm") for cm in cms], gaps) == [[0], [1]]

    @given(shape=st.sampled_from(CRITERION_4_SHAPES), seed=st.integers(0, 2**32 - 1), ratio=st.floats(0.05, 0.5))
    def test_linked_models_share_their_integers(self, shape, seed, ratio):
        # h_b = h_a + E with sum_j ||E_j|| = ratio * beta_a; the pair must link,
        # and the routes must then give both models the same two integers.
        dim_v, hop_range = shape
        cm_a = verify.random_chiral_ensemble(verify.EnsembleSpec(seed, 1, dim_v, hop_range, gap_floor=0.3))[0]
        h_a = cm_a.symbol("pm")
        gap_a = chiral_gap(cm_a)
        assume(gap_a.gapped)
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(h_a.coeffs.shape) + 1j * rng.standard_normal(h_a.coeffs.shape)
        e *= ratio * gap_a.certificate_margin / 2 / np.linalg.norm(e, 2, axis=(1, 2)).sum()
        cm_b = model_from_loop(MatrixLoop(h_a.lowest_power, h_a.coeffs + e))
        gap_b = chiral_gap(cm_b)
        assert np.linalg.norm(e, 2, axis=(1, 2)).sum() < (gap_a.certificate_margin + gap_b.certificate_margin) / 4
        assert cli._linked_runs([h_a, cm_b.symbol("pm")], [gap_a, gap_b]) == [[0, 1]]
        integers = [
            (full_winding(cm).winding, edge_modes_truncated(cm, gap=gap).edge_index)
            for cm, gap in ((cm_a, gap_a), (cm_b, gap_b))
        ]
        assert integers[0] == integers[1]

    @pytest.mark.parametrize("route", ["winding-refused", "winding-disagrees"])
    def test_representative_failure_is_not_inherited(self, capsys, monkeypatch, tmp_path, route):
        # t1 = 0.5, t2 = 1.5, 1.75, 2: one run, represented by t2 = 2.
        real = cli.full_winding

        def representative_fails(cm, **kwargs):
            result = real(cm, **kwargs)
            if cm.base.right_hops[0][1, 0] != 2.0:
                return result
            if route == "winding-refused":
                raise NonConvergent("planted at the representative")
            return dataclasses.replace(result, winding=result.winding + 1)

        monkeypatch.setattr(cli, "full_winding", representative_fails)
        rows = phase_rows(capsys, tmp_path, (0.5, 0.5), (1.5, 2.0), "1x3")
        representative = ("", "1") if route == "winding-refused" else ("2", "1")
        assert [tuple(row[2:4]) for row in rows] == [("1", "1"), ("1", "1"), representative]
        assert [row[5] for row in rows] == ["routes"] * 3

    def test_representative_band_solve_refusal_is_not_inherited(self, capsys, monkeypatch, tmp_path):
        # t1 = 0.9, t2 = 1, 1.02, 1.04: one run whose every section takes the
        # band route (120 cells at t2 = 1.04), whose solve is broken here.
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", nan_band_solve)
        rows = phase_rows(capsys, tmp_path, (0.9, 0.9), (1.0, 1.04), "1x3")
        assert [(row[2], row[3], row[5]) for row in rows] == [("1", "", "routes")] * 3


class TestErrorsAndDeterminism:
    @pytest.mark.parametrize(
        "flag",
        ["--tol.bogus=1e-3", "--tol.interp_residual=1e-9", "--tol.coeff_trim=1e-10", "--tol.c=1e-3"],
        ids=["bogus", "interp_residual", "coeff_trim", "ambiguous"],
    )
    def test_unknown_tolerance_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["winding", "--fixture", "dimerized-plus", flag])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flag",
        ["--tol.kernel=0", "--tol.kernel=-1e-7", "--tol.kernel=nan", "--tol.kernel=inf",
         "--tol.circle_band=nan", "--tol.winding_integer=-1"],
        ids=["kernel-0", "kernel-negative", "kernel-nan", "kernel-inf", "circle_band-nan", "winding_integer-negative"],
    )
    def test_tolerance_not_finite_and_positive_exits_2(self, capsys, flag):
        # A NaN circle band would classify no root as borderline and so never refuse.
        with pytest.raises(SystemExit) as exit_info:
            main(["edge", "--fixture", "ssh:t1=1,t2=2", flag])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_tolerance_override_accepted(self, capsys):
        code, out, _ = run(capsys, "winding", "--fixture", "dimerized-plus", "--tol.kernel=1e-6")
        assert code == 0
        assert json.loads(out)["meta"]["tolerances"]["kernel"] == 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tol.kernel=1e-6", "winding", "--fixture", "dimerized-plus"],
            ["--tol.kernel", "1e-6", "winding", "--fixture", "dimerized-plus"],
            ["winding", "--fixture", "dimerized-plus", "--tol.kernel", "1e-6"],
            ["winding", "--fixture", "dimerized-plus", "--tol.ker=1e-6"],
        ],
        ids=["before-equals", "before-space", "after-space", "prefix"],
    )
    def test_tolerance_override_forms(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        tolerances = json.loads(out)["meta"]["tolerances"]
        assert tolerances["kernel"] == 1e-6
        assert tolerances["cluster"] == 1e-7

    def test_malformed_model_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim_v": 2}')
        code, _, err = run(capsys, "winding", str(bad))
        assert code == 2
        assert "ParseError" in err

    def test_gapless_model_exits_1(self, capsys):
        code, _, err = run(capsys, "winding", "--fixture", "ssh:t1=1,t2=1")
        assert code == 1
        assert "GapNotCertified" in err

    def test_missing_model_exits_2(self, capsys):
        code, _, _ = run(capsys, "winding")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--ensemble", "dim_v=x,range=1,count=2"],
            ["verify", "--ensemble", "dim_v"],
            ["verify", "--ensemble", "dim_v=3,range=1,count=2"],
            ["verify", "--ensemble", "dim_v=2,range=0,count=2"],
            ["phase-diagram", "{bad_family}", "--grid", "2x2"],
            ["phase-diagram", "{family}", "--grid=-1x2"],
            ["modes", "--fixture", "defective:theta=0", "--initial", "0,0,1,0", "--steps", "0"],
            ["spectrum", "--fixture", "ssh:t1=1,t2=2", "--samples", "4"],
            ["winding", "--fixture", "ssh:t1=1,t2=2", "--samples", "4", "--curve-out", "{curve}"],
            ["winding", "--fixture", "ssh:t1=1,t2=2", "--samples=-3"],
            ["phase-diagram", "{family_axis_string}", "--grid", "1x1"],
            ["phase-diagram", "{family_doc_string}", "--grid", "1x1"],
            ["phase-diagram", "{family_name_list}", "--grid", "1x1"],
            ["winding", "{model_dim_v_fraction}"],
            ["winding", "{model_range_fraction}"],
            ["winding", "{model_range_bool}"],
            ["winding", "{model_grading_fraction}"],
            ["winding", "{model_grading_string}"],
            ["winding", "{model_grading_object}"],
            ["edge", "--fixture", "ssh:t1=nan,t2=2"],
            ["edge", "--fixture", "ssh:t1=inf,t2=2"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,scale=nan"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,seed=-1"],
            ["phase-diagram", "{family_min_nan}", "--grid", "2x2"],
            ["winding", "{model_hop_nan}"],
            ["modes", "--fixture", "defective:theta=0", "--energy", "nan", "--initial", "0,0,1,0"],
            ["modes", "--fixture", "defective:theta=0", "--initial", "nan,0,1,0", "--steps", "2"],
            ["modes", "--fixture", "defective:theta=0", "--initial", "nan,0,1,0", "--steps", "2", "--out", "{curve}"],
            ["scan", "--fixture", "ssh:t1=1,t2=2", "--window", "nan,nan"],
            ["modes", "--fixture", "defective:theta=0", "--initial", "0,0,1,0", "--back=-3", "--steps", "2"],
            ["scan", "--fixture", "ssh:t1=1,t2=2", "--window", "0.5,-0.5"],
            ["scan", "--fixture", "ssh:t1=1,t2=2", "--window", "0.5,0.5"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,scale=-1"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,scale=0"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,scale=1e300"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,scale=1e-200"],
            ["verify", "--ensemble", "dim_v=2,range=1,count=1,gap_floor=-1"],
        ],
        ids=["ensemble-not-a-number", "ensemble-no-value", "ensemble-odd-dim", "ensemble-range-0",
             "family-min-not-a-number", "grid-negative", "modes-steps-0", "spectrum-samples-4",
             "winding-samples-4", "winding-samples-negative", "family-axis-string", "family-doc-string",
             "family-name-list", "model-dim_v-fraction", "model-range-fraction", "model-range-bool",
             "model-grading-fraction", "model-grading-string", "model-grading-object",
             "fixture-nan", "fixture-inf", "ensemble-scale-nan", "ensemble-seed-negative", "family-min-nan",
             "model-hop-nan", "modes-energy-nan", "modes-initial-nan", "modes-initial-nan-out", "window-nan",
             "modes-back-negative", "window-reversed", "window-empty", "ensemble-scale-negative",
             "ensemble-scale-0", "ensemble-scale-square-overflows", "ensemble-scale-square-underflows",
             "ensemble-gap_floor-negative"],
    )
    def test_malformed_input_exits_2(self, capsys, family_file, tmp_path, argv):
        family = json.loads(family_file.read_text())
        cm = ssh(1, 2)
        model = model_to_dict(cm.base, cm.grading)
        docs = {
            "bad_family": {**family, "param1": {**family["param1"], "min": "a"}},
            "family_axis_string": {**family, "param1": "name min max"},
            "family_doc_string": "family param1 param2",
            "family_name_list": {**family, "family": ["ssh"]},
            "model_dim_v_fraction": {**model, "dim_v": 2.9},
            "model_range_fraction": {**model, "range": 1.5},
            "model_range_bool": {**model, "range": True},
            "model_grading_fraction": {**model, "grading": [1, -1.7]},
            "model_grading_string": {**model, "grading": "ab"},
            "model_grading_object": {**model, "grading": {"a": 1}},
            "family_min_nan": {**family, "param1": {**family["param1"], "min": float("nan")}},
            "model_hop_nan": {**model, "right_hops": [[[[0.0, 0.0], [0.0, 0.0]], [[float("nan"), 0.0], [0.0, 0.0]]]]},
        }
        paths = {"family": family_file, "curve": tmp_path / "curve.csv"}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        argv = [a.format(**paths) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ParseError"
        assert not paths["curve"].exists()

    def test_byte_identical_reruns(self, capsys, ssh_file, tmp_path):
        pairs = []
        for name, argv in {
            "verify": ["verify", "--ensemble", "dim_v=2,range=1,count=3,seed=9"],
            "winding": ["winding", str(ssh_file)],
            "edge": ["edge", "--fixture", "defective:theta=1.0"],
        }.items():
            outputs = []
            for run_idx in range(2):
                out_file = tmp_path / f"{name}{run_idx}.json"
                assert main(argv + ["--out", str(out_file)]) == 0
                outputs.append(out_file.read_bytes())
            pairs.append(outputs)
        for a, b in pairs:
            assert a == b


SUBCOMMANDS = ["spectrum", "winding", "edge", "scan", "modes", "deform", "verify", "phase-diagram"]


def run_module(*argv):
    """python -m chiraledge ARGV in a fresh interpreter, importing from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "chiraledge", *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestCommandLineSmoke:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_every_tolerance(self, command):
        result = run_module(command, "--help")
        assert result.returncode == 0, result.stderr
        for f in dataclasses.fields(Tolerances):
            assert f"--tol.{f.name}" in result.stdout

    def test_tolerance_before_the_subcommand(self):
        result = run_module("--tol.kernel=1e-6", "winding", "--fixture", "ssh:t1=1,t2=2")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["meta"]["tolerances"]["kernel"] == 1e-6
