import numpy as np
import pytest

from chiraledge.errors import SpectrumOnCriticalLine
from chiraledge.fixtures import defective, dimerized_plus, dimerized_trivial, ssh
from chiraledge.loops import (
    full_deformation,
    linearize,
    model_from_loop,
    monomial_loop,
    projectionize,
    stabilize_and_factor,
)
from chiraledge.models import MatrixLoop
from chiraledge.verify import EnsembleSpec, random_chiral_ensemble
from chiraledge.winding import winding_of_curve


def loop_values_close(a: MatrixLoop, b: MatrixLoop, lams=None) -> bool:
    if lams is None:
        lams = np.exp(1j * np.array([0.0, 0.9, 2.2, -1.3]))
    return np.allclose(a.eval_many(lams), b.eval_many(lams), atol=1e-10)


class TestLoopModelRoundTrip:
    def test_fixture_loops(self):
        assert loop_values_close(dimerized_plus().symbol("pm"), monomial_loop(1))
        assert loop_values_close(
            dimerized_trivial().symbol("pm"), monomial_loop(0)
        )
        t1, t2 = 0.7, -1.4
        expected = MatrixLoop(0, np.array([[[t1]], [[t2]]], dtype=complex))
        assert loop_values_close(ssh(t1, t2).symbol("pm"), expected)

    def test_model_round_trip(self):
        for cm in (dimerized_plus(), ssh(1.1, 0.4), defective(0.6)):
            loop = cm.symbol("pm")
            back = model_from_loop(loop)
            assert np.allclose(back.base.on_site, cm.base.on_site)
            assert np.allclose(back.base.right_hops, cm.base.right_hops)

    def test_ensemble_round_trip(self):
        for cm in random_chiral_ensemble(EnsembleSpec(seed=9, count=5, dim_v=4, hop_range=2, gap_floor=0.05)):
            back = model_from_loop(cm.symbol("pm"))
            assert loop_values_close(back.symbol("pm"), cm.symbol("pm"))


class TestStabilizeAndFactor:
    def test_scalar_inverse_monomial(self):
        path = stabilize_and_factor(monomial_loop(-1))
        poly = path.notes["poly"]
        assert path.notes["poly_degree"] == 0
        assert np.allclose(poly.coeffs[0], 1.0)
        assert path.winding_per_stage == [-1, -1]
        assert all(c > 0 for c in path.certificates)

    def test_dimerized_factoring(self):
        path = stabilize_and_factor(dimerized_plus().symbol("pm").trimmed(), hop_range=1)
        poly = path.notes["poly"]
        # p = lambda^2, endpoint p (+) lambda^-1.
        w, *_ = winding_of_curve(poly.det_fn())
        assert w == 2
        assert set(path.winding_per_stage) == {1}

    def test_defective_poly_winding(self):
        path = stabilize_and_factor(defective(0.0).symbol("pm"))
        poly = path.notes["poly"]
        # Frozen oracle: p = 1/4 + lambda + lambda^2 has both roots inside
        # the unit circle, so its winding is W + R q = 2.
        assert np.allclose(np.sort_complex(np.roots([1, 1, 0.25])), [-0.5, -0.5])
        w, *_ = winding_of_curve(poly.det_fn())
        assert w == 2
        assert set(path.winding_per_stage) == {1}


class TestLinearize:
    def test_scalar_square(self):
        ell = linearize(MatrixLoop(0, np.array([[[0.0]], [[0.0]], [[1.0]]], dtype=complex)))
        assert ell.size == 2
        w, *_ = winding_of_curve(ell.det_fn())
        assert w == 2

    def test_constant_passthrough(self):
        p = MatrixLoop(0, np.array([[[2.0]]], dtype=complex))
        assert linearize(p) is p

    def test_defective_poly(self):
        path = stabilize_and_factor(defective(0.0).symbol("pm"))
        ell = linearize(path.notes["poly"])
        assert ell.size == 2
        w, *_ = winding_of_curve(ell.det_fn())
        assert w == 2

    def test_matrix_polynomial_determinant_preserved(self):
        rng = np.random.default_rng(12)
        planes = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        p = MatrixLoop(0, planes)
        lams = np.exp(1j * np.linspace(0, 2 * np.pi, 7, endpoint=False))
        if np.min(np.abs(np.linalg.det(p.eval_many(lams)))) < 1e-3:
            return
        ell = linearize(p)
        det_p = np.linalg.det(p.eval_many(lams))
        det_l = np.linalg.det(ell.eval_many(lams))
        assert np.allclose(det_p, det_l, rtol=1e-8, atol=1e-10)


class TestProjectionize:
    def test_identity_winding_one(self):
        path, rank = projectionize(monomial_loop(1))
        assert rank == 1
        assert set(path.winding_per_stage) == {1}

    def test_constant_rank_zero(self):
        path, rank = projectionize(monomial_loop(0))
        assert rank == 0
        assert set(path.winding_per_stage) == {0}

    def test_linearized_defective_rank_two(self):
        path = stabilize_and_factor(defective(0.0).symbol("pm"))
        ell = linearize(path.notes["poly"])
        _, rank = projectionize(ell)
        assert rank == 2

    def test_critical_line_detected(self):
        # l(lambda) = (lambda + 1)/2 vanishes at lambda = -1, and its scaled
        # coefficient has an eigenvalue exactly on Re = 1/2.
        bad = MatrixLoop(0, np.array([[[0.5]], [[0.5]]], dtype=complex))
        with pytest.raises(SpectrumOnCriticalLine):
            projectionize(bad)


class TestFullDeformation:
    def test_dimerized_counts(self):
        path = full_deformation(dimerized_plus())
        assert path.notes["counts"] == (2, 1, 0)
        assert path.notes["endpoint_counts_formula"] == (2, 1)
        assert path.notes["endpoint_edge_index"] == 1
        assert set(path.winding_per_stage) == {1}
        assert min(path.certificates) > 0

    def test_trivial_all_ones(self):
        path = full_deformation(dimerized_trivial())
        assert path.notes["counts"] == (0, 0, 1)
        assert set(path.winding_per_stage) == {0}

    def test_defective_counts(self):
        path = full_deformation(defective(0.0))
        assert path.notes["counts"] == (2, 1, 0)
        assert path.notes["endpoint_edge_index"] == 1

    def test_stage_continuity(self):
        lams = np.exp(1j * np.array([0.2, 1.7, -2.4]))
        for cm in (dimerized_plus(), defective(0.0), ssh(1, 2)):
            path = full_deformation(cm)
            prev = None
            for stage in path.stages:
                start = stage.evaluate(stage.t_start, lams)
                if prev is not None and prev.shape == start.shape:
                    assert np.allclose(prev, start, atol=1e-9), stage.description
                prev = stage.evaluate(stage.t_end, lams)
            # Endpoint loop matches the final stage state.
            assert np.allclose(prev, path.endpoint.eval_many(lams), atol=1e-9)

    def test_winding_two_model(self):
        # Second-neighbour hop only: symbol lambda^2, winding 2.
        loop = monomial_loop(2)
        cm = model_from_loop(MatrixLoop(-2, np.concatenate([np.zeros((4, 1, 1)), loop.coeffs])))
        path = full_deformation(cm)
        assert set(path.winding_per_stage) == {2}
        # R q = 2, so the endpoint has 4 advancing and 2 retreating channels.
        assert path.notes["counts"] == (4, 2, 0)
        assert path.notes["endpoint_edge_index"] == 2

    def test_random_gapped_models(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=60, count=6, dim_v=2, hop_range=2, gap_floor=0.15))
        for cm in models:
            path = full_deformation(cm)
            w = path.winding_per_stage[0]
            assert path.notes["endpoint_edge_index"] == w
            n_lam, n_inv, _ = path.notes["counts"]
            assert n_lam - n_inv == w

    def test_matrix_valued_symbols(self):
        # Four-band models exercise the block (q=2) linearization path.
        models = random_chiral_ensemble(EnsembleSpec(seed=88, count=3, dim_v=4, hop_range=1, gap_floor=0.2))
        for cm in models:
            path = full_deformation(cm)
            w = path.winding_per_stage[0]
            r_q = path.notes["hop_range"] * cm.dim_plus
            assert path.notes["counts"][:2] == (w + r_q, r_q)
            assert path.notes["endpoint_edge_index"] == w

    def test_endpoint_is_sorted_diagonal(self):
        path = full_deformation(defective(0.0))
        lam = 1.3 + 0.4j
        end = path.endpoint(lam)
        assert np.allclose(end, np.diag(np.diag(end)))
        diag = np.diag(end)
        assert np.allclose(diag, [lam, lam, 1 / lam])
