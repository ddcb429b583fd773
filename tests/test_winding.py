import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from chiraledge.errors import BorderlineEigenvalue, GapNotCertified, NonConvergent, UnbalancedGrading
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, ssh
from chiraledge.halfspace import edge_modes_companion
from chiraledge.loops import model_from_loop
from chiraledge.models import MatrixLoop, unit_circle
from chiraledge.verify import EnsembleSpec, random_chiral_ensemble
from chiraledge.winding import (
    full_winding,
    winding_of_curve,
    winding_phase,
    winding_roots,
)

from det_poly_fit import block_det_poly_coeffs, block_det_poly_roots


class TestWindingOfCurve:
    @given(k=st.integers(-5, 5))
    def test_monomials(self, k):
        w, used, amin, amax = winding_of_curve(lambda lams: lams**k, unit_circle(64) ** k)
        assert w == k
        assert amin == pytest.approx(1.0)

    def test_offset_circle(self):
        # Circle of radius 1 around 3 never encloses the origin.
        w, *_ = winding_of_curve(lambda lams: 3.0 + lams, 3.0 + unit_circle(512))
        assert w == 0

    def test_zero_crossing_detected(self):
        with pytest.raises(GapNotCertified):
            winding_of_curve(lambda lams: lams - 1.0, unit_circle(512) - 1.0)


class TestWindingPhase:
    def test_fixture_values(self):
        assert winding_phase(dimerized_plus()).winding == 1
        assert winding_phase(dimerized_minus()).winding == -1
        assert winding_phase(dimerized_trivial()).winding == 0

    def test_defective_family_constant(self):
        for theta in np.linspace(-np.pi, np.pi, 9):
            assert winding_phase(defective(float(theta))).winding == 1

    @given(t1=st.floats(0.1, 2.0), t2=st.floats(0.1, 2.0))
    def test_hop_chain_rule(self, t1, t2):
        assume(abs(abs(t1) - abs(t2)) > 1e-3)
        expected = 1 if abs(t2) > abs(t1) else 0
        assert winding_phase(ssh(t1, t2)).winding == expected

    def test_gapless_rejected(self):
        with pytest.raises(GapNotCertified):
            winding_phase(ssh(1.0, 1.0))

    @pytest.mark.parametrize("samples", [4, -3])
    def test_fewer_than_8_samples_refused(self, samples):
        with pytest.raises(ValueError, match="at least 8"):
            winding_phase(ssh(0.5, 1.0), initial_samples=samples)

    def test_unbalanced_rejected(self):
        import warnings

        from chiraledge.models import build_model, chiral_split

        hop = np.zeros((4, 4), dtype=complex)
        hop[3, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cm = chiral_split(build_model(4, 1, np.zeros((4, 4)), [hop]), [1, 1, 1, -1])
        with pytest.raises(UnbalancedGrading):
            winding_phase(cm)


class TestWindingRoots:
    def test_hop_chain_root_location(self):
        # Oracle: p(lambda) = lambda (t1 + t2 lambda) has the root -t1/t2.
        for t1, t2, expected in ((1.0, 2.0, 1), (2.0, 1.0, 0), (1.0, -2.0, 1)):
            roots = block_det_poly_roots(ssh(t1, t2))
            nonzero = roots[np.abs(roots) > 1e-12]
            assert np.allclose(sorted(nonzero), [-t1 / t2])
            assert winding_roots(ssh(t1, t2)) == expected

    def test_two_band_count_formula(self):
        # Oracle for R=1, d_V=2: W = (# roots inside) - 1 by direct np.roots.
        rng = np.random.default_rng(4)
        models = random_chiral_ensemble(EnsembleSpec(seed=4, count=20, dim_v=2, hop_range=1, gap_floor=0.1))
        for cm in models:
            coeffs = block_det_poly_coeffs(cm)
            inside = np.sum(np.abs(np.roots(coeffs[::-1])) < 1.0)
            assert winding_roots(cm) == inside - 1

    def test_defective_double_root(self):
        theta = 0.6
        roots = block_det_poly_roots(defective(theta))
        assert np.allclose(sorted(roots, key=abs), [-0.5 * np.exp(-1j * theta)] * 2, atol=1e-7)
        assert winding_roots(defective(theta)) == 1

    def test_deflation_for_singular_hop_block(self):
        # dimerized-plus has a_pm = 1 but a_mp = 0: the polynomial degree drops.
        assert winding_roots(dimerized_plus()) == 1
        assert winding_roots(dimerized_minus()) == -1

    def test_singular_pencil_refused(self):
        # h = [[1, lambda], [1, lambda]]: det h vanishes identically, so the
        # recurrence pencil is singular (a QZ pair alpha = beta = 0) and no
        # root count exists.
        c = np.zeros((3, 2, 2), dtype=complex)
        c[1] = [[1, 0], [1, 0]]
        c[2] = [[0, 1], [0, 1]]
        cm = model_from_loop(MatrixLoop(-1, c))
        with pytest.raises(GapNotCertified):
            winding_roots(cm)
        with pytest.raises(GapNotCertified):
            edge_modes_companion(cm)

    def test_borderline_root_leaves_root_count_empty(self):
        # h = lambda - a with a root 1e-7 inside the circle: the phase unwrap
        # still decides W = 1, the pencil refuses within circle_band.
        cm = model_from_loop(MatrixLoop(0, np.array([[[-(1 - 1e-7)]], [[1.0]]], dtype=complex)))
        with pytest.raises(BorderlineEigenvalue):
            winding_roots(cm)
        result = full_winding(cm)
        assert result.winding == 1
        assert result.method_roots is None


def root_pair_between_samples():
    """h = (lambda - a)^2 / lambda with a double root just inside the circle, W = 1.

    The root sits half a step of the 512-point grid off a sample, so the phase
    turns by about 5.6 rad between two samples and its principal value looks
    small: the phase unwrap alone reads W = 0.
    """
    a = (1 - 1e-3) * np.exp(1j * np.pi / 512)
    return model_from_loop(MatrixLoop(-1, np.array([[[a * a]], [[-2 * a]], [[1.0]]], dtype=complex)))


class TestMethodAgreement:
    def test_disagreement_refused(self):
        cm = root_pair_between_samples()
        assert winding_roots(cm) == 1
        with pytest.raises(NonConvergent):
            full_winding(cm)

    def test_ensemble_agreement(self):
        for spec in (
            EnsembleSpec(seed=31, count=25, dim_v=2, hop_range=2, gap_floor=0.08),
            EnsembleSpec(seed=32, count=10, dim_v=4, hop_range=1, gap_floor=0.08),
        ):
            for cm in random_chiral_ensemble(spec):
                result = full_winding(cm)
                assert result.method_roots is not None
                assert result.method_phase == result.method_roots

    def test_antisymmetry_of_blocks(self):
        for cm in (dimerized_plus(), ssh(1, 2), defective(0.8)):
            w = winding_phase(cm).winding
            det = cm.symbol("mp").det_fn()
            w_mp, *_ = winding_of_curve(det, det(unit_circle(512)))
            assert w_mp == -w

    def test_range_bound_two_band(self):
        for r in (1, 2, 3):
            spec = EnsembleSpec(seed=40 + r, count=15, dim_v=2, hop_range=r, gap_floor=0.08)
            for cm in random_chiral_ensemble(spec):
                assert abs(winding_phase(cm).winding) <= r
