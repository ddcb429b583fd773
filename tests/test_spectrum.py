import numpy as np
import pytest
from hypothesis import given, strategies as st

from chiraledge.config import NUM_K_DEFAULT
from chiraledge.errors import GapNotCertified, NotSelfAdjoint, UnbalancedGrading
from chiraledge.fixtures import FIXTURE_NAMES, defective, dimerized_plus, dimerized_trivial, fixture, ssh
from chiraledge.models import build_model, chiral_split
from chiraledge.spectrum import (
    band_structure,
    certified_gap,
    chiral_gap,
    chiral_gap_margin,
    detect_gap,
)
from chiraledge.verify import EnsembleSpec, random_chiral_ensemble


class TestBandStructure:
    def test_trivial_model_flat_bands(self):
        bands = band_structure(dimerized_trivial().base, 64)
        assert np.allclose(bands.energies, np.tile([-1.0, 1.0], (64, 1)))

    def test_dimerized_flat_bands(self):
        bands = band_structure(dimerized_plus().base, 64)
        assert np.allclose(bands.energies, np.tile([-1.0, 1.0], (64, 1)))

    def test_ssh_band_oracle(self):
        # Oracle: the two-band dispersion is +-|t1 + t2 e^{ik}| by direct
        # 2x2 eigenvalue evaluation.
        t1, t2 = 1.0, 2.0
        bands = band_structure(ssh(t1, t2).base, 128)
        oracle = np.abs(t1 + t2 * np.exp(1j * bands.ks))
        assert np.allclose(bands.energies[:, 1], oracle, atol=1e-12)
        assert np.allclose(bands.energies[:, 0], -oracle, atol=1e-12)
        k_pi = np.argmin(np.abs(bands.ks - (-np.pi)))
        assert np.allclose(sorted(bands.energies[k_pi]), [-1.0, 1.0])

    def test_requires_self_adjoint(self):
        hop = np.array([[0, 0], [1, 0]], dtype=complex)
        m = build_model(2, 1, np.zeros((2, 2)), [hop], [hop])
        with pytest.raises(NotSelfAdjoint):
            band_structure(m, 64)

    def test_chiral_spectral_symmetry(self):
        for cm in (ssh(0.8, 1.5), defective(0.9)):
            bands = band_structure(cm.base, 64)
            assert np.allclose(bands.energies, -bands.energies[:, ::-1], atol=1e-9)


class TestDetectGap:
    def test_dimerized_gap(self):
        report = detect_gap(band_structure(dimerized_plus().base, 512), 0.0)
        assert report.gapped
        assert report.e_minus == pytest.approx(-1.0, abs=1e-12)
        assert report.e_plus == pytest.approx(1.0, abs=1e-12)

    def test_critical_chain_has_no_gap(self):
        report = detect_gap(band_structure(ssh(1.0, 1.0).base, 512), 0.0)
        assert not report.gapped

    def test_defective_family_gapped_around_zero(self):
        for theta in (0.0, 1.0, -2.5):
            report = detect_gap(band_structure(defective(theta).base, 512), 0.0)
            assert report.gapped
            assert report.e_minus < 0.0 < report.e_plus

    def test_certified_gap_raises_when_gapless(self):
        with pytest.raises(GapNotCertified):
            certified_gap(ssh(1.0, 1.0).base, around_energy=0.0)

    @given(seed=st.integers(0, 10_000))
    def test_refinement_keeps_certificates(self, seed):
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0.2, 2.0, size=2)
        bands = band_structure(ssh(t1, t2).base, 64)
        if detect_gap(bands, 0.0).gapped:
            assert detect_gap(band_structure(ssh(t1, t2).base, 128), 0.0).gapped


class TestChiralGapMargin:
    def test_dimerized_margin_one(self):
        assert chiral_gap_margin(dimerized_plus()) == pytest.approx(1.0)

    def test_trivial_margin_one(self):
        assert chiral_gap_margin(dimerized_trivial()) == pytest.approx(1.0)

    @given(
        t1=st.floats(0.1, 2.0),
        t2=st.floats(0.1, 2.0),
    )
    def test_ssh_margin_oracle(self, t1, t2):
        # Oracle: min over a dense momentum grid of |t1 + t2 e^{ik}|; the
        # analytic value is ||t1| - |t2||, reached at k = -pi, a grid point.
        dense = np.abs(t1 + t2 * np.exp(1j * np.linspace(-np.pi, np.pi, 4096)))
        margin = chiral_gap_margin(ssh(t1, t2))
        assert margin == pytest.approx(dense.min(), abs=1e-9)
        assert margin == pytest.approx(abs(abs(t1) - abs(t2)), abs=1e-4)

    def test_margin_matches_band_distance(self):
        cm = defective(0.7)
        margin = chiral_gap_margin(cm)
        bands = band_structure(cm.base, NUM_K_DEFAULT)
        assert margin == pytest.approx(np.abs(bands.energies).min(), abs=1e-9)

    def test_unbalanced_rejected(self):
        d = 4
        hop = np.zeros((d, d), dtype=complex)
        hop[3, 0] = 1.0
        m = build_model(d, 1, np.zeros((d, d)), [hop])
        with pytest.warns(UserWarning):
            cm = chiral_split(m, [1, 1, 1, -1])
        with pytest.raises(UnbalancedGrading):
            chiral_gap_margin(cm)
        with pytest.raises(UnbalancedGrading):
            chiral_gap(cm)


CRITERION_4_SHAPES = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]


@st.composite
def chiral_models(draw):
    """A criterion-4 ensemble draw, an ssh or defective point, or a named fixture."""
    kind = draw(st.sampled_from(["ensemble", "ssh", "defective", "named"]))
    if kind == "ensemble":
        dim_v, hop_range = draw(st.sampled_from(CRITERION_4_SHAPES))
        seed = draw(st.integers(0, 10_000))
        return random_chiral_ensemble(EnsembleSpec(seed=seed, count=1, dim_v=dim_v, hop_range=hop_range))[0]
    if kind == "ssh":
        return ssh(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0)))
    if kind == "defective":
        return defective(draw(st.floats(-np.pi, np.pi)), draw(st.floats(0.5, 2.0)))
    return fixture(draw(st.sampled_from([n for n in FIXTURE_NAMES if n.startswith("dimerized-")])))


class TestChiralGap:
    @given(cm=chiral_models())
    def test_certifies_wherever_the_band_gap_does(self, cm):
        try:
            full = certified_gap(cm.base, 0.0)
        except GapNotCertified:
            return
        gap = chiral_gap(cm)
        assert gap.gapped and gap.gap_index == full.gap_index == cm.dim_plus - 1
        assert gap.e_minus == -gap.e_plus
        if detect_gap(band_structure(cm.base, NUM_K_DEFAULT), 0.0).gapped:
            # Both certified on the first grid: the same samples, and h_pm's
            # Lipschitz constant is at most H's.
            assert gap.e_plus == pytest.approx(full.e_plus, rel=1e-12)
            assert gap.certificate_margin >= full.certificate_margin - 1e-12 * max(1.0, full.e_plus)
        else:
            # H needed a finer grid, which holds every sample of h_pm's.
            assert gap.e_plus >= full.e_plus * (1 - 1e-12)

    @given(cm=chiral_models())
    def test_bound_is_below_a_dense_minimum(self, cm):
        h_pm = cm.symbol("pm")
        _, bound = h_pm.min_singular_bound(64)
        lams = np.exp(1j * np.linspace(-np.pi, np.pi, 8192))
        dense = np.linalg.svd(h_pm.eval_many(lams), compute_uv=False)[:, -1].min()
        assert bound <= dense * (1 + 1e-12) + 1e-15

    def test_refused_below_the_cap(self):
        # sigma_min = |t1 - t2| = 2e-6 is sampled at k = -pi, but it would
        # take about 1.6e6 momenta to certify, beyond NUM_K_CAP.
        gap = chiral_gap(ssh(1.0, 1.000002))
        assert not gap.gapped and gap.certificate_margin < 0
        assert gap.e_plus == pytest.approx(2e-6, rel=1e-6)

    def test_critical_chain_refused(self):
        gap = chiral_gap(ssh(1.0, 1.0))
        assert not gap.gapped and abs(gap.e_plus) < 1e-15

    def test_refinement_rescues_a_narrow_gap(self):
        # sigma_min = |t1 - t2| = 0.004 lies between t2 pi / 1024 and t2 pi / 512.
        gap = chiral_gap(ssh(1.0, 0.996))
        assert gap.gapped
        assert gap.certificate_margin == pytest.approx(2 * (0.004 - 0.996 * np.pi / 1024), rel=1e-9)
