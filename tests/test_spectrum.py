import numpy as np
import pytest
from hypothesis import given, strategies as st

from chiraledge.errors import GapNotCertified, NotSelfAdjoint, UnbalancedGrading
from chiraledge.fixtures import defective, dimerized_plus, dimerized_trivial, ssh
from chiraledge.models import build_model
from chiraledge.spectrum import (
    band_structure,
    certified_gap,
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
            certified_gap(ssh(1.0, 1.0).base, around_energy=0.0, num_k_cap=2048)

    @given(seed=st.integers(0, 10_000))
    def test_refinement_keeps_certificates(self, seed):
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0.2, 2.0, size=2)
        bands = band_structure(ssh(t1, t2).base, 64)
        if detect_gap(bands, 0.0).gapped:
            assert detect_gap(band_structure(ssh(t1, t2).base, 128), 0.0).gapped


class TestChiralGapMargin:
    def test_dimerized_margin_one(self):
        assert chiral_gap_margin(dimerized_plus(), 128) == pytest.approx(1.0)

    def test_trivial_margin_one(self):
        assert chiral_gap_margin(dimerized_trivial(), 128) == pytest.approx(1.0)

    @pytest.mark.parametrize("num_k", [-1, 0, 1, 7])
    def test_short_grid_refused(self, num_k):
        # The floor band_structure keeps: one sample is no margin, and no
        # samples have no minimum.
        with pytest.raises(ValueError, match="num_k must be at least 8"):
            chiral_gap_margin(ssh(1, 2), num_k)
        with pytest.raises(ValueError, match="num_k must be at least 8"):
            random_chiral_ensemble(EnsembleSpec(seed=1, count=1, dim_v=2, hop_range=1), num_k=num_k)

    @given(
        t1=st.floats(0.1, 2.0),
        t2=st.floats(0.1, 2.0),
    )
    def test_ssh_margin_oracle(self, t1, t2):
        # Oracle: min over a dense momentum grid of |t1 + t2 e^{ik}|; the
        # analytic value is ||t1| - |t2||.
        dense = np.abs(t1 + t2 * np.exp(1j * np.linspace(-np.pi, np.pi, 4096)))
        margin = chiral_gap_margin(ssh(t1, t2), 4096)
        assert margin == pytest.approx(dense.min(), abs=1e-9)
        assert margin == pytest.approx(abs(abs(t1) - abs(t2)), abs=1e-4)

    def test_margin_matches_band_distance(self):
        cm = defective(0.7)
        num_k = 256
        margin = chiral_gap_margin(cm, num_k)
        bands = band_structure(cm.base, num_k)
        assert margin == pytest.approx(np.abs(bands.energies).min(), abs=1e-9)

    def test_unbalanced_rejected(self):
        d = 4
        hop = np.zeros((d, d), dtype=complex)
        hop[3, 0] = 1.0
        m = build_model(d, 1, np.zeros((d, d)), [hop])
        with pytest.warns(UserWarning):
            from chiraledge.models import chiral_split

            cm = chiral_split(m, [1, 1, 1, -1])
        with pytest.raises(UnbalancedGrading):
            chiral_gap_margin(cm, 64)
