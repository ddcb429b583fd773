from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chiraledge.config import NUM_K_CAP, NUM_K_DEFAULT
from chiraledge.errors import GapNotCertified, NotSelfAdjoint, UnbalancedGrading
from chiraledge.fixtures import FIXTURE_NAMES, defective, dimerized_plus, dimerized_trivial, fixture, ssh
from chiraledge.loops import model_from_loop
from chiraledge.models import MatrixLoop, build_model, chiral_split
from chiraledge.spectrum import (
    GapReport,
    band_structure,
    certified_gap,
    chiral_gap,
    chiral_gap_margin,
    chiral_gaps,
    detect_gap,
)
from chiraledge.verify import EnsembleSpec, random_chiral_ensemble

from test_models import reference_least_singular_value, reference_lipschitz_bound


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
        bound = chiral_gap(cm).certificate_margin / 2
        lams = np.exp(1j * np.linspace(-np.pi, np.pi, 8192))
        dense = np.linalg.svd(cm.symbol("pm").eval_many(lams), compute_uv=False)[:, -1].min()
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


def reference_chiral_gap(h: MatrixLoop) -> GapReport:
    """The per-loop certification with the full SVD on each grid, doubled until it decides."""
    lipschitz = reference_lipschitz_bound(h)
    n = NUM_K_DEFAULT
    while True:
        sampled = reference_least_singular_value(h, n)
        bound = sampled - lipschitz * np.pi / n
        if bound > 0 or n >= NUM_K_CAP or sampled <= lipschitz * np.pi / NUM_K_CAP:
            return GapReport(bound > 0, h.size - 1, -sampled, sampled, 2.0 * bound)
        n *= 2


def report_bits(report: GapReport) -> tuple:
    return report.gapped, report.gap_index, *(float(x).hex() for x in astuple(report)[2:])


# Kinds of cell in a stack of h_pm loops with P >= 2 powers: a random draw; an
# exact zero sample (h(1) has a zero row, and lambda = 1 is a grid point); a
# narrow gap, sigma_min = eps at lambda = 1, that needs finer grids or is
# refused at the cap; and a critical loop t (I + lambda I), which vanishes at
# lambda = -1 (the grid point k = -pi, up to its rounding).
CELL_KINDS = ["random", "zero-sample", "narrow", "critical"]


def stack_cell(kind: str, shape, rng) -> np.ndarray:
    p, q, _ = shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "zero-sample":
        v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        c[:, 0, :] = 0
        c[0, 0, :], c[1, 0, :] = v, -v
    elif kind == "narrow":
        c[:] = 0
        c[0], c[1] = np.eye(q), -(1 - 10 ** rng.uniform(-4.5, -1.5)) * np.eye(q)
    elif kind == "critical":
        c[:] = 0
        c[-2] = c[-1] = rng.uniform(0.1, 2) * np.eye(q)
    return c


def assert_stack_matches_each_loop(lowest_power: int, coeffs: np.ndarray):
    stacked = chiral_gaps(MatrixLoop(lowest_power, coeffs))
    assert len(stacked) == len(coeffs)
    for report, c in zip(stacked, coeffs):
        h = MatrixLoop(lowest_power, c)
        assert report_bits(report) == report_bits(reference_chiral_gap(h))
        cm = model_from_loop(h)
        assert report_bits(chiral_gap(cm)) == report_bits(reference_chiral_gap(cm.symbol("pm")))


class TestStackedChiralGap:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_every_kind_in_one_stack(self, q):
        rng = np.random.default_rng(q)
        coeffs = np.stack([stack_cell(kind, (3, q, q), rng) for kind in CELL_KINDS * 2])
        assert_stack_matches_each_loop(-1, coeffs)
        gaps = chiral_gaps(MatrixLoop(-1, coeffs))
        # Zero samples and critical loops are refused; narrow gaps certify on finer grids or are refused.
        assert [g.gapped for g in gaps[1::4]] == [False, False] and [g.gapped for g in gaps[3::4]] == [False, False]
        assert gaps[1].e_plus < 1e-14

    def test_ssh_row_with_a_critical_cell(self):
        # h_pm = t1 + t2 lambda across a row t2 = 0.5 .. 1.5 through t1 = t2 = 1.
        t2 = np.linspace(0.5, 1.5, 11)
        coeffs = np.zeros((11, 3, 1, 1), dtype=complex)
        coeffs[:, 1], coeffs[:, 2] = 1.0, t2[:, None, None]
        assert_stack_matches_each_loop(-1, coeffs)
        assert [g.gapped for g in chiral_gaps(MatrixLoop(-1, coeffs))] == [True] * 5 + [False] + [True] * 5

    @given(
        q=st.sampled_from([1, 2, 3]),
        lowest_power=st.integers(-2, 0),
        powers=st.integers(2, 4),
        kinds=st.lists(st.sampled_from(CELL_KINDS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_each_loop_alone(self, q, lowest_power, powers, kinds, seed):
        rng = np.random.default_rng(seed)
        coeffs = np.stack([stack_cell(kind, (powers, q, q), rng) for kind in kinds])
        assert_stack_matches_each_loop(lowest_power, coeffs)
