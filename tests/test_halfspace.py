import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import assume, example, given, strategies as st

from chiraledge import halfspace
from chiraledge.companion import build_companion, decaying_sector, propagate, recurrence_pencil, spectral_split
from chiraledge.config import DEFAULT_TOL
from chiraledge.errors import (
    AmbiguousKernel,
    BorderlineEigenvalue,
    ChiralEdgeError,
    GapNotCertified,
    NonConvergent,
    SingularLeadingHop,
    TooFewCells,
)
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, ssh
from chiraledge.halfspace import (
    decay_min_cells,
    decay_scale_estimate,
    edge_modes_companion,
    edge_modes_truncated,
    in_gap_scan,
    toeplitz_block,
    truncate_halfspace,
)
from chiraledge.loops import diagonal_monomials, model_from_loop
from chiraledge.models import ChiralModel, MatrixLoop, ModelParams
from chiraledge.spectrum import certified_gap
from chiraledge.verify import EnsembleSpec, has_singular_leading_hop, random_chiral_ensemble

from det_poly_fit import block_det_poly_roots
from test_models import random_self_adjoint


def dirichlet_solution_rank(model: ModelParams, energy: complex) -> int:
    """Rank of the map sending Dirichlet initial data to solution windows.

    Initial data lives on cells 1-R..R with the first R cells zeroed; the rank
    equals R*d_V because initial data embeds in its own window.
    """
    d, big_r = model.dim_v, model.hop_range
    comp = build_companion(model, energy)
    n_dir = big_r * d
    windows = []
    for j in range(n_dir):
        init = np.zeros(2 * big_r * d, dtype=complex)
        init[n_dir + j] = 1.0
        mode = propagate(comp, init, steps=2 * big_r, first_cell=1 - big_r)
        windows.append(mode.window.reshape(-1))
    return int(np.linalg.matrix_rank(np.column_stack(windows)))


def embed_graded(cm: ChiralModel, vec: np.ndarray, sector: str, cells: int) -> np.ndarray:
    """Lift a sector-space vector (cells x d_sector) into the full cell basis."""
    idx = cm.plus_idx if sector == "plus" else cm.minus_idx
    v = np.asarray(vec, dtype=complex).reshape(cells, len(idx))
    out = np.zeros((cells, cm.dim_v), dtype=complex)
    out[:, idx] = v
    return out.reshape(cells * cm.dim_v)


def align_phase(vec, ref):
    inner = np.vdot(vec, ref)
    return vec * (inner / abs(inner)) if abs(inner) > 0 else vec


class TestTruncateHalfspace:
    def test_dimerized_spectrum_and_zero_mode(self):
        evals, evecs = np.linalg.eigh(truncate_halfspace(dimerized_plus().base, 4))
        assert np.all(np.isclose(np.abs(evals), 1.0, atol=1e-12) | np.isclose(evals, 0.0, atol=1e-12))
        zero_idx = np.flatnonzero(np.abs(evals) < 1e-12)
        assert len(zero_idx) == 2  # one per artificial edge
        # The left-edge zero mode is exactly e_1 (x) (1, 0).
        zero_space = evecs[:, zero_idx]
        weight_on_first = np.linalg.norm(zero_space[0, :])
        assert weight_on_first == pytest.approx(1.0, abs=1e-12)

    def test_trivial_has_no_zero_modes(self):
        evals = np.linalg.eigvalsh(truncate_halfspace(dimerized_trivial().base, 12))
        assert np.allclose(np.abs(evals), 1.0, atol=1e-12)

    def test_hop_chain_edge_state(self):
        # The truncation splits the left edge state against its spurious
        # right-edge mirror by ~q^N; the eigenvectors come out as even/odd cat
        # states, so the physical mode is the left-localized direction of the
        # near-zero subspace.
        cells = 40
        evals, evecs = np.linalg.eigh(truncate_halfspace(ssh(1, 2).base, cells))
        near_zero = np.flatnonzero(np.abs(evals) < 1e-6)
        assert len(near_zero) == 2
        subspace = evecs[:, near_zero]
        left_rows = subspace.reshape(cells, 2, -1)[: cells // 2].reshape(-1, len(near_zero))
        w, basis = np.linalg.eigh(left_rows.conj().T @ left_rows)
        assert sorted(np.round(w, 6)) == [0.0, 1.0]
        vec = (subspace @ basis[:, w > 0.5])[:, 0].reshape(cells, 2)
        ref = np.array([(-0.5) ** n for n in range(1, cells + 1)], dtype=complex)
        ref /= np.linalg.norm(ref)
        aligned = align_phase(vec[:, 0], ref)
        assert np.allclose(aligned, ref, atol=1e-8)
        assert np.allclose(vec[:, 1], 0.0, atol=1e-10)

    def test_too_few_cells(self):
        with pytest.raises(TooFewCells):
            truncate_halfspace(dimerized_plus().base, 3)

    def test_hermitian_and_interior_rows_match_bulk(self):
        rng = np.random.default_rng(8)
        model = random_self_adjoint(rng, 2, 2)
        h = truncate_halfspace(model, 10)
        assert np.allclose(h, h.conj().T)
        # Interior block rows repeat the bulk coefficients.
        d = model.dim_v
        n = 4
        assert np.allclose(h[n * d : (n + 1) * d, n * d : (n + 1) * d], model.on_site)
        assert np.allclose(h[n * d : (n + 1) * d, (n + 2) * d : (n + 3) * d], model.right_hops[1])
        assert np.allclose(h[n * d : (n + 1) * d, (n - 1) * d : n * d], model.left_hops[0])


class TestToeplitzBlock:
    def test_dimerized_is_left_shift(self):
        t = toeplitz_block(dimerized_plus(), 5)
        expected = np.diag(np.ones(4), k=1)
        assert np.allclose(t, expected)

    def test_adjoint_pair(self):
        # The kernel count reads ker h_mp off h_pm's section: h_mp's section is its adjoint.
        cm = defective(0.8)
        t_pm = toeplitz_block(cm, 12)
        t_mp = halfspace._dense_section(cm.symbol("mp"), 12)
        assert np.allclose(t_mp, t_pm.conj().T)


class TestDecayScaleEstimate:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: [
                cm
                for d, r in ((2, 1), (2, 2), (2, 3), (4, 1), (4, 2))
                for cm in random_chiral_ensemble(EnsembleSpec(seed=3, count=30, dim_v=d, hop_range=r))
                if has_singular_leading_hop(cm)
            ],
            lambda: [ssh(1, 2), ssh(2, 1), ssh(0.999, 1), dimerized_plus(), dimerized_trivial()],
        ],
        ids=["singular-draws", "fixtures"],
    )
    def test_matches_determinant_roots(self, make):
        # The pencil needs no invertible leading hop; its eigenvalues inside
        # the circle are the roots of det h_pm and det h_mp there.
        models = make()
        assert models
        for cm in models:
            roots = np.abs(np.concatenate([block_det_poly_roots(cm, w) for w in ("pm", "mp")]))
            inside = roots[roots < 1.0]
            expected = float(inside.max()) if len(inside) else 0.0
            assert decay_scale_estimate(cm) == pytest.approx(expected, abs=1e-12)

    def test_matches_the_full_symbol_pencil(self):
        # Reference: the full symbol's recurrence pencil, twice the size, whose
        # eigenvalues are the roots of det h_pm and det h_mp together.  The
        # defective family's double root moves at the 1e-8 level; the
        # truncation size read from the estimate does not.
        models = [ssh(1, 2), ssh(0.97, 1), dimerized_plus(), dimerized_trivial()]
        models += [defective(theta) for theta in (0.0, 0.5, 2.0)]
        for d, r in ((2, 1), (2, 3), (4, 2)):
            models += random_chiral_ensemble(EnsembleSpec(seed=8, count=10, dim_v=d, hop_range=r))
        for cm in models:
            eigs = np.abs(scipy.linalg.eigvals(*recurrence_pencil(cm.base.symbol())))
            inside = eigs[eigs < 1.0 - DEFAULT_TOL.circle_band]
            reference = float(inside.max()) if len(inside) else 0.0
            estimate = decay_scale_estimate(cm)
            assert estimate == pytest.approx(reference, rel=1e-7, abs=1e-14)
            cells = decay_min_cells(estimate, cm.hop_range, DEFAULT_TOL)
            assert cells == decay_min_cells(reference, cm.hop_range, DEFAULT_TOL)

    @pytest.mark.parametrize(
        "powers", [[1, 1, -1], [1, 1, -1, 0], [1, -1, -1, 0, 0], [1, 1, 1, 1, -1, -1, -1, 0]]
    )
    def test_monomial_symbols_decay_at_once(self, powers):
        # det h = lambda^W: every root of lambda^(R q) det h is exactly 0, not
        # a ring of fit noise of radius eps^(1/k).
        assert decay_scale_estimate(model_from_loop(diagonal_monomials(powers))) == 0.0

    def test_borderline_root_refused(self):
        # ssh(0.995, 1) has its root at -0.995, inside circle_band = 1e-2.  An
        # estimate that left it out would size the section at the 8-cell
        # margin and read edge index 0; the true index is 1, reached at 3224
        # cells.
        tol = DEFAULT_TOL.replace(circle_band=1e-2)
        with pytest.raises(BorderlineEigenvalue):
            decay_scale_estimate(ssh(0.995, 1), tol)
        with pytest.raises(BorderlineEigenvalue):
            edge_modes_truncated(ssh(0.995, 1), tol=tol)


# Section dimensions of the automatic route that the dense SVD counted while
# the switch sat at 144 and the band LU counts since it sits at 64.
MOVED_RANGE = (65, 96, 128, 144)


class TestEdgeModesTruncated:
    def test_dimerized_fixtures(self):
        for cm, expected in (
            (dimerized_plus(), (1, 0)),
            (dimerized_minus(), (0, 1)),
            (dimerized_trivial(), (0, 0)),
        ):
            report = edge_modes_truncated(cm)
            assert (report.dim_ker_pm, report.dim_ker_mp) == expected
            assert report.edge_index == expected[0] - expected[1]

    def test_theorem_endpoint_diagonal(self):
        # diag(lambda, lambda, lambda^-1, 1) must show kernels (2, 1).
        cm = model_from_loop(diagonal_monomials([1, 1, -1, 0]))
        report = edge_modes_truncated(cm)
        assert (report.dim_ker_pm, report.dim_ker_mp) == (2, 1)
        assert report.edge_index == 1

    def test_ambiguous_band_with_explicit_cells(self):
        with pytest.raises(AmbiguousKernel):
            edge_modes_truncated(ssh(1, 2), cells=21)

    def test_truncation_stability(self):
        cm = ssh(1, 2)
        r1 = edge_modes_truncated(cm, cells=64)
        r2 = edge_modes_truncated(cm, cells=128)
        assert (r1.dim_ker_pm, r1.dim_ker_mp) == (r2.dim_ker_pm, r2.dim_ker_mp)

    def test_kernel_vector_satisfies_halfspace_equation(self):
        cm = ssh(1, 2)
        report = edge_modes_truncated(cm, cells=80)
        vec = embed_graded(cm, report.kernel_vectors_pm[:, 0], "plus", 80)
        h = truncate_halfspace(cm.base, 80)
        h_norm = np.linalg.norm(h, 2)
        assert np.linalg.norm(h @ vec) <= 1e-9 * h_norm * np.linalg.norm(vec)

    def test_gap_required(self):
        with pytest.raises(GapNotCertified):
            edge_modes_truncated(ssh(1, 1))

    def test_automatic_size_meets_the_explicit_minimum(self):
        # h_pm = lambda^9: zero decay, so the explicit minimum is the 8R = 72
        # cell margin, and the automatic size is that minimum.
        coeffs = np.zeros((10, 1, 1), dtype=complex)
        coeffs[9] = 1.0
        cm = model_from_loop(MatrixLoop(0, coeffs))
        minimum = decay_min_cells(decay_scale_estimate(cm), cm.hop_range, DEFAULT_TOL)
        report = edge_modes_truncated(cm)
        assert minimum == 72
        assert report.truncation_cells == minimum
        assert edge_modes_truncated(cm, cells=report.truncation_cells).edge_index == report.edge_index

    @pytest.mark.parametrize("m,s,hop_range", [(2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 3), (6, 3, 3)])
    def test_repeated_roots(self, m, s, hop_range):
        # h_pm = (lambda + a)^m / lambda^s: an m-fold root, the non-generic
        # case whose edge modes carry polynomial prefactors n^k a^n, so their
        # tails are longer than the decay minimum assumes.  The automatic
        # size reads the winding m - s or refuses (for m >= 5 and a near 0.8
        # the gap is not certified), and up to 64 cells it counts the same
        # kernels as the 64-cell section that used to floor it.
        for a in np.linspace(0.2, 0.8, 25):
            coeffs = np.array([math.comb(m, k) * a ** (m - k) for k in range(m + 1)], dtype=complex)
            cm = model_from_loop(MatrixLoop(-s, coeffs[:, None, None]))
            assert cm.hop_range == hop_range
            try:
                report = edge_modes_truncated(cm)
            except ChiralEdgeError:
                continue
            assert report.edge_index == m - s
            if report.truncation_cells <= 64:
                floored = edge_modes_truncated(cm, cells=64)
                assert (floored.dim_ker_pm, floored.dim_ker_mp) == (report.dim_ker_pm, report.dim_ker_mp)

    @pytest.mark.parametrize(
        "make,dims",
        [
            (lambda: ssh(1.0, 1.3), None),
            (lambda: defective(theta=0.5), None),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=4, hop_range=2))[2], None),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=2, hop_range=3))[1], None),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=6, hop_range=1))[0], None),
            (lambda: ssh(0.97, 1.0), None),
            (lambda: ssh(0.9, 1.0), MOVED_RANGE),
            (lambda: ssh(1.0, 0.9), MOVED_RANGE),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=3, count=2, dim_v=2, hop_range=2))[1], MOVED_RANGE),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=5, count=5, dim_v=2, hop_range=3))[4], MOVED_RANGE),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=1, count=2, dim_v=4, hop_range=1))[1], MOVED_RANGE),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=3, count=1, dim_v=4, hop_range=2))[0], MOVED_RANGE),
        ],
        ids=[
            "ssh",
            "defective",
            "random-4-2",
            "random-2-3",
            "random-6-1",
            "ssh-slow-decay",
            "moved-range-ssh",
            "moved-range-ssh-trivial",
            "moved-range-random-2-2",
            "moved-range-random-2-3",
            "moved-range-random-4-1",
            "moved-range-random-4-2",
        ],
    )
    def test_sparse_path_matches_dense(self, make, dims):
        # Both branches on the same sections: by default the automatic size,
        # which is at least the decay minimum (538 cells for ssh(0.97, 1)),
        # and twice that, where the kernel singular values are zero to
        # rounding; otherwise the sections of 65 to 144 dimensions that left
        # the dense path when the switch moved from 144 down to 64 (the four
        # draws' automatic sizes lie there, with kernels (1, 0), (2, 0),
        # (1, 0) and (0, 1)).  The left-localized kernel subspaces agree to
        # rounding: two subspace iteration steps instead of three left a
        # principal angle of 2e-7.
        cm = make()
        if dims is None:
            cells = edge_modes_truncated(cm).truncation_cells
            sizes = (cells, 2 * cells)
        else:
            sizes = [-(-dim // cm.dim_plus) for dim in dims]
        for size in sizes:
            dense, sparse = both_branches(cm, size)
            assert (dense[0], dense[1], dense[5], len(dense[4])) == (
                sparse[0],
                sparse[1],
                sparse[5],
                len(sparse[4]),
            )
            assert largest_angle_sine(dense[2], sparse[2]) <= 1e-12
            assert largest_angle_sine(dense[3], sparse[3]) <= 1e-12

    def test_slow_decay_needs_no_largest_eigenvalue_solve(self, monkeypatch):
        # smax must come from the symbol's norm bound: an ARPACK largest-
        # eigenvalue solve on this 3224-cell section needs ~47k matvecs (~9.5 s).
        # The small singular values come from the band LU's own subspace
        # iteration, so no sparse eigensolver runs at all.
        calls = []
        for name in ("eigsh", "eigs", "svds", "lobpcg"):

            def recording(*args, name=name, **kwargs):
                calls.append(name)
                raise AssertionError(f"scipy.sparse.linalg.{name} called")

            monkeypatch.setattr(scipy.sparse.linalg, name, recording)
        report = edge_modes_truncated(ssh(0.995, 1.0))
        assert (report.dim_ker_pm, report.dim_ker_mp) == (1, 0)
        assert report.truncation_cells == 3224
        assert calls == []


def largest_angle_sine(a, b):
    """Sine of the largest principal angle between the spans of two orthonormal bases."""
    assert a.shape == b.shape
    if a.shape[1] == 0:
        return 0.0
    return np.linalg.norm(b - a @ (a.conj().T @ b), 2)


def both_branches(cm, cells):
    """_truncated_kernel_counts of one section by the dense SVD and by the augmented eigensolve."""
    results = []
    for switch in (np.inf, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(halfspace, "DENSE_SVD_MAX", switch)
            results.append(halfspace._truncated_kernel_counts(cm, cells, DEFAULT_TOL))
    return results


class TestLocalizationLengths:
    # Two-dimensional kernels of sparse sections whose fitted lengths differed
    # by 16-38% between the dense SVD and the sparse route while cell norms
    # down to 1e-14 of the maximum, the solvers' rounding, were fitted.
    @pytest.mark.parametrize(
        "seed,dim_v,hop_range,index", [(1, 2, 3, 8), (10, 2, 2, 6), (17, 4, 1, 10), (28, 2, 3, 1)]
    )
    def test_dense_and_sparse_lengths_agree(self, seed, dim_v, hop_range, index, monkeypatch):
        spec = EnsembleSpec(seed=seed, count=index + 1, dim_v=dim_v, hop_range=hop_range)
        cm = random_chiral_ensemble(spec)[index]
        sparse = edge_modes_truncated(cm)
        assert sparse.truncation_cells * cm.dim_plus > halfspace.DENSE_SVD_MAX
        monkeypatch.setattr(halfspace, "DENSE_SVD_MAX", np.inf)
        dense = edge_modes_truncated(cm)
        assert dense.truncation_cells == sparse.truncation_cells
        assert len(dense.localization_lengths) == 2
        assert sorted(sparse.localization_lengths) == pytest.approx(sorted(dense.localization_lengths), rel=1e-2)

    @pytest.mark.parametrize("t1", [0.5, 0.7, 0.9, 0.97, 0.99])
    def test_ssh_length_is_the_root_decay(self, t1):
        # The mode decays as (-t1)^n.  A fit that reached into the right half
        # of the section, which the cut distorts, read 1.7e-2 short at 0.99.
        report = edge_modes_truncated(ssh(t1, 1.0))
        assert report.localization_lengths == pytest.approx([1 / math.log(1 / t1)], rel=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 2.0])
    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_defective_length_drops_the_prefactor(self, theta, scale):
        # The defective family's mode is n 2^-n: a fit of log ||psi_n||
        # linear in n alone read 1.60 instead of 1 / ln 2.
        report = edge_modes_truncated(defective(theta, scale))
        assert report.localization_lengths == pytest.approx([1 / math.log(2)], rel=1e-6)


class TestAugmentedKernelCount:
    @given(
        radius=st.floats(0.5, 0.9),
        phase=st.floats(-np.pi, np.pi),
        exponent=st.floats(-9.0, -5.0),
    )
    @example(radius=0.8, phase=0.3, exponent=-6.5)
    def test_planted_singular_value(self, radius, phase, exponent):
        # The section of lambda - a has one small singular value, about
        # |a|^N, planted at 10^exponent * smax: below the kernel threshold
        # tol.kernel = 1e-7, inside the undecidable band [1e-7, 1e-6), or above.
        a = radius * np.exp(1j * phase)
        cm = model_from_loop(MatrixLoop(0, np.array([[[-a]], [[1.0]]])))
        smax = cm.symbol("pm").norm_bound()
        cells = max(8, round((exponent * np.log(10) + np.log(smax)) / np.log(radius)))
        sigmas = np.linalg.svd(toeplitz_block(cm, cells), compute_uv=False)
        # The branches scale tol.kernel by different valid norms (the
        # section's and the symbol's); skip values between their thresholds.
        for threshold in (DEFAULT_TOL.kernel, 10 * DEFAULT_TOL.kernel):
            low, high = sorted((threshold * sigmas[0], threshold * smax))
            assume(not low * (1 - 1e-3) <= sigmas[-1] <= high * (1 + 1e-3))
        dense, sparse = both_branches(cm, cells)
        assert (dense[0], dense[1], dense[5]) == (sparse[0], sparse[1], sparse[5])
        assert np.allclose(sparse[4], dense[4], rtol=1e-5, atol=0)

    def test_each_kernel_singular_value_listed_once(self):
        # ssh(0.97, 1) at its automatic 538 cells has one kernel singular
        # value, 4.5e-9; the Gram matrices T*T and TT* listed it twice.
        dense, sparse = both_branches(ssh(0.97, 1.0), 538)
        assert len(dense[4]) == len(sparse[4]) == 1
        assert sparse[4][0] == pytest.approx(dense[4][0], rel=1e-6)


class TestSubspaceIteration:
    # ssh(0.9, 1) decays as 0.9^n: 161 cells, above the dense switch.
    def test_non_finite_solve_refused(self, monkeypatch):
        monkeypatch.setattr(
            scipy.linalg.lapack, "zgbtrs", lambda lu, kl, ku, b, piv: (np.full(b.shape, np.nan, dtype=complex), 0)
        )
        with pytest.raises(NonConvergent):
            halfspace._truncated_kernel_counts(ssh(0.9, 1.0), 161, DEFAULT_TOL)

    def test_block_doubles_until_past_the_band(self, monkeypatch):
        # ssh(0.97, 1) at 538 cells starts with 2 R q + 2 = 4 columns.  Cut
        # to one, the first block can hold only the kernel pair's +sigma
        # vector (sigma = 2.3e-9 smax), not reaching past +-10 tau, so the
        # block must double.  That vector converges at (sigma - shift) /
        # (sigma + shift) = 0.39 per solve, so the residual test, not the
        # three-solve minimum, ends the first call.
        cm = ssh(0.97, 1.0)
        dense, plain = both_branches(cm, 538)
        blocks, solves = [], []
        subspace = halfspace._shift_invert_subspace
        zgbtrs = scipy.linalg.lapack.zgbtrs

        def first_block_cut(lu, piv, kl, shift, tau, start):
            blocks.append(start.shape[1])
            solves.append(0)
            return subspace(lu, piv, kl, shift, tau, start[:, :1] if len(blocks) == 1 else start)

        def counting(*args):
            solves[-1] += 1
            return zgbtrs(*args)

        monkeypatch.setattr(halfspace, "_shift_invert_subspace", first_block_cut)
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", counting)
        _, doubled = both_branches(cm, 538)
        assert blocks == [4, 8]
        assert solves[0] > 3
        assert (dense[0], dense[1], dense[5]) == (doubled[0], doubled[1], doubled[5]) == (1, 0, False)
        assert np.allclose(doubled[4], plain[4], rtol=1e-6, atol=0)
        assert largest_angle_sine(dense[2], doubled[2]) <= 1e-12

    def test_reruns_are_byte_identical(self):
        # The start block comes from a fixed seed.
        first, second = (json.dumps(edge_modes_truncated(ssh(0.9, 1.0)).to_dict()) for _ in range(2))
        assert first == second

    @pytest.mark.parametrize(
        "make,cells",
        [
            (lambda: ssh(0.9, 1.0), 96),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=3, count=1, dim_v=4, hop_range=2))[0], 48),
        ],
        ids=["ssh", "random-4-2"],
    )
    def test_moved_section_takes_three_solves(self, make, cells, monkeypatch):
        # 96 dimensions: the band route since the switch moved from 144 to
        # 64.  One block of 2 R q + 2 columns stops at the three-solve minimum.
        cm = make()
        zgbtrs = scipy.linalg.lapack.zgbtrs
        widths = []

        def counting(lu, kl, ku, b, piv):
            widths.append(b.shape[1])
            return zgbtrs(lu, kl, ku, b, piv)

        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrs", counting)
        halfspace._truncated_kernel_counts(cm, cells, DEFAULT_TOL)
        assert widths == [2 * cm.hop_range * cm.dim_plus + 2] * 3

    @pytest.mark.parametrize("shape", [(300, 4), (4800, 10), (600, 150)])
    @pytest.mark.parametrize("complex_block", [False, True])
    def test_economic_q_is_scipy_qr(self, shape, complex_block):
        # 150 columns pass LAPACK's crossover to blocked Householder steps,
        # where a short workspace would change the blocking.
        rng = np.random.default_rng(3)
        x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_block else 0)
        kept = x.copy()
        q = halfspace._economic_q(x)
        assert np.array_equal(x, kept)
        assert q.dtype == x.dtype
        assert np.array_equal(q, scipy.linalg.qr(x, mode="economic", check_finite=False)[0])


# The module names the two reference copies below read.
_section_diagonals = halfspace._section_diagonals
_SUBSPACE_STEP_CAP = halfspace._SUBSPACE_STEP_CAP


def reference_augmented_band(symbol: MatrixLoop, cells: int):
    """halfspace._augmented_band as it was before its one-assignment fill: a loop over the powers."""
    q = symbol.coeffs.shape[1]
    kl = q * (2 * max(-symbol.lowest_power, symbol.highest_power) + 2) - 1
    band = np.zeros((3 * kl + 1, 2 * cells * q), dtype=complex)
    i, j = np.arange(q)[:, None, None], np.arange(q)[None, :, None]
    for power, c, n in _section_diagonals(symbol, cells):
        d = 2 * q * power + q + j - i
        top = 2 * q * n + i
        band[2 * kl - d, top + d] = c[..., None]
        band[2 * kl + d, top] = c.conj()[..., None]
    return band, kl


def reference_shift_invert_subspace(lu, piv, kl: int, shift: float, tau: float, start: np.ndarray):
    """halfspace._shift_invert_subspace as it was before its direct LAPACK QR and its residual on stopping steps only."""
    x = start
    inside_before = -1
    for step in range(1, _SUBSPACE_STEP_CAP + 1):
        q = scipy.linalg.qr(x, mode="economic", check_finite=False)[0]
        z = scipy.linalg.lapack.zgbtrs(lu, kl, kl, q, piv)[0]
        h = q.conj().T @ z
        if not np.isfinite(h).all():
            raise NonConvergent("non-finite band solve in the augmented section's subspace iteration")
        mu, w = np.linalg.eigh(h)
        x = z @ w
        vals = shift + 1.0 / mu
        inside = np.flatnonzero(np.abs(vals) < 10 * tau)
        residual = np.linalg.norm(x[:, inside] - (q @ w[:, inside]) * mu[inside], axis=0)
        if step >= 3 and len(inside) == inside_before and (residual <= 1e-3 * np.abs(mu[inside])).all():
            return vals, q @ w
        inside_before = len(inside)
    raise NonConvergent(f"subspace iteration on the augmented section took over {_SUBSPACE_STEP_CAP} steps")


class TestLeanerBandRoute:
    # Sections above 144 dimensions that the tests above use: the band and
    # the Ritz pairs equal the reference copies' bit for bit.
    @pytest.mark.parametrize(
        "make,cells",
        [
            (lambda: ssh(0.97, 1.0), 538),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=4, hop_range=2))[2], None),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=2, hop_range=3))[1], None),
            (lambda: random_chiral_ensemble(EnsembleSpec(seed=4, count=3, dim_v=6, hop_range=1))[0], None),
        ],
        ids=["ssh-slow-decay", "random-4-2", "random-2-3", "random-6-1"],
    )
    def test_ritz_pairs_equal_the_reference(self, make, cells):
        cm = make()
        if cells is None:
            cells = edge_modes_truncated(cm).truncation_cells
        assert cells * cm.dim_plus > 144
        symbol = cm.symbol("pm")
        band, kl = halfspace._augmented_band(symbol, cells)
        reference_band, reference_kl = reference_augmented_band(symbol, cells)
        assert kl == reference_kl
        assert np.array_equal(band, reference_band)
        smax = symbol.norm_bound()
        shift = 1e-9 * smax
        band[2 * kl] = -shift
        lu, piv, info = scipy.linalg.lapack.zgbtrf(band, kl, kl)
        assert info == 0
        p = 2 * cm.hop_range * cm.dim_plus + 2
        start = np.random.default_rng(0).standard_normal((2 * cells * cm.dim_plus, p))
        args = (lu, piv, kl, shift, DEFAULT_TOL.kernel * smax, start)
        vals, vecs = halfspace._shift_invert_subspace(*args)
        reference_vals, reference_vecs = reference_shift_invert_subspace(*args)
        assert np.array_equal(vals, reference_vals)
        assert np.array_equal(vecs, reference_vecs)


def random_loop(rng, lowest, planes, q):
    return MatrixLoop(lowest, rng.normal(size=(planes, q, q)) + 1j * rng.normal(size=(planes, q, q)))


def singular_draw_symbol():
    """h_pm of the first (4, 2) ensemble draw of seed 3 with a singular leading hop."""
    cms = random_chiral_ensemble(EnsembleSpec(seed=3, count=30, dim_v=4, hop_range=2))
    return next(cm for cm in cms if has_singular_leading_hop(cm)).symbol("pm")


class TestAugmentedBand:
    def test_zero_pivot_refused(self, monkeypatch):
        zgbtrf = scipy.linalg.lapack.zgbtrf
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", lambda *a, **k: zgbtrf(*a, **k)[:2] + (1,))
        with pytest.raises(NonConvergent):
            halfspace._truncated_kernel_counts(ssh(0.9, 1.0), 161, DEFAULT_TOL)

    @staticmethod
    def expand(band, kl, dim):
        """The band storage as a dense matrix, unknowns still in cell-by-cell order."""
        n = 2 * dim
        dense = np.zeros((n, n), dtype=complex)
        for r in range(n):
            for c in range(max(0, r - kl), min(n, r + kl + 1)):
                dense[r, c] = band[2 * kl + r - c, c]
        return dense

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_loop(rng, 0, 3, 2),
            lambda rng: random_loop(rng, -3, 2, 2),
            lambda rng: random_loop(rng, 1, 2, 1),
            lambda rng: model_from_loop(random_loop(rng, -1, 4, 2)).symbol("pm"),
            lambda rng: singular_draw_symbol(),
            lambda rng: random_loop(rng, -3, 7, 3),
        ],
        ids=["powers-0-2", "powers-m3-m2", "powers-1-2", "model-powers-m1-2", "singular-leading-hop", "q3-R3"],
    )
    def test_band_is_the_augmented_section(self, make):
        symbol = make(np.random.default_rng(7))
        q = symbol.coeffs.shape[1]
        cells = 4 * max(1, -symbol.lowest_power, symbol.highest_power) + 3
        dim = cells * q
        band, kl = halfspace._augmented_band(symbol, cells)
        assert kl == q * (2 * max(-symbol.lowest_power, symbol.highest_power) + 2) - 1
        assert band.shape == (3 * kl + 1, 2 * dim)
        assert not band[:kl].any()
        # Unknown a of [T rows; T columns] sits at slot 2qn + i (rows) or
        # 2qn + q + j (columns) of the cell-by-cell order.
        cell, comp = np.divmod(np.arange(dim), q)
        order = np.concatenate([2 * q * cell + comp, 2 * q * cell + q + comp])
        t = halfspace._dense_section(symbol, cells)
        aug = np.block([[np.zeros_like(t), t], [t.conj().T, np.zeros_like(t)]])
        dense = self.expand(band, kl, dim)
        assert np.array_equal(dense[np.ix_(order, order)], aug)


class TestEdgeModesCompanion:
    def test_defective_family(self):
        for theta in (0.0, 1.2, -2.5):
            report = edge_modes_companion(defective(theta))
            assert (report.dim_ker_pm, report.dim_ker_mp) == (1, 0)
            assert report.graded_decay_dims == (2, 0)

    def test_invertible_zero_winding_case(self):
        # Symbol 0.3/lambda + 1 + 0.2 lambda: one root inside, winding 0.
        loop = MatrixLoop(-1, np.array([[[0.3]], [[1.0]], [[0.2]]], dtype=complex))
        report = edge_modes_companion(model_from_loop(loop))
        assert (report.dim_ker_pm, report.dim_ker_mp) == (0, 0)

    def test_cross_method_agreement_on_ensemble(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=21, count=30, dim_v=2, hop_range=2, gap_floor=0.1))
        for cm in models:
            companion = edge_modes_companion(cm)
            truncated = edge_modes_truncated(cm)
            assert (companion.dim_ker_pm, companion.dim_ker_mp) == (
                truncated.dim_ker_pm,
                truncated.dim_ker_mp,
            )

    @pytest.mark.parametrize(
        "make",
        [
            dimerized_plus,
            dimerized_minus,
            dimerized_trivial,
            lambda: ssh(1, 2),
            lambda: ssh(2, 1),
            lambda: ssh(0.999, 1),
            lambda: ssh(1, 1.3),
            lambda: defective(0.0),
            lambda: defective(0.5),
            lambda: defective(3.0),
        ],
        ids=[
            "dimerized-plus",
            "dimerized-minus",
            "dimerized-trivial",
            "ssh-1-2",
            "ssh-2-1",
            "ssh-0.999-1",
            "ssh-1-1.3",
            "defective-0",
            "defective-0.5",
            "defective-3",
        ],
    )
    def test_pencil_matches_truncated_on_fixtures(self, make):
        # ssh and the dimerized limits have a singular leading hop.
        cm = make()
        companion = edge_modes_companion(cm)
        truncated = edge_modes_truncated(cm)
        assert (companion.dim_ker_pm, companion.dim_ker_mp) == (truncated.dim_ker_pm, truncated.dim_ker_mp)

    def test_borderline_eigenvalue_refused(self):
        # h_pm = 1 + (1 + 1e-7) lambda has its root 1e-7 inside the circle.
        with pytest.raises(BorderlineEigenvalue):
            edge_modes_companion(ssh(1, 1 + 1e-7))

    def test_singular_pencil_refused(self):
        # h_pm = [[1, lambda], [1, lambda]] has det h_pm = 0 for every lambda.
        loop = MatrixLoop(0, np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]], dtype=complex))
        with pytest.raises(GapNotCertified):
            edge_modes_companion(model_from_loop(loop))

    def test_pencil_matches_companion_matrix(self):
        # With A_R invertible, the companion matrix's decaying sector is the
        # reference: the Dirichlet dimension of spectral_split's basis_down.
        def reference(model, energy):
            down = spectral_split(build_companion(model, energy)).basis_down
            if down.shape[1] == 0:
                return 0
            sv = np.linalg.svd(down[: model.hop_range * model.dim_v], compute_uv=False)
            return down.shape[1] - int(np.sum(sv > DEFAULT_TOL.kernel))

        rng = np.random.default_rng(5)
        pairs = [
            (random_self_adjoint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))), float(rng.uniform(-2, 2)))
            for _ in range(120)
        ]
        chiral = random_chiral_ensemble(EnsembleSpec(seed=22, count=20, dim_v=2, hop_range=2, gap_floor=0.1))
        pairs += [(cm.base, 0.0) for cm in chiral if not has_singular_leading_hop(cm)]
        totals = []
        for model, energy in pairs:
            planes = model.symbol().coeffs.copy()
            planes[model.hop_range] -= energy * np.eye(model.dim_v)
            try:
                k, z, _ = decaying_sector(MatrixLoop(-model.hop_range, planes))
            except BorderlineEigenvalue:
                continue
            dirichlet = model.hop_range * model.dim_v
            total, near = halfspace._dirichlet_intersection_dim(z[:, :k], dirichlet, DEFAULT_TOL)
            if np.any(near >= DEFAULT_TOL.kernel):
                continue
            assert total == reference(model, energy)
            totals.append(total)
        assert len(totals) >= 20 and max(totals) >= 1


class TestInGapScan:
    def test_dimerized_hits(self):
        base = dimerized_plus().base
        hits = in_gap_scan(base, 16, (-0.9, 0.9), certified_gap(base, 0.0))
        assert [h.side for h in hits] == ["left", "right"]
        assert all(abs(h.energy) < 1e-12 for h in hits)

    def test_trivial_is_empty(self):
        base = dimerized_trivial().base
        assert in_gap_scan(base, 16, (-0.9, 0.9), certified_gap(base, 0.0)) == []

    def test_window_must_be_certified(self):
        # The bands of the dimerized limit sit at +-1.
        base = dimerized_plus().base
        with pytest.raises(GapNotCertified):
            in_gap_scan(base, 16, (-1.5, 1.5), certified_gap(base, 0.0))

    def test_chiral_pairing(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=5, count=10, dim_v=2, hop_range=2, gap_floor=0.2))
        for cm in models:
            gap = certified_gap(cm.base, 0.0)
            delta = 0.02 * (gap.e_plus - gap.e_minus)
            hits = in_gap_scan(cm.base, 60, (gap.e_minus + delta, gap.e_plus - delta), gap=gap)
            energies = sorted(h.energy for h in hits)
            assert np.allclose(energies, sorted(-e for e in energies), atol=1e-7)


class TestDirichletDimension:
    def test_rank_is_range_times_dim(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(5):
            d, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            model = random_self_adjoint(rng, d, r)
            energy = float(rng.uniform(-1, 1))
            try:
                rank = dirichlet_solution_rank(model, energy)
            except SingularLeadingHop:
                continue
            assert rank == r * d
            checked += 1
        assert checked > 0
