import dataclasses

import numpy as np
import pytest

from chiraledge import halfspace, loops
from chiraledge.config import CERT_GRID_CAP, CERT_GRID_K, CERT_GRID_T, DEFAULT_TOL
from chiraledge.errors import CertificateFailed, SpectrumOnCriticalLine
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, ssh
from chiraledge.halfspace import decay_min_cells, decay_scale_estimate, edge_modes_truncated
from chiraledge.loops import (
    Stage,
    _Builder,
    _factor_stages,
    _linearize_stages,
    _projectionize_stages,
    certify_path,
    companion_pencil,
    diagonal_monomials,
    full_deformation,
    model_from_loop,
    monomial_loop,
)
from chiraledge.models import MatrixLoop, least_singular_value
from chiraledge.verify import EnsembleSpec, random_chiral_ensemble
from chiraledge.winding import winding_of_curve
from test_models import STACK_KINDS, adversarial_stack


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


def factored(loop: MatrixLoop):
    """Move 1 alone on a trimmed loop: the builder with its stages, and p = lambda^R h."""
    loop = loop.trimmed()
    builder = _Builder(loop.eval_many, loop.size)
    return builder, _factor_stages(builder, loop, loop.natural_range)


def pencil(planes: np.ndarray) -> MatrixLoop:
    """The companion pencil lambda C + D of a polynomial loop, as a loop."""
    c_mat, d_mat = companion_pencil(planes)
    return MatrixLoop(0, np.stack([d_mat, c_mat]))


def projected(c_mat, d_mat):
    """Move 3 alone on the pencil lambda C + D: (rank Q, windings of the certified stages)."""
    c_mat, d_mat = np.atleast_2d(c_mat).astype(complex), np.atleast_2d(d_mat).astype(complex)
    builder = _Builder(lambda lams: lams[:, None, None] * c_mat + d_mat[None, :, :], c_mat.shape[0])
    rank = _projectionize_stages(builder, c_mat, d_mat, DEFAULT_TOL)
    _, windings, _ = certify_path(builder.stages)
    return rank, windings


class TestStabilizeAndFactor:
    """Move 1: _factor_stages rotates h (+) 1 to p (+) lambda^-R."""

    def test_scalar_inverse_monomial(self):
        builder, poly = factored(monomial_loop(-1))
        assert poly.coeffs.shape[0] == 1  # degree 0
        assert np.allclose(poly.coeffs[0], 1.0)
        certificates, windings, _ = certify_path(builder.stages)
        assert windings == [-1, -1]
        assert all(c > 0 for c in certificates)

    def test_dimerized_factoring(self):
        builder, poly = factored(dimerized_plus().symbol("pm"))
        # p = lambda^2, endpoint p (+) lambda^-1.
        w, *_ = winding_of_curve(poly.det_fn())
        assert w == 2
        _, windings, _ = certify_path(builder.stages)
        assert set(windings) == {1}

    def test_defective_poly_winding(self):
        builder, poly = factored(defective(0.0).symbol("pm"))
        # Frozen oracle: p = 1/4 + lambda + lambda^2 has both roots inside
        # the unit circle, so its winding is W + R q = 2.
        assert np.allclose(np.sort_complex(np.roots([1, 1, 0.25])), [-0.5, -0.5])
        w, *_ = winding_of_curve(poly.det_fn())
        assert w == 2
        _, windings, _ = certify_path(builder.stages)
        assert set(windings) == {1}


class TestLinearize:
    """Move 2: companion_pencil, the pencil _linearize_stages deforms p into."""

    def test_scalar_square(self):
        ell = pencil(np.array([[[0.0]], [[0.0]], [[1.0]]], dtype=complex))
        assert ell.size == 2
        w, *_ = winding_of_curve(ell.det_fn())
        assert w == 2

    def test_constant_passthrough(self):
        # A degree <= 1 polynomial is its own pencil: C = P_1 (or 0), D = P_0.
        c_mat, d_mat = companion_pencil(np.array([[[2.0]]], dtype=complex))
        assert np.array_equal(c_mat, [[0.0]]) and np.array_equal(d_mat, [[2.0]])
        planes = np.array([[[1.0, 2.0], [0.0, 3.0]], [[4.0, 0.0], [5.0, 6.0]]], dtype=complex)
        c_mat, d_mat = companion_pencil(planes)
        assert np.array_equal(c_mat, planes[1]) and np.array_equal(d_mat, planes[0])

    def test_defective_poly(self):
        _, poly = factored(defective(0.0).symbol("pm"))
        ell = pencil(poly.coeffs)
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
        ell = pencil(planes)
        det_p = np.linalg.det(p.eval_many(lams))
        det_l = np.linalg.det(ell.eval_many(lams))
        assert np.allclose(det_p, det_l, rtol=1e-8, atol=1e-10)


class TestProjectionize:
    """Move 3: _projectionize_stages takes lambda C + D to lambda Q + (1 - Q)."""

    def test_identity_winding_one(self):
        rank, windings = projected(1.0, 0.0)
        assert rank == 1
        assert set(windings) == {1}

    def test_constant_rank_zero(self):
        rank, windings = projected(0.0, 1.0)
        assert rank == 0
        assert set(windings) == {0}

    def test_linearized_defective_rank_two(self):
        assert full_deformation(defective(0.0)).notes["projection_rank"] == 2

    def test_critical_line_detected(self):
        # l(lambda) = (lambda + 1)/2 vanishes at lambda = -1, and its scaled
        # coefficient has an eigenvalue exactly on Re = 1/2.
        with pytest.raises(SpectrumOnCriticalLine):
            projected(0.5, 0.5)

    @staticmethod
    def jordan_coefficient():
        # Jordan blocks J_2(0.9) and J_2(0.1) have no eigenbasis; a random similarity fills the matrix.
        j = np.zeros((4, 4), dtype=complex)
        j[:2, :2] = [[0.9, 1.0], [0.0, 0.9]]
        j[2:, 2:] = [[0.1, 1.0], [0.0, 0.1]]
        s = np.random.default_rng(3).standard_normal((4, 4))
        return s @ j @ np.linalg.inv(s)

    @staticmethod
    def random_coefficients():
        rng = np.random.default_rng(17)
        out = []
        while len(out) < 20:
            n = int(rng.integers(2, 7))
            m = 0.5 * np.eye(n) + (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
            if np.abs(np.linalg.eigvals(m).real - 0.5).min() > 1e-2:
                out.append(m)
        return out

    def test_spectral_projection(self):
        for m in [self.jordan_coefficient(), *self.random_coefficients()]:
            p, rank = loops._spectral_projection(m)
            scale = np.linalg.norm(p) * np.linalg.norm(m)
            assert np.linalg.norm(p @ p - p) <= 1e-12 * np.linalg.norm(p) ** 2
            assert np.linalg.norm(p @ m - m @ p) <= 1e-12 * scale
            assert rank == int((np.linalg.eigvals(m).real > 0.5).sum())
            assert np.trace(p).real == pytest.approx(rank, abs=1e-9)


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


def reference_certify_path(stages, tol=DEFAULT_TOL, grid_t=CERT_GRID_T, grid_k=CERT_GRID_K, grid_cap=CERT_GRID_CAP):
    """certify_path as it was before it shared evaluations: every winding
    check evaluates its stage again on the winding's own initial samples."""
    certificates = []
    windings = []
    for stage in stages:
        constant = stage.t_start == stage.t_end
        nt, nk = grid_t, grid_k
        while True:
            ts = [stage.t_start] if constant else np.linspace(stage.t_start, stage.t_end, nt)
            lams = np.exp(2j * np.pi * np.arange(nk) / nk)
            mn, mx = np.inf, 0.0
            for t in ts:
                sv = np.linalg.svd(stage.evaluate(float(t), lams), compute_uv=False)
                mn = min(mn, float(sv[:, -1].min()))
                mx = max(mx, float(sv[:, 0].max()))
            if mn > 1e-9 * mx:
                break
            if nt >= grid_cap and nk >= grid_cap:
                raise CertificateFailed(
                    f"stage '{stage.description}': min singular value {mn:.3e} on refined grid"
                )
            nt, nk = min(2 * nt, grid_cap), min(2 * nk, grid_cap)
        certificates.append(mn)

        ws = set()
        for t in [stage.t_start] if constant else np.linspace(stage.t_start, stage.t_end, 5):
            w, *_ = winding_of_curve(
                lambda lams, t=float(t): np.linalg.det(stage.evaluate(t, lams)),
                initial_samples=128,
            )
            ws.add(w)
        if len(ws) != 1:
            raise CertificateFailed(
                f"winding changed within stage '{stage.description}': {sorted(ws)}"
            )
        windings.append(ws.pop())
    if len(set(windings)) > 1:
        raise CertificateFailed(f"winding not conserved across stages: {windings}")
    return certificates, windings


def refining_stage() -> Stage:
    """Scalar stage lambda (|t - 1/2| + 1e-12): nearly singular at t = 1/2, a
    point of the 9-point t grid but not of the 18-point one, so certification
    refines to (18, 256) and the winding checks run on the 128-point grid."""

    def evaluate(t, lams):
        return ((abs(t - 0.5) + 1e-12) * lams)[:, None, None]

    return Stage("refine past the first grid", 0.0, 1.0, evaluate, 1)


def certified_symbols():
    """The three dimerized limits, defective(0), and 15 seeded random symbols
    of shapes (2, 1), (2, 2) and (4, 1)."""
    models = [dimerized_plus(), dimerized_minus(), dimerized_trivial(), defective(0.0)]
    for seed, (dim_v, hop_range) in zip((31, 32, 33), ((2, 1), (2, 2), (4, 1))):
        models += random_chiral_ensemble(EnsembleSpec(seed=seed, count=5, dim_v=dim_v, hop_range=hop_range))
    return models


def counting(stages, calls):
    """The stages with moving wrapped to tally (stage index, t), and fixed to
    tally (stage index, "fixed"), on 128-point grids."""

    def tally(key, lams):
        if len(lams) == 128:
            calls[key] = calls.get(key, 0) + 1

    wrapped = []
    for i, stage in enumerate(stages):

        def moving(t, lams, i=i, inner=stage.moving):
            tally((i, t), lams)
            return inner(t, lams)

        def fixed(lams, i=i, inner=stage.fixed):
            tally((i, "fixed"), lams)
            return inner(lams)

        wrapped.append(dataclasses.replace(stage, moving=moving, fixed=fixed))
    return wrapped


EPS = np.finfo(float).eps


def grid_points(stage, nt=CERT_GRID_T, nk=CERT_GRID_K):
    """The t values and momenta of the stage's first certificate grid, all nt t values."""
    ts = [stage.t_start] if stage.t_start == stage.t_end else np.linspace(stage.t_start, stage.t_end, nt)
    return [float(t) for t in ts], np.exp(2j * np.pi * np.arange(nk) / nk)


def largest_singular_value(stage) -> float:
    ts, lams = grid_points(stage)
    return max(float(np.linalg.svd(stage.evaluate(t, lams), compute_uv=False)[:, 0].max()) for t in ts)


class TestCertifyPath:
    """certify_path shares one evaluation per (stage, t, grid) and matches the reference."""

    @pytest.mark.parametrize("index", range(19))
    def test_matches_reference(self, index):
        # The moving block's SVD rounds differently from the full matrix's.
        # By Weyl's inequality plus the SVD's backward error each certificate
        # moves by at most a small multiple of n eps sigma_max; 4 n eps
        # sigma_max leaves 4x margin over the largest change seen, n eps sigma_max.
        stages = full_deformation(certified_symbols()[index]).stages
        certificates, windings, grids = certify_path(stages)
        ref_certificates, ref_windings = reference_certify_path(stages)
        assert windings == ref_windings
        # No stage here refines; a stage constant or unitary in t is certified at one t.
        assert grids == [
            (1 if s.t_start == s.t_end or s.unitary_in_t else CERT_GRID_T, CERT_GRID_K) for s in stages
        ]
        for stage, cert, ref in zip(stages, certificates, ref_certificates):
            bound = 4 * stage.size * EPS * largest_singular_value(stage)
            assert abs(cert - ref) <= bound, stage.description

    def test_refined_grid_matches_reference(self):
        certificates, windings, grids = certify_path([refining_stage()])
        assert (certificates, windings) == reference_certify_path([refining_stage()])
        assert grids == [(18, 256)]
        assert windings == [1]
        # The 1e-12 dip at t = 1/2 is off the refined grid.
        assert certificates[0] == pytest.approx(0.5 / 17, rel=1e-9)

    @pytest.mark.parametrize("index", [3, 16])
    def test_one_evaluation_per_stage_and_t(self, index):
        for stages in (full_deformation(certified_symbols()[index]).stages, [refining_stage()]):
            calls = {}
            certify_path(counting(stages, calls))
            assert {i for i, _ in calls} == set(range(len(stages)))
            assert {(i, "fixed") for i in range(len(stages))} <= set(calls)
            assert max(calls.values()) == 1

    def test_certificates_are_the_exact_svd_minimum(self):
        # The pruned SVD drops only blocks that cannot hold the minimum, so
        # each certificate is min(lo, every moving block's least singular
        # value) on the stage's final grid, to the last bit.
        for cm in certified_symbols() + deformed_models():
            stages = full_deformation(cm).stages
            certificates, _, grids = certify_path(stages)
            for stage, cert, (nt, nk) in zip(stages, certificates, grids):
                ts = [stage.t_start] if nt == 1 else np.linspace(stage.t_start, stage.t_end, nt)
                lams = np.exp(2j * np.pi * np.arange(nk) / nk)
                lo = stage.fixed(lams)[0]
                svd_min = min(
                    float(np.linalg.svd(stage.moving(float(t), lams), compute_uv=False)[:, -1].min()) for t in ts
                )
                assert cert == min(float(np.min(lo)), svd_min), stage.description

    def test_svd_only_where_the_bound_cannot_rule_out(self, monkeypatch):
        # Every grid point gets an inverse-norm bound; at most 35% of them an
        # SVD.  Measured under one anchor per stage grid: 23.6%, 22.7% for
        # the moving blocks and 0.85% for the fixed rests, pruned once per
        # grid.  Nothing here refines, so each stage's grid points are those
        # of its final grid.
        paths = [full_deformation(cm).stages for cm in certified_symbols()]
        decomposed = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            decomposed.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        points = 0
        for stages in paths:
            _, _, grids = certify_path(stages)
            points += sum(nt * nk for nt, nk in grids)
        monkeypatch.undo()
        assert 0 < sum(decomposed) <= 0.35 * points

    def test_one_pruned_svd_per_stage_grid(self, monkeypatch):
        # The moving blocks of every t of a stage's first grid, up to 9 x 128
        # of them, go through one least_singular_value call; the fixed rest
        # makes its own calls inside stage.fixed.
        paths = [full_deformation(cm).stages for cm in certified_symbols()]
        sizes, in_fixed = [], []

        def spy(blocks, cutoff=np.inf):
            if not in_fixed:
                sizes.append(len(blocks))
            return least_singular_value(blocks, cutoff)

        def flagged(stage):
            def fixed(lams, inner=stage.fixed):
                in_fixed.append(True)
                try:
                    return inner(lams)
                finally:
                    in_fixed.pop()

            return dataclasses.replace(stage, fixed=fixed)

        monkeypatch.setattr(loops, "least_singular_value", spy)
        for stages in paths:
            sizes.clear()
            _, _, grids = certify_path([flagged(s) for s in stages])
            assert all(nk == CERT_GRID_K for _, nk in grids)
            assert sizes == [nt * nk for nt, nk in grids]

    @pytest.mark.parametrize(
        "cap,sizes",
        [
            # 9 x 128 in stacks of 4 rows, then 18 x 256 in stacks of 2.
            (512, [512, 512, 128] + [512] * 9),
            # Below one 128-point row the stacks hold one row each; the
            # momentum grid then shrinks to the cap.
            (64, [128] * 9 + [64] * 18),
        ],
    )
    def test_stacks_stay_within_the_grid_cap(self, monkeypatch, cap, sizes):
        seen = []

        def spy(blocks, cutoff=np.inf):
            seen.append(len(blocks))
            return least_singular_value(blocks, cutoff)

        expected = certify_path([refining_stage()])
        monkeypatch.setattr(loops, "least_singular_value", spy)
        monkeypatch.setattr(loops, "CERT_GRID_CAP", cap)
        certificates, windings, grids = certify_path([refining_stage()])
        assert seen == sizes
        assert max(seen) <= max(CERT_GRID_K, cap)
        if cap == 512:
            # The same grids as at the default cap, so the same floats.
            assert (certificates, windings, grids) == expected

    @pytest.mark.parametrize("index", [9, 10])
    def test_horner_partials_once_per_grid(self, monkeypatch, index):
        # The row operations' Horner partials H_1 .. H_{d-1} do not depend on
        # t, so each is taken once on the certificate grid, not once per t.
        calls = []
        horner = loops._horner_partials

        def counted(planes):
            h_k = horner(planes)

            def wrapped(k, lams):
                calls.append((k, lams.tobytes()))
                return h_k(k, lams)

            return wrapped

        monkeypatch.setattr(loops, "_horner_partials", counted)
        builder, p_loop = factored(certified_symbols()[index].symbol("pm"))
        d = p_loop.coeffs.shape[0] - 1
        assert d >= 3
        _linearize_stages(builder, p_loop.coeffs)
        (stage,) = [s for s in builder.stages if s.description == "linearize: unipotent row operations"]
        calls.clear()
        _, _, grids = certify_path([stage])
        assert grids == [(CERT_GRID_T, CERT_GRID_K)]
        grid = np.exp(2j * np.pi * np.arange(CERT_GRID_K) / CERT_GRID_K).tobytes()
        assert sorted(k for k, key in calls if key == grid) == list(range(1, d))

    def test_singular_stage_refused_at_the_grid_cap(self, monkeypatch):
        # Exactly 0 at t_start on every grid: the batched inverse fails, every
        # block is decomposed, and the grid refines to its cap.
        def evaluate(t, lams):
            return (t * lams)[:, None, None]

        monkeypatch.setattr(loops, "CERT_GRID_CAP", 36)
        with pytest.raises(CertificateFailed, match="min singular value 0.000e"):
            certify_path([Stage("zero at t_start", 0.0, 1.0, evaluate, 1)])

    def test_sigma_max_bound_is_stricter(self, monkeypatch):
        # sigma_min / sigma_max = 1.5e-9 passes the exact rule, but the
        # Frobenius norm sqrt(3) bounds sigma_max from above, and
        # 1.5e-9 < 1e-9 sqrt(3): the stage refines to the cap and is refused.
        diag = np.diag([1.0, 1.0, 1.0, 1.5e-9]).astype(complex)

        def evaluate(t, lams):
            return np.broadcast_to(diag, (len(lams), 4, 4)).copy()

        stage = Stage("diag(1, 1, 1, 1.5e-9)", 0.0, 1.0, evaluate, 4)
        assert reference_certify_path([stage], grid_cap=36) == ([1.5e-9], [0])
        monkeypatch.setattr(loops, "CERT_GRID_CAP", 36)
        with pytest.raises(CertificateFailed, match="min singular value 1.500e-09"):
            certify_path([stage])

    def test_windings_use_the_integer_tolerance(self, monkeypatch):
        stages = full_deformation(ssh(0.5, 1)).stages
        seen = []

        def spy(f, initial_samples=512, tol=DEFAULT_TOL):
            seen.append(tol.winding_integer)
            return winding_of_curve(f, initial_samples, tol)

        monkeypatch.setattr(loops, "winding_of_curve", spy)
        certify_path(stages, DEFAULT_TOL.replace(winding_integer=1e-3))
        assert seen and set(seen) == {1e-3}

    def test_det_fixed_in_t_stages_wound_once(self, monkeypatch):
        paths = [full_deformation(cm).stages for cm in certified_symbols()]
        calls = []
        monkeypatch.setattr(loops, "winding_of_curve", recording(winding_of_curve, calls))
        for stages in paths:
            certify_path(stages)
        stages = [s for path in paths for s in path]
        once = [s.t_start == s.t_end or s.unitary_in_t or s.det_fixed_in_t for s in stages]
        assert sum(s.det_fixed_in_t for s in stages) > 0
        assert len(calls) == sum(1 if o else 5 for o in once)


class TestLeastSingularValue:
    """least_singular_value(blocks, cutoff) == min(cutoff, the full SVD minimum), bit for bit."""

    @staticmethod
    def full_minimum(blocks, cutoff):
        return min(cutoff, float(np.linalg.svd(blocks, compute_uv=False)[:, -1].min()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", STACK_KINDS)
    def test_equals_full_svd_minimum(self, kind, n, monkeypatch):
        if n <= 2:
            # ||M^-1||_F is 1/|h| or ||M||_F / |ad - bc|: no inverse is taken.
            def no_inverse(*args, **kwargs):
                raise AssertionError(f"np.linalg.inv called on {n} x {n} blocks")

            monkeypatch.setattr(np.linalg, "inv", no_inverse)
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(25):
            stack = adversarial_stack(kind, n, rng)
            exact = self.full_minimum(stack, np.inf)
            for cutoff in (np.inf, 2 * exact, exact, 0.5 * exact):
                assert least_singular_value(stack, cutoff) == self.full_minimum(stack, cutoff)

    def test_scalar_blocks(self):
        # 1 x 1 blocks, many of one modulus, as the monomial channels give.
        rng = np.random.default_rng(3)
        for _ in range(50):
            moduli = rng.choice([0.5, 1.0, 1.0 + 1e-15, 2.0], size=64)
            stack = (moduli * np.exp(2j * np.pi * rng.random(64)))[:, None, None]
            exact = self.full_minimum(stack, np.inf)
            for cutoff in (np.inf, exact, 0.5 * exact):
                assert least_singular_value(stack, cutoff) == self.full_minimum(stack, cutoff)

    def test_zero_two_by_two_determinant_decomposes_every_block(self, monkeypatch):
        # [[a, 2a], [b, 2b]] has ad - bc = 0 exactly: as with a failed
        # inverse, the whole stack goes to one SVD.
        rng = np.random.default_rng(6)
        svd = np.linalg.svd
        seen = []

        def counted(a, *args, **kwargs):
            seen.append(len(a))
            return svd(a, *args, **kwargs)

        for _ in range(10):
            stack = adversarial_stack("kappa to 1e8", 2, rng)
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            stack[rng.integers(len(stack))] = [[a, 2 * a], [b, 2 * b]]
            for cutoff in (np.inf, 0.5):
                seen.clear()
                monkeypatch.setattr(np.linalg, "svd", counted)
                value = least_singular_value(stack, cutoff)
                monkeypatch.undo()
                assert seen == [len(stack)]
                assert value == self.full_minimum(stack, cutoff)

    def test_subnormal_two_by_two_determinants(self):
        # diag(2^-300, y) has ad - bc = 2^-300 y, about 10.5 subnormal quanta
        # here: it rounds to 11, so the bound of the y = 10.51 block reads
        # above the least singular value 10.72 of the anchor and would drop
        # it.  A bound ||M^-1||_F above 1e150 keeps the block.
        quantum = 2.0**-1074 / 2.0**-300
        stack = np.array([np.diag([2.0**-300, r * quantum]) for r in (10.72, 10.51)], dtype=complex)
        for cutoff in (np.inf, 11 * quantum):
            assert least_singular_value(stack, cutoff) == self.full_minimum(stack, cutoff) == 10.51 * quantum

    def test_exactly_zero_scalar_block(self):
        # A zero entry has no inverse norm, so every block is decomposed.
        rng = np.random.default_rng(5)
        for _ in range(10):
            stack = np.exp(2j * np.pi * rng.random(64))[:, None, None]
            stack[rng.integers(64)] = 0.0
            for cutoff in (np.inf, 0.5):
                assert least_singular_value(stack, cutoff) == self.full_minimum(stack, cutoff) == 0.0


def deformation_stages():
    """Every stage of full_deformation on certified_symbols() and deformed_models()."""
    return [stage for cm in certified_symbols() + deformed_models() for stage in full_deformation(cm).stages]


def det_bound(sv: np.ndarray) -> np.ndarray:
    """4 n eps sigma_max per singular value, carried to the determinant: 4 n eps kappa |det|."""
    return 4 * sv.shape[1] * EPS * sv[:, 0] / sv[:, -1]


class TestStageBlocks:
    """Each stage's full matrix is its moving block plus its fixed rest, and a
    stage marked unitary_in_t has the singular values and determinant of t_start."""

    def test_moving_and_fixed_make_the_full_matrix(self):
        for stage in deformation_stages():
            ts, lams = grid_points(stage)
            lo, hi, fixed_det = stage.fixed(lams)
            for t in ts:
                full, moving = stage.evaluate(t, lams), stage.moving(t, lams)
                sv = np.linalg.svd(full, compute_uv=False)
                sv_moving = np.linalg.svd(moving, compute_uv=False)
                bound = 4 * stage.size * EPS * sv[:, 0].max()
                # fixed() gives the rest's extremes over the whole grid.
                assert abs(sv[:, -1].min() - min(sv_moving[:, -1].min(), lo)) <= bound, stage.description
                assert abs(sv[:, 0].max() - max(sv_moving[:, 0].max(), hi)) <= bound, stage.description
                det = np.linalg.det(full)
                assert np.all(np.abs(det - np.linalg.det(moving) * fixed_det) <= det_bound(sv) * np.abs(det))

    @staticmethod
    def constant_in_t(stage) -> bool:
        """Singular values and determinant at every t of the 9-point grid equal those at t_start."""
        _, lams = grid_points(stage)
        start = stage.evaluate(stage.t_start, lams)
        sv0, det0 = np.linalg.svd(start, compute_uv=False), np.linalg.det(start)
        for t in np.linspace(stage.t_start, stage.t_end, CERT_GRID_T):
            full = stage.evaluate(float(t), lams)
            sv, det = np.linalg.svd(full, compute_uv=False), np.linalg.det(full)
            if np.abs(sv - sv0).max() > 4 * stage.size * EPS * sv0[:, 0].max():
                return False
            if np.any(np.abs(det - det0) > det_bound(sv0) * np.abs(det0)):
                return False
        return True

    def test_unitary_in_t_stages_are_constant_in_t(self):
        stages = deformation_stages()
        marked = [s for s in stages if s.unitary_in_t]
        assert {s.description.split(":")[0] for s in marked} == {"factor", "split", "linearize", "sort"}
        for stage in marked:
            assert self.constant_in_t(stage), stage.description
        # The check would catch a t-dependent stage marked by mistake.
        row_ops = [s for s in stages if s.description == "linearize: unipotent row operations"]
        assert row_ops and not any(self.constant_in_t(s) for s in row_ops)

    def test_det_fixed_in_t_stages_keep_their_determinant(self):
        marked = [s for s in deformation_stages() if s.det_fixed_in_t]
        assert {s.description.split(" ")[1] for s in marked} == {"unipotent", "straighten"}
        for stage in marked:
            ts, lams = grid_points(stage)
            start = stage.evaluate(stage.t_start, lams)
            det0, sv0 = np.linalg.det(start), np.linalg.svd(start, compute_uv=False)
            for t in ts:
                full = stage.evaluate(t, lams)
                sv = np.linalg.svd(full, compute_uv=False)
                bound = (det_bound(sv0) + det_bound(sv)) * np.abs(det0)
                assert np.all(np.abs(np.linalg.det(full) - det0) <= bound), stage.description


def deformed_models():
    """Every model TestFullDeformation deforms."""
    models = [dimerized_plus(), dimerized_trivial(), defective(0.0), ssh(1, 2)]
    models.append(model_from_loop(MatrixLoop(-2, np.concatenate([np.zeros((4, 1, 1)), monomial_loop(2).coeffs]))))
    models += random_chiral_ensemble(EnsembleSpec(seed=60, count=6, dim_v=2, hop_range=2, gap_floor=0.15))
    models += random_chiral_ensemble(EnsembleSpec(seed=88, count=3, dim_v=4, hop_range=1, gap_floor=0.2))
    return models


def recording(fn, results):
    """fn, appending each result to results."""

    def wrapped(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    return wrapped


class TestEndpointCheck:
    """full_deformation counts the endpoint's kernels at the decay minimum, the automatic size."""

    @staticmethod
    def check(endpoint: MatrixLoop):
        # The kernels also equal those of the 64-cell section that the
        # automatic size used to floor every section at.
        cm = model_from_loop(endpoint)
        cells = decay_min_cells(decay_scale_estimate(cm), cm.hop_range, DEFAULT_TOL)
        short = edge_modes_truncated(cm, cells=cells)
        auto = edge_modes_truncated(cm)
        floored = edge_modes_truncated(cm, cells=max(64, cells))
        assert short.truncation_cells == cells == auto.truncation_cells
        kernels = {(r.dim_ker_pm, r.dim_ker_mp) for r in (short, auto, floored)}
        assert len(kernels) == 1
        return short

    @pytest.mark.parametrize("powers", [[1, 1, -1, 0], [1, -1, -1, 0, 0], [0]])
    def test_diagonal_monomials(self, powers):
        self.check(diagonal_monomials(powers))

    @pytest.mark.parametrize("index", range(14))
    def test_deformation_endpoints(self, index, monkeypatch):
        # The endpoint's modes decay at once: full_deformation sizes its
        # section at 8R cells, and only edge_modes_truncated's check of that
        # size runs a decay estimate.  Its bands sit at exactly -1 and 1, so
        # its gap is passed in, not certified by chiral_gap.
        cm = deformed_models()[index]
        estimates, reports, gaps = [], [], []
        monkeypatch.setattr(halfspace, "decay_scale_estimate", recording(halfspace.decay_scale_estimate, estimates))
        monkeypatch.setattr(halfspace, "edge_modes_truncated", recording(halfspace.edge_modes_truncated, reports))
        monkeypatch.setattr(halfspace, "chiral_gap", recording(halfspace.chiral_gap, gaps))
        path = full_deformation(cm)
        monkeypatch.undo()
        assert len(estimates) == 1
        assert gaps == []
        assert [r.truncation_cells for r in reports] == [8 * model_from_loop(path.endpoint).hop_range]
        assert self.check(path.endpoint).edge_index == path.notes["endpoint_edge_index"]
