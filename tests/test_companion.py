import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chiraledge
from chiraledge.companion import (
    LatticeMode,
    build_companion,
    char_poly_residual,
    cluster_eigenvalues,
    decay_rate,
    decaying_sector,
    duality_check,
    propagate,
    spectral_split,
)
from chiraledge.errors import (
    BorderlineEigenvalue,
    SingularLeadingHop,
    SingularRightHop,
    ZeroMode,
)
from chiraledge.fixtures import defective, dimerized_plus
from chiraledge.models import build_model
from chiraledge.spectrum import certified_gap

from test_models import random_self_adjoint


def algebraic_multiplicity(matrix: np.ndarray, mu: complex, power: int, rel_tol: float = 1e-8) -> int:
    """Nullity of (matrix - mu)^power by singular-value rank, probing Jordan structure."""
    m = np.linalg.matrix_power(matrix - complex(mu) * np.eye(matrix.shape[0]), power)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0:
        return matrix.shape[0]
    return int(np.sum(sv <= rel_tol * sv[0]))


def scalar_chain():
    # R=1, d_V=1, V=0, A=B=1.
    return build_model(1, 1, [[0.0]], [[[1.0]]])


class TestBuildCompanion:
    def test_scalar_chain_matrix(self):
        comp = build_companion(scalar_chain(), 0.0)
        assert np.allclose(comp.matrix, [[0, 1], [-1, 0]])

    def test_defective_generalized_eigenvector(self):
        theta = 0.9
        comp = build_companion(defective(theta).base, 0.0)
        lam = -0.5 * np.exp(-1j * theta)
        shifted = comp.matrix - lam * np.eye(4)
        image = shifted @ np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(image, [1, 0, lam, 0], atol=1e-12)
        assert np.allclose(shifted @ image, 0, atol=1e-12)

    def test_singular_leading_hop_refused(self):
        with pytest.raises(SingularLeadingHop):
            build_companion(dimerized_plus().base, 0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_advances_recurrence(self, seed):
        # Oracle: solve the recurrence at the window's middle cell directly.
        rng = np.random.default_rng(seed)
        d, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        model = random_self_adjoint(rng, d, r)
        energy = complex(rng.standard_normal(), rng.standard_normal())
        try:
            comp = build_companion(model, energy)
        except SingularLeadingHop:
            return
        window = rng.standard_normal((2 * r, d)) + 1j * rng.standard_normal((2 * r, d))
        out = (comp.matrix @ window.reshape(-1)).reshape(2 * r, d)
        assert np.allclose(out[:-1], window[1:])
        v_e = model.on_site - energy * np.eye(d)
        rhs = v_e @ window[r]
        for rr in range(1, r + 1):
            rhs = rhs + model.left_hops[rr - 1] @ window[r - rr]
            if rr < r:
                rhs = rhs + model.right_hops[rr - 1] @ window[r + rr]
        expected_next = np.linalg.solve(model.right_hops[r - 1], -rhs)
        assert np.allclose(out[-1], expected_next, atol=1e-9 * max(1, np.abs(window).max()))


class TestCharPoly:
    def test_scalar_chain_both_sides_vanish_at_i(self):
        # At lambda = i both det(lambda - C_0) and lambda * H(lambda) are zero,
        # so the residual stays tiny.
        assert char_poly_residual(scalar_chain(), 0.0, [1j]) < 1e-12

    def test_random_models_small_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = random_self_adjoint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            energy = rng.standard_normal()
            probes = 0.5 + 1.5 * rng.random(16)
            probes = probes * np.exp(2j * np.pi * rng.random(16))
            try:
                assert char_poly_residual(model, energy, probes) < 1e-8
            except SingularLeadingHop:
                pass

    def test_defective_char_poly_factorization(self):
        # Monic characteristic polynomial is (x + e^{-i t}/2)^2 (x + 2 e^{-i t})^2.
        theta = -1.3
        comp = build_companion(defective(theta).base, 0.0)
        eigs = np.linalg.eigvals(comp.matrix)
        expected = np.array(
            [-0.5 * np.exp(-1j * theta)] * 2 + [-2.0 * np.exp(-1j * theta)] * 2
        )
        assert np.allclose(sorted(eigs, key=abs), sorted(expected, key=abs), atol=1e-6)


class TestSpectralSplit:
    def test_gap_means_balanced_split(self):
        # In a certified gap the decaying and growing sectors each have
        # dimension R * d_V and the circle sector is empty.
        cm = defective(0.4)
        gap = certified_gap(cm.base, 0.0)
        energy = 0.5 * (gap.e_minus + gap.e_plus) + 0.3 * (gap.e_plus - gap.e_minus) / 2
        comp = build_companion(cm.base, energy)
        split = spectral_split(comp)
        assert split.dims == (2, 0, 2)

    def test_defective_clusters(self):
        theta = 0.9
        comp = build_companion(defective(theta).base, 0.0)
        split = spectral_split(comp)
        assert sorted(m for _, m in split.eigenvalues) == [2, 2]
        centers = sorted((lam for lam, _ in split.eigenvalues), key=abs)
        assert np.allclose(centers[0], -0.5 * np.exp(-1j * theta), atol=1e-6)
        assert np.allclose(centers[1], -2.0 * np.exp(-1j * theta), atol=1e-6)
        # Jordan structure: rank probes give algebraic multiplicity 2.
        assert algebraic_multiplicity(comp.matrix, centers[0], 2) == 2

    def test_scalar_chain_all_bloch(self):
        comp = build_companion(scalar_chain(), 0.0)
        split = spectral_split(comp)
        assert split.dims == (0, 2, 0)
        with pytest.raises(BorderlineEigenvalue):
            decaying_sector(scalar_chain().symbol())

    def test_bases_span_everything(self):
        rng = np.random.default_rng(3)
        model = random_self_adjoint(rng, 2, 2)
        comp = build_companion(model, 0.17)
        split = spectral_split(comp)
        stacked = np.hstack([split.basis_down, split.basis_bloch, split.basis_up])
        assert stacked.shape == (8, 8)
        assert np.linalg.matrix_rank(stacked) == 8

    def test_cluster_determinism(self):
        eigs = np.array([1.0, 1.0 + 5e-9, 2.0, -1.0j])
        clusters = cluster_eigenvalues(eigs, 1e-7)
        assert sorted(m for _, m in clusters) == [1, 1, 2]

    def test_gap_implies_empty_circle_sector(self):
        # Cross-module property: energies inside a certified gap never put
        # companion eigenvalues on the unit circle.
        from chiraledge.verify import EnsembleSpec, has_singular_leading_hop, random_chiral_ensemble

        rng = np.random.default_rng(314)
        models = random_chiral_ensemble(
            EnsembleSpec(seed=314, count=10, dim_v=2, hop_range=2, gap_floor=0.1)
        )
        for cm in models:
            if has_singular_leading_hop(cm):
                continue
            gap = certified_gap(cm.base, 0.0)
            energy = rng.uniform(gap.e_minus + 0.05, gap.e_plus - 0.05)
            split = spectral_split(build_companion(cm.base, energy))
            assert split.dims[1] == 0
            assert split.dims[0] == split.dims[2] == cm.hop_range * cm.dim_v

    def test_determinant_identity(self):
        # |det C_E| = |det(A_R^-1 B_R)| regardless of the energy.
        rng = np.random.default_rng(11)
        model = random_self_adjoint(rng, 3, 2)
        comp = build_companion(model, 0.37 + 0.1j)
        lhs = abs(np.linalg.det(comp.matrix))
        rhs = abs(np.linalg.det(np.linalg.solve(model.right_hops[-1], model.left_hops[-1])))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDuality:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_self_adjoint_real_energy(self, seed):
        rng = np.random.default_rng(seed)
        model = random_self_adjoint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        try:
            comp = build_companion(model, float(rng.uniform(-2, 2)))
        except SingularLeadingHop:
            return
        assert duality_check(spectral_split(comp))

    def test_defective_pairs(self):
        comp = build_companion(defective(0.3).base, 0.0)
        assert duality_check(spectral_split(comp))

    def test_non_hermitian_not_asserted(self):
        hop = np.array([[0.3, 0.1], [0.9, 0.4]])
        model = build_model(2, 1, np.zeros((2, 2)), [hop], [2 * hop])
        duality_check(spectral_split(build_companion(model, 0.0)))  # outcome unspecified


class TestPropagate:
    def test_defective_window_values(self):
        theta = 0.7
        comp = build_companion(defective(theta).base, 0.0)
        mode = propagate(comp, [0, 0, 1, 0], steps=6, first_cell=0)
        p = np.exp(-1j * theta)
        assert np.allclose(mode.window[1], [1, 0], atol=1e-12)
        assert np.allclose(mode.window[2], [-p, 0], atol=1e-12)
        assert np.allclose(mode.window[3], [0.75 * p**2, 0], atol=1e-12)
        assert np.allclose(mode.window[4], [-0.5 * p**3, 0], atol=1e-12)
        assert mode.classification == "decrease"
        assert mode.max_residual < 1e-9

    def test_eigenvector_gives_pure_exponential(self):
        rng = np.random.default_rng(5)
        model = random_self_adjoint(rng, 2, 1)
        comp = build_companion(model, 0.21)
        eigs, vecs = np.linalg.eig(comp.matrix)
        idx = int(np.argmin(np.abs(eigs)))
        lam, vec = eigs[idx], vecs[:, idx]
        mode = propagate(comp, vec, steps=6)
        u = vec[:2]
        for n_off in range(mode.window.shape[0]):
            assert np.allclose(mode.window[n_off], lam**n_off * u, atol=1e-9)

    def test_scalar_double_root_polynomial_exponential(self):
        # A scalar recurrence with a double root lam0 supports psi_n = n lam0^n.
        lam0 = 0.6
        model = build_model(1, 1, [[-2 * lam0]], [[[1.0]]], [[[lam0**2]]])
        comp = build_companion(model, 0.0)
        assert np.allclose(sorted(np.linalg.eigvals(comp.matrix)), [lam0, lam0])
        mode = propagate(comp, [lam0, 2 * lam0**2], steps=8)
        ns = np.arange(1, mode.window.shape[0] + 1)
        assert np.allclose(mode.window[:, 0], ns * lam0**ns, atol=1e-10)

    def test_decrease_modes_eventually_decay(self):
        cm = defective(0.2)
        comp = build_companion(cm.base, 0.0)
        split = spectral_split(comp)
        m_max = max(m for _, m in split.eigenvalues)
        start = 2 * cm.hop_range * m_max
        for j in range(split.basis_down.shape[1]):
            mode = propagate(comp, split.basis_down[:, j], steps=start + 12)
            norms = mode.cell_norms()
            tail = norms[start:]
            assert np.all(np.diff(tail) <= 1e-9)

    def test_backward_needs_invertible_left_hop(self):
        # A_R invertible but B_R singular: forward works, leftward refuses.
        singular = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = build_model(2, 1, np.zeros((2, 2)), [np.eye(2)], [singular])
        comp = build_companion(model, 0.0)
        with pytest.raises(SingularRightHop):
            propagate(comp, np.ones(4), steps=2, back_steps=2)

    def test_negative_back_steps_refused(self):
        # A negative count ran no leftward step but still moved first_cell.
        comp = build_companion(scalar_chain(), 0.5)
        with pytest.raises(ValueError, match="back_steps"):
            propagate(comp, [1.0, 0.5], steps=3, back_steps=-3)

    def test_backward_extends_left(self):
        comp = build_companion(scalar_chain(), 0.5)
        mode = propagate(comp, [1.0, 0.5], steps=3, back_steps=2)
        assert mode.first_cell == -1
        assert mode.window.shape[0] == 7
        assert mode.max_residual < 1e-12


class TestDecayRate:
    def test_hop_chain_edge_rate(self):
        # The alternating-bond edge state (-1/2)^n has rate 1/2 exactly.
        window = np.array([[(-0.5) ** n, 0.0] for n in range(1, 41)], dtype=complex)
        mode = LatticeMode(0.0, 1, window, "decrease", 0.0, 1)
        assert decay_rate(mode) == pytest.approx(0.5, abs=1e-9)

    def test_defective_rate_half(self):
        comp = build_companion(defective(0.5).base, 0.0)
        mode = propagate(comp, [0, 0, 1, 0], steps=40, first_cell=0)
        assert decay_rate(mode) == pytest.approx(0.5, abs=1e-9)

    def test_circle_mode_rate_one(self):
        comp = build_companion(scalar_chain(), 0.0)
        eigs, vecs = np.linalg.eig(comp.matrix)
        mode = propagate(comp, vecs[:, 0], steps=20)
        assert decay_rate(mode) == pytest.approx(1.0, abs=1e-6)

    def test_zero_mode_raises(self):
        mode = LatticeMode(0.0, 1, np.zeros((10, 2), dtype=complex), "mixed", 0.0, 1)
        with pytest.raises(ZeroMode):
            decay_rate(mode)


def _calls(tree: ast.Module):
    """(top-level function or None, callee text) for every call in a module."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, ast.unparse(node.func)


def test_decaying_sector_owns_the_recurrence_pencil():
    # Every fact about a recurrence pencil's eigenvalues (the winding's root
    # count, the decaying sector, the decay rate that sizes a truncated
    # section) comes from decaying_sector's one ordered QZ; a second
    # factorization elsewhere would pay for the same pencil again.
    factorizations = {"ordqz", "eigvals", "eig", "qz"}
    builders, factored = set(), set()
    for path in sorted(Path(chiraledge.__file__).parent.glob("*.py")):
        for owner, callee in _calls(ast.parse(path.read_text())):
            name = callee.rsplit(".", 1)[-1]
            if name == "recurrence_pencil":
                builders.add((path.name, owner))
            elif name in factorizations and callee.removesuffix(name) in ("", "linalg.", "scipy.linalg."):
                factored.add((path.name, owner))
    assert builders == {("companion.py", "decaying_sector"), ("companion.py", "build_companion")}
    assert factored == {("companion.py", "decaying_sector")}
