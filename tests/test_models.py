import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chiraledge.errors import (
    NotChiral,
    NotSelfAdjoint,
    ParseError,
    RangeZero,
    ShapeMismatch,
    UnbalancedGradingWarning,
    ZeroMomentum,
)
from chiraledge.fixtures import defective, dimerized_plus, dimerized_trivial, ssh
from chiraledge.models import (
    ChiralModel,
    MatrixLoop,
    ModelParams,
    build_model,
    chiral_split,
    detect_grading,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

HOP = np.array([[0, 0], [1, 0]], dtype=complex)


def reassemble(cm: ChiralModel) -> ModelParams:
    """Rebuild the full model from graded blocks; inverse of chiral_split."""
    d = cm.dim_v
    on_site = np.zeros((d, d), dtype=complex)
    on_site[np.ix_(cm.minus_idx, cm.plus_idx)] = cm.v_block
    on_site[np.ix_(cm.plus_idx, cm.minus_idx)] = cm.v_block.conj().T
    hops = []
    for r in range(cm.hop_range):
        a = np.zeros((d, d), dtype=complex)
        a[np.ix_(cm.minus_idx, cm.plus_idx)] = cm.a_pm[r]
        a[np.ix_(cm.plus_idx, cm.minus_idx)] = cm.a_mp[r]
        hops.append(a)
    return build_model(d, cm.hop_range, on_site, np.stack(hops))


def random_self_adjoint(rng, d, r):
    v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    hops = rng.standard_normal((r, d, d)) + 1j * rng.standard_normal((r, d, d))
    return build_model(d, r, v + v.conj().T, hops)


class TestBuildModel:
    def test_dimerized_is_self_adjoint(self):
        m = build_model(2, 1, np.zeros((2, 2)), [HOP])
        assert m.self_adjoint
        assert np.array_equal(m.left_hops[0], HOP.conj().T)

    def test_diagonal_model(self):
        m = build_model(2, 1, np.eye(2), [np.zeros((2, 2))], [np.zeros((2, 2))])
        assert m.self_adjoint

    def test_non_hermitian_allowed(self):
        m = build_model(2, 1, np.zeros((2, 2)), [HOP], [HOP])  # B != A*
        assert not m.self_adjoint

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            build_model(2, 1, np.zeros((3, 3)), [HOP])
        with pytest.raises(ShapeMismatch):
            build_model(2, 2, np.zeros((2, 2)), [HOP])

    def test_range_zero(self):
        with pytest.raises(RangeZero):
            build_model(2, 0, np.zeros((2, 2)), np.zeros((0, 2, 2)))


class TestChiralSplit:
    def test_dimerized_blocks(self):
        cm = dimerized_plus()
        assert cm.v_block[0, 0] == 0
        assert cm.a_pm[0][0, 0] == 1
        assert cm.a_mp[0][0, 0] == 0

    def test_trivial_blocks(self):
        cm = dimerized_trivial()
        assert cm.v_block[0, 0] == 1
        assert np.all(cm.a_pm == 0) and np.all(cm.a_mp == 0)

    def test_diagonal_block_rejected(self):
        m = build_model(2, 1, np.diag([1.0, -1.0]), [HOP])
        with pytest.raises(NotChiral):
            chiral_split(m, [1, -1])

    def test_needs_self_adjoint(self):
        m = build_model(2, 1, np.zeros((2, 2)), [HOP], [HOP])
        with pytest.raises(NotSelfAdjoint):
            chiral_split(m, [1, -1])

    def test_unbalanced_grading_warns(self):
        d = 4
        hop = np.zeros((d, d), dtype=complex)
        hop[3, 0] = 1.0  # couples a plus index to the minus index
        m = build_model(d, 1, np.zeros((d, d)), [hop])
        with pytest.warns(UnbalancedGradingWarning):
            cm = chiral_split(m, [1, 1, 1, -1])
        assert not cm.balanced

    def test_reassembly_round_trip(self):
        for cm in (dimerized_plus(), ssh(1.3, -0.7), defective(0.4)):
            back = reassemble(cm)
            assert np.allclose(back.on_site, cm.base.on_site)
            assert np.allclose(back.right_hops, cm.base.right_hops)
            assert np.allclose(back.left_hops, cm.base.left_hops)

    def test_detect_grading_matches_bipartite_structure(self):
        g = detect_grading(ssh(1, 2).base)
        assert g is not None
        assert set(np.abs(g)) == {1}
        assert g[0] != g[1]
        # A non-bipartite pattern has no grading.
        m = build_model(2, 1, np.array([[1.0, 1.0], [1.0, 0.0]]), [HOP])
        assert detect_grading(m) is None


class TestBloch:
    def test_dimerized_matrix(self):
        lam = 0.7 + 0.2j
        h = dimerized_plus().base.symbol()(lam)
        expected = np.array([[0, 1 / lam], [lam, 0]])
        assert np.allclose(h, expected)

    def test_lambda_one_collapses_powers(self):
        m = ssh(0.9, 1.7).base
        expected = m.on_site + m.right_hops[0] + m.left_hops[0]
        assert np.allclose(m.symbol()(1.0), expected)

    def test_defective_family_entries(self):
        theta, lam = 0.37, 1.2 - 0.4j
        cm = defective(theta)
        upper = np.exp(-1j * theta) / lam + 1 + 0.25 * np.exp(1j * theta) * lam
        lower = 0.25 * np.exp(-1j * theta) / lam + 1 + np.exp(1j * theta) * lam
        assert np.allclose(cm.symbol("mp")(lam)[0, 0], upper)
        assert np.allclose(cm.symbol("pm")(lam)[0, 0], lower)
        h = cm.base.symbol()(lam)
        assert h[0, 0] == 0 and h[1, 1] == 0
        assert np.allclose(h[1, 0], lower) and np.allclose(h[0, 1], upper)

    def test_zero_momentum_rejected(self):
        cm = dimerized_plus()
        for loop in (cm.base.symbol(), cm.symbol("pm"), cm.symbol("mp")):
            with pytest.raises(ZeroMomentum):
                loop(0.0)
            with pytest.raises(ZeroMomentum):
                loop.eval_many(np.array([1.0, 0.0]))

    @given(
        seed=st.integers(0, 2**32 - 1),
        re=st.floats(-2, 2),
        im=st.floats(-2, 2),
    )
    def test_adjoint_symmetry(self, seed, re, im):
        lam = complex(re, im)
        if abs(lam) < 1e-3:
            lam = 1.0 + 1.0j
        rng = np.random.default_rng(seed)
        m = random_self_adjoint(rng, d=rng.integers(1, 4), r=rng.integers(1, 3))
        lhs = m.symbol()(lam).conj().T
        rhs = m.symbol()(np.conj(1.0 / lam))
        scale = max(1.0, np.linalg.norm(lhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale

    @given(seed=st.integers(0, 2**32 - 1))
    def test_eval_matches_term_by_term_sum(self, seed):
        rng = np.random.default_rng(seed)
        lo, planes = int(rng.integers(-3, 2)), int(rng.integers(1, 6))
        shape = (planes, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lams = rng.uniform(0.5, 2.0, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        terms = np.array([[lam ** (lo + j) * c for j, c in enumerate(coeffs)] for lam in lams])
        # Forward error of a sum of at most 5 complex products, with margin.
        bound = 1e-14 * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(MatrixLoop(lo, coeffs).eval_many(lams) - terms.sum(axis=1)) <= bound)

    def test_chiral_anticommutation_exact(self):
        cm = defective(1.1)
        gamma = cm.gamma()
        h = cm.base.symbol()(0.6 + 0.1j)
        assert np.array_equal(gamma @ h @ gamma, -h)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        cm = defective(0.25)
        path = tmp_path / "m.json"
        save_model(path, cm.base, cm.grading)
        model, grading = load_model(path)
        assert np.allclose(model.on_site, cm.base.on_site)
        assert np.allclose(model.right_hops, cm.base.right_hops)
        assert np.array_equal(grading, cm.grading)

    def test_left_hops_default_to_adjoints(self):
        doc = model_to_dict(ssh(1, 2).base)
        del doc["left_hops"]
        model, _ = model_from_dict(doc)
        assert model.self_adjoint

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ParseError):
            model_from_dict({"dim_v": 2, "range": 1, "on_site": [[0]]})
        with pytest.raises(ParseError):
            model_from_dict({"dim_v": 2, "range": 1, "on_site": "x", "right_hops": []})
        doc = model_to_dict(ssh(1, 2).base)
        doc["grading"] = [1, 2]
        with pytest.raises(ParseError):
            model_from_dict(doc)
        doc = model_to_dict(ssh(1, 2).base)
        doc["mystery"] = 1
        with pytest.raises(ParseError):
            model_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(bad)

    def test_complex_pairs_format(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, defective(0.5).base)
        doc = json.loads(path.read_text())
        entry = doc["right_hops"][0][1][0]
        assert isinstance(entry, list) and len(entry) == 2
