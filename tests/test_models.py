import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import chiraledge
from chiraledge.config import NUM_K_DEFAULT
from chiraledge.errors import (
    NotChiral,
    NotSelfAdjoint,
    ParseError,
    RangeZero,
    ShapeMismatch,
    UnbalancedGrading,
    UnbalancedGradingWarning,
    ZeroMomentum,
)
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, fixture, ssh
from chiraledge.halfspace import edge_modes_companion, edge_modes_truncated, toeplitz_block
from chiraledge.loops import full_deformation
from chiraledge.models import (
    ChiralModel,
    MatrixLoop,
    ModelParams,
    build_model,
    chiral_split,
    detect_grading,
    largest_singular_value,
    least_singular_value,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_number,
    save_model,
    unit_circle,
)
from chiraledge.spectrum import chiral_gap, chiral_gap_margin
from chiraledge.verify import EnsembleSpec, has_singular_leading_hop, random_chiral_ensemble
from chiraledge.winding import full_winding, winding_phase, winding_roots

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

    @pytest.mark.filterwarnings("ignore::chiraledge.errors.UnbalancedGradingWarning")
    @pytest.mark.parametrize(
        "entry",
        [winding_phase, winding_roots, full_winding, edge_modes_truncated, edge_modes_companion,
         chiral_gap, chiral_gap_margin, full_deformation],
    )
    def test_unbalanced_refused_by_every_entry_point(self, entry):
        # ChiralModel.symbol refuses a non-square block, and every winding,
        # gap, edge-index and deformation route reads the blocks through it.
        hop = np.zeros((4, 4), dtype=complex)
        hop[3, 0] = 1.0
        cm = chiral_split(build_model(4, 1, np.zeros((4, 4)), [hop]), [1, 1, 1, -1])
        with pytest.raises(UnbalancedGrading):
            entry(cm)

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
        gamma = np.diag(cm.grading.astype(complex))
        h = cm.base.symbol()(0.6 + 0.1j)
        assert np.array_equal(gamma @ h @ gamma, -h)


def _norm_bound_checks(cm: ChiralModel):
    """norm_bound() of h_pm against two finite sections and a 2**15-point sampled sup.

    Both are lower bounds on the true sup over the unit circle, and the bound
    must also stay tight.
    """
    symbol = cm.symbol("pm")
    bound = symbol.norm_bound()
    for cells in (4 * cm.hop_range, 64):
        assert bound >= np.linalg.norm(toeplitz_block(cm, cells), 2)
    ks = 2.0 * np.pi * np.arange(2**15) / 2**15
    sup = np.linalg.svd(symbol.eval_many(np.exp(1j * ks)), compute_uv=False)[:, 0].max()
    assert sup <= bound <= 1.05 * sup


class TestNormBound:
    @pytest.mark.parametrize("dim_v,hop_range", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)])
    def test_random_symbols(self, dim_v, hop_range):
        models = random_chiral_ensemble(EnsembleSpec(seed=7, count=6, dim_v=dim_v, hop_range=hop_range))
        assert any(has_singular_leading_hop(cm) for cm in models)
        for cm in models:
            _norm_bound_checks(cm)

    def test_fixtures(self):
        for cm in (
            dimerized_plus(),
            dimerized_minus(),
            dimerized_trivial(),
            ssh(1.0, 2.0),
            ssh(0.97, 1.0),
            defective(0.5),
        ):
            _norm_bound_checks(cm)


def unitaries(rng, k: int, n: int) -> np.ndarray:
    z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return np.linalg.qr(z)[0]


def with_singular_values(rng, sv: np.ndarray) -> np.ndarray:
    """A stack of blocks U diag(sv[i]) V with random unitaries U and V."""
    k, n = sv.shape
    return (unitaries(rng, k, n) * sv[:, None, :]) @ unitaries(rng, k, n)


STACK_KINDS = [
    "scaled unitaries",
    "near-equal minima",
    "kappa to 1e8",
    "huge scale",
    "exactly singular",
    "near-equal maxima",
    "tiny scale",
    "tied unitaries",
    "zero block",
    "single block",
]


def adversarial_stack(kind: str, n: int, rng) -> np.ndarray:
    """32 blocks of size n x n (one for "single block") built against the pruning of either extreme."""
    k = 32
    sv = np.ones((k, n))
    if kind == "scaled unitaries":
        # Every singular value of every block within 1e-15 of 0.7.
        sv = 0.7 * (1 + 1e-15 * rng.random((k, n)))
    elif kind == "near-equal minima":
        sv[:, -1] = 1e-3 * (1 + 1e-12 * rng.random(k))
    elif kind == "near-equal maxima":
        sv[:, 0] = 1e3 * (1 + 1e-12 * rng.random(k))
    elif kind == "kappa to 1e8":
        sv[:, -1] = 10.0 ** (-8 * rng.random(k))
    elif kind == "huge scale":
        # ||M^-1||_F squares to underflow: the bound reads no entry at all.
        sv = 1e200 * (1 + rng.random((k, n)))
    elif kind == "tiny scale":
        # ||M||_F squares to underflow: the Frobenius bound reads 0.
        sv = 1e-200 * (1 + rng.random((k, n)))
    stack = with_singular_values(rng, np.sort(sv, axis=1)[:, ::-1])
    if kind == "exactly singular":
        # A zero row stays zero under elimination: the LU pivot is exactly 0.
        stack[rng.integers(k), -1, :] = 0.0
    elif kind == "tied unitaries":
        # Two scaled unitaries, each repeated: ties in both extremes and in both bounds.
        stack = (np.array([0.5, 2.0])[:, None, None] * unitaries(rng, 2, n))[rng.integers(2, size=k)]
    elif kind == "zero block":
        stack[rng.integers(k)] = 0.0
    elif kind == "single block":
        stack = stack[:1]
    return stack


def _svd_extremes(tree: ast.AST):
    """Nodes X[:, -1].min() and X[:, 0].max(), X an svd(..., compute_uv=False) call or a name bound to one."""

    def is_svd(node):
        return (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith("svd")
            and any(k.arg == "compute_uv" and ast.unparse(k.value) == "False" for k in node.keywords)
        )

    names = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_svd(node.value)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        sub = node.func.value
        if not isinstance(sub, ast.Subscript):
            continue
        index = ast.unparse(sub).removeprefix(ast.unparse(sub.value))
        if (node.func.attr, index) not in (("min", "[:, -1]"), ("max", "[:, 0]")):
            continue
        if is_svd(sub.value) or (isinstance(sub.value, ast.Name) and sub.value.id in names):
            yield node


def test_one_home_for_each_sampled_extreme():
    # A stack's least or largest singular value comes from
    # least_singular_value or largest_singular_value, which give the full
    # batched SVD's float from fewer SVDs; a second reduction elsewhere would
    # pay the full SVD again.
    helpers = {"least_singular_value", "largest_singular_value"}
    found = []
    for path in sorted(Path(chiraledge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        if path.name == "models.py":
            inside = {
                id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in helpers for n in ast.walk(f)
            }
        found += [f"{path.name}:{n.lineno}" for n in _svd_extremes(tree) if id(n) not in inside]
    assert not found, f"batched SVD reduced to an extreme outside the models helpers: {found}"


def _grid_builders(tree: ast.Module):
    """The function (dotted under its class or outer function) of every
    arithmetic expression that combines np.arange with np.pi or an imaginary
    constant, the shape of a momentum grid."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        if isinstance(node, ast.BinOp):
            parts = list(ast.walk(node))
            arange = any(isinstance(n, ast.Call) and ast.unparse(n.func).endswith("arange") for n in parts)
            angle = any(
                ast.unparse(n) == "np.pi" or (isinstance(n, ast.Constant) and isinstance(n.value, complex))
                for n in parts
            )
            if arange and angle:
                yield owner
                continue
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def _number_readers(tree: ast.Module):
    """The function (dotted under its class or outer function) of every try
    that calls float, int or complex and has a handler catching ValueError,
    the shape of a hand-rolled reader of an outside number."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        if isinstance(node, ast.Try):
            catches = any(
                h.type is None or {"ValueError", "Exception"} & {n.id for n in ast.walk(h.type) if isinstance(n, ast.Name)}
                for h in node.handlers
            )
            converts = any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("float", "int", "complex")
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if catches and converts:
                yield owner
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def test_parse_number_reads_every_outside_number():
    # Flags, spec fields, family axes and fixture parameters go through
    # models.parse_number, the one place that refuses text and non-finite
    # values; a second try/float reader would let NaN through again.
    found = set()
    for path in sorted(Path(chiraledge.__file__).parent.glob("*.py")):
        found |= {(path.name, owner) for owner in _number_readers(ast.parse(path.read_text()))}
    assert found <= {("models.py", "parse_number")}, f"hand-rolled number readers: {sorted(found)}"


@given(text=st.text() | st.floats().map(repr))
@example(text="nan")
@example(text="-inf")
@example(text="1e400")
@example(text="")
@example(text="0x1")
def test_outside_numbers_are_finite_or_refused(text):
    try:
        value = parse_number(text, "value")
    except ParseError:
        pass
    else:
        assert math.isfinite(value)
    try:
        cm = fixture(f"ssh:t1={text},t2=1")
    except ParseError:
        pass
    else:
        assert isinstance(cm, ChiralModel)


def test_models_owns_the_momentum_grid():
    # Every sampled loop over the Brillouin zone (the gap, the bands, the
    # winding, the homotopy certificates, the CLI's curves) reads
    # models.momenta or unit_circle, so they all sample the same points.
    found = set()
    for path in sorted(Path(chiraledge.__file__).parent.glob("*.py")):
        found |= {(path.name, owner) for owner in _grid_builders(ast.parse(path.read_text()))}
    assert found == {("models.py", "momenta")}


class TestLargestSingularValue:
    """largest_singular_value(blocks) == the full SVD maximum, bit for bit."""

    @staticmethod
    def full_maximum(blocks):
        return float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", STACK_KINDS)
    def test_equals_full_svd_maximum(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(25):
            stack = adversarial_stack(kind, n, rng)
            assert largest_singular_value(stack) == self.full_maximum(stack)

    def test_scalar_blocks(self):
        # 1 x 1 blocks, many of one modulus, as the monomial channels give.
        rng = np.random.default_rng(3)
        for _ in range(50):
            moduli = rng.choice([0.5, 1.0, 2.0 - 2e-16, 2.0], size=64)
            stack = (moduli * np.exp(2j * np.pi * rng.random(64)))[:, None, None]
            assert largest_singular_value(stack) == self.full_maximum(stack)

    def test_rectangular_blocks(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((64, 2, 3)) + 1j * rng.standard_normal((64, 2, 3))
        assert largest_singular_value(stack) == self.full_maximum(stack)


# The full-SVD expressions that the pruned helpers and the batched norms
# replaced, kept as the reference they must equal bit for bit.


def reference_gap_margin(cm: ChiralModel, num_k: int) -> float:
    ks = -np.pi + 2.0 * np.pi * np.arange(num_k) / num_k
    sv = np.linalg.svd(cm.symbol("pm").eval_many(np.exp(1j * ks)), compute_uv=False)
    return float(sv[:, -1].min())


def reference_lipschitz_bound(loop: MatrixLoop) -> float:
    powers = range(loop.lowest_power, loop.highest_power + 1)
    return float(sum(abs(p) * np.linalg.norm(c, 2) for p, c in zip(powers, loop.coeffs) if p))


def reference_norm_bound(loop: MatrixLoop) -> float:
    ks = -np.pi + 2.0 * np.pi * np.arange(NUM_K_DEFAULT) / NUM_K_DEFAULT
    sampled = np.linalg.svd(loop.eval_many(np.exp(1j * ks)), compute_uv=False)[:, 0].max()
    return float(sampled) + reference_lipschitz_bound(loop) * np.pi / NUM_K_DEFAULT


def reference_least_singular_value(loop: MatrixLoop, num_k: int) -> float:
    ks = -np.pi + 2.0 * np.pi * np.arange(num_k) / num_k
    return float(np.linalg.svd(loop.eval_many(np.exp(1j * ks)), compute_uv=False)[:, -1].min())


def reference_norm_scale(model: ModelParams) -> float:
    return max(1.0, *(np.linalg.norm(c, 2) for c in (model.on_site, *model.right_hops, *model.left_hops)))


class TestPrunedExtremesMatchFullSVD:
    @pytest.mark.parametrize("dim_v,hop_range", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1)])
    def test_random_symbols(self, dim_v, hop_range):
        models = random_chiral_ensemble(EnsembleSpec(seed=41, count=12, dim_v=dim_v, hop_range=hop_range))
        assert any(has_singular_leading_hop(cm) for cm in models)
        for cm in models:
            assert chiral_gap_margin(cm) == reference_gap_margin(cm, NUM_K_DEFAULT)
            for loop in (cm.symbol("pm"), cm.symbol("mp"), cm.base.symbol()):
                assert loop.lipschitz_bound() == reference_lipschitz_bound(loop)
                assert loop.norm_bound() == reference_norm_bound(loop)
                for num_k in (256, NUM_K_DEFAULT):
                    sampled = least_singular_value(loop.eval_many(unit_circle(num_k)))
                    assert sampled == reference_least_singular_value(loop, num_k)
            assert cm.base.norm_scale == reference_norm_scale(cm.base)


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
