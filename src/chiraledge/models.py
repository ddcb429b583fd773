"""Bulk lattice Hamiltonians: validated parameter sets, gradings, and their Laurent symbols.

A model is the data (V, A_1..A_R, B_1..B_R) of on-site, right-hopping and
left-hopping matrices acting on a d_V-dimensional unit cell.  Its symbol is
the matrix Laurent loop

    H(lambda) = V + sum_r (lambda^-r B_r + lambda^r A_r),

Hermitian on the unit circle whenever the model is self-adjoint
(V = V*, B_r = A_r*).  A grading splits the cell space into +/- sectors;
for models anticommuting with it, H(lambda) is block off-diagonal with lower-left
block h_pm and upper-right block h_mp.  ModelParams.symbol() and
ChiralModel.symbol(which) return these loops as MatrixLoop, the one
representation of Laurent coefficients that every other module reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOL, NUM_K_DEFAULT, Tolerances
from .errors import (
    NotChiral,
    NotSelfAdjoint,
    ParseError,
    RangeZero,
    ShapeMismatch,
    UnbalancedGrading,
    UnbalancedGradingWarning,
    ZeroMomentum,
)

import warnings


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


def _adjoints(planes: np.ndarray) -> np.ndarray:
    return np.conj(np.transpose(planes, (0, 2, 1)))


def momenta(num_k: int) -> np.ndarray:
    """The uniform momentum grid k = -pi + 2 pi j / num_k, j = 0..num_k - 1.

    The one grid of the package: every sampled loop over the Brillouin zone
    reads it or unit_circle.
    """
    return -np.pi + 2.0 * np.pi * np.arange(num_k) / num_k


def unit_circle(num_k: int) -> np.ndarray:
    """e^{ik} on momenta(num_k).

    Doubling num_k keeps every sample bit for bit (scaling by 2 is exact),
    so a finer grid's minimum never exceeds a coarser one's.
    """
    return np.exp(1j * momenta(num_k))


def numerically_singular(m: np.ndarray, tol: Tolerances) -> bool:
    """True when a square matrix is exactly singular or its condition number exceeds tol.singular_cond."""
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] == 0 or sv[0] / sv[-1] > tol.singular_cond)


def least_singular_value(blocks: np.ndarray, cutoff: float = np.inf):
    """min(cutoff, least singular value of a (K, n, n) stack), bit for bit; an (N,) array for (N, K, n, n).

    Each of N stacks is decided as if alone.  lower = 1/||M^-1||_F from one
    batched inverse per stack satisfies lower <= sigma_min <= sqrt(n) lower.
    A stack's block of smallest lower is decomposed first, and
    c = min(cutoff, its sigma_min); a block whose lower exceeds c (1 + 1e-6)
    cannot hold a smaller value and is dropped before one SVD of every
    stack's rest.  The slack covers the bound's rounding, at most
    n kappa eps, for kappa below 1e9.  An exactly singular block makes its
    stack's inverse fail, and then every block of that stack is decomposed;
    so is every block whose ||M^-1||_F is below 1e-150, where its squared
    entries may underflow, or above 1e150, where a 2 x 2 block's ||M||_F or
    determinant may have gone subnormal.  Small blocks take no inverse.  For
    1 x 1 blocks ||M^-1||_F is 1/|h|.  For 2 x 2 blocks [[a, b], [c, d]] it
    is ||M||_F / |ad - bc|; the computed ad - bc carries a relative error of
    about eps (|ad| + |bc|) / |ad - bc| <= eps ||M||_F^2 / (sigma_1 sigma_2) <= 2 eps kappa,
    which the 1e-6 slack covers for kappa below 1e9.  A zero entry or zero
    determinant decomposes its whole stack, as a failed inverse does.
    """
    stacks = blocks if blocks.ndim == 4 else blocks[None]
    n = stacks.shape[-1]
    if n > 2:
        inv_norm, whole = np.ones(stacks.shape[:2]), np.zeros(len(stacks), dtype=bool)
        for i, stack in enumerate(stacks):
            try:
                inv_norm[i] = np.linalg.norm(np.linalg.inv(stack), axis=(1, 2))
            except np.linalg.LinAlgError:
                whole[i] = True
    # An exact zero reads inf and an overflowed determinant inf or NaN; both are caught below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 1:
            mags = np.abs(stacks[..., 0, 0])
            inv_norm, whole = 1.0 / mags, ~mags.all(axis=1)
        elif n == 2:
            dets = np.abs(stacks[..., 0, 0] * stacks[..., 1, 1] - stacks[..., 0, 1] * stacks[..., 1, 0])
            inv_norm, whole = np.linalg.norm(stacks, axis=(-2, -1)) / dets, ~dets.all(axis=1)
    rows = np.flatnonzero(~whole)
    anchor = np.argmax(inv_norm[rows], axis=1)
    c = np.full(len(stacks), float(cutoff))
    if rows.size:
        c[rows] = np.minimum(cutoff, np.linalg.svd(stacks[rows, anchor], compute_uv=False)[:, -1])
    # Drop where lower = 1/inv_norm > c (1 + 1e-6); NaN bounds stay kept.
    kept = ~(inv_norm * (c * (1 + 1e-6))[:, None] < 1.0) | (inv_norm < 1e-150) | (inv_norm > 1e150)
    kept[rows, anchor] = False
    kept[whole] = True
    if kept.any():
        np.minimum.at(c, np.nonzero(kept)[0], np.linalg.svd(stacks[kept], compute_uv=False)[:, -1])
    return c if blocks.ndim == 4 else float(c[0])


def largest_singular_value(blocks: np.ndarray) -> float:
    """Largest singular value of a (K, rows, cols) stack, bit for bit.

    The mirror of least_singular_value: sigma_max <= ||M||_F, so the block of
    largest Frobenius norm is decomposed first, c = its sigma_max, and a block
    whose norm times (1 + 1e-6) is below c cannot hold a larger value and is
    dropped before one SVD of the rest.  The slack covers the norm's rounding.
    Every block whose norm is below 1e-150, where its squared entries may
    underflow, is kept, and so is every NaN norm.
    """
    fro = np.linalg.norm(blocks, axis=(1, 2))
    anchor = int(np.argmax(fro))
    c = float(np.linalg.svd(blocks[anchor : anchor + 1], compute_uv=False)[0, 0])
    kept = ~(fro * (1 + 1e-6) < c) | (fro < 1e-150)
    kept[anchor] = False
    if not kept.any():
        return c
    return max(c, float(np.linalg.svd(blocks[kept], compute_uv=False)[:, 0].max()))


@dataclass(frozen=True, eq=False)
class MatrixLoop:
    """Laurent loop h(lambda) = sum_j coeffs[j - lowest_power] lambda^j.

    coeffs (N, P, rows, cols) stacks N loops; eval_many and lipschitz_bound then answer per loop.
    """

    lowest_power: int
    coeffs: np.ndarray  # (P, rows, cols) or (N, P, rows, cols)

    @property
    def size(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def highest_power(self) -> int:
        return self.lowest_power + self.coeffs.shape[-3] - 1

    def eval_many(self, lams) -> np.ndarray:
        """h(lambda) over an array of momenta; shape lams.shape + (rows, cols), after the stack axis if any."""
        lams = np.asarray(lams, dtype=complex)
        powers = np.arange(self.lowest_power, self.highest_power + 1)
        if self.lowest_power < 0 and np.any(lams == 0):
            raise ZeroMomentum("exponentiated momentum must be nonzero")
        weights = lams[..., None] ** powers
        *stack, rows, cols = self.coeffs.shape
        values = weights @ self.coeffs.reshape(stack[:-1] + [len(powers), rows * cols])
        return values.reshape(stack[:-1] + list(lams.shape) + [rows, cols])

    def __call__(self, lam: complex) -> np.ndarray:
        return self.eval_many(np.array([lam]))[0]

    def det_fn(self):
        return lambda lams: np.linalg.det(self.eval_many(lams))

    def lipschitz_bound(self):
        """Upper bound on ||dh(e^{ik})/dk||: the sum of |j| ||c_j|| over the coefficients, per loop of a stack."""
        powers = range(self.lowest_power, self.highest_power + 1)
        norms = np.linalg.norm(self.coeffs, 2, axis=(-2, -1))
        total = sum((abs(p) * norms[..., j] for j, p in enumerate(powers) if p), np.zeros(norms.shape[:-1]))
        return float(total) if self.coeffs.ndim == 3 else total

    def norm_bound(self) -> float:
        """Upper bound on the sup of ||h(lambda)||_2 over |lambda| = 1, hence on every finite section's norm.

        The sampled max on the uniform NUM_K_DEFAULT grid plus
        lipschitz_bound() * pi / NUM_K_DEFAULT: every point of the circle lies
        within half a grid step of a sample, the argument detect_gap uses.
        """
        sampled = largest_singular_value(self.eval_many(unit_circle(NUM_K_DEFAULT)))
        return sampled + self.lipschitz_bound() * np.pi / NUM_K_DEFAULT

    def adjoint(self) -> "MatrixLoop":
        """The loop lambda -> h(1/conj(lambda))*, equal to h(lambda)* on the unit circle."""
        return MatrixLoop(-self.highest_power, _adjoints(self.coeffs[::-1]))

    def trimmed(self) -> "MatrixLoop":
        mags = np.array([np.abs(c).max() for c in self.coeffs])
        floor = 1e-12 * max(float(mags.max()), 1e-300)
        nz = np.flatnonzero(mags > floor)
        if len(nz) == 0:
            return MatrixLoop(0, np.zeros((1, self.size, self.size), dtype=complex))
        lo, hi = int(nz[0]), int(nz[-1])
        return MatrixLoop(self.lowest_power + lo, self.coeffs[lo : hi + 1].copy())

    @property
    def natural_range(self) -> int:
        t = self.trimmed()
        return max(0, -t.lowest_power, t.highest_power)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Validated bulk parameters of a finite-range lattice Hamiltonian."""

    dim_v: int
    hop_range: int
    on_site: np.ndarray     # (d, d)
    right_hops: np.ndarray  # (R, d, d), range-r right hop A_r at index r-1
    left_hops: np.ndarray   # (R, d, d), range-r left hop B_r at index r-1
    self_adjoint: bool
    norm_scale: float       # largest operator norm among the coefficient matrices, floored at 1

    def symbol(self) -> MatrixLoop:
        """H(lambda) as a loop with powers -R..R."""
        return MatrixLoop(
            -self.hop_range, np.concatenate([self.left_hops[::-1], self.on_site[None], self.right_hops])
        )


def build_model(dim_v, hop_range, on_site, right_hops, left_hops=None, tol: Tolerances = DEFAULT_TOL) -> ModelParams:
    """Validate shapes and assemble a ModelParams.

    left_hops defaults to the adjoints of right_hops, which makes the model
    self-adjoint.  A singular leading hop A_R is allowed here; only the
    companion-matrix route refuses it later.
    """
    dim_v = int(dim_v)
    hop_range = int(hop_range)
    if dim_v < 1:
        raise ShapeMismatch(f"dim_v must be positive, got {dim_v}")
    if hop_range < 1:
        raise RangeZero(f"hopping range must be >= 1, got {hop_range}")

    on_site = np.asarray(on_site, dtype=complex)
    if on_site.shape != (dim_v, dim_v):
        raise ShapeMismatch(f"on_site has shape {on_site.shape}, expected {(dim_v, dim_v)}")

    right = np.asarray(right_hops, dtype=complex)
    if right.shape != (hop_range, dim_v, dim_v):
        raise ShapeMismatch(
            f"right_hops has shape {right.shape}, expected {(hop_range, dim_v, dim_v)}"
        )
    if left_hops is None:
        left = _adjoints(right)
    else:
        left = np.asarray(left_hops, dtype=complex)
        if left.shape != (hop_range, dim_v, dim_v):
            raise ShapeMismatch(
                f"left_hops has shape {left.shape}, expected {(hop_range, dim_v, dim_v)}"
            )

    # One batched SVD: the 2R + 1 coefficients, then the R + 1 defects from self-adjointness.
    coeffs = np.concatenate([on_site[None], right, left])
    defects = np.concatenate([(on_site - on_site.conj().T)[None], left - _adjoints(right)])
    norms = np.linalg.norm(np.concatenate([coeffs, defects]), 2, axis=(1, 2))
    norm_scale = max(1.0, *norms[: len(coeffs)])
    sa = bool(np.all(norms[len(coeffs) :] <= tol.structural * norm_scale))
    return ModelParams(dim_v, hop_range, _freeze(on_site), _freeze(right), _freeze(left), sa, norm_scale)


@dataclass(frozen=True, eq=False)
class ChiralModel:
    """A self-adjoint model together with a grading it anticommutes with.

    Blocks are stored in the grading-adapted ordering: v_block and a_pm map the
    + sector to the - sector, a_mp maps back.  plus_idx/minus_idx record where
    the sectors sit in the user-supplied basis.
    """

    base: ModelParams
    grading: np.ndarray    # (d,) entries +1/-1
    plus_idx: np.ndarray
    minus_idx: np.ndarray
    dim_plus: int
    dim_minus: int
    v_block: np.ndarray    # (d_-, d_+)
    a_pm: np.ndarray       # (R, d_-, d_+)
    a_mp: np.ndarray       # (R, d_+, d_-)

    @property
    def balanced(self) -> bool:
        return self.dim_plus == self.dim_minus

    @property
    def hop_range(self) -> int:
        return self.base.hop_range

    @property
    def dim_v(self) -> int:
        return self.base.dim_v

    def symbol(self, which: str) -> MatrixLoop:
        """Graded block h_pm ("pm") or h_mp ("mp") of H(lambda) as a loop with powers -R..R.

        The one refusal of an unbalanced grading: every winding, gap, edge and deformation route reads blocks here.
        """
        if which not in ("pm", "mp"):
            raise ValueError(f"unknown block {which!r}")
        if not self.balanced:
            raise UnbalancedGrading("winding, gap, edge index and deformation need a square h_pm block")
        h_pm = MatrixLoop(
            -self.hop_range, np.concatenate([_adjoints(self.a_mp)[::-1], self.v_block[None], self.a_pm])
        )
        return h_pm if which == "pm" else h_pm.adjoint()


def chiral_split(model: ModelParams, grading, tol: Tolerances = DEFAULT_TOL) -> ChiralModel:
    """Split a self-adjoint model into graded blocks, checking anticommutation."""
    if not model.self_adjoint:
        raise NotSelfAdjoint("chiral splitting requires a self-adjoint model")
    grading = np.asarray(grading, dtype=int)
    if grading.shape != (model.dim_v,) or not np.all(np.abs(grading) == 1):
        raise ShapeMismatch("grading must be a vector of +1/-1 per basis index")

    plus_idx = np.flatnonzero(grading == 1)
    minus_idx = np.flatnonzero(grading == -1)
    if len(plus_idx) == 0 or len(minus_idx) == 0:
        raise NotChiral("grading must contain both +1 and -1 entries")

    thresh = tol.structural * model.norm_scale

    planes = np.concatenate([model.on_site[None], model.right_hops])
    offender = max(
        float(np.linalg.norm(planes[:, idx[:, None], idx[None, :]], axis=(1, 2)).max())
        for idx in (plus_idx, minus_idx)
    )
    if offender > thresh:
        raise NotChiral(f"diagonal graded block of size {offender:.3e} exceeds tolerance {thresh:.3e}")

    if len(plus_idx) != len(minus_idx):
        warnings.warn(
            "graded components have unequal dimensions; winding and edge-index "
            "operations will refuse this model",
            UnbalancedGradingWarning,
            stacklevel=2,
        )

    v_block = planes[0, minus_idx[:, None], plus_idx]
    a_pm = planes[1:, minus_idx[:, None], plus_idx]
    a_mp = planes[1:, plus_idx[:, None], minus_idx]
    grading = grading.copy()
    for a in (grading, plus_idx, minus_idx):
        a.flags.writeable = False
    return ChiralModel(
        base=model,
        grading=grading,
        plus_idx=plus_idx,
        minus_idx=minus_idx,
        dim_plus=len(plus_idx),
        dim_minus=len(minus_idx),
        v_block=_freeze(v_block),
        a_pm=_freeze(a_pm),
        a_mp=_freeze(a_mp),
    )


def detect_grading(model: ModelParams, tol: Tolerances = DEFAULT_TOL):
    """Propose a +1/-1 grading by 2-coloring the nonzero pattern of V and the A_r.

    Returns None if the pattern is not bipartite.  Never applied automatically.
    """
    d = model.dim_v
    thresh = tol.structural * model.norm_scale
    adj = np.zeros((d, d), dtype=bool)
    for m in (model.on_site, *model.right_hops):
        adj |= np.abs(m) > thresh
    adj |= adj.T
    color = np.zeros(d, dtype=int)
    for start in range(d):
        if color[start] != 0:
            continue
        color[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j in np.flatnonzero(adj[i]):
                if color[j] == 0:
                    color[j] = -color[i]
                    queue.append(j)
                elif color[j] == color[i]:
                    return None
    return color


# --- model file format ------------------------------------------------------
#
# JSON document with complex entries serialized as [re, im] pairs:
#   {"dim_v": int, "range": int, "on_site": [[[re,im], ...], ...],
#    "right_hops": [matrix, ...], "left_hops": optional, "grading": optional}


def _matrix_to_pairs(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _pairs_to_matrix(obj, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected nested [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"{what}: expected a matrix of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _json_int(value, what: str) -> int:
    """An integer read from JSON; booleans, non-numbers and fractions are refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{what} must be an integer, got {value!r}")


def parse_number(text, what: str, kind=float):
    """A finite kind(text) for a number from outside: a flag, a spec field, a family axis.

    Whatever kind() refuses, and NaN or +-inf, raise ParseError; a
    non-finite number would crash the numerics or print NaN rows.
    """
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"{what} must be a finite number, got {text!r}")


def parse_fields(text: str, allowed, what: str) -> dict:
    """'key=value,key=value' as {key: value text}; a key outside `allowed` raises ParseError."""
    fields = {}
    for token in text.split(","):
        key, _, value = token.partition("=")
        if key not in allowed:
            raise ParseError(f"{what} takes {', '.join(allowed) or 'no parameters'}, got {key!r}")
        fields[key] = value
    return fields


def model_to_dict(model: ModelParams, grading=None) -> dict:
    doc = {
        "dim_v": model.dim_v,
        "range": model.hop_range,
        "on_site": _matrix_to_pairs(model.on_site),
        "right_hops": [_matrix_to_pairs(m) for m in model.right_hops],
        "left_hops": [_matrix_to_pairs(m) for m in model.left_hops],
    }
    if grading is not None:
        doc["grading"] = [int(g) for g in grading]
    return doc


def model_from_dict(doc: dict, tol: Tolerances = DEFAULT_TOL):
    """Parse a model document; returns (ModelParams, grading-or-None)."""
    if not isinstance(doc, dict):
        raise ParseError("model file must contain a JSON object")
    known = {"dim_v", "range", "on_site", "right_hops", "left_hops", "grading"}
    unknown = set(doc) - known
    if unknown:
        raise ParseError(f"unknown model fields: {sorted(unknown)}")
    for field in ("dim_v", "range", "on_site", "right_hops"):
        if field not in doc:
            raise ParseError(f"missing required model field '{field}'")
    dim_v = _json_int(doc["dim_v"], "dim_v")
    hop_range = _json_int(doc["range"], "range")
    on_site = _pairs_to_matrix(doc["on_site"], "on_site")
    if not isinstance(doc["right_hops"], list) or len(doc["right_hops"]) != hop_range:
        raise ParseError(f"right_hops must list exactly {hop_range} matrices")
    right = np.stack([_pairs_to_matrix(m, f"right_hops[{i}]") for i, m in enumerate(doc["right_hops"])])
    left = None
    if "left_hops" in doc and doc["left_hops"] is not None:
        if not isinstance(doc["left_hops"], list) or len(doc["left_hops"]) != hop_range:
            raise ParseError(f"left_hops must list exactly {hop_range} matrices")
        left = np.stack([_pairs_to_matrix(m, f"left_hops[{i}]") for i, m in enumerate(doc["left_hops"])])
    grading = doc.get("grading")
    if grading is not None:
        if not isinstance(grading, list) or len(grading) != dim_v or any(
            _json_int(g, "grading entry") not in (1, -1) for g in grading
        ):
            raise ParseError("grading must be a list of +1/-1 of length dim_v")
        grading = np.array(grading, dtype=int)
    try:
        model = build_model(dim_v, hop_range, on_site, right, left, tol=tol)
    except (ShapeMismatch, RangeZero) as exc:
        raise ParseError(str(exc)) from exc
    return model, grading


def load_model(path, tol: Tolerances = DEFAULT_TOL):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return model_from_dict(doc, tol=tol)


def save_model(path, model: ModelParams, grading=None):
    Path(path).write_text(json.dumps(model_to_dict(model, grading), sort_keys=True, indent=1) + "\n")
