"""Constructive homotopies reducing a gapped graded symbol to a diagonal of monomials.

A balanced graded model is equivalent to its lower-left block symbol
ChiralModel.symbol("pm"), a MatrixLoop (see models) invertible on the unit
circle; model_from_loop goes back.  full_deformation, the single entry
point, deforms any such loop, through loops that stay invertible, to
diag(lambda, ..., lambda^-1, ..., 1, ...) in four moves:

  1. stabilize by trivial bands and rotate  h (+) 1  to  p (+) lambda^-R 1,
     where p = lambda^R h is polynomial; split each lambda^-R into R copies
     of lambda^-1 by the same rotation trick;
  2. enlarge p by trivial bands and reduce it to a linear pencil
     l(lambda) = lambda C + D by unipotent row/column operations (these leave
     the determinant literally unchanged);
  3. scale by l(1)^-1, check the spectrum of the new coefficient avoids the
     Re = 1/2 line, and homotope it linearly to its spectral projection Q,
     ending at the projection loop lambda Q + (1 - Q);
  4. conjugate by plane rotations to sort the diagonal.

Every stage records an invertibility certificate (min singular value on its
parameter-by-momentum grid) and the winding of its determinant, which must be
one constant along the whole path.  certify_path evaluates the block a
stage moves at each (t, momentum) point and the fixed rest once per
momentum grid (models.unit_circle).  The winding check of each t starts
from its determinants on the first grid, whatever CERT_GRID_K is, and
evaluates the stage afresh only at bisection midpoints.  The moving blocks
of all t of a grid are stacked, at most CERT_GRID_CAP blocks (or one t row)
at a time, and the stack's least singular value comes from one pruned SVD
(models.least_singular_value): a batched inverse, or a closed form for
1 x 1 and 2 x 2 blocks, bounds each block's sigma_min below by 1/||M^-1||_F,
and only blocks whose bound does not exceed the grid's minimum are
decomposed, so the certificate is the full SVD's float however the grid is
stacked.  The fixed rest's two extremes come from
the pruned helpers of models, bit for bit.  The moving blocks' sigma_max is
bounded above by the largest Frobenius norm, which only makes the 1e-9 test
stricter.  The rotation stages (factor and split rotations, the
linearization's move and cyclic rotations, sort swaps) move only through
unitary factors: they are certified at t_start alone, exact in t.  Momentum
is sampled for every stage.  A stage that starts from the end state of
earlier ones computes that state once per momentum grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import (
    CERT_GRID_CAP,
    CERT_GRID_K,
    CERT_GRID_T,
    DEFAULT_TOL,
    Tolerances,
)
from .errors import CertificateFailed, SpectrumOnCriticalLine, UnbalancedGrading
from .models import (
    ChiralModel,
    MatrixLoop,
    build_model,
    chiral_split,
    largest_singular_value,
    least_singular_value,
    numerically_singular,
    unit_circle,
)
from .spectrum import GapReport
from .winding import winding_of_curve


# --- matrix loops -----------------------------------------------------------


def monomial_loop(power: int, size: int = 1) -> MatrixLoop:
    return MatrixLoop(power, np.eye(size, dtype=complex)[None, :, :])


def diagonal_monomials(powers) -> MatrixLoop:
    """diag(lambda^p) for a list of scalar powers."""
    powers = list(powers)
    lo, hi = min(powers), max(powers)
    n = len(powers)
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for i, p in enumerate(powers):
        coeffs[p - lo, i, i] = 1.0
    return MatrixLoop(lo, coeffs)


def model_from_loop(loop: MatrixLoop, tol: Tolerances = DEFAULT_TOL) -> ChiralModel:
    """Balanced graded model whose lower-left block symbol is the given loop."""
    m = loop.size
    big_r = max(1, -loop.lowest_power, loop.highest_power)
    # Symbol of the full model on (+ sector, - sector): [[0, h*], [h, 0]].
    planes = np.zeros((2 * big_r + 1, 2 * m, 2 * m), dtype=complex)
    lo = big_r + loop.lowest_power
    planes[lo : lo + loop.coeffs.shape[0], m:, :m] = loop.coeffs
    planes[:, :m, m:] = MatrixLoop(-big_r, planes[:, m:, :m]).adjoint().coeffs
    model = build_model(2 * m, big_r, planes[big_r], planes[big_r + 1 :], tol=tol)
    grading = np.array([1] * m + [-1] * m)
    return chiral_split(model, grading, tol=tol)


# --- homotopy paths ---------------------------------------------------------


@dataclass(eq=False)
class Stage:
    """One parameterized leg of a homotopy; evaluate(t, lams) -> (K, n, n).

    Up to a permutation the matrix is block diagonal: moving(t, lams) and a
    fixed rest; fixed(lams) gives the rest's least and largest singular
    values over all of lams and its determinant per point.  By default the
    whole matrix moves.  unitary_in_t: t enters only through
    unitary factors of t-independent determinant.  det_fixed_in_t: the
    determinant is the same for every t, while the singular values move.
    """

    description: str
    t_start: float
    t_end: float
    evaluate: object
    size: int
    moving: object = None
    fixed: object = None
    unitary_in_t: bool = False
    det_fixed_in_t: bool = False

    def __post_init__(self):
        if self.moving is None:
            self.moving = self.evaluate
        if self.fixed is None:
            self.fixed = lambda lams: (np.inf, 0.0, 1.0)


@dataclass(eq=False)
class HomotopyPath:
    stages: list
    certificates: list
    winding_per_stage: list
    endpoint: MatrixLoop
    grids: list  # (nt, nk) of each stage's final certificate grid
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stages": [
                {"description": s.description, "size": s.size, "certificate": c, "winding": w, "grid": list(g)}
                for s, c, w, g in zip(self.stages, self.certificates, self.winding_per_stage, self.grids)
            ],
            "winding": self.winding_per_stage[0] if self.winding_per_stage else None,
            "endpoint_size": self.endpoint.size,
            "notes": dict(self.notes),
        }


def _rotation(n: int, idx_a, idx_b, t: float) -> np.ndarray:
    """Simultaneous plane rotations pairing idx_a[i] with idx_b[i]."""
    r = np.eye(n, dtype=complex)
    ia = np.asarray(idx_a, dtype=int)
    ib = np.asarray(idx_b, dtype=int)
    c, s = np.cos(t), np.sin(t)
    r[ia, ia] = c
    r[ib, ib] = c
    r[ia, ib] = -s
    r[ib, ia] = s
    return r


def _gl_path(target: np.ndarray):
    """Path G(t) in GL from the identity (t=0) to `target` (t=1) via polar factors."""
    u, p = scipy.linalg.polar(target)
    t_diag, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t_diag))
    eye = np.eye(target.shape[0], dtype=complex)

    def g(t: float) -> np.ndarray:
        ut = (z * np.exp(1j * t * phases)[None, :]) @ z.conj().T
        return ut @ ((1.0 - t) * eye + t * p)

    return g


class _Builder:
    """Tracks the full loop as an evolving active block plus scalar monomial channels."""

    def __init__(self, active_eval, active_size: int):
        self.stages: list[Stage] = []
        self.active_idx = list(range(active_size))
        self.active = active_eval  # callable(lams) -> (K, a, a), or None once dissolved
        self.tail: dict[int, int] = {}
        self.n = active_size

    def _parts(self, sub_idx, sub_eval):
        """The full-matrix evaluator, and fixed(lams) of the rest."""
        active_idx = list(self.active_idx)
        active = self.active
        tail = dict(self.tail)
        n = self.n
        sub_set = set(sub_idx)
        if active_idx:
            inside = sum(1 for c in active_idx if c in sub_set)
            if inside not in (0, len(active_idx)):
                raise AssertionError("stage must cover the active block entirely or not at all")
            include_active = inside > 0
        else:
            include_active = False
        others = sorted((c, p) for c, p in tail.items() if c not in sub_set)
        powers = np.array([p for _, p in others], dtype=int)
        sub_arr = np.asarray(sub_idx, dtype=int)
        act_arr = np.asarray(active_idx, dtype=int)
        fixed_active = active if active_idx and not include_active else None

        def ev(t, lams):
            lams = np.asarray(lams, dtype=complex)
            k = lams.shape[0]
            out = np.zeros((k, n, n), dtype=complex)
            if fixed_active is not None:
                out[:, act_arr[:, None], act_arr[None, :]] = fixed_active(lams)
            for c, p in others:
                out[:, c, c] = lams**p
            out[:, sub_arr[:, None], sub_arr[None, :]] = sub_eval(t, lams)
            return out

        def fixed(lams):
            channels = np.abs(lams[:, None] ** powers[None, :])
            lo = float(channels.min(initial=np.inf))
            hi = float(channels.max(initial=0.0))
            det = lams ** powers.sum()
            if fixed_active is not None:
                block = fixed_active(lams)
                lo = least_singular_value(block, lo)
                hi = max(hi, largest_singular_value(block))
                det = det * np.linalg.det(block)
            return lo, hi, det

        return ev, fixed

    def add_stage(self, description, t_start, t_end, sub_idx, sub_eval, **marks):
        """marks: unitary_in_t, det_fixed_in_t."""
        ev, fixed = self._parts(sub_idx, sub_eval)
        self.stages.append(Stage(description, float(t_start), float(t_end), ev, self.n, sub_eval, fixed, **marks))

    def stabilize(self, extra: int) -> list:
        new = list(range(self.n, self.n + extra))
        self.n += extra
        for c in new:
            self.tail[c] = 0
        eye = np.eye(extra, dtype=complex)

        def sub_eval(t, lams):
            return np.broadcast_to(eye, (len(lams), extra, extra)).copy()

        self.add_stage(f"stabilize: append {extra} trivial band(s)", 0.0, 0.0, new, sub_eval)
        return new

    def rotate_product(self, description, idx_fg, idx_one, f_loop, g_eval):
        """Path from diag(F G, 1) to diag(G, F) on the paired coordinates.

        f_loop is a monomial loop, g_eval a callable; the start state must
        already be diag(F*G, 1) on these coordinates.  t enters only through
        rot diag(F, 1) rot^T, unitary on the circle, so the stage is unitary_in_t.
        """
        m = len(idx_fg)
        sub_idx = list(idx_fg) + list(idx_one)

        def sub_eval(t, lams, m=m):
            k = len(lams)
            rot = _rotation(2 * m, np.arange(m), np.arange(m, 2 * m), t)
            f_vals = f_loop.eval_many(lams)
            g_vals = g_eval(lams)
            left = np.zeros((k, 2 * m, 2 * m), dtype=complex)
            left[:, :m, :m] = f_vals
            left[:, m:, m:] = np.eye(m)
            right = np.zeros((k, 2 * m, 2 * m), dtype=complex)
            right[:, :m, :m] = g_vals
            right[:, m:, m:] = np.eye(m)
            return rot @ left @ rot.T @ right

        self.add_stage(description, 0.0, 0.5 * np.pi, sub_idx, sub_eval, unitary_in_t=True)

    def swap_channels(self, i: int, j: int):
        pi, pj = self.tail[i], self.tail[j]

        def sub_eval(t, lams):
            k = len(lams)
            rot = _rotation(2, [0], [1], t)
            d = np.zeros((k, 2, 2), dtype=complex)
            d[:, 0, 0] = lams**pi
            d[:, 1, 1] = lams**pj
            return rot @ d @ rot.T

        self.add_stage(
            f"sort: swap channels {i} (lambda^{pi}) and {j} (lambda^{pj})",
            0.0,
            0.5 * np.pi,
            [i, j],
            sub_eval,
            unitary_in_t=True,
        )
        self.tail[i], self.tail[j] = pj, pi

    def dissolve_active(self, powers):
        assert self.active_idx and len(powers) == len(self.active_idx)
        for c, p in zip(self.active_idx, powers):
            self.tail[c] = int(p)
        self.active_idx = []
        self.active = None


def certify_path(stages, tol: Tolerances = DEFAULT_TOL):
    """Sampled invertibility certificates and per-stage windings.

    Singular values are those of the stage's moving block at each grid point
    and of its fixed rest, taken once per momentum grid; the determinant is
    their product.  The moving blocks of the whole grid go to
    models.least_singular_value as one stack of max(1, CERT_GRID_CAP // nk)
    t rows at most, so the first grid takes one call and no stack outgrows a
    single row at the refinement cap.  The t slices of the first grid's
    stacks are the initial samples of the winding checks, which evaluate the
    stage afresh only at bisection midpoints.  It takes an SVD only of the
    blocks whose inverse-norm bound does not rule them out against the
    grid's minimum, and returns the full SVD's minimum bit for bit, whatever
    the stacking.  The fixed rest is pruned the same way, once per grid, for
    both extremes (models.largest_singular_value drops the blocks whose
    Frobenius norm rules them out).  The moving block's sigma_max is bounded
    above by its Frobenius norm.  A stage constant in t or unitary_in_t is certified and
    wound at t_start alone, so it is exact in t and sampled in lambda.  A
    det_fixed_in_t stage keeps its certificate t-grid and is wound at
    t_start alone.

    Returns (certificates, windings, grids), grids holding each stage's final
    certificate grid (nt, nk), nt = 1 for a stage certified at one t.  The
    grid starts at CERT_GRID_T x CERT_GRID_K and doubles up to CERT_GRID_CAP
    per axis; the windings are integers within tol.winding_integer.
    Raises CertificateFailed when a stage's minimum singular value on its
    refined grid falls below 1e-9 of that bound on its largest (wherever the
    exact largest would refuse, and possibly more), or when the winding of
    the determinant changes within or across stages.
    """
    certificates = []
    windings = []
    grids = []
    for stage in stages:
        one_t = stage.t_start == stage.t_end or stage.unitary_in_t
        one_winding = one_t or stage.det_fixed_in_t
        winding_ts = [stage.t_start] if one_winding else np.linspace(stage.t_start, stage.t_end, 5)
        winding_ts = [float(t) for t in winding_ts]
        dets = {}  # t -> determinants on the first certificate grid holding t
        nt, nk = CERT_GRID_T, CERT_GRID_K
        while True:
            ts = [stage.t_start] if one_t else np.linspace(stage.t_start, stage.t_end, nt)
            ts = [float(t) for t in ts]
            lams = unit_circle(nk)
            mn, mx, fixed_det = stage.fixed(lams)
            rows = max(1, CERT_GRID_CAP // nk)
            for first in range(0, len(ts), rows):
                chunk = ts[first : first + rows]
                stack = np.concatenate([stage.moving(t, lams) for t in chunk])
                mn = least_singular_value(stack, mn)
                mx = max(mx, float(np.linalg.norm(stack, axis=(1, 2)).max()))
                for i, t in enumerate(chunk):
                    if t in winding_ts and t not in dets:
                        dets[t] = np.linalg.det(stack[i * nk : (i + 1) * nk]) * fixed_det
            if mn > 1e-9 * mx:
                break
            if nt >= CERT_GRID_CAP and nk >= CERT_GRID_CAP:
                raise CertificateFailed(
                    f"stage '{stage.description}': min singular value {mn:.3e} on refined grid"
                )
            nt, nk = min(2 * nt, CERT_GRID_CAP), min(2 * nk, CERT_GRID_CAP)
        certificates.append(mn)
        grids.append((len(ts), nk))

        ws = set()
        for t in winding_ts:
            w, *_ = winding_of_curve(
                lambda lams, t=t: np.linalg.det(stage.moving(t, lams)) * stage.fixed(lams)[2], dets[t], tol
            )
            ws.add(w)
        if len(ws) != 1:
            raise CertificateFailed(
                f"winding changed within stage '{stage.description}': {sorted(ws)}"
            )
        windings.append(ws.pop())
    if len(set(windings)) > 1:
        raise CertificateFailed(f"winding not conserved across stages: {windings}")
    return certificates, windings, grids


# --- stage generators -------------------------------------------------------


def _poly_planes(loop: MatrixLoop, hop_range: int) -> np.ndarray:
    """Coefficient planes of p = lambda^hop_range * loop, padded down to power 0.

    The loop is trimmed and hop_range is at least its natural range, so the
    shift is never negative and the top plane is nonzero: the pencil size
    stays minimal.
    """
    shift = loop.lowest_power + hop_range
    m = loop.size
    planes = np.zeros((shift + loop.coeffs.shape[0], m, m), dtype=complex)
    planes[shift:] = loop.coeffs
    return planes


def _factor_stages(builder: _Builder, loop: MatrixLoop, hop_range: int) -> MatrixLoop:
    """Stages 1a/1b: rotate h (+) 1 to p (+) lambda^-R, then split the monomial block."""
    q = loop.size
    planes = _poly_planes(loop, hop_range)
    p_loop = MatrixLoop(0, planes)
    if hop_range > 0:
        partners = builder.stabilize(q)
        builder.rotate_product(
            f"factor: rotate h (+) 1 to p (+) lambda^-{hop_range}",
            list(builder.active_idx),
            partners,
            monomial_loop(-hop_range, q),
            p_loop.eval_many,
        )
        builder.active = p_loop.eval_many
        for c in partners:
            builder.tail[c] = -hop_range
        queue = [c for c in partners if builder.tail[c] <= -2]
        while queue:
            c = queue.pop(0)
            m_pow = -builder.tail[c]
            fresh = builder.stabilize(1)[0]
            builder.rotate_product(
                f"split: lambda^-{m_pow} (+) 1 to lambda^-1 (+) lambda^-{m_pow - 1}",
                [c],
                [fresh],
                monomial_loop(-(m_pow - 1), 1),
                monomial_loop(-1, 1).eval_many,
            )
            builder.tail[c] = -1
            builder.tail[fresh] = -(m_pow - 1)
            if m_pow - 1 >= 2:
                queue.append(fresh)
    return p_loop


def companion_pencil(planes: np.ndarray):
    """Linear pencil l(lambda) = lambda C + D equivalent to the polynomial loop.

    Block row 0 carries [lambda P_d + P_{d-1}, P_{d-2}, ..., P_0]; below it the
    pencil has -1 blocks on the subdiagonal and lambda on the diagonal, so
    det l = det p identically.
    """
    d = planes.shape[0] - 1
    m = planes.shape[1]
    if d <= 1:
        c_mat = planes[1].copy() if d == 1 else np.zeros((m, m), dtype=complex)
        return c_mat, planes[0].copy()
    s = d * m
    c_mat = np.zeros((s, s), dtype=complex)
    d_mat = np.zeros((s, s), dtype=complex)
    c_mat[:m, :m] = planes[d]
    d_mat[:m, :m] = planes[d - 1]
    for k in range(1, d):
        c_mat[k * m : (k + 1) * m, k * m : (k + 1) * m] = np.eye(m)
        d_mat[k * m : (k + 1) * m, (k - 1) * m : k * m] = -np.eye(m)
        d_mat[:m, k * m : (k + 1) * m] = planes[d - 1 - k]
    return c_mat, d_mat


def _horner_partials(planes: np.ndarray):
    """H_k(lambda) = P_{d-k} + lambda H_{k-1}, H_1 = P_{d-1} + lambda P_d, for k = 1..d-1."""
    d = planes.shape[0] - 1

    def h_k(k: int, lams: np.ndarray) -> np.ndarray:
        acc = np.broadcast_to(planes[d], (len(lams),) + planes[d].shape).astype(complex).copy()
        for i in range(1, k + 1):
            acc = planes[d - i][None, :, :] + lams[:, None, None] * acc
        return acc

    return h_k


def _per_grid(fn):
    """fn(lams), computed once per momentum grid and shared read-only.

    The end state of a stage does not depend on the next stage's parameter,
    so chaining stages through _per_grid evaluates each earlier stage once
    per grid instead of once per (t, grid).  One entry, keyed on the grid.
    """
    last = {}

    def cached(lams):
        key = lams.tobytes()
        if last.get("key") != key:
            value = fn(lams)
            value.flags.writeable = False
            last.update(key=key, value=value)
        return last["value"]

    return cached


def _linearize_stages(builder: _Builder, planes: np.ndarray):
    """Stage 2: from diag(p, 1, ..., 1) to the companion pencil, determinant fixed."""
    d = planes.shape[0] - 1
    m = planes.shape[1]
    c_mat, d_mat = companion_pencil(planes)
    if d <= 1:
        return c_mat, d_mat
    fresh = builder.stabilize((d - 1) * m)
    sub_idx = list(builder.active_idx) + fresh
    s = d * m
    p_eval = MatrixLoop(0, planes).eval_many

    def start_eval(lams):
        k = len(lams)
        out = np.zeros((k, s, s), dtype=complex)
        out[:, :m, :m] = p_eval(lams)
        out[:, np.arange(m, s), np.arange(m, s)] = 1.0
        return out

    current = _per_grid(start_eval)

    def conj_rot_stage(prev, blk_a, blk_b):
        ia = np.arange(blk_a * m, (blk_a + 1) * m)
        ib = np.arange(blk_b * m, (blk_b + 1) * m)

        def ev(t, lams):
            rot = _rotation(s, ia, ib, t)
            return rot @ prev(lams) @ rot.T

        return ev

    # Move p from block 0 to block d-1 by one conjugation.
    ev = conj_rot_stage(current, 0, d - 1)
    builder.add_stage(
        "linearize: move p to the last block slot", 0.0, 0.5 * np.pi, sub_idx, ev, unitary_in_t=True
    )
    current = _per_grid(lambda lams, ev=ev: ev(0.5 * np.pi, lams))

    # Build the signed cyclic shift as d-1 left rotations.
    for blk in range(d - 1, 0, -1):
        ia = np.arange((blk - 1) * m, blk * m)
        ib = np.arange(blk * m, (blk + 1) * m)

        def ev(t, lams, prev=current, ia=ia, ib=ib):
            return _rotation(s, ia, ib, -t) @ prev(lams)

        builder.add_stage(
            f"linearize: cyclic rotation of block pair ({blk - 1}, {blk})",
            0.0,
            0.5 * np.pi,
            sub_idx,
            ev,
            unitary_in_t=True,
        )
        current = _per_grid(lambda lams, ev=ev: ev(0.5 * np.pi, lams))

    # Row operations reinstate the Horner partials on block row 0.  Their
    # unipotent factor has determinant 1, so det does not move with t.  The
    # partials do not depend on t and are taken once per grid.
    h_k = _horner_partials(planes)
    partials = _per_grid(lambda lams: np.stack([h_k(kk, lams) for kk in range(1, d)]))

    def row_ops(t, lams, prev=current):
        k = len(lams)
        left = np.broadcast_to(np.eye(s), (k, s, s)).astype(complex).copy()
        for kk, h in enumerate(partials(lams), start=1):
            left[:, :m, kk * m : (kk + 1) * m] = -t * h
        return left @ prev(lams)

    builder.add_stage(
        "linearize: unipotent row operations", 0.0, 1.0, sub_idx, row_ops, det_fixed_in_t=True
    )
    current = _per_grid(lambda lams, ev=row_ops: ev(1.0, lams))

    # Column operations, highest block first, complete the pencil.  They are
    # unipotent as well.
    for kk in range(d - 1, 0, -1):

        def col_op(t, lams, prev=current, kk=kk):
            k = len(lams)
            right = np.broadcast_to(np.eye(s), (k, s, s)).astype(complex).copy()
            right[:, (kk - 1) * m : kk * m, kk * m : (kk + 1) * m] = (
                -t * lams[:, None, None] * np.eye(m)
            )
            return prev(lams) @ right

        builder.add_stage(
            f"linearize: unipotent column operation on block pair ({kk - 1}, {kk})",
            0.0,
            1.0,
            sub_idx,
            col_op,
            det_fixed_in_t=True,
        )
        current = _per_grid(lambda lams, ev=col_op: ev(1.0, lams))

    builder.active_idx = sub_idx
    for c in fresh:
        del builder.tail[c]
    builder.active = current
    return c_mat, d_mat


def _projectionize_stages(builder: _Builder, c_mat: np.ndarray, d_mat: np.ndarray, tol: Tolerances):
    """Stage 3: scale by l(1)^-1, homotope the coefficient to its spectral projection."""
    s = c_mat.shape[0]
    sub_idx = list(builder.active_idx)
    ell_at_one = c_mat + d_mat
    if numerically_singular(ell_at_one, tol):
        raise CertificateFailed("pencil is numerically singular at lambda = 1")

    def ell_eval(lams):
        return lams[:, None, None] * c_mat + d_mat[None, :, :]

    g_path = _gl_path(np.linalg.inv(ell_at_one))

    def scale_stage(t, lams):
        return g_path(float(t))[None, :, :] @ ell_eval(lams)

    builder.add_stage("projection: scale by l(1)^-1 along a polar path", 0.0, 1.0, sub_idx, scale_stage)

    cp = np.linalg.solve(ell_at_one, c_mat)
    eigs = np.linalg.eigvals(cp)
    if np.any(np.abs(eigs.real - 0.5) <= tol.cluster):
        raise SpectrumOnCriticalLine(
            "coefficient spectrum touches Re = 1/2; the loop was not invertible upstream"
        )
    q_proj, rank = _spectral_projection(cp)

    def to_projection(t, lams):
        coeff = (1.0 - t) * cp + t * q_proj
        return np.eye(s)[None, :, :] + coeff[None, :, :] * (lams[:, None, None] - 1.0)

    builder.add_stage(
        "projection: linear homotopy of the coefficient to its spectral projection",
        0.0,
        1.0,
        sub_idx,
        to_projection,
    )

    # Straighten Q to the orthogonal coordinate projection diag(1_rank, 0).
    u_r = np.linalg.svd(q_proj)[0][:, :rank] if rank else np.zeros((s, 0))
    u_n = (
        np.linalg.svd(np.eye(s) - q_proj)[0][:, : s - rank]
        if rank < s
        else np.zeros((s, 0))
    )
    s_mat = np.hstack([u_r, u_n])
    s_path = _gl_path(s_mat)
    j_diag = np.diag(np.array([1.0] * rank + [0.0] * (s - rank), dtype=complex))

    def straighten(t, lams):
        st = s_path(1.0 - float(t))
        q_t = st @ j_diag @ np.linalg.inv(st)
        return np.eye(s)[None, :, :] + q_t[None, :, :] * (lams[:, None, None] - 1.0)

    # det(1 + Q_t (lambda - 1)) = lambda^rank for every projection Q_t.
    builder.add_stage(
        "projection: straighten Q to a coordinate projection",
        0.0,
        1.0,
        sub_idx,
        straighten,
        det_fixed_in_t=True,
    )

    builder.dissolve_active([1] * rank + [0] * (s - rank))
    return rank


_SORT_RANK = {1: 0, -1: 1, 0: 2}


def _sort_stages(builder: _Builder):
    """Stage 4: selection-sort the monomial channels into (lambda, lambda^-1, 1) order."""
    coords = sorted(builder.tail)
    for pos, c in enumerate(coords):
        best = min(coords[pos:], key=lambda cc: (_SORT_RANK[builder.tail[cc]], cc))
        if best != c and builder.tail[best] != builder.tail[c]:
            builder.swap_channels(c, best)


def _spectral_projection(matrix: np.ndarray):
    """Spectral projector of `matrix` for the Re(mu) > 1/2 part of its spectrum, and its rank.

    An ordered Schur form T = Z* M Z puts that part first; the projector is
    Z [[I, Y], [0, 0]] Z* with T11 Y - Y T22 = T12, which stays
    well-conditioned for defective coefficients, where an eigenbasis does not.
    """
    n = matrix.shape[0]
    t_mat, z, sdim = scipy.linalg.schur(
        matrix, output="complex", sort=lambda mu: mu.real > 0.5
    )
    if sdim in (0, n):
        return (np.eye(n, dtype=complex) if sdim == n else np.zeros((n, n), dtype=complex)), sdim
    t11 = t_mat[:sdim, :sdim]
    t22 = t_mat[sdim:, sdim:]
    t12 = t_mat[:sdim, sdim:]
    y = scipy.linalg.solve_sylvester(t11, -t22, t12)
    p_t = np.zeros((n, n), dtype=complex)
    p_t[:sdim, :sdim] = np.eye(sdim)
    p_t[:sdim, sdim:] = y
    return z @ p_t @ z.conj().T, sdim


# --- entry point -------------------------------------------------------------


def full_deformation(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> HomotopyPath:
    """Compose all stages, ending at diag(lambda x (W + R q), lambda^-1 x (R q), 1 x rest).

    R here is the natural hopping range of the block symbol (zero hop planes do
    not count), and W its winding.  The endpoint's edge index, computed by the
    truncated half-space route on the reconstructed model, is recorded in the
    notes and must equal W.  The endpoint is a diagonal of monomials, whose
    edge modes decay at once, so the automatic size is the decay minimum of
    rate 0, 8R cells.  Its symbol squares to I on the circle, so its gap
    (-1, 1) is exact.
    """
    if not cm.balanced:
        raise UnbalancedGrading("deformation needs a balanced graded model")
    loop = cm.symbol("pm").trimmed()
    hop_range = loop.natural_range
    builder = _Builder(loop.eval_many, loop.size)

    p_loop = _factor_stages(builder, loop, hop_range)
    c_mat, d_mat = _linearize_stages(builder, p_loop.coeffs)
    rank = _projectionize_stages(builder, c_mat, d_mat, tol)
    _sort_stages(builder)

    certificates, windings, grids = certify_path(builder.stages, tol)
    powers = [builder.tail[c] for c in sorted(builder.tail)]
    endpoint = diagonal_monomials(powers)
    counts = (powers.count(1), powers.count(-1), powers.count(0))

    from .halfspace import edge_modes_truncated

    gap = GapReport(True, endpoint.size - 1, -1.0, 1.0, 2.0)
    endpoint_edge = edge_modes_truncated(model_from_loop(endpoint, tol), tol=tol, gap=gap)
    return HomotopyPath(
        stages=builder.stages,
        certificates=certificates,
        winding_per_stage=windings,
        endpoint=endpoint,
        grids=grids,
        notes={
            "counts": counts,
            "projection_rank": rank,
            "hop_range": hop_range,
            "endpoint_edge_index": endpoint_edge.edge_index,
            "endpoint_counts_formula": (
                windings[0] + hop_range * loop.size,
                hop_range * loop.size,
            ),
        },
    )
