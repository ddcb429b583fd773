"""Half-space Hamiltonians and edge-mode counting by two independent routes.

Truncating the lattice to cells 1..N (hops reaching cell <= 0 dropped) gives a
finite Hermitian block-banded matrix whose in-gap spectrum probes the discrete
spectrum of the half-infinite operator.  For graded models the zero-energy
kernel splits into the kernels of the two off-diagonal block operators; their
dimensions are computed either from singular values of the truncated blocks
(works for singular A_R) or from the intersection of the Dirichlet subspace
with the decaying sector of the companion matrix (needs invertible A_R).  The
truncated Hamiltonian and blocks are finite sections of the symbols
ModelParams.symbol() and ChiralModel.symbol("pm"/"mp"); _section_diagonals
lays out every section, dense or sparse.  The truncation has a spurious right
edge, so only left-localized kernel directions are counted.

Kernel singular values are judged against tol.kernel * smax.  The dense path
takes smax as the section's largest singular value, which its SVD gives for
free; the sparse path takes it from MatrixLoop.norm_bound() of h_pm, a
rigorous upper bound on sup over |lambda| = 1 of ||h_pm(lambda)||.  Both are
valid scales because a finite section's norm is at most that supremum, the
norm of the half-infinite Toeplitz operator (Boettcher & Silbermann).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .companion import build_companion, spectral_split
from .config import CELLS_CAP, CELLS_MIN_DEFAULT, DENSE_SVD_MAX, DEFAULT_TOL, Tolerances
from .errors import (
    AmbiguousKernel,
    GapNotCertified,
    NonConvergent,
    SingularLeadingHop,
    TooFewCells,
    UnbalancedGrading,
)
from .models import ChiralModel, MatrixLoop, ModelParams, build_model
from .spectrum import GapReport, certified_gap


@dataclass(frozen=True, eq=False)
class TruncatedHamiltonian:
    cells: int
    matrix: np.ndarray  # (N d_V, N d_V), Hermitian for self-adjoint models
    model: ModelParams


def truncate_halfspace(model: ModelParams, cells: int, tol: Tolerances = DEFAULT_TOL) -> TruncatedHamiltonian:
    """Compression of the half-space Hamiltonian to its first `cells` unit cells.

    The top-left boundary implements the hard cut (terms from cells <= 0 are
    absent); the bottom edge gets the same cut and its spurious states must be
    filtered by localization downstream.
    """
    if cells < 4 * model.hop_range:
        raise TooFewCells(f"need at least {4 * model.hop_range} cells, got {cells}")
    return TruncatedHamiltonian(cells=cells, matrix=_dense_section(model.symbol(), cells), model=model)


def _section_diagonals(symbol: MatrixLoop, cells: int):
    """Block diagonals of the finite section of a symbol on cells 0..cells-1.

    Block (n, m) holds the coefficient of lambda^(m-n), so for the canonical
    hop-right model the section is a left shift whose kernel sits at the left
    edge.  Yields (power, coefficient, block rows n of that diagonal).
    """
    for j, c in enumerate(symbol.coeffs):
        power = symbol.lowest_power + j
        yield power, c, np.arange(max(0, -power), cells - max(0, power))


def _dense_section(symbol: MatrixLoop, cells: int) -> np.ndarray:
    _, rows_dim, cols_dim = symbol.coeffs.shape
    t = np.zeros((cells, rows_dim, cells, cols_dim), dtype=complex)
    for power, c, rows in _section_diagonals(symbol, cells):
        t[rows, :, rows + power, :] = c
    return t.reshape(cells * rows_dim, cells * cols_dim)


def toeplitz_block(cm: ChiralModel, cells: int, which: str = "pm") -> np.ndarray:
    """Finite section of the half-space graded block operator, as a dense matrix."""
    return _dense_section(cm.symbol(which), cells)


@dataclass(eq=False)
class EdgeReport:
    """Kernel dimensions of the graded half-space blocks and their difference."""

    dim_ker_pm: int | None
    dim_ker_mp: int | None
    edge_index: int | None
    method: str
    singular_values_near_zero: list = field(default_factory=list)
    truncation_cells: int | None = None
    localization_lengths: list = field(default_factory=list)
    dim_edge_total: int | None = None
    graded_decay_dims: tuple | None = None
    kernel_vectors_pm: np.ndarray | None = None
    kernel_vectors_mp: np.ndarray | None = None


def _cell_norms(vec: np.ndarray, cells: int) -> np.ndarray:
    return np.linalg.norm(vec.reshape(cells, -1), axis=1)


def _localization_fit(norms: np.ndarray, from_left: bool = True) -> float:
    """Exponential decay length (in cells) fitted on the decaying tail."""
    mx = norms.max()
    if mx == 0:
        return 0.0
    keep = np.flatnonzero(norms > 1e-14 * mx)
    if len(keep) < 3:
        return 0.0
    xs = keep.astype(float)
    ys = np.log(norms[keep])
    if not from_left:
        xs = xs[::-1] * -1.0
        ys = ys[::-1]
    slope = np.polyfit(xs, ys, 1)[0]
    if slope >= 0:
        return float("inf")
    return float(-1.0 / slope)


def _left_localized(vectors: np.ndarray, cells: int) -> tuple[int, np.ndarray]:
    """Count/extract directions of a near-kernel subspace carrying >1/2 mass on the left half.

    Works on the subspace rather than individual vectors so that degenerate
    singular values mixing the two edges are still counted correctly.  The
    basis is re-orthonormalized first: sparse eigensolves may hand back a
    non-orthogonal basis for a machine-degenerate cluster.
    """
    k = vectors.shape[1]
    if k == 0:
        return 0, vectors
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s[-1] < 1e-8 * s[0]:
        raise AmbiguousKernel(
            "near-kernel basis is numerically collinear; increase the truncation size"
        )
    ortho = u[:, : len(s)]
    half = cells // 2
    comp = ortho.shape[0] // cells
    left_rows = ortho.reshape(cells, comp, k)[:half].reshape(half * comp, k)
    mass = left_rows.conj().T @ left_rows
    w, basis = np.linalg.eigh(mass)
    sel = w > 0.5
    return int(sel.sum()), ortho @ basis[:, sel]


def _small_singular_system(gram, smax: float, want: int, tol: Tolerances):
    """Eigenpairs of a Gram matrix below the kernel band, by shift-invert.

    Returns (sigmas ascending, vectors, ambiguous, complete); complete is False
    when every returned eigenvalue is still inside the band, i.e. `want` was
    too small to see the spectrum above it.
    """
    dim = gram.shape[0]
    k = min(want, dim - 2)
    shift = -((10 * tol.kernel * smax) ** 2)
    v0 = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    vals, vecs = scipy.sparse.linalg.eigsh(gram, k=k, sigma=shift, which="LM", v0=v0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    sigmas = np.sqrt(np.clip(vals, 0.0, None))
    small = sigmas < tol.kernel * smax
    ambiguous = (~small) & (sigmas < 10 * tol.kernel * smax)
    complete = bool(sigmas[-1] >= 10 * tol.kernel * smax) or k == dim - 2
    return sigmas, vecs, small, ambiguous, complete


def _truncated_kernel_counts(cm: ChiralModel, cells: int, tol: Tolerances):
    dim = cells * cm.dim_plus
    if dim <= DENSE_SVD_MAX:
        t = toeplitz_block(cm, cells, "pm")
        u, s, vh = np.linalg.svd(t)
        smax = float(s[0])
        small = s < tol.kernel * smax
        ambiguous = (~small) & (s < 10 * tol.kernel * smax)
        right = vh.conj().T[:, small]
        left = u[:, small]
        near = s[small | ambiguous]
        amb = bool(ambiguous.any())
    else:
        q = cm.dim_plus
        symbol = cm.symbol("pm")
        data, rows, cols = [], [], []
        for power, c, n in _section_diagonals(symbol, cells):
            bi, bj = np.nonzero(c)
            rows.append((n[:, None] * q + bi).ravel())
            cols.append(((n + power)[:, None] * q + bj).ravel())
            data.append(np.tile(c[bi, bj], len(n)))
        t = scipy.sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
        )
        gram_r = (t.conj().T @ t).tocsc()
        gram_l = (t @ t.conj().T).tocsc()
        smax = symbol.norm_bound()
        want = 4 * cm.hop_range * cm.dim_plus + 8
        while True:
            s_r, vec_r, small_r, amb_r, complete_r = _small_singular_system(gram_r, smax, want, tol)
            s_l, vec_l, small_l, amb_l, complete_l = _small_singular_system(gram_l, smax, want, tol)
            if complete_r and complete_l:
                break
            want *= 2
        right = vec_r[:, small_r]
        left = vec_l[:, small_l]
        near = np.sort(np.concatenate([s_r[small_r | amb_r], s_l[small_l | amb_l]]))[::-1]
        amb = bool(amb_r.any() or amb_l.any())
    pm, pm_vecs = _left_localized(right, cells)
    mp, mp_vecs = _left_localized(left, cells)
    return pm, mp, pm_vecs, mp_vecs, near, amb


def decay_scale_estimate(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """Largest |lambda| < 1 among zero-energy companion eigenvalues, if computable.

    Falls back to the roots of the deflated block-determinant polynomials when
    the leading hop is singular; None when no estimate is available.
    """
    try:
        c0 = build_companion(cm.base, 0.0, tol)
        eigs = np.linalg.eigvals(c0.matrix)
    except SingularLeadingHop:
        from .winding import block_det_poly_roots

        try:
            eigs = np.concatenate(
                [block_det_poly_roots(cm, "pm", tol), block_det_poly_roots(cm, "mp", tol)]
            )
        except (NonConvergent, np.linalg.LinAlgError):
            return None
    inside = np.abs(eigs)[np.abs(eigs) < 1.0 - tol.circle_band]
    if len(inside) == 0:
        return 0.0
    return float(inside.max())


def _cells_target(cm: ChiralModel, tol: Tolerances):
    """Uncapped truncation size pushing the slowest edge decay below the kernel threshold."""
    q = decay_scale_estimate(cm, tol)
    if q is None:
        return None, None
    if q <= 1e-12:
        return CELLS_MIN_DEFAULT, q
    n = max(CELLS_MIN_DEFAULT, math.ceil(math.log(tol.kernel) / math.log(q)) + 8 * cm.hop_range)
    return n, q


def edge_modes_truncated(
    cm: ChiralModel,
    cells: int | None = None,
    energy: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
    gap: GapReport | None = None,
) -> EdgeReport:
    """Kernel dimensions of the truncated graded blocks, left-localized only.

    Works for singular A_R.  With cells=None the truncation size is chosen from
    the decay estimate (or grown until stable when none is available) and
    ambiguous singular values trigger automatic refinement; with an explicit
    cells they raise AmbiguousKernel instead.
    """
    if not cm.balanced:
        raise UnbalancedGrading("edge index needs balanced graded components")
    if gap is None:
        gap = certified_gap(cm.base, around_energy=energy)
    if not gap.gapped or not (gap.e_minus < energy < gap.e_plus):
        raise GapNotCertified(f"no certified gap around energy {energy}")

    cap = max(CELLS_MIN_DEFAULT, CELLS_CAP // cm.dim_plus)
    auto = cells is None
    if auto:
        target, q_est = _cells_target(cm, tol)
        need_stability = target is None
        if need_stability:
            cells = CELLS_MIN_DEFAULT
        elif target > cap:
            # Refusing beats a silent undercount: beyond the cap the kernel
            # singular values cannot be pushed below the threshold.
            raise AmbiguousKernel(
                f"kernel threshold needs ~{target} cells for decay rate {q_est:.6f}; "
                f"cap is {cap}"
            )
        else:
            cells = target
    else:
        need_stability = False
    cells = max(cells, 4 * cm.hop_range)

    while True:
        pm, mp, pm_vecs, mp_vecs, near, ambiguous = _truncated_kernel_counts(cm, cells, tol)
        if ambiguous:
            if auto and cells < cap:
                cells = min(2 * cells, cap)
                continue
            raise AmbiguousKernel(
                f"singular values inside the undecidable band at {cells} cells; increase cells"
            )
        if need_stability:
            next_cells = min(2 * cells, cap)
            if next_cells > cells:
                pm2, mp2, *_ = _truncated_kernel_counts(cm, next_cells, tol)
                if (pm2, mp2) != (pm, mp):
                    cells = next_cells
                    continue
            elif cells >= cap:
                raise AmbiguousKernel(
                    f"kernel counts did not stabilize up to the {cap}-cell cap"
                )
        break

    loc = [
        _localization_fit(_cell_norms(pm_vecs[:, i], cells)) for i in range(pm_vecs.shape[1])
    ] + [
        _localization_fit(_cell_norms(mp_vecs[:, i], cells)) for i in range(mp_vecs.shape[1])
    ]
    return EdgeReport(
        dim_ker_pm=pm,
        dim_ker_mp=mp,
        edge_index=pm - mp,
        method="truncated",
        singular_values_near_zero=[float(x) for x in near],
        truncation_cells=cells,
        localization_lengths=loc,
        dim_edge_total=pm + mp,
        kernel_vectors_pm=pm_vecs,
        kernel_vectors_mp=mp_vecs,
    )


def reduced_sector_model(cm: ChiralModel, sector: str) -> ModelParams:
    """The scalar-sector recurrence obeyed by zero-energy solutions of one grading.

    At zero energy the dynamics commutes with the grading, so +-supported
    solutions obey a reduced recurrence whose coefficients are the graded
    blocks; its symbol is h_pm (resp. h_mp).
    """
    if not cm.balanced:
        raise UnbalancedGrading("sector reduction needs balanced graded components")
    if sector not in ("plus", "minus"):
        raise ValueError(f"unknown sector {sector!r}")
    planes = cm.symbol("pm" if sector == "plus" else "mp").coeffs
    big_r = cm.hop_range
    return build_model(cm.dim_plus, big_r, planes[big_r], planes[big_r + 1 :], planes[big_r - 1 :: -1])


def _dirichlet_intersection_dim(basis_down: np.ndarray, dirichlet_zeros: int, tol: Tolerances):
    """dim of (decaying sector) ∩ (first `dirichlet_zeros` coordinates = 0)."""
    p = basis_down.shape[1]
    top = basis_down[:dirichlet_zeros, :]
    if p == 0:
        return 0, np.array([])
    sv = np.linalg.svd(top, compute_uv=False)
    dim = int(p - np.sum(sv > tol.kernel))
    return dim, sv[sv < 10 * tol.kernel]


def edge_modes_companion(model, energy: complex = 0.0, tol: Tolerances = DEFAULT_TOL) -> EdgeReport:
    """Edge-mode dimensions from Dirichlet ∩ decaying-sector intersections.

    For a balanced graded model at zero energy the computation runs separately
    in the two sectors, yielding both kernel dimensions; otherwise only the
    total edge-mode dimension at the given energy is returned.  Requires an
    invertible leading hop.
    """
    if isinstance(model, ChiralModel) and energy == 0:
        cm = model
        if not cm.balanced:
            raise UnbalancedGrading("graded kernel dimensions need balanced components")
        dims = {}
        svals = []
        decay_dims = {}
        for sector in ("plus", "minus"):
            reduced = reduced_sector_model(cm, sector)
            comp = build_companion(reduced, 0.0, tol)
            split = spectral_split(comp, tol, clean=True)
            basis = split.basis_down
            dim, near = _dirichlet_intersection_dim(
                basis, cm.hop_range * cm.dim_plus, tol
            )
            dims[sector] = dim
            decay_dims[sector] = basis.shape[1]
            svals.extend(float(x) for x in near)
        pm, mp = dims["plus"], dims["minus"]
        return EdgeReport(
            dim_ker_pm=pm,
            dim_ker_mp=mp,
            edge_index=pm - mp,
            method="companion",
            singular_values_near_zero=svals,
            truncation_cells=None,
            dim_edge_total=pm + mp,
            graded_decay_dims=(decay_dims["plus"], decay_dims["minus"]),
        )

    base = model.base if isinstance(model, ChiralModel) else model
    comp = build_companion(base, energy, tol)
    split = spectral_split(comp, tol, clean=True)
    dim, near = _dirichlet_intersection_dim(
        split.basis_down, base.hop_range * base.dim_v, tol
    )
    return EdgeReport(
        dim_ker_pm=None,
        dim_ker_mp=None,
        edge_index=None,
        method="companion",
        singular_values_near_zero=[float(x) for x in near],
        truncation_cells=None,
        dim_edge_total=dim,
    )


@dataclass(frozen=True)
class ScanHit:
    energy: float
    localization_length: float
    side: str


def in_gap_scan(
    model: ModelParams,
    cells: int,
    energy_window: tuple,
    tol: Tolerances = DEFAULT_TOL,
    gap: GapReport | None = None,
) -> list:
    """All truncated-Hamiltonian eigenvalues in the window, tagged by edge side.

    Delocalized hits indicate an insufficient truncation and are reported, not
    filtered.  The window must sit inside a certified gap.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if gap is None:
        gap = certified_gap(model, around_energy=0.5 * (lo + hi))
    if not gap.gapped or not (gap.e_minus <= lo and hi <= gap.e_plus):
        raise GapNotCertified(f"window ({lo}, {hi}) is not inside a certified gap")
    trunc = truncate_halfspace(model, cells, tol)
    evals, evecs = np.linalg.eigh(trunc.matrix)
    hits = []
    for idx in np.flatnonzero((evals > lo) & (evals < hi)):
        vec = evecs[:, idx]
        norms = _cell_norms(vec, cells)
        centroid = float(np.sum(np.arange(1, cells + 1) * norms**2) / np.sum(norms**2))
        if centroid <= cells / 4:
            side = "left"
            xi = _localization_fit(norms, from_left=True)
        elif centroid >= 3 * cells / 4:
            side = "right"
            xi = _localization_fit(norms, from_left=False)
        else:
            side = "delocalized"
            xi = float("inf")
        hits.append(ScanHit(energy=float(evals[idx]), localization_length=xi, side=side))
    hits.sort(key=lambda h: h.energy)
    return hits
