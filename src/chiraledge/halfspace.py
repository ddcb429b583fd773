"""Half-space Hamiltonians and edge-mode counting by two independent routes.

Truncating the lattice to cells 1..N (hops reaching cell <= 0 dropped) gives a
finite Hermitian block-banded matrix (truncate_halfspace, the finite section
of ModelParams.symbol()) whose in-gap spectrum probes the discrete spectrum
of the half-infinite operator.  For graded models the zero-energy kernel
splits into the kernels of the two off-diagonal block operators h_pm and
h_mp; their dimensions are computed either from the singular vectors of h_pm's
finite section, whose adjoint is h_mp's, or from the intersection of the
Dirichlet subspace with the decaying sector of each block's recurrence
pencil; both work for singular A_R.  _section_diagonals lays out the dense
section, _augmented_band the banded one.  The truncation has a spurious right
edge, so only left-localized kernel directions are counted.

Kernel singular values are judged against tol.kernel * smax.  The dense path
takes smax as the section's largest singular value, which its SVD gives for
free; the sparse path takes it from MatrixLoop.norm_bound() of h_pm, a
rigorous upper bound on sup over |lambda| = 1 of ||h_pm(lambda)||.  Both are
valid scales because a finite section's norm is at most that supremum, the
norm of the half-infinite Toeplitz operator (Boettcher & Silbermann).

Sections above config.DENSE_SVD_MAX skip the O(n^3) SVD: the eigenvalues
nearest zero of the augmented Hermitian matrix [[0, T], [T*, 0]], which are
+-sigma_i with eigenvectors (u_i, +-v_i) / sqrt(2), give the small singular
values.  Unlike T*T it does not square sigma (ssh(0.97, 1) at 875 cells:
1.573e-13, where T*T gave 1.65e-8).  With its unknowns ordered cell by cell
the augmented matrix is banded, kl = ku = q(2R + 2) - 1 (_augmented_band).
LAPACK's band LU factors it once, shifted, and a block shift-invert subspace
iteration (_shift_invert_subspace) finds those eigenvalues: each step is one
band triangular solve for the whole block and a Rayleigh-Ritz step, and
three steps suffice on every section of the 1000 criterion-4 models and of
the ensemble benchmark's 400 items of seeds 1-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg

# spectral_split is unused here but stays importable: perfbench/spans.py wraps it.
from .companion import decaying_sector, log_slope, spectral_split
from .config import CELLS_CAP, DENSE_SVD_MAX, DEFAULT_TOL, Tolerances
from .errors import (
    AmbiguousKernel,
    GapNotCertified,
    NonConvergent,
    TooFewCells,
)
# build_model is unused here but stays importable: perfbench/spans.py wraps it.
from .models import ChiralModel, MatrixLoop, ModelParams, build_model
# certified_gap is unused here but stays importable: perfbench/spans.py wraps it.
from .spectrum import GapReport, certified_gap, chiral_gap


def truncate_halfspace(model: ModelParams, cells: int) -> np.ndarray:
    """Compression of the half-space Hamiltonian to its first `cells` unit cells.

    A dense (cells d_V, cells d_V) matrix, Hermitian for self-adjoint models.
    The top-left boundary implements the hard cut (terms from cells <= 0 are
    absent); the bottom edge gets the same cut and its spurious states must be
    filtered by localization downstream.
    """
    if cells < 4 * model.hop_range:
        raise TooFewCells(f"need at least {4 * model.hop_range} cells, got {cells}")
    return _dense_section(model.symbol(), cells)


def _section_diagonals(symbol: MatrixLoop, cells: int):
    """Block diagonals of the finite section of a symbol on cells 0..cells-1.

    Block (n, m) holds the coefficient of lambda^(m-n), so for the canonical
    hop-right model the section is a left shift whose kernel sits at the left
    edge.  Yields (power, coefficient, block rows n of that diagonal).
    """
    for j, c in enumerate(symbol.coeffs):
        power = symbol.lowest_power + j
        yield power, c, np.arange(max(0, -power), cells - max(0, power))


def _augmented_band(symbol: MatrixLoop, cells: int):
    """[[0, T], [T*, 0]] of the section T on cells 0..cells-1, in LAPACK band storage.

    The unknowns are ordered cell by cell: row i of cell n of T is unknown
    2qn + i, column j of cell n is unknown 2qn + q + j.  Block (n, n + p)
    of T then lies d = 2qp + q + j - i places right of the diagonal, so with
    R = max(-lowest, highest power) the matrix has kl = ku = q(2R + 2) - 1.
    Entry (r, c) sits at row 2 kl + r - c of the returned (3 kl + 1, 2 cells q)
    array; its first kl rows are the fill-in room zgbtrf needs.  Returns
    (band, kl).
    """
    q = symbol.coeffs.shape[1]
    kl = q * (2 * max(-symbol.lowest_power, symbol.highest_power) + 2) - 1
    band = np.zeros((3 * kl + 1, 2 * cells * q), dtype=complex)
    # Column 2qm + s of the band is cols[:, m, s].  T's entry (i, j) of block
    # (n, n + p) sits in column cell m = n + p, T*'s mirror in column cell n;
    # each triangle is one assignment over every power, i, j and cell, with
    # zeros where the block falls outside the section.
    cols = band.reshape(3 * kl + 1, cells, 2 * q)
    p = symbol.lowest_power + np.arange(len(symbol.coeffs))[:, None, None, None]
    i, j = np.arange(q)[:, None, None], np.arange(q)[:, None]
    cell = np.arange(cells)
    c = symbol.coeffs[..., None]
    cols[2 * kl - 2 * q * p - q + i - j, cell, q + j] = np.where((cell >= p) & (cell - p < cells), c, 0)
    cols[2 * kl + 2 * q * p + q + j - i, cell, i] = np.where((cell >= -p) & (cell + p < cells), c.conj(), 0)
    return band, kl


def _dense_section(symbol: MatrixLoop, cells: int) -> np.ndarray:
    _, rows_dim, cols_dim = symbol.coeffs.shape
    t = np.zeros((cells, rows_dim, cells, cols_dim), dtype=complex)
    for power, c, rows in _section_diagonals(symbol, cells):
        t[rows, :, rows + power, :] = c
    return t.reshape(cells * rows_dim, cells * cols_dim)


def toeplitz_block(cm: ChiralModel, cells: int) -> np.ndarray:
    """Finite section of the half-space block operator h_pm, as a dense matrix."""
    return _dense_section(cm.symbol("pm"), cells)


@dataclass(eq=False)
class EdgeReport:
    """Kernel dimensions of the graded half-space blocks and their difference."""

    dim_ker_pm: int
    dim_ker_mp: int
    edge_index: int
    method: str
    singular_values_near_zero: list = field(default_factory=list)
    truncation_cells: int | None = None
    localization_lengths: list = field(default_factory=list)
    dim_edge_total: int | None = None
    graded_decay_dims: tuple | None = None
    kernel_vectors_pm: np.ndarray | None = None
    kernel_vectors_mp: np.ndarray | None = None

    def to_dict(self) -> dict:
        """Every field but the kernel vectors, for the JSON reports."""
        return {f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("kernel_vectors")}


def _cell_norms(vec: np.ndarray, cells: int) -> np.ndarray:
    return np.linalg.norm(vec.reshape(cells, -1), axis=1)


def _edge_localization(norms: np.ndarray) -> float:
    """Decay length (in cells) of a left-localized vector, polynomial prefactors discarded.

    Fits log ||psi_n|| against (1, log(n + 1), n), as companion.decay_rate
    does, on the left half of the section, which the cut does not distort,
    and on cell norms above the solvers' rounding, 1e-10 of the maximum.  A
    right-localized vector is fitted on its reversed cell norms.
    """
    half = norms[: len(norms) // 2]
    keep = np.flatnonzero(half > 1e-10 * half.max())
    if len(keep) < 3:
        return 0.0
    slope = log_slope(keep + 1, half[keep])
    return float("inf") if slope >= 0 else -1.0 / slope


def _left_localized(vectors: np.ndarray, cells: int) -> tuple[int, np.ndarray]:
    """Count/extract directions of a near-kernel subspace carrying >1/2 mass on the left half.

    Works on the subspace rather than individual vectors so that degenerate
    singular values mixing the two edges are still counted correctly.  Both
    kernel paths hand in orthonormal singular vectors; the SVD first refuses
    a numerically collinear basis and fixes the basis that the per-vector
    localization fit sees, which within a degenerate kernel depends on it.
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


# Steps of _shift_invert_subspace before it refuses.  With the switch at 64
# dimensions, each of its 893 calls on the 1000 criterion-4 models and 358
# calls on the ensemble benchmark's 400 items of seeds 1-5 (drawn under the
# switch at 144) stops after the minimum of three; 3 of them follow a block
# doubling.
_SUBSPACE_STEP_CAP = 100


def _economic_q(x: np.ndarray) -> np.ndarray:
    """scipy.linalg.qr(x, mode="economic")[0] bit for bit, from LAPACK's geqrf and orgqr/ungqr directly.

    scipy.linalg.qr also asks each routine for its workspace, p times the
    block size 32; these routines shrink the block only below that, so 64 p
    keeps the blocking, and every bit of Q, while skipping the two queries.
    The first block of the iteration is real, the rest complex.
    """
    lapack = scipy.linalg.lapack
    geqrf, orgqr = (lapack.zgeqrf, lapack.zungqr) if np.iscomplexobj(x) else (lapack.dgeqrf, lapack.dorgqr)
    lwork = 64 * x.shape[1]
    qr, tau = geqrf(x, lwork=lwork)[:2]
    return orgqr(qr, tau, lwork=lwork, overwrite_a=True)[0]


def _shift_invert_subspace(lu, piv, kl: int, shift: float, tau: float, start: np.ndarray):
    """Eigenpairs of a Hermitian band matrix A nearest a real shift, by block subspace iteration.

    lu, piv are zgbtrf's factors of A - shift I.  Each step orthonormalizes
    the block, Q = qr(X), takes one many-right-hand-side band solve
    Z = B Q of B = (A - shift I)^-1 and a Rayleigh-Ritz step on B, which is
    Hermitian because the shift is real: Q* Z = W diag(mu) W*, X = Z W.  The
    eigenvalues are shift + 1/mu, the Ritz vectors Q W.  Rayleigh-Ritz on A
    itself gave a spurious Ritz value near 0 for a +-sigma mixture.

    Iterating stops once at least three solves are done, every pair with
    |eigenvalue| < 10 tau has ||Z w - mu Q w|| <= 1e-3 |mu|, and the number
    of such pairs held for a step.  Two solves left the kernel subspace 2e-7
    off.  The residual bounds each in-band mu's relative error by 1e-3; a
    bound of 1e-10 sat below the solve's rounding floor (condition ~1e9 at
    this shift) and refused sound sections.  Pairs beyond the band need only
    show that they lie past it.  A non-finite solve or _SUBSPACE_STEP_CAP
    steps raise NonConvergent.  Returns (eigenvalues, orthonormal Ritz
    vectors).
    """
    x = start
    inside_before = -1
    for step in range(1, _SUBSPACE_STEP_CAP + 1):
        q = _economic_q(x)
        z = scipy.linalg.lapack.zgbtrs(lu, kl, kl, q, piv)[0]
        h = q.conj().T @ z
        if not np.isfinite(h).all():
            raise NonConvergent("non-finite band solve in the augmented section's subspace iteration")
        mu, w = np.linalg.eigh(h)
        x = z @ w
        vals = shift + 1.0 / mu
        inside = np.flatnonzero(np.abs(vals) < 10 * tau)
        if step >= 3 and len(inside) == inside_before:
            residual = np.linalg.norm(x[:, inside] - (q @ w[:, inside]) * mu[inside], axis=0)
            if (residual <= 1e-3 * np.abs(mu[inside])).all():
                return vals, q @ w
        inside_before = len(inside)
    raise NonConvergent(f"subspace iteration on the augmented section took over {_SUBSPACE_STEP_CAP} steps")


def _truncated_kernel_counts(cm: ChiralModel, cells: int, tol: Tolerances):
    dim = cells * cm.dim_plus
    if dim <= DENSE_SVD_MAX:
        u, sigmas, vh = np.linalg.svd(toeplitz_block(cm, cells))
        tau = tol.kernel * float(sigmas[0])
        small = sigmas < tau
        right, left = vh.conj().T[:, small], u[:, small]
    else:
        symbol = cm.symbol("pm")
        smax = symbol.norm_bound()
        tau = tol.kernel * smax
        # The shift is small but not zero: at zero, an exactly singular
        # section returned values that are not singular values of T.
        shift = 1e-9 * smax
        factor, kl = _augmented_band(symbol, cells)
        factor[2 * kl] = -shift
        lu, piv, info = scipy.linalg.lapack.zgbtrf(factor, kl, kl, overwrite_ab=True)
        if info > 0:
            raise NonConvergent(f"augmented section minus shift {shift:.3e} has a zero pivot")
        n = 2 * dim
        # A fixed seed keeps reruns byte-identical.
        rng = np.random.default_rng(0)
        p = 2 * cm.hop_range * cm.dim_plus + 2
        while True:
            p = min(p, n)
            vals, vecs = _shift_invert_subspace(lu, piv, kl, shift, tau, rng.standard_normal((n, p)))
            # Every eigenvalue inside (-10 tau, 10 tau) is present once the
            # Ritz values reach past that band on both sides.
            if (vals.min() <= -10 * tau and vals.max() >= 10 * tau) or p == n:
                break
            p *= 2
        # Eigenvalues come in +-sigma pairs; the bottom halves (the last q
        # slots of each cell) of the small ones' eigenvectors span the right
        # singular vectors, the top halves the left ones.
        small = np.abs(vals) < tau
        m = int(small.sum()) // 2
        halves = vecs[:, small].reshape(cells, 2, cm.dim_plus, -1)
        left = np.linalg.svd(halves[:, 0].reshape(dim, -1), full_matrices=False)[0][:, :m]
        right = np.linalg.svd(halves[:, 1].reshape(dim, -1), full_matrices=False)[0][:, :m]
        sigmas = np.sort(np.abs(vals))[1::2][::-1]
    near = sigmas[sigmas < 10 * tau]
    pm, pm_vecs = _left_localized(right, cells)
    mp, mp_vecs = _left_localized(left, cells)
    return pm, mp, pm_vecs, mp_vecs, near, bool((near >= tau).any())


def decay_scale_estimate(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> float:
    """Slowest decay of h_pm's and h_mp's zero modes, 0 when none (decaying_sector's decay for h_pm).

    No invertible leading hop is needed.  A root within tol.circle_band of the
    circle raises BorderlineEigenvalue; leaving it out would size the section
    for a faster decay and undercount.
    """
    return decaying_sector(cm.symbol("pm"), tol)[2]


def decay_min_cells(q: float, hop_range: int, tol: Tolerances) -> int:
    """Fewest cells over which an edge mode decaying as q^n falls below tol.kernel.

    Adds 8 R cells of margin for the boundary; a decay rate q <= 1e-12 needs
    the margin alone.
    """
    if q <= 1e-12:
        return 8 * hop_range
    return math.ceil(math.log(tol.kernel) / math.log(q)) + 8 * hop_range


def edge_modes_truncated(
    cm: ChiralModel,
    cells: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
    gap: GapReport | None = None,
) -> EdgeReport:
    """Kernel dimensions of the truncated graded blocks at zero energy, left-localized only.

    Works for singular A_R.  The gap around 0 must be certified; by default
    chiral_gap certifies it.  With cells=None the truncation size is the decay
    minimum (decay_min_cells of the decay estimate), capped at
    CELLS_CAP // dim_plus, and ambiguous singular values double it; with an
    explicit cells they raise AmbiguousKernel instead.  An explicit cells
    shorter than the decay minimum also raises AmbiguousKernel, since the
    section would leave a kernel singular value above the threshold and
    undercount.
    """
    if gap is None:
        gap = chiral_gap(cm)
    if not gap.gapped or not (gap.e_minus < 0.0 < gap.e_plus):
        raise GapNotCertified("no certified gap around energy 0.0")

    cap = CELLS_CAP // cm.dim_plus
    q_est = decay_scale_estimate(cm, tol)
    minimum = decay_min_cells(q_est, cm.hop_range, tol)
    auto = cells is None
    # Refusing beats a silent undercount: past the cap, or short of the
    # minimum, a kernel singular value stays above the threshold.
    if auto and minimum > cap:
        raise AmbiguousKernel(f"kernel threshold needs ~{minimum} cells for decay rate {q_est:.6f}; cap is {cap}")
    if not auto and cells < minimum:
        raise AmbiguousKernel(
            f"{cells} cells are too few for decay rate {q_est:.6f}; the kernel threshold needs at least {minimum}"
        )
    cells = minimum if auto else cells

    while True:
        pm, mp, pm_vecs, mp_vecs, near, ambiguous = _truncated_kernel_counts(cm, cells, tol)
        if not ambiguous:
            break
        if not auto or cells >= cap:
            raise AmbiguousKernel(f"singular values inside the undecidable band at {cells} cells; increase cells")
        cells = min(2 * cells, cap)

    loc = [_edge_localization(_cell_norms(v, cells)) for v in (*pm_vecs.T, *mp_vecs.T)]
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


def _dirichlet_intersection_dim(basis_down: np.ndarray, dirichlet_zeros: int, tol: Tolerances):
    """dim of (decaying sector) ∩ (first `dirichlet_zeros` coordinates = 0)."""
    p = basis_down.shape[1]
    top = basis_down[:dirichlet_zeros, :]
    if p == 0:
        return 0, np.array([])
    sv = np.linalg.svd(top, compute_uv=False)
    dim = int(p - np.sum(sv > tol.kernel))
    return dim, sv[sv < 10 * tol.kernel]


def edge_modes_companion(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> EdgeReport:
    """Zero-energy kernel dimensions of h_pm and h_mp from Dirichlet ∩ decaying-sector intersections.

    The ordered QZ of each block's recurrence pencil (companion.decaying_sector)
    gives its decaying initial data; the first R q coordinates, the cells
    left of the edge, must vanish.  Any leading hop is allowed.  A singular
    pencil raises GapNotCertified.
    """
    dims, decay_dims, svals = [], [], []
    for which in ("pm", "mp"):
        symbol = cm.symbol(which)
        k, z, _ = decaying_sector(symbol, tol)
        dim, near = _dirichlet_intersection_dim(z[:, :k], -symbol.lowest_power * symbol.size, tol)
        if np.any(near >= tol.kernel):
            raise AmbiguousKernel(f"{which} Dirichlet singular values inside the undecidable band")
        dims.append(dim)
        decay_dims.append(k)
        svals.extend(float(x) for x in near)
    pm, mp = dims
    return EdgeReport(
        dim_ker_pm=pm,
        dim_ker_mp=mp,
        edge_index=pm - mp,
        method="companion",
        singular_values_near_zero=svals,
        dim_edge_total=pm + mp,
        graded_decay_dims=tuple(decay_dims),
    )


@dataclass(frozen=True)
class ScanHit:
    energy: float
    localization_length: float
    side: str


def in_gap_window(gap: GapReport) -> tuple:
    """The default in_gap_scan window: the certified gap shrunk by 5% of its width at each end."""
    delta = 0.05 * (gap.e_plus - gap.e_minus)
    return gap.e_minus + delta, gap.e_plus - delta


def in_gap_scan(model: ModelParams, cells: int, energy_window: tuple, gap: GapReport) -> list:
    """All truncated-Hamiltonian eigenvalues in the window, tagged by edge side.

    Delocalized hits indicate an insufficient truncation and are reported, not
    filtered.  The window must sit inside `gap`, a certified gap from
    certified_gap or chiral_gap.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not gap.gapped or not (gap.e_minus <= lo and hi <= gap.e_plus):
        raise GapNotCertified(f"window ({lo}, {hi}) is not inside a certified gap")
    evals, evecs = np.linalg.eigh(truncate_halfspace(model, cells))
    hits = []
    for idx in np.flatnonzero((evals > lo) & (evals < hi)):
        vec = evecs[:, idx]
        norms = _cell_norms(vec, cells)
        centroid = float(np.sum(np.arange(1, cells + 1) * norms**2) / np.sum(norms**2))
        if centroid <= cells / 4:
            side = "left"
            xi = _edge_localization(norms)
        elif centroid >= 3 * cells / 4:
            side = "right"
            xi = _edge_localization(norms[::-1])
        else:
            side = "delocalized"
            xi = float("inf")
        hits.append(ScanHit(energy=float(evals[idx]), localization_length=xi, side=side))
    hits.sort(key=lambda h: h.energy)
    return hits
