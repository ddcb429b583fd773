"""Companion-matrix dynamics for the order-2R vector recurrence at fixed energy.

The recurrence  V_E psi_n + sum_r (B_r psi_{n-r} + A_r psi_{n+r}) = 0  is
advanced one cell to the right by the pencil A - lambda B of
recurrence_pencil, which any symbol has; when A_R is invertible, B^-1 A is
the (2R d_V)-dimensional block companion matrix.  Its eigenvalues split the
initial-data space into decaying (|lambda| < 1), oscillating (|lambda| = 1)
and growing (|lambda| > 1) sectors; bases for the sectors come from ordered
Schur forms so that defective eigenvalues stay well-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    BorderlineEigenvalue,
    GapNotCertified,
    SingularLeadingHop,
    SingularRightHop,
    ZeroMode,
)
from .models import MatrixLoop, ModelParams, numerically_singular


@dataclass(frozen=True, eq=False)
class CompanionMatrix:
    energy: complex
    matrix: np.ndarray  # (2R d_V, 2R d_V)
    model: ModelParams

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _check_leading_hop(model: ModelParams, tol: Tolerances) -> np.ndarray:
    a_r = model.right_hops[-1]
    if numerically_singular(a_r, tol):
        raise SingularLeadingHop(
            f"leading right hop has condition number above {tol.singular_cond:.1e}; "
            "use the truncated half-space route instead"
        )
    return a_r


def recurrence_pencil(symbol: MatrixLoop) -> tuple[np.ndarray, np.ndarray]:
    """Pencil (A, B) advancing sum_j c_j psi_{n+j} = 0 one cell; c_j are the symbol's planes -R..R.

    B = diag(I, ..., I, c_R); A has identity blocks on the superdiagonal and
    last block row -c_{-R} .. -c_{R-1}.  A singular c_R gives infinite
    eigenvalues, a singular c_{-R} zero ones.
    """
    q = symbol.size
    n = (symbol.coeffs.shape[0] - 1) * q
    a = np.zeros((n, n), dtype=complex)
    a[: n - q, q:] = np.eye(n - q)
    a[n - q :] = -np.concatenate(symbol.coeffs[:-1], axis=1)
    b = np.eye(n, dtype=complex)
    b[n - q :, n - q :] = symbol.coeffs[-1]
    return a, b


def decaying_sector(symbol: MatrixLoop, tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray, float]:
    """Count k of recurrence_pencil(symbol)'s eigenvalues inside the unit circle, its QZ basis Z, and its decay.

    The finite eigenvalues are the roots of lambda^(R q) det symbol, so k - R q
    is its winding; the ordered QZ puts the decaying initial data in Z[:, :k].
    The adjoint loop's roots are 1/conj(lambda), so the slowest decay of both
    loops' zero modes is the largest min(|lambda|, 1/|lambda|), 0 when there
    are none.  A singular pencil (det symbol = 0: a QZ pair with |alpha|,
    |beta| <= tol.structural times its norm) raises GapNotCertified, a root
    within tol.circle_band of the circle BorderlineEigenvalue.
    """
    a, b = recurrence_pencil(symbol)
    _, _, alpha, beta, _, z = scipy.linalg.ordqz(a, b, sort="iuc", output="complex")
    floor = tol.structural * np.hypot(np.linalg.norm(a), np.linalg.norm(b))
    if np.any((np.abs(alpha) <= floor) & (np.abs(beta) <= floor)):
        raise GapNotCertified("the symbol's determinant vanishes identically: its recurrence pencil is singular")
    finite = beta != 0
    lams = alpha[finite] / beta[finite]
    off = np.abs(np.abs(lams) - 1.0)
    if np.any(off <= tol.circle_band):
        raise BorderlineEigenvalue(
            f"eigenvalue {lams[np.argmin(off)]:.6g} has modulus within "
            f"{tol.circle_band:.1e} of the unit circle"
        )
    inside = np.abs(lams) < 1.0
    decay = np.abs(np.concatenate([lams[inside], 1.0 / lams[~inside]])).max(initial=0.0)
    return int(inside.sum()), z, float(decay)


def build_companion(model: ModelParams, energy: complex, tol: Tolerances = DEFAULT_TOL) -> CompanionMatrix:
    """B^-1 A of the recurrence pencil of H - E: advances 2R stacked cells one step right."""
    a_r = _check_leading_hop(model, tol)
    d = model.dim_v
    planes = model.symbol().coeffs.copy()
    planes[model.hop_range] -= complex(energy) * np.eye(d)
    c, _ = recurrence_pencil(MatrixLoop(-model.hop_range, planes))
    # B^-1 A: the last block row times inv(A_R), block by block.
    inv_a = np.linalg.inv(a_r)
    for col in range(0, c.shape[0], d):
        c[-d:, col : col + d] = inv_a @ c[-d:, col : col + d]
    return CompanionMatrix(energy=complex(energy), matrix=c, model=model)


def char_poly_residual(
    model: ModelParams,
    energy: complex,
    probe_lambdas,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Largest relative mismatch between det(lambda - C_E) and the momentum-space determinant.

    Both sides are evaluated independently: the left on the assembled companion
    matrix, the right as lambda^(R d_V) det(H(lambda) - E) / det(A_R).
    """
    cm = build_companion(model, energy, tol)
    d, big_r = model.dim_v, model.hop_range
    det_a = np.linalg.det(model.right_hops[-1])
    eye = np.eye(cm.size)
    symbol = model.symbol()
    worst = 0.0
    for lam in probe_lambdas:
        lam = complex(lam)
        lhs = np.linalg.det(lam * eye - cm.matrix)
        rhs = lam ** (big_r * d) * np.linalg.det(symbol(lam) - complex(energy) * np.eye(d)) / det_a
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def cluster_eigenvalues(eigs: np.ndarray, rel_tol: float):
    """Single-linkage clustering of eigenvalues; returns [(center, multiplicity), ...].

    Two eigenvalues join a cluster when their distance is below
    rel_tol * max(1, |lambda_i|, |lambda_j|).  Output is sorted by (Re, Im)
    of the cluster centers for determinism.
    """
    eigs = np.asarray(eigs, dtype=complex)
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            thresh = rel_tol * max(1.0, abs(eigs[i]), abs(eigs[j]))
            if abs(eigs[i] - eigs[j]) <= thresh:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(eigs[idx])), len(idx)) for idx in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


@dataclass(frozen=True, eq=False)
class CompanionSplit:
    """Eigenvalue clusters and orthonormal bases of the three dynamical sectors."""

    eigenvalues: tuple   # ((lambda, multiplicity), ...)
    basis_down: np.ndarray
    basis_bloch: np.ndarray
    basis_up: np.ndarray

    @property
    def dims(self):
        return (self.basis_down.shape[1], self.basis_bloch.shape[1], self.basis_up.shape[1])


def _schur_sector_basis(matrix: np.ndarray, predicate) -> np.ndarray:
    t, z, sdim = scipy.linalg.schur(matrix, output="complex", sort=predicate)
    return z[:, :sdim]


def spectral_split(cm: CompanionMatrix, tol: Tolerances = DEFAULT_TOL) -> CompanionSplit:
    """Split the initial-data space into decrease / unit-circle / increase sectors.

    Eigenvalues within tol.circle_band of the unit circle are classified as
    oscillating; integer counts come from decaying_sector, which refuses them.
    """
    rho = tol.circle_band
    eigs = np.linalg.eigvals(cm.matrix)
    basis_down = _schur_sector_basis(cm.matrix, lambda lam: abs(lam) < 1.0 - rho)
    basis_bloch = _schur_sector_basis(cm.matrix, lambda lam: abs(abs(lam) - 1.0) <= rho)
    basis_up = _schur_sector_basis(cm.matrix, lambda lam: abs(lam) > 1.0 + rho)
    clusters = cluster_eigenvalues(eigs, tol.cluster)
    return CompanionSplit(
        eigenvalues=tuple(clusters),
        basis_down=basis_down,
        basis_bloch=basis_bloch,
        basis_up=basis_up,
    )


def duality_check(split: CompanionSplit) -> bool:
    """True iff the eigenvalue multiset is invariant under lambda -> conj(1/lambda).

    The symmetry holds for self-adjoint models at real energies.  Clusters are
    matched pairwise within relative distance 1e-6 (a cluster on the unit
    circle may be its own partner); multiplicities of partners must agree
    exactly.
    """
    items = list(split.eigenvalues)
    unmatched = set(range(len(items)))
    while unmatched:
        i = min(unmatched)
        lam, mult = items[i]
        target = np.conj(1.0 / lam)
        best = None
        for j in unmatched:
            mu, m_j = items[j]
            dist = abs(mu - target) / max(1.0, abs(mu), abs(target))
            if dist <= 1e-6 and m_j == mult and (best is None or dist < best[0]):
                best = (dist, j)
        if best is None:
            return False
        unmatched.discard(i)
        unmatched.discard(best[1])
    return True


@dataclass(frozen=True, eq=False)
class LatticeMode:
    """A finite window of an energy-E solution together with its sector label."""

    energy: complex
    first_cell: int
    window: np.ndarray  # (L, d_V)
    classification: str
    max_residual: float
    hop_range: int

    @property
    def last_cell(self) -> int:
        return self.first_cell + self.window.shape[0] - 1

    def cell_norms(self) -> np.ndarray:
        return np.linalg.norm(self.window, axis=1)


def _classify_initial(split: CompanionSplit, initial: np.ndarray) -> str:
    basis = np.hstack([split.basis_down, split.basis_bloch, split.basis_up])
    coeffs, *_ = np.linalg.lstsq(basis, initial, rcond=None)
    d0, d1, _ = split.dims
    norms = {
        "decrease": np.linalg.norm(coeffs[:d0]),
        "bloch": np.linalg.norm(coeffs[d0 : d0 + d1]),
        "increase": np.linalg.norm(coeffs[d0 + d1 :]),
    }
    total = np.linalg.norm(initial)
    present = [name for name, v in norms.items() if v > 1e-9 * max(1.0, total)]
    if len(present) == 1:
        return present[0]
    return "mixed"


def _recurrence_residual(model: ModelParams, energy: complex, window: np.ndarray) -> float:
    d, big_r = model.dim_v, model.hop_range
    length = window.shape[0]
    v_e = model.on_site - complex(energy) * np.eye(d)
    worst = 0.0
    scale = model.norm_scale * max(1.0, float(np.abs(window).max(initial=0.0)))
    for m in range(big_r, length - big_r):
        acc = v_e @ window[m]
        for r in range(1, big_r + 1):
            acc = acc + model.left_hops[r - 1] @ window[m - r] + model.right_hops[r - 1] @ window[m + r]
        worst = max(worst, float(np.linalg.norm(acc)) / scale)
    return worst


def propagate(
    cm: CompanionMatrix,
    initial,
    steps: int,
    first_cell: int = 1,
    back_steps: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> LatticeMode:
    """Iterate the companion matrix on stacked initial data and unstack the cells.

    The initial vector holds cells first_cell .. first_cell + 2R - 1; `steps`
    new cells are appended to the right, and `back_steps` to the left when
    B_R is invertible.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    model = cm.model
    d, big_r = model.dim_v, model.hop_range
    initial = np.asarray(initial, dtype=complex).reshape(2 * big_r * d)
    cells = [initial[b * d : (b + 1) * d] for b in range(2 * big_r)]

    state = initial
    for _ in range(steps):
        state = cm.matrix @ state
        cells.append(state[-d:].copy())
    start = first_cell
    if back_steps:
        if numerically_singular(model.left_hops[-1], tol):
            raise SingularRightHop("leading left hop is singular; cannot propagate leftward")
        state = initial
        head = []
        for _ in range(back_steps):
            state = np.linalg.solve(cm.matrix, state)
            head.append(state[:d].copy())
        cells = head[::-1] + cells
        start -= back_steps

    window = np.vstack(cells)
    split = spectral_split(cm, tol)
    label = _classify_initial(split, initial)
    residual = _recurrence_residual(model, cm.energy, window)
    return LatticeMode(
        energy=cm.energy,
        first_cell=start,
        window=window,
        classification=label,
        max_residual=residual,
        hop_range=big_r,
    )


def decay_rate(mode: LatticeMode, tol: Tolerances = DEFAULT_TOL) -> float:
    """Per-cell geometric decay rate of a mode, discarding polynomial prefactors.

    Fits log ||psi_n|| against (1, log n, n); the coefficient of n gives the
    rate.  Cells with numerically zero norm are dropped.
    """
    norms = mode.cell_norms()
    if norms.shape[0] < 4 * mode.hop_range:
        raise ValueError("window too short for a rate fit; need at least 4R cells")
    if np.all(norms < tol.identity):
        raise ZeroMode("all window entries are numerically zero")
    ns = np.arange(mode.first_cell, mode.last_cell + 1)
    keep = norms > 1e-14 * norms.max()
    ns, norms = ns[keep], norms[keep]
    if ns.min() < 1:
        # The log-n regressor needs positive indices; a constant shift only
        # perturbs the polynomial factor, not the geometric rate.
        ns = ns + (1 - ns.min())
    x = ns.astype(float)
    design = np.column_stack([np.ones_like(x), np.log(x), x])
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    return float(np.exp(coef[2]))
