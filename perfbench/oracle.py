"""Answers computed apart from chiraledge, and the checks that compare against them.

The winding of det h_pm is found here from the finite generalized eigenvalues
of a block-companion linearization of the polynomial p(lambda) = lambda^R h_pm:
W = #{finite eigenvalues inside the unit disk} - R q.  The QZ pencil is a
different method from both in chiraledge.winding (phase unwrapping, and root
finding on an interpolated determinant polynomial).  Only numpy and scipy are
used, never the package under test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

KERNEL_TOL = 1e-7  # the package's default relative kernel threshold
CELLS_MIN = 64  # the package's smallest automatic truncation


class Tally:
    """Operations attempted, failed (refused or wrong), and wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error = None

    def record(self, problems: list, refused: bool = False) -> None:
        self.attempted += 1
        if problems or refused:
            self.failed += 1
        if problems and not refused:
            self.wrong += 1
        if (problems or refused) and self.first_error is None:
            self.first_error = "; ".join(problems) if problems else "refused"


def symbol_planes(v_block, a_pm, a_mp) -> np.ndarray:
    """Coefficients P_0..P_2R of p(lambda) = lambda^R h_pm(lambda), ascending."""
    big_r = a_pm.shape[0]
    q = v_block.shape[0]
    planes = np.zeros((2 * big_r + 1, q, q), dtype=complex)
    planes[big_r] = v_block
    for r in range(1, big_r + 1):
        planes[big_r + r] = a_pm[r - 1]
        planes[big_r - r] = np.conj(a_mp[r - 1]).T
    return planes


def pencil_eigenvalues(planes: np.ndarray):
    """Homogeneous eigenvalues (alpha, beta) of the companion pencil A - lambda B."""
    deg = planes.shape[0] - 1
    q = planes.shape[1]
    n = deg * q
    a = np.zeros((n, n), dtype=complex)
    b = np.eye(n, dtype=complex)
    for k in range(deg - 1):
        a[k * q : (k + 1) * q, (k + 1) * q : (k + 2) * q] = np.eye(q)
    for j in range(deg):
        a[(deg - 1) * q :, j * q : (j + 1) * q] = -planes[j]
    b[(deg - 1) * q :, (deg - 1) * q :] = planes[deg]
    alpha, beta = scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    return np.abs(alpha), np.abs(beta)


class SymbolFacts:
    """Winding and slowest decay of a block symbol, from its pencil eigenvalues."""

    def __init__(self, v_block, a_pm, a_mp):
        planes = symbol_planes(v_block, a_pm, a_mp)
        big_r = a_pm.shape[0]
        q = v_block.shape[0]
        alpha, beta = pencil_eigenvalues(planes)
        scale = np.maximum(alpha, beta)
        if np.any(scale <= 1e-13 * max(float(scale.max()), 1e-300)):
            raise ValueError("singular pencil: det p vanishes identically")
        if np.any(np.abs(alpha - beta) <= 1e-8 * scale):
            raise ValueError("a root of det h_pm sits on the unit circle")
        self.winding = int(np.sum(alpha < beta)) - big_r * q
        # Roots of det h_mp are 1/conj of those of det h_pm, so the slowest
        # decaying zero-energy solution has rate max(min(|r|, 1/|r|)).
        finite = (alpha > 0) & (beta > 0)
        rates = np.minimum(alpha[finite] / beta[finite], beta[finite] / alpha[finite])
        self.decay = float(rates.max()) if len(rates) else 0.0
        self.hop_range = big_r
        self.natural_range = natural_range(planes, big_r)

    def predicted_cells(self) -> int:
        """Truncation the automatic route aims for: decay below the kernel threshold."""
        if self.decay <= 1e-12:
            return CELLS_MIN
        n = math.ceil(math.log(KERNEL_TOL) / math.log(self.decay)) + 8 * self.hop_range
        return max(CELLS_MIN, n)


def facts_of(cm) -> SymbolFacts:
    return SymbolFacts(np.asarray(cm.v_block), np.asarray(cm.a_pm), np.asarray(cm.a_mp))


def singular_leading_hop(cm) -> bool:
    """True when the leading hop block A_pm,R is rank deficient (the generator zeroes a column)."""
    sv = np.linalg.svd(np.asarray(cm.a_pm)[-1], compute_uv=False)
    return bool(sv[-1] <= 1e-12 * max(float(sv[0]), 1e-300))


def natural_range(planes: np.ndarray, big_r: int) -> int:
    """Largest |power| of lambda in h_pm with a plane above 1e-12 of the largest."""
    mags = np.array([np.abs(p).max() for p in planes])
    nz = np.flatnonzero(mags > 1e-12 * max(float(mags.max()), 1e-300))
    if len(nz) == 0:
        return 0
    powers = nz - big_r
    return int(max(0, -powers.min(), powers.max()))


# --- per-workload checks: each returns a list of problems (empty when right) --


def check_bec(case, expected_w: int, dim_v: int) -> list:
    problems = []
    failed = sorted(name for name, v in case.verdicts.items() if v.status == "fail")
    if failed:
        problems.append(f"verdicts failed: {failed}")
    if case.winding.winding != expected_w:
        problems.append(f"winding {case.winding.winding} != independent {expected_w}")
    if case.edge.edge_index != expected_w:
        problems.append(f"edge index {case.edge.edge_index} != independent {expected_w}")
    if dim_v == 2:
        want = (max(0, expected_w), max(0, -expected_w))
        got = (case.edge.dim_ker_pm, case.edge.dim_ker_mp)
        if got != want:
            problems.append(f"two-band kernel dims {got} != {want}")
    return problems


def check_deformation(path, expected_w: int, nat_range: int, q: int) -> list:
    problems = []
    if not path.certificates or min(path.certificates) <= 0:
        problems.append("a stage certificate is not above 0")
    if any(w != expected_w for w in path.winding_per_stage):
        problems.append(f"stage windings {sorted(set(path.winding_per_stage))} != {expected_w}")
    n_lam, n_inv, _ = path.notes["counts"]
    want = (expected_w + nat_range * q, nat_range * q)
    if (n_lam, n_inv) != want:
        problems.append(f"endpoint counts {(n_lam, n_inv)} != {want}")
    if path.notes["endpoint_edge_index"] != expected_w:
        problems.append(f"endpoint edge index {path.notes['endpoint_edge_index']} != {expected_w}")
    return problems


def ssh_expected(t1: float, t2: float):
    """(index, analytic zero-energy gap) of the alternating-bond chain."""
    return (1 if abs(t2) > abs(t1) else 0), abs(abs(t1) - abs(t2))


def defective_expected(theta: float, scale: float):
    """h_pm = scale (z + 1/2)^2 / z with z = e^{i theta} lambda: index 1, gap scale/4."""
    return 1, abs(scale) / 4.0


def check_cell(row: list, want_p1: float, want_p2: float, expected) -> list:
    """One phase-diagram CSV row [p1, p2, winding, edge_index, gap_margin]."""
    problems = []
    p1, p2 = float(row[0]), float(row[1])
    if abs(p1 - want_p1) > 1e-9 * max(1.0, abs(want_p1)) or abs(p2 - want_p2) > 1e-9 * max(1.0, abs(want_p2)):
        return [f"cell ({row[0]}, {row[1]}) is not grid point ({want_p1}, {want_p2})"]
    index, gap = expected(p1, p2)
    margin = float(row[4])
    # The sampled minimum over the circle can only overestimate the true one.
    if margin < gap * (1.0 - 1e-9) - 1e-12:
        problems.append(f"gap margin {margin} below the analytic gap {gap}")
    if row[2] == "" and row[3] == "":
        if gap >= 1e-9:
            problems.append(f"empty cell at ({p1}, {p2}) with analytic gap {gap:.3e}")
        return problems
    if row[2] != str(index) or row[3] != str(index):
        problems.append(f"cell ({p1}, {p2}): winding {row[2]!r}, edge {row[3]!r}, expected {index}")
    return problems
