"""Test oracle: det h as a polynomial by evaluation-interpolation, and its roots.

The package counts the roots of lambda^(R q) det h_pm from its recurrence
pencil (companion.decaying_sector).  This least-squares fit plus np.roots is a
different method, kept here to check that count.
"""

import numpy as np

from chiraledge.errors import NonConvergent, UnbalancedGrading
from chiraledge.models import ChiralModel

# Required relative residual of the fit.
INTERP_RESIDUAL = 1e-9
# Relative floor below which polynomial coefficients are trimmed.
COEFF_TRIM = 1e-10


def block_det_poly_coeffs(cm: ChiralModel, which: str = "pm") -> np.ndarray:
    """Ascending coefficients of p(lambda) = lambda^(R q) det block(lambda).

    Recovered by least squares on 4 R q + 1 roots of unity; the fit is
    overdetermined and must reproduce the samples to INTERP_RESIDUAL.
    """
    if not cm.balanced:
        raise UnbalancedGrading("determinant polynomial needs a square block")
    q = cm.dim_plus
    big_r = cm.hop_range
    degree = 2 * big_r * q
    m = 4 * big_r * q + 1
    omegas = np.exp(2j * np.pi * np.arange(m) / m)
    ys = omegas ** (big_r * q) * cm.symbol(which).det_fn()(omegas)
    vand = omegas[:, None] ** np.arange(degree + 1)[None, :]
    coeffs, *_ = np.linalg.lstsq(vand, ys, rcond=None)
    residual = np.linalg.norm(vand @ coeffs - ys) / max(1.0, float(np.linalg.norm(ys)))
    if residual > INTERP_RESIDUAL:
        raise NonConvergent(f"evaluation-interpolation residual {residual:.3e} too large")
    return coeffs


def _deflate(coeffs: np.ndarray, rel_tol: float) -> np.ndarray:
    """Trim numerically-zero leading coefficients (singular leading hop blocks)
    and zero the low-order ones, so that np.roots puts their roots at exactly 0
    rather than on a ring of fit noise of radius about eps^(1/k).
    """
    mags = np.abs(coeffs)
    floor = rel_tol * float(mags.max())
    top = len(coeffs)
    while top > 1 and mags[top - 1] <= floor:
        top -= 1
    low = 0
    while low < top - 1 and mags[low] <= floor:
        low += 1
    out = coeffs[:top].copy()
    out[:low] = 0.0
    return out


def block_det_poly_roots(cm: ChiralModel, which: str = "pm") -> np.ndarray:
    coeffs = _deflate(block_det_poly_coeffs(cm, which), COEFF_TRIM)
    if len(coeffs) == 1:
        return np.array([], dtype=complex)
    return np.roots(coeffs[::-1])
