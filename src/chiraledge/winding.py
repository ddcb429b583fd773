"""Integer winding of det h_pm around the origin, by two independent methods.

The primary method unwraps the phase of the determinant along the unit circle,
starting from the caller's samples on models.unit_circle and bisecting until
every increment is below pi/2, then checks the total is an integer multiple
of 2*pi.  The validator counts the roots of lambda^(R q) det h_pm inside the
unit disk as the eigenvalues there of h_pm's recurrence pencil
(companion.decaying_sector); the winding is that count minus R q.
cross_checked holds the two methods to one answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .companion import decaying_sector
from .config import DEFAULT_TOL, NUM_K_DEFAULT, WINDING_SAMPLE_CAP, Tolerances
from .errors import BorderlineEigenvalue, GapNotCertified, NonConvergent
from .models import ChiralModel, momenta, unit_circle


@dataclass(frozen=True)
class WindingResult:
    winding: int
    method_phase: int
    method_roots: int | None
    samples_used: int
    min_abs_det: float


def winding_of_curve(f, vals: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Winding number of k -> f(e^{ik}) around 0, from the caller's samples.

    `vals` is f(unit_circle(len(vals))), evaluated by the caller; `f` must
    accept an array of unit-circle points and return complex values, and is
    called only at the midpoints of the momenta(len(vals)) intervals whose
    phase increment reaches pi/2, bisected until all are safe.  Raises
    GapNotCertified when the curve comes within 1e-9 of the origin (relative
    to its largest magnitude) and NonConvergent at WINDING_SAMPLE_CAP samples
    or when the summed phase is not an integer multiple of 2*pi within
    tol.winding_integer.

    Returns (winding, samples_used, min_abs, max_abs).
    """
    vals = np.asarray(vals, dtype=complex)
    ks = momenta(len(vals))
    while True:
        mags = np.abs(vals)
        amax = float(mags.max())
        amin = float(mags.min())
        if amin <= 1e-9 * amax:
            raise GapNotCertified(
                f"determinant magnitude drops to {amin:.3e} (max {amax:.3e}) on the circle"
            )
        dphi = np.angle(np.roll(vals, -1) / vals)
        bad = np.abs(dphi) >= 0.5 * np.pi
        if not bad.any():
            break
        if len(ks) + int(bad.sum()) > WINDING_SAMPLE_CAP:
            raise NonConvergent(f"phase refinement exceeded {WINDING_SAMPLE_CAP} samples")
        k_next = np.roll(ks, -1)
        k_next[-1] += 2.0 * np.pi
        mids = 0.5 * (ks[bad] + k_next[bad])
        new_vals = np.asarray(f(np.exp(1j * mids)), dtype=complex)
        ks = np.concatenate([ks, mids])
        vals = np.concatenate([vals, new_vals])
        order = np.argsort(ks)
        ks, vals = ks[order], vals[order]
    total = float(dphi.sum())
    w = int(round(total / (2.0 * np.pi)))
    if abs(total - 2.0 * np.pi * w) > tol.winding_integer:
        raise NonConvergent(
            f"summed phase {total:.9f} is not an integer multiple of 2*pi within {tol.winding_integer}"
        )
    return w, len(ks), amin, amax


def winding_phase(cm: ChiralModel, initial_samples: int = NUM_K_DEFAULT, tol: Tolerances = DEFAULT_TOL) -> WindingResult:
    """Winding of det h_pm by adaptive phase unwrapping (primary method).

    The unwrap starts from det h_pm on unit_circle(initial_samples); raises
    ValueError below 8 samples.
    """
    if initial_samples < 8:
        raise ValueError(f"initial_samples must be at least 8, got {initial_samples}")
    det = cm.symbol("pm").det_fn()
    w, used, amin, _ = winding_of_curve(det, det(unit_circle(initial_samples)), tol)
    return WindingResult(
        winding=w, method_phase=w, method_roots=None, samples_used=used, min_abs_det=amin
    )


def winding_roots(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> int:
    """Winding of det h_pm by root counting (validator); refuses as companion.decaying_sector does."""
    inside, _, _ = decaying_sector(cm.symbol("pm"), tol)
    return inside - cm.hop_range * cm.dim_plus


def cross_checked(phase: WindingResult, roots: int | None) -> WindingResult:
    """The phase winding with its root count, None where the pencil refused.

    Raises NonConvergent when the two methods disagree: the phase unwrap can
    miss a root pair that lies between two samples.
    """
    if roots is not None and roots != phase.method_phase:
        raise NonConvergent(f"phase winding {phase.method_phase} disagrees with root counting {roots}")
    return replace(phase, method_roots=roots)


def full_winding(cm: ChiralModel, initial_samples: int = NUM_K_DEFAULT, tol: Tolerances = DEFAULT_TOL) -> WindingResult:
    """Phase-method winding cross_checked against winding_roots.

    The root count reads None when the pencil refuses (a singular pencil or a
    root within tol.circle_band of the circle).
    """
    phase = winding_phase(cm, initial_samples=initial_samples, tol=tol)
    try:
        roots = winding_roots(cm, tol)
    except (BorderlineEigenvalue, GapNotCertified):
        roots = None
    return cross_checked(phase, roots)
