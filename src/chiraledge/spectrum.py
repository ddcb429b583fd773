"""Band structure over the Brillouin zone and Lipschitz-certified gap detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NUM_K_CAP, NUM_K_DEFAULT
from .errors import GapNotCertified, NotSelfAdjoint
from .models import ChiralModel, ModelParams, least_singular_value, momenta, unit_circle


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Sampled energy bands: ks (K,), energies (K, d_V) sorted ascending per row."""

    ks: np.ndarray
    energies: np.ndarray
    lipschitz_bound: float

    @property
    def num_k(self) -> int:
        return len(self.ks)

    @property
    def delta_k(self) -> float:
        return 2.0 * np.pi / self.num_k


@dataclass(frozen=True)
class GapReport:
    gapped: bool
    gap_index: int | None
    e_minus: float
    e_plus: float
    certificate_margin: float


def band_structure(model: ModelParams, num_k: int = NUM_K_DEFAULT) -> BandStructure:
    """Eigenvalues of H(e^{ik}) on the k grid models.momenta(num_k)."""
    if not model.self_adjoint:
        raise NotSelfAdjoint("band structure requires a self-adjoint model")
    if num_k < 8:
        raise ValueError(f"num_k must be at least 8, got {num_k}")
    symbol = model.symbol()
    energies = np.linalg.eigvalsh(symbol.eval_many(unit_circle(num_k)))
    return BandStructure(ks=momenta(num_k), energies=energies, lipschitz_bound=symbol.lipschitz_bound())


def detect_gap(bands: BandStructure, around_energy: float | None = None) -> GapReport:
    """Find a band gap certified against sampling error via the Lipschitz bound.

    A gap between consecutive bands j, j+1 is certified when the sampled band
    edges, corrected by L*dk/2 on each side, still leave an open interval.
    Uncertified but plausible gaps come back with gapped=False and a negative
    certificate margin.  When around_energy is given only gaps containing it
    are eligible.
    """
    lo = bands.energies.max(axis=0)   # sampled sup of each band
    hi = bands.energies.min(axis=0)   # sampled inf of each band
    correction = bands.lipschitz_bound * bands.delta_k
    d = bands.energies.shape[1]
    candidates = []
    for j in range(d - 1):
        e_minus, e_plus = float(lo[j]), float(hi[j + 1])
        if around_energy is not None and not (e_minus < around_energy < e_plus):
            continue
        candidates.append((e_plus - e_minus - correction, e_plus - e_minus, j, e_minus, e_plus))
    if not candidates:
        return GapReport(False, None, float("nan"), float("nan"), float("-inf"))
    certified = [c for c in candidates if c[0] > 0]
    if certified:
        margin, _, j, e_minus, e_plus = max(certified, key=lambda c: c[1])
        return GapReport(True, j, e_minus, e_plus, margin)
    margin, _, j, e_minus, e_plus = max(candidates, key=lambda c: c[0])
    return GapReport(False, j, e_minus, e_plus, margin)


def certified_gap(model: ModelParams, around_energy: float | None = None) -> GapReport:
    """detect_gap with the k grid doubled from NUM_K_DEFAULT up to NUM_K_CAP; raises if never certified."""
    report = None
    n = NUM_K_DEFAULT
    while n <= NUM_K_CAP:
        report = detect_gap(band_structure(model, n), around_energy)
        if report.gapped:
            return report
        # A negative sampled width cannot be rescued by refinement.
        if report.gap_index is None or report.e_plus - report.e_minus <= 0:
            break
        n *= 2
    raise GapNotCertified(
        f"no certified gap around {around_energy!r}; best margin "
        f"{report.certificate_margin if report else float('-inf'):.3e}"
    )


def chiral_gap(cm: ChiralModel) -> GapReport:
    """The zero-energy gap of a balanced chiral model, certified from h_pm alone.

    H(e^{ik}) has the spectrum +-sigma(h_pm(e^{ik})), so the gap around 0 is
    (-sigma_min, sigma_min) and h_pm's MatrixLoop.min_singular_bound
    certifies it; h_pm's Lipschitz constant never exceeds H's.  The k grid
    doubles from NUM_K_DEFAULT up to NUM_K_CAP until the bound is positive.
    e_minus and e_plus are -+ the sampled sigma_min of the last grid and
    certificate_margin is twice the bound, so gapped is False when it is not
    positive, as in detect_gap.  Refinement stops early when the sampled
    sigma_min is at most lipschitz * pi / NUM_K_CAP: a finer grid holds these
    samples, so its bound cannot be positive.
    """
    h_pm = cm.symbol("pm")
    n = NUM_K_DEFAULT
    while True:
        sampled, bound = h_pm.min_singular_bound(n)
        if bound > 0 or n >= NUM_K_CAP or sampled <= h_pm.lipschitz_bound() * np.pi / NUM_K_CAP:
            return GapReport(bound > 0, cm.dim_plus - 1, -sampled, sampled, 2.0 * bound)
        n *= 2


def chiral_gap_margin(cm: ChiralModel) -> float:
    """Smallest singular value of h_pm(e^{ik}) over the NUM_K_DEFAULT sampled momenta.

    A sampled minimum: a positive value certifies nothing, since sigma_min may
    dip to 0 between samples.  chiral_gap(cm) certifies the zero-energy gap
    against the sampling error.
    """
    return least_singular_value(cm.symbol("pm").eval_many(unit_circle(NUM_K_DEFAULT)))
