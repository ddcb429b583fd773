"""Theorem-level checks: index equality, the two-band strong form, in-gap
exclusion, and the seeded random ensembles they run over.

A check only reports pass/fail when its hypotheses hold; otherwise it is
skipped with a reason.  Every verdict carries the numbers it was decided on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import DEFAULT_TOL, SINGULAR_DRAW_FRACTION, Tolerances
from .errors import ExhaustedRedraws, GapNotCertified
from .halfspace import (
    EdgeReport,
    decay_min_cells,
    decay_scale_estimate,
    edge_modes_companion,
    edge_modes_truncated,
    in_gap_scan,
    in_gap_window,
)
from .models import ChiralModel, build_model, chiral_split, numerically_singular
# certified_gap is unused here but stays importable: perfbench/spans.py wraps it.
from .spectrum import GapReport, certified_gap, chiral_gap, chiral_gap_margin
from .winding import WindingResult, cross_checked, winding_phase


# Largest truncation verify_gap_exclusion diagonalizes densely.  Over 50
# seeded R = 1, dim_v = 2 models of each of seeds 1-21 the largest decay
# minimum was 767 cells, whose dense eigh took 3.4 s on one core of a
# 2-vCPU VM.
GAP_EXCLUSION_CELLS_MAX = 1024


@dataclass
class Verdict:
    status: str  # pass | fail | skip
    details: dict = field(default_factory=dict)


@dataclass(eq=False)
class VerificationCase:
    model: ChiralModel
    winding: WindingResult | None
    edge: EdgeReport | None
    gap: GapReport | None
    verdicts: dict

    @property
    def passed(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts.values())


def case_to_dict(case: VerificationCase) -> dict:
    out = {
        "passed": case.passed,
        "verdicts": {
            name: {"status": v.status, **v.details} for name, v in sorted(case.verdicts.items())
        },
    }
    if case.gap is not None:
        out["gap"] = asdict(case.gap)
    if case.winding is not None:
        out["winding"] = asdict(case.winding)
    if case.edge is not None:
        edge = case.edge.to_dict()
        keys = ("dim_ker_pm", "dim_ker_mp", "edge_index", "method", "truncation_cells", "singular_values_near_zero")
        out["edge"] = {k: edge[k] for k in keys}
    return out


def _zero_energy_gap(cm: ChiralModel) -> GapReport:
    """chiral_gap(cm), refused (GapNotCertified) when it does not certify."""
    gap = chiral_gap(cm)
    if not gap.gapped:
        raise GapNotCertified(f"no certified gap around 0.0; best margin {gap.certificate_margin:.3e}")
    return gap


def verify_bec(cm: ChiralModel, cells: int | None = None, tol: Tolerances = DEFAULT_TOL) -> VerificationCase:
    """Index equality between the bulk winding and the half-space edge index.

    The truncated route provides the edge side and the companion route must
    agree, singular leading hops included; the counting inequalities bound the
    kernel dimensions by the graded decaying dimensions.  The zero-energy gap
    is certified from h_pm (chiral_gap) first, and an uncertified gap raises
    GapNotCertified before anything is wound.  The root count that the phase
    winding is cross_checked against is the companion route's decaying
    dimension of h_pm minus R q, so both read one QZ of h_pm.
    """
    gap = _zero_energy_gap(cm)
    phase = winding_phase(cm, tol=tol)
    edge_c = edge_modes_companion(cm, tol)
    winding = cross_checked(phase, edge_c.graded_decay_dims[0] - cm.hop_range * cm.dim_plus)
    edge = edge_modes_truncated(cm, cells=cells, tol=tol, gap=gap)

    verdicts = {}
    w = winding.winding
    verdicts["bec_equality"] = Verdict(
        "pass" if edge.edge_index == w else "fail",
        {"winding": w, "edge_index": edge.edge_index},
    )
    # cross_checked has already refused when the two methods disagree.
    verdicts["winding_methods"] = Verdict(
        "pass", {"method_phase": winding.method_phase, "method_roots": winding.method_roots}
    )
    verdicts["route_agreement"] = Verdict(
        "pass"
        if (edge_c.dim_ker_pm, edge_c.dim_ker_mp) == (edge.dim_ker_pm, edge.dim_ker_mp)
        else "fail",
        {
            "companion": (edge_c.dim_ker_pm, edge_c.dim_ker_mp),
            "truncated": (edge.dim_ker_pm, edge.dim_ker_mp),
        },
    )
    i_plus, i_minus = edge_c.graded_decay_dims
    ok = (
        max(0, w) <= edge.dim_ker_pm <= i_plus
        and max(0, -w) <= edge.dim_ker_mp <= i_minus
    )
    verdicts["sandwich"] = Verdict(
        "pass" if ok else "fail",
        {
            "dim_ker_pm": edge.dim_ker_pm,
            "dim_ker_mp": edge.dim_ker_mp,
            "decaying_dims": (i_plus, i_minus),
            "winding": w,
        },
    )
    return VerificationCase(model=cm, winding=winding, edge=edge, gap=gap, verdicts=verdicts)


def two_band_case(cm: ChiralModel, gap: GapReport, winding: WindingResult, edge: EdgeReport) -> VerificationCase:
    """Two-band strong form on an already computed gap, winding and edge count.

    For dim_v = 2 the kernel dimensions are (max(0, W), max(0, -W)) and |W| <= R.
    """
    w = winding.winding
    verdicts = {
        "winding_range": Verdict(
            "pass" if abs(w) <= cm.hop_range else "fail",
            {"winding": w, "hop_range": cm.hop_range},
        ),
        "kernel_dims": Verdict(
            "pass"
            if (edge.dim_ker_pm, edge.dim_ker_mp) == (max(0, w), max(0, -w))
            else "fail",
            {"dims": (edge.dim_ker_pm, edge.dim_ker_mp), "winding": w},
        ),
        "one_sided_kernels": Verdict(
            "pass" if edge.dim_ker_pm == 0 or edge.dim_ker_mp == 0 else "fail",
            {"dims": (edge.dim_ker_pm, edge.dim_ker_mp)},
        ),
    }
    return VerificationCase(model=cm, winding=winding, edge=edge, gap=gap, verdicts=verdicts)


def verify_gap_exclusion(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> VerificationCase:
    """Nearest-neighbour two-band models: in-gap spectrum is confined to zero energy.

    Truncation eigenvalues in the shrunken gap window, except those on the
    spurious right edge, must be zero up to the truncation splitting
    eps_N = max(10 q^N, 1e-12) times the coefficients' norm (norm_scale, at
    least 1), with q the slowest companion decay: the splitting scales with
    the hoppings.  N is the decay minimum of q (decay_min_cells), at least 100
    cells; a decay minimum above GAP_EXCLUSION_CELLS_MAX leaves N at 100.
    Left-localized and delocalized hits are checked alike: on a slowly
    decaying chain the two edge modes hybridize into a +-eps pair spread
    over both edges.  The check is skipped when eps_N is at least the
    window's half-width, since it would then exclude nothing.
    """
    if cm.hop_range != 1 or cm.dim_v != 2:
        reason = {"reason": f"hypotheses need R=1, dim_v=2; got R={cm.hop_range}, dim_v={cm.dim_v}"}
        return VerificationCase(
            model=cm, winding=None, edge=None, gap=None,
            verdicts={"zero_confinement": Verdict("skip", dict(reason))},
        )
    gap = _zero_energy_gap(cm)
    window = in_gap_window(gap)
    q = decay_scale_estimate(cm, tol)
    cells = max(100, decay_min_cells(q, 1, tol))
    if cells > GAP_EXCLUSION_CELLS_MAX:
        cells = 100
    eps_n = max(10.0 * q**cells, 1e-12) * cm.base.norm_scale
    half_width = 0.5 * (window[1] - window[0])
    if eps_n >= half_width:
        reason = f"truncation splitting eps_n {eps_n:.3e} reaches the window half-width {half_width:.3e}"
        verdict = Verdict("skip", {"reason": reason, "eps_n": eps_n, "cells": cells})
    else:
        hits = in_gap_scan(cm.base, cells, window, gap)
        checked = [h.energy for h in hits if h.side != "right"]
        offenders = [e for e in checked if abs(e) > eps_n]
        verdict = Verdict(
            "pass" if not offenders else "fail",
            {"eps_n": eps_n, "cells": cells, "checked_energies": checked, "offenders": offenders},
        )
    return VerificationCase(model=cm, winding=None, edge=None, gap=gap, verdicts={"zero_confinement": verdict})


@dataclass(frozen=True)
class EnsembleSpec:
    """The draws of random_chiral_ensemble; a field out of range raises ValueError."""

    seed: int
    count: int
    dim_v: int
    hop_range: int
    coefficient_scale: float = 1.0
    gap_floor: float = 0.05

    def __post_init__(self):
        # The draws' norms square the scale: it must neither overflow nor vanish.
        scale = self.coefficient_scale
        if (self.dim_v % 2 or self.dim_v < 2 or self.count < 0 or self.hop_range < 1 or self.seed < 0
                or not (scale > 0 and 0 < scale * scale < math.inf) or not self.gap_floor >= 0):
            raise ValueError("ensemble needs an even dim_v >= 2, count >= 0, hop_range >= 1, seed >= 0, gap_floor >= 0 "
                             f"and a coefficient_scale > 0 with a finite nonzero square, got {self}")


def random_chiral_ensemble(spec: EnsembleSpec, tol: Tolerances = DEFAULT_TOL) -> list:
    """Reproducible gapped graded models with complex-Gaussian blocks.

    Draws are redrawn until the sampled zero-energy gap margin
    (chiral_gap_margin, not certified) reaches the floor; verify_bec
    certifies each model's gap itself.  A fixed fraction of the models gets
    the last column of its leading lower-left hop block zeroed to exercise
    the singular route.
    """
    q = spec.dim_v // 2
    rng = np.random.default_rng(spec.seed)
    grading = np.array([1] * q + [-1] * q)

    def block():
        z = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        return spec.coefficient_scale * z / math.sqrt(2.0)

    models = []
    for index in range(spec.count):
        singular = bool(rng.random() < SINGULAR_DRAW_FRACTION)
        for _ in range(1000):
            v = block()
            a_pm = np.stack([block() for _ in range(spec.hop_range)])
            a_mp = np.stack([block() for _ in range(spec.hop_range)])
            if singular:
                a_pm[-1][:, -1] = 0.0
            d = spec.dim_v
            on_site = np.zeros((d, d), dtype=complex)
            on_site[q:, :q] = v
            on_site[:q, q:] = v.conj().T
            hops = np.zeros((spec.hop_range, d, d), dtype=complex)
            for r in range(spec.hop_range):
                hops[r, q:, :q] = a_pm[r]
                hops[r, :q, q:] = a_mp[r]
            cm = chiral_split(build_model(d, spec.hop_range, on_site, hops, tol=tol), grading, tol=tol)
            if chiral_gap_margin(cm) >= spec.gap_floor:
                models.append(cm)
                break
        else:
            raise ExhaustedRedraws(
                f"model {index}: gap floor {spec.gap_floor} unreachable at scale "
                f"{spec.coefficient_scale} after 1000 redraws"
            )
    return models


def has_singular_leading_hop(cm: ChiralModel, tol: Tolerances = DEFAULT_TOL) -> bool:
    return numerically_singular(cm.base.right_hops[-1], tol)
