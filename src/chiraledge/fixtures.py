"""Built-in graded models: the dimerized limits, the two-parameter hopping chain,
and a one-parameter family whose zero-energy companion matrix is defective (its
edge state is polynomial-exponential, not a pure exponential)."""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .models import ChiralModel, MatrixLoop, build_model, chiral_split, parse_fields, parse_number

_GRADING = np.array([1, -1])


def _two_band(on_site, hop) -> ChiralModel:
    return chiral_split(build_model(2, 1, on_site, [hop]), _GRADING)


def _ssh_planes(t1, t2):
    """On-site and hop matrices (..., 2, 2) of the alternating-bond chain over parameters of one shape."""
    on_site = np.zeros(np.shape(t1) + (2, 2), dtype=complex)
    hop = np.zeros_like(on_site)
    on_site[..., 0, 1] = on_site[..., 1, 0] = t1
    hop[..., 1, 0] = t2
    return on_site, hop


def _defective_planes(theta, scale):
    """On-site and hop matrices (..., 2, 2) of the defective family over parameters of one shape."""
    on_site = np.asarray(scale)[..., None, None] * np.array([[0, 1], [1, 0]], dtype=complex)
    hop = (scale * np.exp(1j * theta))[..., None, None] * np.array([[0, 0.25], [1, 0]], dtype=complex)
    return on_site, hop


def dimerized_plus() -> ChiralModel:
    """Pure adjacent-cell hop; one compactly-supported zero mode at the left edge."""
    return _two_band(np.zeros((2, 2)), [[0, 0], [1, 0]])


def dimerized_minus() -> ChiralModel:
    """Graded roles swapped; the zero mode lives in the other sector."""
    return _two_band(np.zeros((2, 2)), [[0, 1], [0, 0]])


def dimerized_trivial() -> ChiralModel:
    """On-site pairing only; no edge states."""
    return _two_band([[0, 1], [1, 0]], np.zeros((2, 2)))


def ssh(t1: float = 1.0, t2: float = 2.0) -> ChiralModel:
    """Alternating-bond chain: winding 1 iff |t2| > |t1|."""
    return _two_band(*_ssh_planes(t1, t2))


def defective(theta: float = 0.0, scale: float = 1.0) -> ChiralModel:
    """Family whose zero-energy companion matrix has a repeated, defective eigenvalue.

    The lower-left symbol is 1 + exp(-i theta)/(4 lambda) + exp(i theta) lambda;
    winding is +1 for every theta, with a single edge state that is not a
    combination of exponentials.
    """
    return _two_band(*_defective_planes(theta, scale))


_BUILDERS = {
    "dimerized-plus": (dimerized_plus, ()),
    "dimerized-minus": (dimerized_minus, ()),
    "dimerized-trivial": (dimerized_trivial, ()),
    "ssh": (ssh, ("t1", "t2")),
    "defective": (defective, ("theta", "scale")),
}
_ALIASES = {"appendixB": "defective"}

FIXTURE_NAMES = sorted(_BUILDERS) + sorted(_ALIASES)


def fixture(spec: str) -> ChiralModel:
    """Build a fixture from 'name' or 'name:key=value,key=value'."""
    name, _, params = spec.partition(":")
    name = _ALIASES.get(name, name)
    if name not in _BUILDERS:
        raise ParseError(f"unknown fixture {spec!r}; available: {', '.join(FIXTURE_NAMES)}")
    builder, allowed = _BUILDERS[name]
    fields = parse_fields(params, allowed, f"fixture {name!r}") if params else {}
    return builder(**{key: parse_number(value, f"fixture parameter {key}") for key, value in fields.items()})


# Two-parameter families for the phase-diagram sweep: the fixtures with parameters.
FAMILIES = {name: entry for name, entry in _BUILDERS.items() if entry[1]}
FAMILIES.update({alias: FAMILIES[name] for alias, name in _ALIASES.items()})
_PLANES = {"ssh": _ssh_planes, "defective": _defective_planes}


def family_h_pm(family: str, **params) -> MatrixLoop:
    """h_pm of a family over arrays of its parameters: one MatrixLoop with a leading stack axis.

    Loop i is the fixture's symbol("pm") at cell i, bit for bit but for the sign of a zero where a
    product underflows: powers -1, 0 and 1 hold conj(hop[0, 1]), on_site[1, 0] and hop[1, 0].  The
    formulas are self-adjoint and chiral for real parameters, so no build check is needed.
    """
    on_site, hop = _PLANES[_ALIASES.get(family, family)](**params)
    return MatrixLoop(-1, np.stack([hop[..., 0, 1].conj(), on_site[..., 1, 0], hop[..., 1, 0]], -1)[..., None, None])
