"""Built-in graded models: the dimerized limits, the two-parameter hopping chain,
and a one-parameter family whose zero-energy companion matrix is defective (its
edge state is polynomial-exponential, not a pure exponential)."""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .models import ChiralModel, build_model, chiral_split, parse_fields, parse_number

_GRADING = np.array([1, -1])


def _two_band(on_site, hop) -> ChiralModel:
    model = build_model(2, 1, np.asarray(on_site, dtype=complex), [np.asarray(hop, dtype=complex)])
    return chiral_split(model, _GRADING)


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
    return _two_band([[0, t1], [t1, 0]], [[0, 0], [t2, 0]])


def defective(theta: float = 0.0, scale: float = 1.0) -> ChiralModel:
    """Family whose zero-energy companion matrix has a repeated, defective eigenvalue.

    The lower-left symbol is 1 + exp(-i theta)/(4 lambda) + exp(i theta) lambda;
    winding is +1 for every theta, with a single edge state that is not a
    combination of exponentials.
    """
    on_site = scale * np.array([[0, 1], [1, 0]], dtype=complex)
    hop = scale * np.exp(1j * theta) * np.array([[0, 0.25], [1, 0]], dtype=complex)
    return _two_band(on_site, hop)


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
