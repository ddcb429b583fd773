"""Numerical tolerances and size defaults, overridable per call and from the CLI."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Structural checks on input matrices, relative to the largest matrix norm.
    structural: float = 1e-10
    # Derived identities (adjoint symmetry, recurrence residuals, ...).
    identity: float = 1e-9
    # Condition-number cutoff beyond which a hopping matrix counts as singular.
    singular_cond: float = 1e8
    # Half-width of the |lambda| = 1 band used to classify companion eigenvalues.
    circle_band: float = 1e-6
    # Relative radius for eigenvalue clustering into multiplicities.
    cluster: float = 1e-7
    # Relative singular-value threshold for kernel dimensions.
    kernel: float = 1e-7
    # Relative floor below which polynomial coefficients are trimmed.
    coeff_trim: float = 1e-10
    # Allowed deviation of a summed phase from an exact multiple of 2*pi.
    winding_integer: float = 1e-6
    # Required relative residual of the evaluation-interpolation fit.
    interp_residual: float = 1e-9

    def replace(self, **overrides) -> "Tolerances":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOL = Tolerances()

# Brillouin-zone sampling: starting resolution and adaptive cap.
NUM_K_DEFAULT = 512
NUM_K_CAP = 2**14

# Winding phase refinement cap.
WINDING_SAMPLE_CAP = 2**20

# Homotopy certificate grids: starting resolution and per-axis refinement cap.
CERT_GRID_T = 9
CERT_GRID_K = 128
CERT_GRID_CAP = 2**12

# Half-space truncation sizes.  Dense SVD up to DENSE_SVD_MAX matrix dimension;
# beyond that the kernel count switches to sparse shift-invert eigensolves.
# The kernel threshold scale smax is the section's largest singular value on
# the dense path and the symbol's MatrixLoop.norm_bound() on the sparse path;
# both are valid because a finite section's norm is at most the sup of
# ||h_pm(lambda)|| over the unit circle.
CELLS_MIN_DEFAULT = 64
CELLS_CAP = 32768
DENSE_SVD_MAX = 768

# Fraction of ensemble draws given a deliberately singular leading hop block.
SINGULAR_DRAW_FRACTION = 0.2
