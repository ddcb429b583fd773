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
# beyond that the kernel count finds the eigenvalues nearest zero of the
# augmented matrix [[0, T], [T*, 0]], factored once as a band matrix, by block
# shift-invert subspace iteration.  Per section, mean over ssh(0.9, 1),
# ssh(1, 0.9) and three (2, 2) and three (4, 2) random draws (seed 7), fastest
# of 3 calls, two runs, one BLAS thread, 2 vCPU.  The "augmented" row is the
# band LU with ARPACK's shift-invert eigsh that preceded the subspace
# iteration; the "subspace" row is measured the same way:
#   dimension  96       128      144      160      192       256       384     768
#   dense SVD  2.3-2.3  4.8-5.0  6.0-7.3  7.9-9.9  11.8-13.5 24.6-27.0 75-80   667-668 ms
#   augmented  3.1-4.8  3.7-5.7  3.5-6.2  3.7-6.7  4.0-7.1   6.2-9.2   9.3-15  28-39 ms
#   dense SVD  2.9-3.3  5.2-5.5  5.7-7.3  8.5-9.9  13.1-15.5 24.1-32.3 73-91   696-716 ms
#   subspace   2.2-2.6  2.3-2.7  2.5-2.8  2.7-3.0  2.8-3.2   3.0-3.4   3.5-4.1 6.3-6.7 ms
# The subspace iteration now wins at 96 dimensions too.  The switch stays at
# 144 because perfbench places its ensemble slots on either side of it
# (Ensemble._bounds reads it): moving it is a change to the benchmark.
# The kernel threshold scale smax is the section's largest singular value on
# the dense path and the symbol's MatrixLoop.norm_bound() on the sparse path;
# both are valid because a finite section's norm is at most the sup of
# ||h_pm(lambda)|| over the unit circle.
CELLS_MIN_DEFAULT = 64
CELLS_CAP = 32768
DENSE_SVD_MAX = 144

# Fraction of ensemble draws given a deliberately singular leading hop block.
SINGULAR_DRAW_FRACTION = 0.2
