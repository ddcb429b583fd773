"""Numerical tolerances and size defaults, overridable per call and from the CLI."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Structural checks on input matrices and on the singularity of a recurrence
    # pencil, relative to the largest matrix norm.
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
    # Allowed deviation of a summed phase from an exact multiple of 2*pi.
    winding_integer: float = 1e-6

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
# Below the switch the dense SVD wins, which is why there are two paths:
# fastest of 7 calls, one BLAS thread, over ssh(0.5, 1), ssh(1, 0.5) and
# three seed-7 draws each of (2, 2), (2, 3), (4, 1) and (4, 2), every kernel
# count equal on both paths:
#   dimension  8          16         32         64         96         128
#   dense SVD  0.04-0.06  0.07-0.17  0.16-0.28  0.42-1.08  1.62-2.68  3.07-5.44 ms
#   subspace   0.53-0.74  0.49-0.91  0.55-0.89  0.52-1.03  0.59-1.49  0.79-1.43 ms
# The deform endpoint's 8R-cell sections and the 64-cell phase-diagram
# cells with q = 1 sit on the dense side.
# The kernel threshold scale smax is the section's largest singular value on
# the dense path and the symbol's MatrixLoop.norm_bound() on the sparse path;
# both are valid because a finite section's norm is at most the sup of
# ||h_pm(lambda)|| over the unit circle.
CELLS_MIN_DEFAULT = 64
CELLS_CAP = 32768
DENSE_SVD_MAX = 144

# Fraction of ensemble draws given a deliberately singular leading hop block.
SINGULAR_DRAW_FRACTION = 0.2
