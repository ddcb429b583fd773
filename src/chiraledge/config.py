"""Numerical tolerances and size defaults, overridable per call and from the CLI."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Structural checks on input matrices and on the singularity of a recurrence
    # pencil, relative to the largest matrix norm.
    structural: float = 1e-10
    # Floor below which every cell norm of a propagated mode counts as zero
    # (companion.decay_rate refuses such a mode).
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
# shift-invert subspace iteration.  Per section, range over ssh(0.9, 1),
# ssh(1, 0.9) and three (2, 2) and three (4, 2) random draws (seed 7), fastest
# of 3 calls, one BLAS thread, 2 vCPU, every kernel count equal on both paths:
#   dimension  96         128        144        160         192          256          384          768
#   dense SVD  1.95-2.98  3.97-7.60  5.76-8.87  8.66-11.43  11.72-16.82  26.17-28.85  74.32-78.23  640-699 ms
#   subspace   0.63-1.20  0.60-2.18  0.86-1.92  0.86-1.79   0.71-2.07    0.74-2.46    0.95-3.16    1.53-8.61 ms
# On small sections the dense SVD wins, which is why there are two paths:
# range over ssh(0.5, 1), ssh(1, 0.5) and three seed-7 draws each of (2, 2),
# (2, 3), (4, 1) and (4, 2), fastest of 7 calls, the same machine and threads:
#   dimension  8          16         32         48         64         80         96         128
#   dense SVD  0.05-0.07  0.08-0.19  0.18-0.27  0.34-0.63  0.48-1.10  1.23-1.85  1.91-4.07  4.10-7.31 ms
#   subspace   0.40-0.68  0.39-0.83  0.50-0.76  0.46-0.86  0.46-0.96  0.55-1.11  0.54-1.20  0.71-1.90 ms
# At 64 dimensions the paths tie within the run-to-run spread (the subspace
# iteration was faster on 13 of the 14 sections in this run, on 7 in
# another); from 80 up it is faster on every one.  So the switch sits at 64:
# small deform endpoints (8R cells) and q = 1 sections of at most 64 cells
# (defective's 32, ssh decaying by 0.75 a cell or faster) stay dense.
# perfbench places its ensemble slots on either side of the switch
# (Ensemble._bounds reads it); on seeds 11-20, 772 of its 800 slots hold the
# same model under the switch at 64 as at 144.
# The kernel threshold scale smax is the section's largest singular value on
# the dense path and the symbol's MatrixLoop.norm_bound() on the sparse path;
# both are valid because a finite section's norm is at most the sup of
# ||h_pm(lambda)|| over the unit circle.
CELLS_CAP = 32768
DENSE_SVD_MAX = 64

# Fraction of ensemble draws given a deliberately singular leading hop block.
SINGULAR_DRAW_FRACTION = 0.2
