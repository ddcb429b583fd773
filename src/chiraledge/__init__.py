"""Bulk-edge correspondence toolkit for finite-range graded 1D lattice Hamiltonians.

Computes bulk winding numbers, edge-mode spaces and edge indices for
chiral-symmetric tight-binding models, cross-checks them against each other,
and realizes the constructive homotopies that connect any gapped model to a
stack of dimerized limits.
"""

__version__ = "0.1.0"

from .companion import (
    CompanionMatrix,
    CompanionSplit,
    LatticeMode,
    build_companion,
    char_poly_residual,
    decay_rate,
    duality_check,
    propagate,
    spectral_split,
)
from .config import DEFAULT_TOL, Tolerances
from .halfspace import (
    EdgeReport,
    edge_modes_companion,
    edge_modes_truncated,
    in_gap_scan,
    truncate_halfspace,
)
from .loops import HomotopyPath, full_deformation, model_from_loop
from .models import (
    ChiralModel,
    MatrixLoop,
    ModelParams,
    build_model,
    chiral_split,
    detect_grading,
    load_model,
    save_model,
)
from .spectrum import (
    BandStructure,
    GapReport,
    band_structure,
    certified_gap,
    chiral_gap,
    chiral_gap_margin,
    detect_gap,
)
from .verify import (
    EnsembleSpec,
    VerificationCase,
    random_chiral_ensemble,
    verify_bec,
    verify_gap_exclusion,
)
from .winding import WindingResult, full_winding, winding_of_curve, winding_phase, winding_roots
