"""Deterministic simulator for interaction-free paradox interferometry.

Pre/post-selected two-particle interferometers, the weak values they
imply (including the negative joint occupation), a photonic pair source
that realizes the same pre-selection, and finite-strength pointer
readout of the arrival-time observables.
"""
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .states import (
    GAMMA,
    BasisLabel,
    StateVector,
    Structure,
    StructureError,
    Subnormalized,
    Subsystem,
    inner,
    tensor,
)
from .optics import (
    FockModeState,
    UnsupportedOccupancyError,
    apply_annihilation,
    apply_first_beamsplitter,
    apply_second_beamsplitter,
    hom_combine,
    interferometer_structure,
    photon_pair_structure,
)
from .weakvalues import (
    OrthogonalPostSelectionError,
    ProjectorWeakValue,
    WeakValueReport,
)
from .pointer import (
    EmptyPostSelectionError,
    GridError,
    PointerMoments,
    PointerProfile,
    PointerSpec,
    SweepRow,
    analytic_moments,
    build_pointer_profile,
    pointer_moments,
    pointer_terms,
    weak_limit_sweep,
)
from .scenarios import (
    CONSTRAINT_NAMES,
    CounterfactualAssignment,
    CounterfactualReport,
    HardyConfig,
    HardyResult,
    PhotonicWeakReport,
    SwapResult,
    analyzer_post_selection,
    bell_pair,
    counterfactual_check,
    entangled_target_state,
    run_entanglement_swap,
    run_hardy_gedanken,
    run_photonic_weak,
)

# Every name imported above; the submodules bound as a side effect stay out.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
