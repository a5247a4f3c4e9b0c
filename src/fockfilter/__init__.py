"""Conditional photon-number filtering in truncated Fock spaces.

A lossy Kerr cavity picks out single Fock components (or periodic sets of
them) from a travelling signal, heralded by a click on a displaced probe.
The package builds the states, evolves them through single passes and
cascades, estimates photon distributions by Monte Carlo, and reconstructs
density matrices from displaced photon statistics.
"""

__version__ = "0.1.0"

from .cascade import (
    CascadeConfig,
    DistributionEstimate,
    derive_seeds,
    estimate_photon_distribution,
    response_matrix,
)
from .cavity import (
    CavityParams,
    cavity_amplitudes,
    mode_amplitudes,
    resonant_components,
    total_phase,
    transmission_profile,
)
from .filtering import (
    FilterResult,
    ProbeDetector,
    SuperpositionReport,
    filter_pass,
    superposition_synthesis_check,
)
from .fock import (
    CutoffError,
    NumericalError,
    StateSpec,
    analytic_distribution,
    choose_cutoff,
    displacement_margin,
    displacement_matrix,
    fidelity_to_pure,
    make_state,
    photon_distribution,
    purity,
    trace_distance,
)
from .tomography import (
    ReconstructionResult,
    TomographyPlan,
    default_gamma_abs,
    measure_distributions,
    reconstruct,
)

__all__ = [
    "__version__",
    "CascadeConfig", "DistributionEstimate", "derive_seeds",
    "estimate_photon_distribution", "response_matrix",
    "CavityParams", "cavity_amplitudes", "mode_amplitudes", "resonant_components",
    "total_phase", "transmission_profile",
    "FilterResult", "ProbeDetector", "SuperpositionReport", "filter_pass",
    "superposition_synthesis_check",
    "CutoffError", "NumericalError", "StateSpec",
    "analytic_distribution", "choose_cutoff", "displacement_margin",
    "displacement_matrix", "fidelity_to_pure", "make_state", "photon_distribution",
    "purity", "trace_distance",
    "ReconstructionResult", "TomographyPlan", "default_gamma_abs",
    "measure_distributions", "reconstruct",
]
