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
    CascadeStage,
    DistributionEstimate,
    MeasurementRecord,
    derive_seeds,
    estimate_photon_distribution,
    first_on_distribution,
    response_matrix,
    run_cascade_trial,
    tuned_cascade,
    uniforms,
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
    filter_pass_asymptotic,
    superposition_synthesis_check,
)
from .fock import (
    CutoffError,
    NumericalError,
    PhotonDistribution,
    StateSpec,
    analytic_distribution,
    choose_cutoff,
    displace,
    displacement_margin,
    displacement_matrix,
    fidelity_to_pure,
    make_state,
    photon_distribution,
    purity,
    state_metrics,
    trace_distance,
    validate_density_matrix,
)
from .tomography import (
    MonteCarloBackend,
    ReconstructionResult,
    TomographyPlan,
    default_gamma_abs,
    default_phase_grid,
    displaced_distribution,
    measure_distributions,
    phase_fourier,
    project_psd,
    reconstruct,
)

__all__ = [
    "__version__",
    "CascadeConfig", "CascadeStage", "DistributionEstimate", "MeasurementRecord",
    "derive_seeds", "estimate_photon_distribution", "first_on_distribution",
    "response_matrix", "run_cascade_trial", "tuned_cascade", "uniforms",
    "CavityParams", "cavity_amplitudes", "mode_amplitudes", "resonant_components",
    "total_phase", "transmission_profile",
    "FilterResult", "ProbeDetector", "SuperpositionReport", "filter_pass",
    "filter_pass_asymptotic", "superposition_synthesis_check",
    "CutoffError", "NumericalError", "PhotonDistribution", "StateSpec",
    "analytic_distribution", "choose_cutoff", "displace", "displacement_margin",
    "displacement_matrix", "fidelity_to_pure", "make_state", "photon_distribution",
    "purity", "state_metrics", "trace_distance", "validate_density_matrix",
    "MonteCarloBackend", "ReconstructionResult", "TomographyPlan",
    "default_gamma_abs", "default_phase_grid", "displaced_distribution",
    "measure_distributions", "phase_fourier", "project_psd", "reconstruct",
]
