"""Density-matrix reconstruction from displaced photon statistics.

Displacing the signal by gamma = |gamma| e^{i phi} and measuring photon
statistics P_gamma(n) probes every matrix element of nu:

    P_gamma(n) = sum_{k,m} nu_km A_kmn(gamma),
    A_kmn(gamma) = <n|D(gamma)|k> <m|D^+(gamma)|n>.

A depends on phi only through e^{i(m-k) phi}, so a DFT over a uniform phase
grid separates the diagonals s = k - m, and each s gives an overdetermined
linear system in the unknowns nu_{m+s,m}, solved by least squares (SVD via
np.linalg.lstsq; normal equations would square the condition number).
Negative s follows from Hermitian symmetry.

Distributions are obtained either exactly (diagonal of D nu D^+ at an
enlarged working cutoff) or by routing the displaced state through the
cascaded-filter Monte Carlo measurement.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .cavity import CavityParams
from .filtering import ProbeDetector
from .cascade import derive_seeds, estimate_photon_distribution, tuned_cascade

CONDITION_FLAG_LIMIT = 1e12
TRACE_BAND = (0.9, 1.1)


@dataclass(frozen=True)
class MonteCarloBackend:
    """Measure displaced distributions with a cascade instead of exactly.

    cavity supplies the per-stage (tau, chi_t) prototype — stage k is tuned
    to n = k; its psi field is ignored.  The cascade of phase j is seeded
    with derive_seeds(rng_seed, [j]), the mix that also seeds its trials.
    """

    cavity: CavityParams
    probe: ProbeDetector
    samples: int
    rng_seed: int
    update_rule: str = "exact"

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ValueError("rng_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class TomographyPlan:
    """Reconstruction plan: |gamma|, phase grid, max Fock index M, rows.

    max_fock (M) is the highest signal Fock component assumed populated;
    n_rows photon-number rows enter each least-squares system.  The grid
    needs at least 2M + 1 phases to separate all diagonals; the default
    adds a safety margin (2M + 6).
    """

    gamma_abs: float
    phases: tuple
    max_fock: int
    n_rows: int
    backend: object = "exact"

    def __post_init__(self):
        if not (self.gamma_abs > 0.0 and math.isfinite(self.gamma_abs)):
            raise ValueError(f"gamma_abs must be finite and > 0, got {self.gamma_abs}")
        if self.max_fock < 0:
            raise ValueError("max_fock must be >= 0")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if len(self.phases) < 2 * self.max_fock + 1:
            raise ValueError(
                f"{len(self.phases)} phases cannot separate diagonals up to "
                f"s = {self.max_fock}; need at least {2 * self.max_fock + 1}")
        if self.n_rows < self.max_fock + 1:
            raise ValueError(
                f"n_rows = {self.n_rows} underdetermines the s = 0 system; "
                f"need >= max_fock + 1 = {self.max_fock + 1}")
        if not (self.backend == "exact" or isinstance(self.backend, MonteCarloBackend)):
            raise ValueError('backend must be "exact" or a MonteCarloBackend')


def default_phase_grid(max_fock):
    """Uniform phase grid with margin: N_phi = 2 max_fock + 6 points in [0, 2 pi)."""
    n_phi = 2 * max_fock + 6
    return tuple(2.0 * math.pi * j / n_phi for j in range(n_phi))


def default_gamma_abs(mean_photons):
    """Default displacement modulus sqrt(<n> + 1) of the nominal signal."""
    return math.sqrt(mean_photons + 1.0)


def displacement_kernel(k, m, n, gamma):
    """A_kmn(gamma) = <n|D(gamma)|k> <m|D^+(gamma)|n>.

    Maps nu_km to its contribution to the displaced distribution at row n.
    Phase dependence is exactly e^{i(m-k) arg gamma} times the |gamma| value.
    """
    return (fock._displacement_element(n, k, gamma)
            * np.conj(fock._displacement_element(n, m, gamma)))


def displaced_distribution(nu, gamma, n_rows, backend="exact"):
    """Photon distribution of D(gamma) nu D^+(gamma) on rows 0..n_rows-1.

    The exact backend diagonalizes nothing: it builds the displaced matrix
    at the fock-core working margin and reads its diagonal.  A
    MonteCarloBackend instead feeds the displaced state to a cascade of
    n_rows filters and returns that estimate (values, ci, ...).
    """
    nu = np.asarray(nu, dtype=complex)
    # the working space must cover both the displacement margin and the rows
    margin = fock.displacement_margin(gamma) + max(0, n_rows - nu.shape[0])
    if backend == "exact":
        shifted = fock.displace(nu, gamma, n_out=None, margin=margin)
        p = fock.photon_distribution(shifted).values[:n_rows].copy()
        p.setflags(write=False)
        return fock.PhotonDistribution(values=p)
    if not isinstance(backend, MonteCarloBackend):
        raise ValueError('backend must be "exact" or a MonteCarloBackend')
    shifted = fock.displace(nu, gamma, n_out=None, margin=margin)
    cfg = tuned_cascade(
        n_top=n_rows - 1, tau=backend.cavity.tau, chi_t=backend.cavity.chi_t,
        alpha=backend.probe.alpha, eta=backend.probe.eta,
        samples=backend.samples, rng_seed=backend.rng_seed,
        update_rule=backend.update_rule)
    return estimate_photon_distribution(shifted, n_rows - 1, cfg)


def measure_distributions(nu, plan):
    """Distribution matrix P[j, n] over the plan's phase grid (rows = phases)."""
    backend = plan.backend
    rows = []
    for j, phi in enumerate(plan.phases):
        gamma = plan.gamma_abs * complex(math.cos(phi), math.sin(phi))
        if isinstance(backend, MonteCarloBackend):
            seed_j = int(derive_seeds(backend.rng_seed, [j])[0])
            phase_backend = MonteCarloBackend(
                cavity=backend.cavity, probe=backend.probe,
                samples=backend.samples, rng_seed=seed_j,
                update_rule=backend.update_rule)
            rows.append(displaced_distribution(nu, gamma, plan.n_rows, phase_backend).values)
        else:
            rows.append(displaced_distribution(nu, gamma, plan.n_rows).values)
    return np.vstack(rows)


def _check_uniform_grid(phases):
    n_phi = len(phases)
    ideal = 2.0 * math.pi * np.arange(n_phi) / n_phi
    if np.max(np.abs(np.asarray(phases) - ideal)) > 1e-9:
        raise ValueError("phase grid is not the uniform grid 2*pi*j/N_phi; "
                         "the DFT separation of diagonals does not apply")


def phase_fourier(P_matrix, s, phases=None):
    """s-th phase-Fourier component: (1/N_phi) sum_j e^{+i s phi_j} P[j, :].

    Rows of P_matrix must follow the uniform grid phi_j = 2 pi j / N_phi;
    pass the actual phases to have that verified.  The + sign makes the
    component equal sum_m A_{m+s,m,n}(|gamma|) nu_{m+s,m}, i.e. it isolates
    the s-th lower diagonal of nu.
    """
    P_matrix = np.asarray(P_matrix)
    n_phi = P_matrix.shape[0]
    if phases is not None:
        if len(phases) != n_phi:
            raise ValueError(f"{len(phases)} phases for {n_phi} rows")
        _check_uniform_grid(phases)
    grid = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return (np.exp(1j * s * grid) @ P_matrix) / n_phi


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed nu plus per-diagonal least-squares diagnostics.

    nu_hat is Hermitian by construction and NOT renormalized; its trace is
    recorded.  flags report rank-deficient systems (condition > 1e12) and a
    trace outside [0.9, 1.1] — flagged, never silently repaired.
    """

    nu_hat: np.ndarray
    residual_norms: tuple
    condition_numbers: tuple
    trace: float
    flags: tuple


def reconstruct(plan, measured):
    """Least-squares inversion of the displaced distributions `measured`.

    measured[j, n] must follow the plan's phase grid (rows) and provide at
    least n_rows photon columns.  For each s = 0..M the overdetermined
    system P^(s)(n) = sum_m A_{m+s,m,n}(|gamma|) nu_{m+s,m} is solved over
    rows n = 0..n_rows-1; s < 0 follows by Hermitian symmetry.
    """
    _check_uniform_grid(plan.phases)
    measured = np.asarray(measured, dtype=float)
    if measured.shape[0] != len(plan.phases):
        raise ValueError(
            f"measured has {measured.shape[0]} phase rows, plan has {len(plan.phases)}")
    if measured.shape[1] < plan.n_rows:
        raise ValueError(
            f"measured provides {measured.shape[1]} photon columns, plan needs {plan.n_rows}")
    bad = np.argwhere(~np.isfinite(measured))
    if bad.size:
        j, n = bad[0]
        raise ValueError(f"measured[{j}, {n}] = {measured[j, n]} is not finite "
                         f"(phase {plan.phases[j]:.6g}, n = {n})")
    M = plan.max_fock
    rows = plan.n_rows
    D = np.asarray(fock.displacement_matrix(plan.gamma_abs, max(rows, M + 1)))

    nu_hat = np.zeros((M + 1, M + 1), dtype=complex)
    residuals, conditions, flags = [], [], []
    for s in range(M + 1):
        target = phase_fourier(measured[:, :rows], s)
        kernel = D[:rows, s:M + 1] * np.conj(D[:rows, :M + 1 - s])
        solution, _, _, singvals = np.linalg.lstsq(kernel, target, rcond=None)
        resid = float(np.linalg.norm(kernel @ solution - target))
        cond = float(singvals[0] / singvals[-1]) if singvals[-1] > 0 else math.inf
        residuals.append(resid)
        conditions.append(cond)
        if cond > CONDITION_FLAG_LIMIT:
            flags.append(f"s={s}: rank-deficient system (condition {cond:.3g})")
        m = np.arange(M + 1 - s)
        nu_hat[m + s, m] = solution
        nu_hat[m, m + s] = np.conj(solution)

    trace = float(np.trace(nu_hat).real)
    if not (TRACE_BAND[0] <= trace <= TRACE_BAND[1]):
        flags.append(f"trace {trace:.6f} outside {TRACE_BAND}")
    nu_hat.setflags(write=False)
    return ReconstructionResult(
        nu_hat=nu_hat, residual_norms=tuple(residuals),
        condition_numbers=tuple(conditions), trace=trace, flags=tuple(flags))


def project_psd(nu):
    """Optional post-step: clip negative eigenvalues and renormalize.

    Off by default everywhere — applying it makes residuals uninterpretable,
    so callers must opt in.
    """
    w, v = np.linalg.eigh(np.asarray(nu, dtype=complex))
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        raise fock.NumericalError("state has no positive weight to keep")
    out = (v * w) @ v.conj().T
    out /= np.trace(out).real
    out.setflags(write=False)
    return out
