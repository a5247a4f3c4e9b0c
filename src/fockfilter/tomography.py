"""Density-matrix reconstruction from displaced photon statistics.

Displacing the signal by gamma = |gamma| e^{i phi} and measuring photon
statistics P_gamma(n) probes every matrix element of nu:

    P_gamma(n) = sum_{k,m} nu_km A_kmn(gamma),
    A_kmn(gamma) = <n|D(gamma)|k> <m|D^+(gamma)|n>.

A depends on phi only through e^{i(m-k) phi}, so a DFT over the uniform phase
grid phi_j = 2 pi j / N_phi separates the diagonals s = k - m as long as
N_phi >= 2M + 1.  A TomographyPlan holds N_phi and derives its phases from
it, so every plan has such a grid.  Each s gives an overdetermined
linear system in the unknowns nu_{m+s,m}, solved by least squares (SVD via
np.linalg.lstsq; normal equations would square the condition number).
Negative s follows from Hermitian symmetry.

The forward model runs the same equation the other way.  D(|gamma| e^{i phi})
= R(phi) D(|gamma|) R(phi)^+ with R(phi) = diag(e^{i n phi}), so one real
matrix D(|gamma|) per plan serves every phase: with the diagonal kernel
K_s[n, m] = D[n, m+s] conj(D[n, m]) and B_s = K_s @ diag_s(nu),

    P[j, n] = sum_s e^{-i s phi_j} B_s[n],   B_{-s} = conj(B_s) for Hermitian nu,

at an enlarged working cutoff.  The exact backend reads P directly; the
Monte Carlo backend samples each phase's counts from one cascade response
matrix per plan, applied to that phase's displaced diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .filtering import ProbeDetector
from .cascade import _estimate, derive_seeds, response_matrix, tuned_cascade

CONDITION_FLAG_LIMIT = 1e12
TRACE_BAND = (0.9, 1.1)


@dataclass(frozen=True)
class MonteCarloBackend:
    """Measure displaced distributions with a cascade instead of exactly.

    Stage k of the cascade is tuned to n = k with this tau and chi_t.  The
    cascade of phase j is seeded with derive_seeds(rng_seed, [j]), the mix
    that also seeds its trials.
    """

    tau: float
    chi_t: float
    probe: ProbeDetector
    samples: int
    rng_seed: int
    update_rule: str = "exact"

    def __post_init__(self):
        self._cascade(0)  # CavityParams and CascadeConfig check the fields

    def _cascade(self, n_top):
        """Cascade of stages 0..n_top with this backend's fields."""
        return tuned_cascade(
            n_top=n_top, tau=self.tau, chi_t=self.chi_t,
            alpha=self.probe.alpha, eta=self.probe.eta, samples=self.samples,
            rng_seed=self.rng_seed, update_rule=self.update_rule)


@dataclass(frozen=True)
class TomographyPlan:
    """Reconstruction plan: |gamma|, phase count, max Fock index M, rows.

    The n_phases phases are the uniform grid phi_j = 2 pi j / n_phases, the
    one grid on which the phase DFT separates the diagonals; it needs at
    least 2M + 1 points.  max_fock (M) is the highest signal Fock component
    assumed populated; n_rows photon-number rows enter each least-squares
    system.
    """

    gamma_abs: float
    n_phases: int
    max_fock: int
    n_rows: int
    backend: object = "exact"

    def __post_init__(self):
        if not (self.gamma_abs > 0.0 and math.isfinite(self.gamma_abs)):
            raise ValueError(f"gamma_abs must be finite and > 0, got {self.gamma_abs}")
        if self.max_fock < 0:
            raise ValueError("max_fock must be >= 0")
        if not isinstance(self.n_phases, (int, np.integer)):
            raise ValueError(f"n_phases must be an integer, got {self.n_phases!r}")
        if self.n_phases < 2 * self.max_fock + 1:
            raise ValueError(
                f"{self.n_phases} phases cannot separate diagonals up to "
                f"s = {self.max_fock}; need at least {2 * self.max_fock + 1}")
        if self.n_rows < self.max_fock + 1:
            raise ValueError(
                f"n_rows = {self.n_rows} underdetermines the s = 0 system; "
                f"need >= max_fock + 1 = {self.max_fock + 1}")
        if not (self.backend == "exact" or isinstance(self.backend, MonteCarloBackend)):
            raise ValueError('backend must be "exact" or a MonteCarloBackend')

    @property
    def phases(self):
        """The grid phi_j = 2 pi j / n_phases as a tuple of floats."""
        return tuple(uniform_phase_grid(self.n_phases).tolist())


def uniform_phase_grid(n_phi):
    """The n_phi phases phi_j = 2 pi j / n_phi, j = 0 .. n_phi - 1, as an array."""
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def default_gamma_abs(mean_photons):
    """Default displacement modulus sqrt(<n> + 1) of the nominal signal."""
    return math.sqrt(mean_photons + 1.0)


def _diagonal_kernel(D, s, n_rows, dim):
    """K_s[n, m] = D[n, m+s] conj(D[n, m]) for n < n_rows and m < dim - s.

    With D = D(|gamma|) this is A_{m+s,m,n}(|gamma|): the weight of nu_{m+s,m}
    in row n of the displaced distribution at phase 0.
    """
    return D[:n_rows, s:dim] * np.conj(D[:n_rows, :dim - s])


def _displaced_probabilities(nu, gamma_abs, phases, n_rows):
    """diag(D(g_j) nu D(g_j)^+) with g_j = gamma_abs e^{i phases[j]}, one row per phase.

    Rows run over the whole working cutoff dim + margin + max(0, n_rows - dim),
    built from one displacement matrix.  Each row passes the guards of
    fock.displace and fock.photon_distribution: finite, at most 1e-6
    leaked past the working cutoff, real, nonnegative (tiny negatives
    clamped) and summing to at most 1.
    """
    nu = np.asarray(nu, dtype=complex)
    dim = nu.shape[0]
    # the working space must cover both the displacement margin and the rows
    work = dim + fock.displacement_margin(gamma_abs) + max(0, n_rows - dim)
    D = fock.displacement_matrix(gamma_abs, work)
    B = np.empty((2 * dim - 1, work), dtype=complex)  # B[dim - 1 + s] = B_s
    for s in range(dim):
        kernel = _diagonal_kernel(D, s, work, dim)
        B[dim - 1 + s] = kernel @ np.diagonal(nu, -s)
        # read the upper diagonals too, so that a non-Hermitian nu shows as an
        # imaginary residue instead of being symmetrised away
        B[dim - 1 - s] = np.conj(kernel) @ np.diagonal(nu, s)
    P = np.exp(-1j * np.outer(phases, np.arange(1 - dim, dim))) @ B
    bad = np.flatnonzero(~np.isfinite(P).all(axis=1))
    if bad.size:
        raise fock.NumericalError(
            f"displacement by |gamma|={gamma_abs:.4g} at phase {phases[bad[0]]:.6g} gave "
            "non-finite probabilities; the input state is not finite")
    # the displacement is unitary, so a deficit relative to the input trace
    # is probability pushed past the working cutoff
    fock._check_leak(np.trace(nu).real - P.real.sum(axis=1), gamma_abs, work, 1e-6)
    return fock._checked_probabilities(P)


def measure_distributions(nu, plan):
    """Distribution matrix P[j, n] over the plan's phase grid (rows = phases).

    The exact backend returns the displaced diagonals; a MonteCarloBackend
    instead estimates each from a cascade of n_rows filters, phase j seeded
    with derive_seeds(rng_seed, [j]), all phases sharing one response matrix.
    """
    P = _displaced_probabilities(nu, plan.gamma_abs, plan.phases, plan.n_rows)
    backend, rows = plan.backend, plan.n_rows
    if backend == "exact":
        return P[:, :rows].copy()
    R, S = response_matrix(backend._cascade(rows - 1), P.shape[1])
    seeds = derive_seeds(backend.rng_seed, range(plan.n_phases))
    return np.vstack([_estimate(p, p[:rows], R, S, int(seed), backend.samples).values
                      for p, seed in zip(P, seeds)])


def phase_fourier(P_matrix, s):
    """s-th phase-Fourier component: (1/N_phi) sum_j e^{+i s phi_j} P[j, :].

    Rows of P_matrix follow the uniform grid phi_j = 2 pi j / N_phi.  The +
    sign makes the component equal sum_m A_{m+s,m,n}(|gamma|) nu_{m+s,m},
    i.e. it isolates the s-th lower diagonal of nu.
    """
    P_matrix = np.asarray(P_matrix)
    n_phi = P_matrix.shape[0]
    return (np.exp(1j * s * uniform_phase_grid(n_phi)) @ P_matrix) / n_phi


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed nu plus per-diagonal least-squares diagnostics.

    nu_hat is Hermitian by construction and NOT renormalized; its trace is
    recorded.  flags report rank-deficient systems (condition > 1e12),
    near-singular ones (smallest singular value < 1e-12, which the
    scale-free condition misses, e.g. at a near-zero |gamma|) and a trace
    outside [0.9, 1.1] — flagged, never silently repaired.
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
    measured = np.asarray(measured, dtype=float)
    if measured.shape[0] != plan.n_phases:
        raise ValueError(
            f"measured has {measured.shape[0]} phase rows, plan has {plan.n_phases}")
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
        kernel = _diagonal_kernel(D, s, rows, M + 1)
        solution, _, _, singvals = np.linalg.lstsq(kernel, target, rcond=None)
        resid = float(np.linalg.norm(kernel @ solution - target))
        cond = float(singvals[0] / singvals[-1]) if singvals[-1] > 0 else math.inf
        residuals.append(resid)
        conditions.append(cond)
        if cond > CONDITION_FLAG_LIMIT:
            flags.append(f"s={s}: rank-deficient system (condition {cond:.3g})")
        elif singvals[-1] < 1.0 / CONDITION_FLAG_LIMIT:
            # the data are probabilities, so 1/sigma_min bounds how far an
            # error at rounding level grows in the solution
            flags.append(f"s={s}: near-singular system "
                         f"(smallest singular value {singvals[-1]:.3g})")
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
