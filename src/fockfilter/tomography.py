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
np.linalg.lstsq; normal equations would square the condition number).  The
kernels are real, so one real product takes every component's real and
imaginary parts, and each s is a real system with those two right-hand
sides.  Negative s follows from Hermitian symmetry.

The forward model runs the same equation the other way.  D(|gamma| e^{i phi})
= R(phi) D(|gamma|) R(phi)^+ with R(phi) = diag(e^{i n phi}), so one real
matrix D(|gamma|) per plan serves every phase: with the real diagonal kernel
K_s[n, m] = D[n, m+s] D[n, m] and B_s = K_s @ diag_s(nu),

    P[j, n] = sum_s e^{-i s phi_j} B_s[n],   B_{-s} = conj(B_s) for Hermitian nu,

at an enlarged working cutoff; each s is one real product of K_s with the
real and imaginary parts of the s-th lower and upper diagonals.  The exact
backend reads P directly.  A plan's backend may instead be the paper's
photon counter, a CascadeConfig with one stage per row: each phase's counts
are then sampled from that counter's response matrix on the working space,
applied to the phase's displaced diagonal.

A plan fixes its working space, n_rows plus the displacement margin of
|gamma| levels, when it is made, and builds its one D(|gamma|) on that
space on first use; it keeps D for as long as the plan lives.
measure_distributions reads all of D and reconstruct its leading
n_rows x (M + 1) block, so a reconstruct after a measure and one on a fresh
plan (a measured.csv) use the same bits.  Each K_s is built once, in the
solve loop, which holds the lstsq of each s and the product of K_s with its
solution; residual norms, condition numbers, flags and the lower-triangle
store follow it, over all s at once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .cascade import CascadeConfig, _estimate, derive_seeds, response_matrix

CONDITION_FLAG_LIMIT = 1e12
TRACE_BAND = (0.9, 1.1)


@dataclass(frozen=True)
class TomographyPlan:
    """Reconstruction plan: |gamma|, phase count, max Fock index M, rows, counter.

    The n_phases phases are the uniform grid phi_j = 2 pi j / n_phases, the
    one grid on which the phase DFT separates the diagonals; it needs at
    least 2M + 1 points.  max_fock (M) is the highest signal Fock component
    assumed populated; n_rows photon-number rows enter each least-squares
    system.  max_fock lies in 0..fock.CUTOFF_CEILING, n_phases in
    0..2 fock.CUTOFF_CEILING + 1 and n_rows is >= 0, all integers
    (fock._size); the working cutoff n_rows - 1 + displacement_margin(|gamma|)
    lies at or below fock.CUTOFF_CEILING, or CutoffError says so.  backend
    is "exact" or the CascadeConfig that counts the photons: its n_top + 1
    stages are the n_rows rows, stage k counting row n = k.
    """

    gamma_abs: float
    n_phases: int
    max_fock: int
    n_rows: int
    backend: object = "exact"

    def __post_init__(self):
        if not (self.gamma_abs > 0.0 and math.isfinite(self.gamma_abs)):
            raise ValueError(f"gamma_abs must be finite and > 0, got {self.gamma_abs}")
        object.__setattr__(self, "max_fock", fock._size(self.max_fock, "max_fock"))
        object.__setattr__(self, "n_phases", fock._size(self.n_phases, "n_phases",
                                                        high=2 * fock.CUTOFF_CEILING + 1))
        # n_rows has no bound of its own: the working cutoff below bounds it
        object.__setattr__(self, "n_rows", fock._size(self.n_rows, "n_rows", high=None))
        if self.n_phases < 2 * self.max_fock + 1:
            raise ValueError(
                f"{self.n_phases} phases cannot separate diagonals up to "
                f"s = {self.max_fock}; need at least {2 * self.max_fock + 1}")
        if self.n_rows < self.max_fock + 1:
            raise ValueError(
                f"n_rows = {self.n_rows} underdetermines the s = 0 system; "
                f"need >= max_fock + 1 = {self.max_fock + 1}")
        if isinstance(self.backend, CascadeConfig):
            if self.backend.n_top + 1 != self.n_rows:
                raise ValueError(f"the counter's {self.backend.n_top + 1} stages must be "
                                 f"the plan's n_rows = {self.n_rows} rows")
        elif self.backend != "exact":
            raise ValueError('backend must be "exact" or a CascadeConfig')
        # levels of the working space: the rows (n_rows >= M + 1) and the margin
        work = self.n_rows + fock.displacement_margin(self.gamma_abs)
        if work - 1 > fock.CUTOFF_CEILING:
            raise fock.CutoffError(f"working cutoff {work - 1} of n_rows = {self.n_rows} and "
                                   f"gamma_abs = {self.gamma_abs:g} > {fock.CUTOFF_CEILING}")
        object.__setattr__(self, "_work", work)

    @functools.cached_property
    def _D(self):
        """The real D(|gamma|) on the working space, built on first use."""
        return fock.displacement_matrix(self.gamma_abs, self._work)

    @property
    def phases(self):
        """The grid phi_j = 2 pi j / n_phases as a tuple of floats."""
        return tuple((2.0 * math.pi * np.arange(self.n_phases) / self.n_phases).tolist())


def default_gamma_abs(mean_photons):
    """Default displacement modulus sqrt(<n> + 1) of the nominal signal."""
    return math.sqrt(mean_photons + 1.0)


@functools.lru_cache(maxsize=4)
def _diagonals(dim):
    """(rows, cols, bounds, order) of the cells (m + s, m) of a dim x dim lower
    triangle taken diagonal by diagonal, s = 0 .. dim - 1 and m = 0 .. dim -
    1 - s: their rows and columns, the cells bounds[s] .. bounds[s + 1] - 1
    of diagonal s, and for each cell in the row-major order of
    fock._lower_triangle its place among them.  Read-only."""
    bounds = np.concatenate([[0], np.cumsum(np.arange(dim, 0, -1))])
    s = np.repeat(np.arange(dim), np.diff(bounds))
    cols = np.arange(bounds[-1]) - bounds[s]
    tri_rows, tri_cols, _ = fock._lower_triangle(dim)
    rows, order = cols + s, bounds[tri_rows - tri_cols] + tri_cols
    for a in (rows, cols, order):
        a.setflags(write=False)
    return rows, cols, tuple(bounds.tolist()), order


def _diagonal_kernel(D, s, n_rows, dim):
    """K_s[n, m] = D[n, m+s] D[n, m] for n < n_rows and m < dim - s.

    With the real D = D(|gamma|) this is A_{m+s,m,n}(|gamma|): the weight of
    nu_{m+s,m} in row n of the displaced distribution at phase 0.
    """
    return D[:n_rows, s:dim] * D[:n_rows, :dim - s]


def _displaced_probabilities(nu, plan):
    """diag(D(g_j) nu D(g_j)^+) with g_j = |gamma| e^{i phi_j}, one row per phase.

    Rows run over the plan's whole working space, from its displacement
    matrix; nu must have max_fock + 1 levels.  Each row must be finite and
    leak at most 1e-6 past the working cutoff, and passes the guards of
    fock.photon_distribution: real, nonnegative (tiny negatives clamped) and
    summing to at most 1.
    """
    nu = fock._square_matrix(nu)
    dim = nu.shape[0]
    if dim != plan.max_fock + 1:
        raise ValueError(f"state has {dim} levels, plan needs max_fock + 1 = "
                         f"{plan.max_fock + 1}")
    D, work, gamma_abs, phases = plan._D, plan._work, plan.gamma_abs, plan.phases
    rows, cols, bounds, _ = _diagonals(dim)
    # the lower diagonals, and the upper ones too, so that a non-Hermitian nu
    # shows as an imaginary residue instead of being symmetrised away: real
    # and imaginary parts as four real columns, one product per diagonal
    lower, upper = nu[rows, cols], nu[cols, rows]
    diagonals = np.stack([lower.real, upper.real, lower.imag, upper.imag], axis=1)
    sums = np.empty((dim, work, 4))
    for s in range(dim):
        np.matmul(_diagonal_kernel(D, s, work, dim), diagonals[bounds[s]:bounds[s + 1]],
                  out=sums[s])
    # B[dim - 1 + s] = B_s, and B_{-s} from the upper diagonals
    B = np.empty((2 * dim - 1, work), dtype=complex)
    B.real[dim - 1:], B.imag[dim - 1:] = sums[:, :, 0], sums[:, :, 2]
    B.real[:dim], B.imag[:dim] = sums[::-1, :, 1], sums[::-1, :, 3]
    del sums  # freed before P is formed: it would raise the peak
    P = np.exp(-1j * np.outer(phases, np.arange(1 - dim, dim))) @ B
    bad = np.flatnonzero(~np.isfinite(P).all(axis=1))
    if bad.size:
        raise fock.NumericalError(
            f"displacement by |gamma|={gamma_abs:.4g} at phase {phases[bad[0]]:.6g} gave "
            "non-finite probabilities; the input state is not finite")
    # the displacement is unitary, so a deficit relative to the input trace
    # is probability pushed past the working cutoff
    fock._check_leak(np.trace(nu).real - P.real.sum(axis=1), gamma_abs, plan.n_rows,
                     work - plan.n_rows, 1e-6)
    return fock._checked_probabilities(P)


def measure_distributions(nu, plan):
    """Distribution matrix P[j, n] over the plan's phase grid (rows = phases)
    of a state nu of max_fock + 1 levels.

    The exact backend returns the displaced diagonals.  A CascadeConfig
    backend instead estimates each with its own samples and update rule,
    phase j seeded with derive_seeds(rng_seed, [j]), all phases sharing its
    response matrix on the working space.
    """
    P = _displaced_probabilities(nu, plan)
    counter, rows = plan.backend, plan.n_rows
    if counter == "exact":
        return P[:, :rows].copy()
    R, S = response_matrix(counter, P.shape[1])
    seeds = derive_seeds(counter.rng_seed, range(plan.n_phases))
    return np.vstack([_estimate(p, p[:rows], R, S, int(seed), counter.samples).values
                      for p, seed in zip(P, seeds)])


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed nu plus per-diagonal least-squares diagnostics.

    nu_hat is Hermitian bit for bit and NOT renormalized; its trace is
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
    if measured.ndim != 2:
        raise ValueError(f"measured must be a (phase, n) matrix, got shape {measured.shape}")
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
    D = plan._D
    _, _, bounds, order = _diagonals(M + 1)
    # every phase-Fourier component s = 0..M in one product, as real and
    # imaginary parts: every kernel K_s is real, so each s is a real
    # least-squares problem with two right-hand sides, targets[s]
    angles = np.outer(np.arange(M + 1), plan.phases)
    targets = np.vstack([np.cos(angles), np.sin(angles)]) @ measured[:, :rows] / plan.n_phases
    targets = targets.reshape(2, M + 1, rows).transpose(1, 2, 0)

    # the loop holds the solve, and the product of K_s with its solution,
    # so that no K_s outlives its turn: holding them all raised the peak
    # memory of a max_fock 40 reconstruction from 0.4 to 1.0 MB
    solutions = np.empty((bounds[-1], 2))  # re and im of nu_{m+s,m}, diagonal by diagonal
    fitted = np.empty((M + 1, rows, 2))
    spectra = []
    for s in range(M + 1):
        kernel, cells = _diagonal_kernel(D, s, rows, M + 1), slice(bounds[s], bounds[s + 1])
        solutions[cells], _, _, singvals = np.linalg.lstsq(kernel, targets[s], rcond=None)
        np.matmul(kernel, solutions[cells], out=fitted[s])
        spectra.append(singvals)

    residuals = np.sqrt(((fitted - targets) ** 2).sum(axis=(1, 2)))
    top, low = np.array([(sv[0], sv[-1]) for sv in spectra]).T
    conditions = np.full(M + 1, math.inf)
    np.divide(top, low, out=conditions, where=low > 0)
    flags = []
    for s, (cond, sigma) in enumerate(zip(conditions.tolist(), low.tolist())):
        if cond > CONDITION_FLAG_LIMIT:
            flags.append(f"s={s}: rank-deficient system (condition {cond:.3g})")
        elif sigma < 1.0 / CONDITION_FLAG_LIMIT:
            # the data are probabilities, so 1/sigma_min bounds how far an
            # error at rounding level grows in the solution
            flags.append(f"s={s}: near-singular system (smallest singular value {sigma:.3g})")
    nu_hat = fock._hermitian(solutions.view(complex)[order, 0], M + 1)

    trace = float(np.trace(nu_hat).real)
    if not (TRACE_BAND[0] <= trace <= TRACE_BAND[1]):
        flags.append(f"trace {trace:.6f} outside {TRACE_BAND}")
    return ReconstructionResult(
        nu_hat=nu_hat, residual_norms=tuple(residuals.tolist()),
        condition_numbers=tuple(conditions.tolist()), trace=trace, flags=tuple(flags))

