"""Independent references and checks the tests hold the library to.

Each reference computes what a library path computes, the long way: the
cascade as a walk of full conditional states, one trial at a time; its
first-ON counts from every trial's uniform at every stage; a displaced
state as the full product D rho D^+; a phase harmonic as a DFT over the
rows of a distribution matrix; the squeezed vacuum's distribution by the
ratio of neighbouring terms.  Beside them sit the uniforms the counter's
integer thresholds stand for, the analytic first-ON pair from the public
response matrix, the good-cavity closed forms of one filter pass, which the
exact pass approaches as tau / chi_t -> 0, and the check that a returned
matrix is a density matrix.  None of them is part of fockfilter.
"""

import math

import numpy as np

from fockfilter import fock
from fockfilter.cascade import TRACE_DRIFT_TOL, _stage_bits, derive_seeds, response_matrix
from fockfilter.cavity import CavityParams
from fockfilter.filtering import MIN_OUTCOME_PROB, filter_pass

# validate_density_matrix: largest |nu - nu^+|, largest |trace - 1| and the
# smallest eigenvalue tolerated
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = -1e-9


def uniforms(seed, trials, n_stages):
    """Uniforms u[i, k] in [0, 1) for trial trials[i] at stage k.

    The top 53 bits of the raw draw (`cascade._stage_bits`) of stage k of
    the trial's derived seed, times 2^-53: the uniform that the counter's
    integer threshold of stage k compares without forming it.
    """
    z = _stage_bits(derive_seeds(seed, trials)[:, None], np.arange(n_stages, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def first_on_distribution(rho, cfg):
    """Analytic first-ON distribution R @ d and all-OFF residual S[K] @ d of
    the cascade cfg, for d = diag(rho), from the public response matrix.

    The same numbers as `estimate_photon_distribution(...).expected` and
    `.all_off_expected`, bit for bit, with no trial drawn and no input check.
    """
    d = np.asarray(rho).diagonal().real
    R, S = response_matrix(cfg, d.size)
    return R @ d, float((S @ d)[-1])


def stage_update(state, cfg, nk):
    """(p_on, state_on, p_off, state_off) for the stage of cfg tuned to n = nk.

    Probabilities are raw traces, so p_on + p_off equals the trace of the
    input state — the completeness check that catches drift mid-cascade.
    """
    if cfg.update_rule == "exact":
        res = filter_pass(state, CavityParams.tuned(nk, cfg.tau, cfg.chi_t), cfg.probe)
        return res.p_on, res.state_on, res.p_off, res.state_off
    # good-cavity projections: a click collapses onto |n_k><n_k|, silence
    # removes the n_k component and drops coherences
    d = state.diagonal()
    p_on = float(d[nk].real) if nk < d.size else 0.0
    p_off = d.sum().real - p_on
    on = off = None
    if p_on >= MIN_OUTCOME_PROB:
        on = np.zeros(state.shape, dtype=complex)
        on[nk, nk] = 1.0
    if p_off >= MIN_OUTCOME_PROB:
        off = np.diag(np.where(np.arange(d.size) == nk, 0.0, d.real) / p_off).astype(complex)
    return p_on, on, p_off, off


def run_cascade_trial(rho, cfg, trial):
    """First-ON stage of one Monte Carlo walk for trial index `trial`, or None.

    Stage k clicks when u(cfg.rng_seed, trial, k) < p_on, the same uniform
    the estimator gives that trial.  The walk stops at the first click; the
    conditional state after each OFF feeds the next stage.  Raises
    NumericalError if probability completeness drifts past TRACE_DRIFT_TOL
    (or turns non-finite) at any stage or the drawn outcome has no
    conditional state.
    """
    u = uniforms(cfg.rng_seed, [trial], cfg.n_top + 1)[0]
    state = np.asarray(rho, dtype=complex)
    for k in range(cfg.n_top + 1):
        p_on, _, p_off, state_off = stage_update(state, cfg, k)
        drift = abs(p_on + p_off - 1.0)
        if not drift <= TRACE_DRIFT_TOL:  # NaN fails too
            raise fock.NumericalError(f"walk stage {k}: completeness drifted by {drift:.3e}")
        if u[k] < p_on:
            return k
        if state_off is None:
            raise fock.NumericalError(
                f"walk stage {k}: drew an outcome of probability < {MIN_OUTCOME_PROB:g}")
        state = state_off
    return None


def count_first_on(q, seed, samples):
    """First-ON counts of trials 0..samples-1 from the full (trials, stages)
    matrix of uniforms; the last slot counts no click.

    Trial i clicks first at the smallest k with u(seed, i, k) < q_k, every
    uniform formed as a double and compared as one.
    """
    n = len(q)
    hit = uniforms(seed, np.arange(samples), n) < q
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), n)
    return np.bincount(first, minlength=n + 1)


def displace(rho, gamma, n_out=0, margin=None, max_lost=1e-6):
    """D(gamma) rho D(gamma)^+ computed at an enlarged working cutoff.

    The product is built at N_work = N + margin (default
    fock.displacement_margin(gamma)) and cropped to n_out rows/columns;
    n_out=0 keeps the input dimension, n_out=None returns the full
    working-cutoff matrix.  If more than max_lost probability leaks past the
    working cutoff, CutoffError says what that cutoff is made of; a non-finite
    product raises NumericalError.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if n_out == 0:
        n_out = dim
    if margin is None:
        margin = fock.displacement_margin(gamma)
    rows = dim if n_out is None else max(dim, n_out)
    work = rows + int(margin)
    D = fock.displacement_matrix(gamma, work)
    big = np.zeros((work, work), dtype=complex)
    big[:dim, :dim] = rho
    out = D @ big @ D.conj().T
    if not np.isfinite(out).all():
        raise fock.NumericalError(f"displacement by |gamma|={abs(gamma):.4g} is not finite")
    # a unitary displacement preserves the trace, so any deficit relative to
    # the input trace is probability pushed past the working cutoff
    fock._check_leak(np.trace(rho).real - np.trace(out).real, gamma, rows, int(margin),
                     max_lost)
    return out if n_out is None else out[:n_out, :n_out]


def phase_fourier(P_matrix, s):
    """s-th phase-Fourier component: (1/N_phi) sum_j e^{+i s phi_j} P[j, :].

    Rows of P_matrix follow the uniform grid phi_j = 2 pi j / N_phi.  The +
    sign makes the component equal sum_m A_{m+s,m,n}(|gamma|) nu_{m+s,m},
    i.e. it isolates the s-th lower diagonal of nu.
    """
    P_matrix = np.asarray(P_matrix)
    n_phi = P_matrix.shape[0]
    phases = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return (np.exp(1j * s * phases) @ P_matrix) / n_phi


def squeezed_distribution(mean_n, n_max):
    """P(n) of the squeezed vacuum with sinh^2 r = mean_n, on n = 0 .. n_max.

    By the ratio recurrence p_0 = 1/cosh r, p_{2m+2} = p_{2m} (2m+1)/(2m+2)
    tanh^2 r, with every odd p_n zero: no log factorials.
    """
    r = math.asinh(math.sqrt(mean_n))
    ratio = math.tanh(r) ** 2
    p = np.zeros(n_max + 1)
    p[0] = 1.0 / math.cosh(r)
    for m in range(n_max // 2):
        p[2 * m + 2] = p[2 * m] * (2 * m + 1) / (2 * m + 2) * ratio
    return p


def filter_pass_asymptotic(rho, cav, probe, n_star):
    """Good-cavity (tau << chi_t) closed forms for the ON outcome.

    Returns (p_on_approx, state_on_approx) with

        p_on_approx = nu_{n*n*} + c sum_{p != n*} nu_pp / (n* - p)^2,
        c = eta |a|^2 tau^2 / chi_t^2,

    and the ON state built from the n* projector plus the off-resonant
    block c e^{i Phi_nk} nu_nk / ((n* - n)(n* - k)), normalized by its trace.
    Phi_nk = (|a|^2 tau / chi_t)(1/(n* - k) - 1/(n* - n)) is the residual
    cross-Kerr phase the probe imprints on off-resonant coherences; it is a
    pure per-mode phase but is not negligible unless |a|^2 tau << chi_t.

    n_star is explicit (not inferred from psi/chi_t) so detuned cavities
    remain testable; it must be an integer level 0..dim - 1 of rho, and
    validity of the expansion is the caller's concern.  The state is formed
    on its lower triangle and mirrored (fock._hermitian), as the exact pass's.
    """
    rho = fock._square_matrix(rho)
    dim = rho.shape[0]
    n_star = fock._size(n_star, "n_star", high=dim - 1)
    a2 = abs(probe.alpha) ** 2
    c = probe.eta * a2 * cav.tau ** 2 / cav.chi_t ** 2
    idx = np.arange(dim)
    off = idx != n_star
    inv = np.zeros(dim)
    inv[off] = 1.0 / (n_star - idx[off])
    # per-mode factor 1/(n*-n) with the residual probe phase attached
    w = inv * np.exp(-1j * (a2 * cav.tau / cav.chi_t) * inv)

    p_on_approx = float(rho[n_star, n_star].real + c * (rho.diagonal().real[off] * inv[off] ** 2).sum())

    bracket = c * np.outer(w, w.conj()) * rho
    bracket[n_star, :] = 0.0
    bracket[:, n_star] = 0.0
    bracket[n_star, n_star] = rho[n_star, n_star].real
    tr = np.trace(bracket).real
    if not (math.isfinite(p_on_approx) and math.isfinite(tr)):
        raise fock.NumericalError(
            f"good-cavity pass gave non-finite p_on = {p_on_approx}, ON trace = {tr}; "
            "the input state is not finite")
    if not tr >= MIN_OUTCOME_PROB:
        return p_on_approx, None
    return p_on_approx, fock._hermitian(bracket[fock._lower_triangle(dim)[:2]] / tr, dim)


def validate_density_matrix(rho):
    """Raise ValueError unless rho is finite, Hermitian, unit-trace and PSD.

    Eigenvalues in (PSD_TOL, 0) are tolerated as-is, never clamped.
    """
    rho = fock._square_matrix(rho)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has a non-finite cell")
    herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
    if not herm <= HERMITIAN_TOL:
        raise ValueError(f"not Hermitian: max |nu - nu^+| = {herm:.3e} > {HERMITIAN_TOL:g}")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"trace {tr!r} deviates from 1 by more than {TRACE_TOL:g}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if not lo >= PSD_TOL:
        raise ValueError(f"not PSD: smallest eigenvalue {lo:.3e} < {PSD_TOL:g}")
