"""Independent references the tests check the library against.

Each one computes what a library path computes, the long way: the cascade
as a walk of full conditional states, one trial at a time; its first-ON
counts from every trial's uniform at every stage; a displaced
state as the full product D rho D^+; a phase harmonic as a DFT over the
rows of a distribution matrix; the squeezed vacuum's distribution by the
ratio of neighbouring terms.  None of them is part of fockfilter.
"""

import math

import numpy as np

from fockfilter import fock
from fockfilter.cascade import TRACE_DRIFT_TOL, uniforms
from fockfilter.cavity import CavityParams
from fockfilter.filtering import MIN_OUTCOME_PROB, filter_pass


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
