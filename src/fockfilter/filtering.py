"""Single-pass conditional Fock filtering.

A coherent probe alpha enters the ring cavity while the signal state rides
the cross-Kerr medium; an ON/OFF detector of efficiency eta watches the
transmitted port.  Tracing the probe leaves, for each signal pair (n, m),

    ON  element ~ nu_nm exp(|a|^2 [k_n k_m* + s_n s_m* - 1]) (1 - e^{-eta |a|^2 s_n s_m*})
    OFF element ~ nu_nm exp(|a|^2 [k_n k_m* + (1 - eta) s_n s_m* - 1])

where (k_n, s_n) are the cavity amplitudes at phase psi - chi_t n.  The
|a|^2 prefactor is folded into a single exponent whose real part is <= 0 by
|k|^2 + |s|^2 = 1 (Cauchy-Schwarz), so the computation never overflows even
at |alpha| = 100.  Both conditional states are renormalized; their weighted
sum preserves the input diagonal (photon-number nondemolition).

The factors and both states are formed on the lower triangle n >= m and
mirrored, so every state a pass returns is Hermitian bit for bit, with a
real diagonal, and the pass takes dim(dim+1)/2 complex exponentials per
factor instead of dim^2 (at dim 121, ~0.75 of the time of the pass on
whole matrices on a 2-vCPU VM).  The upper triangle of the input is not
read.

Because each outcome scales element (n, m) by its own factor and its
probability sums the diagonal alone, the outcome probabilities depend on
diag(nu) only, through the diagonal exponents G(n, n), G_off(n, n).  The
cascade's response matrix (cascade.response_matrix) is built from those.

The good-cavity (tau << chi_t) closed forms and the multi-resonance
superposition regime live here as well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cavity import mode_amplitudes, resonant_components
from . import fock

# Conditioning on an outcome less likely than this returns no state at all.
MIN_OUTCOME_PROB = 1e-300


@dataclass(frozen=True)
class ProbeDetector:
    """Coherent probe amplitude alpha and ON/OFF detector efficiency eta."""

    alpha: complex
    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("alpha must be finite")
        if abs(a) > 100.0:
            raise ValueError(f"|alpha| = {abs(a):g} exceeds the supported range (<= 100)")


@dataclass(frozen=True)
class FilterResult:
    """Outcome probabilities and both conditional states of one cavity pass.

    A conditional state is None when its outcome probability is numerically
    zero (< 1e-300): conditioning on an impossible outcome is undefined.
    """

    p_on: float
    p_off: float
    state_on: np.ndarray | None
    state_off: np.ndarray | None


def _folded_exponents(kk, ss, a2, eta):
    """(G, G_off) from the products kk = k_n k_m* and ss = s_n s_m*.

    G     = |a|^2 (kk + ss - 1)          (unconditional)
    G_off = G - eta |a|^2 ss             (OFF outcome)

    a2 = |a|^2 and eta are numbers.  Both exponents have real part <= 0;
    the ON factor is e^G - e^G_off.
    """
    G = a2 * (kk + ss - 1.0)
    return G, G - eta * a2 * ss


def _element_exponents(cav, probe, n_max):
    """Folded exponents (G, G_off) of the signal pairs (n, m) of the lower
    triangle n >= m, in the order of fock._lower_triangle(n_max + 1)."""
    rows, cols, _ = fock._lower_triangle(n_max + 1)
    kappa, sigma = mode_amplitudes(cav, n_max)
    return _folded_exponents(kappa[rows] * kappa[cols].conj(),
                             sigma[rows] * sigma[cols].conj(),
                             abs(probe.alpha) ** 2, probe.eta)


def _outcomes(nu, G, G_off, diagonal):
    """Unnormalized (ON, OFF) elements and their probabilities (traces), on
    the cells of one triangle; `diagonal` indexes its diagonal cells.

    Raises NumericalError when a probability is not finite, which only a
    non-finite input can cause (Re G, Re G_off <= 0).
    """
    off_factor = np.exp(G_off)
    on_factor = np.exp(G) - off_factor
    on_raw = nu * on_factor
    off_raw = nu * off_factor
    p_on, p_off = on_raw[diagonal].sum().real, off_raw[diagonal].sum().real
    if not (math.isfinite(p_on) and math.isfinite(p_off)):
        raise fock.NumericalError(
            f"filter pass gave non-finite outcome probabilities "
            f"(p_on = {p_on}, p_off = {p_off}); the input state is not finite")
    return on_raw, p_on, off_raw, p_off


def filter_pass(rho, cav, probe):
    """Exact conditional output states of one filter pass on density matrix rho.

    The outcome factors and states are formed on the lower triangle (n >= m)
    and mirrored, so both states are Hermitian bit for bit, with a real
    diagonal, whatever rounding rho's upper triangle carries.
    """
    rho = fock._square_matrix(rho)
    dim = rho.shape[0]
    rows, cols, diagonal = fock._lower_triangle(dim)
    G, G_off = _element_exponents(cav, probe, dim - 1)
    on_raw, p_on, off_raw, p_off = _outcomes(rho.ravel()[rows * dim + cols], G, G_off,
                                             diagonal)
    return FilterResult(p_on=max(p_on, 0.0), p_off=max(p_off, 0.0),
                        state_on=_normalize(on_raw, p_on, dim),
                        state_off=_normalize(off_raw, p_off, dim))


def _normalize(lower, prob, dim):
    """The Hermitian state whose lower triangle is lower / prob; None when
    prob < MIN_OUTCOME_PROB."""
    if prob < MIN_OUTCOME_PROB:
        return None
    return fock._hermitian(lower / prob, dim)


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
    validity of the expansion is the caller's concern.
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
    return p_on_approx, _normalize(bracket[fock._lower_triangle(dim)[:2]], tr, dim)


@dataclass(frozen=True)
class SuperpositionReport:
    """Resonant Fock set, ON probability, conditional state and its purity."""

    resonant_set: tuple
    p_on: float
    state_on: np.ndarray
    purity: float


def superposition_synthesis_check(rho, cav, probe):
    """Filter a state whose support spans several cavity resonances.

    With chi_t large enough that two or more resonances n1, n2, ... fall
    inside the truncated support, a click projects onto that whole resonant
    set; for a coherent input the result is (to O(tau/chi_t)) the pure
    superposition of the resonant components, while input states without
    coherences keep purity < 1.
    """
    rho = fock._square_matrix(rho)
    resonant = resonant_components(cav, rho.shape[0] - 1)
    if len(resonant) < 2:
        raise ValueError(
            f"only {len(resonant)} resonance(s) {resonant} inside support "
            f"0..{rho.shape[0] - 1}; superposition synthesis needs at least 2 "
            f"(period 2*pi/chi_t = {2 * math.pi / cav.chi_t:.4g})")
    result = filter_pass(rho, cav, probe)
    if result.state_on is None:
        raise fock.NumericalError("ON outcome has numerically zero probability")
    return SuperpositionReport(
        resonant_set=tuple(resonant),
        p_on=result.p_on,
        state_on=result.state_on,
        purity=fock.purity(result.state_on),
    )
