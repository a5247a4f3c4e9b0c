"""Ring-cavity transfer amplitudes and the resonance transmission profile.

The cavity is a passive two-port closed by a beam splitter of transmissivity
tau; a cross-Kerr medium inside gives the circulating field a phase that
grows linearly with the signal photon number, phi_n = psi - chi_t * n.  For
a phase shift phi the reflected/transmitted amplitudes of a probe entering
the input port are

    kappa(phi) = sqrt(1 - tau) (e^{i phi} - 1) / (1 - (1 - tau) e^{i phi})
    sigma(phi) = tau / (1 - (1 - tau) e^{i phi})

with |kappa|^2 + |sigma|^2 = 1.  Transmission |sigma_n|^2 is a comb of
near-Lorentzian peaks of unit height centered on n = n* + 2 pi j / chi_t,
n* = psi / chi_t, with half-width ~tau in phi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import _size


@dataclass(frozen=True)
class CavityParams:
    """Beam-splitter transmissivity tau, tunable phase psi, Kerr phase chi_t.

    tau is dimensionless in (0, 1); psi and chi_t are radians (chi_t is the
    Kerr phase acquired per signal photon, > 0).
    """

    tau: float
    psi: float
    chi_t: float

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie strictly in (0, 1), got {self.tau}")
        if not (self.chi_t > 0.0 and math.isfinite(self.chi_t)):
            raise ValueError(f"chi_t must be finite and > 0, got {self.chi_t}")
        if not math.isfinite(self.psi):
            raise ValueError("psi must be finite")
        if not math.isfinite(self.psi / self.chi_t):
            raise ValueError(f"n* = psi / chi_t = {self.psi} / {self.chi_t} is not finite")

    @property
    def n_star(self):
        """Real-valued resonance center psi / chi_t."""
        return self.psi / self.chi_t

    @classmethod
    def tuned(cls, n_star, tau, chi_t):
        """Cavity tuned so that the n_star Fock component is resonant."""
        return cls(tau=tau, psi=chi_t * n_star, chi_t=chi_t)


def cavity_amplitudes(phi, tau):
    """Reflected and transmitted amplitudes (kappa, sigma) at phase phi."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly in (0, 1), got {tau}")
    rot = np.exp(1j * np.asarray(phi, dtype=float))
    den = 1.0 - (1.0 - tau) * rot
    kappa = np.sqrt(1.0 - tau) * (rot - 1.0) / den
    sigma = tau / den
    return kappa, sigma


def total_phase(n, params):
    """Cavity phase seen with n signal photons: psi - chi_t * n."""
    return params.psi - params.chi_t * np.asarray(n, dtype=float)


def mode_amplitudes(params, n_max):
    """(kappa_n, sigma_n) arrays for photon numbers 0..n_max."""
    n_max = _size(n_max, "n_max")
    return cavity_amplitudes(total_phase(np.arange(n_max + 1), params), params.tau)


def transmission_profile(params, n_max):
    """|sigma_n|^2 for n = 0..n_max from the explicit lineshape formula.

    |sigma_n|^2 = [1 + 4 (1-tau)/tau^2 sin^2((psi - chi_t n)/2)]^{-1}
    """
    n_max = _size(n_max, "n_max")
    phi = total_phase(np.arange(n_max + 1), params)
    s2 = np.sin(phi / 2.0) ** 2
    return 1.0 / (1.0 + 4.0 * (1.0 - params.tau) / params.tau ** 2 * s2)


# an ulp of n* from which the centers n* + 2 pi j / chi_t, each a few ulps
# off, no longer resolve the half photon around each n (n* >= 2^48)
CENTER_ULP_LIMIT = 2.0 ** -4


def resonant_components(params, n_max):
    """Integers n in [0, n_max] within 1/2 of a resonance n* + 2 pi j / chi_t,
    each once, in ascending order.

    A period 2 pi / chi_t below one photon puts a resonance within 1/2 of
    every n.  Otherwise the scan runs from the smallest j whose center is
    >= -1/2, which is negative when n* lies a period or more above 0, to the
    last j whose center is <= n_max + 1/2, both found before the scan.  When
    an ulp of n* is CENTER_ULP_LIMIT or more, the centers cannot be placed
    to a photon, and the n are those the transmission profile shows: the n
    whose transmission exceeds that of a photon half a photon off a center.
    A detuned cavity (non-integer n*) may yield an empty list.
    """
    n_max = _size(n_max, "n_max")
    period = 2.0 * math.pi / params.chi_t
    if period < 1.0:
        return list(range(n_max + 1))
    if math.ulp(params.n_star) >= CENTER_ULP_LIMIT:
        tau = params.tau
        half = 1.0 / (1.0 + 4.0 * (1.0 - tau) / tau ** 2 * math.sin(params.chi_t / 4.0) ** 2)
        return np.flatnonzero(transmission_profile(params, n_max) > half).tolist()
    first = math.ceil((-0.5 - params.n_star) / period)
    last = math.floor((n_max + 0.5 - params.n_star) / period)
    found = []
    # one j past the last, in case rounding put a center <= n_max + 1/2 there;
    # the range check drops any center beyond it.  Centers never decrease
    # with j, but a period below one ulp of n* can round two to the same n.
    for j in range(first, last + 2):
        center = params.n_star + j * period
        n = round(center)
        if 0 <= n <= n_max and abs(n - center) < 0.5 and (not found or n > found[-1]):
            found.append(int(n))
    return found
