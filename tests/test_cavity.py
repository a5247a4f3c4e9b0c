"""Cavity reflection/transmission amplitudes and the per-Fock lineshape."""

import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from fockfilter import cavity, fock


def sigma_direct(phi, tau):
    """Transmission straight from the input-output expression."""
    return tau / (1.0 - (1.0 - tau) * np.exp(1j * phi))


def test_transmission_at_antiresonance():
    # phi = pi: sigma = tau / (1 + (1 - tau)); for tau = 0.1 that is 0.1/1.9
    _, sigma = cavity.cavity_amplitudes(math.pi, 0.1)
    assert sigma.real == pytest.approx(0.05263157894736842, abs=1e-15)
    assert abs(sigma.imag) < 1e-16


def test_resonant_transmission_is_unity():
    kappa, sigma = cavity.cavity_amplitudes(0.0, 0.37)
    assert sigma == pytest.approx(1.0)
    assert abs(kappa) < 1e-15


@pytest.mark.parametrize("tau", [0.9, 0.5, 0.02, 1e-4])
def test_energy_conservation(tau):
    phi = np.linspace(-math.pi, math.pi, 41)
    kappa, sigma = cavity.cavity_amplitudes(phi, tau)
    assert_allclose(np.abs(kappa) ** 2 + np.abs(sigma) ** 2, 1.0, atol=1e-12)


def test_amplitudes_match_direct_formula(rng):
    phi = rng.uniform(-math.pi, math.pi, size=25)
    tau = 0.013
    kappa, sigma = cavity.cavity_amplitudes(phi, tau)
    assert_allclose(sigma, sigma_direct(phi, tau), rtol=1e-13)
    expect_kappa = math.sqrt(1.0 - tau) * (np.exp(1j * phi) - 1.0) \
        / (1.0 - (1.0 - tau) * np.exp(1j * phi))
    assert_allclose(kappa, expect_kappa, rtol=1e-13)


def test_total_phase_vanishes_exactly_on_target():
    params = cavity.CavityParams(tau=2e-4, psi=0.04, chi_t=0.01)
    assert cavity.total_phase(4, params) == 0.0
    # one component over: the phase is -chi_t up to a rounding ulp
    assert abs(cavity.total_phase(5, params) + 0.01) < 2e-17


def test_tuned_constructor():
    params = cavity.CavityParams.tuned(7, 1e-3, 0.1)
    assert params.n_star == pytest.approx(7.0)
    assert cavity.total_phase(7, params) == pytest.approx(0.0, abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        cavity.CavityParams(tau=0.0, psi=0.0, chi_t=0.1)
    with pytest.raises(ValueError):
        cavity.CavityParams(tau=1.0, psi=0.0, chi_t=0.1)
    with pytest.raises(ValueError):
        cavity.CavityParams(tau=0.5, psi=0.0, chi_t=0.0)
    with pytest.raises(ValueError):
        cavity.CavityParams(tau=0.5, psi=math.nan, chi_t=0.1)
    # psi and chi_t finite, but n* = psi / chi_t overflows
    with pytest.raises(ValueError, match="n\\*"):
        cavity.CavityParams(tau=0.5, psi=1e308, chi_t=1e-10)


@pytest.mark.parametrize("scan", [cavity.transmission_profile, cavity.resonant_components])
def test_n_max_lies_in_0_to_the_cutoff_ceiling(scan):
    # chi_t 8 has a period below one photon, where every n up to n_max resonates
    params = cavity.CavityParams(tau=0.5, psi=0.0, chi_t=8.0)
    assert len(scan(params, fock.CUTOFF_CEILING)) == fock.CUTOFF_CEILING + 1
    for n_max in (-1, fock.CUTOFF_CEILING + 1, 10 ** 10):
        with pytest.raises(ValueError, match="n_max must lie in"):
            scan(params, n_max)


def test_profile_peaks_at_target_and_matches_amplitudes():
    params = cavity.CavityParams.tuned(4, 2e-4, 0.01)
    prof = cavity.transmission_profile(params, 30)
    assert prof.shape == (31,)
    assert int(np.argmax(prof)) == 4
    assert prof[4] == pytest.approx(1.0)
    # same numbers via the amplitude route
    _, sigma = cavity.mode_amplitudes(params, 30)
    assert_allclose(prof, np.abs(sigma) ** 2, rtol=1e-12)
    # one component off-target the transmission has collapsed to ~tau^2/chi_t^2
    assert prof[3] == pytest.approx(3.9992e-4, rel=1e-4)
    assert prof[3] < 5e-4
    # third, fully independent route for the same number
    s = sigma_direct(cavity.total_phase(3, params), params.tau)
    assert prof[3] == pytest.approx(abs(s) ** 2, rel=1e-12)


def test_profile_is_the_lineshape_formula_bit_for_bit_where_it_is_finite():
    g = np.random.default_rng(11)
    for _ in range(300):
        tau = float(10.0 ** g.uniform(-150.0, -0.01))
        chi_t = float(g.uniform(0.01, 3.0))
        params = cavity.CavityParams(tau=tau, psi=chi_t * float(g.uniform(-5.0, 45.0)),
                                     chi_t=chi_t)
        s2 = np.sin(cavity.total_phase(np.arange(41), params) / 2.0) ** 2
        formula = 1.0 / (1.0 + 4.0 * (1.0 - tau) / tau ** 2 * s2)
        assert np.array_equal(cavity.transmission_profile(params, 40), formula)


@pytest.mark.parametrize("tau", [1e-160, 1e-200, 5e-324])
def test_profile_below_the_smallest_linewidth_is_one_on_resonance_and_zero_off(tau):
    # 4 (1 - tau) / tau^2 overflows: tau^2 is subnormal at 1e-160, where the
    # resonant n read NaN (inf * 0), and 0 at 1e-200, which divided by zero
    params = cavity.CavityParams.tuned(4, tau, 0.01)
    prof = cavity.transmission_profile(params, 30)
    assert prof[4] == 1.0
    assert not np.delete(prof, 4).any()
    assert cavity.resonant_components(params, 30) == [4]


def test_linewidth_is_about_tau():
    # half-transmission point of |sigma(phi)|^2 sits at phi ~ tau
    for tau in (0.01, 0.001):
        def half(phi):
            _, s = cavity.cavity_amplitudes(phi, tau)
            return abs(s) ** 2 - 0.5
        phi_half = brentq(half, tau / 10, 10 * tau)
        assert 0.9 < phi_half / tau < 1.1


def test_profile_periodic_in_photon_number():
    params = cavity.CavityParams(tau=1e-3, psi=math.pi / 2, chi_t=math.pi / 2)
    prof = cavity.transmission_profile(params, 13)
    assert_allclose(prof[1], prof[5], rtol=1e-10)
    assert_allclose(prof[5], prof[9], rtol=1e-10)
    assert_allclose(prof[9], prof[13], rtol=1e-10)


def test_profile_decays_monotonically_within_half_period():
    params = cavity.CavityParams.tuned(10, 1e-3, 0.02)
    prof = cavity.transmission_profile(params, 20)
    right = prof[10:]
    assert np.all(np.diff(right) < 0)
    left = prof[:11]
    assert np.all(np.diff(left) > 0)


def test_resonant_components_single():
    params = cavity.CavityParams.tuned(4, 2e-4, 0.01)
    assert cavity.resonant_components(params, 30) == [4]


def test_resonant_components_periodic_set():
    params = cavity.CavityParams(tau=1e-4, psi=math.pi / 2, chi_t=math.pi / 2)
    assert cavity.resonant_components(params, 13) == [1, 5, 9, 13]
    assert cavity.resonant_components(params, 12) == [1, 5, 9]


def test_resonant_components_detuned_is_empty():
    # psi/chi_t = 4.5 sits exactly between integers: nothing within half a photon
    params = cavity.CavityParams(tau=1e-3, psi=0.045, chi_t=0.01)
    assert cavity.resonant_components(params, 30) == []


def test_resonant_components_below_n_star():
    # n* = 1 + 2 pi / chi_t: the comb tooth one period down sits on n = 1
    params = cavity.CavityParams(tau=1e-3, psi=2 * math.pi + 0.1, chi_t=0.1)
    assert cavity.resonant_components(params, 70) == [1, 64]
    assert int(np.argmax(cavity.transmission_profile(params, 70))) == 1


def test_resonant_components_ends_when_a_period_is_below_an_ulp_of_n_star():
    # n* = 1e40 and a period of 6.3e10: n* + j * period never moves from n*,
    # so a scan that stops only past n_max would never stop
    params = cavity.CavityParams(tau=1e-2, psi=1e30, chi_t=1e-10)
    found = []
    scan = threading.Thread(target=lambda: found.append(cavity.resonant_components(params, 30)),
                            daemon=True)
    scan.start()
    scan.join(timeout=10.0)
    assert not scan.is_alive()
    assert len(found) == 1
    # neighbouring centers round to one float there: n = 0 must not repeat
    assert found[0] == sorted(set(found[0]))


def test_resonant_components_lists_each_n_once_below_a_photon_period():
    # a period of 0.79 photons puts two centers within 1/2 of n = 2 and n = 5
    params = cavity.CavityParams(tau=0.1, psi=0.0, chi_t=8.0)
    assert cavity.resonant_components(params, 6) == list(range(7))


def _shown_by_profile(params, n_max):
    """The n whose transmission exceeds that half a photon off a center."""
    tau = params.tau
    half = 1.0 / (1.0 + 4.0 * (1.0 - tau) / tau ** 2 * math.sin(params.chi_t / 4.0) ** 2)
    return np.flatnonzero(cavity.transmission_profile(params, n_max) > half).tolist()


def test_unresolvable_centers_give_what_the_profile_shows():
    # n* = 1e40: an ulp of n* is 1e24 photons, so no center n* + j * period can
    # be placed to a photon; every n sees the phase psi, where the peak
    # transmission is 2.5e-5, so nothing is resonant
    params = cavity.CavityParams(tau=1e-2, psi=1e30, chi_t=1e-10)
    assert cavity.transmission_profile(params, 30).max() < 3e-5
    assert cavity.resonant_components(params, 30) == []


@pytest.mark.parametrize("psi, expected", [
    (1e30, []),                               # transmission 2.8e-3 at every n
    (1.000000000000007e30, list(range(13))),  # transmission 0.55 at every n
])
def test_unresolvable_centers_follow_the_phase_of_psi(psi, expected):
    params = cavity.CavityParams(tau=0.1, psi=psi, chi_t=2.0)
    assert math.ulp(params.n_star) >= cavity.CENTER_ULP_LIMIT
    assert cavity.resonant_components(params, 12) == expected == _shown_by_profile(params, 12)


def test_unresolvable_centers_below_the_smallest_linewidth():
    # n* = 2^50, whose ulp is 1/4 photon: the profile decides, against the
    # transmission half a photon off a center, which at tau = 1e-200 (tau^2
    # rounds to 0) divided by zero.  No n up to 40 sees an exactly zero
    # phase, so at that linewidth none transmits
    params = cavity.CavityParams.tuned(2 ** 50, 1e-200, 0.1)
    assert math.ulp(params.n_star) >= cavity.CENTER_ULP_LIMIT
    assert cavity.resonant_components(params, 40) == []


def test_center_scan_agrees_with_the_profile_where_centers_resolve():
    g = np.random.default_rng(7)
    for _ in range(2000):
        chi_t = float(g.uniform(0.01, 6.0))
        n_star = float(g.integers(0, 40)) + float(g.uniform(-0.3, 0.3))
        params = cavity.CavityParams(tau=float(g.uniform(1e-4, 0.5)), psi=chi_t * n_star,
                                     chi_t=chi_t)
        assert cavity.resonant_components(params, 40) == _shown_by_profile(params, 40)
