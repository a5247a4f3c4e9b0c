"""Conditional single-pass filter: exact channel, asymptotics, superpositions.

The exact channel is checked element-by-element against a plain scalar
reimplementation, then against physics invariants (completeness, diagonal
preservation, positivity) and frozen reference numbers for the coherent
input / tau ladder scenario.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockfilter import cavity, filtering, fock
from fockfilter.cavity import CavityParams
from fockfilter.filtering import ProbeDetector, filter_pass
from reference import filter_pass_asymptotic, validate_density_matrix


def scalar_channel(rho, cav, probe):
    """Loop-based unnormalized ON/OFF matrices, written independently."""
    dim = rho.shape[0]
    on = np.zeros((dim, dim), dtype=complex)
    off = np.zeros((dim, dim), dtype=complex)
    a2 = abs(probe.alpha) ** 2
    amp = [cavity.cavity_amplitudes(cav.psi - cav.chi_t * n, cav.tau) for n in range(dim)]
    for n in range(dim):
        for m in range(dim):
            kn, sn = amp[n]
            km, sm = amp[m]
            g = a2 * (kn * np.conj(km) + sn * np.conj(sm) - 1.0)
            g_off = g - probe.eta * a2 * sn * np.conj(sm)
            off[n, m] = rho[n, m] * np.exp(g_off)
            on[n, m] = rho[n, m] * (np.exp(g) - np.exp(g_off))
    return on, off


FIG2_PROBE = ProbeDetector(alpha=20.0, eta=0.8)


def fig2_cavity(tau):
    return CavityParams(tau=tau, psi=0.04, chi_t=0.01)


@pytest.fixture(scope="module")
def coherent_input():
    return fock.make_state(fock.StateSpec.coherent(2.0), cutoff=30, tail=None)


def test_channel_matches_scalar_oracle(random_state):
    rho = random_state(7, seed=5)
    cav = CavityParams(tau=0.004, psi=0.3, chi_t=0.07)
    probe = ProbeDetector(alpha=8.0 + 3.0j, eta=0.6)
    on, off = scalar_channel(rho, cav, probe)
    res = filter_pass(rho, cav, probe)
    assert res.p_on == pytest.approx(np.trace(on).real, rel=1e-12)
    assert res.p_off == pytest.approx(np.trace(off).real, rel=1e-12)
    assert_allclose(res.state_on, on / np.trace(on).real, atol=1e-13)
    assert_allclose(res.state_off, off / np.trace(off).real, atol=1e-13)


def test_frozen_reference_click_probability(coherent_input):
    res = filter_pass(coherent_input, fig2_cavity(2e-4), FIG2_PROBE)
    assert res.p_on == pytest.approx(0.247859, abs=1e-6)
    assert res.state_on[4, 4].real == pytest.approx(0.788217, abs=1e-6)


def test_tau_ladder_sharpens_selection(coherent_input):
    weights = []
    for tau in (0.02, 0.002, 2e-4):
        res = filter_pass(coherent_input, fig2_cavity(tau), FIG2_PROBE)
        weights.append(res.state_on[4, 4].real)
    assert weights[0] == pytest.approx(0.1954, abs=1e-4)
    assert weights[1] == pytest.approx(0.2119, abs=1e-4)
    assert weights[2] == pytest.approx(0.7882, abs=1e-4)
    assert weights[0] < weights[1] < weights[2]


def test_vacuum_on_resonance():
    # vacuum into a cavity tuned to n = 0: the click plays a coin with the
    # full probe transmitted, and both outcomes leave the vacuum alone
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    cav = CavityParams.tuned(0, 0.5, 0.1)
    probe = ProbeDetector(alpha=2.0, eta=0.7)
    res = filter_pass(vac, cav, probe)
    assert res.p_on == pytest.approx(1.0 - math.exp(-0.7 * 4.0), rel=1e-12)
    assert_allclose(res.state_on, vac, atol=1e-14)
    assert_allclose(res.state_off, vac, atol=1e-14)


def test_target_fock_state_passes_unchanged():
    rho = fock.make_state(fock.StateSpec.number(5), cutoff=8)
    cav = CavityParams.tuned(5, 1e-3, 0.1)
    probe = ProbeDetector(alpha=20.0, eta=0.4)
    res = filter_pass(rho, cav, probe)
    assert_allclose(res.state_on, rho, atol=1e-12)
    assert res.p_on == pytest.approx(1.0 - math.exp(-0.4 * 400.0), rel=1e-12)


@pytest.mark.parametrize("seed,tau,alpha", [(0, 0.01, 5.0), (1, 1e-3, 20.0),
                                            (2, 0.3, 50.0)])
def test_outcome_completeness(random_state, seed, tau, alpha):
    rho = random_state(9, seed=seed)
    cav = CavityParams(tau=tau, psi=0.2, chi_t=0.05)
    probe = ProbeDetector(alpha=alpha, eta=0.55)
    res = filter_pass(rho, cav, probe)
    assert abs(res.p_on + res.p_off - 1.0) < 1e-10


def test_completeness_for_subnormalized_input(random_state):
    rho = 0.75 * random_state(6, seed=8)
    res = filter_pass(rho, CavityParams.tuned(2, 0.01, 0.1),
                      ProbeDetector(alpha=10.0, eta=0.5))
    assert res.p_on + res.p_off == pytest.approx(0.75, abs=1e-10)


def test_photon_distribution_is_preserved_in_mixture(random_state):
    # the filter only dephases: p_on diag(on) + p_off diag(off) = diag(in)
    rho = random_state(8, seed=2)
    res = filter_pass(rho, CavityParams.tuned(3, 2e-3, 0.05),
                      ProbeDetector(alpha=12.0, eta=0.9))
    mixed = res.p_on * np.diagonal(res.state_on) + res.p_off * np.diagonal(res.state_off)
    assert_allclose(mixed.real, np.diagonal(rho).real, atol=1e-9)


def test_outputs_are_valid_states(random_state):
    rho = random_state(10, seed=4)
    res = filter_pass(rho, CavityParams.tuned(4, 5e-4, 0.02),
                      ProbeDetector(alpha=20.0, eta=0.8))
    validate_density_matrix(res.state_on)
    validate_density_matrix(res.state_off)


def test_exponents_never_overflow():
    # Re G <= 0 for every element up to the largest admissible probe
    cav = CavityParams(tau=1e-4, psi=1.3, chi_t=0.23)
    probe = ProbeDetector(alpha=100.0, eta=1.0)
    # analytically Re G <= 0; numerically |alpha|^2 * eps of slack remains
    g, g_off = filtering._element_exponents(cav, probe, 40)
    assert np.max(g.real) <= 1e-10
    assert np.max(g_off.real) <= 1e-10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_raises(random_state, bad):
    rho = random_state(5, seed=1)
    rho[2, 2] = bad
    cav = CavityParams.tuned(2, 0.01, 0.1)
    probe = ProbeDetector(alpha=10.0, eta=0.5)
    with pytest.raises(fock.NumericalError):
        filter_pass(rho, cav, probe)


def test_passes_reject_a_non_square_state():
    cav, probe = CavityParams.tuned(1, 1e-3, 0.1), ProbeDetector(alpha=20.0, eta=0.4)
    with pytest.raises(ValueError, match="square"):
        filter_pass(np.eye(2, 3), cav, probe)
    with pytest.raises(ValueError, match="square"):
        filter_pass_asymptotic(np.eye(2, 3), cav, probe, 1)
    with pytest.raises(ValueError, match="square"):
        filtering.superposition_synthesis_check(np.eye(2, 3), cav, probe)


def test_click_probability_grows_with_detector_efficiency(coherent_input):
    p = [filter_pass(coherent_input, fig2_cavity(2e-4),
                     ProbeDetector(alpha=20.0, eta=eta)).p_on
         for eta in (0.2, 0.5, 0.8, 1.0)]
    assert p == sorted(p)


def test_degenerate_branch_returns_none():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=3)
    cav = CavityParams.tuned(0, 1e-3, 0.1)      # far detuned from |3>
    probe = ProbeDetector(alpha=1e-150, eta=0.4)
    res = filter_pass(rho, cav, probe)
    assert res.state_on is None
    assert res.p_off == pytest.approx(1.0, abs=1e-12)
    assert_allclose(res.state_off, rho, atol=1e-12)


def test_probe_validation():
    with pytest.raises(ValueError):
        ProbeDetector(alpha=20.0, eta=0.0)
    with pytest.raises(ValueError):
        ProbeDetector(alpha=20.0, eta=1.1)
    with pytest.raises(ValueError):
        ProbeDetector(alpha=101.0, eta=0.5)
    with pytest.raises(ValueError):
        ProbeDetector(alpha=complex("nan"), eta=0.5)


# ---------------------------------------------------------------------------
# good-cavity asymptotics


def test_asymptotic_click_probability_formula(coherent_input):
    p_approx, _ = filter_pass_asymptotic(coherent_input, fig2_cavity(2e-4),
                                         FIG2_PROBE, n_star=4)
    # independent evaluation of the second-order expression
    diag = np.diagonal(coherent_input).real
    c = 0.8 * 400.0 * (2e-4) ** 2 / 0.01 ** 2
    byhand = diag[4] + c * sum(diag[p] / (4 - p) ** 2
                               for p in range(diag.size) if p != 4)
    assert p_approx == pytest.approx(byhand, rel=1e-12)
    assert p_approx == pytest.approx(0.2507691079543616, rel=1e-12)


def test_asymptotic_approaches_exact_in_good_cavity_limit(coherent_input):
    rel_err = []
    td = []
    for tau in (2e-4, 2e-5, 2e-6):
        cav = fig2_cavity(tau)
        exact = filter_pass(coherent_input, cav, FIG2_PROBE)
        p_approx, state = filter_pass_asymptotic(coherent_input, cav, FIG2_PROBE, 4)
        rel_err.append(abs(p_approx - exact.p_on) / exact.p_on)
        td.append(fock.trace_distance(state, exact.state_on))
    assert rel_err[0] < 0.05
    assert td[0] == pytest.approx(0.0473, abs=0.003)
    # each decade of tau buys at least an order of magnitude of accuracy
    assert rel_err[0] / rel_err[1] > 10
    assert td[0] / td[1] > 10
    assert td[1] / td[2] > 10


def test_asymptotic_state_is_valid(coherent_input):
    _, state = filter_pass_asymptotic(coherent_input, fig2_cavity(2e-5), FIG2_PROBE, 4)
    validate_density_matrix(state)


def test_asymptotic_pass_rejects_non_finite_state(coherent_input):
    # NaN fails every comparison, so a `tr < floor` guard would let it through
    rho = np.array(coherent_input)
    rho[3, 3] = np.nan
    with pytest.raises(fock.NumericalError):
        filter_pass_asymptotic(rho, fig2_cavity(2e-5), FIG2_PROBE, 4)


# ---------------------------------------------------------------------------
# periodic superpositions


SUPER_CAVITY = CavityParams(tau=1e-4, psi=math.pi / 2, chi_t=math.pi / 2)


def test_coherent_superposition_is_nearly_pure():
    rho = fock.make_state(fock.StateSpec.coherent(math.sqrt(2.0)))
    report = filtering.superposition_synthesis_check(rho, SUPER_CAVITY, FIG2_PROBE)
    assert report.resonant_set[:3] == (1, 5, 9)
    assert report.purity > 0.99
    # weight stays on the resonant ladder
    diag = np.diagonal(report.state_on).real
    on_ladder = sum(diag[n] for n in report.resonant_set)
    assert on_ladder > 0.999


def test_thermal_superposition_stays_mixed():
    rho = fock.make_state(fock.StateSpec.thermal(1.0))
    report = filtering.superposition_synthesis_check(rho, SUPER_CAVITY, FIG2_PROBE)
    assert report.purity < 0.9


def test_superposition_requires_two_resonances():
    rho = fock.make_state(fock.StateSpec.coherent(2.0))
    with pytest.raises(ValueError):
        filtering.superposition_synthesis_check(rho, fig2_cavity(2e-4), FIG2_PROBE)


# ---------------------------------------------------------------------------
# every state a pass returns is Hermitian bit for bit

def assert_exactly_hermitian(state):
    assert np.array_equal(state, state.conj().T)
    assert not state.diagonal().imag.any()


# the coherent input of the files workload's slowest synthesize ladder
TAIL_INPUT = fock.StateSpec.coherent(complex(-0.372, -2.2246))


@pytest.mark.parametrize("make", [
    lambda random_state: fock.make_state(TAIL_INPUT, cutoff=120, tail=None),
    lambda random_state: fock.make_state(fock.StateSpec.squeezed_vacuum(1.5), cutoff=40,
                                         tail=None),
    lambda random_state: fock.make_state(fock.StateSpec.thermal(2.0)),
    lambda random_state: random_state(23, seed=5),  # Hermitian only to rounding
])
@pytest.mark.parametrize("tau", [1.14e-3, 2e-2])
def test_filter_pass_states_are_exactly_hermitian(random_state, make, tau):
    rho = make(random_state)
    res = filter_pass(rho, ladder_cavity(tau), FIG2_PROBE)
    assert_exactly_hermitian(res.state_on)
    assert_exactly_hermitian(res.state_off)
    # the lower triangles and the outcome probabilities are those of the
    # pass on whole matrices
    kappa, sigma = cavity.mode_amplitudes(ladder_cavity(tau), rho.shape[0] - 1)
    a2, ss = abs(FIG2_PROBE.alpha) ** 2, np.outer(sigma, sigma.conj())
    g = a2 * (np.outer(kappa, kappa.conj()) + ss - 1.0)
    g_off = g - FIG2_PROBE.eta * a2 * ss
    for state, raw in ((res.state_on, rho * (np.exp(g) - np.exp(g_off))),
                       (res.state_off, rho * np.exp(g_off))):
        p = np.trace(raw).real
        assert_allclose(np.tril(state), np.tril(raw) / p, rtol=1e-10, atol=1e-15)
    assert_allclose([res.p_on, res.p_off], [np.trace(rho * (np.exp(g) - np.exp(g_off))).real,
                                            np.trace(rho * np.exp(g_off)).real], rtol=1e-12)


def ladder_cavity(tau):
    return CavityParams(tau=tau, psi=0.04, chi_t=0.01)


def test_asymptotic_state_is_exactly_hermitian(random_state):
    for rho in (fock.make_state(TAIL_INPUT, cutoff=40, tail=None), random_state(12, seed=2)):
        _, state = filter_pass_asymptotic(rho, fig2_cavity(2e-4), FIG2_PROBE, n_star=4)
        assert_exactly_hermitian(state)
