"""State construction, cutoff selection, displacement and metric tests.

Derived quantities are checked against independent oracles: matrix
exponentials of ladder operators for displacement and squeezing, and
scipy.stats tail masses for the cutoff rule.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.stats import poisson

from fockfilter import fock


def ladder(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.conj().T


# ---------------------------------------------------------------------------
# state specs and analytic distributions


def test_number_state_is_projector():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=6)
    expected = np.zeros((7, 7))
    expected[3, 3] = 1.0
    assert_allclose(rho, expected, atol=1e-15)


def test_coherent_diagonal_is_poisson():
    spec = fock.StateSpec.coherent(1.5 - 0.5j)
    rho = fock.make_state(spec, cutoff=40, tail=None)
    lam = abs(spec.amplitude) ** 2
    assert_allclose(np.diagonal(rho).real, poisson.pmf(np.arange(41), lam),
                    rtol=1e-12, atol=1e-15)


def test_coherent_phase_pattern():
    # <n|rho|m> carries e^{i(n-m) arg beta}
    beta = 1.2 * np.exp(0.8j)
    rho = fock.make_state(fock.StateSpec.coherent(beta), cutoff=20, tail=None)
    ratio = rho[3, 1] / abs(rho[3, 1])
    assert_allclose(ratio, np.exp(2j * 0.8), rtol=1e-12)


def test_thermal_diagonal_is_geometric():
    nb = 1.7
    rho = fock.make_state(fock.StateSpec.thermal(nb), cutoff=80, tail=None)
    n = np.arange(81)
    geom = (nb / (1 + nb)) ** n / (1 + nb)
    assert_allclose(np.diagonal(rho).real, geom / geom.sum(), rtol=1e-12)
    # strictly diagonal
    assert np.max(np.abs(rho - np.diag(np.diagonal(rho)))) == 0.0


def test_squeezed_amplitudes_match_expm_oracle():
    mean_n = 1.0
    r = math.asinh(math.sqrt(mean_n))
    a, ad = ladder(60)
    psi = expm(0.5 * r * (a @ a - ad @ ad)) @ np.eye(60)[0]
    rho = fock.make_state(fock.StateSpec.squeezed_vacuum(mean_n), cutoff=20, tail=None)
    oracle = np.outer(psi[:21], psi[:21].conj())
    oracle /= np.trace(oracle).real
    assert_allclose(rho, oracle, atol=1e-10)


def test_squeezed_odd_components_vanish():
    p = fock.analytic_distribution(fock.StateSpec.squeezed_vacuum(2.5), 25)
    assert np.all(p[1::2] == 0.0)
    assert p[0] > p[2] > p[4]


@pytest.mark.parametrize("spec", [
    fock.StateSpec.coherent(2.0),
    fock.StateSpec.thermal(1.0),
    fock.StateSpec.squeezed_vacuum(1.0),
])
def test_analytic_distribution_matches_state_diagonal(spec):
    rho = fock.make_state(spec, cutoff=40, tail=None)
    p = fock.analytic_distribution(spec, 40)
    assert_allclose(np.diagonal(rho).real, p / p.sum(), rtol=1e-10, atol=1e-16)


def test_mean_photons():
    assert fock.StateSpec.number(5).mean_photons == 5.0
    assert fock.StateSpec.coherent(2.0).mean_photons == pytest.approx(4.0)
    assert fock.StateSpec.thermal(1.3).mean_photons == pytest.approx(1.3)
    assert fock.StateSpec.squeezed_vacuum(0.7).mean_photons == pytest.approx(0.7)


def test_spec_validation():
    with pytest.raises(ValueError):
        fock.StateSpec.number(-1)
    with pytest.raises(ValueError):
        fock.StateSpec.thermal(-0.5)
    with pytest.raises(ValueError):
        fock.StateSpec(kind="cat")


# ---------------------------------------------------------------------------
# cutoff choice


def test_choose_cutoff_against_poisson_tail_oracle():
    spec = fock.StateSpec.coherent(2.0)
    n = fock.choose_cutoff(spec)
    # independent route: scipy's Poisson survival function
    oracle = int(np.flatnonzero(poisson.sf(np.arange(200), 4.0) < 1e-10)[0])
    assert n == oracle
    assert 20 <= n <= 26


def test_choose_cutoff_thermal():
    assert fock.choose_cutoff(fock.StateSpec.thermal(1.0)) == 33


def test_choose_cutoff_number_state_is_exact():
    assert fock.choose_cutoff(fock.StateSpec.number(7)) == 7


def test_choose_cutoff_scales_with_tail():
    spec = fock.StateSpec.coherent(2.0)
    loose = fock.choose_cutoff(spec, tail=1e-4)
    tight = fock.choose_cutoff(spec, tail=1e-12)
    assert loose < tight


def test_choose_cutoff_ceiling():
    with pytest.raises(fock.CutoffError):
        fock.choose_cutoff(fock.StateSpec.thermal(1000.0))


def test_make_state_rejects_lossy_cutoff():
    spec = fock.StateSpec.coherent(2.0)
    with pytest.raises(fock.CutoffError) as err:
        fock.make_state(spec, cutoff=8)
    assert err.value.required == fock.choose_cutoff(spec)
    # the same cutoff is accepted as a deliberate truncation
    rho = fock.make_state(spec, cutoff=8, tail=None)
    assert rho.shape == (9, 9)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)


def test_make_state_number_above_cutoff():
    with pytest.raises(fock.CutoffError):
        fock.make_state(fock.StateSpec.number(5), cutoff=3)


def test_make_state_is_read_only():
    rho = fock.make_state(fock.StateSpec.coherent(1.0))
    with pytest.raises(ValueError):
        rho[0, 0] = 2.0


# ---------------------------------------------------------------------------
# displacement


def test_displacement_matrix_against_expm_oracle():
    gamma = 0.7 + 0.3j
    a, ad = ladder(40)
    oracle = expm(gamma * ad - np.conj(gamma) * a)
    ours = fock.displacement_matrix(gamma, 40)
    assert_allclose(ours[:16, :16], oracle[:16, :16], atol=1e-8)


@pytest.mark.parametrize("gamma", [0.5, -1.2, 1.0j, 0.9 - 0.4j])
def test_displacement_unitary_on_interior(gamma):
    dim = 40
    d = fock.displacement_matrix(gamma, dim)
    prod = d @ d.conj().T
    assert_allclose(prod[:12, :12], np.eye(12), atol=1e-8)


def test_displaced_vacuum_is_poisson():
    gamma = 1.3
    d = fock.displacement_matrix(gamma, 30)
    p = np.abs(d[:, 0]) ** 2
    assert_allclose(p[:20], poisson.pmf(np.arange(20), abs(gamma) ** 2), atol=1e-12)


def test_displace_vacuum_gives_coherent_state():
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    gamma = 0.8 + 0.2j
    shifted = fock.displace(vac, gamma, n_out=None)
    coh = fock.make_state(fock.StateSpec.coherent(gamma),
                          cutoff=shifted.shape[0] - 1, tail=None)
    assert fock.trace_distance(shifted, coh) < 1e-9


def test_displace_inverse_round_trip(random_state):
    rho = random_state(6, seed=3)
    back = fock.displace(fock.displace(rho, 0.9, n_out=None), -0.9, n_out=6)
    assert_allclose(back, rho, atol=1e-8)


def test_displace_flags_lost_mass():
    rho = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    with pytest.raises(fock.CutoffError):
        fock.displace(rho, 4.0, margin=2)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_displace_overflow_raises_instead_of_returning_nan():
    # gamma**span overflows at the working cutoff of |gamma| = 12, and NaN
    # fails every comparison, so the leak guard alone would let NaN through
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    with pytest.raises(fock.NumericalError):
        fock.displace(vac, 12)


def test_displace_rejects_non_finite_state():
    rho = np.array(fock.make_state(fock.StateSpec.coherent(0.5)))
    rho[1, 1] = np.nan
    with pytest.raises(fock.NumericalError):
        fock.displace(rho, 0.5)


def test_displacement_margin_covers_shifted_state():
    assert fock.displacement_margin(2.0) >= 2 * 4 + 10


# ---------------------------------------------------------------------------
# metrics and validation


def test_purity_bounds():
    pure = fock.make_state(fock.StateSpec.coherent(1.0))
    mixed = fock.make_state(fock.StateSpec.thermal(1.0))
    assert fock.purity(pure) == pytest.approx(1.0, abs=1e-10)
    assert fock.purity(mixed) == pytest.approx(1.0 / 3.0, abs=1e-6)  # 1/(2 nb + 1)


def test_fidelity_to_pure():
    rho = fock.make_state(fock.StateSpec.number(2), cutoff=5)
    target = fock.make_state(fock.StateSpec.number(2), cutoff=5)
    assert fock.fidelity_to_pure(rho, target) == pytest.approx(1.0, abs=1e-12)
    orth = fock.make_state(fock.StateSpec.number(3), cutoff=5)
    assert fock.fidelity_to_pure(rho, orth) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_extremes():
    a = fock.make_state(fock.StateSpec.number(0), cutoff=3)
    b = fock.make_state(fock.StateSpec.number(1), cutoff=3)
    assert fock.trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert fock.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_pads_mismatched_dimensions():
    a = fock.make_state(fock.StateSpec.number(0), cutoff=2)
    b = fock.make_state(fock.StateSpec.number(0), cutoff=9)
    assert fock.trace_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def test_state_metrics_keys(random_state):
    rho = random_state(5, seed=1)
    target = fock.make_state(fock.StateSpec.number(0), cutoff=4)
    m = fock.state_metrics(rho, target)
    assert set(m) == {"purity", "fidelity_to_pure", "trace_distance"}
    assert 0.0 < m["purity"] <= 1.0


def test_photon_distribution_clamps_tiny_negatives():
    rho = np.diag([1.0, -1e-13, 0.0]).astype(complex)
    p = fock.photon_distribution(rho).values
    assert p[1] == 0.0


def test_photon_distribution_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        fock.photon_distribution(np.diag([1.0, -1e-9]).astype(complex))
    with pytest.raises(ValueError):
        fock.photon_distribution(np.diag([1.0, 1e-6j]))


@pytest.mark.parametrize("spec", [
    fock.StateSpec.number(4),
    fock.StateSpec.coherent(1.5),
    fock.StateSpec.thermal(0.8),
    fock.StateSpec.squeezed_vacuum(1.2),
])
def test_states_satisfy_density_matrix_invariants(spec):
    rho = fock.make_state(spec)
    fock.validate_density_matrix(rho)  # hermitian, unit trace, PSD


def test_validate_density_matrix_rejects_violations():
    with pytest.raises(ValueError):
        fock.validate_density_matrix(np.array([[1.0, 1e-6], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        fock.validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    bad = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        fock.validate_density_matrix(bad)
