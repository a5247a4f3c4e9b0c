"""Displaced photon statistics, phase harmonics, least-squares reconstruction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import poisson

from fockfilter import fock, tomography
from fockfilter.cavity import CavityParams
from fockfilter.filtering import ProbeDetector
from fockfilter.tomography import (MonteCarloBackend, TomographyPlan, default_gamma_abs,
                                   default_phase_grid, displaced_distribution,
                                   displacement_kernel, measure_distributions,
                                   phase_fourier, reconstruct)


def plan_for(max_fock, gamma_abs=1.0, n_rows=None, backend="exact"):
    return TomographyPlan(gamma_abs=gamma_abs, phases=default_phase_grid(max_fock),
                          max_fock=max_fock,
                          n_rows=2 * max_fock + 2 if n_rows is None else n_rows,
                          backend=backend)


def test_default_grid_and_gamma():
    grid = default_phase_grid(5)
    assert len(grid) == 16
    assert grid[0] == 0.0
    assert_allclose(np.diff(grid), 2 * math.pi / 16)
    assert default_gamma_abs(3.0) == 2.0


def test_displaced_vacuum_is_poisson():
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    p = displaced_distribution(vac, 1.2, n_rows=12).values
    assert_allclose(p, poisson.pmf(np.arange(12), 1.44), atol=1e-12)


def test_displaced_single_photon_dip():
    # <0|D(gamma)|1> = -conj(gamma) e^{-|gamma|^2/2}: P(0) = e^{-1} at |gamma| = 1
    one = fock.make_state(fock.StateSpec.number(1), cutoff=1)
    p = displaced_distribution(one, 1.0, n_rows=6).values
    assert p[0] == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_displaced_distribution_covers_rows_beyond_input_dim():
    one = fock.make_state(fock.StateSpec.number(1), cutoff=1)
    p = displaced_distribution(one, 0.5, n_rows=20).values
    assert p.shape == (20,)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_kernel_reduces_to_identity_at_zero_displacement():
    for k in range(4):
        for m in range(4):
            for n in range(4):
                val = displacement_kernel(k, m, n, 1e-300)
                expect = 1.0 if (k == n and m == n) else 0.0
                assert abs(val - expect) < 1e-12


def test_kernel_row_sum_is_channel_completeness():
    # sum_n A_kmn = <m|D^+ D|k> = delta_km
    gamma = 0.9 - 0.4j
    for k in range(5):
        for m in range(5):
            total = sum(displacement_kernel(k, m, n, gamma) for n in range(60))
            assert abs(total - (1.0 if k == m else 0.0)) < 1e-10


def test_kernel_phase_law():
    # rotating gamma multiplies A_kmn by e^{i(m-k) arg}
    base = displacement_kernel(1, 3, 2, 0.8)
    rotated = displacement_kernel(1, 3, 2, 0.8 * np.exp(0.35j))
    assert rotated == pytest.approx(base * np.exp(1j * (3 - 1) * 0.35), rel=1e-10)


def test_phase_fourier_s0_is_the_mean():
    P = np.arange(24.0).reshape(6, 4)
    assert_allclose(phase_fourier(P, 0), P.mean(axis=0))


def test_phase_fourier_of_diagonal_state_has_no_harmonics():
    rho = fock.make_state(fock.StateSpec.thermal(0.8), cutoff=6, tail=None)
    plan = plan_for(6)
    P = measure_distributions(rho, plan)
    for s in (1, 2, 3):
        assert np.max(np.abs(phase_fourier(P, s))) < 1e-12


def test_phase_fourier_extracts_exact_harmonics():
    # with N_phi > 2(dim-1) the uniform-grid DFT is exact: the s-th
    # component must equal the direct kernel sum over the s-th diagonal
    beta = 0.7 + 0.4j
    rho = fock.make_state(fock.StateSpec.coherent(beta), cutoff=5, tail=None)
    plan = plan_for(5, gamma_abs=0.9)
    P = measure_distributions(rho, plan)
    for s in (1, 2):
        got = phase_fourier(P, s)
        expect = np.zeros(plan.n_rows, dtype=complex)
        for n in range(plan.n_rows):
            for m in range(6 - s):
                expect[n] += displacement_kernel(m + s, m, n, plan.gamma_abs) \
                    * rho[m + s, m]
        assert_allclose(got, expect, atol=1e-10)


def test_phase_fourier_negative_s_conjugate_symmetry():
    rho = fock.make_state(fock.StateSpec.coherent(0.9j), cutoff=4, tail=None)
    plan = plan_for(4)
    P = measure_distributions(rho, plan)
    assert_allclose(phase_fourier(P, -2), np.conj(phase_fourier(P, 2)), atol=1e-13)


def test_phase_fourier_rejects_nonuniform_grid():
    P = np.ones((8, 4))
    bad = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    with pytest.raises(ValueError):
        phase_fourier(P, 1, phases=bad)


# ---------------------------------------------------------------------------
# full reconstruction


def test_exact_round_trip_coherent():
    truth = fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
    plan = plan_for(5)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert fock.trace_distance(rec.nu_hat, truth) < 1e-10
    assert rec.flags == ()
    assert rec.trace == pytest.approx(1.0, abs=1e-9)


def test_exact_round_trip_vacuum():
    truth = fock.make_state(fock.StateSpec.number(0), cutoff=2)
    plan = plan_for(2)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert fock.trace_distance(rec.nu_hat, truth) < 1e-10


def test_exact_round_trip_random_mixed_state(random_state):
    truth = random_state(7, seed=21)
    plan = plan_for(6)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert fock.trace_distance(rec.nu_hat, truth) < 1e-9


def test_round_trip_keeps_coherence_phases():
    truth = fock.make_state(fock.StateSpec.coherent(0.9 * np.exp(0.7j)),
                            cutoff=4, tail=None)
    plan = plan_for(4)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert fock.trace_distance(rec.nu_hat, truth) < 1e-10
    # the reconstructed off-diagonal must carry the right complex argument:
    # <1|nu|0> = c_1 conj(c_0) with c_1 proportional to the amplitude
    assert np.angle(rec.nu_hat[1, 0]) == pytest.approx(0.7, abs=1e-8)


def test_reconstruction_is_hermitian(random_state):
    truth = random_state(5, seed=9)
    plan = plan_for(4)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert_allclose(rec.nu_hat, rec.nu_hat.conj().T, atol=1e-14)


def test_rank_deficiency_is_flagged():
    # a huge displacement leaves the low rows blind to the signal block
    truth = fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
    plan = plan_for(5, gamma_abs=8.0)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert any("rank-deficient" in f for f in rec.flags)
    assert max(rec.condition_numbers) > 1e12


def test_unphysical_trace_is_flagged_not_repaired():
    truth = 0.5 * fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
    plan = plan_for(5)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert rec.trace == pytest.approx(0.5, abs=1e-6)
    assert any("trace" in f for f in rec.flags)


def test_reconstruct_shape_validation():
    plan = plan_for(3)
    with pytest.raises(ValueError):
        reconstruct(plan, np.ones((len(plan.phases) + 1, plan.n_rows)))
    with pytest.raises(ValueError):
        reconstruct(plan, np.ones((len(plan.phases), plan.n_rows - 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reconstruct_rejects_non_finite_measurements(bad):
    plan = plan_for(3)
    measured = np.array(measure_distributions(fock.make_state(
        fock.StateSpec.coherent(0.8), cutoff=3, tail=None), plan))
    measured[2, 4] = bad
    with pytest.raises(ValueError, match=r"measured\[2, 4\]"):
        reconstruct(plan, measured)


def test_plan_validation():
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=0.0, phases=default_phase_grid(3), max_fock=3, n_rows=8)
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=1.0, phases=(0.0, 1.0), max_fock=3, n_rows=8)
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=1.0, phases=default_phase_grid(3), max_fock=3, n_rows=2)
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=1.0, phases=default_phase_grid(3), max_fock=3,
                       n_rows=8, backend="fast")


def test_project_psd_clips_negative_eigenvalues():
    nu = np.diag([1.1, -0.1]).astype(complex)
    fixed = tomography.project_psd(nu)
    w = np.linalg.eigvalsh(fixed)
    assert w.min() >= -1e-15
    assert np.trace(fixed).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo backend


def mc_backend(samples, seed=0):
    return MonteCarloBackend(
        cavity=CavityParams(tau=1e-4, psi=0.0, chi_t=0.1),
        probe=ProbeDetector(alpha=20.0, eta=0.8),
        samples=samples, rng_seed=seed)


def test_mc_displaced_distribution_agrees_with_exact():
    rho = fock.make_state(fock.StateSpec.coherent(0.8), cutoff=3, tail=None)
    exact = displaced_distribution(rho, 1.0, n_rows=8).values
    est = displaced_distribution(rho, 1.0, n_rows=8, backend=mc_backend(4000))
    assert np.max(np.abs(est.values - exact)) < 0.03
    assert est.ci is not None


def test_mc_round_trip_reconstruction():
    truth = fock.make_state(fock.StateSpec.coherent(0.8), cutoff=3, tail=None)
    plan = plan_for(3, backend=mc_backend(2500))
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert fock.trace_distance(rec.nu_hat, truth) < 0.1


def test_mc_is_reproducible():
    rho = fock.make_state(fock.StateSpec.coherent(0.8), cutoff=3, tail=None)
    plan = plan_for(3, backend=mc_backend(600))
    a = measure_distributions(rho, plan)
    b = measure_distributions(rho, plan)
    assert np.array_equal(a, b)
    c = measure_distributions(rho, plan_for(3, backend=mc_backend(600, seed=5)))
    assert not np.array_equal(a, c)


def test_backend_validation():
    with pytest.raises(ValueError):
        mc_backend(0)
    with pytest.raises(ValueError):
        mc_backend(100, seed=-3)
    with pytest.raises(ValueError):
        displaced_distribution(np.eye(2, dtype=complex), 1.0, 4, backend="turbo")
