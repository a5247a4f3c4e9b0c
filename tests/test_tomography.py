"""Displaced photon statistics, phase harmonics, least-squares reconstruction."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.stats import poisson

from fockfilter import fock
from fockfilter.cascade import CascadeConfig, derive_seeds, estimate_photon_distribution
from fockfilter.filtering import ProbeDetector
from fockfilter.tomography import (MonteCarloBackend, TomographyPlan, default_gamma_abs,
                                   measure_distributions, reconstruct)
from reference import displace, phase_fourier


def plan_for(max_fock, gamma_abs=1.0, n_rows=None, backend="exact"):
    return TomographyPlan(gamma_abs=gamma_abs, n_phases=2 * max_fock + 6,
                          max_fock=max_fock,
                          n_rows=2 * max_fock + 2 if n_rows is None else n_rows,
                          backend=backend)


def kernel(D, k, m, n):
    """A_kmn(gamma) = <n|D(gamma)|k> <m|D^+(gamma)|n> from elements of D = D(gamma)."""
    return D[n, k] * np.conj(D[n, m])


def test_default_grid_and_gamma():
    for n in (1, 7, 16, 86):
        grid = TomographyPlan(gamma_abs=1.0, n_phases=n, max_fock=0, n_rows=1).phases
        # bit for bit the Python-float formula 2 pi j / N_phi
        assert grid == tuple(2.0 * math.pi * j / n for j in range(n))
        assert all(type(phi) is float for phi in grid)
    assert grid[0] == 0.0
    assert_allclose(np.diff(grid), 2 * math.pi / 86)
    assert default_gamma_abs(3.0) == 2.0


def test_plan_phases_are_read_only():
    plan = plan_for(2)
    with pytest.raises(AttributeError):
        plan.phases = (0.0,)
    assert len(plan.phases) == plan.n_phases == 10


def test_displaced_vacuum_is_poisson():
    # every phase of a displaced vacuum is the Poisson distribution of mean |gamma|^2
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    P = measure_distributions(vac, TomographyPlan(gamma_abs=1.2, n_phases=3, max_fock=0,
                                                  n_rows=12))
    assert P.shape == (3, 12)
    for p in P:
        assert_allclose(p, poisson.pmf(np.arange(12), 1.44), atol=1e-12)


def test_displaced_single_photon_dip():
    # <0|D(gamma)|1> = -conj(gamma) e^{-|gamma|^2/2}: P(0) = e^{-1} at |gamma| = 1
    one = fock.make_state(fock.StateSpec.number(1), cutoff=1)
    P = measure_distributions(one, plan_for(1, n_rows=6))
    assert_allclose(P[:, 0], math.exp(-1.0), rtol=1e-10)


def test_displaced_distribution_covers_rows_beyond_input_dim():
    one = fock.make_state(fock.StateSpec.number(1), cutoff=1)
    P = measure_distributions(one, plan_for(1, gamma_abs=0.5, n_rows=20))
    assert P.shape == (8, 20)
    assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1),
       gamma_abs=st.floats(0.1, 4.0, exclude_min=True),
       extra_phases=st.integers(0, 6), extra_rows=st.integers(0, 12))
def test_forward_model_equals_per_phase_displacement(random_state, dim, seed, gamma_abs,
                                                     extra_phases, extra_rows):
    # one displacement matrix and its diagonal sums against a full
    # D nu D^+ product for every phase, at the same working cutoff
    nu = random_state(dim, seed=seed)
    n_phi = 2 * dim - 1 + extra_phases
    plan = TomographyPlan(gamma_abs=gamma_abs, n_phases=n_phi, max_fock=dim - 1,
                          n_rows=dim + extra_rows)
    margin = fock.displacement_margin(gamma_abs) + max(0, plan.n_rows - dim)
    try:
        expect = [fock.photon_distribution(displace(
            nu, gamma_abs * cmath.exp(1j * phi), n_out=None, margin=margin)).values
            for phi in plan.phases]
    except fock.CutoffError:
        # the default margin is too small for this state: both paths must say so
        with pytest.raises(fock.CutoffError):
            measure_distributions(nu, plan)
        return
    P = measure_distributions(nu, plan)
    for j, row in enumerate(expect):
        assert_allclose(P[j], row[:plan.n_rows], rtol=0, atol=1e-13)


def expm_displacement(gamma, size):
    """D(gamma) = exp(gamma a+ - conj(gamma) a) on `size` levels, by scipy's expm."""
    a = np.diag(np.sqrt(np.arange(1, size)), 1)
    return expm(gamma * a.T - np.conj(gamma) * a)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       gamma_abs=st.floats(0.2, 2.5), extra_phases=st.integers(0, 4),
       extra_rows=st.integers(0, 8))
def test_exact_distributions_equal_expm_displacement(random_state, dim, seed, gamma_abs,
                                                     extra_phases, extra_rows):
    # an independent reference: diag(D nu D^+) with D from expm, on enough
    # levels that its truncation does not reach the rows compared
    nu = random_state(dim, seed=seed)
    plan = TomographyPlan(gamma_abs=gamma_abs, n_phases=2 * dim - 1 + extra_phases,
                          max_fock=dim - 1, n_rows=dim + extra_rows)
    size = dim + extra_rows + fock.displacement_margin(gamma_abs) + 40
    try:
        P = measure_distributions(nu, plan)
    except fock.CutoffError:
        return  # the default margin is too small for this state, and says so
    for j, phi in enumerate(plan.phases):
        D = expm_displacement(gamma_abs * cmath.exp(1j * phi), size)[:plan.n_rows, :dim]
        assert_allclose(P[j], np.diagonal(D @ nu @ D.conj().T).real, rtol=0, atol=1e-13)


def test_non_hermitian_state_fails_the_imaginary_residue_guard(random_state):
    nu = np.array(random_state(4, seed=7))
    nu[2, 0] += 1e-3  # its mirror nu[0, 2] is left as it was
    with pytest.raises(ValueError, match="imaginary residue"):
        measure_distributions(nu, plan_for(3))


def result_bytes(result):
    return (result.nu_hat.tobytes(), result.residual_norms, result.condition_numbers,
            result.trace, result.flags)


@pytest.mark.parametrize("max_fock, gamma_abs, n_rows", [
    (0, 1.0, 1), (3, 1.3, 8), (5, 1e-7, 12), (8, 2.1, 30), (20, 3.0, 42),
    # the working cutoff lifts columns of D: at |gamma| = 0.01 the first-row
    # entries of the 511-level matrix fall far below e^-690
    (3, 0.01, 500)])
def test_reconstruct_is_the_same_with_a_shared_or_a_new_displacement(
        monkeypatch, random_state, max_fock, gamma_abs, n_rows):
    built = []
    build = fock.displacement_matrix
    monkeypatch.setattr(fock, "displacement_matrix",
                        lambda gamma, dim: built.append(dim) or build(gamma, dim))
    plan = plan_for(max_fock, gamma_abs=gamma_abs, n_rows=n_rows)
    P = measure_distributions(random_state(max_fock + 1, seed=max_fock), plan)
    warm = reconstruct(plan, P)  # reads the block of the matrix measure_distributions built
    assert built == [n_rows + fock.displacement_margin(gamma_abs)]
    fresh = reconstruct(plan_for(max_fock, gamma_abs=gamma_abs, n_rows=n_rows), P)
    measure_distributions(random_state(2, seed=1), plan_for(1, gamma_abs=gamma_abs + 0.5))
    after_other = reconstruct(plan, P)
    assert len(built) == 3
    assert result_bytes(warm) == result_bytes(fresh) == result_bytes(after_other)


@pytest.mark.parametrize("levels", [1, 3, 5])
def test_forward_model_needs_a_state_of_max_fock_plus_one_levels(random_state, levels):
    with pytest.raises(ValueError, match=r"plan needs max_fock \+ 1 = 4"):
        measure_distributions(random_state(levels, seed=0), plan_for(3))


def test_forward_model_rejects_non_finite_state():
    nu = np.array(fock.make_state(fock.StateSpec.coherent(0.8), cutoff=3, tail=None))
    nu[1, 2] = np.nan
    with pytest.raises(fock.NumericalError):
        measure_distributions(nu, plan_for(3))


@pytest.mark.parametrize("backend", ["exact", "monte_carlo"])
def test_forward_model_flags_a_starved_margin(monkeypatch, backend):
    monkeypatch.setattr(fock, "displacement_margin", lambda gamma: 1)
    nu = fock.make_state(fock.StateSpec.number(3), cutoff=3)
    plan = plan_for(3, gamma_abs=2.0, n_rows=4,
                    backend=mc_backend(100) if backend == "monte_carlo" else "exact")
    # the message says what the working cutoff is made of
    with pytest.raises(fock.CutoffError, match=re.escape(
            "past working cutoff 4, the last of 5 levels: n_rows 4 + the displacement "
            "margin 1 of |gamma|")):
        measure_distributions(nu, plan)


def test_kernel_reduces_to_identity_at_zero_displacement():
    D = fock.displacement_matrix(1e-300, 4)
    for k in range(4):
        for m in range(4):
            for n in range(4):
                val = kernel(D, k, m, n)
                expect = 1.0 if (k == n and m == n) else 0.0
                assert abs(val - expect) < 1e-12


def test_kernel_row_sum_is_channel_completeness():
    # sum_n A_kmn = <m|D^+ D|k> = delta_km
    D = fock.displacement_matrix(0.9 - 0.4j, 60)
    for k in range(5):
        for m in range(5):
            total = sum(kernel(D, k, m, n) for n in range(60))
            assert abs(total - (1.0 if k == m else 0.0)) < 1e-10


def test_kernel_phase_law():
    # rotating gamma multiplies A_kmn by e^{i(m-k) arg}
    base = kernel(fock.displacement_matrix(0.8, 4), 1, 3, 2)
    rotated = kernel(fock.displacement_matrix(0.8 * np.exp(0.35j), 4), 1, 3, 2)
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
    D = fock.displacement_matrix(plan.gamma_abs, plan.n_rows)
    for s in (1, 2):
        got = phase_fourier(P, s)
        expect = np.zeros(plan.n_rows, dtype=complex)
        for n in range(plan.n_rows):
            for m in range(6 - s):
                expect[n] += kernel(D, m + s, m, n) * rho[m + s, m]
        assert_allclose(got, expect, atol=1e-10)


def test_phase_fourier_negative_s_conjugate_symmetry():
    rho = fock.make_state(fock.StateSpec.coherent(0.9j), cutoff=4, tail=None)
    plan = plan_for(4)
    P = measure_distributions(rho, plan)
    assert_allclose(phase_fourier(P, -2), np.conj(phase_fourier(P, 2)), atol=1e-13)


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


@pytest.mark.parametrize("truth", [
    fock.make_state(fock.StateSpec.coherent(complex(0.8, -1.1)), cutoff=8, tail=None),
    fock.make_state(fock.StateSpec.thermal(1.0), cutoff=8, tail=None),
])
@pytest.mark.parametrize("monte_carlo", [False, True])
def test_reconstruction_is_exactly_hermitian(truth, monte_carlo):
    backend = MonteCarloBackend(tau=1e-4, chi_t=0.1, probe=ProbeDetector(20.0, 0.8),
                                samples=500, rng_seed=3) if monte_carlo else "exact"
    plan = plan_for(8, backend=backend)
    nu = reconstruct(plan, measure_distributions(truth, plan)).nu_hat
    assert np.array_equal(nu, nu.conj().T)
    assert not nu.diagonal().imag.any()


def test_rank_deficiency_is_flagged():
    # a huge displacement leaves the low rows blind to the signal block
    truth = fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
    plan = plan_for(5, gamma_abs=8.0)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert any("rank-deficient" in f for f in rec.flags)
    assert max(rec.condition_numbers) > 1e12


@pytest.mark.parametrize("gamma_abs, expected", [
    (1e-8, ["s=2: near-singular"]),
    (1e-200, ["s=1: near-singular", "s=2: rank-deficient"]),
])
def test_near_zero_displacement_is_flagged(gamma_abs, expected):
    # the condition number ignores scale, and the s = M system has a single
    # column, so its condition is 1: only the smallest singular value shows
    # that the system amplifies rounding without bound
    truth = fock.make_state(fock.StateSpec.thermal(0.0), cutoff=2, tail=None)
    plan = TomographyPlan(gamma_abs=gamma_abs, n_phases=10, max_fock=2, n_rows=6)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    # one flag per flagged s
    assert [" ".join(f.split()[:2]) for f in rec.flags] == expected
    D = fock.displacement_matrix(gamma_abs, plan.n_rows)
    for s in range(3):
        A = np.array([[kernel(D, m + s, m, n) for m in range(3 - s)]
                      for n in range(plan.n_rows)])
        sigma = np.linalg.svd(A, compute_uv=False)
        assert any(f.startswith(f"s={s}:") for f in rec.flags) == (
            sigma[-1] < 1e-12 or sigma[0] > 1e12 * sigma[-1])
    assert rec.condition_numbers[2] in (1.0, math.inf)


def test_unit_displacement_is_not_flagged():
    truth = fock.make_state(fock.StateSpec.thermal(0.0), cutoff=2, tail=None)
    plan = TomographyPlan(gamma_abs=1.0, n_phases=10, max_fock=2, n_rows=6)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert rec.flags == ()
    assert fock.trace_distance(rec.nu_hat, truth) < 1e-10


def test_unphysical_trace_is_flagged_not_repaired():
    truth = 0.5 * fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
    plan = plan_for(5)
    rec = reconstruct(plan, measure_distributions(truth, plan))
    assert rec.trace == pytest.approx(0.5, abs=1e-6)
    assert any("trace" in f for f in rec.flags)


def test_reconstruct_shape_validation():
    plan = plan_for(3)
    with pytest.raises(ValueError):
        reconstruct(plan, np.ones((plan.n_phases + 1, plan.n_rows)))
    with pytest.raises(ValueError):
        reconstruct(plan, np.ones((plan.n_phases, plan.n_rows - 1)))
    for shape in ((plan.n_phases,), (plan.n_phases, plan.n_rows, 1)):
        with pytest.raises(ValueError, match=r"\(phase, n\) matrix"):
            reconstruct(plan, np.ones(shape))


def test_forward_model_rejects_a_non_square_state():
    with pytest.raises(ValueError, match="square"):
        measure_distributions(np.eye(2, 3), plan_for(1))


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
        TomographyPlan(gamma_abs=0.0, n_phases=12, max_fock=3, n_rows=8)
    with pytest.raises(ValueError, match="need at least 7"):
        TomographyPlan(gamma_abs=1.0, n_phases=6, max_fock=3, n_rows=8)
    TomographyPlan(gamma_abs=1.0, n_phases=7, max_fock=3, n_rows=8)
    with pytest.raises(ValueError, match="integer"):
        TomographyPlan(gamma_abs=1.0, n_phases=12.5, max_fock=3, n_rows=8)
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=1.0, n_phases=12, max_fock=3, n_rows=2)
    with pytest.raises(ValueError):
        TomographyPlan(gamma_abs=1.0, n_phases=12, max_fock=3, n_rows=8, backend="fast")


def test_plan_sizes_stop_at_the_cutoff_ceiling():
    top = fock.CUTOFF_CEILING
    fields = dict(gamma_abs=1.0, n_phases=7, max_fock=3, n_rows=8)
    TomographyPlan(**{**fields, "n_phases": 2 * top + 1})
    with pytest.raises(ValueError, match="n_phases must lie in 0..8193, got 8194"):
        TomographyPlan(**{**fields, "n_phases": 2 * top + 2})
    # the working cutoff is n_rows - 1 + the displacement margin
    margin = fock.displacement_margin(1.0)
    TomographyPlan(**{**fields, "n_rows": top + 1 - margin})
    TomographyPlan(**{**fields, "gamma_abs": 45.0})
    for change in ({"n_rows": top + 2 - margin}, {"n_rows": 10 ** 8},
                   {"gamma_abs": 45.2}, {"gamma_abs": 1000.0}):
        with pytest.raises(fock.CutoffError, match=f"> {top}"):
            TomographyPlan(**{**fields, **change})


@pytest.mark.parametrize("field, value", [
    ("n_rows", 12.5), ("n_rows", 12.0), ("n_rows", np.float64(12.0)), ("n_rows", "12"),
    ("max_fock", 5.0), ("max_fock", True), ("max_fock", np.bool_(True)),
    ("n_phases", True), ("n_phases", 13.0), ("n_phases", None),
    ("n_rows", 2.7), ("n_rows", True), ("n_rows", np.bool_(True)),
    ("max_fock", 2.7), ("max_fock", "3"),
    ("n_phases", 2.7), ("n_phases", np.bool_(True)), ("n_phases", "3"),
])
def test_plan_integer_fields_reject_non_integers_and_bools(field, value):
    fields = dict(gamma_abs=1.0, n_phases=13, max_fock=5, n_rows=12)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TomographyPlan(**fields)


def test_plan_integer_fields_take_numpy_integers():
    plan = TomographyPlan(gamma_abs=1.0, n_phases=np.int64(13), max_fock=np.int32(5),
                          n_rows=np.uint8(12))
    P = measure_distributions(fock.make_state(fock.StateSpec.coherent(0.5), cutoff=5,
                                              tail=None), plan)
    assert P.shape == (13, 12)
    assert reconstruct(plan, P).flags == ()
    assert plan == TomographyPlan(gamma_abs=1.0, n_phases=13, max_fock=5, n_rows=12)
    assert all(type(v) is int for v in (plan.n_phases, plan.max_fock, plan.n_rows))


# ---------------------------------------------------------------------------
# Monte Carlo backend


def mc_backend(samples, seed=0):
    return MonteCarloBackend(tau=1e-4, chi_t=0.1, probe=ProbeDetector(alpha=20.0, eta=0.8),
                             samples=samples, rng_seed=seed)


def test_mc_displaced_distribution_agrees_with_exact():
    rho = fock.make_state(fock.StateSpec.coherent(0.8), cutoff=3, tail=None)
    exact = measure_distributions(rho, plan_for(3, n_rows=8))
    est = measure_distributions(rho, plan_for(3, n_rows=8, backend=mc_backend(4000)))
    assert est.shape == exact.shape
    assert np.max(np.abs(est - exact)) < 0.03


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


def test_mc_phase_j_is_seeded_with_its_derived_seed():
    # phase j is the public cascade estimator run on that phase's displaced
    # diagonal, at the forward model's working cutoff, seeded with substream j
    rho = fock.make_state(fock.StateSpec.coherent(0.8), cutoff=2, tail=None)
    plan = plan_for(2, backend=mc_backend(300, seed=7))
    P = measure_distributions(rho, plan)
    margin = fock.displacement_margin(plan.gamma_abs) + max(0, plan.n_rows - len(rho))
    for j in (0, 3):
        displaced = displace(rho, plan.gamma_abs * cmath.exp(1j * plan.phases[j]),
                             n_out=None, margin=margin)
        cfg = CascadeConfig(n_top=plan.n_rows - 1, tau=1e-4, chi_t=0.1,
                            probe=ProbeDetector(alpha=20.0, eta=0.8),
                            samples=300, rng_seed=int(derive_seeds(7, [j])[0]))
        one = estimate_photon_distribution(np.diag(displaced.diagonal()), cfg)
        assert np.array_equal(P[j], one.values)


def test_backend_validation():
    with pytest.raises(ValueError):
        mc_backend(0)
    with pytest.raises(ValueError):
        mc_backend(100, seed=-3)
    probe = ProbeDetector(alpha=20.0, eta=0.8)
    with pytest.raises(ValueError, match="tau"):
        MonteCarloBackend(tau=1.0, chi_t=0.1, probe=probe, samples=10, rng_seed=0)
    with pytest.raises(ValueError, match="chi_t"):
        MonteCarloBackend(tau=1e-4, chi_t=-0.1, probe=probe, samples=10, rng_seed=0)
    with pytest.raises(ValueError, match="probe must be a ProbeDetector"):
        MonteCarloBackend(tau=1e-4, chi_t=0.1, probe=None, samples=10, rng_seed=0)


@pytest.mark.parametrize("field", ["samples", "rng_seed"])
def test_backend_integer_fields_refuse_bools_and_non_integral_values(field):
    # samples=10.5 used to pass and fail in the sampler; rng_seed=1.5 ran as seed 1
    for value in (True, np.bool_(True), 10.5, 2.7, 10.0, "10"):
        fields = {"samples": 10, "rng_seed": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MonteCarloBackend(tau=1e-4, chi_t=0.1, probe=ProbeDetector(alpha=20.0, eta=0.8),
                              **fields)
    # numpy integers are integers, and reach the cascade as ints
    fields = {"samples": 10, "rng_seed": 0, field: np.int64(3)}
    cfg = MonteCarloBackend(tau=1e-4, chi_t=0.1, probe=ProbeDetector(alpha=20.0, eta=0.8),
                            **fields)._cascade(2)
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3
    with pytest.raises(ValueError):
        plan_for(2, backend="turbo")
