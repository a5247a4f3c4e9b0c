"""State construction, cutoff selection, displacement and metric tests.

Derived quantities are checked against independent oracles: matrix
exponentials of ladder operators for displacement and squeezing, scipy's
gammaln for log-factorials and scipy.stats tail masses for the cutoff rule.
"""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import poisson

from fockfilter import cascade, cavity, filtering, fock
from reference import displace, squeezed_distribution


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


@settings(max_examples=200, deadline=None)
@given(mean_n=st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
       n_max=st.integers(0, 400))
def test_squeezed_distribution_matches_the_ratio_recurrence(mean_n, n_max):
    p = fock.analytic_distribution(fock.StateSpec.squeezed_vacuum(mean_n), n_max)
    expected = squeezed_distribution(mean_n, n_max)
    assert np.all(p[1::2] == 0.0)
    above = expected > 1e-300
    assert_allclose(p[above], expected[above], rtol=1e-12, atol=0.0)


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


def test_log_factorials_match_gammaln():
    # the whole precomputed table, which every size here stays within
    n = np.arange(fock.CUTOFF_CEILING + 1)
    assert_allclose(fock._log_factorials(fock.CUTOFF_CEILING), gammaln(n + 1), rtol=2e-15,
                    atol=0)


def test_a_displacement_past_the_cutoff_ceiling_is_refused():
    top = fock.CUTOFF_CEILING
    # without the ceiling, dim top + 2 builds ~0.5 GB before the test fails
    for dim in (top + 2, 0):
        with pytest.raises(ValueError, match=f"dim must lie in 1..{top + 1}, got {dim}"):
            fock.displacement_matrix(0.5, dim)


def test_an_analytic_distribution_past_the_cutoff_ceiling_is_refused():
    top, spec = fock.CUTOFF_CEILING, fock.StateSpec.coherent(1.0)
    for n_max in (top + 1, -1):
        with pytest.raises(ValueError, match=f"n_max must lie in 0..{top}, got {n_max}"):
            fock.analytic_distribution(spec, n_max)
    assert len(fock.analytic_distribution(spec, top)) == top + 1


# every integer size or index of the library but the fields of CascadeConfig
# and TomographyPlan, which test_cascade and test_tomography check, and the
# substream indices of derive_seeds, which test_cascade checks: the call with
# a size, the name its refusal gives and a value out of its range
_CAVITY = cavity.CavityParams(tau=0.01, psi=0.2, chi_t=0.1)
_RHO = fock.make_state(fock.StateSpec.coherent(1.0), cutoff=5, tail=None)
SIZE_ARGUMENTS = {
    "StateSpec.n": (lambda v: fock.StateSpec(kind="number", n=v), "n", -1),
    "StateSpec.number": (fock.StateSpec.number, "n", -1),
    "make_state.cutoff": (lambda v: fock.make_state(fock.StateSpec.coherent(0.5), cutoff=v,
                                                    tail=None), "cutoff", -1),
    "analytic_distribution.n_max": (
        lambda v: fock.analytic_distribution(fock.StateSpec.coherent(0.5), v), "n_max", -1),
    "displacement_matrix.dim": (lambda v: fock.displacement_matrix(0.5, v), "dim", 0),
    "mode_amplitudes.n_max": (lambda v: cavity.mode_amplitudes(_CAVITY, v), "n_max",
                              fock.CUTOFF_CEILING + 1),
    "transmission_profile.n_max": (lambda v: cavity.transmission_profile(_CAVITY, v),
                                   "n_max", -1),
    "resonant_components.n_max": (lambda v: cavity.resonant_components(_CAVITY, v),
                                  "n_max", -1),
    "filter_pass_asymptotic.n_star": (lambda v: filtering.filter_pass_asymptotic(
        _RHO, _CAVITY, filtering.ProbeDetector(alpha=2.0, eta=0.8), v), "n_star", 6),
    "derive_seeds.seed": (lambda v: cascade.derive_seeds(v, [0, 1]), "seed", 2 ** 64),
    "uniforms.n_stages": (lambda v: cascade.uniforms(1, [0], v), "n_stages",
                          fock.CUTOFF_CEILING + 2),
    "response_matrix.dim": (lambda v: cascade.response_matrix(cascade.CascadeConfig(
        n_top=4, tau=1e-3, chi_t=0.1, probe=filtering.ProbeDetector(alpha=20.0, eta=0.4),
        samples=1, rng_seed=0), v), "dim", 0),
}


def _same(a, b):
    """a and b hold the same values, element for element."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("argument", sorted(SIZE_ARGUMENTS))
def test_size_arguments_take_integers_in_range_only(argument):
    # each of these once truncated a float (2.7 ran as 2), took a bool as
    # 0 or 1, ran past its range or died inside numpy
    call, name, out_of_range = SIZE_ARGUMENTS[argument]
    for value in (2.7, 2.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            call(value)
    with pytest.raises(ValueError, match=f"^{name} must (lie in|be >=) .*, got {out_of_range}$"):
        call(out_of_range)
    # numpy integers are integers, and are used or stored as ints
    got = call(np.int64(3))
    assert _same(got, call(3))
    if isinstance(got, fock.StateSpec):
        assert type(got.n) is int


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


def test_a_cutoff_above_the_ceiling_is_refused_chosen_or_given():
    top = fock.CUTOFF_CEILING
    # asserted first: without the ceiling, the states below would be formed
    with pytest.raises(fock.CutoffError, match=f"> {top}"):
        fock.choose_cutoff(fock.StateSpec.number(top + 1))
    assert fock.choose_cutoff(fock.StateSpec.number(top)) == top
    with pytest.raises(fock.CutoffError, match=f"> {top}"):
        fock.make_state(fock.StateSpec.number(top + 1))
    for spec in (fock.StateSpec.number(top + 1), fock.StateSpec.coherent(1.0)):
        with pytest.raises(fock.CutoffError, match=f"ceiling {top}"):
            fock.make_state(spec, cutoff=top + 1, tail=None)


def full_scan_cutoff(spec, tail):
    """The cutoff of a scan over all CUTOFF_CEILING + 1 levels at once."""
    tail_mass = 1.0 - np.cumsum(fock.analytic_distribution(spec, fock.CUTOFF_CEILING))
    ok = np.flatnonzero(tail_mass < tail)
    if ok.size == 0:
        raise fock.CutoffError("no cutoff")
    return int(ok[0])


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["coherent", "thermal", "squeezed_vacuum"]),
       mean=st.one_of(st.floats(0.0, 60.0), st.floats(60.0, 4000.0)),
       phase=st.floats(0.0, 2 * math.pi), tail=st.floats(1e-15, 0.099))
def test_choose_cutoff_equals_the_full_scan(kind, mean, phase, tail):
    # the growing prefixes find the full scan's cutoff, or fail where it fails
    if kind == "coherent":
        spec = fock.StateSpec.coherent(cmath.rect(math.sqrt(mean), phase))
    else:
        spec = fock.StateSpec(kind=kind, mean_n=mean)
    try:
        expected = full_scan_cutoff(spec, tail)
    except fock.CutoffError:
        with pytest.raises(fock.CutoffError):
            fock.choose_cutoff(spec, tail)
        return
    assert fock.choose_cutoff(spec, tail) == expected


def test_choose_cutoff_on_both_sides_of_each_prefix():
    # coherent means whose cutoffs straddle the prefix ends 63, 255, 1023
    for n_max in fock._CUTOFF_PREFIXES[:-1]:
        for mean in np.linspace(0.6 * n_max, 1.1 * n_max, 25):
            spec = fock.StateSpec.coherent(math.sqrt(mean))
            assert fock.choose_cutoff(spec) == full_scan_cutoff(spec, fock.DEFAULT_TAIL)


def test_make_state_rejects_lossy_cutoff():
    spec = fock.StateSpec.coherent(2.0)
    with pytest.raises(fock.CutoffError, match=f"requires N >= {fock.choose_cutoff(spec)}$"):
        fock.make_state(spec, cutoff=8)
    # the same cutoff is accepted as a deliberate truncation
    rho = fock.make_state(spec, cutoff=8, tail=None)
    assert rho.shape == (9, 9)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)


def test_make_state_number_above_cutoff():
    with pytest.raises(fock.CutoffError):
        fock.make_state(fock.StateSpec.number(5), cutoff=3)


@pytest.mark.parametrize("spec", [
    fock.StateSpec.number(3), fock.StateSpec.coherent(complex(-0.372, -2.2246)),
    fock.StateSpec.coherent(2.0), fock.StateSpec.thermal(1.5),
    fock.StateSpec.squeezed_vacuum(0.8),
])
def test_make_state_is_exactly_hermitian(spec):
    # np.outer(c, c.conj()) is not: at cutoff 120 it leaves 4798 of the
    # coherent state's cells unequal to the conjugate of their mirror cell
    rho = fock.make_state(spec, cutoff=120, tail=None)
    assert np.array_equal(rho, rho.conj().T)
    assert not rho.diagonal().imag.any()
    c = fock._pure_amplitudes(spec, 120)
    if c is not None:
        outer = np.outer(c, c.conj())
        assert_allclose(rho, outer / np.trace(outer).real, rtol=0, atol=1e-16)


def test_make_state_is_read_only():
    rho = fock.make_state(fock.StateSpec.coherent(1.0))
    with pytest.raises(ValueError):
        rho[0, 0] = 2.0


# ---------------------------------------------------------------------------
# displacement


def expm_block(gamma, dim):
    """The top-left dim x dim block of expm(g a+ - g* a) on an enlarged space.

    The space reaches past the classical support (|g| + sqrt(dim))^2 of
    the displaced |dim - 1>, so its truncation does not reach the block.
    """
    r = abs(gamma) + math.sqrt(dim)
    a, ad = ladder(math.ceil(r * r + 4 * r) + 30)
    return expm(gamma * ad - np.conj(gamma) * a)[:dim, :dim]


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.0, 12.0), theta=st.floats(-math.pi, math.pi),
       dim=st.integers(1, 24))
def test_displacement_matrix_matches_expm(r, theta, dim):
    gamma = r * cmath.exp(1j * theta)
    ours = fock.displacement_matrix(gamma, dim)
    assert np.max(np.abs(ours - expm_block(gamma, dim))) <= 1e-13


def test_displacement_matrix_matches_expm_at_gamma_12_dim_300():
    ours = fock.displacement_matrix(12.0, 300)
    assert ours.dtype == np.float64
    assert np.max(np.abs(ours - expm_block(12.0, 300))) <= 5e-14


@pytest.mark.parametrize("g", [23.0, 30.0, 37.0, 40.0])
def test_displacement_columns_stay_unit_norm_at_large_gamma(g):
    # dim holds the displaced |0>, |1>, |2>; from |gamma| = 37.2 their first
    # elements are below e^-690 and are carried scaled
    dim = math.ceil((g + 2) ** 2 + 6 * (g + 2))
    d = fock.displacement_matrix(g, dim)
    assert np.isfinite(d).all()
    assert_allclose(np.linalg.norm(d[:, :3], axis=0), 1.0, rtol=0, atol=1e-12)


def displaced_number_states(g, dim, k_max):
    """Columns <n|D(g)|k>, n < dim, k <= k_max, of a real g with integer g^2.

    From the closed form sqrt(lo!/(lo+span)!) g^span e^{-g^2/2}
    L_lo^(span)(g^2), lo = min(n, k), span = |n - k|, with the sign
    (-1)^span on n < k.  The Laguerre polynomial is summed in exact integer
    arithmetic and the rest in log space; elements below the float range
    come out as zero.
    """
    x = round(g * g)
    out = np.zeros((dim, k_max + 1))
    for k in range(k_max + 1):
        for n in range(dim):
            lo, span = min(n, k), abs(n - k)
            lag = sum(Fraction((-1) ** i * math.comb(lo + span, lo - i) * x ** i,
                               math.factorial(i)) for i in range(lo + 1))
            if n < k and span % 2:
                lag = -lag
            if lag:
                log_mag = (0.5 * (gammaln(lo + 1) - gammaln(lo + span + 1))
                           + span * math.log(g) - 0.5 * x + math.log(abs(lag)))
                out[n, k] = math.copysign(math.exp(log_mag), lag)
    return out


@pytest.mark.parametrize("g", [40.0, 50.0])
def test_displacement_past_the_underflow_matches_the_closed_form(g):
    # e^{-|g|^2/2} < 1e-300, so every column starts below the float range
    # and grows: none may come out as zeros where its elements are representable
    dim = 1500
    ref = displaced_number_states(g, dim, 5)
    ours = fock.displacement_matrix(g, dim)[:, :6]
    assert np.count_nonzero(ref) > 0.5 * ref.size
    assert np.all(np.abs(ours - ref) <= 1e-10 * np.abs(ref) + 1e-13 * np.abs(ref).max())


def test_displacement_beyond_the_float_range_raises():
    # |gamma| = 60: e^{-1800} to O(1) in one column does not fit a float
    with pytest.raises(fock.NumericalError):
        fock.displacement_matrix(60.0, 1000)


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
    shifted = displace(vac, gamma, n_out=None)
    coh = fock.make_state(fock.StateSpec.coherent(gamma),
                          cutoff=shifted.shape[0] - 1, tail=None)
    assert fock.trace_distance(shifted, coh) < 1e-9


def test_displace_inverse_round_trip(random_state):
    rho = random_state(6, seed=3)
    back = displace(displace(rho, 0.9, n_out=None), -0.9, n_out=6)
    assert_allclose(back, rho, atol=1e-8)


def test_displace_flags_lost_mass():
    rho = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    with pytest.raises(fock.CutoffError):
        displace(rho, 4.0, margin=2)


def test_displace_at_gamma_12_is_the_coherent_state():
    # spans reach 298 at the working cutoff, where |gamma|^span alone exceeds
    # the float range; only the full log-space magnitude is representable
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shifted = displace(vac, 12, n_out=None)
    coh = fock.make_state(fock.StateSpec.coherent(12),
                          cutoff=shifted.shape[0] - 1, tail=None)
    assert fock.trace_distance(shifted, coh) < 1e-9


def test_displace_rejects_non_finite_state():
    rho = np.array(fock.make_state(fock.StateSpec.coherent(0.5)))
    rho[1, 1] = np.nan
    with pytest.raises(fock.NumericalError):
        displace(rho, 0.5)


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


def test_metrics_of_a_mixed_state_against_a_pure_one(random_state):
    rho = random_state(5, seed=1)
    target = fock.make_state(fock.StateSpec.number(0), cutoff=4)
    assert 0.0 < fock.purity(rho) <= 1.0
    assert 0.0 < fock.fidelity_to_pure(rho, target) < 1.0
    assert 0.0 < fock.trace_distance(rho, target) <= 1.0


def test_photon_distribution_clamps_tiny_negatives():
    rho = np.diag([1.0, -1e-13, 0.0]).astype(complex)
    p = fock.photon_distribution(rho)
    assert p[1] == 0.0
    assert p.dtype == float and not p.flags.writeable


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "nan_imag": 1j * np.nan,
              "inf_imag": 1j * np.inf}


def with_cell(rho, cell, value):
    rho = np.array(rho, dtype=complex)
    rho[cell] = value
    return rho


@pytest.mark.parametrize("rho", [
    np.diag([1.0, -1e-9]).astype(complex),
    np.diag([1.0, 1e-6j]),
    *(with_cell(np.diag([0.0, 1.0, 0.0]), (0, 0), v) for v in NON_FINITE.values()),
    np.full((3, 3), np.nan, dtype=complex),
], ids=["negative", "imaginary", *(f"{k}_diagonal" for k in NON_FINITE), "all_nan"])
def test_photon_distribution_rejects_bad_diagonal(rho):
    with pytest.raises(ValueError):
        fock.photon_distribution(rho)


def test_a_non_finite_stack_row_is_named():
    stack = np.array([[0.5, 0.5], [0.5, np.nan], [0.25, 0.25]])
    with pytest.raises(ValueError, match="diagonal in row 1 has a non-finite entry"):
        fock._checked_probabilities(stack)


@pytest.mark.parametrize("spec", [
    fock.StateSpec.number(4),
    fock.StateSpec.coherent(1.5),
    fock.StateSpec.thermal(0.8),
    fock.StateSpec.squeezed_vacuum(1.2),
])
def test_states_satisfy_density_matrix_invariants(spec):
    rho = fock.make_state(spec)
    fock.validate_density_matrix(rho)  # hermitian, unit trace, PSD


@pytest.mark.parametrize("rho,match", [
    (np.eye(2, 3), "square"),
    (np.array([[1.0, 1e-6], [0.0, 0.0]], dtype=complex), "Hermitian"),
    (np.diag([0.7, 0.7]).astype(complex), "trace"),
    (np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex), "PSD"),
    *((with_cell(np.diag([0.0, 1.0, 0.0]), cell, v), "non-finite")
      for cell in ((0, 0), (0, 2)) for v in NON_FINITE.values()),
    (np.full((3, 3), np.nan, dtype=complex), "non-finite"),
], ids=["non_square", "non_hermitian", "trace", "not_psd",
        *(f"{k}_{where}" for where in ("diagonal", "off_diagonal") for k in NON_FINITE),
        "all_nan"])
def test_validate_density_matrix_rejects_violations(rho, match):
    with pytest.raises(ValueError, match=match):
        fock.validate_density_matrix(rho)


@pytest.mark.parametrize("metric", [
    fock.purity,
    fock.photon_distribution,
    lambda m: fock.trace_distance(m, np.eye(2) / 2),
    lambda m: fock.trace_distance(np.eye(2) / 2, m),
    lambda m: fock.fidelity_to_pure(m, np.diag([1.0, 0.0])),
    lambda m: fock.fidelity_to_pure(np.diag([1.0, 0.0]), m),
], ids=["purity", "photon_distribution", "trace_distance", "trace_distance_reference",
        "fidelity_to_pure", "fidelity_to_pure_reference"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_state_metrics_reject_a_non_square_array(metric, shape):
    # purity(np.eye(2, 3)) used to return 2.0 and photon_distribution a
    # distribution; the other two failed inside numpy
    with pytest.raises(ValueError, match="square"):
        metric(np.ones(shape) / 4)
