"""Cascaded filters: trial walks, first-ON statistics, the MC estimator."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from fockfilter import cascade, filtering, fock
from fockfilter.cascade import CascadeConfig, estimate_photon_distribution, response_matrix
from fockfilter.cavity import CavityParams
from fockfilter.filtering import MIN_OUTCOME_PROB, ProbeDetector
from reference import (count_first_on, first_on_distribution, run_cascade_trial, stage_update,
                       uniforms)

# Gap allowed between q_k from the response matrix and from a walk of full
# states.  Largest relative gap measured over 12000 random cascades (1-6
# stages, tau 1e-4..0.5, chi_t 0.05..3, |alpha| <= 100, full-rank states up
# to dim 14): 2.6e-14.  Below 1e-30 (|alpha| ~ 1e-28, where e^G - e^G_off
# rounds to 0 on one side and to ~1e-47 of imaginary residue on the other)
# the gap is absolute; the uniforms resolve only 2^-53.
Q_RTOL = 1e-13
Q_ATOL = 1e-30


FIG3_PROBE = ProbeDetector(alpha=20.0, eta=0.4)


def fig3_cascade(n_top=8, samples=2000, seed=0, rule="exact"):
    return CascadeConfig(n_top=n_top, tau=1e-3, chi_t=0.1, probe=FIG3_PROBE,
                         samples=samples, rng_seed=seed, update_rule=rule)


def off_chain_q(rho, cfg):
    """Per-stage click probabilities q_k along the all-OFF path, from R and S."""
    d = np.asarray(rho, dtype=complex).diagonal()
    return cascade._first_on_chain(d, *response_matrix(cfg, d.size))[0]


def test_fock_input_clicks_at_its_own_stage():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=8)
    probs, residual = first_on_distribution(rho, fig3_cascade())
    assert int(np.argmax(probs)) == 3
    assert probs[3] > 0.95
    assert probs.sum() + residual == pytest.approx(1.0, abs=1e-12)


def test_single_stage_on_target_always_clicks():
    rho = fock.make_state(fock.StateSpec.number(0), cutoff=4)
    cfg = fig3_cascade(n_top=0, samples=10)
    for i in range(10):
        # the walk stops at its first click: the only stage is ON
        assert run_cascade_trial(rho, cfg, i) == 0


def test_vacuum_fires_the_first_stage():
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=8)
    probs, residual = first_on_distribution(vac, fig3_cascade())
    assert probs[0] > 1.0 - 1e-10
    assert residual < 1e-10


def test_trial_records_off_prefix():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=8)
    cfg = fig3_cascade()
    # stages 0..2 are off-resonant for |3>, so they are OFF and the click
    # lands at stage 3, where the walk stops
    assert run_cascade_trial(rho, cfg, 42) == 3


def test_first_on_matches_input_distribution_in_good_cavity_regime():
    # the mixing correction is O(c) with c = eta |alpha|^2 tau^2 / chi_t^2
    for spec in (fock.StateSpec.squeezed_vacuum(1.0),
                 fock.StateSpec.coherent(np.sqrt(2.0)),
                 fock.StateSpec.thermal(1.0)):
        rho = fock.make_state(spec)
        probs, _ = first_on_distribution(rho, fig3_cascade())
        theory = fock.analytic_distribution(spec, 8)
        assert np.max(np.abs(probs - theory)) < 0.02


def test_estimator_is_consistent():
    spec = fock.StateSpec.coherent(np.sqrt(2.0))
    est = estimate_photon_distribution(spec, fig3_cascade(samples=100_000))
    sigma = np.sqrt(est.expected * (1 - est.expected) / est.samples)
    assert np.all(np.abs(est.values - est.expected) < 4 * np.maximum(sigma, 1e-5))
    assert est.samples == 100_000


def test_estimator_reproducible_and_seed_sensitive():
    spec = fock.StateSpec.thermal(1.0)
    a = estimate_photon_distribution(spec, fig3_cascade(samples=1500, seed=7))
    b = estimate_photon_distribution(spec, fig3_cascade(samples=1500, seed=7))
    c = estimate_photon_distribution(spec, fig3_cascade(samples=1500, seed=8))
    assert_allclose(a.values, b.values)
    assert not np.array_equal(a.counts, c.counts)


def test_estimator_matches_trial_level_walk():
    # the chained fast path must reproduce individual trial draws exactly
    spec = fock.StateSpec.coherent(np.sqrt(2.0))
    rho = fock.make_state(spec)
    for rule in cascade.UPDATE_RULES:
        cfg = fig3_cascade(samples=200, seed=11, rule=rule)
        est = estimate_photon_distribution(spec, cfg)
        counts = np.zeros(10, dtype=int)
        for i in range(200):
            first = run_cascade_trial(rho, cfg, i)
            counts[first if first is not None else 9] += 1
        assert np.array_equal(est.counts, counts[:9]), rule
        assert est.all_off == pytest.approx(counts[9] / 200)


def test_estimator_independent_of_chunk_size():
    spec = fock.StateSpec.squeezed_vacuum(1.0)
    cfg = fig3_cascade(samples=3000)
    est = estimate_photon_distribution(spec, cfg)
    q = off_chain_q(fock.make_state(spec), cfg)
    for chunk in (1, 7, None):
        counts = cascade._count_first_on(q, cfg.rng_seed, cfg.samples, chunk)
        assert np.array_equal(counts[:9], est.counts), chunk
        assert counts[9] / cfg.samples == est.all_off


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n_stages=st.integers(1, 12),
       picks=st.lists(st.integers(0, 63), max_size=40), data=st.data())
def test_uniforms_depend_only_on_seed_trial_stage(seed, n_stages, picks, data):
    full = uniforms(seed, np.arange(64), n_stages)
    assert np.all((full >= 0.0) & (full < 1.0))
    order = data.draw(st.permutations(picks))
    assert np.array_equal(uniforms(seed, order, n_stages).reshape(-1, n_stages),
                          full[order])
    # the uniform of stage k does not depend on how many stages are drawn
    assert np.array_equal(uniforms(seed, np.arange(64), n_stages + 3)[:, :n_stages], full)


U53 = 2.0 ** -53


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["zero", "subnormal", "drawn", "below", "above", "random",
                             "top", "one", "over"]),
       w=st.integers(0, 2 ** 64 - 1), x=st.floats(0.0, 1.0),
       z=st.integers(0, 2 ** 64 - 1), edge=st.sampled_from([None, "T", "t"]),
       t=st.integers(0, 2 ** 53), below=st.booleans())
def test_integer_threshold_is_the_uniform_comparison(kind, w, x, z, edge, t, below):
    # q at a drawn u = (w >> 11) 2^-53 and its neighbours, at the ends of
    # [0, 1] and past them; z anywhere, or at t 2^11 - 1 and t 2^11 for the
    # threshold's own t or any other
    drawn = (w >> 11) * U53
    q = {"zero": 0.0, "subnormal": 5e-324 * (1 + w % 2 ** 40), "drawn": drawn,
         "below": np.nextafter(drawn, 0.0), "above": np.nextafter(drawn, 1.0), "random": x,
         "top": 1.0 - U53, "one": 1.0, "over": 1.0 + x * 1e3 + U53}[kind]
    T, stop = cascade._thresholds(np.array([q]))
    if edge is not None:
        t = int(T[0]) >> 11 if edge == "T" and stop else t
        z = min(max(t * 2 ** 11 - below, 0), 2 ** 64 - 1)
    click = stop == 0 or bool(np.uint64(z) < T[0])
    assert stop == (0 if q >= 1.0 else 1)
    assert click == ((z >> 11) * U53 < q), (q, z)


def test_thresholds_stop_at_the_first_stage_that_always_clicks():
    T, stop = cascade._thresholds(np.array([0.5, -0.0, np.nan, 1.0, 0.25, 2.0]))
    assert stop == 3
    assert T.dtype == np.uint64
    assert T.tolist() == [2 ** 63, 0, 0]


# click probabilities that sit on the comparison's edges
EDGE_Q = [0.0, 1.0, 5e-324, 1e-300, U53, 1.0 - U53, 1.5]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 13),
       samples=st.integers(1, 5000), chunk=st.sampled_from([1, 7, None]), data=st.data())
def test_sampler_equals_the_full_matrix_of_uniforms(seed, n, samples, chunk, data):
    u = uniforms(seed, np.arange(min(samples, 8)), n)
    q = np.array([data.draw(st.one_of(
        st.sampled_from(EDGE_Q), st.floats(0.0, 1.0), st.floats(0.0, 1e-3),
        st.sampled_from(["drawn", "below", "above"]).map(
            lambda how, k=k: {"drawn": u[k % len(u), k],
                              "below": np.nextafter(u[k % len(u), k], 0.0),
                              "above": np.nextafter(u[k % len(u), k], 1.0)}[how])),
        label=f"q[{k}]") for k in range(n)])
    counts = cascade._count_first_on(q, seed, samples, chunk)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, count_first_on(q, seed, samples)), (q, seed, samples)


@pytest.mark.parametrize("stage", [0, 3])
def test_a_draw_exactly_at_its_threshold_does_not_click(stage):
    # u == q_k is no click; in raw bits that is z == T_k, a z whose low 11
    # bits are 0, so find such a draw and put q_k on it
    seed = 12
    z = cascade._stage_bits(cascade.derive_seeds(seed, np.arange(2 ** 14)),
                            np.full(1, stage, dtype=np.uint64))
    trial = int(np.flatnonzero(z & np.uint64(2 ** 11 - 1) == 0)[0])
    q = np.zeros(5)
    q[stage] = int(z[trial]) * 2.0 ** -64
    assert cascade._thresholds(q)[0][stage] == z[trial]
    counts = cascade._count_first_on(q, seed, trial + 1)
    assert np.array_equal(counts, count_first_on(q, seed, trial + 1))


def test_sampler_memory_is_bounded_by_cells_not_trials():
    # 1025 stages x 16384 trials that almost never click: the full matrix of
    # uniforms is 128 MiB, and chunks of 2^14 trials peak at 385 MiB.  A block
    # of CHUNK_CELLS uint64 cells is 2 MiB; the sampler peaks at ~4.3 MiB.
    q = np.full(1025, 1e-4)
    tracemalloc.start()
    try:
        counts = cascade._count_first_on(q, 3, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 16384
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


# substream indices that are not integers in 0..2^63 - 1, each of which once
# ran as a truncated index (1.5 as 1, True as 1) or was refused as negative
BAD_INDICES = {
    "float": [1.5], "integral float": [1.0], "float array": np.array([0.5]),
    "bool": [True], "numpy bool": np.array([False, True]), "string": ["1"],
    "object": np.array([1], dtype=object), "none": [None],
    "negative": [-1], "negative range": range(-1, 3),
    "uint64 2^63": np.array([2 ** 63], dtype=np.uint64), "past uint64": [2 ** 64],
    "range to 2^63": range(2 ** 63 - 1, 2 ** 63 + 1),
    "range from 2^63": range(2 ** 63, 0, -2 ** 62), "range past uint64": range(2 ** 64 + 1),
    "range stepping below 0": range(3, -2, -2),
}


@pytest.mark.parametrize("name", sorted(BAD_INDICES))
def test_substream_indices_take_integers_in_range_only(name):
    with pytest.raises(ValueError, match=r"^substream indices must be integers in "
                                         rf"0\.\.{2 ** 63 - 1}, got "):
        cascade.derive_seeds(1, BAD_INDICES[name])


def test_integer_indices_of_any_form_name_the_same_substreams():
    # integer arrays of any width, ranges and empty sequences are indices
    reference = cascade.derive_seeds(1, [0, 1, 2])
    for good in (range(3), np.arange(3, dtype=np.uint8), np.arange(3, dtype=np.int32),
                 np.arange(3, dtype=np.uint64)):
        assert np.array_equal(cascade.derive_seeds(1, good), reference)
    for empty in ([], (), range(0), np.array([])):
        assert cascade.derive_seeds(1, empty).shape == (0,)
    # a lone index is one substream, mixed as an array: no overflow warning
    assert np.array_equal(cascade.derive_seeds(1, np.int64(2)), reference[2:])
    top = np.array([2 ** 63 - 1], dtype=np.uint64)
    assert np.array_equal(cascade.derive_seeds(1, top), cascade.derive_seeds(1, [2 ** 63 - 1]))
    # a range is built from its start, stop and step: the seeds of its
    # np.arange, bit for bit, whether empty, stepped, descending or offset
    for bounds in [(0,), (5,), (1,), (7, 7), (9, 3), (2, 40, 3), (40, 2, -3), (10, -1, -1),
                   (10 ** 12, 10 ** 12 + 5), (2 ** 63 - 4, 2 ** 63 - 1),
                   (2 ** 63 - 2, 2 ** 62, -2 ** 61)]:
        seeds = cascade.derive_seeds(2 ** 64 - 1, range(*bounds))
        assert seeds.dtype == np.uint64
        assert np.array_equal(seeds, cascade.derive_seeds(2 ** 64 - 1, np.arange(*bounds)))
    # a lone index whatever the step, which may pass int64
    assert np.array_equal(cascade.derive_seeds(1, range(2, 3, 10 ** 30)), reference[2:])


def test_confidence_floor():
    spec = fock.StateSpec.number(2)
    est = estimate_photon_distribution(spec, fig3_cascade(n_top=4, samples=500))
    assert np.all(est.ci >= 1 / 500 - 1e-15)
    # the earlier stages leak ~2% in total for |2> at these parameters
    assert est.values[2] >= 0.95
    assert abs(est.values[2] - est.expected[2]) < 4 * est.ci[2]


def test_good_cavity_rule_agrees_with_exact():
    spec = fock.StateSpec.coherent(np.sqrt(2.0))
    rho = fock.make_state(spec)
    exact, _ = first_on_distribution(rho, fig3_cascade(rule="exact"))
    proj, _ = first_on_distribution(rho, fig3_cascade(rule="good_cavity"))
    assert 0.5 * np.abs(exact - proj).sum() < 0.02


FIG3_FIELDS = dict(n_top=8, tau=1e-3, chi_t=0.1, probe=FIG3_PROBE, samples=10, rng_seed=0)


@pytest.mark.parametrize("field, value, message", [
    ("n_top", -1, "n_top must lie in 0..4096, got -1"),
    ("n_top", fock.CUTOFF_CEILING + 1, "n_top must lie in 0..4096, got 4097"),
    ("n_top", 10 ** 9, "n_top must lie in 0..4096, got 1000000000"),
    ("tau", 1.0, "tau must lie"),
    ("tau", float("nan"), "tau must lie"),
    ("chi_t", 0.0, "chi_t must be finite"),
    ("chi_t", float("inf"), "chi_t must be finite"),
    # chi_t itself is fine, but the top stage's phase chi_t * 8 overflows
    ("chi_t", 1e308, "psi must be finite"),
    ("probe", 20.0, "probe must be a ProbeDetector"),
    ("samples", 0, "samples must be >= 1"),
    ("rng_seed", -1, f"rng_seed must lie in 0..{2 ** 64 - 1}, got -1"),
    ("rng_seed", 2 ** 64, f"rng_seed must lie in 0..{2 ** 64 - 1}, got {2 ** 64}"),
    ("update_rule", "fast", "update_rule must be one of"),
])
def test_config_validation(field, value, message):
    with pytest.raises(ValueError, match=message):
        CascadeConfig(**{**FIG3_FIELDS, field: value})


def test_n_top_reaches_the_cutoff_ceiling():
    cfg = CascadeConfig(**{**FIG3_FIELDS, "n_top": fock.CUTOFF_CEILING})
    assert len(cfg.stages) == fock.CUTOFF_CEILING + 1


@pytest.mark.parametrize("field", ["n_top", "samples", "rng_seed"])
def test_integer_fields_refuse_bools_and_non_integral_values(field):
    # a float seed used to run as its integer part, and a float sample count
    # died inside the sampler with a TypeError
    for value in (True, np.bool_(True), 1.5, 2.7, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CascadeConfig(**{**FIG3_FIELDS, field: value})
    # numpy integers are integers, and become ints
    cfg = CascadeConfig(**{**FIG3_FIELDS, field: np.int64(3)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3


def test_theory_of_a_matrix_below_the_cascade_is_padded_with_zeros():
    # a 4-level state on the 9 stages of fig3: one theory entry per stage
    rho = fock.make_state(fock.StateSpec.number(2), cutoff=3, tail=None)
    est = estimate_photon_distribution(rho, fig3_cascade(samples=100))
    assert len(est.theory) == len(est.values) == 9
    assert list(est.theory) == [0.0, 0.0, 1.0] + [0.0] * 6


def test_estimator_rejects_a_non_square_matrix():
    cfg = fig3_cascade(samples=10)
    with pytest.raises(ValueError, match="square"):
        estimate_photon_distribution(np.eye(2, 3), cfg)


def test_trace_drift_aborts_trial():
    rho = 0.5 * fock.make_state(fock.StateSpec.thermal(1.0))
    with pytest.raises(fock.NumericalError):
        run_cascade_trial(rho, fig3_cascade(), 0)


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_non_finite_state_aborts_walk_and_estimate(rule):
    # NaN fails every comparison, so a `drift > tol` guard would let it pass
    rho = np.array(fock.make_state(fock.StateSpec.thermal(1.0)))
    rho[2, 2] = np.nan
    cfg = fig3_cascade(samples=100, rule=rule)
    with pytest.raises(fock.NumericalError):
        run_cascade_trial(rho, cfg, 0)
    with pytest.raises(fock.NumericalError):
        estimate_photon_distribution(rho, cfg)


def full_matrix_chain(rho, cfg):
    """q_k from walking full conditional states along the all-OFF path."""
    state, q = np.asarray(rho, dtype=complex), []
    for k in range(cfg.n_top + 1):
        p_on, _, _, state = stage_update(state, cfg, k)
        q.append(p_on)
    return np.array(q)


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_off_chain_sees_only_the_diagonal(random_state, rule):
    # photon-number nondemolition: coherences never reach the click probabilities
    cfg = fig3_cascade(rule=rule)
    for rho in (random_state(12, seed=3),
                fock.make_state(fock.StateSpec.coherent(np.sqrt(3.0)))):
        q = off_chain_q(rho, cfg)
        assert np.array_equal(q, off_chain_q(np.diag(np.diagonal(rho)), cfg))
        assert_allclose(q, full_matrix_chain(rho, cfg), rtol=Q_RTOL, atol=Q_ATOL)


def test_all_off_residual_where_a_click_is_nearly_certain():
    # |3> clicks at stage 3 with p_off ~ 1e-70; a product of (1 - q_k)
    # cancels there, the log-space survival does not
    spec = fock.StateSpec.number(3)
    rho = fock.make_state(spec)
    cfg = fig3_cascade()
    state, all_off, walk_expected = np.asarray(rho, dtype=complex), 1.0, []
    for k in range(cfg.n_top + 1):
        p_on, _, p_off, state = stage_update(state, cfg, k)
        walk_expected.append(all_off * p_on)
        all_off *= p_off
    assert all_off == pytest.approx(3.11e-70, rel=1e-3)
    expected, residual = first_on_distribution(rho, cfg)
    est = estimate_photon_distribution(spec, cfg)
    assert np.array_equal(expected, est.expected) and residual == est.all_off_expected
    for got_expected, got_residual in ((expected, residual),
                                       (est.expected, est.all_off_expected)):
        assert got_residual == pytest.approx(all_off, rel=1e-10, abs=0)
        assert_allclose(got_expected, walk_expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_input_trace_drift_aborts_estimate(rule):
    rho = 0.5 * fock.make_state(fock.StateSpec.thermal(1.0))
    cfg = fig3_cascade(samples=100, rule=rule)
    with pytest.raises(fock.NumericalError, match="completeness drifted by 5.000e-01"):
        estimate_photon_distribution(rho, cfg)


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_dead_all_off_path_clicks_every_trial_before_it_dies(rule):
    # |3> never survives a stage-3 filter at alpha = 100, eta = 1, so no trial
    # reaches the later stages, whose q is undefined; tau = 1e-5 keeps the
    # exact rule's off-resonant clicks at stages 0-2 below 1.4e-4 per trial
    spec = fock.StateSpec.number(3)
    cfg = CascadeConfig(n_top=8, tau=1e-5, chi_t=0.1,
                        probe=ProbeDetector(alpha=100.0, eta=1.0),
                        samples=100, rng_seed=0, update_rule=rule)
    est = estimate_photon_distribution(spec, cfg)
    assert est.counts[3] == est.samples == 100
    assert est.all_off == 0
    expected, residual = first_on_distribution(fock.make_state(spec), cfg)
    assert expected[:4].sum() == pytest.approx(1.0, abs=cascade.TRACE_DRIFT_TOL)
    assert not expected[4:].any()
    assert residual < MIN_OUTCOME_PROB
    assert len(off_chain_q(fock.make_state(spec), cfg)) == 4


def test_trial_reaching_a_dead_stage_raises():
    # a hand-built (R, S) that contradicts itself for d = [1]: stage 0 never
    # clicks, yet no probability survives to stage 1
    d = np.array([1.0])
    R = np.zeros((2, 1))
    S = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(fock.NumericalError, match="100 of 100 trials reached stage 1"):
        cascade._estimate(d, d, R, S, seed=0, samples=100)
    # the consistent chain, where stage 0 always clicks, samples as usual
    R[0, 0] = 1.0
    est = cascade._estimate(d, d, R, S, seed=0, samples=100)
    assert list(est.counts) == [100, 0]
    assert est.all_off == 0


@pytest.mark.parametrize("rule", ["exact", "good_cavity"])
def test_the_states_a_trial_walks_through_are_exactly_hermitian(rule):
    state = fock.make_state(fock.StateSpec.coherent(complex(1.1, -0.9)), cutoff=30, tail=None)
    cfg = fig3_cascade(rule=rule)
    for k in range(cfg.n_top + 1):
        p_on, state_on, p_off, state_off = stage_update(state, cfg, k)
        for s in (state_on, state_off):
            if s is not None:
                assert np.array_equal(s, s.conj().T)
                assert not s.diagonal().imag.any()
        state = state_off


def exponent_drift(cfg, k, dim):
    """|e^G(n, n) - 1| of a full filter pass at stage k: its own completeness error."""
    cav = CavityParams.tuned(k, cfg.tau, cfg.chi_t)
    G, _ = filtering._element_exponents(cav, cfg.probe, dim - 1)
    return np.abs(np.exp(G[fock._lower_triangle(dim)[2]]) - 1.0)


TRIALS = 200


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rule=st.sampled_from(cascade.UPDATE_RULES), n_top=st.integers(0, 5),
       tau=st.floats(1e-4, 0.5), chi_t=st.floats(0.05, 3.0), a=st.floats(0.0, 99.99),
       arg=st.floats(-np.pi, np.pi), eta=st.floats(0.05, 1.0),
       dim=st.integers(1, 14), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_response_matrix_matches_full_state_walk(random_state, rule, n_top, tau, chi_t, a,
                                                 arg, eta, dim, seed, data):
    # the stages share tau, chi_t, alpha and eta; the top ones may lie
    # beyond the cutoff
    cfg = CascadeConfig(n_top=n_top, tau=tau, chi_t=chi_t,
                        probe=ProbeDetector(alpha=a * np.exp(1j * arg), eta=eta),
                        samples=TRIALS, rng_seed=seed, update_rule=rule)
    R, S = response_matrix(cfg, dim)
    K = n_top + 1
    assert R.shape == (K, dim) and S.shape == (K + 1, dim)

    # each column is a distribution over first clicks and no click; it sums
    # to 1 up to the completeness error the stages' own full passes show
    drift = np.zeros(dim) if rule == "good_cavity" else sum(
        exponent_drift(cfg, k, dim) for k in range(K))
    assert np.all(R >= 0.0)
    assert np.all(np.abs(R.sum(axis=0) + S[K] - 1.0) <= 1e-12 + drift)

    # the click probabilities of a full-state walk along the all-OFF path,
    # where that path stays possible
    rho = random_state(dim, seed=seed)
    alive = S[:-1] @ np.diagonal(rho).real
    assume(np.all(alive[1:] >= MIN_OUTCOME_PROB))
    assert_allclose(off_chain_q(rho, cfg), full_matrix_chain(rho, cfg),
                    rtol=Q_RTOL, atol=Q_ATOL)

    # column n is the first-ON distribution of |n>: compare with trial walks
    n = data.draw(st.integers(0, dim - 1))
    number = np.zeros((dim, dim), dtype=complex)
    number[n, n] = 1.0
    counts = np.zeros(K + 1)
    for trial in range(TRIALS):
        first = run_cascade_trial(number, cfg, trial)
        counts[K if first is None else first] += 1
    p = np.clip(np.append(R[:, n], S[K, n]), 0.0, 1.0)
    sigma = np.maximum(np.sqrt(p * (1.0 - p) / TRIALS), 1.0 / TRIALS)
    assert np.all(np.abs(counts / TRIALS - p) <= 5.0 * sigma)


def test_estimate_accepts_prepared_matrix():
    spec = fock.StateSpec.coherent(1.0)
    rho = fock.make_state(spec)
    cfg = fig3_cascade(n_top=4, samples=800)
    from_spec = estimate_photon_distribution(spec, cfg)
    from_rho = estimate_photon_distribution(rho, cfg)
    assert np.array_equal(from_spec.counts, from_rho.counts)


def load_tracing():
    """bench/tracing.py, imported from its file as the benchmark imports it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_the_benchmark_tracer_reads_the_estimate_and_its_config(rule):
    # the traced benchmark counts stages, trials and draws from the estimator's
    # `cfg` argument and result; a renamed field would fail only a traced run
    tracing = load_tracing()
    cfg = fig3_cascade(n_top=5, samples=300, seed=3, rule=rule)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        est = cascade.estimate_photon_distribution(fock.StateSpec.thermal(1.0), cfg)
    finally:
        tracer.uninstall()
    assert cascade.estimate_photon_distribution is estimate_photon_distribution
    [counts] = [span[5] for span in tracer.spans
                if tracer.names[span[0]] == "cascade.estimate_photon_distribution"]
    assert counts == tracing.HOOKS["cascade.estimate_photon_distribution"]({"cfg": cfg}, est)
    all_off = est.samples - int(est.counts.sum())
    draws = sum((k + 1) * int(c) for k, c in enumerate(est.counts)) + 6 * all_off
    assert counts == {"trials": 300, "draws": draws, "stages": 6, "exact": rule == "exact"}
