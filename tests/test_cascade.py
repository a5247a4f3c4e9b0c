"""Cascaded filters: trial walks, first-ON statistics, the MC estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fockfilter import cascade, fock
from fockfilter.cascade import (CascadeConfig, CascadeStage, estimate_photon_distribution,
                                first_on_distribution, run_cascade_trial, tuned_cascade,
                                uniforms)
from fockfilter.cavity import CavityParams
from fockfilter.filtering import ProbeDetector


def fig3_cascade(n_top=8, samples=2000, seed=0, rule="exact"):
    return tuned_cascade(n_top=n_top, tau=1e-3, chi_t=0.1, alpha=20.0, eta=0.4,
                         samples=samples, rng_seed=seed, update_rule=rule)


def test_fock_input_clicks_at_its_own_stage():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=8)
    probs, residual = first_on_distribution(rho, fig3_cascade())
    assert int(np.argmax(probs)) == 3
    assert probs[3] > 0.95
    assert probs.sum() + residual == pytest.approx(1.0, abs=1e-12)


def test_single_stage_on_target_always_clicks():
    rho = fock.make_state(fock.StateSpec.number(1), cutoff=4)
    probe = ProbeDetector(alpha=20.0, eta=0.4)
    cfg = CascadeConfig(
        stages=(CascadeStage(target_n=1, cavity=CavityParams.tuned(1, 1e-3, 0.1),
                             probe=probe),),
        samples=10, rng_seed=0)
    for i in range(10):
        rec = run_cascade_trial(rho, cfg, i)
        assert rec.outcomes == (1,)
        assert rec.first_on == 0


def test_vacuum_fires_the_first_stage():
    vac = fock.make_state(fock.StateSpec.number(0), cutoff=8)
    probs, residual = first_on_distribution(vac, fig3_cascade())
    assert probs[0] > 1.0 - 1e-10
    assert residual < 1e-10


def test_trial_records_off_prefix():
    rho = fock.make_state(fock.StateSpec.number(3), cutoff=8)
    cfg = fig3_cascade()
    rec = run_cascade_trial(rho, cfg, 42)
    # stages 0..2 are off-resonant for |3>, so the click lands at stage 3
    assert rec.first_on == 3
    assert rec.outcomes == (0, 0, 0, 1)


def test_full_walk_when_termination_disabled():
    rho = fock.make_state(fock.StateSpec.number(2), cutoff=8)
    base = fig3_cascade(n_top=5)
    cfg = CascadeConfig(stages=base.stages, samples=1, rng_seed=0,
                        terminate_on_first_on=False)
    rec = run_cascade_trial(rho, cfg, 0)
    assert len(rec.outcomes) == 6
    assert rec.first_on == 2


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
    est = estimate_photon_distribution(spec, 8, fig3_cascade(samples=100_000))
    sigma = np.sqrt(est.expected * (1 - est.expected) / est.samples)
    assert np.all(np.abs(est.values - est.expected) < 4 * np.maximum(sigma, 1e-5))
    assert est.preparations == 100_000


def test_estimator_reproducible_and_seed_sensitive():
    spec = fock.StateSpec.thermal(1.0)
    a = estimate_photon_distribution(spec, 8, fig3_cascade(samples=1500, seed=7))
    b = estimate_photon_distribution(spec, 8, fig3_cascade(samples=1500, seed=7))
    c = estimate_photon_distribution(spec, 8, fig3_cascade(samples=1500, seed=8))
    assert_allclose(a.values, b.values)
    assert not np.array_equal(a.counts, c.counts)


def test_estimator_matches_trial_level_walk():
    # the chained fast path must reproduce individual trial draws exactly
    spec = fock.StateSpec.coherent(np.sqrt(2.0))
    rho = fock.make_state(spec)
    for rule in cascade.UPDATE_RULES:
        cfg = fig3_cascade(samples=200, seed=11, rule=rule)
        est = estimate_photon_distribution(spec, 8, cfg)
        counts = np.zeros(10, dtype=int)
        for i in range(200):
            rec = run_cascade_trial(rho, cfg, i)
            counts[rec.first_on if rec.first_on is not None else 9] += 1
        assert np.array_equal(est.counts, counts[:9]), rule
        assert est.all_off == pytest.approx(counts[9] / 200)


def test_estimator_independent_of_chunk_size():
    spec = fock.StateSpec.squeezed_vacuum(1.0)
    cfg = fig3_cascade(samples=3000)
    est = estimate_photon_distribution(spec, 8, cfg)
    q = cascade._off_chain_probabilities(fock.make_state(spec), cfg)
    for chunk in (1, 7, cascade.CHUNK_TRIALS):
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


def test_uniforms_reject_negative_trials():
    with pytest.raises(ValueError):
        uniforms(0, [3, -1], 4)


def test_confidence_floor():
    spec = fock.StateSpec.number(2)
    est = estimate_photon_distribution(spec, 4, fig3_cascade(n_top=4, samples=500))
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


def test_config_validation():
    probe = ProbeDetector(alpha=20.0, eta=0.4)
    stage = CascadeStage(target_n=1, cavity=CavityParams.tuned(1, 1e-3, 0.1),
                         probe=probe)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(), samples=10, rng_seed=0)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(stage, stage), samples=10, rng_seed=0)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(stage,), samples=0, rng_seed=0)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(stage,), samples=10, rng_seed=-1)
    with pytest.raises(ValueError):
        CascadeConfig(stages=(stage,), samples=10, rng_seed=0, update_rule="fast")
    with pytest.raises(ValueError):
        # stage detuned from its declared target
        CascadeStage(target_n=2, cavity=CavityParams.tuned(1, 1e-3, 0.1), probe=probe)


def test_estimator_requires_contiguous_targets():
    spec = fock.StateSpec.thermal(1.0)
    cfg = fig3_cascade(n_top=5)
    with pytest.raises(ValueError):
        estimate_photon_distribution(spec, 8, cfg)


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
        estimate_photon_distribution(rho, 8, cfg)


def full_matrix_chain(rho, cfg):
    """q_k from walking full conditional states along the all-OFF path."""
    state, q = np.asarray(rho, dtype=complex), []
    for stage in cfg.stages:
        p_on, _, _, state = cascade._stage_update(state, stage, cfg.update_rule)
        q.append(p_on)
    return np.array(q)


@pytest.mark.parametrize("rule", cascade.UPDATE_RULES)
def test_off_chain_sees_only_the_diagonal(random_state, rule):
    # photon-number nondemolition: coherences never reach the click probabilities
    cfg = fig3_cascade(rule=rule)
    for rho in (random_state(12, seed=3),
                fock.make_state(fock.StateSpec.coherent(np.sqrt(3.0)))):
        q = cascade._off_chain_probabilities(rho, cfg)
        assert np.array_equal(q, cascade._off_chain_probabilities(
            np.diag(np.diagonal(rho)), cfg))
        assert np.array_equal(q, full_matrix_chain(rho, cfg))


def test_estimate_accepts_prepared_matrix():
    spec = fock.StateSpec.coherent(1.0)
    rho = fock.make_state(spec)
    cfg = fig3_cascade(n_top=4, samples=800)
    from_spec = estimate_photon_distribution(spec, 4, cfg)
    from_rho = estimate_photon_distribution(rho, 4, cfg)
    assert np.array_equal(from_spec.counts, from_rho.counts)
