"""Cascaded Fock filters: Monte Carlo photon-number measurement.

A chain of cavities tuned to n_0, n_1, n_2, ... probes the signal one Fock
component at a time; the stage index of the first detector click samples
(up to a small off-resonant leak) the photon distribution of the input
state.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): the uniform that decides stage k of trial i is a
pure function u(seed, i, k), so no generator state is carried between
trials and any subset or order of trials gives the same records.

In terminate-on-first-ON mode every trial walks the same deterministic
all-OFF chain until its first click, so the per-stage click probabilities
q_k are computed once and trials are sampled in chunks: trial i clicks first
at the smallest k with u(seed, i, k) < q_k.  Chunks only bound memory.  This
is not an approximation: the records match a stage-by-stage state walk bit
for bit (see tests).

Each filter is a photon-number nondemolition measurement: an outcome scales
element (n, m) of the state by its own factor, and its probability sums the
diagonal alone.  So the q_k depend only on diag(rho), and the all-OFF chain
carries the diagonal vector through the stages, O(N) per stage, under both
update rules.  The trial walk keeps full density matrices and serves as the
independent reference.
"""

from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .filtering import ProbeDetector, filter_pass, filter_pass_diagonal, MIN_OUTCOME_PROB
from . import fock

UPDATE_RULES = ("exact", "good_cavity")

# Completeness |p_on + p_off - trace| beyond this aborts the trial.
TRACE_DRIFT_TOL = 1e-6

# Trials sampled per block; bounds the (trials, stages) uniform array.
CHUNK_TRIALS = 2 ** 14

# SplitMix64 (Steele, Lea & Flood, OOPSLA'14): Weyl increment and finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    """SplitMix64 finalizer of a uint64 array (arithmetic wraps modulo 2**64).

    Arrays only: numpy uint64 scalars can warn on the intended overflow.
    """
    z = z ^ (z >> np.uint64(30))
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def derive_seeds(seed, indices):
    """64-bit seed of substream i of `seed`, for each i in `indices`.

    Substream i is output i + 1 of a SplitMix64 stream seeded by mix(seed),
    so derived seeds are pure functions of (seed, i).  Trials and tomography
    phases draw their randomness from derived seeds.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("substream indices must be >= 0")
    base = _mix(np.full(1, seed, dtype=np.uint64) + _GOLDEN)
    return _mix(base + (idx.astype(np.uint64) + np.uint64(1)) * _GOLDEN)


def uniforms(seed, trials, n_stages):
    """Uniforms u[i, k] in [0, 1) for trial trials[i] at stage k.

    u[i, k] is a pure function of (seed, trials[i], k).  Stage k takes
    output k + 1 of a SplitMix64 stream seeded by the trial's derived seed;
    the top 53 bits of each output give the double.
    """
    keys = derive_seeds(seed, trials)
    steps = (np.arange(n_stages, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z = _mix(keys[..., None] + steps)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class CascadeStage:
    """One filter in the chain, tuned to click on Fock component target_n."""

    target_n: int
    cavity: CavityParams
    probe: ProbeDetector

    def __post_init__(self):
        if self.target_n < 0:
            raise ValueError("target_n must be >= 0")
        detune = abs(self.cavity.psi - self.cavity.chi_t * self.target_n)
        if detune > 1e-12:
            raise ValueError(
                f"stage tuned to n={self.target_n} but psi - chi_t*n = {detune:.3e} "
                "(must vanish within 1e-12)")


@dataclass(frozen=True)
class CascadeConfig:
    """Stage list, sample count, RNG seed and the conditional update rule.

    update_rule "exact" evolves the full conditional state through every
    stage; "good_cavity" uses the tau << chi_t projections (ON -> |n_k><n_k|,
    OFF -> diagonal with n_k removed).  terminate_on_first_on is the
    distribution-estimation mode; switch it off to record every stage.
    """

    stages: tuple
    samples: int
    rng_seed: int
    update_rule: str = "exact"
    terminate_on_first_on: bool = True

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("cascade needs at least one stage")
        targets = [s.target_n for s in self.stages]
        if len(set(targets)) != len(targets):
            raise ValueError(f"stage targets must be pairwise distinct, got {targets}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ValueError("rng_seed must be a 64-bit unsigned integer")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"update_rule must be one of {UPDATE_RULES}")


def tuned_cascade(n_top, tau, chi_t, alpha, eta, samples, rng_seed,
                  update_rule="exact"):
    """Cascade with one stage per Fock component 0..n_top, shared parameters."""
    probe = ProbeDetector(alpha=alpha, eta=eta)
    stages = tuple(
        CascadeStage(target_n=k, cavity=CavityParams.tuned(k, tau, chi_t), probe=probe)
        for k in range(n_top + 1))
    return CascadeConfig(stages=stages, samples=samples, rng_seed=rng_seed,
                         update_rule=update_rule)


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-stage ON/OFF bits of one trial and the first-ON stage index.

    In terminate-on-first-ON mode the outcome tuple stops at the click (so
    it contains at most one ON); first_on is None when no stage fired.
    """

    outcomes: tuple
    first_on: int | None


def _stage_update(state, stage, rule):
    """(p_on, state_on, p_off, state_off) for one stage on `state`.

    Probabilities are raw traces, so p_on + p_off equals the trace of the
    input state — the completeness check that catches drift mid-cascade.
    """
    if rule == "exact":
        res = filter_pass(state, stage.cavity, stage.probe)
        return res.p_on, res.state_on, res.p_off, res.state_off
    # good-cavity projections: a click collapses onto |n_k><n_k|, silence
    # removes the n_k component and drops coherences
    p_on, p_off, off = _good_cavity_diagonal(state.diagonal(), stage.target_n)
    if p_on >= MIN_OUTCOME_PROB:
        on = np.zeros(state.shape, dtype=complex)
        on[stage.target_n, stage.target_n] = 1.0
    else:
        on = None
    return p_on, on, p_off, None if off is None else np.diag(off)


def _good_cavity_diagonal(d, nk):
    """(p_on, p_off, OFF diagonal or None) of the good-cavity rule on diagonal d."""
    trace = d.sum().real
    p_on = float(d[nk].real) if nk < d.size else 0.0
    p_off = trace - p_on
    if p_off < MIN_OUTCOME_PROB:
        return p_on, p_off, None
    off = d.real.copy()
    if nk < d.size:
        off[nk] = 0.0
    return p_on, p_off, (off / p_off).astype(complex)


def _diagonal_update(d, stage, rule):
    """(p_on, p_off, OFF diagonal or None) for one stage on the diagonal d.

    The same numbers as _stage_update on any state with diagonal d.
    """
    if rule == "exact":
        return filter_pass_diagonal(d, stage.cavity, stage.probe)
    return _good_cavity_diagonal(d, stage.target_n)


def _check_completeness(p_on, p_off, k, stage):
    """Raise NumericalError unless p_on + p_off stays at 1."""
    drift = abs((p_on + p_off) - 1.0)
    # written so that NaN fails: a non-finite p_on or p_off makes drift non-finite
    if not drift <= TRACE_DRIFT_TOL:
        raise fock.NumericalError(
            f"cascade aborted at stage {k} (target n={stage.target_n}): "
            f"probability completeness drifted by {drift:.3e} > {TRACE_DRIFT_TOL:g}")


def run_cascade_trial(rho, cfg, trial):
    """One Monte Carlo walk, for trial index `trial`; one uniform per stage.

    Stage k clicks when u(cfg.rng_seed, trial, k) < p_on, the same uniform
    the estimator gives that trial.  The conditional state after each
    outcome feeds the next stage.  Raises NumericalError if probability
    completeness drifts past 1e-6 (or turns non-finite) at any stage or the
    drawn outcome has no conditional state.
    """
    u = uniforms(cfg.rng_seed, [trial], len(cfg.stages))[0]
    state = np.asarray(rho, dtype=complex)
    outcomes = []
    first_on = None
    for k, stage in enumerate(cfg.stages):
        p_on, state_on, p_off, state_off = _stage_update(state, stage, cfg.update_rule)
        _check_completeness(p_on, p_off, k, stage)
        clicked = u[k] < p_on
        outcomes.append(1 if clicked else 0)
        next_state = state_on if clicked else state_off
        if clicked and first_on is None:
            first_on = k
            if cfg.terminate_on_first_on:
                break
        if next_state is None:
            raise fock.NumericalError(
                f"cascade stage {k}: drew an outcome of probability < {MIN_OUTCOME_PROB:g}")
        state = next_state
    return MeasurementRecord(outcomes=tuple(outcomes), first_on=first_on)


def _off_chain_probabilities(rho, cfg):
    """Per-stage ON probability along the all-OFF path (exact chain, no sampling).

    Walks diag(rho) only (see the module docstring): the same q as a walk of
    full states, with no N x N array along the way.
    """
    d = np.asarray(rho, dtype=complex).diagonal()
    q = np.empty(len(cfg.stages))
    for k, stage in enumerate(cfg.stages):
        p_on, p_off, d = _diagonal_update(d, stage, cfg.update_rule)
        _check_completeness(p_on, p_off, k, stage)
        q[k] = p_on
        if d is None and k + 1 < len(cfg.stages):
            raise fock.NumericalError(
                f"all-OFF path dies at stage {k}: OFF probability < {MIN_OUTCOME_PROB:g}")
    return q


def first_on_distribution(rho, cfg):
    """Analytic first-ON distribution: (probabilities per stage, all-OFF residual).

    P(first_on = k) = q_k prod_{j<k} (1 - q_j) with q_k the exact per-stage
    click probabilities chained along the all-OFF path.
    """
    return _first_on_from_chain(_off_chain_probabilities(rho, cfg))


def _first_on_from_chain(q):
    """(first-ON probabilities, all-OFF residual) from the chained q_k."""
    survival = np.cumprod(np.concatenate(([1.0], 1.0 - q)))
    return q * survival[:-1], float(survival[-1])


def _count_first_on(q, seed, samples, chunk=CHUNK_TRIALS):
    """First-ON counts of trials 0..samples-1; the last slot counts no click.

    Trial i clicks first at the smallest k with u(seed, i, k) < q_k.  Trials
    are sampled `chunk` at a time, which bounds memory and nothing else.
    """
    n = len(q)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, samples, chunk):
        hit = uniforms(seed, np.arange(lo, min(lo + chunk, samples)), n) < q
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), n)
        counts += np.bincount(first, minlength=n + 1)
    return counts


@dataclass(frozen=True)
class DistributionEstimate(fock.PhotonDistribution):
    """Monte Carlo photon-distribution estimate with diagnostics.

    values/ci: per-bin estimates and 1-sigma binomial half-widths (floored
    at 1/samples).  theory: the input state's distribution on the same bins.
    expected: the analytic first-ON distribution (what the estimator
    converges to).  all_off: fraction of trials with no click at any stage,
    with its analytic counterpart in all_off_expected.  preparations counts
    signal preparations consumed (one per trial in terminate-on-ON mode).
    """

    theory: np.ndarray | None = None
    expected: np.ndarray | None = None
    counts: np.ndarray | None = None
    all_off: float = 0.0
    all_off_expected: float = 0.0
    samples: int = 0
    preparations: int = 0


def estimate_photon_distribution(spec, n_top, cfg):
    """Estimate p_n for n = 0..n_top by Monte Carlo over the cascade.

    `spec` may be a StateSpec or a prepared density matrix.  The stages must
    be tuned to 0..n_top in order.  The all-OFF chain is walked once; trial
    i draws u(cfg.rng_seed, i, k), so the counts depend on nothing else.
    """
    targets = tuple(s.target_n for s in cfg.stages)
    if targets != tuple(range(n_top + 1)):
        raise ValueError(f"stages must cover 0..{n_top} in order, got targets {targets}")
    if not cfg.terminate_on_first_on:
        raise ValueError("distribution estimation requires terminate_on_first_on mode")

    if isinstance(spec, fock.StateSpec):
        rho = fock.make_state(spec)
        theory = fock.analytic_distribution(spec, n_top)
    else:
        rho = np.asarray(spec, dtype=complex)
        theory = fock.photon_distribution(rho).values[:n_top + 1]

    q = _off_chain_probabilities(rho, cfg)
    expected, residual = _first_on_from_chain(q)

    S = cfg.samples
    counts = _count_first_on(q, cfg.rng_seed, S)

    p_hat = counts[:n_top + 1] / S
    ci = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / S), 1.0 / S)
    return DistributionEstimate(
        values=p_hat, ci=ci, theory=theory, expected=expected,
        counts=counts[:n_top + 1], all_off=counts[n_top + 1] / S,
        all_off_expected=residual, samples=S, preparations=S)
