"""Cascaded Fock filters: Monte Carlo photon-number measurement.

A chain of cavities tuned to n_0, n_1, n_2, ... probes the signal one Fock
component at a time; the stage index of the first detector click samples
(up to a small off-resonant leak) the photon distribution of the input
state.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): the uniform that decides stage k of trial i is a
pure function u(seed, i, k), so no generator state is carried between
trials and any subset or order of trials gives the same records.

Each filter is a photon-number nondemolition measurement, so under either
update rule a cascade is one state-independent response matrix R[k, n] =
P(first click at stage k | n photons), with the survival S[k, n] = P(no
click before stage k | n photons) (`response_matrix`).  For an input
diagonal d, the first-ON distribution is R @ d and the all-OFF residual
S[K] @ d.  Trial i clicks first at the smallest k with u(seed, i, k) <
q_k = (R @ d)_k / (S[k] @ d); trials are sampled in chunks, which only
bound memory.  Where the all-OFF path dies (S[k] @ d < MIN_OUTCOME_PROB)
the later q_k are undefined, and a trial that would reach them raises
NumericalError.  The trial walk keeps full density matrices and serves as
the independent reference; its records match the sampler's unless a
uniform falls within the few ulps by which the two q_k differ (see tests).
"""

from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, cavity_amplitudes
from .filtering import ProbeDetector, filter_pass, MIN_OUTCOME_PROB, _folded_exponents
from . import fock

UPDATE_RULES = ("exact", "good_cavity")

# Completeness |p_on + p_off - trace| beyond this aborts the trial; it also
# bounds the input trace and e^G of the response matrix.
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
    OFF -> diagonal with n_k removed).  A trial stops at its first click,
    which is all the distribution estimate records.
    """

    stages: tuple
    samples: int
    rng_seed: int
    update_rule: str = "exact"

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

    The outcome tuple stops at the click, so it contains at most one ON;
    first_on is None when no stage fired.
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
    nk, d = stage.target_n, state.diagonal()
    p_on = float(d[nk].real) if nk < d.size else 0.0
    p_off = d.sum().real - p_on
    on = off = None
    if p_on >= MIN_OUTCOME_PROB:
        on = np.zeros(state.shape, dtype=complex)
        on[nk, nk] = 1.0
    if p_off >= MIN_OUTCOME_PROB:
        off = np.diag(np.where(np.arange(d.size) == nk, 0.0, d.real) / p_off).astype(complex)
    return p_on, on, p_off, off


def _check_completeness(drift, k, stage):
    """Raise NumericalError unless drift = |p_on + p_off - 1| is within TRACE_DRIFT_TOL."""
    # written so that NaN fails: a non-finite p_on or p_off makes drift non-finite
    if not drift <= TRACE_DRIFT_TOL:
        raise fock.NumericalError(
            f"cascade aborted at stage {k} (target n={stage.target_n}): "
            f"probability completeness drifted by {drift:.3e} > {TRACE_DRIFT_TOL:g}")


def run_cascade_trial(rho, cfg, trial):
    """One Monte Carlo walk, for trial index `trial`; one uniform per stage.

    Stage k clicks when u(cfg.rng_seed, trial, k) < p_on, the same uniform
    the estimator gives that trial.  The walk stops at the first click; the
    conditional state after each OFF feeds the next stage.  Raises NumericalError if probability
    completeness drifts past 1e-6 (or turns non-finite) at any stage or the
    drawn outcome has no conditional state.
    """
    u = uniforms(cfg.rng_seed, [trial], len(cfg.stages))[0]
    state = np.asarray(rho, dtype=complex)
    for k, stage in enumerate(cfg.stages):
        p_on, _, p_off, state_off = _stage_update(state, stage, cfg.update_rule)
        _check_completeness(abs(p_on + p_off - 1.0), k, stage)
        if u[k] < p_on:
            return MeasurementRecord(outcomes=(0,) * k + (1,), first_on=k)
        if state_off is None:
            raise fock.NumericalError(
                f"cascade stage {k}: drew an outcome of probability < {MIN_OUTCOME_PROB:g}")
        state = state_off
    return MeasurementRecord(outcomes=(0,) * len(cfg.stages), first_on=None)


def response_matrix(cfg, dim):
    """First-click matrix R (K x dim) and all-OFF survival S ((K + 1) x dim).

    R[k, n] = P(first click at stage k | n photons) and S[k, n] = P(no click
    before stage k | n photons), for the K stages of cfg; neither depends on
    the state.  With each stage's diagonal exponents G, G_off from
    filtering._folded_exponents, f = e^G - e^G_off, S[k] = exp(sum_{j<k} G_off,j)
    summed in log space (a product of 1 - f cancels where a click is nearly
    certain), and R = f S[:-1].  The good-cavity rule has G = 0 and G_off =
    -inf at each stage's target.  Raises NumericalError when e^G leaves 1 by
    more than TRACE_DRIFT_TOL or is not finite.
    """
    n, stages = np.arange(dim), cfg.stages

    def column(values):
        return np.array(list(values))[:, None]

    if cfg.update_rule == "exact":
        kappa, sigma = cavity_amplitudes(
            column(s.cavity.psi for s in stages) - column(s.cavity.chi_t for s in stages) * n,
            column(s.cavity.tau for s in stages))
        G, G_off = _folded_exponents(kappa * kappa.conj(), sigma * sigma.conj(),
                                     column(abs(s.probe.alpha) ** 2 for s in stages),
                                     column(s.probe.eta for s in stages))
    else:
        G = np.zeros((len(stages), dim))
        G_off = np.where(n == column(s.target_n for s in stages), -np.inf, 0.0)
    on = np.exp(G)
    drift = np.abs(on - 1.0).max(axis=1)
    k = int(np.argmax(~(drift <= TRACE_DRIFT_TOL)))  # the first failing stage, else 0
    _check_completeness(drift[k], k, stages[k])
    S = np.exp(np.cumsum(np.vstack([np.zeros(dim), G_off.real]), axis=0))
    return (on - np.exp(G_off)).real * S[:-1], S


def _first_on_chain(d, R, S):
    """(q_k, first-ON probabilities R @ d, all-OFF residual S[K] @ d) of diagonal d.

    q_k = (R @ d)_k / (S[k] @ d) is the click probability of stage k on the
    all-OFF path, given for the stages that path reaches: when S[k] @ d <
    MIN_OUTCOME_PROB at a stage 0 < k < K, the path dies before stage k and q
    stops at stage k - 1.  Raises NumericalError unless sum(d) is 1 within
    TRACE_DRIFT_TOL.
    """
    drift = abs(d.sum() - 1.0)
    # written so that NaN fails: a non-finite d makes drift non-finite
    if not drift <= TRACE_DRIFT_TOL:
        raise fock.NumericalError(f"cascade input: probability completeness drifted by "
                                  f"{drift:.3e} > {TRACE_DRIFT_TOL:g}")
    expected, alive = R @ d.real, S @ d.real
    dead = np.flatnonzero(alive[1:-1] < MIN_OUTCOME_PROB)
    reached = dead[0] + 1 if dead.size else len(expected)
    return expected[:reached] / alive[:reached], expected, float(alive[-1])


def first_on_distribution(rho, cfg):
    """Analytic first-ON distribution: (R @ d, S[K] @ d) for d = diag(rho)."""
    d = np.asarray(rho, dtype=complex).diagonal()
    return _first_on_chain(d, *response_matrix(cfg, d.size))[1:]


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
    signal preparations consumed (one per trial: a trial stops at its click).
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
    be tuned to 0..n_top in order.  The click probabilities q_k come from
    response_matrix; trial i draws u(cfg.rng_seed, i, k), so the counts
    depend on nothing else.
    """
    targets = tuple(s.target_n for s in cfg.stages)
    if targets != tuple(range(n_top + 1)):
        raise ValueError(f"stages must cover 0..{n_top} in order, got targets {targets}")

    if isinstance(spec, fock.StateSpec):
        rho = fock.make_state(spec)
        theory = fock.analytic_distribution(spec, n_top)
    else:
        rho = np.asarray(spec, dtype=complex)
        theory = fock.photon_distribution(rho).values[:n_top + 1]

    d = rho.diagonal()
    R, S = response_matrix(cfg, d.size)
    return _estimate(d, theory, R, S, cfg.rng_seed, cfg.samples)


def _estimate(d, theory, R, S, seed, samples):
    """Estimate from `samples` trials seeded by `seed` on the diagonal d, with
    (R, S) of a cascade tuned to 0..K-1; theory is reported beside it."""
    q, expected, residual = _first_on_chain(d, R, S)
    counts = _count_first_on(q, seed, samples)
    K, reached = len(expected), len(q)
    if reached < K:
        # the trials in the last slot clicked at none of the reached stages,
        # so they went on to stage `reached`, which the all-OFF path never reaches
        if counts[reached]:
            raise fock.NumericalError(
                f"{counts[reached]} of {samples} trials reached stage {reached}, where "
                f"the all-OFF probability is < {MIN_OUTCOME_PROB:g}")
        counts = np.pad(counts, (0, K - reached))
    p_hat = counts[:K] / samples
    ci = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / samples), 1.0 / samples)
    return DistributionEstimate(
        values=p_hat, ci=ci, theory=theory, expected=expected,
        counts=counts[:K], all_off=counts[K] / samples,
        all_off_expected=residual, samples=samples, preparations=samples)
