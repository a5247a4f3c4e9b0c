"""Cascaded Fock filters: Monte Carlo photon-number measurement.

A chain of cavities tuned to n = 0, 1, 2, ..., n_top probes the signal one
Fock component at a time; the stage index of the first detector click
samples (up to a small off-resonant leak) the photon distribution of the
input state.  All stages share tau, chi_t and the probe, so a CascadeConfig
is those parameters, the sample count, the seed and the update rule.

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
NumericalError.  The tests check R against an independent walk of full
conditional states, one trial at a time.
"""

from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, cavity_amplitudes
from .filtering import ProbeDetector, MIN_OUTCOME_PROB, _folded_exponents
from . import fock

UPDATE_RULES = ("exact", "good_cavity")

# Largest completeness error tolerated: it bounds the input trace and e^G of
# the response matrix.
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
    phases draw their randomness from derived seeds.  seed is an integer in
    0..2^64 - 1.
    """
    seed = fock._size(seed, "seed", high=2 ** 64 - 1)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("substream indices must be >= 0")
    base = _mix(np.full(1, seed, dtype=np.uint64) + _GOLDEN)
    return _mix(base + (idx.astype(np.uint64) + np.uint64(1)) * _GOLDEN)


def uniforms(seed, trials, n_stages):
    """Uniforms u[i, k] in [0, 1) for trial trials[i] at stage k.

    u[i, k] is a pure function of (seed, trials[i], k).  Stage k takes
    output k + 1 of a SplitMix64 stream seeded by the trial's derived seed;
    the top 53 bits of each output give the double.  n_stages is an integer
    in 0..CUTOFF_CEILING + 1, the most stages a CascadeConfig has.
    """
    n_stages = fock._size(n_stages, "n_stages", high=fock.CUTOFF_CEILING + 1)
    keys = derive_seeds(seed, trials)
    steps = (np.arange(n_stages, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z = _mix(keys[..., None] + steps)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class CascadeConfig:
    """The paper's photon-number counter: n_top + 1 filters, stage k tuned to n = k.

    Every stage shares the beam-splitter transmissivity tau, the Kerr phase
    chi_t and the probe; stage k has psi_k = chi_t * k.  samples trials are
    seeded by rng_seed.  update_rule "exact" takes each stage's click
    probabilities from the full filter pass; "good_cavity" from the tau <<
    chi_t projections (ON -> |k><k|, OFF -> diagonal with k removed).  A
    trial stops at its first click, which is all the distribution estimate
    records.  n_top is an integer in 0..fock.CUTOFF_CEILING, samples one
    >= 1 and rng_seed one in 0..2^64 - 1 (fock._size); CavityParams checks
    tau, chi_t and the top stage's phase chi_t * n_top.
    """

    n_top: int
    tau: float
    chi_t: float
    probe: ProbeDetector
    samples: int
    rng_seed: int
    update_rule: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "n_top", fock._size(self.n_top, "n_top"))
        object.__setattr__(self, "samples", fock._size(self.samples, "samples", 1, None))
        object.__setattr__(self, "rng_seed",
                           fock._size(self.rng_seed, "rng_seed", high=2 ** 64 - 1))
        if not isinstance(self.probe, ProbeDetector):
            raise ValueError(f"probe must be a ProbeDetector, got {self.probe!r}")
        CavityParams.tuned(self.n_top, self.tau, self.chi_t)
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"update_rule must be one of {UPDATE_RULES}")

    @property
    def stages(self):
        """The photon number each stage is tuned to: range(n_top + 1)."""
        return range(self.n_top + 1)


def response_matrix(cfg, dim):
    """First-click matrix R (K x dim) and all-OFF survival S ((K + 1) x dim).

    R[k, n] = P(first click at stage k | n photons) and S[k, n] = P(no click
    before stage k | n photons), for the K = n_top + 1 stages of cfg;
    neither depends on the state.  Stage k sees n photons at the phase
    chi_t * k - chi_t * n.  With each stage's diagonal exponents G, G_off
    from filtering._folded_exponents, f = e^G - e^G_off, S[k] = exp(sum_{j<k}
    G_off,j) summed in log space (a product of 1 - f cancels where a click
    is nearly certain), and R = f S[:-1].  The good-cavity rule has G = 0
    and G_off = -inf at each stage's target.  dim is an integer in
    1..fock.CUTOFF_CEILING + 1 (ValueError).  Raises NumericalError when e^G
    leaves 1 by more than TRACE_DRIFT_TOL or is not finite.
    """
    dim = fock._size(dim, "dim", 1, fock.CUTOFF_CEILING + 1)
    n, k = np.arange(dim), np.arange(cfg.n_top + 1)[:, None]
    if cfg.update_rule == "exact":
        kappa, sigma = cavity_amplitudes(cfg.chi_t * k - cfg.chi_t * n, cfg.tau)
        G, G_off = _folded_exponents(kappa * kappa.conj(), sigma * sigma.conj(),
                                     abs(cfg.probe.alpha) ** 2, cfg.probe.eta)
    else:
        G = np.zeros((len(k), dim))
        G_off = np.where(n == k, -np.inf, 0.0)
    on = np.exp(G)
    drift = np.abs(on - 1.0).max(axis=1)
    first = int(np.argmax(~(drift <= TRACE_DRIFT_TOL)))  # the first failing stage, else 0
    # written so that NaN fails: a non-finite e^G makes the drift non-finite
    if not drift[first] <= TRACE_DRIFT_TOL:
        raise fock.NumericalError(
            f"cascade aborted at stage {first} (target n={first}): "
            f"probability completeness drifted by {drift[first]:.3e} > {TRACE_DRIFT_TOL:g}")
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
    d = fock._square_matrix(rho).diagonal()
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
    with its analytic counterpart in all_off_expected.  Each of the samples
    trials consumes one signal preparation: a trial stops at its click.
    """

    theory: np.ndarray | None = None
    expected: np.ndarray | None = None
    counts: np.ndarray | None = None
    all_off: float = 0.0
    all_off_expected: float = 0.0
    samples: int = 0


def estimate_photon_distribution(spec, cfg):
    """Estimate p_n for n = 0..n_top by Monte Carlo over the stages of cfg.

    `spec` may be a StateSpec or a prepared density matrix.  Stage k is
    tuned to n = k, so the first click samples p_n directly.  The click
    probabilities q_k come from response_matrix; trial i draws
    u(cfg.rng_seed, i, k), so the counts depend on nothing else.  theory
    has n_top + 1 entries, zero past a matrix's dimension.  A matrix whose
    diagonal is not finite raises NumericalError, as the drift guard would.
    """
    K = cfg.n_top + 1
    if isinstance(spec, fock.StateSpec):
        rho = fock.make_state(spec)
        theory = fock.analytic_distribution(spec, K - 1)
    else:
        rho = fock._square_matrix(spec)
        if not np.isfinite(rho.diagonal()).all():
            raise fock.NumericalError("cascade input: the state's diagonal is not finite")
        theory = fock.photon_distribution(rho).values[:K]
        theory = np.pad(theory, (0, K - len(theory)))

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
        all_off_expected=residual, samples=samples)
