"""Cascaded Fock filters: Monte Carlo photon-number measurement.

A chain of cavities tuned to n = 0, 1, 2, ..., n_top probes the signal one
Fock component at a time; the stage index of the first detector click
samples (up to a small off-resonant leak) the photon distribution of the
input state.  All stages share tau, chi_t and the probe, so a CascadeConfig
is those parameters, the sample count, the seed and the update rule.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): the uniform that decides stage k of trial i is a
pure function u(seed, i, k), the top 53 bits of the trial's raw draw at
stage k (`_stage_bits`) times 2^-53, so no generator state is carried
between trials and any subset or order of trials gives the same records.
It also means that which uniforms are drawn cannot change a count: the
sampler draws a trial's stages only up to its first click, as raw 64-bit
outputs compared with integer thresholds (`_count_first_on`).

Each filter is a photon-number nondemolition measurement, so under either
update rule a cascade is one state-independent response matrix R[k, n] =
P(first click at stage k | n photons), with the survival S[k, n] = P(no
click before stage k | n photons) (`response_matrix`).  For an input
diagonal d, the first-ON distribution is R @ d and the all-OFF residual
S[K] @ d, which an estimate reports as `expected` and `all_off_expected`
beside its counts.  Trial i clicks first at the smallest k with
u(seed, i, k) < q_k = (R @ d)_k / (S[k] @ d); trials are sampled in chunks
of at most CHUNK_CELLS trial-stage cells, which only bound memory.  Where
the all-OFF path dies (S[k] @ d < MIN_OUTCOME_PROB) the later q_k are
undefined, and a trial that would reach them raises NumericalError.  The
tests check R against an independent walk of full conditional states, one
trial at a time, and the sampler against the full matrix of uniforms, both
in tests/reference.py.
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

# Cells (trials x stages) the sampler draws at a time; bounds its memory.
CHUNK_CELLS = 2 ** 18

# SplitMix64 (Steele, Lea & Flood, OOPSLA'14): Weyl increment and finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 2 ** 64 - 1


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


def _root_key(seed):
    """mix(seed + golden) of an int seed in 0..2^64 - 1: _mix on a Python int.

    The root of every substream of seed.  Mixed as a one-element array, the
    one number would cost eight ufunc calls, ~8 µs.
    """
    z = (seed + int(_GOLDEN)) & _MASK
    z = (z ^ (z >> 30)) * int(_MIX1) & _MASK
    z = (z ^ (z >> 27)) * int(_MIX2) & _MASK
    return z ^ (z >> 31)


def _stage_bits(keys, stages):
    """Raw SplitMix64 outputs z = mix(key + (k + 1) * golden): output k + 1 of
    the stream seeded by each key, for each stage k.

    keys and stages are uint64 values that broadcast, stages an array (a
    uint64 scalar warns on the intended overflow of (k + 1) * golden).  The
    uniform of a trial at stage k is the top 53 bits of z times 2^-53, and
    substream i of a seed is the root key's stage i.
    """
    return _mix(keys + (stages + np.uint64(1)) * _GOLDEN)


def derive_seeds(seed, indices):
    """64-bit seed of substream i of `seed`, for each i in `indices`.

    Substream i is output i + 1 of a SplitMix64 stream seeded by mix(seed),
    so derived seeds are pure functions of (seed, i).  Trials and tomography
    phases draw their randomness from derived seeds.  seed is an integer in
    0..2^64 - 1; `indices` (an int, a range, a sequence or an array) holds
    integers in 0..2^63 - 1, never bools, floats or strings, or ValueError
    says so.
    """
    seed = fock._size(seed, "seed", high=2 ** 64 - 1)
    # a range of two or more indices is checked by its ends and built from
    # its first index and step: np.atleast_1d would iterate it in Python
    span = isinstance(indices, range) and len(indices[:2]) == 2
    idx = np.atleast_1d([indices[0], indices[-1]] if span else indices)
    # int(): numpy 1.x compares a uint64 with a Python int in float64
    if idx.size and (idx.dtype.kind not in "iu" or int(idx.min()) < 0
                     or int(idx.max()) > 2 ** 63 - 1):
        raise ValueError(f"substream indices must be integers in 0..{2 ** 63 - 1}, "
                         f"got {indices!r:.60}")
    if span:  # |step| <= last - first < 2^63: no int64 product overflows
        idx = indices[0] + indices.step * np.arange(len(indices), dtype=np.int64)
    return _stage_bits(np.uint64(_root_key(seed)), idx.astype(np.uint64))


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


def _thresholds(q):
    """(T, stop): the integer form of the click rule u < q_k.

    u = (z >> 11) * 2^-53 for the raw bits z of a draw (`_stage_bits`), and
    for an integer m, m < x exactly when m < ceil(x).  So at a stage k <
    stop, u < q_k exactly when z < T[k] = ceil(q_k * 2^53) * 2^11, which is 0
    for a q_k <= 0 (or NaN): no draw clicks.  stop is the first stage with
    q_k >= 1, where every draw clicks, or len(q) when there is none.
    """
    always = np.flatnonzero(q >= 1.0)
    stop = int(always[0]) if always.size else len(q)
    T = np.ceil(np.where(q[:stop] > 0.0, q[:stop], 0.0) * 2.0 ** 53).astype(np.uint64)
    T <<= np.uint64(11)
    return T, stop


def _count_first_on(q, seed, samples, chunk=None):
    """First-ON counts of trials 0..samples-1; the last slot counts no click.

    Trial i clicks first at the smallest k with u(seed, i, k) < q_k, decided
    on the raw bits of each draw (`_thresholds`), so no uniform is formed
    and no trial draws past a stage where every draw clicks.  Each chunk of
    trials draws stage 0, then the later stages only for the trials silent
    there, as one stages x survivors block whose first True along stages is
    the click.  Trials are sampled `chunk` at a time, by default max(1,
    CHUNK_CELLS // len(q)), so a block holds at most CHUNK_CELLS cells; the
    chunk bounds memory and nothing else.
    """
    n = len(q)
    T, stop = _thresholds(q)
    counts = np.zeros(n + 1, dtype=np.int64)
    if stop == 0:
        counts[0] = samples
        return counts
    stages = np.arange(stop, dtype=np.uint64)[:, None]
    root = np.uint64(_root_key(seed))
    chunk = chunk or max(1, CHUNK_CELLS // n)
    for lo in range(0, samples, chunk):
        keys = _stage_bits(root, np.arange(lo, min(lo + chunk, samples), dtype=np.uint64))
        silent = _stage_bits(keys, stages[0]) >= T[0]
        keys = keys[silent]
        counts[0] += len(silent) - len(keys)
        hit = np.empty((stop, len(keys)), dtype=bool)
        np.less(_stage_bits(keys, stages[1:]), T[1:, None], out=hit[:-1])
        hit[-1] = True  # silent at every drawn stage: on to stage `stop`
        counts[:stop + 1] += np.bincount(hit.argmax(axis=0) + 1, minlength=stop + 1)
    return counts


@dataclass(frozen=True)
class DistributionEstimate:
    """Monte Carlo photon-distribution estimate with diagnostics.

    values/ci: per-bin estimates and 1-sigma binomial half-widths (floored
    at 1/samples).  theory: the input state's distribution on the same bins.
    expected: the analytic first-ON distribution (what the estimator
    converges to).  counts: first clicks per stage.  all_off: fraction of
    trials with no click at any stage, with its analytic counterpart in
    all_off_expected.  Each of the samples trials consumes one signal
    preparation: a trial stops at its click.
    """

    values: np.ndarray
    ci: np.ndarray
    theory: np.ndarray
    expected: np.ndarray
    counts: np.ndarray
    all_off: float
    all_off_expected: float
    samples: int


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
        theory = fock.photon_distribution(rho)[:K]
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
