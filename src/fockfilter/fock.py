"""Truncated Fock-space numerics.

State constructors (number / coherent / thermal / squeezed vacuum), the
displacement matrix, photon distributions and state metrics.  Every state
is a complex density matrix nu on the truncated basis {|0>, ..., |N>}:
Hermitian, unit trace, positive semidefinite.  Matrices returned by the
constructors are Hermitian bit for bit (each upper cell the conjugate of its
mirror, the diagonal real) and marked read-only; treat them as immutable
values.

Factorials are evaluated in log space so that cutoffs beyond n ~ 170 do not
overflow double precision.

Every size here is a photon number: a cutoff, an n_max, a dimension, a
number state's n.  Each must be an int or numpy integer (not a bool, not
2.0) in its range, or ValueError names it; the other modules check their
sizes the same way, through _size.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TAIL = 1e-10
# the largest cutoff a state may have, chosen or given
CUTOFF_CEILING = 4096
# choose_cutoff scans levels 0 .. n_max for each n_max in turn
_CUTOFF_PREFIXES = (63, 255, 1023, CUTOFF_CEILING)

STATE_KINDS = ("number", "coherent", "thermal", "squeezed_vacuum")


# log(k!) for k = 0 .. CUTOFF_CEILING, which bounds every size here
_LOG_FACTORIALS = np.fromiter(map(math.lgamma, range(1, CUTOFF_CEILING + 2)), float,
                              CUTOFF_CEILING + 1)
_LOG_FACTORIALS.setflags(write=False)


def _log_factorials(n_max):
    """log(k!) for k = 0 .. n_max, n_max <= CUTOFF_CEILING."""
    return _LOG_FACTORIALS[:n_max + 1]


def _size(value, name, low=0, high=CUTOFF_CEILING):
    """int(value), for an integer size or index `name` in low..high (high=None:
    no upper bound).

    ValueError naming `name` for a bool or anything that is not an int or
    numpy integer (2.0, 2.7, "3"), and for a value out of range.  Numpy
    integers become ints, so no numpy integer arithmetic follows.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")
    return value


class NumericalError(RuntimeError):
    """A computation failed numerically (as opposed to bad configuration)."""


class CutoffError(NumericalError):
    """The requested Fock-space cutoff cannot hold the requested state."""


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a signal state.

    kind is one of "number", "coherent", "thermal", "squeezed_vacuum".
    Only the field relevant to the kind is read: `n` for number states,
    `amplitude` (complex) for coherent states, `mean_n` for thermal and
    squeezed vacuum.  Squeezed vacuum is parameterized by its mean photon
    number, sinh^2(r) = mean_n.
    """

    kind: str
    n: int = 0
    amplitude: complex = 0j
    mean_n: float = 0.0

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}; expected one of {STATE_KINDS}")
        if self.kind == "number":
            # no upper bound here: a number state past the ceiling is a CutoffError
            object.__setattr__(self, "n", _size(self.n, "n", high=None))
        if self.kind in ("thermal", "squeezed_vacuum"):
            if not (self.mean_n >= 0.0 and math.isfinite(self.mean_n)):
                raise ValueError(f"mean_n must be finite and >= 0, got {self.mean_n}")
        if self.kind == "coherent" and not (math.isfinite(self.amplitude.real)
                                            and math.isfinite(self.amplitude.imag)):
            raise ValueError("coherent amplitude must be finite")

    @classmethod
    def number(cls, n):
        return cls(kind="number", n=n)

    @classmethod
    def coherent(cls, amplitude):
        return cls(kind="coherent", amplitude=complex(amplitude))

    @classmethod
    def thermal(cls, mean_n):
        return cls(kind="thermal", mean_n=float(mean_n))

    @classmethod
    def squeezed_vacuum(cls, mean_n):
        return cls(kind="squeezed_vacuum", mean_n=float(mean_n))

    @property
    def mean_photons(self):
        """Mean photon number of the (untruncated) state."""
        if self.kind == "number":
            return float(self.n)
        if self.kind == "coherent":
            return abs(self.amplitude) ** 2
        return float(self.mean_n)


def analytic_distribution(spec, n_max):
    """Closed-form photon distribution p_0..p_{n_max} of the untruncated state.

    number and squeezed vacuum: |c_n|^2, with log|c_n| from _log_magnitudes,
    the law their amplitudes are built from (a delta at n; the even-n
    two-photon expansion, exactly zero on odd n).  coherent: Poisson(|amp|^2),
    written here beside its amplitudes in _pure_amplitudes: squaring those
    moves some p_n by an ulp and, rarely, the cutoff choose_cutoff finds.
    thermal: geometric.  ValueError unless n_max is an integer in
    0..CUTOFF_CEILING.
    """
    n_max = _size(n_max, "n_max")
    n = np.arange(n_max + 1)
    if spec.kind in ("number", "squeezed_vacuum"):
        return np.exp(2.0 * _log_magnitudes(spec, n_max))
    if spec.kind == "coherent":
        lam = abs(spec.amplitude) ** 2
        if lam == 0.0:
            p = np.zeros(n_max + 1)
            p[0] = 1.0
            return p
        return np.exp(n * math.log(lam) - lam - _log_factorials(n_max))
    # thermal: (nb/(1+nb))^n / (1+nb), in log space for large nb
    nb = spec.mean_n
    if nb == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    return np.exp(n * (math.log(nb) - math.log1p(nb)) - math.log1p(nb))


def choose_cutoff(spec, tail=DEFAULT_TAIL):
    """Smallest N whose analytic tail mass sum_{n>N} p_n is below `tail`."""
    if not (0.0 < tail < 0.1):
        raise ValueError(f"tail tolerance must lie in (0, 0.1), got {tail}")
    if spec.kind == "number":
        if spec.n > CUTOFF_CEILING:
            raise CutoffError(f"number state |{spec.n}> needs cutoff {spec.n} > "
                              f"{CUTOFF_CEILING}")
        return spec.n
    # p_n and its cumulative sum are the same on every prefix of the levels,
    # so growing prefixes find the cutoff of the full scan without paying
    # for all CUTOFF_CEILING + 1 levels when the tail ends early
    for n_max in _CUTOFF_PREFIXES:
        tail_mass = 1.0 - np.cumsum(analytic_distribution(spec, n_max))
        ok = np.flatnonzero(tail_mass < tail)
        if ok.size:
            return int(ok[0])
    raise CutoffError(
        f"no cutoff up to {CUTOFF_CEILING} reaches tail mass < {tail:g} "
        f"for {spec.kind} state (mean photons {spec.mean_photons:g})")


def _log_magnitudes(spec, cutoff):
    """log|c_n| for n = 0..cutoff of a number state or squeezed vacuum, -inf
    where c_n = 0: the one law of both their amplitudes and their
    distributions."""
    if spec.kind == "number":
        return np.where(np.arange(cutoff + 1) == spec.n, 0.0, -np.inf)
    # squeezed vacuum: |c_2m| = sqrt((2m)!) / (2^m m!) tanh^m(r) / sqrt(cosh r)
    logmag = np.full(cutoff + 1, -np.inf)
    if spec.mean_n == 0.0:
        logmag[0] = 0.0
        return logmag
    r = math.asinh(math.sqrt(spec.mean_n))
    m = np.arange(cutoff // 2 + 1)
    lf = _log_factorials(cutoff)
    logmag[::2] = (0.5 * lf[::2] - m * math.log(2.0) - lf[:m.size]
                   + m * math.log(math.tanh(r)) - 0.5 * math.log(math.cosh(r)))
    return logmag


def _pure_amplitudes(spec, cutoff):
    """Fock amplitudes of a pure-kind spec on 0..cutoff (None for thermal).

    number and squeezed vacuum: e^{log|c_n|} from _log_magnitudes, which
    analytic_distribution squares, and the squeezed sign (-1)^m on n = 2m.
    coherent: its own law, |beta|^n e^{-|beta|^2/2} / sqrt(n!) times the phase
    e^{i n arg beta}, beside the Poisson law of analytic_distribution.
    """
    if spec.kind == "thermal":
        return None
    if spec.kind == "coherent":
        beta = spec.amplitude
        if beta == 0:
            c = np.zeros(cutoff + 1, dtype=complex)
            c[0] = 1.0
            return c
        n = np.arange(cutoff + 1)
        logmag = -abs(beta) ** 2 / 2 + n * math.log(abs(beta)) - _log_factorials(cutoff) / 2
        return np.exp(logmag) * np.exp(1j * n * np.angle(beta))
    c = np.exp(_log_magnitudes(spec, cutoff))
    if spec.kind == "squeezed_vacuum" and spec.mean_n > 0.0:
        c[2::4] *= -1.0  # the vacuum's empty cells stay +0
    return c.astype(complex)


def make_state(spec, cutoff=None, tail=DEFAULT_TAIL):
    """Density matrix for `spec` on {|0>..|cutoff>}, normalized to unit trace.

    With cutoff=None the cutoff comes from choose_cutoff(spec, tail).  With an
    explicit cutoff the analytic tail beyond it must still be below `tail`,
    otherwise CutoffError names the required N.  Pass tail=None together with
    an explicit cutoff to request a deliberate hard truncation.  A given
    cutoff must be an integer >= 0 (ValueError); one above CUTOFF_CEILING,
    chosen or given, raises CutoffError.
    """
    if cutoff is None:
        if tail is None:
            raise ValueError("make_state needs a cutoff or a tail tolerance")
        cutoff = choose_cutoff(spec, tail)
    else:
        cutoff = _size(cutoff, "cutoff", high=None)
        if cutoff > CUTOFF_CEILING:
            raise CutoffError(f"cutoff {cutoff} exceeds the ceiling {CUTOFF_CEILING}")
        if spec.kind == "number" and spec.n > cutoff:
            raise CutoffError(
                f"number state |{spec.n}> does not fit below cutoff {cutoff}; "
                f"requires N >= {spec.n}")
        if tail is not None:
            if not (0.0 < tail < 0.1):
                raise ValueError(f"tail tolerance must lie in (0, 0.1), got {tail}")
            left_out = 1.0 - analytic_distribution(spec, cutoff).sum()
            if left_out >= tail:
                needed = choose_cutoff(spec, tail)
                raise CutoffError(
                    f"cutoff {cutoff} leaves tail mass {left_out:.3e} >= {tail:g} "
                    f"for {spec.kind} state; requires N >= {needed}")

    if spec.kind == "thermal":
        diag = analytic_distribution(spec, cutoff)
        rho = np.diag(diag / diag.sum()).astype(complex)
        rho.setflags(write=False)
        return rho
    c = _pure_amplitudes(spec, cutoff)
    rows, cols, diagonal = _lower_triangle(cutoff + 1)
    lower = c[rows] * c[cols].conj()
    return _hermitian(lower / lower[diagonal].sum().real, cutoff + 1)


def _lower_triangle(dim):
    """(rows, cols, diagonal) of a dim x dim matrix's lower triangle n >= m in
    row-major order: the row and column of each cell, and the positions of
    the diagonal cells among them.  Read-only."""
    rows, cols, diagonal = _triangle_prefix(-(-dim // 64) * 64)
    cells = dim * (dim + 1) // 2
    return rows[:cells], cols[:cells], diagonal[:dim]


@functools.lru_cache(maxsize=4)
def _triangle_prefix(size):
    """Read-only (rows, cols, diagonal) of the lower triangle of a size x size
    matrix in row-major order.  Its first dim(dim+1)/2 cells are the
    triangle of every dim <= size, so one size, a multiple of 64, serves
    every dim up to it."""
    rows, cols = np.tril_indices(size)
    out = rows, cols, np.flatnonzero(rows == cols)
    for a in out:
        a.setflags(write=False)
    return out


def _hermitian(lower, dim):
    """The read-only dim x dim matrix whose lower triangle (row-major, as
    `_lower_triangle` orders it) is `lower`, whose upper triangle is its
    conjugate and whose diagonal is lower's real part: Hermitian bit for bit."""
    rows, cols, _ = _lower_triangle(dim)
    out = np.empty(dim * dim, dtype=complex)
    out[cols * dim + rows] = np.conj(lower)
    out[rows * dim + cols] = lower
    out.imag[::dim + 1] = 0.0
    out = out.reshape(dim, dim)
    out.setflags(write=False)
    return out


def _square_matrix(rho):
    """rho as a complex array; ValueError unless it is a square matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    return rho


def photon_distribution(rho):
    """Diagonal of a density matrix as read-only probabilities p_n.

    Validates that rho is square and its diagonal finite and real (imag
    residue <= 1e-12), and clamps negative entries above -1e-12 to 0;
    anything worse raises ValueError.
    """
    return _checked_probabilities(np.diagonal(_square_matrix(rho)))


def _checked_probabilities(diag):
    """Real, clamped, read-only probabilities from density-matrix diagonals.

    `diag` is one diagonal or a stack of them, one per row.  Each must be
    finite, real to 1e-12, have no entry below -1e-12 (entries above it are
    clamped to 0) and sum to at most 1 + 1e-10; otherwise ValueError says
    so, naming the worst row of a stack.
    """
    diag = np.asarray(diag)

    def row(per_row):
        return f" in row {int(np.argmax(per_row))}" if diag.ndim == 2 else ""

    finite = np.isfinite(diag).all(axis=-1)
    if not np.all(finite):
        raise ValueError(f"density-matrix diagonal{row(~finite)} has a non-finite entry")
    p = diag.real.copy()
    if diag.size:
        imag = np.abs(diag.imag).max(axis=-1)
        if not np.max(imag) <= 1e-12:
            raise ValueError(f"density-matrix diagonal{row(imag)} has imaginary "
                             "residue > 1e-12")
        low = p.min(axis=-1)
        if not np.min(low) >= -1e-12:
            raise ValueError(f"diagonal entry {np.min(low):.3e}{row(-low)} below -1e-12; "
                             "not a state")
    p[p < 0.0] = 0.0
    total = p.sum(axis=-1)
    if not np.max(total) <= 1.0 + 1e-10:
        raise ValueError(f"probabilities{row(total)} sum to {np.max(total):.12f} "
                         "> 1 + 1e-10")
    p.setflags(write=False)
    return p


def displacement_matrix(gamma, dim):
    """Matrix elements <n|D(gamma)|k> for n,k < dim, D = exp(g a+ - g* a).

    With gamma = |g| e^{i theta} and the normalised Laguerre functions
    E[m, a] = sqrt(m!/(m+a)!) |g|^a e^{-|g|^2/2} L_m^{(a)}(|g|^2),
      n >= k:  <n|D|k> = e^{i (n-k) theta} E[k, n-k]
      n <  k:  <n|D|k> = e^{i (n-k) theta} (-1)^{k-n} E[n, k-n].
    E comes from a three-term recurrence in m (see _laguerre_rows), O(dim^2)
    in all, and a real gamma >= 0 gives a real matrix.  Raises ValueError
    unless dim is an integer in 1..CUTOFF_CEILING + 1, and NumericalError
    when an element is not finite: past |g| ~ 52 a column spans more than
    the float range.
    """
    dim = _size(dim, "dim", 1, CUTOFF_CEILING + 1)
    gamma = complex(gamma)
    g_abs = abs(gamma)
    if g_abs == 0.0:
        D = np.eye(dim)
    else:
        rows = _laguerre_rows(g_abs, dim)
        # read flat as dim x dim, row m of the (dim, dim + 1) buffer puts
        # E[m, a] at [m, m + a]: the upper triangle holds E by diagonals
        upper = rows.reshape(-1)[:dim * dim].reshape(dim, dim)
        D = upper.T.copy()
        rows[:, 1::2] *= -1.0
        n = np.arange(dim)
        np.copyto(D, upper, where=np.less.outer(n, n))
    theta = math.atan2(gamma.imag, gamma.real)
    if theta != 0.0:
        phase = np.exp(1j * theta * np.arange(dim))
        D = D * np.outer(phase, phase.conj())
    if not np.isfinite(D).all():
        raise NumericalError(
            f"displacement matrix for |gamma|={g_abs:.4g} at dim {dim} is not "
            "finite: its columns span more than the float range")
    D.setflags(write=False)
    return D


# A lifted column of the recurrence starts near e^-_FLOOR, a normal float
# (normals reach down to e^-708).
_FLOOR = 690.0


def _laguerre_rows(g_abs, dim):
    """A (dim, dim + 1) array whose row m holds E[m, a] for a = 0 .. dim - 1.

    Row 0, E[0, a] = |g|^a e^{-|g|^2/2} / sqrt(a!), comes from log space; row
    m + 1 from the Laguerre recurrence
      E[m+1] = (2m+1+a-|g|^2) / s_m E[m] - s_{m-1} / s_m E[m-1],
    s_m = sqrt((m+1)(m+1+a)).  It runs on F[m] = E[m] / c_m with
    c_{m+1} = c_{m-1} s_{m-1} / s_m, so that each step is one multiply and
    one subtract over a whole row: F[m+1] = alpha_m F[m] - F[m-1].  Only
    entries with m + a < dim are matrix elements; the rest are computed
    along the way and may overflow.

    A column whose first entry is below e^-_FLOOR (column 0 once
    |g|^2 > 2 _FLOOR) is carried times 2^k, k chosen to lift that entry to
    about e^-_FLOOR, and scaled back exactly at the end.  Where the bound
    |L_m^(a)(x)| <= C(m+a, m) e^{x/2} (Abramowitz & Stegun 22.14.13) keeps
    the whole column below e^-_FLOOR it is left as it is: negligible.  A
    column that still grows by more than the float range overflows, and
    displacement_matrix reports it.
    """
    x = g_abs * g_abs
    a = np.arange(dim)
    lf = _log_factorials(dim - 1)
    log_g = math.log(g_abs)
    log_first = a * log_g - 0.5 * lf - 0.5 * x
    bits = None
    if log_first.min() < -_FLOOR:
        log_top = a * log_g - lf + 0.5 * (lf[-1] - lf[::-1])
        lift = np.where(log_top < -_FLOOR, 0.0, -_FLOOR - log_first)
        bits = (np.maximum(lift, 0.0) / math.log(2.0)).astype(np.int64)
        log_first += bits * math.log(2.0)
    rows = np.zeros((dim + 1, dim + 1))  # rows[m + 1] holds E[m]; E[-1] = 0
    E = rows[:, :dim]
    E[1] = np.exp(log_first)
    m1 = np.arange(1.0, dim)[:, None]  # m + 1 for m = 0 .. dim - 2
    s = np.sqrt(m1 * (m1 + a))
    c = np.ones((dim, dim))
    np.divide(s[:-1], s[1:], out=c[2:])
    np.cumprod(c[2::2], axis=0, out=c[2::2])
    np.cumprod(c[3::2], axis=0, out=c[3::2])
    alpha = (2.0 * m1 - (1.0 + x)) + a
    alpha /= s
    del s
    alpha *= c[:-1]
    alpha /= c[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha_m, prev, cur, nxt in zip(alpha, E, E[1:], E[2:]):
            np.multiply(alpha_m, cur, out=nxt)
            nxt -= prev
        E[1:] *= c
        if bits is not None:
            np.ldexp(E[1:], -bits, out=E[1:])
    return rows[1:]


def displacement_margin(gamma):
    """Extra Fock levels needed when an operator involves displacement."""
    return math.ceil(2 * abs(gamma) ** 2) + 10


def _check_leak(lost, gamma, n_rows, margin, max_lost):
    """CutoffError unless each probability `lost` past the working cutoff, the
    last of n_rows + margin levels, is <= max_lost."""
    worst = np.max(lost)
    if not worst <= max_lost:
        raise CutoffError(
            f"displacement by |gamma|={abs(gamma):.4g} leaks {worst:.3e} > {max_lost:g} "
            f"past working cutoff {n_rows + margin - 1}, the last of {n_rows + margin} "
            f"levels: n_rows {n_rows} + the displacement margin {margin} of |gamma|")


def purity(rho):
    """Tr(rho^2), computed as the squared Frobenius norm of a Hermitian rho."""
    rho = _square_matrix(rho)
    return float(np.vdot(rho, rho).real)


def fidelity_to_pure(rho, pure_rho):
    """Tr(rho |psi><psi|) for a pure reference state given as |psi><psi|."""
    a, b = _pad_pair(rho, pure_rho)
    return float(np.vdot(b, a).real)


def trace_distance(a, b):
    """(1/2) sum |eig(a - b)| for Hermitian a, b (zero-padded to equal dims)."""
    a, b = _pad_pair(a, b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def _pad_pair(a, b):
    """Two square matrices as complex arrays, the smaller zero-padded to the
    dimension of the larger; ValueError unless both are square."""
    a, b = _square_matrix(a), _square_matrix(b)
    da, db = a.shape[0], b.shape[0]
    if da == db:
        return a, b
    d = max(da, db)
    out_a = np.zeros((d, d), dtype=complex)
    out_b = np.zeros((d, d), dtype=complex)
    out_a[:da, :da] = a
    out_b[:db, :db] = b
    return out_a, out_b
