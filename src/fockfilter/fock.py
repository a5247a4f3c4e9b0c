"""Truncated Fock-space numerics.

State constructors (number / coherent / thermal / squeezed vacuum),
displacement operators, photon distributions and state metrics.  Every state
is a complex density matrix nu on the truncated basis {|0>, ..., |N>}:
Hermitian, unit trace, positive semidefinite.  Matrices returned by the
constructors are marked read-only; treat them as immutable values.

Factorials and Laguerre prefactors are evaluated in log space so that
cutoffs beyond n ~ 170 do not overflow double precision.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

DEFAULT_TAIL = 1e-10
CUTOFF_CEILING = 4096

STATE_KINDS = ("number", "coherent", "thermal", "squeezed_vacuum")


class NumericalError(RuntimeError):
    """A computation failed numerically (as opposed to bad configuration)."""


class CutoffError(NumericalError):
    """The requested Fock-space cutoff cannot hold the requested state."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


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
            if int(self.n) != self.n or self.n < 0:
                raise ValueError(f"number state index must be a nonnegative integer, got {self.n}")
        if self.kind in ("thermal", "squeezed_vacuum"):
            if not (self.mean_n >= 0.0 and math.isfinite(self.mean_n)):
                raise ValueError(f"mean_n must be finite and >= 0, got {self.mean_n}")
        if self.kind == "coherent" and not (math.isfinite(self.amplitude.real)
                                            and math.isfinite(self.amplitude.imag)):
            raise ValueError("coherent amplitude must be finite")

    @classmethod
    def number(cls, n):
        return cls(kind="number", n=int(n))

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


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number probabilities p_n, optionally with per-bin half-widths."""

    values: np.ndarray
    ci: np.ndarray | None = None


def analytic_distribution(spec, n_max):
    """Closed-form photon distribution p_0..p_{n_max} of the untruncated state.

    number: delta at n.  coherent: Poisson(|amp|^2).  thermal: geometric.
    squeezed vacuum: even-n two-photon expansion, exactly zero on odd n.
    """
    n = np.arange(n_max + 1)
    if spec.kind == "number":
        p = np.zeros(n_max + 1)
        if spec.n <= n_max:
            p[spec.n] = 1.0
        return p
    if spec.kind == "coherent":
        lam = abs(spec.amplitude) ** 2
        if lam == 0.0:
            p = np.zeros(n_max + 1)
            p[0] = 1.0
            return p
        return np.exp(n * math.log(lam) - lam - gammaln(n + 1))
    if spec.kind == "thermal":
        nb = spec.mean_n
        if nb == 0.0:
            p = np.zeros(n_max + 1)
            p[0] = 1.0
            return p
        # (nb/(1+nb))^n / (1+nb), in log space for large nb
        return np.exp(n * (math.log(nb) - math.log1p(nb)) - math.log1p(nb))
    # squeezed vacuum: P(2m) = (2m)!/(2^{2m} (m!)^2) tanh^{2m}(r) / cosh(r)
    p = np.zeros(n_max + 1)
    if spec.mean_n == 0.0:
        p[0] = 1.0
        return p
    r = math.asinh(math.sqrt(spec.mean_n))
    m = np.arange(n_max // 2 + 1)
    logp = (gammaln(2 * m + 1) - 2 * m * math.log(2.0) - 2 * gammaln(m + 1)
            + 2 * m * math.log(math.tanh(r)) - math.log(math.cosh(r)))
    p[2 * m] = np.exp(logp)
    return p


def choose_cutoff(spec, tail=DEFAULT_TAIL):
    """Smallest N whose analytic tail mass sum_{n>N} p_n is below `tail`."""
    if not (0.0 < tail < 0.1):
        raise ValueError(f"tail tolerance must lie in (0, 0.1), got {tail}")
    if spec.kind == "number":
        return spec.n
    p = analytic_distribution(spec, CUTOFF_CEILING)
    tail_mass = 1.0 - np.cumsum(p)
    ok = np.flatnonzero(tail_mass < tail)
    if ok.size == 0:
        raise CutoffError(
            f"no cutoff up to {CUTOFF_CEILING} reaches tail mass < {tail:g} "
            f"for {spec.kind} state (mean photons {spec.mean_photons:g})")
    return int(ok[0])


def _pure_amplitudes(spec, cutoff):
    """Fock amplitudes of a pure-kind spec on 0..cutoff (None for thermal)."""
    n = np.arange(cutoff + 1)
    if spec.kind == "number":
        c = np.zeros(cutoff + 1, dtype=complex)
        c[spec.n] = 1.0
        return c
    if spec.kind == "coherent":
        beta = spec.amplitude
        if beta == 0:
            c = np.zeros(cutoff + 1, dtype=complex)
            c[0] = 1.0
            return c
        logmag = -abs(beta) ** 2 / 2 + n * math.log(abs(beta)) - gammaln(n + 1) / 2
        return np.exp(logmag) * np.exp(1j * n * np.angle(beta))
    if spec.kind == "squeezed_vacuum":
        c = np.zeros(cutoff + 1, dtype=complex)
        if spec.mean_n == 0.0:
            c[0] = 1.0
            return c
        r = math.asinh(math.sqrt(spec.mean_n))
        m = np.arange(cutoff // 2 + 1)
        logmag = (0.5 * gammaln(2 * m + 1) - m * math.log(2.0) - gammaln(m + 1)
                  + m * math.log(math.tanh(r)) - 0.5 * math.log(math.cosh(r)))
        c[2 * m] = np.where(m % 2 == 0, 1.0, -1.0) * np.exp(logmag)
        return c
    return None


def make_state(spec, cutoff=None, tail=DEFAULT_TAIL):
    """Density matrix for `spec` on {|0>..|cutoff>}, normalized to unit trace.

    With cutoff=None the cutoff comes from choose_cutoff(spec, tail).  With an
    explicit cutoff the analytic tail beyond it must still be below `tail`,
    otherwise CutoffError names the required N.  Pass tail=None together with
    an explicit cutoff to request a deliberate hard truncation.
    """
    if cutoff is None:
        if tail is None:
            raise ValueError("make_state needs a cutoff or a tail tolerance")
        cutoff = choose_cutoff(spec, tail)
    else:
        cutoff = int(cutoff)
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if spec.kind == "number" and spec.n > cutoff:
            raise CutoffError(
                f"number state |{spec.n}> does not fit below cutoff {cutoff}; "
                f"requires N >= {spec.n}", required=spec.n)
        if tail is not None:
            if not (0.0 < tail < 0.1):
                raise ValueError(f"tail tolerance must lie in (0, 0.1), got {tail}")
            left_out = 1.0 - analytic_distribution(spec, cutoff).sum()
            if left_out >= tail:
                needed = choose_cutoff(spec, tail)
                raise CutoffError(
                    f"cutoff {cutoff} leaves tail mass {left_out:.3e} >= {tail:g} "
                    f"for {spec.kind} state; requires N >= {needed}", required=needed)

    if spec.kind == "thermal":
        diag = analytic_distribution(spec, cutoff)
        rho = np.diag(diag / diag.sum()).astype(complex)
    else:
        c = _pure_amplitudes(spec, cutoff)
        rho = np.outer(c, c.conj())
        rho /= np.trace(rho).real
    rho.setflags(write=False)
    return rho


def photon_distribution(rho):
    """Diagonal of a density matrix as a PhotonDistribution.

    Validates that the diagonal is real (imag residue <= 1e-12) and clamps
    negative entries above -1e-12 to 0; anything worse raises.
    """
    diag = np.diagonal(rho)
    if diag.size and np.max(np.abs(diag.imag)) > 1e-12:
        raise ValueError("density-matrix diagonal has imaginary residue > 1e-12")
    p = diag.real.copy()
    if p.size and p.min() < -1e-12:
        raise ValueError(f"diagonal entry {p.min():.3e} below -1e-12; not a state")
    p[p < 0.0] = 0.0
    if p.sum() > 1.0 + 1e-10:
        raise ValueError(f"probabilities sum to {p.sum():.12f} > 1 + 1e-10")
    p.setflags(write=False)
    return PhotonDistribution(values=p)


def displacement_matrix(gamma, dim):
    """Matrix elements <n|D(gamma)|k> for n,k < dim, D = exp(g a+ - g* a).

    Closed form with associated Laguerre polynomials:
      n >= k:  sqrt(k!/n!) gamma^{n-k} e^{-|g|^2/2} L_k^{(n-k)}(|g|^2)
      n <  k:  sqrt(n!/k!) (-g*)^{k-n} e^{-|g|^2/2} L_n^{(k-n)}(|g|^2)
    The prefactor is computed from log-gammas.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gamma = complex(gamma)
    ag2 = abs(gamma) ** 2
    n, k = np.indices((dim, dim))
    lo = np.minimum(n, k)
    span = np.abs(n - k)
    pref = np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + span + 1)) - ag2 / 2)
    lag = eval_genlaguerre(lo, span, ag2)
    arg = np.where(n >= k, gamma, -np.conj(gamma)) ** span
    D = pref * lag * arg
    if not np.isfinite(D).all():
        raise NumericalError(
            f"displacement matrix for |gamma|={abs(gamma):.4g} at dim {dim} is not "
            "finite: the closed form overflows at this size")
    D.setflags(write=False)
    return D


def _displacement_element(n, k, gamma):
    """Single matrix element <n|D(gamma)|k> (same closed form, scalar)."""
    gamma = complex(gamma)
    ag2 = abs(gamma) ** 2
    lo, span = (k, n - k) if n >= k else (n, k - n)
    pref = math.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + span + 1)) - ag2 / 2)
    arg = gamma if n >= k else -np.conj(gamma)
    return pref * float(eval_genlaguerre(lo, span, ag2)) * arg ** span


def displacement_margin(gamma):
    """Extra Fock levels needed when an operator involves displacement."""
    return math.ceil(2 * abs(gamma) ** 2) + 10


def displace(rho, gamma, n_out=0, margin=None, max_lost=1e-6):
    """D(gamma) rho D(gamma)^+ computed at an enlarged working cutoff.

    The product is built at N_work = N + margin (default margin
    ceil(2|gamma|^2) + 10) and cropped to n_out rows/columns; n_out=0 keeps
    the input dimension, n_out=None returns the full working-cutoff matrix.
    If more than max_lost probability leaks past the working cutoff the
    margin was insufficient and a CutoffError names the required cutoff.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if n_out == 0:
        n_out = dim
    if margin is None:
        margin = displacement_margin(gamma)
    work = dim + int(margin) if n_out is None else max(dim, n_out) + int(margin)
    D = displacement_matrix(gamma, work)
    big = np.zeros((work, work), dtype=complex)
    big[:dim, :dim] = rho
    out = D @ big @ D.conj().T
    if not np.isfinite(out).all():
        raise NumericalError(
            f"displacement by |gamma|={abs(gamma):.4g} gave non-finite elements; "
            "the input state is not finite")
    # a unitary displacement preserves the trace, so any deficit relative to
    # the input trace is probability pushed past the working cutoff
    lost = np.trace(rho).real - np.trace(out).real
    if not lost <= max_lost:
        raise CutoffError(
            f"displacement by |gamma|={abs(gamma):.4g} leaks {lost:.3e} > {max_lost:g} "
            f"past working cutoff {work - 1}; enlarge margin (requires N >~ {2 * work})",
            required=2 * work)
    if n_out is not None:
        out = out[:n_out, :n_out]
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    return out


def purity(rho):
    """Tr(rho^2), computed as the squared Frobenius norm of a Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def fidelity_to_pure(rho, pure_rho):
    """Tr(rho |psi><psi|) for a pure reference state given as |psi><psi|."""
    a, b = _pad_pair(np.asarray(rho), np.asarray(pure_rho))
    return float(np.vdot(b, a).real)


def trace_distance(a, b):
    """(1/2) sum |eig(a - b)| for Hermitian a, b (zero-padded to equal dims)."""
    a, b = _pad_pair(np.asarray(a), np.asarray(b))
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def state_metrics(a, b):
    """purity(a), fidelity of a to the pure state b, and trace_distance(a, b)."""
    return {
        "purity": purity(a),
        "fidelity_to_pure": fidelity_to_pure(a, b),
        "trace_distance": trace_distance(a, b),
    }


def _pad_pair(a, b):
    """Zero-pad the smaller of two square matrices to the larger dimension."""
    da, db = a.shape[0], b.shape[0]
    if da == db:
        return a, b
    d = max(da, db)
    out_a = np.zeros((d, d), dtype=complex)
    out_b = np.zeros((d, d), dtype=complex)
    out_a[:da, :da] = a
    out_b[:db, :db] = b
    return out_a, out_b


def validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, psd_tol=-1e-9):
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD.

    Eigenvalues in (psd_tol, 0) are tolerated as-is, never clamped.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max |nu - nu^+| = {herm:.3e} > {herm_tol:g}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr!r} deviates from 1 by more than {trace_tol:g}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lo < psd_tol:
        raise ValueError(f"not PSD: smallest eigenvalue {lo:.3e} < {psd_tol:g}")
