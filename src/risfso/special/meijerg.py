"""Meijer-G evaluation on positive real arguments.

``meijer_g_batch`` integrates the defining Mellin-Barnes integral of
each instance along a vertical line placed inside the strip separating
the two pole families.  The abscissa is chosen by minimizing the
integrand magnitude on the real axis, which keeps cancellation mild both
deep in the small-argument tail and near saturation.  Every instance
keeps its own line and integrates it segment by segment; the adaptive
Gauss-Kronrod engine of ``quadrature._refine`` refines the segments of
all instances in lockstep, so they share only the integrand calls of
each refinement round, and a value does not depend on the batch it is
evaluated in.  ``meijer_g`` is a batch of one.

Coincident lower parameters, which the closed forms of this package
produce routinely, need no treatment: the line never meets a pole.  The
closed forms keep every leading upper parameter at or below 1 and every
leading lower one above 0, so the two families never touch.  A spec
whose families touch or interleave has no separating strip and raises
``ContourError``.

All gamma factors are accumulated in log space, so instances whose
G-value spans hundreds of orders of magnitude stay representable; an
optional ``log_prefactor`` folds an external scale factor into the
integrand for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammafn import loggamma_complex
from .quadrature import _refine

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGSpec",
    "meijer_g",
    "meijer_g_batch",
]

_COLLISION_TOL = 1e-9
# the line integral gives up after this many segments, each 1.7x longer
_MAX_SEGMENTS = 48
# the 17 abscissae of one round of the scan for sigma, as fractions
_SCAN = np.arange(17) / 16.0
# contour nodes per log-gamma call: the first rounds of a long curve hold
# a few thousand, and chunks keep their temporaries near 0.3 MB
_CHUNK = 1024


class MeijerGError(Exception):
    """Base class for evaluator failures."""


class ContourError(MeijerGError):
    """The vertical-line integral cannot converge; message says why."""


@dataclass(frozen=True)
class MeijerGSpec:
    """Orders, parameter lists and argument of one G-function instance.

    ``m`` leading lower parameters and ``n`` leading upper parameters
    feed numerator gammas of the Mellin-Barnes integrand; the remaining
    ones feed the denominator.
    """

    m: int
    n: int
    a_params: tuple[float, ...]
    b_params: tuple[float, ...]
    argument: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_params", tuple(float(v) for v in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(v) for v in self.b_params))
        if not (0 <= self.n <= self.p):
            raise ValueError(f"need 0 <= n <= p, got n={self.n}, p={self.p}")
        if not (0 <= self.m <= self.q):
            raise ValueError(f"need 0 <= m <= q, got m={self.m}, q={self.q}")
        if not (self.argument > 0.0 and math.isfinite(self.argument)):
            raise ValueError(f"argument must be positive and finite, got {self.argument!r}")

    @property
    def p(self) -> int:
        return len(self.a_params)

    @property
    def q(self) -> int:
        return len(self.b_params)

    @property
    def decay_index(self) -> float:
        """m + n - (p + q)/2; the contour decays like exp(-pi*this*|t|)."""
        return self.m + self.n - 0.5 * (self.p + self.q)


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_error_estimate: float
    # always empty, since meijer_g perturbs no parameter; kept because the
    # benchmark tracer (bench/tracing.py) reads it for meijerg.perturbed_frac
    perturbation_note: str = field(default="", compare=False)


def _table(factors: dict[tuple[float, float], float]) -> np.ndarray:
    """Rows (offset, sign of s, weight) of the factors with nonzero weight."""
    kept = [(c, e, w) for (c, e), w in factors.items() if w != 0.0]
    return np.array(kept, dtype=np.float64).reshape(-1, 3).T


def _chi_tables(spec: MeijerGSpec) -> np.ndarray:
    """Rows (offset c, sign e of s, weight w), one column per gamma factor
    of the kernel: log chi(s) = sum_k w_k logGamma(c_k + e_k s).

    Factors with equal (offset, sign) merge and their weights add;
    factors whose weights cancel drop out.  The cascade closed forms list
    every parameter twice, and under IM/DD the (zeta^2 + 1)/2 factor sits
    in both the numerator and the denominator.
    """
    m, n = spec.m, spec.n
    a, b = spec.a_params, spec.b_params
    factors = ([(b[j], -1.0, 1.0) for j in range(m)]
               + [(1.0 - a[j], 1.0, 1.0) for j in range(n)]
               + [(1.0 - b[j], 1.0, -1.0) for j in range(m, spec.q)]
               + [(a[j], -1.0, -1.0) for j in range(n, spec.p)])
    merged: dict[tuple[float, float], float] = {}
    for offset, slope, weight in factors:
        merged[offset, slope] = merged.get((offset, slope), 0.0) + weight
    return _table(merged)


def _kernel_tables(spec: MeijerGSpec) -> tuple[np.ndarray, np.ndarray]:
    """The factors of ``_chi_tables`` with unit shifts folded out, as
    (log-gamma rows, log rows): log chi(s) = sum_k w_k logGamma(c_k + e_k s)
    + sum_j v_j log(d_j + f_j s).

    logGamma(c + 1 + e s) = logGamma(c + e s) + log(c + e s), so a factor
    whose offset lies exactly one above another's, with the same sign of
    s, moves its weight onto that factor and onto a log.  The closed forms
    pair zeta^2 with zeta^2 + 1 and Gamma(s) with Gamma(1 + s), and log is
    much cheaper than log-gamma.
    """
    gamma = {(c, e): w for c, e, w in zip(*_chi_tables(spec))}
    logs: dict[tuple[float, float], float] = {}
    for c, e in sorted(gamma, reverse=True):  # chains fold downwards
        base = next((k for k in gamma if k[1] == e and k[0] + 1.0 == c), None)
        if base is not None:
            w = gamma.pop((c, e))
            gamma[base] += w
            logs[base] = logs.get(base, 0.0) + w
    return _table(gamma), _table(logs)


class _Kernels:
    """The kernels of a batch of instances with equally many log-gamma and
    log factors, one row each: sigma (set once chosen), ln z, log
    prefactor, then the offsets, signs and weights of the factors, the
    log-gamma ones first.  A kernel value is a sum along its instance's
    row, so it does not depend on the other instances of the batch."""

    def __init__(self, tables: list[tuple[np.ndarray, np.ndarray]],
                 lnz: list[float], log_prefactor: list[float]) -> None:
        self.gamma_width = tables[0][0].shape[1]
        self.width = self.gamma_width + tables[0][1].shape[1]
        self.rows = np.column_stack([
            np.zeros(len(tables)), lnz, log_prefactor,
            [np.concatenate([g, lg], axis=1).ravel() for g, lg in tables]])

    def log_chi(self, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Log of the gamma-ratio kernel at s[i], for the instance whose
        row is rows[i]."""
        k, kg = self.width, self.gamma_width
        # the arguments c + e s, overwritten in place by the terms
        terms = rows[:, 3:3 + k] + rows[:, 3 + k:3 + 2 * k] * s[:, None]
        loggamma_complex(terms[:, :kg], out=terms[:, :kg])
        np.log(terms[:, kg:], out=terms[:, kg:])
        terms *= rows[:, 3 + 2 * k:]
        return np.add.reduce(terms, axis=1)

    def integrand(self, t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """The Mellin-Barnes integrand w(sigma + i t) of instance owner[i]
        at t[i], in chunks of ``_CHUNK`` nodes."""
        w = np.empty(t.size, dtype=np.complex128)
        for i in range(0, t.size, _CHUNK):
            rows = self.rows[owner[i:i + _CHUNK]]
            s = rows[:, 0] + 1j * t[i:i + _CHUNK]
            w[i:i + _CHUNK] = np.exp(self.log_chi(s, rows) + s * rows[:, 1] + rows[:, 2])
        return w


def _contour_strip(spec: MeijerGSpec) -> tuple[float, float]:
    lo = max(spec.a_params[:spec.n]) - 1.0 if spec.n else -math.inf
    hi = min(spec.b_params[:spec.m]) if spec.m else math.inf
    if math.isinf(lo) and math.isinf(hi):
        raise ContourError("no pole family present (m = n = 0), nothing to separate")
    if not math.isinf(lo) and not math.isinf(hi) and hi - lo <= 4.0 * _COLLISION_TOL:
        raise ContourError(
            f"separating strip ({lo:g}, {hi:g}) is empty; "
            "max leading a-parameter - 1 must lie below min leading b-parameter")
    return lo, hi


def _pick_sigma(kernels: _Kernels, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per instance, the abscissa in (lo, hi) that minimizes the integrand
    on the real axis, from a coarse-to-fine 17-point scan."""
    lo = np.where(np.isinf(lo), hi - 40.0, lo)
    hi = np.where(np.isinf(hi), lo + 40.0, hi)
    pad = np.minimum(0.35, 0.02 * (hi - lo))
    g_lo, g_hi = lo + pad, hi - pad
    index = np.arange(len(lo))
    rows = kernels.rows[np.repeat(index, _SCAN.size)]
    for _ in range(3):  # one batched call per round
        # np.linspace(g_lo, g_hi, 17) per row, bit for bit
        grid = g_lo[:, None] + _SCAN * (g_hi - g_lo)[:, None]
        grid[:, -1] = g_hi
        flat = grid.ravel()
        obj = (np.real(kernels.log_chi(flat.astype(np.complex128), rows))
               + flat * rows[:, 1]).reshape(grid.shape)
        i = np.argmin(np.where(np.isfinite(obj), obj, np.inf), axis=1)
        g_lo = grid[index, np.maximum(i - 1, 0)]
        g_hi = grid[index, np.minimum(i + 1, _SCAN.size - 1)]
    return 0.5 * (g_lo + g_hi)


def _tail_bound(env_lo: float, env_hi: float, width: float,
                rate: float) -> float:
    """Bound on the integral past t_hi from the envelope |w| at the ends
    of the last segment.

    Past t_hi the envelope falls at least as fast as the slower of its
    secant rate over the segment and the asymptotic rate pi *
    decay_index; an envelope that did not fall over the segment is given
    the asymptotic rate.
    """
    if env_hi == 0.0:
        return 0.0
    secant = math.log(env_lo / env_hi) / width if env_lo > 0.0 else 0.0
    return env_hi / (min(rate, secant) if secant > 0.0 else rate)


def _finished(total: float, err: float) -> EvalResult | MeijerGError:
    value = float(total / math.pi)
    if not math.isfinite(value):
        return MeijerGError(f"contour evaluation returned {value!r}")
    return EvalResult(value, float(err / math.pi))


def _integrate(kernels: _Kernels, rate: list[float],
               rel_tol: float) -> list[EvalResult | MeijerGError]:
    """The line integrals of all instances, refined in lockstep by ``_refine``.

    Each instance integrates t over [0, t_hi], then over segments each
    1.7 times longer, until the envelope bound on the rest falls below
    its tolerance.  The first integrand call of a round also evaluates w
    at the ends of every segment just begun.
    """
    count = len(rate)
    results: list = [None] * count
    t_lo = [0.0] * count
    t_hi = [max(8.0, 12.0 / r) for r in rate]
    total = [0.0] * count
    err = [0.0] * count
    amplitude = [0.0] * count
    env_lo = [0.0] * count  # |w(t_lo)|
    w_hi = [0j] * count  # w(t_hi)
    segments = [0] * count
    # the segment ends (t, instance) that the next integrand call evaluates
    ends = np.array(t_hi + t_lo), np.concatenate([np.arange(count)] * 2)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """The real part of w at the nodes x, a row per panel, and w at
        the segment ends begun since the last call."""
        nonlocal ends
        if ends is None:
            return kernels.integrand(x.ravel(), np.repeat(owner, x.shape[1])).real
        w = kernels.integrand(np.concatenate([x.ravel(), ends[0]]),
                              np.concatenate([np.repeat(owner, x.shape[1]), ends[1]]))
        for t_end, i, w_end in zip(ends[0].tolist(), ends[1].tolist(), w[x.size:].tolist()):
            if t_end == t_lo[i]:
                env_lo[i] = abs(w_end)
            else:
                w_hi[i] = w_end
        ends = None
        return w[:x.size].real

    def finish(done, value, error, abs_integral, panels):
        nonlocal ends
        begun = []
        for i in done.tolist():
            total[i] += float(value[i])
            err[i] += float(error[i])
            amplitude[i] += float(abs_integral[i])
            # the envelope, not the oscillating real part, which can sit
            # near a zero at t_hi
            env_hi = abs(w_hi[i])
            tail = env_hi / rate[i]
            budget = rel_tol * max(abs(total[i]), 1e-300)
            if not math.isfinite(total[i]):
                results[i] = _finished(total[i], err[i])
            elif tail < 0.05 * budget and (t_lo[i] > 0.0 or tail == 0.0
                                          or abs(value[i]) < budget):
                bound = _tail_bound(env_lo[i], env_hi, t_hi[i] - t_lo[i], rate[i])
                # cancellation floor: the result is a sum of terms of size
                # ~amplitude
                results[i] = _finished(total[i], err[i] + bound + 3e-16 * amplitude[i])
            elif segments[i] == _MAX_SEGMENTS - 1:
                results[i] = ContourError(
                    f"contour tail still {tail:.2e} at t = {1.7 * t_hi[i]:.1f}")
            else:
                segments[i] += 1
                t_lo[i], t_hi[i] = t_hi[i], 1.7 * t_hi[i]
                env_lo[i] = env_hi
                begun.append((t_lo[i], t_hi[i], 0.1 * rel_tol * abs(total[i]), i))
        if begun:
            lo, hi, tol, index = np.array(begun).T
            ends = hi, index.astype(np.intp)
            return ends[1], lo, hi, tol

    _refine(integrand, (np.arange(count), np.zeros(count), np.array(t_hi), 0.0),
            max(1e-13, 0.03 * rel_tol), finish, centred=True)
    return results


def meijer_g_batch(specs: list[MeijerGSpec], log_prefactors: list[float], *,
                   rel_tol: float = 1e-10) -> list[EvalResult | MeijerGError]:
    """Evaluate exp(log_prefactors[i]) * G(specs[i]) for every i together.

    Slot i of the result holds the EvalResult of instance i, or the
    MeijerGError it failed with; one failure leaves the other instances
    unaffected.  Each value equals the one ``meijer_g`` returns.
    Instances with equally many kernel factors (all the points of a sweep
    curve) share one lockstep pass.
    """
    results: list = [None] * len(specs)
    groups: dict[tuple[int, int], list[tuple]] = {}
    # the points of a curve mostly share their parameters
    tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for i, spec in enumerate(specs):
        delta = spec.decay_index
        try:
            if delta <= 0.0:
                raise ContourError(
                    f"decay index m+n-(p+q)/2 = {delta:g} is not positive; "
                    "the vertical-line integral diverges for this shape")
            strip = _contour_strip(spec)
        except ContourError as exc:
            results[i] = exc
            continue
        key = (spec.m, spec.n, spec.a_params, spec.b_params)
        if key not in tables:
            tables[key] = _kernel_tables(spec)
        table = tables[key]
        groups.setdefault((table[0].shape[1], table[1].shape[1]), []).append(
            (i, table, strip, delta * math.pi, math.log(spec.argument),
             float(log_prefactors[i])))
    for group in groups.values():
        index, kernel_tables, strips, rates, lnz, log_prefactor = zip(*group)
        kernels = _Kernels(kernel_tables, lnz, log_prefactor)
        lo, hi = np.array(strips).T
        kernels.rows[:, 0] = _pick_sigma(kernels, lo, hi)
        # a value that is not finite fails its own instance only
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            evaluated = _integrate(kernels, rates, rel_tol)
        for i, res in zip(index, evaluated):
            results[i] = res
    return results


def meijer_g(spec: MeijerGSpec, *, log_prefactor: float = 0.0,
             rel_tol: float = 1e-10) -> EvalResult:
    """Evaluate exp(log_prefactor) * G(spec) by contour integration."""
    res = meijer_g_batch([spec], [log_prefactor], rel_tol=rel_tol)[0]
    if isinstance(res, MeijerGError):
        raise res
    return res
