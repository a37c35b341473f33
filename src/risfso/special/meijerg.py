"""Meijer-G evaluation on positive real arguments.

``meijer_g_batch`` integrates the defining Mellin-Barnes integral of
each instance along a vertical line placed inside the strip separating
the two pole families.  The line passes through the saddle point of the
integrand on the real axis, where its magnitude is least: the root of
the digamma sum that is the derivative of its log, found by Newton steps
inside a bracket (``_pick_sigma``).  There the integral cancels least,
deep in either tail, near saturation and for large shapes alike, even
where the saddle lies millions of units from the end of a one-sided
strip.  Every instance keeps its own line and integrates it segment by
segment; the adaptive Gauss-Kronrod engine of ``quadrature._refine``
refines the segments of all instances in lockstep, so they share only
the integrand calls of each refinement round, and a value does not
depend on the batch it is evaluated in.  ``meijer_g`` is a batch of one.

Coincident lower parameters, which the closed forms of this package
produce routinely, need no treatment: the line never meets a pole.  The
closed forms keep every leading upper parameter at or below 1 and every
leading lower one above 0, so the two families never touch.  A spec
whose families touch or interleave has no separating strip and raises
``ContourError``.

All gamma factors are accumulated in log space, so instances whose
G-value spans hundreds of orders of magnitude stay representable; an
optional ``log_prefactor`` folds an external scale factor into the
integrand for the same reason.  Before the pass the factors of each
kernel are reduced (``_kernel_tables``): equal ones merge, a factor one
above another folds onto it and a log, and a pair half a unit apart
becomes one log-gamma of twice the slope by Legendre's duplication
formula, its constant and term linear in s joining the log prefactor
and ln z.  Under IM/DD that pairing undoes the Gauss multiplication of
the closed forms and halves the log-gammas the cdf needs per node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, zeta

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
_LN2 = math.log(2.0)
_HALF_LN_PI = 0.5 * math.log(math.pi)
# the line integral gives up after this many segments, each 1.7x longer
_MAX_SEGMENTS = 48
# a new segment starts in at most this many panels
_MAX_PIECES = 256
# the first round of the saddle search evaluates phi' at these u, 0.5
# apart: from 6e-6 to 1.6e5 units off the end of a one-sided strip
_GRID = np.arange(-12.0, 12.25, 0.5)
# past the grid's ends a bracket runs to u = -+_U_MAX, where sigma is
# still a double and phi' counts as -+_G_MAX
_U_MAX, _G_MAX = 700.0, 1e300
_BRACKET = np.concatenate([[-_U_MAX], _GRID, [_U_MAX]])
# that first round takes the instances in slabs of about this many
# digamma arguments, so its arrays stay near 64 kB
_SLAB = 8192
# an instance's search stops at its first Newton step below _U_TOL, or
# after _MAX_STEPS steps
_U_TOL = 1e-8
_MAX_STEPS = 60


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


def _merged_factors(spec: MeijerGSpec) -> dict[tuple[float, float], float]:
    """The weight of each (offset, sign of s) among the gamma factors of
    the kernel: log chi(s) = sum_k w_k logGamma(c_k + e_k s).

    Factors with equal (offset, sign) merge and their weights add, so
    weights can cancel.  The cascade closed forms list every parameter
    twice, and under IM/DD the (zeta^2 + 1)/2 factor sits in both the
    numerator and the denominator.
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
    return merged


def _kernel_tables(spec: MeijerGSpec) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The factors of ``_merged_factors`` with nonzero weight, unit shifts
    folded out and half shifts paired, as (log-gamma rows, log rows, a
    constant, a slope): log chi(s) = sum_k w_k logGamma(c_k + e_k s) +
    sum_j v_j log(d_j + f_j s) + constant + slope s.

    logGamma(c + 1 + e s) = logGamma(c + e s) + log(c + e s), so a factor
    whose offset lies exactly one above another's, with the same sign of
    s, moves its weight onto that factor and onto a log.  The closed forms
    pair zeta^2 with zeta^2 + 1 and Gamma(s) with Gamma(1 + s), and log is
    much cheaper than log-gamma.

    Then Legendre's duplication formula, Gamma(x) Gamma(x + 1/2) =
    2^(1 - 2x) sqrt(pi) Gamma(2x) (DLMF 5.5.5), moves the weight that
    the factors at (c, e) and (c + 1/2, e) share onto one at (2c, 2e),
    leaving the constant w ((1 - 2c) ln 2 + ln(pi) / 2) and the slope
    -2 e w ln 2.  Under IM/DD the closed forms split alpha, beta and
    zeta^2 into such pairs by Gauss's multiplication formula, and this
    puts each pair back together.  Folding first keeps Gamma(s) /
    Gamma(1 + s), which cancels to a log, from pairing with Gamma(1/2 + s).
    After the fold no two offsets of one sign lie exactly one apart, so
    the pairs are disjoint.
    """
    gamma = {key: w for key, w in _merged_factors(spec).items() if w != 0.0}
    # the first factor whose offset lies one below each (offset, sign)
    below: dict[tuple[float, float], tuple[float, float]] = {}
    for c, e in gamma:
        below.setdefault((c + 1.0, e), (c, e))
    logs: dict[tuple[float, float], float] = {}
    for key in sorted(gamma, reverse=True):  # chains fold downwards
        base = below.get(key)
        if base is not None:
            w = gamma.pop(key)
            gamma[base] += w
            logs[base] = logs.get(base, 0.0) + w
    constant = slope = 0.0
    for c, e in sorted(gamma):
        w_lo, w_hi = gamma[c, e], gamma.get((c + 0.5, e), 0.0)
        if w_lo * w_hi > 0.0:
            w = w_lo if abs(w_lo) <= abs(w_hi) else w_hi
            gamma[c, e] -= w
            gamma[c + 0.5, e] -= w
            gamma[2.0 * c, 2.0 * e] = gamma.get((2.0 * c, 2.0 * e), 0.0) + w
            constant += w * ((1.0 - 2.0 * c) * _LN2 + _HALF_LN_PI)
            slope -= 2.0 * e * w * _LN2
    return _table(gamma), _table(logs), constant, slope


class _Kernels:
    """The kernels of a batch of instances with equally many log-gamma and
    log factors, one row each: sigma (set once chosen), ln z and log
    prefactor (each with the slope and constant of ``_kernel_tables``
    added), then the offsets, signs and weights of the factors, the
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
        """Log of the gamma-ratio kernel at s, for the instances whose rows
        ``rows`` holds, broadcast against s along all but its last axis."""
        k, kg = self.width, self.gamma_width
        # the arguments c + e s, overwritten in place by the terms
        terms = rows[..., 3 + k:3 + 2 * k] * s[..., None]
        terms += rows[..., 3:3 + k]
        loggamma_complex(terms[..., :kg], out=terms[..., :kg])
        np.log(terms[..., kg:], out=terms[..., kg:])
        terms *= rows[..., 3 + 2 * k:]
        return np.add.reduce(terms, axis=-1)

    def log_integrand(self, t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Log of the Mellin-Barnes integrand w(sigma + i t) of instance
        owner[i] at each t[i, j].  Its imaginary part, the phase of w, is
        continuous in t > 0: the log-gammas are scipy's, cut along the
        negative real axis only."""
        # one row per instance row of t, broadcast along it
        rows = self.rows[owner][:, None, :]
        s = rows[..., 0] + 1j * t
        return self.log_chi(s, rows) + s * rows[..., 1] + rows[..., 2]


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
    """Per instance, the saddle point of the integrand on the real axis:
    the sigma in (lo, hi) where phi' = 0, phi(sigma) = Re log chi(sigma)
    + sigma ln z being the log of the integrand's magnitude there.

    phi' rises through zero, from -inf at the pole at lo, or at the far
    end of a one-sided strip where the gammas grow, to +inf at the other
    end.  The search runs in u, with sigma = lo + e^u or hi - e^-u on a
    one-sided strip and sigma - lo = e^u / (1 + e^u / (hi - lo)) on a
    two-sided one: near a pole phi' grows like exp(|u|), and far out on
    a one-sided strip, where the saddle can lie millions of units from
    its end, it is near linear in u.  One round over ``_GRID`` brackets the sign
    change; Newton steps in u follow from the secant point, each held
    inside the bracket.  An instance stops at its first step below
    ``_U_TOL``, so its sigma does not depend on the batch.
    """
    count = len(lo)
    k, kg = kernels.width, kernels.gamma_width
    # offsets, signs of s and weights of the factors, each log factor
    # unfolded into log-gammas, log x = logGamma(x + 1) - logGamma(x):
    # phi' is then one sum of digammas and phi'' one of trigammas,
    # zeta(2, x), which is polygamma(1, x) without polygamma's wrapper;
    # a factor of slope e weighs e in phi' and e^2 in phi''
    table = kernels.rows[:, 3:].reshape(count, 3, k)
    table = np.concatenate([table, table[:, :, kg:]], axis=2)
    table[:, 0, k:] += 1.0
    table[:, 2, kg:k] *= -1.0
    off, sign, weight = table[:, 0], table[:, 1], table[:, 2]
    slope_weight = weight * sign
    curvature_weight = slope_weight * sign
    lnz = kernels.rows[:, 1]
    # sigma = end + side * dist, dist = gap / (1 + gap / width) and
    # gap = exp(side * u); then dsigma/du = dist^2 / gap, and the
    # arguments of the gammas are base + rate * dist
    left = np.isfinite(lo)
    side = np.where(left, 1.0, -1.0)
    end = np.where(left, lo, hi)
    inv_width = 1.0 / (hi - lo)  # 0 on a one-sided strip
    base = off + sign * end[:, None]
    rate = sign * side[:, None]

    gap = np.exp(side[:, None] * _GRID)
    dist = gap / (1.0 + gap * inv_width[:, None])
    # phi' on the grid, between -+_G_MAX at the ends of the bracket, for
    # a slab of instances at a time
    g = np.empty((count, _BRACKET.size))
    g[:, 0], g[:, -1] = -_G_MAX, _G_MAX
    step = max(1, _SLAB // (_GRID.size * base.shape[1]))
    for i in range(0, count, step):
        part = slice(i, i + step)
        x = base[part, None, :] + rate[part, None, :] * dist[part, :, None]
        np.add.reduce(digamma(x) * slope_weight[part, None, :], axis=2, out=g[part, 1:-1])
    g[:, 1:-1] += lnz[:, None]
    # the bracket [a, b] around the first sign change
    j = np.argmax(g > 0.0, axis=1)
    index = np.arange(count)
    a, b = _BRACKET[j - 1], _BRACKET[j]
    g_a, g_b = g[index, j - 1], g[index, j]
    u = a + (b - a) * g_a / (g_a - g_b)
    done = np.zeros(count, dtype=bool)
    for _ in range(_MAX_STEPS):
        gap = np.exp(side * u)
        q = 1.0 / (1.0 + gap * inv_width)
        dist = gap * q
        x = base + rate * dist[:, None]
        g = np.add.reduce(digamma(x) * slope_weight, axis=1) + lnz
        h = np.add.reduce(zeta(2.0, x) * curvature_weight, axis=1)
        # fmax and fmin: a step that is not a number goes to the bracket end
        v = np.fmin(np.fmax(u - g / (h * dist * q), a), b)
        small = np.abs(v - u) <= _U_TOL
        u = np.where(done, u, v)
        done |= small
        if done.all():
            break
    gap = np.exp(side * u)
    return end + side * gap / (1.0 + gap * inv_width)


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
    at the ends of every segment just begun, and with it the phase of w,
    which sets how many panels the next segment starts in.
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
    # the phase of w at t_lo and t_hi
    phase_lo = [0.0] * count
    phase_hi = [0.0] * count
    segments = [0] * count
    # the segment ends (t, instance) at which the next integrand call evaluates w
    ends = np.array(t_hi + t_lo), np.concatenate([np.arange(count)] * 2)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """The real part of w at the nodes x, a row per panel, and w at
        the ends of the segments begun since the last call."""
        nonlocal ends
        if ends is not None:
            log_w = kernels.log_integrand(ends[0][:, None], ends[1])[:, 0]
            for t_end, i, w_end, phase in zip(ends[0].tolist(), ends[1].tolist(),
                                              np.exp(log_w).tolist(), log_w.imag.tolist()):
                if t_end == t_lo[i]:
                    env_lo[i], phase_lo[i] = abs(w_end), phase
                else:
                    w_hi[i], phase_hi[i] = w_end, phase
            ends = None
        return np.exp(kernels.log_integrand(x, owner)).real

    def finish(done, value, error, abs_integral, panels):
        nonlocal ends
        begun = []
        started = []
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
                # the phase of w turned at this pace over the segment
                pace = abs(phase_hi[i] - phase_lo[i]) / (t_hi[i] - t_lo[i])
                segments[i] += 1
                t_lo[i], t_hi[i] = t_hi[i], 1.7 * t_hi[i]
                env_lo[i], phase_lo[i] = env_hi, phase_hi[i]
                width = t_hi[i] - t_lo[i]
                tol = 0.1 * rel_tol * abs(total[i])
                # a segment that can hold more than its tolerance starts
                # in panels of at most two turns of the phase each: a single
                # panel over many turns can be accepted on a |Kronrod -
                # Gauss| estimate far below its error
                pieces = 1
                if env_hi * width > tol:
                    pieces = min(_MAX_PIECES, max(1, math.ceil(pace * width / (4.0 * math.pi))))
                edges = [t_lo[i] + j * width / pieces for j in range(pieces)] + [t_hi[i]]
                begun += [(a, b, tol, i) for a, b in zip(edges, edges[1:])]
                started.append(i)
        if begun:
            lo, hi, tol, index = np.array(begun).T
            ends = np.array([t_hi[i] for i in started]), np.array(started, dtype=np.intp)
            return index.astype(np.intp), lo, hi, tol

    _refine(integrand, (np.arange(count), np.zeros(count), np.array(t_hi), 0.0),
            max(1e-13, 0.03 * rel_tol), finish)
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
    tables: dict[tuple, tuple[np.ndarray, np.ndarray, float, float]] = {}
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
        gamma, logs, constant, slope = tables[key]
        groups.setdefault((gamma.shape[1], logs.shape[1]), []).append(
            (i, (gamma, logs), strip, delta * math.pi, math.log(spec.argument) + slope,
             float(log_prefactors[i]) + constant))
    for group in groups.values():
        index, kernel_tables, strips, rates, lnz, log_prefactor = zip(*group)
        kernels = _Kernels(kernel_tables, lnz, log_prefactor)
        lo, hi = np.array(strips).T
        # a value that is not finite fails its own instance only
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            kernels.rows[:, 0] = _pick_sigma(kernels, lo, hi)
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
