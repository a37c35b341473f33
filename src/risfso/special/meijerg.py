"""Meijer-G evaluation on positive real arguments.

``meijer_g_batch`` sums the defining Mellin-Barnes integral of each
instance with the trapezoid rule along a vertical line placed inside the
strip separating the two pole families.  The line passes near the
saddle point of the integrand on the real axis, where its magnitude is
least: the root of the digamma sum that is the derivative of its log,
found by Newton steps inside a bracket (``_pick_sigma``).  There the
integral cancels least, deep in either tail, near saturation and for
large shapes alike, even where the saddle lies millions of units from
the end of a one-sided strip.

The line itself lies on a lattice near the saddle that the strip alone
fixes (``_snap``), and the step follows from the line, so the instances
of one kernel whose saddles lie close together, the points of a sweep
curve, ask for the same nodes.  The integrand is analytic in the strip
of half-width d about the line, d being the distance to the nearest
pole, where the trapezoid rule converges geometrically (Trefethen and
Weideman, SIAM Review 56(3), 2014, Thm 5.1).  Each instance (``_line``)
takes its own span from its integrand and keeps its own error
estimate; ``_trapezoid`` runs all instances in lockstep rounds over one
table of log chi per kernel and line, so the log-gammas of a node are
computed once per batch.  A value depends on its instance and its line
alone, not on its batch.  ``meijer_g`` is a batch of one.

Coincident lower parameters, which the closed forms of this package
produce routinely, need no treatment: the line never meets a pole.  The
closed forms keep every leading upper parameter at or below 1 and every
leading lower one above 0, so the two families never touch.  A spec
whose families touch or interleave has no separating strip and raises
``ContourError``.

All gamma factors are accumulated in log space, so instances whose
G-value spans hundreds of orders of magnitude stay representable; the
argument enters as ln z, and an optional ``log_prefactor`` folds an
external scale factor into the integrand, for the same reason.  Before
the pass the factors of each kernel are reduced (``_kernel_tables``):
equal ones merge, a factor one above another folds onto it and a log,
and a pair half a unit apart becomes one log-gamma of twice the slope
by Legendre's duplication formula, its constant and term linear in s
joining the log prefactor and ln z.  Under IM/DD that pairing undoes
the Gauss multiplication of the closed forms and halves the log-gammas
the cdf needs per node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, zeta

from .gammafn import loggamma_complex

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
# a line asks for nodes in multiples of this, and reads the fall of |w|
# over its last _WIDTH nodes
_WIDTH = 15
# nodes per kernel call, and at most per line of an ask: pieces of 1,020
# nodes keep the temporaries of the log-gammas near 130 kB
_PIECE = 68 * _WIDTH
# lines join a round while it asks for fewer nodes than this, so a batch
# of thousands of instances holds a bounded number of nodes at once
_ROUND = 8 * _PIECE
# a line's first span is _SPAN / (pi decay_index), where the asymptotic
# decay of |w|, exp(-pi decay_index t), is 4e-18; most lines then grow
# once, to where their own decay meets the tail bound
_SPAN = 40.0
# a line fails rather than take more nodes than this
_MAX_NODES = 1 << 20
# ln |w| at a line's first node above which it scales w down (_line)
_CEILING = 690.0
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
    """Orders, parameter lists and log argument of one G-function instance.

    ``m`` leading lower parameters and ``n`` leading upper parameters
    feed numerator gammas of the Mellin-Barnes integrand; the remaining
    ones feed the denominator.  The argument z > 0 enters only as
    ``log_argument``, ln z, which any finite double may be: z itself
    need not be a double.
    """

    m: int
    n: int
    a_params: tuple[float, ...]
    b_params: tuple[float, ...]
    log_argument: float = field(kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_params", tuple(float(v) for v in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(v) for v in self.b_params))
        if not (0 <= self.n <= self.p):
            raise ValueError(f"need 0 <= n <= p, got n={self.n}, p={self.p}")
        if not (0 <= self.m <= self.q):
            raise ValueError(f"need 0 <= m <= q, got m={self.m}, q={self.q}")
        if not math.isfinite(self.log_argument):
            raise ValueError(f"log_argument must be finite, got {self.log_argument!r}")

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
    """A G-value and a bound on its absolute error: the trapezoid rule's
    bound (Trefethen and Weideman, Thm 5.1) plus the tail past the span
    and a rounding floor (``_line``)."""

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
    log factors, one row each: ln z and log prefactor (each with the
    slope and constant of ``_kernel_tables`` added), then the offsets,
    signs and weights of the factors, the log-gamma ones first.  A
    kernel value is a sum along its instance's row, so it does not
    depend on the other instances of the batch."""

    def __init__(self, tables: list[tuple[np.ndarray, np.ndarray]],
                 lnz: list[float], log_prefactor: list[float]) -> None:
        self.gamma_width = tables[0][0].shape[1]
        self.width = self.gamma_width + tables[0][1].shape[1]
        self.rows = np.column_stack([
            lnz, log_prefactor,
            [np.concatenate([g, lg], axis=1).ravel() for g, lg in tables]])

    def log_chi(self, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Log of the gamma-ratio kernel at s, for the instances whose rows
        ``rows`` holds, broadcast against s along all but its last axis.
        Its imaginary part, plus t ln z, is the phase of w, continuous
        along a vertical line in the upper half plane: the log-gammas are
        scipy's, cut along the negative real axis only."""
        k, kg = self.width, self.gamma_width
        # the arguments c + e s, overwritten in place by the terms
        terms = rows[..., 2 + k:2 + 2 * k] * s[..., None]
        terms += rows[..., 2:2 + k]
        loggamma_complex(terms[..., :kg], out=terms[..., :kg])
        np.log(terms[..., kg:], out=terms[..., kg:])
        terms *= rows[..., 2 + 2 * k:]
        return np.add.reduce(terms, axis=-1)


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
    table = kernels.rows[:, 2:].reshape(count, 3, k)
    table = np.concatenate([table, table[:, :, kg:]], axis=2)
    table[:, 0, k:] += 1.0
    table[:, 2, kg:k] *= -1.0
    off, sign, weight = table[:, 0], table[:, 1], table[:, 2]
    slope_weight = weight * sign
    curvature_weight = slope_weight * sign
    lnz = kernels.rows[:, 0]
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


def _snap(sigma: float, lo: float, hi: float) -> tuple[float, float]:
    """sigma moved onto a lattice that the strip (lo, hi) alone fixes, so
    that the instances of a kernel share lines, and the distance from
    there to the nearest pole.  D, the distance from sigma to the nearer
    end of the strip, goes to the nearest multiple of 0.5 from D = 1 up,
    and below it ln D to the nearest multiple of 0.25.  The line stays
    inside the strip, within 0.25 of sigma from D = 1 up and within a
    factor e^0.125 of D below."""
    below, above = sigma - lo, hi - sigma
    dist = min(below, above)
    if dist >= 1.0:
        dist = 0.5 * round(2.0 * dist)
    elif dist > 0.0:
        dist = math.exp(0.25 * round(4.0 * math.log(dist)))
    line = lo + dist if below <= above else hi - dist
    return line, min(line - lo, hi - line)


def _finished(total: float, err: float, shift: float) -> EvalResult | MeijerGError:
    """The EvalResult of e^shift (total, err) / pi, or a MeijerGError
    where its value is not a finite double."""
    value, err = total / math.pi, err / math.pi
    if shift:
        # in logs, so that only a value past the double range is inf
        value, err = (np.copysign(np.exp(np.log(np.abs(v)) + shift), v)
                      for v in (value, err))
    value = float(value)
    if not math.isfinite(value):
        return MeijerGError(f"contour evaluation returned {value!r}")
    return EvalResult(value, float(err))


def _line(sigma: float, d: float, rate: float):
    """The trapezoid sum of one instance along its line, as a generator:
    it asks for log w at the nodes s = x + i k step by yielding a list of
    (x, step, k), k a range of at most ``_PIECE`` indices and a multiple
    of ``_WIDTH`` long, is sent the list of log w there in the order of
    k, and returns the EvalResult or MeijerGError.

    The nodes lie at s = sigma + i k h, k = 0, 1, ..., and the value is
    (h / pi) (sum Re w - Re w(sigma) / 2).  h starts at min(0.1, d / 6),
    d being the distance from sigma to the nearest pole, and halves while
    the phase of w turns by more than pi / 4 between neighbouring nodes;
    the midpoints are then the odd k of the line at the halved step.  The
    span starts at ``_SPAN`` / rate and grows, by at most 1.7 times at a
    time, until |w| at its end is at most 1e-14 of the value.  Then |w|
    is summed every 8 h along the lines sigma -+ 4 h, for M in the error
    bound.

    Where |w| at the first node exceeds e^``_CEILING``, every w is
    scaled by e^-shift to bring it there and the result scaled back, so
    that a value up to the largest double sums without overflow.
    """
    h = min(0.1, d / 6.0)
    span = _SPAN / rate
    if not span < h * _MAX_NODES:
        return ContourError(f"line step {h:.3g} is too fine for a span of {span:.3g}")
    k = range(_WIDTH * math.ceil(span / (_WIDTH * h)))
    phase = np.empty(0)
    total = amplitude = shift = 0.0
    halved = False
    while True:
        fresh = [phase]
        for j in range(0, len(k), _PIECE):
            (log_w,) = yield [(sigma, h, k[j:j + _PIECE])]
            log_w = log_w.reshape(-1, _WIDTH)
            if not (phase.size or j):
                shift = max(0.0, log_w[0, 0].real - _CEILING)
            w = np.exp(log_w - shift) if shift else np.exp(log_w)
            if not (phase.size or j):
                w0 = w[0, 0].real
            total += w.real.sum()
            amplitude += np.abs(w).sum()
            fresh.append(log_w.imag.ravel())
        end = abs(w[-1, -1])
        # the phase at every node in order of t, and from where it is new
        if halved:
            new = 0
            phase = np.column_stack((phase, np.concatenate(fresh[1:]))).ravel()
        else:
            new = max(phase.size - 1, 0)
            phase = np.concatenate(fresh)
        value = h * (total - 0.5 * w0)
        if not math.isfinite(value):
            return _finished(value, 0.0, shift)
        turns = phase[new:]
        halved = np.abs(turns[1:] - turns[:-1]).max(initial=0.0) > 0.25 * math.pi
        if halved:
            k = range(1, 2 * phase.size, 2)
            h *= 0.5
        elif end <= 1e-14 * abs(value):
            break
        else:
            # to where |w|, falling on as over the last row, meets that
            # bound, with a fifth to spare
            row = log_w[-1].real
            fall = (row[0] - row[-1]) / ((_WIDTH - 1) * k.step * h)
            grow = 0.7 * phase.size
            if fall > 0.0 and value:
                grow = min(grow, 1.2 * math.log(end / (1e-14 * abs(value))) / (fall * h))
            k = range(phase.size, _WIDTH * math.ceil((phase.size + grow) / _WIDTH))
        if k[-1] >= _MAX_NODES:
            return ContourError(f"line needs over {_MAX_NODES} nodes: step {h:.3g}, "
                                f"|w| still {end:.2e} at t = {h * phase.size:.3g}")
    # Trefethen and Weideman, Thm 5.1: where w is analytic in the strip of
    # half-width a about the line, and M bounds its integral of |w| on
    # every parallel line there, the trapezoid sum is off by at most
    # 2 M / (exp(2 pi a / h) - 1).  Here a = 4 h <= 2 d / 3.  The log of
    # the integral of |w| along a line is convex across the strip, so the
    # larger of its two edges, each summed with step 8 h, is M.
    a = 4.0 * h
    count = _WIDTH * math.ceil(phase.size / (8 * _WIDTH))
    edges = np.empty((2, count))
    for j in range(0, count, _PIECE):
        piece = range(j, min(j + _PIECE, count))
        log_w = yield [(sigma - a, 8.0 * h, piece), (sigma + a, 8.0 * h, piece)]
        edges[:, j:j + _PIECE] = np.exp(np.real(log_w) - shift)
    big_m = 8.0 * h * (edges.sum(axis=1) - 0.5 * edges[:, 0]).max()
    # then the tail past the span, and rounding in a sum of terms of size
    # |w|
    return _finished(value, 2.0 * big_m / math.expm1(8.0 * math.pi) + end / rate
                     + 3e-16 * h * amplitude, shift)


def _trapezoid(kernels: _Kernels, placed: list[tuple[float, float]],
               rate: list[float]) -> list[EvalResult | MeijerGError]:
    """The ``_line`` sums of all instances, on their lines (sigma, d), in
    lockstep rounds over one table of log chi that the instances of a
    kernel share.

    The table has a row per kernel and line (x, step) that some instance
    asked for, holding log chi(x + i k step) for k from 0 to the highest
    k asked for so far.  A waiting line joins a round while the round
    asks for fewer than ``_ROUND`` nodes.  The round first extends each
    row to the highest k of its asks: the new nodes of a kernel go to
    ``log_chi`` in pieces of at most ``_PIECE``, and the even k under a
    halved line's odd ones are copied from the line of twice the step,
    which holds them.  Then each ask is served as its slice of its row
    plus s ln z + log prefactor.  A node's log chi depends on its kernel
    and s alone, so no value depends on the batch.  The table lasts for
    the call.
    """
    lines = [_line(sigma, d, r) for (sigma, d), r in zip(placed, rate)]
    results: list = [None] * len(lines)
    asks: dict[int, list[tuple[float, float, range]]] = {}
    waiting = list(range(len(lines)))[::-1]
    # each instance's kernel, named by the first instance that has it
    first: dict[bytes, int] = {}
    kernel = [first.setdefault(row.tobytes(), i) for i, row in enumerate(kernels.rows[:, 2:])]
    lnz, log_prefactor = kernels.rows[:, 0].tolist(), kernels.rows[:, 1].tolist()
    # (kernel, x, step) -> [log chi at the nodes k < size (and beyond), size]
    table: dict[tuple[int, float, float], list] = {}

    def resume(i: int, values: list[np.ndarray] | None) -> None:
        try:
            asks[i] = lines[i].send(values)
        except StopIteration as stop:
            results[i] = stop.value
            asks.pop(i, None)

    while asks or waiting:
        count = sum(len(k) for ask in asks.values() for _, _, k in ask)
        while waiting and count < _ROUND:
            i = waiting.pop()
            resume(i, None)
            count += sum(len(k) for _, _, k in asks.get(i, ()))
        # the nodes of each ask, and per kernel the (row, slots, nodes)
        # that no line has asked for yet: the tail of an ask, since a line
        # asks for the nodes of a row in order from k = 0 (a halved line
        # for its odd k)
        nodes = {i: [(1j * step) * np.arange(k.start, k.stop, k.step) + x for x, step, k in ask]
                 for i, ask in asks.items()}
        fresh: dict[int, list[tuple]] = {}
        for i, ask in asks.items():
            for (x, step, k), s in zip(ask, nodes[i]):
                key = (kernel[i], x, step)
                row = table.get(key)
                if row is None:
                    row = table[key] = [np.empty(0, dtype=complex), 0]
                chi, size = row
                stop = k[-1] + 1
                if stop <= size:
                    continue
                if stop > chi.size:
                    row[0] = np.empty(max(stop, 2 * chi.size), dtype=complex)
                    row[0][:size] = chi[:size]
                if k.step == 2:
                    # the even k lie on the line of twice the step
                    below = table[kernel[i], x, 2.0 * step][0]
                    even = size + size % 2
                    row[0][even:stop:2] = below[even // 2:stop // 2]
                new = len(range(k.start, size, k.step))
                row[1] = stop
                fresh.setdefault(kernel[i], []).append(
                    (row, slice(k[new], stop, k.step), s[new:]))
        for j, news in fresh.items():
            s = np.concatenate([part for _, _, part in news]) if len(news) > 1 else news[0][2]
            chi = np.empty_like(s)
            for n in range(0, s.size, _PIECE):
                chi[n:n + _PIECE] = kernels.log_chi(s[n:n + _PIECE], kernels.rows[j])
            n = 0
            for row, slots, part in news:
                row[0][slots] = chi[n:n + part.size]
                n += part.size
        for i, ask in list(asks.items()):
            resume(i, [table[kernel[i], x, step][0][k.start:k.stop:k.step] + s * lnz[i]
                       + log_prefactor[i] for (x, step, k), s in zip(ask, nodes[i])])
    return results


def meijer_g_batch(specs: list[MeijerGSpec],
                   log_prefactors: list[float]) -> list[EvalResult | MeijerGError]:
    """Evaluate exp(log_prefactors[i]) * G(specs[i]) for every i together.

    Slot i of the result holds the EvalResult of instance i, or the
    MeijerGError it failed with; one failure leaves the other instances
    unaffected.  Each value equals the one ``meijer_g`` returns.
    Instances with equally many kernel factors (all the points of a sweep
    curve) share one lockstep pass, and those of one kernel the log chi
    of the lines they share.
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
            (i, (gamma, logs), strip, delta * math.pi, spec.log_argument + slope,
             float(log_prefactors[i]) + constant))
    for group in groups.values():
        index, kernel_tables, strips, rates, lnz, log_prefactor = zip(*group)
        kernels = _Kernels(kernel_tables, lnz, log_prefactor)
        lo, hi = np.array(strips).T
        # a value that is not finite fails its own instance only
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sigma = _pick_sigma(kernels, lo, hi).tolist()
            evaluated = _trapezoid(kernels, [_snap(v, *strip) for v, strip in zip(sigma, strips)],
                                   rates)
        for i, res in zip(index, evaluated):
            results[i] = res
    return results


def meijer_g(spec: MeijerGSpec, *, log_prefactor: float = 0.0) -> EvalResult:
    """Evaluate exp(log_prefactor) * G(spec) by contour integration."""
    res = meijer_g_batch([spec], [log_prefactor])[0]
    if isinstance(res, MeijerGError):
        raise res
    return res
