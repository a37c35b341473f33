"""Meijer-G evaluation on positive real arguments.

``meijer_g_batch`` sums the defining Mellin-Barnes integral of each
instance with the trapezoid rule along a vertical line inside the strip
separating the two pole families.  The lines lie on a lattice that the
strip alone fixes (``_snap``), and an instance takes the one whose cell
holds the saddle point of its integrand on the real axis, where the
integral cancels least: the cell at whose bounds the derivative of the
log magnitude, a digamma sum, changes sign (``_pick_lines``).  The
integrand is analytic in the strip of half-width d about the line, d
being the distance to the nearest pole, where the trapezoid rule
converges geometrically (Trefethen and Weideman, SIAM Review 56(3),
2014, Thm 5.1).  Before it sums, a line fixes its step, from d and the
rate at which the phase of the integrand turns, and its span, from
Stirling's series for the fall of its magnitude (``_plan``), so that
almost every line ends in one pass; each keeps its own error estimate.
The instances of a kernel share its factor table, its saddle search and
one ``_trapezoid`` pass in rounds over one table of log chi per line
(``_Table``), so the points of a sweep curve that share a lattice line
share its log-gammas.  A value depends on its instance and line alone,
not on its batch.  ``meijer_g`` is a batch of one.

Coincident lower parameters, which the closed forms of this package
produce routinely, need no treatment: the line never meets a pole.  The
closed forms keep every leading upper parameter at or below 1 and every
leading lower one above 0, so the two families never touch; a spec whose
families touch or interleave raises ``ContourError``.

All gamma factors are accumulated in log space, and the argument enters
as ln z and an external scale factor as ``log_prefactor``, so values
spanning hundreds of orders of magnitude stay representable.  The
factors of each kernel are reduced first (``_kernel_tables``): equal ones
merge, a factor one above another folds onto it and a log, and a pair
half a unit apart becomes one log-gamma of twice the slope by Legendre's
duplication formula, which under IM/DD undoes the Gauss multiplication
of the closed forms and halves the log-gammas the cdf needs per node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

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
# a line asks for nodes in multiples of this
_WIDTH = 15
# nodes per kernel call, and at most per line of an ask: pieces of 1,020
# nodes keep the temporaries of the log-gammas near 130 kB
_PIECE = 68 * _WIDTH
# lines join a round while it asks for fewer nodes than this, so a batch
# of thousands of instances holds a bounded number of nodes at once
_ROUND = 8 * _PIECE
# a line's first span ends where |w| is predicted to fall to _FALL |w(sigma)|
# / (pi decay_index), read at these multiples of 1 / (pi decay_index)
_FALL = 1e-16
_SPANS = 40.0 * 2.0 ** np.arange(-2.0, 4.25, 0.5)
# ln |w| below which exp(ln |w|) is 0: a span need not reach past it
_UNDERFLOW = -746.0
# a line fails rather than take more nodes than this
_MAX_NODES = 1 << 20
# ln |w| at a line's first node above which it scales w down (_trapezoid)
_CEILING = 690.0
# the first round of the saddle search evaluates phi' at these u, 0.5
# apart: from 6e-6 to 1.6e5 units off the end of a one-sided strip
_GRID = np.arange(-12.0, 12.25, 0.5)
# past the grid's ends a bracket runs to u = -+_U_MAX, where sigma is
# still a double and phi' counts as -+_G_MAX
_U_MAX, _G_MAX = 700.0, 1e300
_BRACKET = np.concatenate([[-_U_MAX], _GRID, [_U_MAX]])
# the search takes the instances in slabs of about this many digamma
# arguments, so its arrays stay near 64 kB
_SLAB = 8192
# rounds of the search after the grid's; an instance then keeps its cell
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
    and a rounding floor (``_trapezoid``)."""

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


class _Kernel:
    """The factors of one kernel, one column each: offsets, signs and
    weights, the log-gamma ones first; and the same with each log factor
    unfolded into log-gammas, log x = logGamma(x + 1) - logGamma(x), and
    their weights times their signs, for the digamma sums of (log w)' and
    the Stirling sums of ln |w|.  A kernel value depends on s alone."""

    def __init__(self, gamma: np.ndarray, logs: np.ndarray) -> None:
        self.gamma_width = gamma.shape[1]
        self.table = np.concatenate((gamma, logs), axis=1)
        self.unfolded = np.concatenate((self.table, logs), axis=1)
        self.unfolded[0, self.table.shape[1]:] += 1.0
        self.unfolded[2, self.gamma_width:self.table.shape[1]] *= -1.0
        self.slope_weight = self.unfolded[2] * self.unfolded[1]

    def log_chi(self, s: np.ndarray) -> np.ndarray:
        """Log of the gamma-ratio kernel at s.  Its imaginary part, plus
        t ln z, is the phase of w, continuous along a vertical line in the
        upper half plane: the log-gammas are scipy's, cut along the
        negative real axis only."""
        kg = self.gamma_width
        off, sign, weight = self.table
        # the arguments c + e s, overwritten in place by the terms
        terms = sign * s[..., None]
        terms += off
        loggamma_complex(terms[..., :kg], out=terms[..., :kg])
        np.log(terms[..., kg:], out=terms[..., kg:])
        terms *= weight
        return np.add.reduce(terms, axis=-1)


def _contour_strip(spec: MeijerGSpec) -> tuple[float, float]:
    """Strip (lo, hi) between the pole families; ContourError if none is or w does not decay."""
    if spec.decay_index <= 0.0:
        raise ContourError(
            f"decay index m+n-(p+q)/2 = {spec.decay_index:g} is not positive; "
            "the vertical-line integral diverges for this shape")
    lo = max(spec.a_params[:spec.n]) - 1.0 if spec.n else -math.inf
    hi = min(spec.b_params[:spec.m]) if spec.m else math.inf
    if math.isinf(lo) and math.isinf(hi):
        raise ContourError("no pole family present (m = n = 0), nothing to separate")
    if not math.isinf(lo) and not math.isinf(hi) and hi - lo <= 4.0 * _COLLISION_TOL:
        raise ContourError(
            f"separating strip ({lo:g}, {hi:g}) is empty; "
            "max leading a-parameter - 1 must lie below min leading b-parameter")
    return lo, hi


def _pick_lines(kernel: _Kernel, strip: tuple[float, float],
                lnz: list[float]) -> list[tuple[float, float]]:
    """Per ln z of the kernel, the lattice line (``_snap``) whose cell
    holds the saddle of the integrand on the real axis, and its distance
    to the nearest pole.  There phi' = 0, phi(sigma) = Re log chi(sigma) +
    sigma ln z being the log of the magnitude; phi' rises from -inf at the
    pole at lo, or at the far end of a one-sided strip, to +inf at the
    other.  The search runs in u, sigma = lo + e^u or hi - e^-u on a
    one-sided strip and sigma - lo = e^u / (1 + e^u / (hi - lo)) on a
    two-sided one, where phi' is near linear even far from a pole.  A
    round over ``_GRID``, one row of digamma sums plus each ln z, brackets
    the sign change, and its secant point is the first guess.  Each round
    then snaps the guess: a cell where phi' is <= 0 at its lower bound and
    >= 0 at its upper one holds the saddle, whatever the batch; else a
    bound of the wrong sign closes the bracket, and the secant through
    the bounds, or the bracket's midpoint where that falls outside it, is
    the next guess.
    """
    lo, hi = strip
    off, sign, _ = kernel.unfolded
    # sigma = end + side * dist, dist = gap / (1 + gap / width) and
    # gap = exp(side * u); the arguments of the gammas are base + rate * dist
    side = 1.0 if math.isfinite(lo) else -1.0
    end = lo if side > 0.0 else hi
    inv_width = 1.0 / (hi - lo)  # 0 on a one-sided strip
    base = off + sign * end
    rate = sign * side

    def distance(u: np.ndarray) -> np.ndarray:
        gap = np.exp(side * u)
        return gap / (1.0 + gap * inv_width)

    def slopes(dist: np.ndarray) -> np.ndarray:
        # the digamma sum of phi' at dist, in slabs of about _SLAB digammas
        g = np.empty(dist.shape)
        step = max(1, _SLAB // (dist.shape[1] * base.size))
        for i in range(0, len(g), step):
            x = base + rate * dist[i:i + step, :, None]
            np.add.reduce(digamma(x) * kernel.slope_weight, axis=2, out=g[i:i + step])
        return g

    # phi' on the grid and -+_G_MAX past it; the bracket [a, b] of its sign change
    lnz = np.array(lnz)
    index = np.arange(lnz.size)
    g = np.empty((lnz.size, _BRACKET.size))
    g[:, 0], g[:, -1] = -_G_MAX, _G_MAX
    g[:, 1:-1] = slopes(distance(_GRID)[None, :]) + lnz[:, None]
    j = np.argmax(g > 0.0, axis=1)
    a, b = _BRACKET[j - 1], _BRACKET[j]
    g_a, g_b = g[index, j - 1], g[index, j]
    u = a + (b - a) * g_a / (g_a - g_b)
    placed: dict[int, tuple[float, float]] = {}
    for _ in range(_MAX_STEPS):
        sigma = (end + side * distance(u)).tolist()
        cells = [_snap(v, lo, hi) for v in sigma]
        placed.update(zip(index.tolist(), [cell[:2] for cell in cells]))
        # phi' at the cell's bounds, and the bounds in u
        dist = side * (np.array(cells)[:, 2:] - end)
        g = slopes(dist) + lnz[:, None]
        high, low = g[:, 0] > 0.0, g[:, 1] < 0.0
        if not (wrong := high | low).any():
            break
        u_ends = side * np.log(dist / (1.0 - dist * inv_width))
        a, b = np.where(low, u_ends[:, 1], a), np.where(high, u_ends[:, 0], b)
        (u_lo, u_hi), (g_lo, g_hi) = u_ends[wrong].T, g[wrong].T
        index, lnz, a, b = (v[wrong] for v in (index, lnz, a, b))
        u = u_lo - g_lo * (u_hi - u_lo) / (g_hi - g_lo)
        u = np.where((a < u) & (u < b), u, 0.5 * (a + b))
    return [placed[i] for i in range(len(placed))]


def _snap(sigma: float, lo: float, hi: float) -> tuple[float, float, float, float]:
    """sigma moved onto a lattice that the strip (lo, hi) alone fixes, its
    distance to the nearest pole, and the bounds of its cell.  D, the
    distance from sigma to the nearer strip end, goes to the nearest
    multiple of 0.5 from D = 1 up and below it ln D to that of 0.25: a cell
    spans D -+ 0.25 from D = 1.5 up, e^-0.125 to 1.25 at D = 1 and
    D e^-+0.125 below, and ends at the centre of a two-sided strip."""
    below, above = sigma - lo, hi - sigma
    dist = min(below, above)
    if dist >= 1.0:
        dist = 0.5 * round(2.0 * dist)
    elif dist > 0.0:
        dist = math.exp(0.25 * round(4.0 * math.log(dist)))
    if dist >= 1.5:
        near, far = dist - 0.25, dist + 0.25
    else:
        near, far = dist * math.exp(-0.125), (1.25 if dist == 1.0 else dist * math.exp(0.125))
    far = min(far, 0.5 * (hi - lo))
    if below <= above:
        line, lower, upper = lo + dist, lo + near, lo + far
    else:
        line, lower, upper = hi - dist, hi - far, hi - near
    return line, min(line - lo, hi - line), lower, upper


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


def _steps(kernel: _Kernel, h: list[float], sigma: list[float], ends: list[float],
           lnz: list[float], spans: list[float]) -> list[float]:
    """Each line's h halved until the phase of w turns by at most pi / 4 a
    step at sigma and at sigma + i end, or until its span needs _MAX_NODES
    nodes.  The phase turns at the rate Re (log w)'(s), ln z plus the
    digamma sum of phi' (``_pick_lines``), real at t = 0: scipy's complex
    digamma is 20 times slower near its pole at 0 and its root at 1.46."""
    off, sign, _ = kernel.unfolded
    s = np.array(sigma)[:, None]
    turns = [np.add.reduce(digamma(sign * v + off).real * kernel.slope_weight, axis=-1).tolist()
             for v in (s, s + 1j * np.array(ends)[:, None])]
    for i, (a, b, z, span) in enumerate(zip(*turns, lnz, spans)):
        rate = max(abs(a + z), abs(b + z))
        while h[i] * rate > 0.25 * math.pi and span < h[i] * _MAX_NODES:
            h[i] *= 0.5
    return h


def _plan(kernel: _Kernel, placed: list[tuple[float, float]], lnz: list[float],
          log_prefactor: list[float], rate: float) -> list[tuple[float, float]]:
    """The step and the first span of each line (sigma, d), from its
    instance alone, in slabs of about _SLAB terms.

    The span ends where |w| is predicted to fall to _FALL |w(sigma)| /
    rate, or to underflow.  ln |w(sigma + i t) / w(sigma)| sums ln
    |Gamma(x + i y)| - ln Gamma(x) over the unfolded factors, y = |e| t:
    the second is scipy's real log-gamma, the first the leading terms of
    Stirling's series, Re (x + i y - 1/2) Ln(x + i y) - x + ln(2 pi) / 2
    (DLMF 5.11.1), close for the arguments of positive real part of every
    closed form here.  It is read at the t of _SPANS, linear between them.
    The step is min(0.1, d / 6), halved for the rate of the phase at t = 0
    and at the middle of the pass's last step (``_steps``).
    """
    off, sign, weight = kernel.unfolded
    t = _SPANS / rate
    iy, target, ts = 1j * np.abs(sign) * t[:, None], math.log(_FALL / rate), t.tolist()
    # sum w (ln(2 pi) / 2 - x) = base - slope sigma
    base, slope = float(weight @ (0.5 * math.log(2.0 * math.pi) - off)), float(weight @ sign)
    size = max(1, _SLAB // iy.size)
    plan = []
    for i in range(0, len(placed), size):
        chunk, z = placed[i:i + size], lnz[i:i + size]
        x = sign * np.array([v for v, _ in chunk])[:, None] + off
        at0 = gammaln(x)
        tops = np.add.reduce(at0 * weight, axis=-1).tolist()
        x = x[:, None, :] + iy
        fall = np.log(x)
        fall *= x - 0.5
        h, ends, spans = [], [], []
        for (v, d), lz, p, top, f in zip(chunk, z, log_prefactor[i:i + size], tops,
                                         np.add.reduce(fall.real * weight, axis=-1).tolist()):
            # the first t where the fall from ln |w(sigma)|, as the pass
            # scales it, reaches the goal, linear between two t
            goal = max(target, _UNDERFLOW - min(top + v * lz + p, _CEILING)) + top - base + v * slope
            j = 1
            while j < len(ts) - 1 and f[j] > goal:
                j += 1
            part = (f[j - 1] - goal) / (f[j - 1] - f[j]) if f[j - 1] > f[j] else 1.0
            spans.append(ts[j - 1] + (ts[j] - ts[j - 1]) * max(0.0, min(1.0, part)))
            h.append(min(0.1, d / 6.0))
            ends.append(h[-1] * (_WIDTH * math.ceil(spans[-1] / (_WIDTH * h[-1])) - 1.5))
        plan += zip(_steps(kernel, h, [v for v, _ in chunk], ends, z, spans), spans)
    return plan


class _Row:
    """Log chi at x + i k step, k < chi.size, and the passes that read it."""

    __slots__ = ("x", "step", "chi", "users")

    def __init__(self, x: float, step: float) -> None:
        self.x, self.step, self.chi, self.users = x, step, np.empty(0, complex), 0


class _Table:
    """The rows of log chi that the lines of one kernel ask for.  A round
    computes each node that its asks lack once (``fill``); a row filled
    once takes its slice of the fill, a row that grows appends to a copy.
    A row leaves with the last pass that reads it (``release``).  Log chi
    depends on s alone, so no value depends on the batch."""

    def __init__(self, kernel: _Kernel) -> None:
        self.kernel = kernel
        self.index: dict[tuple[float, float], _Row] = {}

    def row(self, x: float, step: float) -> _Row:
        row = self.index.get((x, step))
        if row is None:
            row = self.index[x, step] = _Row(x, step)
        row.users += 1
        return row

    def release(self, rows: list[_Row]) -> None:
        """Take a user from each row, and drop the rows left without."""
        for row in rows:
            row.users -= 1
            if not row.users:
                del self.index[row.x, row.step]

    def fill(self, asks: list[tuple[_Row, int]]) -> None:
        """Compute the nodes below stop of each ask (row, stop) that its row
        lacks, in pieces of at most ``_PIECE``."""
        need: dict[_Row, int] = {}
        for row, stop in asks:
            if stop > need.get(row, row.chi.size):
                need[row] = stop
        if not need:
            return
        first, count, x, step = np.array(
            [(row.chi.size, stop - row.chi.size, row.x, row.step) for row, stop in need.items()]).T
        count = count.astype(np.intp)
        n = np.add.accumulate(count)
        k = first.repeat(count) + np.arange(n[-1]) - (n - count).repeat(count)
        s = np.empty(k.size, dtype=complex)
        s.real, s.imag = x.repeat(count), k * step.repeat(count)
        del k
        for j in range(0, s.size, _PIECE):  # log chi in place of s
            s[j:j + _PIECE] = self.kernel.log_chi(s[j:j + _PIECE])
        for row, a, b in zip(need, [0, *n[:-1].tolist()], n.tolist()):
            row.chi = np.concatenate((row.chi, s[a:b])) if row.chi.size else s[a:b]


class _Line:
    """An instance's line and its pass: the step h, the next node of the
    line and of its edges, and the end; the rows of its lower edge, upper
    edge and itself, with the constants (Re, Im per node) that each adds
    to log chi for log w; the sums of |w| along them, of Re w, the shift."""

    __slots__ = ("inst", "x", "lnz", "log_prefactor", "h", "stop", "nxt", "edge", "rows",
                 "consts", "lower", "upper", "amplitude", "total", "shift")

    def __init__(self, table: _Table, inst: int, x: float, lnz: float,
                 log_prefactor: float, h: float, stop: int) -> None:
        self.inst, self.x, self.lnz, self.log_prefactor = inst, x, lnz, log_prefactor
        self.h, self.stop, self.nxt, self.edge = h, stop, 0, 0
        self.rows = [table.row(x + o * h, 8.0 * h) for o in (-4, 4)] + [table.row(x, h)]
        self.consts = [(row.x * lnz + log_prefactor, row.step * lnz) for row in self.rows]
        self.lower = self.upper = self.amplitude = self.total = self.shift = 0.0


def _trapezoid(kernel: _Kernel, placed: list[tuple[float, float]], lnz: list[float],
               log_prefactor: list[float], rate: float) -> list[EvalResult | MeijerGError]:
    """The trapezoid sum of each instance i of one kernel along its line
    (sigma, d), with its ln z and log prefactor, all in rounds of array
    operations over one ``_Table``; rate is pi times the decay index.

    The nodes lie at s = sigma + i k h, k = 0, 1, ..., and the value is
    (h / pi) (sum Re w - Re w(sigma) / 2).  A line fixes its step and its
    first span before it asks for a node (``_plan``).  At the end of the
    pass |w| must be at most 1e-14 of the value; otherwise the span grows
    by half, and where the phase turns too fast at the new end for h
    (``_steps``), the line sums its whole span again at a finer one.
    Along the lines sigma -+ 4 h |w| is summed every 8 h, for M in the
    error bound: the nodes below k of the line call for those below 15
    ceil(k / 120) of each.  Where |w| at the first node exceeds
    e^``_CEILING``, every w is scaled by e^-shift to bring it there and
    the result scaled back, so that a value up to the largest double sums
    without overflow.  In a round every line asks for its next ``_PIECE``
    nodes at most, with its edges' nodes, and a waiting instance joins
    while the round asks for fewer than ``_ROUND``.  The asks are slices
    of the table's rows, joined into one array, and np.add.reduceat sums
    each in order; the asks of a line follow from its instance alone, so
    no value depends on the batch.
    """
    results: list = [None] * len(placed)
    table = _Table(kernel)
    # the lines yet to start their pass, last first
    waiting, plan = [], _plan(kernel, placed, lnz, log_prefactor, rate)
    for i, ((x, _), (h, span)) in enumerate(zip(placed, plan)):
        if span < h * _MAX_NODES:
            waiting.append(_Line(table, i, x, lnz[i], log_prefactor[i], h,
                                 _WIDTH * math.ceil(span / (_WIDTH * h))))
        else:
            results[i] = ContourError(f"line step {h:.3g} is too fine for a span of {span:.3g}")
    waiting.reverse()
    lines: list[_Line] = []
    while True:
        count = sum(min(line.stop - line.nxt, _PIECE) for line in lines)
        while waiting and count < _ROUND:
            lines.append(waiting.pop())
            count += min(lines[-1].stop, _PIECE)
        if not lines:
            return results
        # the end of each line's ask and of its edges'
        ends = [((e + 8 * _WIDTH - 1) // (8 * _WIDTH) * _WIDTH, e)
                for e in (min(line.nxt + _PIECE, line.stop) for line in lines)]
        table.fill([(row, stop) for line, (edge, end) in zip(lines, ends)
                    for row, stop in zip(line.rows, (edge, edge, end))])
        # per ask, the lower edge, upper edge and line of each line in
        # turn: its log chi, where its nodes begin among all, k less that,
        # its size and its constants; and per line its last node
        asks, begin, ints, floats, tail, nodes = [], [], [], [], [], 0
        for line, (edge, end) in zip(lines, ends):
            for row, a, b, c in zip(line.rows, (line.edge, line.edge, line.nxt),
                                    (edge, edge, end), line.consts):
                asks.append(row.chi[a:b])
                begin.append(nodes)
                ints += (a - nodes, b - a)
                floats += c
                nodes += b - a
            tail.append(nodes - 1)
        # in place where it can, k as floats (exact), and no complex copy
        # of the asks: at most about 300 kB at once
        ints = np.array(ints).reshape(-1, 2)
        size = ints[:, 1]
        add, rot = np.array(floats).reshape(-1, 2).T
        im = np.arange(nodes, dtype=float)
        im += ints[:, 0].repeat(size)
        im *= rot.repeat(size)
        im += np.concatenate([ask.imag for ask in asks])
        re = np.concatenate([ask.real for ask in asks])
        re += add.repeat(size)
        del asks
        heads = [j for j, line in enumerate(lines) if not line.nxt]
        for j in heads:
            # the first node of a pass, w(sigma), sets the line's shift
            line = lines[j]
            line.shift = max(0.0, float(re[begin[3 * j + 2]]) - _CEILING)
            if line.shift:
                re[begin[3 * j]:tail[j] + 1] -= line.shift
                line.consts = [(a - line.shift, b) for a, b in line.consts]
        mag = np.exp(re, out=re)
        # and its edges' first nodes and it weigh a half
        mag[[begin[3 * j + o] for j in heads for o in range(3)]] *= 0.5
        part = np.add.reduceat(mag, begin).tolist()
        cos = np.cos(im, out=im)
        cos *= mag
        real = np.add.reduceat(cos, begin)[2::3].tolist()
        fallen = mag[tail].tolist()  # |w| at each line's last node
        del re, mag, im, cos  # before the next round's fill
        kept = []
        for line, end, (edge, nxt), lower, upper, amplitude, total in zip(
                lines, fallen, ends, part[::3], part[1::3], part[2::3], real):
            # an edge that asked for no node has no sum
            if edge > line.edge:
                line.lower += lower
                line.upper += upper
            line.amplitude += amplitude
            line.total += total
            line.nxt, line.edge = nxt, edge
            if line.nxt < line.stop:
                kept.append(line)
                continue
            # at the end of a pass a value that is not finite fails, |w| at
            # the end within the bound converges, and otherwise the span grows
            value, h, i = line.h * line.total, line.h, line.inst
            if not math.isfinite(value):
                results[i] = _finished(value, 0.0, line.shift)
            elif end <= 1e-14 * abs(value):
                # Trefethen and Weideman, Thm 5.1: where w is analytic in
                # the strip of half-width a about the line, and M bounds
                # its integral of |w| on every parallel line there, the
                # trapezoid sum is off by at most 2 M / (exp(2 pi a / h) -
                # 1).  Here a = 4 h <= 2 d / 3.  The log of the integral
                # of |w| along a line is convex across the strip, so the
                # larger of its two edges, each summed with step 8 h, is
                # M.  Then the tail past the span, and rounding in a sum
                # of terms of size |w|.
                big_m = 8.0 * h * max(line.lower, line.upper)
                results[i] = _finished(value, 2.0 * big_m / math.expm1(8.0 * math.pi)
                                       + end / rate + 3e-16 * h * line.amplitude,
                                       line.shift)
            else:
                stop = _WIDTH * math.ceil(1.5 * line.stop / _WIDTH)
                (h,) = _steps(kernel, [h], [line.x], [h * (stop - 1.5)], [line.lnz], [h * stop])
                stop *= round(line.h / h)
                if stop <= _MAX_NODES:
                    if h < line.h:
                        table.release(line.rows)
                        line = _Line(table, i, line.x, line.lnz, line.log_prefactor, h, stop)
                    line.stop = stop
                    kept.append(line)
                    continue
                results[i] = ContourError(f"line needs over {_MAX_NODES} nodes: step {h:.3g}, "
                                          f"|w| still {end:.2e} at t = {line.h * line.stop:.3g}")
            table.release(line.rows)
        lines = kept


def meijer_g_batch(specs: list[MeijerGSpec],
                   log_prefactors: list[float]) -> list[EvalResult | MeijerGError]:
    """Evaluate exp(log_prefactors[i]) * G(specs[i]) for every i together.

    Slot i of the result holds the EvalResult of instance i, or the
    MeijerGError it failed with; one failure leaves the other instances
    unaffected.  Each value equals the one ``meijer_g`` returns.  The
    instances of one kernel, (m, n, a_params, b_params), such as the
    points of a sweep curve, which differ in ln z and the prefactor
    alone, share one factor table, one saddle search and one trapezoid
    pass, and so the log chi of the lines they share.
    """
    results: list = [None] * len(specs)
    kernels: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        kernels.setdefault((spec.m, spec.n, spec.a_params, spec.b_params), []).append(i)
    for index in kernels.values():
        spec = specs[index[0]]
        try:
            strip = _contour_strip(spec)
        except ContourError as exc:
            for i in index:
                results[i] = ContourError(*exc.args)
            continue
        gamma, logs, constant, slope = _kernel_tables(spec)
        kernel = _Kernel(gamma, logs)
        lnz = [specs[i].log_argument + slope for i in index]
        log_prefactor = [float(log_prefactors[i]) + constant for i in index]
        # a value that is not finite fails its own instance only
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            evaluated = _trapezoid(kernel, _pick_lines(kernel, strip, lnz), lnz, log_prefactor,
                                   spec.decay_index * math.pi)
        for i, res in zip(index, evaluated):
            results[i] = res
    return results


def meijer_g(spec: MeijerGSpec, *, log_prefactor: float = 0.0) -> EvalResult:
    """Evaluate exp(log_prefactor) * G(spec) by contour integration."""
    res = meijer_g_batch([spec], [log_prefactor])[0]
    if isinstance(res, MeijerGError):
        raise res
    return res
