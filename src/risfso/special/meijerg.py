"""Meijer-G evaluation on positive real arguments.

``meijer_g_batch`` sums the defining Mellin-Barnes integral of each
instance with the trapezoid rule along a vertical line placed inside the
strip separating the two pole families.  The lines lie on a lattice that
the strip alone fixes (``_snap``).  An instance takes the one whose cell
holds the saddle point of its integrand on the real axis, where the
integral cancels least, in the tails and for large shapes alike: the
cell at whose bounds the derivative of the log magnitude, a digamma sum,
changes sign (``_pick_lines``; one round past a bracketing grid for 95 %
of instances, at most five).  The step follows from the line, so the
points of a sweep curve, whose saddles lie close together, ask for the
same nodes.  The integrand is analytic in the strip of half-width d
about the line, d being the distance to the nearest pole, where the
trapezoid rule converges geometrically (Trefethen and Weideman, SIAM
Review 56(3), 2014, Thm 5.1).  Each instance takes its own span from its
integrand and keeps its own error estimate.  The instances of a kernel
share its factor table, its saddle search, whose grid round is one row
of digamma sums, and one ``_trapezoid`` pass in rounds: each round takes
every line's next nodes from one table of log chi per line (``_Table``),
so a node's log-gammas are computed once while a pass still reads them,
and sums the lines as flat arrays with np.add.reduceat.  A value depends
on its instance and line alone, not on its batch.  ``meijer_g`` is a batch of one.

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
from scipy.special import digamma

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
    weights, the log-gamma ones first.  A kernel value depends on s
    alone."""

    def __init__(self, gamma: np.ndarray, logs: np.ndarray) -> None:
        self.gamma_width = gamma.shape[1]
        self.table = np.concatenate((gamma, logs), axis=1)

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
    k, kg = kernel.table.shape[1], kernel.gamma_width
    # offsets, signs of s and weights of the factors, each log factor
    # unfolded into log-gammas, log x = logGamma(x + 1) - logGamma(x):
    # phi' is then one sum of digammas, a factor of slope e weighing e
    table = np.concatenate([kernel.table, kernel.table[:, kg:]], axis=1)
    table[0, k:] += 1.0
    table[2, kg:k] *= -1.0
    off, sign, weight = table
    slope_weight = weight * sign
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
            np.add.reduce(digamma(x) * slope_weight, axis=2, out=g[i:i + step])
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


def _edge(k: int) -> int:
    """The nodes of an edge line that the nodes below k of its line call
    for: one in 8, rounded up to whole multiples of _WIDTH."""
    return (k + (8 * _WIDTH - 1)) // (8 * _WIDTH) * _WIDTH


class _Row:
    """Log chi on the nodes x + i k step of a line, k < chi.size, in an
    array of its own; need is the end of the round's asks, users its passes."""

    __slots__ = ("x", "step", "chi", "need", "users")

    def __init__(self, x: float, step: float) -> None:
        self.x, self.step, self.chi, self.need, self.users = x, step, np.empty(0, complex), 0, 0


class _Table:
    """The rows of log chi that the lines of one kernel ask for.  A round
    first extends each row to the end of its asks (``extend``), then
    computes each new node once and appends it to its row (``fill``).  A
    row leaves with the last pass that reads it (``release``).  Log chi
    depends on s alone, so no value depends on the batch."""

    def __init__(self, kernel: _Kernel) -> None:
        self.kernel = kernel
        self.index: dict[tuple[float, float], _Row] = {}
        # the rows that the round extends
        self.grown: list[_Row] = []

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

    def extend(self, row: _Row, stop: int) -> None:
        """Ask for the nodes of row below stop."""
        if stop > row.need:
            if row.need == row.chi.size:
                self.grown.append(row)
            row.need = stop

    def fill(self) -> None:
        """Compute the nodes asked for since the last fill, in pieces of
        at most ``_PIECE``."""
        rows, self.grown = self.grown, []
        if not rows:
            return
        first, count, x, step = np.array(
            [(row.chi.size, row.need - row.chi.size, row.x, row.step) for row in rows]).T
        count = count.astype(np.intp)
        n = np.add.accumulate(count)
        k = first.repeat(count) + np.arange(n[-1]) - (n - count).repeat(count)
        s = np.empty(k.size, dtype=complex)
        s.real, s.imag = x.repeat(count), k * step.repeat(count)
        del k
        chi = np.empty_like(s)
        for j in range(0, s.size, _PIECE):
            chi[j:j + _PIECE] = self.kernel.log_chi(s[j:j + _PIECE])
        del s
        for row, new in zip(rows, np.split(chi, n[:-1])):
            row.chi = np.concatenate((row.chi, new))


class _Line:
    """An instance's line and its pass: the step h, the next node of the
    line and of its edges, and the end; the rows of its lower edge, upper
    edge and itself, with the constants (Re, Im per node) that each adds
    to log chi for log w; the sums of |w| along them and of Re w along
    itself; the phase at its last node, its shift and whether the phase
    turned too fast."""

    __slots__ = ("inst", "x", "lnz", "log_prefactor", "h", "stop", "nxt", "edge", "rows",
                 "consts", "lower", "upper", "amplitude", "total", "phase", "shift", "turned")

    def __init__(self, table: _Table, inst: int, x: float, lnz: float,
                 log_prefactor: float, h: float, stop: int) -> None:
        self.inst, self.x, self.lnz, self.log_prefactor = inst, x, lnz, log_prefactor
        self.start(table, h, stop)

    def start(self, table: _Table, h: float, stop: int) -> None:
        """Start a pass of step h from node 0 to node stop."""
        self.h, self.stop, self.nxt = h, stop, 0
        self.rows = [table.row(self.x + o * h, 8.0 * h) for o in (-4, 4)] + [table.row(self.x, h)]
        self.consts = [(row.x * self.lnz + self.log_prefactor, row.step * self.lnz)
                       for row in self.rows]
        self.edge = 0
        self.lower = self.upper = self.amplitude = self.total = self.shift = 0.0
        self.phase, self.turned = math.nan, False


def _trapezoid(kernel: _Kernel, placed: list[tuple[float, float]], lnz: list[float],
               log_prefactor: list[float], rate: float) -> list[EvalResult | MeijerGError]:
    """The trapezoid sum of each instance i of one kernel along its line
    (sigma, d), with its ln z and log prefactor, all in rounds of array
    operations over one ``_Table``; rate is pi times the decay index.

    The nodes lie at s = sigma + i k h, k = 0, 1, ..., and the value is
    (h / pi) (sum Re w - Re w(sigma) / 2).  h starts at min(0.1, d / 6),
    d being the distance from sigma to the nearest pole.  The span starts
    at ``_SPAN`` / rate and grows, by at most 1.7 times at a time, until
    |w| at its end is at most 1e-14 of the value; but where the phase of
    w turns by more than pi / 4 between neighbouring nodes, h halves and
    the line sums its whole span again.  Along the lines sigma -+ 4 h |w|
    is summed every 8 h, for M in the error bound: the nodes below k of
    the line call for those below ``_edge(k)`` of each.  Where |w| at the
    first node exceeds e^``_CEILING``, every w is scaled by e^-shift to
    bring it there and the result scaled back, so that a value up to the
    largest double sums without overflow.

    In a round every line asks for its next ``_PIECE`` nodes at most, a
    multiple of ``_WIDTH``, with its edges' nodes, and a waiting instance
    joins while the round asks for fewer than ``_ROUND``.  The asks are
    slices of the table's rows, joined into one array, and one exp, and
    np.add.reduceat sums each in order; the asks of a line follow from
    its instance alone, so no value depends on the batch.  Where a pass
    ends the line decides on floats, since it does so about twice.
    """
    results: list = [None] * len(placed)
    span = _SPAN / rate
    table = _Table(kernel)
    # the lines yet to start their first pass, last first
    waiting = []
    for i, (x, d) in enumerate(placed):
        h = min(0.1, d / 6.0)
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
        ends = []
        for line in lines:
            end = min(line.nxt + _PIECE, line.stop)
            edge = _edge(end)
            lower, upper, row = line.rows
            table.extend(lower, edge)
            table.extend(upper, edge)
            table.extend(row, end)
            ends.append((edge, end))
        table.fill()
        # per ask, the lower edge, upper edge and line of each line in
        # turn: its log chi, where its nodes begin among all, k less that,
        # its size, its constants and the phase before it; and per line
        # its last node
        asks, begin, ints, floats, tail, nodes = [], [], [], [], [], 0
        for line, (edge, end) in zip(lines, ends):
            for row, a, b, c in zip(line.rows, (line.edge, line.edge, line.nxt),
                                    (edge, edge, end), line.consts):
                asks.append(row.chi[a:b])
                begin.append(nodes)
                ints += (a - nodes, b - a)
                floats += (*c, line.phase)
                nodes += b - a
            tail.append(nodes - 1)
        # in place where it can, k as floats (exact): at most 300 kB at once
        ints = np.array(ints).reshape(-1, 2)
        size = ints[:, 1]
        add, rot, before = np.array(floats).reshape(-1, 3).T
        im = np.arange(nodes, dtype=float)
        im += ints[:, 0].repeat(size)
        im *= rot.repeat(size)
        log_chi = np.concatenate(asks)
        im += log_chi.imag
        re = add.repeat(size)
        re += log_chi.real
        del log_chi
        heads = [j for j, line in enumerate(lines) if not line.nxt]
        for j in heads:
            # the first node of a pass, w(sigma), sets the line's shift
            line = lines[j]
            line.shift = max(0.0, float(re[begin[3 * j + 2]]) - _CEILING)
            if line.shift:
                re[begin[3 * j]:tail[j] + 1] -= line.shift
                line.consts = [(a - line.shift, b) for a, b in line.consts]
        # the fall of Re log w over the last _WIDTH nodes of each line
        drops = (re[[t - (_WIDTH - 1) for t in tail]] - re[tail]).tolist()
        mag = np.exp(re, out=re)
        if heads:
            # and its edges' first nodes and it weigh a half
            mag[[begin[3 * j + o] for j in heads for o in range(3)]] *= 0.5
        begin = np.array(begin)
        part = np.add.reduceat(mag, begin).tolist()
        # the largest turn of the phase between neighbouring nodes of a
        # line, from the last node before the ask on
        diff = np.concatenate(([0.0], im[:-1]))
        diff[begin] = before
        diff -= im
        turns = np.fmax.reduceat(np.abs(diff, out=diff), begin)[2::3].tolist()
        last = im[tail].tolist()
        cos = np.cos(im, out=im)
        cos *= mag
        real = np.add.reduceat(cos, begin)[2::3].tolist()
        fallen = mag[tail].tolist()  # |w| at each line's last node
        del re, mag, im, cos, diff  # before the next round's fill
        kept = []
        for line, end, (edge, nxt), lower, upper, amplitude, total, turn, phase, drop in zip(
                lines, fallen, ends, part[::3], part[1::3], part[2::3], real, turns, last, drops):
            # an edge that asked for no node has no sum
            if edge > line.edge:
                line.lower += lower
                line.upper += upper
            line.amplitude += amplitude
            line.total += total
            line.turned |= turn > 0.25 * math.pi
            line.phase, line.nxt, line.edge = phase, nxt, edge
            if line.nxt < line.stop:
                kept.append(line)
                continue
            # at the end of a pass a value that is not finite fails, a
            # phase that turned too fast halves h, |w| at the end within
            # the bound converges, and otherwise the span grows
            value, h, stop, i = line.h * line.total, line.h, line.stop, line.inst
            if not math.isfinite(value):
                results[i] = _finished(value, 0.0, line.shift)
            elif line.turned:
                h, stop = 0.5 * h, 2 * stop
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
                # to where |w|, falling on as over the last _WIDTH nodes,
                # meets the bound, with a fifth to spare; in doubles, so
                # that a bound or a fall that underflows leaves 0.7
                fall = drop / ((_WIDTH - 1) * h)
                more = 0.7 * stop
                if fall > 0.0 and value:
                    more = min(more, 1.2 * np.log(np.float64(end) / (1e-14 * abs(value)))
                               / (fall * h))
                stop = _WIDTH * math.ceil((stop + more) / _WIDTH)
            if results[i] is None and stop > _MAX_NODES:
                results[i] = ContourError(f"line needs over {_MAX_NODES} nodes: step {h:.3g}, "
                                          f"|w| still {end:.2e} at t = {line.h * line.stop:.3g}")
            if results[i] is not None or line.turned:
                table.release(line.rows)
            if results[i] is None:
                if line.turned:
                    # a halved line sums its whole span again
                    line.start(table, h, stop)
                else:
                    line.stop = stop
                kept.append(line)
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
