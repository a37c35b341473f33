"""Meijer-G evaluation on positive real arguments.

Two independent methods are provided:

* ``meijer_g`` integrates the defining Mellin-Barnes integral along a
  vertical line placed inside the strip separating the two pole
  families.  The abscissa is chosen by minimizing the integrand
  magnitude on the real axis, which keeps cancellation mild both deep
  in the small-argument tail and near saturation.
* ``meijer_g_residue_series`` sums residues over the right pole family
  (the generalized hypergeometric expansion around zero), with slowly
  convergent boundary cases accelerated by Wynn's epsilon algorithm.

Coincident parameters, which the closed forms of this package produce
routinely, are separated by a tiny symmetric perturbation before any
residue computation; the contour method needs no such treatment.

All gamma factors are accumulated in log space, so instances whose
G-value spans hundreds of orders of magnitude stay representable; an
optional ``log_prefactor`` folds an external scale factor into the
integrand for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, gammasgn

from .gammafn import loggamma_complex
from .quadrature import gauss_kronrod

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGSpec",
    "PoleCollisionError",
    "SeriesDivergenceError",
    "meijer_g",
    "meijer_g_residue_series",
]

_COLLISION_TOL = 1e-9
_PERTURB_EPS = 1e-6


class MeijerGError(Exception):
    """Base class for evaluator failures."""


class ContourError(MeijerGError):
    """The vertical-line integral cannot converge; message says why."""


class PoleCollisionError(MeijerGError):
    """Numerator gamma poles collide even after perturbation."""


class SeriesDivergenceError(MeijerGError):
    """Residue series requested outside its convergence region."""


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

    def reflected(self) -> "MeijerGSpec":
        """Equivalent spec with inverted argument and swapped families."""
        return MeijerGSpec(
            m=self.n,
            n=self.m,
            a_params=tuple(1.0 - b for b in self.b_params),
            b_params=tuple(1.0 - a for a in self.a_params),
            argument=1.0 / self.argument,
        )


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_error_estimate: float
    method: str
    perturbation_note: str = field(default="", compare=False)


# ---------------------------------------------------------------------------
# contour method


def _forbidden_pairs(spec: MeijerGSpec) -> list[tuple[int, int, int]]:
    """(k, j, integer) triples where a_k - b_j sits on a positive integer.

    Such pairs interleave the two pole families and no straight contour
    can separate them without perturbation.
    """
    out = []
    for k in range(spec.n):
        for j in range(spec.m):
            diff = spec.a_params[k] - spec.b_params[j]
            r = round(diff)
            if r >= 1 and abs(diff - r) < _COLLISION_TOL:
                out.append((k, j, int(r)))
    return out


def _separate_families(spec: MeijerGSpec) -> tuple[MeijerGSpec, str]:
    pairs = _forbidden_pairs(spec)
    if not pairs:
        return spec, ""
    # pull the families toward each other: only a unit-deep overlap can
    # be reopened by a tiny perturbation
    a = list(spec.a_params)
    b = list(spec.b_params)
    for k, j, _ in pairs:
        a[k] -= _PERTURB_EPS
        b[j] += _PERTURB_EPS
    fixed = MeijerGSpec(spec.m, spec.n, tuple(a), tuple(b), spec.argument)
    try:
        still_forbidden = bool(_forbidden_pairs(fixed))
        if not still_forbidden:
            _contour_strip(fixed)
    except ContourError as exc:
        raise PoleCollisionError(
            f"pole families interleave too deeply for the +-{_PERTURB_EPS:g} "
            f"perturbation at (a,b) index pairs {[(k, j) for k, j, _ in pairs]}: "
            f"{exc}") from None
    if still_forbidden:
        raise PoleCollisionError(
            f"pole families still interleave after +-{_PERTURB_EPS:g} "
            f"perturbation: {pairs}")
    note = "separated pole families by +-%g at (a,b) index pairs %s" % (
        _PERTURB_EPS, [(k, j) for k, j, _ in pairs])
    return fixed, note


def _chi_tables(spec: MeijerGSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gamma-factor (offset, sign of s, weight) so the kernel is one
    batched log-gamma call: log chi(s) = sum_k w_k logGamma(c_k + e_k s)."""
    m, n = spec.m, spec.n
    a, b = spec.a_params, spec.b_params
    offs, slope, weight = [], [], []
    for j in range(m):
        offs.append(b[j]); slope.append(-1.0); weight.append(1.0)
    for j in range(n):
        offs.append(1.0 - a[j]); slope.append(1.0); weight.append(1.0)
    for j in range(m, spec.q):
        offs.append(1.0 - b[j]); slope.append(1.0); weight.append(-1.0)
    for j in range(n, spec.p):
        offs.append(a[j]); slope.append(-1.0); weight.append(-1.0)
    return (np.array(offs)[:, None], np.array(slope)[:, None],
            np.array(weight)[:, None])


def _log_chi(spec: MeijerGSpec, s: np.ndarray,
             tables: tuple | None = None) -> np.ndarray:
    """Log of the gamma-ratio kernel at points s of the complex plane."""
    offs, slope, weight = tables if tables is not None else _chi_tables(spec)
    lg = loggamma_complex(offs + slope * s[None, :])
    return (weight * lg).sum(axis=0)


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


def _pick_sigma(spec: MeijerGSpec, lnz: float, lo: float, hi: float,
                tables: tuple) -> float:
    if math.isinf(lo):
        lo = hi - 40.0
    if math.isinf(hi):
        hi = lo + 40.0
    pad = min(0.35, 0.02 * (hi - lo))
    g_lo, g_hi = lo + pad, hi - pad
    for _ in range(3):  # coarse-to-fine scan, one vectorized call per round
        grid = np.linspace(g_lo, g_hi, 17)
        obj = np.real(_log_chi(spec, grid.astype(np.complex128), tables)) + grid * lnz
        obj[~np.isfinite(obj)] = np.inf
        i = int(np.argmin(obj))
        g_lo, g_hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    return 0.5 * (g_lo + g_hi)


def _contour_value(spec: MeijerGSpec, log_prefactor: float,
                   rel_tol: float) -> tuple[float, float]:
    delta = spec.decay_index
    if delta <= 0.0:
        raise ContourError(
            f"decay index m+n-(p+q)/2 = {delta:g} is not positive; "
            "the vertical-line integral diverges for this shape")
    lnz = math.log(spec.argument)
    lo, hi = _contour_strip(spec)
    tables = _chi_tables(spec)
    sigma = _pick_sigma(spec, lnz, lo, hi, tables)

    def integrand(t: np.ndarray) -> np.ndarray:
        s = sigma + 1j * t
        w = np.exp(_log_chi(spec, s, tables) + s * lnz + log_prefactor)
        return w.real

    rate = delta * math.pi
    t_hi = max(8.0, 12.0 / rate)
    total = 0.0
    err = 0.0
    amplitude = 0.0
    t_lo = 0.0
    inner_rel = max(1e-13, 0.03 * rel_tol)
    for _ in range(48):
        res = gauss_kronrod(integrand, t_lo, t_hi,
                            rel_tol=inner_rel,
                            abs_tol=0.1 * rel_tol * abs(total))
        total += res.value
        err += res.error
        amplitude += res.abs_integral
        tail = abs(float(integrand(np.array([t_hi]))[0])) / rate
        budget = rel_tol * max(abs(total), 1e-300)
        if tail < 0.05 * budget and (t_lo > 0.0 or tail == 0.0 or abs(res.value) < budget):
            err += tail
            break
        t_lo = t_hi
        t_hi *= 1.7
    else:
        raise ContourError(f"contour tail still {tail:.2e} at t = {t_hi:.1f}")

    # cancellation floor: the result is a sum of terms of size ~amplitude
    err += 3e-16 * amplitude
    return total / math.pi, err / math.pi


def meijer_g(spec: MeijerGSpec, *, log_prefactor: float = 0.0,
             rel_tol: float = 1e-10) -> EvalResult:
    """Evaluate exp(log_prefactor) * G(spec) by contour integration."""
    work, note = _separate_families(spec)
    value, err = _contour_value(work, log_prefactor, rel_tol)
    if note:
        # one-sided refresh at half the offset bounds the perturbation bias
        half = MeijerGSpec(
            work.m, work.n,
            tuple(0.5 * (x + y) for x, y in zip(work.a_params, spec.a_params)),
            tuple(0.5 * (x + y) for x, y in zip(work.b_params, spec.b_params)),
            work.argument)
        v_half, e_half = _contour_value(half, log_prefactor, rel_tol)
        err += abs(v_half - value) + e_half
        value = v_half
    if not math.isfinite(value):
        raise MeijerGError(f"contour evaluation returned {value!r}")
    return EvalResult(value, err, "contour", note)


# ---------------------------------------------------------------------------
# residue series


def _spread_clusters(values: list[float],
                     eps: float = _PERTURB_EPS) -> tuple[list[float], str]:
    """Perturb entries whose pairwise difference is within 1e-9 of an
    integer so that every residue pole stays simple."""
    idx = list(range(len(values)))
    parent = idx[:]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in idx:
        for j in idx[i + 1:]:
            d = values[i] - values[j]
            if abs(d - round(d)) < _COLLISION_TOL:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in idx:
        groups.setdefault(find(i), []).append(i)

    out = list(values)
    touched = []
    for members in groups.values():
        c = len(members)
        if c < 2:
            continue
        for rank, i in enumerate(members):
            out[i] = values[i] + eps * (2 * rank - (c - 1))
        touched.append(members)
    note = ""
    if touched:
        note = "spread coincident lower parameters by %g at index groups %s" % (
            eps, touched)
    return out, note


def _lg_sign_tolerant(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gammaln with sign where poles are flagged instead of raising."""
    x = np.asarray(x, dtype=np.float64)
    pole = (x <= 0.0) & (x == np.round(x))
    safe = np.where(pole, 0.5, x)
    return gammaln(safe), gammasgn(safe), pole


def _wynn_epsilon(partial: np.ndarray) -> tuple[float, float]:
    """Accelerate a slowly convergent sequence of partial sums."""
    cur = list(partial.astype(np.float64))
    prev = [0.0] * (len(cur) + 1)
    best = cur[-1]
    best_step = math.inf
    for _ in range(len(partial) - 1):
        nxt = []
        for i in range(len(cur) - 1):
            diff = cur[i + 1] - cur[i]
            if diff == 0.0:
                return cur[i + 1], 0.0
            nxt.append(prev[i + 1] + 1.0 / diff)
        prev, cur = cur, nxt
        if len(cur) >= 2 and len(partial) % 2 == len(cur) % 2:
            step = abs(cur[-1] - best)
            if step < best_step:
                best, best_step = cur[-1], step
    # even columns of the table estimate the limit
    return best, 10.0 * (best_step if math.isfinite(best_step) else abs(best))


def _family_series(spec: MeijerGSpec, j: int, lnz: float, terms: int,
                   log_prefactor: float) -> tuple[float, float, float]:
    """Sum the residue family rooted at lower parameter j.

    Returns (value, error_estimate, peak_term_magnitude).
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    a, b = spec.a_params, spec.b_params
    bj = b[j]
    k = np.arange(terms, dtype=np.float64)

    logmag = (bj + k) * lnz + log_prefactor
    logmag -= gammaln(k + 1.0)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    dead = np.zeros(terms, dtype=bool)

    for i in range(m):
        if i == j:
            continue
        lg, sg, pole = _lg_sign_tolerant(b[i] - bj - k)
        if pole.any():
            raise PoleCollisionError(
                f"numerator pole in residue family {j} (lower parameters "
                f"{b[i]:g} and {bj:g} differ by an integer)")
        logmag += lg
        sign *= sg
    for i in range(n):
        lg, sg, pole = _lg_sign_tolerant(1.0 - a[i] + bj + k)
        if pole.any():
            raise PoleCollisionError(
                f"numerator pole in residue family {j} against upper parameter {a[i]:g}")
        logmag += lg
        sign *= sg
    for i in range(m, q):
        lg, sg, pole = _lg_sign_tolerant(1.0 - b[i] + bj + k)
        logmag -= lg
        sign *= sg
        dead |= pole
    for i in range(n, p):
        lg, sg, pole = _lg_sign_tolerant(a[i] - bj - k)
        logmag -= lg
        sign *= sg
        dead |= pole

    term = np.where(dead, 0.0, sign * np.exp(logmag))
    peak = float(np.max(np.abs(term))) if terms else 0.0

    # Kahan summation with convergence detection
    total = 0.0
    comp = 0.0
    partial = np.empty(terms)
    stop = terms
    quiet = 0
    for i in range(terms):
        y = term[i] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        partial[i] = total
        if i >= 10:
            if abs(term[i]) <= 1e-14 * abs(total) + 1e-300:
                quiet += 1
                if quiet >= 3:
                    stop = i + 1
                    break
            else:
                quiet = 0

    cancel = 3e-16 * peak
    if stop < terms:
        return partial[stop - 1], abs(term[stop - 1]) + cancel, peak

    # tail did not die out: diverging, or boundary-slow (|ratio| -> 1)
    live = np.abs(term[max(0, terms - 6):])
    live = live[live > 0.0]
    ratios = live[1:] / live[:-1] if len(live) > 1 else np.array([np.inf])
    r = float(np.median(ratios))
    if r > 1.0 + 1e-9:
        raise SeriesDivergenceError(
            f"residue terms grow (ratio {r:.3f}) at z = {spec.argument:g}; "
            "argument lies outside the series convergence region")
    if r > 0.8:
        val, acc_err = _wynn_epsilon(partial[terms - min(terms, 40):])
        acc_err = max(acc_err, 1e-13 * abs(val))
        return val, acc_err + cancel, peak
    est = abs(term[-1]) / max(1e-16, 1.0 - r)
    return partial[-1], est + cancel, peak


def _residue_value(spec: MeijerGSpec, terms: int,
                   log_prefactor: float) -> tuple[float, float]:
    if spec.m == 0:
        raise SeriesDivergenceError("no residue family on the right (m = 0)")
    if spec.p == spec.q and spec.argument > 1.0 + 1e-12:
        raise SeriesDivergenceError(
            f"series for p = q converges only for arguments <= 1, got {spec.argument:g}")
    if spec.p > spec.q:
        raise SeriesDivergenceError("series expansion needs p <= q")
    lnz = math.log(spec.argument)
    total = 0.0
    err = 0.0
    for j in range(spec.m):
        v, e, _ = _family_series(spec, j, lnz, terms, log_prefactor)
        total += v
        err += e
    return total, err


def meijer_g_residue_series(spec: MeijerGSpec, terms: int = 220, *,
                            log_prefactor: float = 0.0) -> EvalResult:
    """Evaluate exp(log_prefactor) * G(spec) by summing right-family residues."""
    if terms < 8:
        raise ValueError("terms must be at least 8")
    spread, note = _spread_clusters(list(spec.b_params[:spec.m]))
    b = tuple(spread) + spec.b_params[spec.m:]
    work = MeijerGSpec(spec.m, spec.n, spec.a_params, b, spec.argument)
    work, sep_note = _separate_families(work)
    note = "; ".join(x for x in (note, sep_note) if x)

    value, err = _residue_value(work, terms, log_prefactor)
    if note:
        # probe at double the spread; the difference bounds both the
        # O(eps^2) bias and the near-pole rounding amplification
        spread2, _ = _spread_clusters(list(spec.b_params[:spec.m]),
                                      eps=2.0 * _PERTURB_EPS)
        probe = MeijerGSpec(spec.m, spec.n, work.a_params,
                            tuple(spread2) + spec.b_params[spec.m:],
                            spec.argument)
        v2, _ = _residue_value(probe, terms, log_prefactor)
        err += abs(value - v2)
    if not math.isfinite(value):
        raise MeijerGError(f"residue series returned {value!r}")
    return EvalResult(value, err, "residue_series", note)
