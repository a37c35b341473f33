"""Meijer-G evaluation on positive real arguments.

``meijer_g`` integrates the defining Mellin-Barnes integral along a
vertical line placed inside the strip separating the two pole families.
The abscissa is chosen by minimizing the integrand magnitude on the real
axis, which keeps cancellation mild both deep in the small-argument tail
and near saturation.

Coincident lower parameters, which the closed forms of this package
produce routinely, need no treatment: the line never meets a pole.  When
a leading upper parameter sits a positive integer above a leading lower
one, the two families interleave and no straight line separates them.
``_separate_families`` reopens a unit-deep overlap by a symmetric 1e-6
perturbation, and a second evaluation at half that offset bounds the
bias; a deeper overlap raises ``PoleCollisionError``.

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
from .quadrature import gauss_kronrod

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGSpec",
    "PoleCollisionError",
    "meijer_g",
]

_COLLISION_TOL = 1e-9
_PERTURB_EPS = 1e-6


class MeijerGError(Exception):
    """Base class for evaluator failures."""


class ContourError(MeijerGError):
    """The vertical-line integral cannot converge; message says why."""


class PoleCollisionError(MeijerGError):
    """Numerator gamma poles collide even after perturbation."""


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

    def weight(t: np.ndarray) -> np.ndarray:
        s = sigma + 1j * t
        return np.exp(_log_chi(spec, s, tables) + s * lnz + log_prefactor)

    def integrand(t: np.ndarray) -> np.ndarray:
        return weight(t).real

    rate = delta * math.pi
    t_hi = max(8.0, 12.0 / rate)
    total = 0.0
    err = 0.0
    amplitude = 0.0
    t_lo = 0.0
    env_lo = 0.0  # |weight(t_lo)| once t_lo > 0
    inner_rel = max(1e-13, 0.03 * rel_tol)
    for _ in range(48):
        res = gauss_kronrod(integrand, t_lo, t_hi,
                            rel_tol=inner_rel,
                            abs_tol=0.1 * rel_tol * abs(total))
        total += res.value
        err += res.error
        amplitude += res.abs_integral
        # the envelope, not the oscillating real part, which can sit
        # near a zero at t_hi
        w_hi = complex(weight(np.array([t_hi]))[0])
        tail = abs(w_hi) / rate
        budget = rel_tol * max(abs(total), 1e-300)
        if tail < 0.05 * budget and (t_lo > 0.0 or tail == 0.0 or abs(res.value) < budget):
            if t_lo == 0.0:
                env_lo = abs(complex(weight(np.array([0.0]))[0]))
            err += _tail_bound(env_lo, abs(w_hi), t_hi - t_lo, rate)
            break
        t_lo = t_hi
        t_hi *= 1.7
        env_lo = abs(w_hi)
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
