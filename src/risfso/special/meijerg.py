"""Meijer-G evaluation on positive real arguments.

``meijer_g`` integrates the defining Mellin-Barnes integral along a
vertical line placed inside the strip separating the two pole families.
The abscissa is chosen by minimizing the integrand magnitude on the real
axis, which keeps cancellation mild both deep in the small-argument tail
and near saturation.

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
from .quadrature import gauss_kronrod

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGSpec",
    "meijer_g",
]

_COLLISION_TOL = 1e-9


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
    method: str
    # always empty, since meijer_g perturbs no parameter; kept because the
    # benchmark tracer (bench/tracing.py) reads it for meijerg.perturbed_frac
    perturbation_note: str = field(default="", compare=False)


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


def _log_chi(s: np.ndarray, tables: tuple) -> np.ndarray:
    """Log of the gamma-ratio kernel at points s of the complex plane."""
    offs, slope, weight = tables
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


def _pick_sigma(lnz: float, lo: float, hi: float, tables: tuple) -> float:
    if math.isinf(lo):
        lo = hi - 40.0
    if math.isinf(hi):
        hi = lo + 40.0
    pad = min(0.35, 0.02 * (hi - lo))
    g_lo, g_hi = lo + pad, hi - pad
    for _ in range(3):  # coarse-to-fine scan, one vectorized call per round
        grid = np.linspace(g_lo, g_hi, 17)
        obj = np.real(_log_chi(grid.astype(np.complex128), tables)) + grid * lnz
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
    sigma = _pick_sigma(lnz, lo, hi, tables)

    def weight(t: np.ndarray) -> np.ndarray:
        s = sigma + 1j * t
        return np.exp(_log_chi(s, tables) + s * lnz + log_prefactor)

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
    value, err = _contour_value(spec, log_prefactor, rel_tol)
    if not math.isfinite(value):
        raise MeijerGError(f"contour evaluation returned {value!r}")
    return EvalResult(value, err, "contour")
