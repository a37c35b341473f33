"""Adaptive 15/7 Gauss-Kronrod quadrature of one integral.

``gauss_kronrod`` integrates the quadrature twins of the closed forms,
whose every round is one batched Meijer-G evaluation: the rule and the
bisection of QUADPACK (Piessens et al., Springer 1983).
"""
from __future__ import annotations

import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning

__all__ = ["QuadratureResult", "gauss_kronrod"]

# 15-point Kronrod rule with embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Kronrod weights minus those of the 7-point Gauss rule embedded on the
# odd abscissae: their sum is the error estimate
_WK_MINUS_WG = _WK - np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119,
    0.0, 0.417959183673469, 0.0, 0.381830050505119, 0.0, 0.279705391489277,
    0.0, 0.129484966168870, 0.0,
])
# an integral stops at this many panels even short of its tolerance
MAX_PANELS = 2048
# panels per integrand call (15 Kronrod nodes each, 1,020 in all)
_ROUND_PANELS = 68


class QuadratureResult(NamedTuple):
    value: float
    error: float
    abs_integral: float


def _kronrod_sums(f: Callable[[np.ndarray], np.ndarray], mid: np.ndarray,
                  half: np.ndarray, out: np.ndarray) -> None:
    """Into the three rows of ``out``, per panel [mid - half, mid + half]:
    the Kronrod value, its distance from the embedded Gauss value (the
    error estimate) and the Kronrod integral of |f|, from one call of f
    on the flat array of their nodes."""
    fv = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()), dtype=np.float64)
    scaled = fv.reshape(half.size, _XK.size) * half[:, None]
    kronrod = scaled * _WK
    np.add.reduce(kronrod, axis=1, out=out[0])
    np.abs(np.add.reduce(scaled * _WK_MINUS_WG, axis=1, out=out[1]), out=out[1])
    # the Kronrod weights are positive: |f| w = |f w|
    np.add.reduce(np.abs(kronrod), axis=1, out=out[2])


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float,
                  rel_tol: float = 1e-11,
                  abs_tol: float = 0.0,
                  points: Sequence[float] = ()) -> QuadratureResult:
    """Integrate f over [a, b].

    The first panels run between a, the interior breakpoints ``points``
    (ascending) and b.  Each round calls f on a flat array of nodes, once
    per ``_ROUND_PANELS`` new panels.  The integral is done when its error
    sum meets max(abs_tol, rel_tol |value|), when that sum is not a
    number, or at ``MAX_PANELS`` panels; until then every panel holding
    more than max(tol / 2n, worst / 4) of the error, n panels in all, is
    halved at its midpoint.  Stopped short of its tolerance, it warns
    with IntegrationWarning.  The value and error sum the panels in the
    order of their left ends.
    """
    edges = np.array([a, *points, b], dtype=np.float64)
    lo, hi = edges[:-1], edges[1:]
    # a column (lo, hi, value, error, |f| integral) per panel
    panels = np.empty((5, 0))
    while True:
        block = np.empty((5, lo.size))
        block[0], block[1] = lo, hi
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for j in range(0, lo.size, _ROUND_PANELS):
            k = slice(j, j + _ROUND_PANELS)
            _kronrod_sums(f, mid[k], half[k], block[2:, k])
        panels = np.concatenate([panels, block], axis=1)
        n = panels.shape[1]
        # running sums in panel order
        value, error = np.cumsum(panels[2:4], axis=1)[:, -1]
        tol = np.maximum(abs_tol, rel_tol * abs(value))
        # an error estimate that is not a number ends the integral too
        if not error > tol or n >= MAX_PANELS:
            break
        # the worst panel holds more than tol / n, so some panel splits
        # (fmax: a NaN error has ended the integral)
        share = np.maximum(0.5 * tol / n, 0.25 * np.fmax.reduce(panels[3], initial=0.0))
        split = panels[3] >= share
        lo, hi = panels[:2, split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        panels = panels[:, ~split]
    lo, _, val, err, absv = panels
    if not err.sum() <= max(abs_tol, rel_tol * abs(val.sum())):
        warnings.warn(f"gauss_kronrod stopped at {n} panels with error "
                      f"estimate {err.sum():.3g} above its tolerance",
                      IntegrationWarning, stacklevel=2)
    # deterministic reduction order for bit-stable results
    order = np.argsort(lo, kind="stable")
    return QuadratureResult(float(val[order].sum()),
                            float(err[order].sum()),
                            float(absv[order].sum()))
