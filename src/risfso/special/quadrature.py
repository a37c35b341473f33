"""Adaptive Gauss-Kronrod quadrature on a finite interval.

The integrand is called on flat numpy arrays, one call per refinement
round holding the nodes of every new panel.  The quadrature twins of
the closed forms integrate this way, so each round of a twin is one
batched Meijer-G evaluation.  The 15/7 panel rule is also what the
batched Meijer-G contour integration applies to the panels of many
integrals at once.
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
# refinement stops at this many panels even short of the tolerance
MAX_PANELS = 2048


class QuadratureResult(NamedTuple):
    value: float
    error: float
    abs_integral: float


def kronrod_nodes(mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The 15 Kronrod abscissae of each panel [mid - half, mid + half],
    one row per panel."""
    return mid[:, None] + half[:, None] * _XK


def kronrod_sums(fv: np.ndarray, half: np.ndarray):
    """Per panel, from the values ``fv`` at ``kronrod_nodes``: the Kronrod
    value, its distance from the embedded Gauss value (the error
    estimate) and the Kronrod integral of |f|."""
    scaled = fv * half[:, None]
    kronrod = scaled * _WK
    # the Kronrod weights are positive: |f| w = |f w|
    return (np.add.reduce(kronrod, axis=1),
            np.abs(np.add.reduce(scaled * _WK_MINUS_WG, axis=1)),
            np.add.reduce(np.abs(kronrod), axis=1))


def _eval_panels(f: Callable[[np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray):
    half = 0.5 * (hi - lo)
    pts = kronrod_nodes(0.5 * (lo + hi), half)
    fv = np.asarray(f(pts.ravel()), dtype=np.float64).reshape(pts.shape)
    return kronrod_sums(fv, half)


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float,
                  rel_tol: float = 1e-11,
                  abs_tol: float = 0.0,
                  points: Sequence[float] = ()) -> QuadratureResult:
    """Integrate f over [a, b], bisecting the worst panels each round.

    The first panels run between a, the interior breakpoints ``points``
    (ascending) and b.  Refinement stops when the error estimate meets
    max(abs_tol, rel_tol |value|), when it is not a number, or at
    ``MAX_PANELS`` panels; the last two warn with IntegrationWarning.
    """
    edges = np.array([a, *points, b], dtype=np.float64)
    lo, hi = edges[:-1], edges[1:]
    val, err, absv = _eval_panels(f, lo, hi)

    while len(lo) < MAX_PANELS:
        tol = max(abs_tol, rel_tol * abs(val.sum()))
        # an error estimate that is not a number ends the refinement too
        if not err.sum() > tol:
            break
        # split every panel holding more than its share of the error budget
        share = max(tol / (2.0 * len(lo)), err.max() * 0.25)
        split = err >= share
        if not split.any():
            split = err >= err.max()
        keep = ~split
        mids = 0.5 * (lo[split] + hi[split])
        nlo = np.concatenate([lo[split], mids])
        nhi = np.concatenate([mids, hi[split]])
        nval, nerr, nabs = _eval_panels(f, nlo, nhi)
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        absv = np.concatenate([absv[keep], nabs])

    if not err.sum() <= max(abs_tol, rel_tol * abs(val.sum())):
        warnings.warn(f"gauss_kronrod stopped at {len(lo)} panels with error "
                      f"estimate {err.sum():.3g} above its tolerance",
                      IntegrationWarning, stacklevel=2)
    # deterministic reduction order for bit-stable results
    order = np.argsort(lo, kind="stable")
    return QuadratureResult(float(val[order].sum()),
                            float(err[order].sum()),
                            float(absv[order].sum()))
