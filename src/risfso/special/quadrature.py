"""Adaptive 15/7 Gauss-Kronrod quadrature of many integrals in lockstep.

``_refine`` is the one adaptive loop of the package.  The Meijer-G
contour integrates its line with it, segment by segment, and the
quadrature twins of the closed forms through ``gauss_kronrod``, a batch
of one whose every round is one batched Meijer-G evaluation.
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
# panels per integrand call (15 Kronrod nodes each, 1,020 in all): the
# first rounds of a long sweep curve's contours hold a few thousand nodes,
# and pieces keep the temporaries of their log-gammas near 130 kB
_ROUND_PANELS = 68


class QuadratureResult(NamedTuple):
    value: float
    error: float
    abs_integral: float


def _kronrod_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], mid: np.ndarray,
                  half: np.ndarray, owner: np.ndarray, out: np.ndarray) -> None:
    """Into the three rows of ``out``, per panel [mid - half, mid + half]:
    the Kronrod value, its distance from the embedded Gauss value (the
    error estimate) and the Kronrod integral of |f|, from one call
    ``f(x, owner)``."""
    fv = f(mid[:, None] + half[:, None] * _XK, owner)
    scaled = fv.reshape(half.size, _XK.size) * half[:, None]
    kronrod = scaled * _WK
    np.add.reduce(kronrod, axis=1, out=out[0])
    np.abs(np.add.reduce(scaled * _WK_MINUS_WG, axis=1, out=out[1]), out=out[1])
    # the Kronrod weights are positive: |f| w = |f w|
    np.add.reduce(np.abs(kronrod), axis=1, out=out[2])


def _refine(f: Callable[[np.ndarray, np.ndarray], np.ndarray], begun: tuple,
            rel_tol: float | np.ndarray, finish: Callable) -> None:
    """Integrate the integrals 0, 1, ... in lockstep.

    ``begun`` holds (index, lo, hi, abs_tol): integral index[k] gets the
    panel [lo[k], hi[k]] and the absolute tolerance abs_tol[k] (or the
    scalar abs_tol).  Each round calls ``f(x, owner)`` once per
    ``_ROUND_PANELS`` new panels: row k of ``x`` holds the 15 Kronrod
    nodes of new panel k, of integral owner[k], and f returns the values
    in the shape of ``x``.  Integral i is done when its error sum meets
    max(abs_tol, rel_tol |value|) (``rel_tol`` may hold one per integral),
    is not a number, or at ``MAX_PANELS`` panels; until then its panels
    holding more than their share of the error budget are halved.  Then
    ``finish(done, value, error, abs_integral, panels)`` gets the done
    integrals' ascending indices, the per-integral sums, each in the
    integral's own panel order, and every panel as a column (lo, hi,
    value, error, |f| integral); it returns a ``begun`` to start in the
    next round, or None.  A panel is halved at 0.5 (lo + hi), and how a
    round is cut into calls does not change any value.
    """
    abs_tol = np.zeros(int(begun[0].max()) + 1)
    count = abs_tol.size
    panels, owner = np.empty((5, 0)), np.empty(0, dtype=np.intp)
    split = keep = np.empty(0, dtype=bool)
    while True:
        # the halves of the split panels, then the first panel of each
        # interval begun
        a, b = panels[:2, split]
        halved = owner[split]
        s = halved.size
        if begun is not None:
            index, lo, hi, tols = begun
            abs_tol[index] = tols
        new_owner = np.concatenate([halved, halved] if begun is None else [halved, halved, index])
        if not new_owner.size:
            return
        block = np.empty((5, new_owner.size))
        block[0, :s], block[1, s:2 * s] = a, b
        block[0, s:2 * s] = block[1, :s] = 0.5 * (a + b)
        if begun is not None:
            block[0, 2 * s:], block[1, 2 * s:] = lo, hi
        panels, owner = panels[:, keep], owner[keep]

        mid, half = 0.5 * (block[0] + block[1]), 0.5 * (block[1] - block[0])
        for j in range(0, new_owner.size, _ROUND_PANELS):
            k = slice(j, j + _ROUND_PANELS)
            _kronrod_sums(f, mid[k], half[k], new_owner[k], block[2:, k])
        panels = np.concatenate([panels, block], axis=1)
        owner = np.concatenate([owner, new_owner])

        n = np.bincount(owner, minlength=count)
        value = np.bincount(owner, panels[2], count)
        error = np.bincount(owner, panels[3], count)
        tol = np.maximum(abs_tol, rel_tol * np.abs(value))
        # an error estimate that is not a number ends the integral too
        done = (n > 0) & ~(error > tol) | (n >= MAX_PANELS)
        # the worst panel of an integral over its tolerance holds more
        # than tol / n, so every open integral splits (fmax: a NaN error
        # has ended its integral)
        worst = np.zeros(count)
        np.fmax.at(worst, owner, panels[3])
        share = np.maximum(0.5 * tol / np.maximum(n, 1), 0.25 * worst)
        open_panel = ~done[owner]
        split = (panels[3] >= share[owner]) & open_panel
        keep = open_panel & ~split
        begun = None
        if done.any():
            begun = finish(np.flatnonzero(done), value, error,
                           np.bincount(owner, panels[4], count), panels)


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float,
                  rel_tol: float = 1e-11,
                  abs_tol: float = 0.0,
                  points: Sequence[float] = ()) -> QuadratureResult:
    """Integrate f over [a, b]: ``_refine`` with a batch of one.

    f is called on a flat array of nodes, once per round (per
    ``_ROUND_PANELS`` panels of a larger round).  The first
    panels run between a, the interior breakpoints ``points``
    (ascending) and b.  Stopped short of its tolerance, at ``MAX_PANELS``
    panels or on an error estimate that is not a number, it warns with
    IntegrationWarning.
    """
    edges = np.array([a, *points, b], dtype=np.float64)
    held = []
    _refine(lambda x, owner: np.asarray(f(x.ravel()), dtype=np.float64),
            (np.zeros(edges.size - 1, dtype=np.intp), edges[:-1], edges[1:], abs_tol),
            rel_tol, lambda *sums: held.append(sums[-1]))
    lo, _, val, err, absv = held[0]
    if not err.sum() <= max(abs_tol, rel_tol * abs(val.sum())):
        warnings.warn(f"gauss_kronrod stopped at {lo.size} panels with error "
                      f"estimate {err.sum():.3g} above its tolerance",
                      IntegrationWarning, stacklevel=2)
    # deterministic reduction order for bit-stable results
    order = np.argsort(lo, kind="stable")
    return QuadratureResult(float(val[order].sum()),
                            float(err[order].sum()),
                            float(absv[order].sum()))
