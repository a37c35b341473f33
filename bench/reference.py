"""A fixed reference computation that tracks the host's speed.

The host this benchmark runs on is shared.  Its speed drifts by up to a
factor of two over minutes, while wall time stays equal to CPU time, so
plain timings of unchanged code spread further than any bound a
regression gate can use.  Timing this computation between operations
measures the host's current speed, and an operation's time divided by
the reference time moves much less when the host slows down.

The scalar block mixes what the closed forms and twins spend their time
on: complex log and exp on contour-sized arrays, element-wise maths on a
small batch, and interpreted Python.  Monte Carlo spends its time in
long vector loops instead, which a busy host slows by a different
factor, so ``montecarlo`` is timed against the vector block: gamma
variates and element-wise maths on a batch of the simulator's size.
Against the vector block the time of a Monte Carlo estimate varied by
a quarter less than against the scalar block over four minutes of a
busy 2-core host.  Both use numpy and the standard library only, so no
change to the package can move them.
"""
from __future__ import annotations

import time

import numpy as np

# median time of one block on an idle 2-core Intel Xeon host; set-up time
# is reported in seconds at this reference speed
NOMINAL_S = 0.0127

_CONTOUR = np.linspace(0.6, 4.0, 120) + 1j * np.linspace(-6.0, 6.0, 120)
_BATCH = np.linspace(0.01, 5.0, 50_000)
BLOCK_UNITS = 32
_MC_BATCH = 200_000  # simulator.McConfig's default batch size


def _unit() -> float:
    acc = 0.0
    for k in range(8):
        w = (_CONTOUR - 0.5) * np.log(_CONTOUR + k) - _CONTOUR
        acc += float(np.exp(w / 50.0).real.sum())
    acc += float(np.sum(np.exp(-_BATCH) * _BATCH ** 0.3))
    acc += sum(i * 0.5 for i in range(400))
    return acc


def block_seconds() -> float:
    """Seconds one scalar block of the reference computation takes now."""
    t0 = time.perf_counter()
    for _ in range(BLOCK_UNITS):
        _unit()
    return time.perf_counter() - t0


def vector_block_seconds() -> float:
    """Seconds one vector block of the reference computation takes now."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    g = rng.standard_gamma(2.3, _MC_BATCH) * rng.standard_gamma(0.9, _MC_BATCH)
    float(np.sum(np.exp(-0.1 * g)) + np.sum(np.log1p(g)))
    return time.perf_counter() - t0


BLOCKS = {"scalar": block_seconds, "vector": vector_block_seconds}
