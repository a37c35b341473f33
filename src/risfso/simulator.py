"""Seeded Monte Carlo oracle for the reflected two-hop link.

Samples the physical cascade directly: per hop, a power-law
pointing-error intensity times a product-of-gammas turbulence
intensity, normalized by its mean and raised to the detection exponent;
the two hops multiply together with the deterministic reflection
amplitude squared.

This module deliberately shares no code with the closed-form machinery
(no imports from the special-function or statistics modules); gamma
variates come from numpy's squeeze-accept sampler (with the power boost
for shapes below one).  The conditional BER Gamma(p, q g)/(2 Gamma(p))
is 0.5 erfc(sqrt(q g)) for p = 1/2 (CBFSK, CBPSK), 0.5 exp(-q g) for
p = 1 (NBFSK, DBPSK), and scipy's regularized incomplete gamma for any
other p.

An estimate runs its batches on up to one thread per CPU the process
may use (numpy's generators and ufuncs release the GIL).  Each batch
draws from its own generator, keyed by (seed, batch index), into four
arrays that the call allocates once per thread and reuses; every step
after the draws works in place.  The batches merge in batch order, so a
result is bit-identical whatever the number of threads.
"""
from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc

__all__ = [
    "McChannel",
    "McConfig",
    "McEstimate",
    "estimate_metric",
    "sample_end_to_end_snr",
    "sample_gg",
    "sample_pointing",
]

_METRICS = ("outage", "capacity", "ber", "mgf")
# samples per batch; batch k draws from the generator keyed by (seed, k)
_BATCH = 200_000


@dataclass(frozen=True)
class McConfig:
    sample_count: int
    seed: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class McChannel:
    """Sampling description of the cascade.

    Identical fading statistics on both hops; the per-hop mean SNRs may
    differ.  Path loss and the pointing-loss ceiling cancel out of the
    mean-normalized intensity, so they do not appear here.
    """

    zeta2: float
    alpha: float
    beta: float
    a: int
    mean_snr_h: float
    mean_snr_g: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        for name in ("zeta2", "alpha", "beta", "mean_snr_h", "mean_snr_g"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.a not in (1, 2):
            raise ValueError(f"detection exponent a must be 1 or 2, got {self.a!r}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu!r}")

    @property
    def chi(self) -> float:
        return 1.0 if self.a == 1 else math.e / (2.0 * math.pi)


def sample_gg(alpha: float, beta: float, rng: np.random.Generator,
              size: int, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Unit-mean turbulence intensity: product of two unit-mean gammas.

    Written into ``out`` when given, with ``scratch`` for the second
    factor; each then holds ``size`` doubles.
    """
    # numpy's gamma(shape, scale) is scale * standard_gamma(shape)
    x = rng.standard_gamma(alpha, size, out=out)
    x *= 1.0 / alpha
    y = rng.standard_gamma(beta, size, out=scratch)
    y *= 1.0 / beta
    x *= y
    return x


def sample_pointing(zeta: float, a0: float, rng: np.random.Generator,
                    size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pointing-error intensity on [0, a0] via the inverse CDF
    I = a0 * U^(1/zeta^2), written into ``out`` when given."""
    x = rng.random(size, out=out)
    x **= 1.0 / zeta ** 2
    x *= a0
    return x


def _hop_snr(chan: McChannel, mean_snr: float, rng: np.random.Generator,
             size: int, bufs) -> np.ndarray:
    # I/E[I] = (Ip/E[Ip]) * Ia with E[Ip] = a0 zeta^2/(1+zeta^2); a0 cancels
    x = sample_pointing(math.sqrt(chan.zeta2), 1.0, rng, size, bufs[0])
    x *= 1.0 + chan.zeta2
    x /= chan.zeta2
    x *= sample_gg(chan.alpha, chan.beta, rng, size, bufs[1], bufs[2])
    x **= chan.a
    x *= mean_snr
    return x


def sample_end_to_end_snr(chan: McChannel, rng: np.random.Generator,
                          size: int, buffers=None) -> np.ndarray:
    """End-to-end SNR draws: product of the two hop SNRs times mu^2.

    ``buffers``, when given, are four arrays of ``size`` doubles that
    the draws overwrite; the result is the first of them.
    """
    b = buffers or (None,) * 4
    x = _hop_snr(chan, chan.mean_snr_h, rng, size, b[0:3])
    x *= _hop_snr(chan, chan.mean_snr_g, rng, size, b[1:4])
    x *= chan.mu ** 2
    return x


def _kernel(metric: str, snr: np.ndarray, chan: McChannel,
            gamma_th: float | None, p: float | None, q: float | None,
            s: float | None, out: np.ndarray | None = None) -> np.ndarray:
    """The metric's value at each SNR, written into ``out`` (which may be
    ``snr`` itself) or a new array."""
    if out is None:
        out = np.empty_like(snr)
    if metric == "outage":
        return np.less_equal(snr, gamma_th, out=out)
    if metric == "capacity":
        np.multiply(snr, chan.chi, out=out)
        out += 1.0
        return np.log2(out, out=out)
    if metric == "ber":
        # Gamma(1/2, x)/Gamma(1/2) = erfc(sqrt x) and Gamma(1, x) = e^-x (DLMF 8.4)
        np.multiply(snr, q, out=out)
        if p == 0.5:
            erfc(np.sqrt(out, out=out), out=out)
        elif p == 1.0:
            np.exp(np.negative(out, out=out), out=out)
        else:
            gammaincc(p, out, out=out)
        out *= 0.5
        return out
    if metric == "mgf":
        np.multiply(snr, -s, out=out)
        return np.exp(out, out=out)
    raise ValueError(f"unknown metric {metric!r}; choose from {_METRICS}")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_metric(metric: str, chan: McChannel, config: McConfig, *,
                    gamma_th: float | None = None,
                    p: float | None = None, q: float | None = None,
                    s: float | None = None) -> McEstimate:
    """Streaming Monte Carlo estimate of one metric.

    Batches of ``_BATCH`` samples draw from independent generators keyed
    by (seed, batch index).  They run on up to one thread per CPU the
    process may use, each in four arrays the call allocates once per
    thread, and merge in batch order, so the seed and the sample count
    fix the result to the last bit, whatever the number of threads.  A
    call of one batch runs in the calling thread.

    Each metric reads its own estimand and ignores the others:
    ``outage`` the threshold ``gamma_th``, finite and >= 0; ``ber`` the
    kernel exponents ``p`` and ``q``, and ``mgf`` the argument ``s``,
    each finite and > 0; ``capacity`` none.
    """
    # a threshold of 0 is valid: no sample is then an outage
    if metric == "outage" and not (gamma_th is not None and 0.0 <= gamma_th < math.inf):
        raise ValueError(f"outage needs gamma_th finite and >= 0, got {gamma_th!r}")
    for name, value in {"ber": (("p", p), ("q", q)), "mgf": (("s", s),)}.get(metric, ()):
        if not (value is not None and 0.0 < value < math.inf):
            raise ValueError(f"{metric} needs {name} finite and > 0, got {value!r}")

    sizes = [min(_BATCH, config.sample_count - start)
             for start in range(0, config.sample_count, _BATCH)]
    workers = min(_cpu_count(), len(sizes))
    # one set of arrays per thread, allocated here: a thread that
    # allocated its own would hold them in a malloc arena of its own
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put([np.empty(sizes[0]) for _ in range(4)])

    def batch(index: int) -> tuple[float, float]:
        size = sizes[index]
        held = free.get()
        try:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([config.seed, index])))
            snr = sample_end_to_end_snr(chan, rng, size, [b[:size] for b in held])
            vals = _kernel(metric, snr, chan, gamma_th, p, q, s, out=snr)
            b_mean = float(np.mean(vals))
            vals -= b_mean
            vals **= 2
            return b_mean, float(np.sum(vals))
        finally:
            # only now are the arrays free for the next batch
            free.put(held)

    if workers == 1:
        return _merged(sizes, map(batch, range(len(sizes))))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merged(sizes, pool.map(batch, range(len(sizes))))


def _merged(sizes: list[int], batches) -> McEstimate:
    """Chan's pairwise merge of the per-batch means and squared
    deviations, in batch order."""
    n_total = 0
    mean = 0.0
    m2 = 0.0
    for size, (b_mean, b_m2) in zip(sizes, batches):
        delta = b_mean - mean
        new_total = n_total + size
        mean += delta * size / new_total
        m2 += b_m2 + delta * delta * n_total * size / new_total
        n_total = new_total

    std_error = math.sqrt(m2 / (n_total - 1) / n_total) if n_total > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, sample_count=n_total)
