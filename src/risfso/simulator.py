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
"""
from __future__ import annotations

import math
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
              size: int) -> np.ndarray:
    """Unit-mean turbulence intensity: product of two unit-mean gammas."""
    return rng.gamma(alpha, 1.0 / alpha, size) * rng.gamma(beta, 1.0 / beta, size)


def sample_pointing(zeta: float, a0: float, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """Pointing-error intensity on [0, a0] via the inverse CDF
    I = a0 * U^(1/zeta^2)."""
    return a0 * rng.random(size) ** (1.0 / zeta ** 2)


def _hop_snr(chan: McChannel, mean_snr: float, rng: np.random.Generator,
             size: int) -> np.ndarray:
    # I/E[I] = (Ip/E[Ip]) * Ia with E[Ip] = a0 zeta^2/(1+zeta^2); a0 cancels
    ip_rel = (sample_pointing(math.sqrt(chan.zeta2), 1.0, rng, size)
              * (1.0 + chan.zeta2) / chan.zeta2)
    ia = sample_gg(chan.alpha, chan.beta, rng, size)
    return mean_snr * (ip_rel * ia) ** chan.a


def sample_end_to_end_snr(chan: McChannel, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """End-to-end SNR draws: product of the two hop SNRs times mu^2."""
    gh = _hop_snr(chan, chan.mean_snr_h, rng, size)
    gg = _hop_snr(chan, chan.mean_snr_g, rng, size)
    return gh * gg * chan.mu ** 2


def _kernel(metric: str, snr: np.ndarray, chan: McChannel,
            gamma_th: float | None, p: float | None, q: float | None,
            s: float | None) -> np.ndarray:
    if metric == "outage":
        return (snr <= gamma_th).astype(np.float64)
    if metric == "capacity":
        return np.log2(1.0 + chan.chi * snr)
    if metric == "ber":
        # Gamma(1/2, x)/Gamma(1/2) = erfc(sqrt x) and Gamma(1, x) = e^-x (DLMF 8.4)
        x = q * snr
        if p == 0.5:
            return 0.5 * erfc(np.sqrt(x))
        if p == 1.0:
            return 0.5 * np.exp(-x)
        return 0.5 * gammaincc(p, x)
    if metric == "mgf":
        return np.exp(-s * snr)
    raise ValueError(f"unknown metric {metric!r}; choose from {_METRICS}")


def estimate_metric(metric: str, chan: McChannel, config: McConfig, *,
                    gamma_th: float | None = None,
                    p: float | None = None, q: float | None = None,
                    s: float | None = None) -> McEstimate:
    """Streaming Monte Carlo estimate of one metric.

    Batches of ``_BATCH`` samples draw from independent generators keyed
    by (seed, batch index) and merge in batch order, so the seed and the
    sample count fix the result to the last bit.

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

    n_total = 0
    mean = 0.0
    m2 = 0.0
    remaining = config.sample_count
    batch_index = 0
    while remaining > 0:
        size = min(_BATCH, remaining)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([config.seed, batch_index])))
        snr = sample_end_to_end_snr(chan, rng, size)
        vals = _kernel(metric, snr, chan, gamma_th, p, q, s)

        b_mean = float(np.mean(vals))
        b_m2 = float(np.sum((vals - b_mean) ** 2))
        delta = b_mean - mean
        new_total = n_total + size
        mean += delta * size / new_total
        m2 += b_m2 + delta * delta * n_total * size / new_total
        n_total = new_total

        remaining -= size
        batch_index += 1

    std_error = math.sqrt(m2 / (n_total - 1) / n_total) if n_total > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, sample_count=n_total)
