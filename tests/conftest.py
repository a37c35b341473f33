"""Shared helpers for the test suite."""
from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path

from risfso.channel import DetectionMode, cascade_from_constants
from risfso.statistics import RisElement, SnrDistribution

# (level, alpha, beta): the three turbulence rows used by the sweeps
TABLE2_LEVELS = [
    ("strong", 10.9537, 2.9833),
    ("moderate", 4.9477, 1.2310),
    ("weak", 2.9428, 2.5605),
]

# color -> (alpha, beta) as labeled by the three-color comparison figure
FIG_COLORS = {
    "red": (10.9537, 2.9833),
    "green": (12.5331, 4.6787),
    "blue": (13.2818, 5.7795),
}

# frozen 40-digit Meijer-G values, written by make_meijer_references.py
REFERENCES = Path(__file__).with_name("meijer_references.json")
# cdf and mgf ratios (gamma / mean SNR and mean SNR * s) far outside the
# bulk, each on every family row at BAND_MEAN_DB
BAND_RATIOS = (1e-30, 0.99e-12, 1e13, 1e20)
BAND_MEAN_DB = 30.0


@cache
def meijer_references() -> tuple[dict, ...]:
    return tuple(json.loads(REFERENCES.read_text(encoding="utf-8"))["entries"])


def make_dist(alpha: float, beta: float, zeta: float, a: int,
              mean_snr_db: float, mu: float = 1.0) -> SnrDistribution:
    """Distribution from constants; mean_snr_db is the product mean SNR."""
    mode = DetectionMode.HD if a == 1 else DetectionMode.IM_DD
    gbar = 10.0 ** (mean_snr_db / 10.0)
    params = cascade_from_constants(alpha, beta, zeta, mode,
                                    math.sqrt(gbar), math.sqrt(gbar))
    return SnrDistribution(params, RisElement(mu=mu))


def leading_log_factor(report, mean_snr_db: float) -> float:
    """L(gbar) of the leading BER law gbar^(-G_d) L(gbar), where L is the
    report's polynomial in ln(gbar)."""
    ln_gbar = mean_snr_db / 10.0 * math.log(10.0)
    return sum(c * ln_gbar ** k
               for k, c in enumerate(report.leading_coefficients))
