"""Shared helpers for the test suite."""
from __future__ import annotations

import decimal
import json
import math
from functools import cache
from pathlib import Path
from typing import Iterator

from hypothesis import settings

from risfso.channel import DetectionMode, cascade_from_constants
from risfso.metrics import ModulationScheme, ber_form, capacity_form
from risfso.special import EvalResult, MeijerGSpec
from risfso.statistics import (
    FormFamily,
    RisElement,
    SnrDistribution,
    cdf_form,
    mgf_form,
    pdf_form,
    subchannel_pdf_form,
)
from risfso.sweeps import MetricCurve

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

# the one hypothesis profile of the suite: a bounded example count, no
# deadline (a contour evaluation can take tens of ms) and no example
# database, so that no .hypothesis/ state carries from one run to the next
settings.register_profile("tier1", max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")

# frozen 40-digit Meijer-G values, written by make_meijer_references.py
REFERENCES = Path(__file__).with_name("meijer_references.json")
# the twelve family rows of the references: the three turbulence rows,
# these pointing ratios and both detection modes, at FAMILY_MEAN_DB
FAMILY_ZETAS = (1.1, 6.1)
FAMILY_MEAN_DB = 20.0
# cdf and mgf ratios (gamma / mean SNR and mean SNR * s) far outside the
# bulk, each on every family row at BAND_MEAN_DB
BAND_RATIOS = (1e-30, 0.99e-12, 1e13, 1e20)
BAND_MEAN_DB = 30.0
# pdf and per-hop density ratios from the far left tail to the far right
# one, each on every family row and on the large-shape rows, at
# FAMILY_MEAN_DB
TAIL_RATIOS = (1e-30, 1e-12, 1e-3, 1e3, 1e12, 1e20)
# (level, alpha, beta, zeta, a): shapes far past Table 2 that
# LinkScenario accepts (alpha_beta gives about 101 and 97 at cn2 1e-15)
LARGE_SHAPE_ROWS = (("large-101", 101.0, 97.0, 6.1, 2),
                    ("large-200", 200.0, 150.0, 20.0, 1))


@cache
def meijer_references() -> tuple[dict, ...]:
    return tuple(json.loads(REFERENCES.read_text(encoding="utf-8"))["entries"])


def reference_value(entry: dict) -> float:
    """exp(log_prefactor) times the entry's 40-digit value, rounded once.
    An entry from a builder is the closed form with its prefactor: the
    large-shape densities are G-values far past the double range that the
    prefactor brings back into it."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 50, decimal.MIN_EMIN, decimal.MAX_EMAX
        scale = decimal.Decimal(entry.get("log_prefactor", 0.0)).exp()
        return float(decimal.Decimal(entry["value"]) * scale)


def assert_matches_reference(entry: dict, res: EvalResult) -> None:
    """Within 1e-10 relative and within the result's own estimate; a
    reference below 1e-300 evaluates to 0 or lies within the estimate."""
    want = reference_value(entry)
    err = abs(res.value - want)
    if abs(want) < 1e-300:
        assert res.value == 0.0 or err <= res.abs_error_estimate, (entry["label"], res, want)
        return
    assert err <= 1e-10 * abs(want), (entry["label"], res.value, want)
    assert err <= res.abs_error_estimate, (entry["label"], err, res.abs_error_estimate)


def reference_cases() -> Iterator[dict]:
    """The case of every reference taken from a closed form of the
    package, in the order make_meijer_references.py writes them: pdf,
    cdf, mgf, capacity, the four BER schemes and the per-hop density on
    each family row, then the cdf and the mgf at every ``BAND_RATIOS``
    entry; then ``tail_cases``."""
    for level, alpha, beta in TABLE2_LEVELS:
        for zeta in FAMILY_ZETAS:
            for a in (1, 2):
                row = {"level": level, "alpha": alpha, "beta": beta,
                       "zeta": zeta, "a": a}
                base = dict(row, mean_snr_db=FAMILY_MEAN_DB)
                yield dict(base, statistic="pdf", ratio=0.03)
                yield dict(base, statistic="cdf", ratio=0.05)
                yield dict(base, statistic="mgf", ratio=1.0)
                yield dict(base, statistic="capacity")
                for scheme in ModulationScheme:
                    yield dict(base, statistic="ber", scheme=scheme.name)
                yield dict(base, statistic="subchannel_pdf", ratio=0.5)
                for ratio in BAND_RATIOS:
                    case = dict(row, mean_snr_db=BAND_MEAN_DB, ratio=ratio)
                    yield dict(case, statistic="cdf")
                    yield dict(case, statistic="mgf")
    yield from tail_cases()


def tail_cases() -> Iterator[dict]:
    """The pdf and the per-hop density at every ``TAIL_RATIOS`` entry, on
    each family row and then on each of ``LARGE_SHAPE_ROWS``."""
    rows = [(level, alpha, beta, zeta, a) for level, alpha, beta in TABLE2_LEVELS
            for zeta in FAMILY_ZETAS for a in (1, 2)]
    for level, alpha, beta, zeta, a in rows + list(LARGE_SHAPE_ROWS):
        for ratio in TAIL_RATIOS:
            case = {"level": level, "alpha": alpha, "beta": beta, "zeta": zeta,
                    "a": a, "mean_snr_db": FAMILY_MEAN_DB, "ratio": ratio}
            yield dict(case, statistic="pdf")
            yield dict(case, statistic="subchannel_pdf")


def closed_form(case: dict) -> FormFamily:
    """The family of one that the builder of ``case["statistic"]`` makes
    of one reference case, whose ratio is gamma / mean SNR for a density
    or the cdf, mean SNR * s for the mgf, and gamma_i / mean_snr_i at a
    per-hop mean of sqrt(mean SNR); the density and cdf builders take
    ln gamma."""
    dist = make_dist(case["alpha"], case["beta"], case["zeta"], case["a"],
                     case["mean_snr_db"])
    gbar = dist.mean_snr
    statistic = case["statistic"]
    if statistic == "pdf":
        return pdf_form(dist, [math.log(case["ratio"] * gbar)])
    if statistic == "cdf":
        return cdf_form(dist, [math.log(case["ratio"] * gbar)])
    if statistic == "mgf":
        return mgf_form(dist, [case["ratio"] / gbar])
    if statistic == "capacity":
        return capacity_form(dist)
    if statistic == "ber":
        return ber_form(dist, ModulationScheme[case["scheme"]])
    if statistic == "subchannel_pdf":
        gbar_i = math.sqrt(gbar)
        return subchannel_pdf_form(dist, [math.log(case["ratio"] * gbar_i)], gbar_i)
    raise ValueError(f"no builder for statistic {statistic!r}")


def point_spec(family: FormFamily, i: int = 0) -> MeijerGSpec:
    """The MeijerGSpec of point ``i`` of a family."""
    k = family.kernel
    return MeijerGSpec(k.m, k.n, k.a_params, k.b_params, log_argument=family.log_arguments[i])


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


def reflected(spec: MeijerGSpec) -> MeijerGSpec:
    """Equivalent spec with inverted argument and swapped families."""
    return MeijerGSpec(
        m=spec.n,
        n=spec.m,
        a_params=tuple(1.0 - b for b in spec.b_params),
        b_params=tuple(1.0 - a for a in spec.a_params),
        log_argument=-spec.log_argument,
    )


def solve_mean_snr_db(metric_at_mean_snr, target: float,
                      lo_db: float, hi_db: float,
                      tol_db: float = 1e-4) -> float:
    """Mean SNR in dB where a decreasing metric crosses ``target``.

    ``metric_at_mean_snr`` maps a linear mean SNR to the metric value.
    """
    f_lo = metric_at_mean_snr(10.0 ** (lo_db / 10.0))
    f_hi = metric_at_mean_snr(10.0 ** (hi_db / 10.0))
    if not (f_lo >= target >= f_hi):
        raise ValueError(
            f"target {target:g} not bracketed on [{lo_db:g}, {hi_db:g}] dB "
            f"(metric spans [{f_hi:g}, {f_lo:g}])")
    while hi_db - lo_db > tol_db:
        mid = 0.5 * (lo_db + hi_db)
        if metric_at_mean_snr(10.0 ** (mid / 10.0)) > target:
            lo_db = mid
        else:
            hi_db = mid
    return 0.5 * (lo_db + hi_db)


def load_curves(path: str) -> list[MetricCurve]:
    """Read back curves from a JSON file written by ``sweeps.emit``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [MetricCurve(x=c["x"], y=c["y"], meta=c["meta"])
            for c in payload["curves"]]
