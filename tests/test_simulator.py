"""Monte Carlo oracle: samplers, estimates, determinism."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv as scipy_kv

from conftest import make_dist
from risfso.metrics import ModulationScheme, average_ber, ergodic_capacity
from risfso.simulator import (
    McChannel,
    McConfig,
    McEstimate,
    estimate_metric,
    sample_end_to_end_snr,
    sample_gg,
    sample_pointing,
)
from risfso.statistics import cdf

BLUE = (12.5331, 4.6787)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# turbulence sampler


def test_gg_moments():
    alpha, beta = 4.2, 2.5
    x = sample_gg(alpha, beta, rng_for(11), 1_000_000)
    se_mean = float(np.std(x)) / math.sqrt(len(x))
    assert abs(float(np.mean(x)) - 1.0) <= 3.0 * se_mean

    want_var = (1.0 + 1.0 / alpha) * (1.0 + 1.0 / beta) - 1.0
    v = (x - np.mean(x)) ** 2
    se_var = float(np.std(v)) / math.sqrt(len(v))
    assert abs(float(np.var(x)) - want_var) <= 3.0 * se_var


def test_gg_distribution_matches_quadrature_quantiles():
    alpha, beta = 10.9537, 2.9833
    x = np.sort(sample_gg(alpha, beta, rng_for(12), 1_000_000))
    lead = (2.0 * (alpha * beta) ** (0.5 * (alpha + beta))
            / (math.gamma(alpha) * math.gamma(beta)))

    def density(u: float) -> float:
        t = math.exp(u)
        return (lead * t ** (0.5 * (alpha + beta))
                * float(scipy_kv(alpha - beta, 2.0 * math.sqrt(alpha * beta * t))))

    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = float(x[int(q * len(x))])
        want, _ = quad(density, -30.0, math.log(t), limit=300,
                       epsabs=1e-12, epsrel=1e-10)
        assert abs(q - want) < 0.002, q  # Kolmogorov distance at 5 quantiles


# ---------------------------------------------------------------------------
# pointing sampler


def test_pointing_moments_and_support():
    zeta, a0 = 2.0, 0.85
    x = sample_pointing(zeta, a0, rng_for(13), 1_000_000)
    assert float(np.min(x)) >= 0.0 and float(np.max(x)) <= a0
    want = a0 * zeta ** 2 / (zeta ** 2 + 1.0)
    se = float(np.std(x)) / math.sqrt(len(x))
    assert abs(float(np.mean(x)) - want) <= 3.0 * se


def test_pointing_concentrates_at_ceiling():
    x = sample_pointing(50.0, 0.85, rng_for(14), 200_000)
    assert float(np.percentile(x, 1.0)) > 0.9 * 0.85


# ---------------------------------------------------------------------------
# end-to-end sampler


def test_degenerate_channel_is_deterministic():
    chan = McChannel(zeta2=1e6, alpha=1e3, beta=1e3, a=1,
                     mean_snr_h=20.0, mean_snr_g=5.0)
    snr = sample_end_to_end_snr(chan, rng_for(15), 200_000)
    assert float(np.mean(snr)) == pytest.approx(100.0, rel=0.01)
    assert float(np.median(snr)) == pytest.approx(100.0, rel=0.01)


def test_scale_family_exact():
    base = McChannel(zeta2=37.21, alpha=BLUE[0], beta=BLUE[1], a=2,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    doubled = McChannel(zeta2=37.21, alpha=BLUE[0], beta=BLUE[1], a=2,
                        mean_snr_h=20.0, mean_snr_g=10.0)
    s1 = sample_end_to_end_snr(base, rng_for(16), 10_000)
    s2 = sample_end_to_end_snr(doubled, rng_for(16), 10_000)
    assert np.array_equal(2.0 * s1, s2)


def test_empirical_cdf_matches_closed_form():
    # the keystone cross-check at seven thresholds
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    n = 1_000_000
    snr = sample_end_to_end_snr(chan, rng_for(20240811), n)
    for ratio in (0.02, 0.05, 0.15, 0.4, 1.0, 2.5, 6.0):
        t = ratio * dist.mean_snr
        want = cdf(dist, t)
        emp = float(np.mean(snr <= t))
        sigma = math.sqrt(want * (1.0 - want) / n)
        assert abs(emp - want) <= 3.0 * sigma, ratio


def test_mu_scales_mean_snr():
    chan = McChannel(zeta2=37.21, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0, mu=0.5)
    snr = sample_end_to_end_snr(chan, rng_for(17), 200_000)
    se = float(np.std(snr)) / math.sqrt(len(snr))
    assert abs(float(np.mean(snr)) - 25.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# metric estimates


def test_outage_zero_threshold_is_exactly_zero():
    chan = McChannel(zeta2=37.21, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    est = estimate_metric("outage", chan, McConfig(100_000, seed=1),
                          gamma_th=0.0)
    assert est.mean == 0.0 and est.std_error == 0.0


@pytest.mark.parametrize("gamma_th", [None, math.nan])
def test_outage_needs_a_threshold_that_is_a_number(gamma_th):
    # a NaN threshold would count no sample as an outage: a mean of 0
    chan = McChannel(zeta2=37.21, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    with pytest.raises(ValueError, match="outage needs gamma_th"):
        estimate_metric("outage", chan, McConfig(1_000, seed=1), gamma_th=gamma_th)


@pytest.mark.parametrize(("metric", "kwargs", "name"), [
    ("ber", {"p": math.nan, "q": 1.0}, "p"),
    ("ber", {"p": -1.0, "q": 1.0}, "p"),
    ("ber", {"p": 0.0, "q": 1.0}, "p"),
    ("ber", {"p": 0.5, "q": math.inf}, "q"),
    ("ber", {"p": 0.5, "q": -1.0}, "q"),
    ("mgf", {"s": math.inf}, "s"),
    ("outage", {"gamma_th": math.inf}, "gamma_th"),
    ("outage", {"gamma_th": -1.0}, "gamma_th"),
])
def test_estimand_outside_the_closed_forms_domain_is_rejected(metric, kwargs, name):
    # each gave a mean of nan, 0 or 1 where the closed form rejects it
    chan = McChannel(zeta2=1.21, alpha=2.0, beta=2.0, a=1, mean_snr_h=1.0, mean_snr_g=1.0)
    with pytest.raises(ValueError, match=rf"^{metric} needs {name} finite and [>]"):
        estimate_metric(metric, chan, McConfig(1_000, seed=1), **kwargs)


def test_capacity_estimate_matches_closed_form():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    est = estimate_metric("capacity", chan, McConfig(1_000_000, seed=21))
    assert abs(est.mean - ergodic_capacity(dist)) <= 3.0 * est.std_error


def test_ber_estimate_matches_closed_form():
    dist = make_dist(*BLUE, 6.1, 1, 25.0)
    g = math.sqrt(10.0 ** 2.5)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=g, mean_snr_g=g)
    est = estimate_metric("ber", chan, McConfig(1_000_000, seed=22),
                          p=1.0, q=1.0)
    want = average_ber(dist, ModulationScheme.DBPSK)
    assert abs(est.mean - want) <= 3.0 * est.std_error


def test_mgf_estimate():
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    from risfso.statistics import mgf
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    est = estimate_metric("mgf", chan, McConfig(500_000, seed=23), s=0.2)
    assert abs(est.mean - mgf(dist, 0.2)) <= 3.0 * est.std_error


# ---------------------------------------------------------------------------
# determinism and variance behavior


def test_estimates_are_bit_reproducible():
    chan = McChannel(zeta2=1.21, alpha=4.9477, beta=1.2310, a=2,
                     mean_snr_h=31.0, mean_snr_g=31.0)
    # one full batch of 200,000 samples and a partial one of 150,000
    cfg = McConfig(sample_count=350_000, seed=987)
    a = estimate_metric("outage", chan, cfg, gamma_th=8.0)
    b = estimate_metric("outage", chan, cfg, gamma_th=8.0)
    assert a == b  # bit-identical, including the partial final batch


def test_std_error_scales_with_sample_count():
    chan = McChannel(zeta2=1.21, alpha=4.9477, beta=1.2310, a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    e1 = estimate_metric("capacity", chan, McConfig(250_000, seed=5))
    e4 = estimate_metric("capacity", chan, McConfig(1_000_000, seed=5))
    assert e4.std_error == pytest.approx(e1.std_error / 2.0, rel=0.2)


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(sample_count=0, seed=1)
    with pytest.raises(ValueError):
        McConfig(sample_count=10, seed=-1)
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=-1.0, sample_count=10)
    with pytest.raises(ValueError):
        McChannel(zeta2=1.0, alpha=1.0, beta=1.0, a=3,
                  mean_snr_h=1.0, mean_snr_g=1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("name", ["zeta2", "alpha", "beta", "mean_snr_h", "mean_snr_g"])
def test_channel_rejects_an_input_that_is_not_positive_and_finite(name, value):
    # an infinite mean SNR or shape fails here, naming it, rather than as
    # an estimate that is inf or nan
    args = dict(zeta2=1.21, alpha=2.0, beta=2.0, a=1, mean_snr_h=1.0, mean_snr_g=1.0)
    args[name] = value
    with pytest.raises(ValueError, match=rf"^{name} must be positive and "
                                         rf"finite, got {value!r}$"):
        McChannel(**args)


def test_metric_argument_validation():
    chan = McChannel(zeta2=1.21, alpha=2.0, beta=2.0, a=1,
                     mean_snr_h=1.0, mean_snr_g=1.0)
    cfg = McConfig(100, seed=0)
    with pytest.raises(ValueError):
        estimate_metric("outage", chan, cfg)
    with pytest.raises(ValueError):
        estimate_metric("ber", chan, cfg, p=1.0)
    with pytest.raises(ValueError):
        estimate_metric("mgf", chan, cfg, s=-1.0)
    with pytest.raises(ValueError):
        estimate_metric("median", chan, cfg)


def test_oracle_module_is_independent_of_closed_forms():
    import risfso.simulator as sim
    # fresh import closure: nothing from the special-function or
    # statistics machinery may be reachable from the oracle
    assert "risfso.special" not in {m for m in getattr(sim, "__dict__", {})}
    forbidden = ("risfso.special", "risfso.statistics")
    src = open(sim.__file__, encoding="utf-8").read()
    assert "from .special" not in src and "from .statistics" not in src
    assert "import risfso.special" not in src
