"""Monte Carlo oracle: samplers, estimates, determinism."""
from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.special import kv as scipy_kv

from conftest import make_dist
from risfso import simulator
from risfso.metrics import ModulationScheme, average_ber, ergodic_capacity
from risfso.simulator import (
    McChannel,
    McConfig,
    McEstimate,
    _kernel,
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


@pytest.mark.parametrize("scheme", list(ModulationScheme))
def test_ber_estimate_matches_closed_form(scheme):
    dist = make_dist(*BLUE, 6.1, 1, 25.0)
    g = math.sqrt(10.0 ** 2.5)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=g, mean_snr_g=g)
    est = estimate_metric("ber", chan, McConfig(1_000_000, seed=22),
                          p=scheme.p, q=scheme.q)
    want = average_ber(dist, scheme)
    assert abs(est.mean - want) <= 3.0 * est.std_error


@pytest.mark.parametrize("scheme", list(ModulationScheme))
def test_ber_kernel_of_each_scheme_matches_the_incomplete_gamma(scheme):
    # erfc(sqrt x) for p = 1/2 and exp(-x) for p = 1 against gammaincc,
    # for x = q snr from 1e-8 to 700
    chan = McChannel(zeta2=1.21, alpha=2.0, beta=2.0, a=1, mean_snr_h=1.0, mean_snr_g=1.0)
    snr = np.geomspace(1e-8, 700.0, 20_001) / scheme.q
    got = _kernel("ber", snr, chan, None, scheme.p, scheme.q, None)
    want = 0.5 * gammaincc(scheme.p, scheme.q * snr)
    kept = want > 1e-300
    assert kept.sum() > 19_000
    assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= 1e-12


def test_ber_kernel_of_any_other_p_is_the_incomplete_gamma():
    chan = McChannel(zeta2=1.21, alpha=2.0, beta=2.0, a=1, mean_snr_h=1.0, mean_snr_g=1.0)
    snr = np.geomspace(1e-8, 700.0, 2_001)
    got = _kernel("ber", snr, chan, None, 2.5, 0.7, None)
    assert np.array_equal(got, 0.5 * gammaincc(2.5, 0.7 * snr))


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


# float.hex of (mean, std_error) at seed 2031, frozen from the estimator
# that ran its batches one after another in one thread
FROZEN_CHANNELS = {
    1: McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                 mean_snr_h=10.0, mean_snr_g=10.0),
    2: McChannel(zeta2=1.21, alpha=4.9477, beta=1.2310, a=2,
                 mean_snr_h=31.0, mean_snr_g=31.0),
}
FROZEN = [
    ('outage', {'gamma_th': 40.0}, 1, 1000000, '0x1.b952d234eb9a1p-3', '0x1.af2278ba88292p-12'),
    ('capacity', {}, 1, 1000000, '0x1.8efc47f62d0c9p+2', '0x1.28dadb9be89bcp-10'),
    ('ber', {'p': 0.5, 'q': 1.0}, 1, 1000000, '0x1.0531cac9d3eb8p-17', '0x1.945c5f90ab612p-22'),
    ('ber', {'p': 1.0, 'q': 0.5}, 1, 1000000, '0x1.f4056764882a5p-13', '0x1.e98cd5a689b31p-19'),
    ('mgf', {'s': 0.05}, 1, 1000000, '0x1.5ebd386597c06p-4', '0x1.1b9434e726c57p-13'),
    ('outage', {'gamma_th': 40.0}, 1, 450001, '0x1.b8ba86e13d5b8p-3', '0x1.4131012dfed8bp-11'),
    ('capacity', {}, 1, 450001, '0x1.8f00dcfb86f0ap+2', '0x1.bac8eed36d745p-10'),
    ('ber', {'p': 0.5, 'q': 1.0}, 1, 450001, '0x1.13bf596301894p-17', '0x1.42854367c50a0p-21'),
    ('ber', {'p': 1.0, 'q': 0.5}, 1, 450001, '0x1.ff3f0d25feb8cp-13', '0x1.75508f3f34b54p-18'),
    ('mgf', {'s': 0.05}, 1, 450001, '0x1.5eb86afb809f4p-4', '0x1.a6eaaf1c11b0fp-13'),
    ('outage', {'gamma_th': 40.0}, 2, 1000000, '0x1.d5ad106ee30cbp-2', '0x1.053f373533bb2p-11'),
    ('capacity', {}, 2, 1000000, '0x1.51056f5074643p+2', '0x1.16864b4103244p-8'),
    ('ber', {'p': 0.5, 'q': 1.0}, 2, 1000000, '0x1.c5736a625025ep-5', '0x1.0a3952617af85p-13'),
    ('ber', {'p': 1.0, 'q': 0.5}, 2, 1000000, '0x1.868bf35a00e8cp-4', '0x1.68bb21fc86726p-13'),
    ('mgf', {'s': 0.05}, 2, 1000000, '0x1.688a93fc653edp-2', '0x1.b401f2f47cba2p-12'),
    ('outage', {'gamma_th': 40.0}, 2, 450001, '0x1.d533dc8b6e07cp-2', '0x1.8569e1c9207cep-11'),
    ('capacity', {}, 2, 450001, '0x1.51266307af892p+2', '0x1.9f853f3df829cp-8'),
    ('ber', {'p': 0.5, 'q': 1.0}, 2, 450001, '0x1.c7980cb65418dp-5', '0x1.8dfe7e10d4f27p-13'),
    ('ber', {'p': 1.0, 'q': 0.5}, 2, 450001, '0x1.87948c0e70ee9p-4', '0x1.0d47a2ef7d454p-12'),
    ('mgf', {'s': 0.05}, 2, 450001, '0x1.68b57871ac3a3p-2', '0x1.4533fb0854af8p-11'),
]


@pytest.mark.parametrize(("metric", "kwargs", "a", "n", "mean", "std_error"), FROZEN)
def test_estimates_match_frozen_bits(metric, kwargs, a, n, mean, std_error):
    # 450,001 samples end on a short batch of 50,001
    est = estimate_metric(metric, FROZEN_CHANNELS[a], McConfig(n, seed=2031), **kwargs)
    assert (est.mean.hex(), est.std_error.hex(), est.sample_count) == (mean, std_error, n)


def test_thread_count_does_not_change_the_bits(monkeypatch):
    chan = FROZEN_CHANNELS[2]
    got = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulator, "_cpu_count", lambda: cpus)
        threads = threading.active_count()
        got[cpus] = [estimate_metric(metric, chan, McConfig(650_000, seed=7), **kwargs)
                     for metric, kwargs in (("capacity", {}), ("ber", {"p": 0.5, "q": 1.0}))]
        assert threading.active_count() == threads  # no thread outlives a call
    assert got[1] == got[2] == got[3]


@pytest.mark.parametrize(("metric", "kwargs"), [
    ("outage", {"gamma_th": 2.0}), ("capacity", {}), ("ber", {"p": 0.5, "q": 1.0}),
    ("ber", {"p": 1.0, "q": 0.5}), ("ber", {"p": 2.5, "q": 0.7}), ("mgf", {"s": 0.3}),
])
def test_kernel_without_out_leaves_its_input_alone(metric, kwargs):
    chan = FROZEN_CHANNELS[1]
    snr = np.geomspace(1e-3, 1e3, 1_001)
    kept = snr.copy()
    args = [kwargs.get(k) for k in ("gamma_th", "p", "q", "s")]
    got = _kernel(metric, snr, chan, *args)
    assert np.array_equal(snr, kept)
    x = kept.copy()  # in place, as the estimator runs it
    assert np.array_equal(_kernel(metric, x, chan, *args, out=x), got)


def test_samplers_write_into_the_buffers_they_are_given():
    chan = FROZEN_CHANNELS[2]
    buffers = [np.empty(5_000) for _ in range(4)]
    got = sample_end_to_end_snr(chan, rng_for(18), 5_000, buffers)
    assert got is buffers[0]
    assert np.array_equal(got, sample_end_to_end_snr(chan, rng_for(18), 5_000))


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
