"""End-to-end SNR statistics: closed forms versus quadrature and
sampling oracles.

The sub-channel test at the top is the keystone: it ties the unified
per-hop closed form to the raw physical model (pointing power law times
the product-of-gammas turbulence density) by direct integration, with
the intensity-to-SNR mapping gamma = gbar (I/E[I])^a.
"""
from __future__ import annotations

import math
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import kv as scipy_kv

from conftest import (
    BAND_MEAN_DB,
    BAND_RATIOS,
    TABLE2_LEVELS,
    assert_matches_reference,
    closed_form,
    make_dist,
    meijer_references,
    point_spec,
    reference_cases,
)
from risfso import metrics, statistics
from risfso.special import (
    ContourError,
    EvalResult,
    MeijerGError,
    MeijerGFamily,
    meijer_g,
    meijer_g_batch,
    meijerg,
    quadrature,
)
from risfso.special.meijerg import _Kernel, _Table
from risfso.simulator import McChannel, sample_end_to_end_snr
from risfso.statistics import (
    RisElement,
    SnrDistribution,
    cdf,
    cdf_by_quadrature,
    mgf,
    cdf_form,
    evaluate_batch,
    mgf_by_quadrature,
    mgf_form,
    pdf,
    pdf_by_product_integral,
    pdf_form,
    subchannel_pdf,
    subchannel_pdf_form,
)

BLUE = (12.5331, 4.6787)
RED = (10.9537, 2.9833)


# ---------------------------------------------------------------------------
# keystone: per-hop closed form against the raw physical model


def _physical_hop_pdf(gamma: float, gbar: float, zeta: float, alpha: float,
                      beta: float, a: int, a0: float = 0.85) -> float:
    """Hop SNR density by integrating pointing x turbulence directly."""
    z2 = zeta ** 2
    lead = (2.0 * (alpha * beta) ** (0.5 * (alpha + beta))
            / (math.gamma(alpha) * math.gamma(beta)))

    def gg_density(x: float) -> float:
        return (lead * x ** (0.5 * (alpha + beta) - 1.0)
                * float(scipy_kv(alpha - beta, 2.0 * math.sqrt(alpha * beta * x))))

    def intensity_pdf(ix: float) -> float:
        def integrand(ip: float) -> float:
            return (z2 / a0 ** z2 * ip ** (z2 - 1.0)
                    * gg_density(ix / ip) / ip)
        val, _ = quad(integrand, 1e-12, a0, limit=300,
                      epsabs=1e-14, epsrel=1e-11)
        return val

    mean_intensity = a0 * z2 / (1.0 + z2)
    ix = mean_intensity * (gamma / gbar) ** (1.0 / a)
    jac = mean_intensity * (gamma / gbar) ** (1.0 / a) / (a * gamma)
    return intensity_pdf(ix) * jac


@pytest.mark.parametrize("a", [1, 2])
def test_subchannel_closed_form_matches_physical_integral(a):
    dist = make_dist(4.2, 2.5, 2.0, a, 17.0)  # mean 50.1 per hop product
    gbar_i = 50.0
    for ratio in (0.05, 1.0, 5.0):
        g = ratio * gbar_i
        want = _physical_hop_pdf(g, gbar_i, 2.0, 4.2, 2.5, a)
        got = subchannel_pdf(dist, g, gbar_i)
        assert got == pytest.approx(want, rel=1e-6), (a, ratio)


def test_subchannel_closed_form_matches_sampling():
    rng = np.random.default_rng(1234)
    n = 1_000_000
    zeta, alpha, beta, a, gbar_i = 2.0, 4.2, 2.5, 2, 50.0
    z2 = zeta ** 2
    ip_rel = rng.random(n) ** (1.0 / z2) * (1.0 + z2) / z2
    ia = rng.gamma(alpha, 1.0 / alpha, n) * rng.gamma(beta, 1.0 / beta, n)
    snr = gbar_i * (ip_rel * ia) ** a

    dist = make_dist(alpha, beta, zeta, a, 17.0)
    for t in (0.05 * gbar_i, gbar_i, 4.0 * gbar_i):
        want, _ = quad(lambda u: subchannel_pdf(dist, math.exp(u), gbar_i)
                       * math.exp(u), -34.0, math.log(t), limit=300,
                       epsabs=1e-12, epsrel=1e-9)
        emp = float(np.mean(snr <= t))
        sigma = math.sqrt(want * (1.0 - want) / n)
        assert abs(emp - want) <= 3.0 * sigma, (t, emp, want)


# ---------------------------------------------------------------------------
# cascade PDF


def test_pdf_normalizes():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    val, _ = quad(lambda u: pdf(dist, math.exp(u)) * math.exp(u),
                  -25.0, math.log(dist.mean_snr) + 12.0,
                  points=[math.log(dist.mean_snr)], limit=400,
                  epsabs=1e-10, epsrel=1e-8)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_pdf_matches_product_integral_on_grid():
    # the pre-closed-form product law, 20 log-spaced points
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    gbar = dist.mean_snr
    for ratio in np.logspace(-3.0, 3.0, 20):
        got = pdf(dist, ratio * gbar)
        want = pdf_by_product_integral(dist, ratio * gbar)
        assert got == pytest.approx(want, rel=1e-5), ratio


def test_pdf_matches_product_integral_imdd():
    dist = make_dist(4.9477, 1.2310, 1.1, 2, 20.0)
    gbar = dist.mean_snr
    for ratio in (0.01, 1.0, 100.0):
        got = pdf(dist, ratio * gbar)
        want = pdf_by_product_integral(dist, ratio * gbar)
        assert got == pytest.approx(want, rel=1e-5), ratio


@pytest.mark.parametrize("a", [1, 2])
def test_pdf_matches_product_integral_in_both_modes(a):
    dist = make_dist(*RED, 6.1, a, 20.0)
    gbar = dist.mean_snr
    for ratio in (0.01, 1.0, 100.0):
        got = pdf(dist, ratio * gbar)
        want = pdf_by_product_integral(dist, ratio * gbar)
        assert got == pytest.approx(want, rel=1e-5), (a, ratio)


@pytest.mark.parametrize("a", [1, 2])
def test_product_twin_at_small_zeta(a):
    # at zeta 0.2 the density decays slowly toward 0 (c = 0.04 / a), so
    # the twin's span is the 30 a + 20 cap, not 42 / c
    dist = make_dist(2.0, 1.5, 0.2, a, 20.0)
    for ratio in (1e-3, 1.0, 1e3):
        gamma = ratio * dist.mean_snr
        assert pdf_by_product_integral(dist, gamma) \
            == pytest.approx(pdf(dist, gamma), rel=1e-7), ratio


def test_pdf_mc_histogram_agreement():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    rng = np.random.default_rng(20240811)
    n = 1_000_000
    snr = sample_end_to_end_snr(chan, rng, n)
    edges = dist.mean_snr * np.logspace(-1.6, 0.9, 13)
    counts, _ = np.histogram(snr, bins=edges)
    for k in range(len(edges) - 1):
        mass = cdf(dist, float(edges[k + 1])) - cdf(dist, float(edges[k]))
        sigma = math.sqrt(mass * (1.0 - mass) / n)
        assert abs(counts[k] / n - mass) <= 3.0 * sigma, k


def test_pdf_scale_family():
    d1 = make_dist(*BLUE, 6.1, 1, 20.0)
    d2 = make_dist(*BLUE, 6.1, 1, 20.0 + 10.0 * math.log10(7.3))
    gbar = d1.mean_snr
    for ratio in (0.05, 1.0, 12.0):
        assert 7.3 * pdf(d2, 7.3 * ratio * gbar) \
            == pytest.approx(pdf(d1, ratio * gbar), rel=1e-9)


def test_pdf_tails_and_domain():
    # no ratio guard: both tails reach the evaluator, which puts the
    # contour at the saddle point, so the density stays a density
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    assert pdf(dist, dist.mean_snr * 1e-13) > 0.0
    assert pdf(dist, dist.mean_snr * 1e13) >= 0.0
    with pytest.raises(ValueError):
        pdf(dist, 0.0)
    with pytest.raises(ValueError):
        pdf(dist, -1.0)
    with pytest.raises(ValueError, match="pdf needs finite gamma > 0, got inf"):
        pdf(dist, math.inf)
    # the least double: its Meijer-G argument is far below the doubles,
    # but the builder takes ln gamma, and the density underflows to 0
    assert pdf(dist, 5e-324) == 0.0
    # at zeta 0.2 the density there, about 1.7e310, is past the double
    # range, and the error names gamma
    with pytest.raises(MeijerGError, match="pdf at gamma 5e-324: "):
        pdf(make_dist(10.9537, 2.9833, 0.2, 1, 30.0), 5e-324)


# (gamma, pdf, subchannel_pdf at a per-hop mean of sqrt(mean SNR)) on the
# strong row at zeta 0.2, HD, 30 dB: 40-digit mpmath values at these
# doubles, where the density diverges toward 0 (decay exponent 0.04) and
# the Meijer-G argument, Q^2 gamma / mean SNR, is subnormal
SUBNORMAL_DENSITIES = [
    (1e-308, 3.293358428430503170062470698153922103321e+295,
     1.477442516708084752975028029820906717243e+294),
    (1e-320, 1.132272679900766473770531666572281943572e+307,
     4.892324261585909238736915424295984522664e+305),
]


@pytest.mark.parametrize("gamma, want, want_hop", SUBNORMAL_DENSITIES,
                         ids=[repr(g) for g, _, _ in SUBNORMAL_DENSITIES])
def test_densities_where_the_argument_is_subnormal(gamma, want, want_hop):
    dist = make_dist(10.9537, 2.9833, 0.2, 1, 30.0)
    assert pdf(dist, gamma) == pytest.approx(want, rel=1e-12)
    gbar_i = math.sqrt(dist.mean_snr)
    assert subchannel_pdf(dist, gamma, gbar_i) == pytest.approx(want_hop, rel=1e-12)


@pytest.mark.parametrize("mean_snr_i", [0.0, -4.0, math.inf, math.nan])
@pytest.mark.parametrize("a", [1, 2])
def test_subchannel_pdf_rejects_a_bad_per_hop_mean(mean_snr_i, a):
    dist = make_dist(*RED, 6.1, a, 20.0)
    with pytest.raises(ValueError, match="subchannel_pdf needs finite mean_snr_i > 0"):
        subchannel_pdf(dist, 1.0, mean_snr_i)


@st.composite
def _density_points(draw):
    """(alpha, beta, zeta, a, ratio): shapes log-uniform in [0.3, 1e4],
    zeta in [0.2, 20], either detection mode and gamma / mean SNR
    log-uniform in [1e-12, 1e12]; a third of the draws have alpha - beta
    an integer, and a third zeta^2 = alpha."""
    shape = st.floats(math.log10(0.3), 4.0).map(lambda v: 10.0 ** v)
    alpha, beta, zeta = draw(shape), draw(shape), draw(st.floats(0.2, 20.0))
    kind = draw(st.sampled_from(["free", "integer gap", "zeta^2 = alpha"]))
    if kind == "integer gap":
        beta = alpha + draw(st.integers(-30, 30))
        assume(0.3 <= beta <= 1e4)
    elif kind == "zeta^2 = alpha":
        zeta = draw(st.floats(math.sqrt(0.3), 20.0))
        alpha = zeta ** 2
    ratio = 10.0 ** draw(st.floats(-12.0, 12.0))
    return alpha, beta, zeta, draw(st.sampled_from([1, 2])), ratio


@given(point=_density_points())
# the large-shape row on which the contour off its saddle read -1.9e-67
@example(point=(101.0, 97.0, 1.1, 1, 100.0))
def test_densities_are_nonnegative(point):
    alpha, beta, zeta, a, ratio = point
    dist = make_dist(alpha, beta, zeta, a, 30.0)
    assert pdf(dist, ratio * dist.mean_snr) >= 0.0
    gbar_i = math.sqrt(dist.mean_snr)
    assert subchannel_pdf(dist, ratio * gbar_i, gbar_i) >= 0.0


# ---------------------------------------------------------------------------
# cascade CDF


def test_cdf_endpoints_and_guards():
    dist = make_dist(*RED, 6.1, 1, 20.0)
    assert cdf(dist, 0.0) == 0.0
    # no ratio guard: deep tail and saturation reach the evaluator
    assert 0.0 < cdf(dist, dist.mean_snr * 1e-13) < 1e-30
    assert 1.0 - 1e-12 <= cdf(dist, dist.mean_snr * 1e13) <= 1.0
    with pytest.raises(ValueError):
        cdf(dist, -0.5)
    for gamma in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"cdf needs finite gamma >= 0, got {gamma!r}"):
            cdf(dist, gamma)


# (gamma, cdf) on the row alpha 2, beta 1.5, zeta 0.2, HD, 20 dB: 40-digit
# mpmath values at these doubles, where gamma / mean SNR is subnormal
SUBNORMAL_CDF = [
    (1e-310, 8.060931192342647174987520619822138470665e-12),
    (1e-318, 3.9531529610805081477730993887724006713e-12),
    (1e-322, 2.766479106680529791932204864617172241254e-12),
]


@pytest.mark.parametrize("gamma, want", SUBNORMAL_CDF,
                         ids=[repr(g) for g, _ in SUBNORMAL_CDF])
def test_cdf_where_the_ratio_is_subnormal(gamma, want):
    assert cdf(make_dist(2.0, 1.5, 0.2, 1, 20.0), gamma) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [1, 2])
def test_cdf_matches_integrated_pdf_on_grid(a):
    dist = make_dist(*RED, 6.1, a, 20.0)
    gbar = dist.mean_snr
    for ratio in np.logspace(-3.0, 1.5, 30):
        got = cdf(dist, ratio * gbar)
        want = cdf_by_quadrature(dist, ratio * gbar)
        assert abs(got - want) <= 1e-5, (a, ratio, got, want)


@pytest.mark.parametrize("zeta, a", [(0.2, 1), (0.3, 2)])
def test_cdf_twin_at_small_zeta(zeta, a):
    # c = zeta^2 / a is 0.04 or 0.045: the twin's -48/c cut lies where
    # gamma and the density's Meijer-G argument are far below the doubles,
    # and the builder takes their logs
    dist = make_dist(2.0, 1.5, zeta, a, 20.0)
    for gamma in (1.0, 100.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            twin = cdf_by_quadrature(dist, gamma)
        assert twin == pytest.approx(cdf(dist, gamma), rel=1e-8)


def test_cdf_twin_meets_its_tolerance_at_small_zeta_under_imdd():
    # zeta 0.2 under IM/DD: c = 0.02, so the twin's cut lies 2,405 below
    # ln gamma, where neither x nor the density's Meijer-G argument is a
    # double; the builder takes their logs
    dist = make_dist(2.0, 1.5, 0.2, 2, 20.0)
    gamma = 0.01 * dist.mean_snr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twin = cdf_by_quadrature(dist, gamma)
    assert twin == pytest.approx(cdf(dist, gamma), rel=1e-8)


def test_cdf_twin_near_the_least_normal_double():
    # zeta 0.2 under IM/DD: at gamma 1e-306 the twin runs over ln x from
    # -3,110 to -704.6
    dist = make_dist(2.0, 1.5, 0.2, 2, 20.0)
    twin = cdf_by_quadrature(dist, 1e-306)
    want = cdf(dist, 1e-306)
    assert want == pytest.approx(8.66e-6, rel=1e-3)
    assert twin >= 0.0
    assert twin == pytest.approx(want, rel=1e-8)


# (alpha, beta, zeta, a, product mean SNR dB, threshold dB): saturated
# points whose contour value rounds a few ulps above one
NEAR_SATURATION = [
    (13.2818, 5.7795, 3.825063883069555, 1, 0.5742488089316976,
     19.544604757860448),
    (13.2818, 5.7795, 3.3693000765259757, 1, 0.9172680687474098,
     19.92500427719469),
    (13.2818, 5.7795, 3.438356575829839, 1, 0.47044447025508285,
     19.573703571519598),
]


def test_cdf_and_outage_clamped_near_saturation():
    from risfso.metrics import outage_probability
    for alpha, beta, zeta, a, mean_db, th_db in NEAR_SATURATION:
        dist = make_dist(alpha, beta, zeta, a, mean_db)
        gamma = 10.0 ** (th_db / 10.0)
        for value in (cdf(dist, gamma), outage_probability(dist, gamma)):
            assert 1.0 - 1e-12 <= value <= 1.0, (zeta, mean_db, value)
    # the largest ratio that still reaches the evaluator
    dist = make_dist(4.9477, 1.2310, 6.1, 2, 30.0)
    value = cdf(dist, dist.mean_snr * 1e12)
    assert 1.0 - 1e-12 <= value <= 1.0


def test_cdf_monotone_in_unit_interval():
    for a in (1, 2):
        dist = make_dist(4.9477, 1.2310, 1.1, a, 15.0)
        grid = dist.mean_snr * np.logspace(-4.0, 4.0, 40)
        vals = [cdf(dist, float(g)) for g in grid]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        assert all(-1e-9 <= v <= 1.0 + 1e-6 for v in vals)


def test_cdf_and_mgf_far_from_the_bulk_match_frozen_references():
    # far from the bulk the values still come from the evaluator, not a
    # cut-off: at ratio 1e-12 the cdf of the moderate row (zeta 6.1,
    # IM/DD) is still 1.5e-6
    rows: dict[tuple, dict] = {}
    for entry in meijer_references():
        case = entry.get("case") or {}
        if case.get("mean_snr_db") == BAND_MEAN_DB:
            row = (case["alpha"], case["beta"], case["zeta"], case["a"])
            rows.setdefault(row, {})[case["statistic"], case["ratio"]] = entry
    assert len(rows) == 12
    for row, entries in rows.items():
        dist = make_dist(*row, BAND_MEAN_DB)
        cdfs = [cdf(dist, r * dist.mean_snr) for r in BAND_RATIOS]
        mgfs = [mgf(dist, r / dist.mean_snr) for r in BAND_RATIOS]
        for name, values in (("cdf", cdfs), ("mgf", mgfs)):
            for ratio, value in zip(BAND_RATIOS, values):
                entry = entries[name, ratio]
                want = math.exp(entry["log_prefactor"]) * float(entry["value"])
                assert 0.0 <= value <= 1.0, (row, name, ratio, value)
                assert abs(value - want) <= 1e-10 * want, (row, name, ratio, value)
        # monotone up to the evaluator's 1e-10 target: near saturation
        # the value carries rounding of order 1e-13 either way
        assert all(c2 >= c1 * (1.0 - 1e-10) for c1, c2 in zip(cdfs, cdfs[1:])), row


def test_cdf_derivative_matches_pdf():
    dist = make_dist(*RED, 6.1, 1, 20.0)
    gbar = dist.mean_snr
    h = 1e-4
    for ratio in (0.05, 0.2, 1.0, 3.0):
        g = ratio * gbar
        fd = (cdf(dist, g * (1 + h)) - cdf(dist, g * (1 - h))) / (2.0 * g * h)
        want = pdf(dist, g)
        if want > 1e-8:
            assert fd == pytest.approx(want, rel=1e-3), ratio


# ---------------------------------------------------------------------------
# MGF


def test_mgf_small_s_limit():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    assert mgf(dist, 1e-5 / dist.mean_snr) == pytest.approx(1.0, abs=1e-4)
    assert 1.0 - 1e-12 <= mgf(dist, 1e-14 / dist.mean_snr) <= 1.0
    # mean SNR / s is far past the doubles, and so is the argument
    assert 1.0 - 1e-12 <= mgf(dist, 1e-320) <= 1.0


@pytest.mark.parametrize("a", [1, 2])
def test_mgf_matches_quadrature(a):
    dist = make_dist(*BLUE, 6.1, a, 20.0)
    for s in (0.01, 0.1, 1.0):
        got = mgf(dist, s)
        want = mgf_by_quadrature(dist, s)
        assert got == pytest.approx(want, rel=1e-5), (a, s)


def test_mgf_decreasing_in_unit_interval():
    dist = make_dist(*RED, 6.1, 2, 20.0)
    vals = [mgf(dist, s) for s in np.logspace(-3, 1.5, 15)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


@given(row=st.sampled_from(TABLE2_LEVELS), zeta=st.floats(0.2, 20.0),
       a=st.sampled_from([1, 2]), mean_snr_db=st.floats(0.0, 80.0),
       log_ratio=st.floats(-3.0, 3.0), log_factor=st.floats(0.3, 2.0))
def test_mgf_lies_in_unit_interval_and_falls_in_s(row, zeta, a, mean_snr_db, log_ratio,
                                                  log_factor):
    # Table 2 shapes over the stated domain, s mean SNR from 1e-3 to 1e3,
    # and a second s 2 to 100 times the first
    _, alpha, beta = row
    dist = make_dist(alpha, beta, zeta, a, mean_snr_db)
    s = 10.0 ** log_ratio / dist.mean_snr
    near, far = mgf(dist, s), mgf(dist, s * 10.0 ** log_factor)
    assert 0.0 < far <= near <= 1.0


def test_mgf_matches_sampling():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    chan = McChannel(zeta2=6.1 ** 2, alpha=BLUE[0], beta=BLUE[1], a=1,
                     mean_snr_h=10.0, mean_snr_g=10.0)
    rng = np.random.default_rng(99)
    snr = sample_end_to_end_snr(chan, rng, 1_000_000)
    for s in (0.05, 0.5):
        vals = np.exp(-s * snr)
        want = mgf(dist, s)
        se = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - want) <= 3.0 * se, s


def test_mgf_domain():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    with pytest.raises(ValueError):
        mgf(dist, 0.0)
    with pytest.raises(ValueError):
        mgf(dist, -1.0)
    with pytest.raises(ValueError, match="mgf needs finite s > 0, got inf"):
        mgf(dist, math.inf)


# ---------------------------------------------------------------------------
# distribution object


def test_spec_shapes_match_contract():
    dist = make_dist(*BLUE, 6.1, 1, 20.0)
    z2 = 6.1 ** 2
    spec = point_spec(pdf_form(dist, [math.log(50.0)]))
    assert (spec.m, spec.n, spec.p, spec.q) == (6, 0, 2, 6)
    assert spec.a_params == (z2 + 1.0, z2 + 1.0)
    assert spec.b_params == (z2, BLUE[0], BLUE[1]) * 2
    assert spec.log_argument == pytest.approx(
        math.log(dist.params.big_q ** 2 * 50.0 / dist.mean_snr), abs=1e-14)

    spec = point_spec(cdf_form(dist, [math.log(50.0)]))
    assert (spec.m, spec.n, spec.p, spec.q) == (6, 1, 3, 7)
    assert spec.a_params == (1.0,) + dist.params.delta1
    assert spec.b_params == dist.params.delta2 + (0.0,)

    dist2 = make_dist(*BLUE, 6.1, 2, 20.0)
    spec = point_spec(cdf_form(dist2, [math.log(50.0)]))
    assert (spec.m, spec.n, spec.p, spec.q) == (12, 1, 5, 13)
    spec = point_spec(mgf_form(dist2, [0.3]))
    assert (spec.m, spec.n, spec.p, spec.q) == (12, 2, 6, 13)
    assert spec.a_params[:2] == (0.0, 1.0)


def test_builders_rebuild_every_frozen_spec():
    # the cases the reference generator enumerates, and the spec and
    # prefactor each builder makes of them: exactly as frozen, but for ln z,
    # which the builders form from logs while the frozen arguments were
    # formed in floating point; each form evaluates to its frozen value
    entries = [entry for entry in meijer_references() if "case" in entry]
    assert [entry["case"] for entry in entries] == list(reference_cases())
    forms = [closed_form(entry["case"]) for entry in entries]
    for entry, form in zip(entries, forms):
        spec = point_spec(form)
        assert (spec.m, spec.n, list(spec.a_params), list(spec.b_params),
                form.log_prefactors) \
            == (entry["m"], entry["n"], entry["a_params"], entry["b_params"],
                [entry["log_prefactor"]]), entry["label"]
        assert abs(spec.log_argument - math.log(entry["argument"])) <= 1e-13, entry["label"]
    results = meijer_g_batch([point_spec(f) for f in forms], [f.log_prefactors[0] for f in forms])
    for entry, res in zip(entries, results):
        assert_matches_reference(entry, res)


def test_reflection_amplitude_rescales_mean_snr():
    base = make_dist(*BLUE, 6.1, 1, 20.0)
    attenuated = SnrDistribution(base.params, RisElement(mu=0.8))
    equivalent = make_dist(*BLUE, 6.1, 1, 20.0 + 20.0 * math.log10(0.8))
    assert attenuated.mean_snr == pytest.approx(equivalent.mean_snr, rel=1e-12)
    for g in (5.0, 40.0):
        assert cdf(attenuated, g) == pytest.approx(cdf(equivalent, g),
                                                   rel=1e-10)


def test_ris_element_validation():
    with pytest.raises(ValueError):
        RisElement(mu=0.0)
    with pytest.raises(ValueError):
        RisElement(mu=1.2)


def test_a_mean_snr_past_the_doubles_names_its_inputs():
    # a product of per-hop means, or its scaling by mu^2, that leaves the
    # doubles fails where it is formed, naming what the caller passed,
    # rather than inside a closed form as an unnamed domain error
    from risfso.channel import DetectionMode, cascade_from_constants
    from risfso.sweeps import ScenarioSpec, distribution

    for per_hop in (1e-170, 1e160):
        with pytest.raises(ValueError, match=r"^mean_snr_h \* mean_snr_g must be a positive "
                                             r"finite double"):
            cascade_from_constants(2.0, 1.5, 1.1, DetectionMode.HD, per_hop, per_hop)
    params = make_dist(2.0, 1.5, 1.1, 1, 0.0).params
    with pytest.raises(ValueError, match=r"must be a positive finite double, got 0\.0 at mu=1e-200$"):
        SnrDistribution(params, RisElement(mu=1e-200))
    # the mean SNR in dB of a scenario, as the CLI reads it, still gives
    # its linear value at the ends of the doubles
    for mean_snr_db in (-3070.0, 3080.0):
        dist = distribution(ScenarioSpec("x", 4.2, 2.5, 2.0), mean_snr_db)
        assert dist.mean_snr == pytest.approx(10.0 ** (mean_snr_db / 10.0), rel=1e-15)


# ---------------------------------------------------------------------------
# batched node values of the quadrature twins


def test_batched_builders_match_scalar_calls_bit_for_bit():
    # one decade apart from ratio 1e-20 to 1e20, on the 12 family rows,
    # each statistic of a row one family
    ratios = 10.0 ** np.arange(-20.0, 21.0)
    for _, alpha, beta in TABLE2_LEVELS:
        for zeta in (1.1, 6.1):
            for a in (1, 2):
                dist = make_dist(alpha, beta, zeta, a, BAND_MEAN_DB)
                gammas = (ratios * dist.mean_snr).tolist()
                gbar_i = math.sqrt(dist.mean_snr)
                hops = (ratios * gbar_i).tolist()
                ln_gammas, ln_hops = ([math.log(v) for v in vs] for vs in (gammas, hops))
                batched = [evaluate_batch(pdf_form(dist, ln_gammas)),
                           evaluate_batch(subchannel_pdf_form(dist, ln_hops, gbar_i)),
                           evaluate_batch(cdf_form(dist, ln_gammas))]
                for got, scalar in zip(batched, (
                        [pdf(dist, g) for g in gammas],
                        [subchannel_pdf(dist, g, gbar_i) for g in hops],
                        [cdf(dist, g) for g in gammas])):
                    assert [v.hex() for v in got] == [v.hex() for v in scalar], (alpha, zeta, a)
                # the densities are densities in both tails too
                assert min(batched[0] + batched[1]) >= 0.0, (alpha, zeta, a)


# (distribution row, call) of each of the five quadrature twins
TWIN_CASES = {
    "pdf_by_product_integral": (
        (*BLUE, 6.1, 1, 20.0), lambda d: pdf_by_product_integral(d, 3.0 * d.mean_snr)),
    "cdf_by_quadrature": (
        (*RED, 6.1, 1, 20.0), lambda d: cdf_by_quadrature(d, 0.01 * d.mean_snr)),
    "mgf_by_quadrature": ((*BLUE, 6.1, 1, 20.0), lambda d: mgf_by_quadrature(d, 0.1)),
    "ergodic_capacity_by_quadrature": (
        (*RED, 1.1, 2, 20.0), metrics.ergodic_capacity_by_quadrature),
    "average_ber_by_quadrature": (
        (*RED, 6.1, 1, 20.0),
        lambda d: metrics.average_ber_by_quadrature(d, metrics.ModulationScheme.CBFSK)),
}


@pytest.mark.parametrize("twin", list(TWIN_CASES))
def test_twins_make_one_batched_pass_per_round(monkeypatch, twin):
    row, call = TWIN_CASES[twin]
    counts: Counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def gauss_kronrod(f, *args, **kwargs):
        return quadrature.gauss_kronrod(counting("rounds", f), *args, **kwargs)

    class Held(MeijerGFamily):
        def __init__(self, kernel):
            counts["held"] += 1
            super().__init__(kernel)

        def __call__(self, *args):
            counts["held calls"] += 1
            return super().__call__(*args)

    # the scalar evaluator and the held family, wherever a risfso module
    # binds them
    for module in [m for k, m in sys.modules.items()
                   if k.partition(".")[0] == "risfso"]:
        for name, value in list(vars(module).items()):
            if value is meijer_g:
                monkeypatch.setattr(module, name, counting("meijer_g", meijer_g))
            elif value is MeijerGFamily:
                monkeypatch.setattr(module, name, Held)
    monkeypatch.setattr(statistics, "meijer_g_family",
                        counting("meijer_g_family", statistics.meijer_g_family))
    monkeypatch.setattr(statistics, "gauss_kronrod", gauss_kronrod)
    monkeypatch.setattr(metrics, "gauss_kronrod", gauss_kronrod)
    call(make_dist(*row))
    assert counts["rounds"] > 0
    assert counts["meijer_g"] == counts["meijer_g_family"] == 0
    # one family held over the twin, and one pass of it per Gauss-Kronrod
    # round
    assert counts["held"] == 1
    assert counts["held calls"] == counts["rounds"]


@pytest.mark.parametrize("twin", list(TWIN_CASES))
def test_the_rounds_of_a_twin_compute_each_node_of_a_kept_row_once(monkeypatch, twin):
    # counted through _Kernel.log_chi: every node that the twin's table
    # computes is one of the nodes that a fill lacked, and none of them,
    # (x, step, k), was computed before while its row stayed in the table;
    # the idle rows never hold more than the bound, and the table holds
    # nothing once the twin returns
    row, call = TWIN_CASES[twin]
    tables, computed, lacked, kept = [], [0], [0], {}
    init, log_chi, fill = _Table.__init__, _Kernel.log_chi, _Table.fill
    release, forget = _Table.release, _Table.forget

    def recording(table, kernel):
        init(table, kernel)
        tables.append(table)

    def counting(kernel, s):
        computed[0] += s.size
        return log_chi(kernel, s)

    def filling(table, asks):
        need: dict = {}
        for r, stop in asks:
            need[r] = max(need.get(r, r.chi.size), stop)
        for r, stop in need.items():
            nodes = kept.setdefault((r.x, r.step), set())
            new = set(range(r.chi.size, stop))
            assert not nodes & new, (r.x, r.step, sorted(nodes & new)[:3])
            nodes |= new
            lacked[0] += len(new)
        fill(table, asks)

    def releasing(table, r):
        release(table, r)
        idle = [v for v in table.index.values() if not v.users]
        assert sum(v.chi.size for v in idle) == table.idle_nodes <= meijerg._KEPT
        # a kept row holds arrays of its own, not a view of a fill
        assert all(v.chi.base is None and v.bulk.base is None for v in idle)

    def forgetting(table, key):
        forget(table, key)
        del kept[key]

    monkeypatch.setattr(_Table, "__init__", recording)
    monkeypatch.setattr(_Kernel, "log_chi", counting)
    monkeypatch.setattr(_Table, "fill", filling)
    monkeypatch.setattr(_Table, "release", releasing)
    monkeypatch.setattr(_Table, "forget", forgetting)
    call(make_dist(*row))
    assert len(tables) == 1
    assert computed[0] == lacked[0] > 0
    assert not tables[0].index and not tables[0].idle


@pytest.mark.parametrize("twin", list(TWIN_CASES))
def test_a_twin_keeps_its_bits_with_a_fresh_table_per_round(monkeypatch, twin):
    # log chi depends on s alone, so no value depends on what the table
    # kept from earlier rounds
    row, call = TWIN_CASES[twin]
    dist = make_dist(*row)
    shared = call(dist)
    evaluate = MeijerGFamily.__call__

    def fresh(held, *args):
        held.table = _Table(held.table.kernel)
        return evaluate(held, *args)

    monkeypatch.setattr(MeijerGFamily, "__call__", fresh)
    assert call(dist).hex() == shared.hex()


def test_a_failing_closed_form_names_its_call():
    # at zeta 0.003 the saddle of the cdf, mgf and BER lines lies so
    # near a pole that the step is too fine for the span; the message
    # leads with the call and its input, as pdf's does
    dist = make_dist(4.2, 2.5, 0.003, 1, 20.0)
    for run, lead in ((lambda: cdf(dist, 100.0), "cdf at gamma 100.0: "),
                      (lambda: mgf(dist, 0.01), "mgf at s 0.01: "),
                      (lambda: metrics.average_ber(dist, metrics.ModulationScheme.CBPSK),
                       "average_ber of CBPSK at mean SNR 100.0: ")):
        with pytest.raises(ContourError, match=f"^{re.escape(lead)}line step .* too fine"):
            run()


def test_a_failing_capacity_names_its_call(monkeypatch):
    # the capacity line stays clear of the pole down to zeta 1e-5, so
    # the engine is made to fail
    def failing(kernel, log_arguments, log_prefactors):
        return [ContourError("no line")] * len(log_arguments)

    monkeypatch.setattr(statistics, "meijer_g_family", failing)
    with pytest.raises(ContourError, match=r"^ergodic_capacity at mean SNR 100\.0: no line$"):
        metrics.ergodic_capacity(make_dist(4.2, 2.5, 0.003, 1, 20.0))


def test_twin_short_of_its_tolerance_warns(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
    dist = make_dist(*RED, 6.1, 1, 20.0)
    with pytest.warns(IntegrationWarning, match="1 panels"):
        cdf_by_quadrature(dist, 0.01 * dist.mean_snr)


def test_each_contour_batch_of_the_presets_and_twins_holds_one_kernel(monkeypatch):
    # the contour engine shares a factor table, a saddle search and the
    # log chi of its lines among the points of one kernel; a sweep curve
    # and a quadrature round vary ln z and the prefactor alone, so each is
    # one family, and a mean-SNR or threshold curve builds its constants
    # once.  A stub stands in for the engine, so nothing is evaluated.
    from risfso import presets, sweeps

    calls, builds = [], [0]
    build = sweeps.cascade_from_constants

    def stub(kernel, log_arguments, log_prefactors):
        assert len(log_arguments) == len(log_prefactors)
        calls.append(len(log_arguments))
        return [EvalResult(0.25, 0.0)] * len(log_arguments)

    def counted(*args):
        builds[0] += 1
        return build(*args)

    class Held:
        # the family a quadrature twin holds over its rounds
        def __init__(self, kernel):
            self.kernel = kernel

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

        def __call__(self, log_arguments, log_prefactors):
            return stub(self.kernel, log_arguments, log_prefactors)

    monkeypatch.setattr(statistics, "meijer_g_family", stub)
    monkeypatch.setattr(statistics, "MeijerGFamily", Held)
    monkeypatch.setattr(metrics, "MeijerGFamily", Held)
    monkeypatch.setattr(sweeps, "cascade_from_constants", counted)
    grids = []
    for name in presets.PRESET_NAMES:
        spec = presets.figure_preset(name)
        sweeps.run_sweep(spec)
        grids += [len(spec.grid())] * len(spec.scenarios) * len(spec.metrics)
    assert len(grids) == builds[0] == 58
    # one kernel pass per curve, holding all its points
    assert calls == grids
    dist = make_dist(4.9477, 1.2310, 1.1, 2, 20.0)
    cdf_by_quadrature(dist, 0.5 * dist.mean_snr)
    pdf_by_product_integral(dist, 0.5 * dist.mean_snr)
    metrics.ergodic_capacity_by_quadrature(dist)
    metrics.average_ber_by_quadrature(dist, metrics.ModulationScheme.CBPSK)
    assert len(calls) > len(grids)
