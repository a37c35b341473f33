"""Outage, capacity, BER, and the high-SNR asymptote."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import digamma

from conftest import (
    FIG_COLORS,
    TABLE2_LEVELS,
    leading_log_factor,
    make_dist,
    solve_mean_snr_db,
)
from risfso.metrics import (
    RATE_CONVENTIONS,
    ModulationScheme,
    asymptotic_ber,
    average_ber,
    average_ber_by_quadrature,
    ergodic_capacity,
    ergodic_capacity_by_quadrature,
    outage_probability,
)
from risfso.simulator import McChannel, McConfig, estimate_metric, sample_end_to_end_snr
from risfso.statistics import cdf

BLUE = (12.5331, 4.6787)
RED = (10.9537, 2.9833)


def mc_channel(alpha, beta, zeta, a, mean_snr_db) -> McChannel:
    g_hop = math.sqrt(10.0 ** (mean_snr_db / 10.0))
    return McChannel(zeta2=zeta ** 2, alpha=alpha, beta=beta, a=a,
                     mean_snr_h=g_hop, mean_snr_g=g_hop)


# ---------------------------------------------------------------------------
# outage


def test_outage_zero_threshold():
    dist = make_dist(*RED, 6.1, 1, 20.0)
    assert outage_probability(dist, 0.0) == 0.0


def test_outage_equals_cdf():
    dist = make_dist(*RED, 6.1, 1, 26.0)
    gth = 10.0 ** 0.9
    assert outage_probability(dist, gth) == cdf(dist, gth)


def test_outage_rate_conventions():
    dist = make_dist(*RED, 6.1, 1, 26.0)
    want_default = cdf(dist, math.exp(2.0 * 1.3 - 1.0))
    assert outage_probability(dist, rate=1.3) == pytest.approx(want_default)
    want_alt = cdf(dist, math.expm1(2.0 * 1.3))
    assert outage_probability(dist, rate=1.3,
                              rate_convention="exp2r-minus-1") \
        == pytest.approx(want_alt)
    with pytest.raises(ValueError):
        outage_probability(dist)
    with pytest.raises(ValueError):
        outage_probability(dist, 1.0, rate=1.0)
    # a rate that is no finite double, or whose threshold is none, is the
    # caller's error and names the rate
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^rate must be finite"):
            outage_probability(dist, rate=rate)
    for rate, convention in ((400.0, "exp2r-minus1-exponent"), (355.0, "exp2r-minus-1")):
        with pytest.raises(ValueError, match=r"^rate .* past the largest double"):
            outage_probability(dist, rate=rate, rate_convention=convention)
    # a negative rate under either convention; rate 0 stays valid, and
    # exp(2R) - 1 makes it the threshold 0
    for convention in RATE_CONVENTIONS:
        with pytest.raises(ValueError, match=r"^rate must be >= 0, got -0\.5$"):
            outage_probability(dist, rate=-0.5, rate_convention=convention)
    assert outage_probability(dist, rate=0.0) == pytest.approx(cdf(dist, math.exp(-1.0)))
    assert outage_probability(dist, rate=0.0, rate_convention="exp2r-minus-1") == 0.0


@pytest.mark.parametrize("kwargs, message", [
    ({"gamma_th": math.nan}, "gamma_th must be finite, got nan"),
    ({"gamma_th": math.inf}, "gamma_th must be finite, got inf"),
    ({"gamma_th": -1.0}, "gamma_th must be nonnegative, got -1.0"),
    ({"rate": 1.0, "rate_convention": "shannon"}, "unknown rate_convention 'shannon'"),
], ids=["nan", "inf", "negative", "unknown-convention"])
def test_outage_rejects_a_threshold_it_cannot_use(kwargs, message):
    # names the caller's argument, not the cdf's
    dist = make_dist(*RED, 6.1, 1, 26.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        outage_probability(dist, **kwargs)


# ---------------------------------------------------------------------------
# ergodic capacity


def test_capacity_vanishes_at_low_snr():
    dist = make_dist(*BLUE, 6.1, 1, -60.0)
    c = ergodic_capacity(dist)
    assert -1e-9 <= c < 1e-3


@pytest.mark.parametrize("a", [1, 2])
def test_capacity_matches_quadrature(a):
    dist = make_dist(*BLUE, 6.1, a, 20.0)
    got = ergodic_capacity(dist)
    want = ergodic_capacity_by_quadrature(dist)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("zeta, a", [(0.3, 1), (0.45, 2)])
def test_capacity_twin_at_small_zeta(zeta, a):
    # the twin's lower cut, -(80/(1 + c) + 20) in ln(gamma/mean SNR), lies
    # at most 100 below the mean, where the integrand, of order
    # gamma^(1 + c), is far below the twin's tolerance, so it does not warn
    dist = make_dist(2.0, 1.5, zeta, a, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twin = ergodic_capacity_by_quadrature(dist)
    assert twin == pytest.approx(ergodic_capacity(dist), rel=1e-7)


@pytest.mark.parametrize("zeta", [0.1, 0.003])
@pytest.mark.parametrize("a, db", [(1, 20.0), (2, 35.0)])
def test_capacity_twin_reaches_the_pointing_tail(zeta, a, db):
    # each hop's pointing factor I/E[I] reaches 1 + 1/zeta^2, so the upper
    # cut must grow with it, and c = zeta^2/a must not push the lower cut
    # out of the doubles as it vanishes
    dist = make_dist(4.2, 2.5, zeta, a, db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twin = ergodic_capacity_by_quadrature(dist)
    assert twin == pytest.approx(ergodic_capacity(dist), rel=1e-7)


def test_capacity_matches_sampling():
    for db in (10.0, 20.0, 30.0):
        dist = make_dist(*BLUE, 6.1, 1, db)
        est = estimate_metric("capacity", mc_channel(*BLUE, 6.1, 1, db),
                              McConfig(sample_count=400_000, seed=31_337))
        assert abs(est.mean - ergodic_capacity(dist)) <= 3.0 * est.std_error, db


# ---------------------------------------------------------------------------
# average BER


def test_ber_approaches_half_at_vanishing_snr():
    dist = make_dist(*BLUE, 6.1, 1, -80.0)
    assert average_ber(dist, ModulationScheme.DBPSK) \
        == pytest.approx(0.5, abs=1e-3)


@given(row=st.sampled_from(TABLE2_LEVELS), zeta=st.floats(0.2, 20.0),
       a=st.sampled_from([1, 2]), scheme=st.sampled_from(list(ModulationScheme)),
       mean_snr_db=st.floats(0.0, 80.0))
def test_ber_lies_between_zero_and_one_half(row, zeta, a, scheme, mean_snr_db):
    # BER has no clamp, so this guards the contour over the whole domain
    _, alpha, beta = row
    assert 0.0 <= average_ber(make_dist(alpha, beta, zeta, a, mean_snr_db), scheme) <= 0.5


@given(row=st.sampled_from(TABLE2_LEVELS), zeta=st.floats(0.2, 20.0),
       a=st.sampled_from([1, 2]), scheme=st.sampled_from(list(ModulationScheme)),
       low_db=st.floats(0.0, 79.0), reach=st.floats(0.0, 1.0))
def test_capacity_rises_and_ber_falls_with_mean_snr(row, zeta, a, scheme, low_db, reach):
    # two mean SNRs of the stated domain at least 1 dB apart
    _, alpha, beta = row
    high_db = low_db + 1.0 + reach * (79.0 - low_db)
    low, high = (make_dist(alpha, beta, zeta, a, db) for db in (low_db, high_db))
    assert ergodic_capacity(high) >= ergodic_capacity(low)
    assert average_ber(high, scheme) <= average_ber(low, scheme)


@given(row=st.sampled_from(TABLE2_LEVELS), zeta=st.floats(0.3, 20.0),
       a=st.sampled_from([1, 2]), scheme=st.sampled_from(list(ModulationScheme)),
       mean_snr_db=st.floats(-100.0, 600.0))
def test_asymptote_is_a_ber_or_warns_and_keeps_a_number(row, zeta, a, scheme, mean_snr_db):
    # far below its regime the expansion is no BER; it says so and still
    # reports its sum, which is never NaN
    _, alpha, beta = row
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = asymptotic_ber(make_dist(alpha, beta, zeta, a, mean_snr_db), scheme).ber_estimate
    if any(issubclass(w.category, RuntimeWarning) for w in caught):
        assert not math.isnan(est)
    else:
        assert 0.0 <= est <= 0.5


@pytest.mark.parametrize("scheme", list(ModulationScheme))
def test_ber_matches_quadrature(scheme):
    dist = make_dist(*RED, 6.1, 1, 25.0)
    got = average_ber(dist, scheme)
    want = average_ber_by_quadrature(dist, scheme)
    assert got == pytest.approx(want, rel=1e-7), scheme


def test_ber_kernel_integration_by_parts():
    # expectation of the conditional-BER kernel over sampled SNRs equals
    # the Laplace-kernel integral over the CDF
    from scipy.special import gammaincc
    dist = make_dist(*RED, 6.1, 1, 25.0)
    rng = np.random.default_rng(777)
    snr = sample_end_to_end_snr(mc_channel(*RED, 6.1, 1, 25.0), rng, 1_000_000)
    for scheme in (ModulationScheme.DBPSK, ModulationScheme.CBFSK):
        vals = 0.5 * gammaincc(scheme.p, scheme.q * snr)
        want = average_ber_by_quadrature(dist, scheme)
        se = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - want) <= 3.0 * se, scheme


def test_ber_matches_sampling():
    dist = make_dist(*BLUE, 6.1, 2, 25.0)
    est = estimate_metric("ber", mc_channel(*BLUE, 6.1, 2, 25.0),
                          McConfig(sample_count=1_000_000, seed=4242),
                          p=1.0, q=1.0)
    want = average_ber(dist, ModulationScheme.DBPSK)
    assert abs(est.mean - want) <= 3.0 * est.std_error


def test_scheme_ordering_on_grid():
    # CBPSK <= DBPSK, CBPSK <= CBFSK and both <= NBFSK follow from
    # pointwise kernel dominance and must hold at every mean SNR.  The
    # DBPSK/CBFSK pair has crossing kernels: the averaged order settles
    # to DBPSK <= CBFSK only when the smallest decay exponent is >= 1
    # (the leading-term ratio Gamma(d+1) sqrt(pi) / (Gamma(d+1/2) 2^d)
    # crosses one exactly at d = 1), and only above a scenario-specific
    # crossover SNR.
    S = ModulationScheme
    for _, alpha, beta in TABLE2_LEVELS:
        for a in (1, 2):
            for db in np.linspace(5.0, 43.0, 20):
                dist = make_dist(alpha, beta, 6.1, a, float(db))
                vals = {s: average_ber(dist, s) for s in S}
                assert vals[S.CBPSK] <= vals[S.DBPSK] * (1 + 1e-9)
                assert vals[S.CBPSK] <= vals[S.CBFSK] * (1 + 1e-9)
                assert vals[S.DBPSK] <= vals[S.NBFSK] * (1 + 1e-9)
                assert vals[S.CBFSK] <= vals[S.NBFSK] * (1 + 1e-9)


def test_dbpsk_cbfsk_order_follows_decay_exponent():
    S = ModulationScheme
    # min exponent above one: DBPSK wins at high SNR (heterodyne rows)
    for alpha, beta, db in [(10.9537, 2.9833, 35.0), (2.9428, 2.5605, 40.0)]:
        dist = make_dist(alpha, beta, 6.1, 1, db)
        assert min(dist.params.delta2) > 1.0
        assert average_ber(dist, S.DBPSK) < average_ber(dist, S.CBFSK)
    # min exponent below one: CBFSK stays ahead at any reachable SNR
    for db in (40.0, 60.0, 80.0):
        dist = make_dist(4.9477, 1.2310, 6.1, 2, db)
        assert min(dist.params.delta2) < 1.0
        assert average_ber(dist, S.CBFSK) < average_ber(dist, S.DBPSK)


def test_pointing_improvement():
    # all metrics improve when the pointing ratio rises from 1.1 to 6.1
    gth = 10.0 ** 0.9
    for _, alpha, beta in TABLE2_LEVELS:
        for a in (1, 2):
            for db in np.linspace(12.0, 45.0, 20):
                bad = make_dist(alpha, beta, 1.1, a, float(db))
                good = make_dist(alpha, beta, 6.1, a, float(db))
                assert outage_probability(good, gth) \
                    <= outage_probability(bad, gth) + 1e-12
                assert ergodic_capacity(good) >= ergodic_capacity(bad) - 1e-9
                assert average_ber(good, ModulationScheme.DBPSK) \
                    <= average_ber(bad, ModulationScheme.DBPSK) + 1e-12


def test_heterodyne_dominance():
    for _, alpha, beta in TABLE2_LEVELS:
        for db in np.linspace(10.0, 50.0, 20):
            hd = make_dist(alpha, beta, 6.1, 1, float(db))
            imdd = make_dist(alpha, beta, 6.1, 2, float(db))
            assert ergodic_capacity(hd) >= ergodic_capacity(imdd) - 1e-9
            assert average_ber(hd, ModulationScheme.DBPSK) \
                <= average_ber(imdd, ModulationScheme.DBPSK) + 1e-12


def test_color_ordering_band():
    # blue best, red worst for the comparison-figure parameter triples
    for db in np.linspace(25.0, 40.0, 16):
        vals = {}
        for color, (alpha, beta) in FIG_COLORS.items():
            dist = make_dist(alpha, beta, 6.1, 1, float(db))
            vals[color] = average_ber(dist, ModulationScheme.DBPSK)
        assert vals["blue"] <= vals["green"] <= vals["red"], db


# ---------------------------------------------------------------------------
# high-SNR asymptote


def test_asymptote_ratio_approaches_one():
    scheme = ModulationScheme.DBPSK
    ratios = []
    for db in (60.0, 70.0, 80.0):
        dist = make_dist(*RED, 6.1, 1, db)
        exact = average_ber(dist, scheme)
        approx = asymptotic_ber(dist, scheme).ber_estimate
        ratios.append(approx / exact)
    assert all(0.5 <= r <= 2.0 for r in ratios)
    assert all(abs(r2 - 1.0) <= abs(r1 - 1.0) + 1e-12
               for r1, r2 in zip(ratios, ratios[1:]))


def test_asymptote_report_evaluate_consistency():
    dist70 = make_dist(*RED, 6.1, 1, 70.0)
    dist80 = make_dist(*RED, 6.1, 1, 80.0)
    rep = asymptotic_ber(dist70, ModulationScheme.DBPSK)
    assert rep.ber_estimate == pytest.approx(rep.evaluate(dist70.mean_snr))
    assert rep.evaluate(dist80.mean_snr) == pytest.approx(
        asymptotic_ber(dist80, ModulationScheme.DBPSK).ber_estimate, rel=1e-12)


def test_dominant_exponent_pointing_limited():
    # zeta = 1.1 puts zeta^2 = 1.21 below both turbulence shapes
    dist = make_dist(*RED, 1.1, 1, 40.0)
    rep = asymptotic_ber(dist, ModulationScheme.DBPSK)
    assert rep.diversity_order == pytest.approx(1.21, rel=1e-12)


def test_diversity_order_examples():
    rep = asymptotic_ber(make_dist(2.9428, 2.5605, 6.1, 1, 40.0),
                         ModulationScheme.DBPSK)
    assert rep.diversity_order == pytest.approx(2.5605, rel=1e-12)
    rep = asymptotic_ber(make_dist(*RED, 1.1, 2, 40.0),
                         ModulationScheme.DBPSK)
    assert rep.diversity_order == pytest.approx(0.605, rel=1e-12)


def test_imdd_diversity_is_half_of_heterodyne():
    for _, alpha, beta in TABLE2_LEVELS:
        for zeta in (1.1, 6.1):
            hd = asymptotic_ber(
                make_dist(alpha, beta, zeta, 1, 40.0), ModulationScheme.DBPSK)
            imdd = asymptotic_ber(
                make_dist(alpha, beta, zeta, 2, 40.0), ModulationScheme.DBPSK)
            assert imdd.diversity_order \
                == pytest.approx(hd.diversity_order / 2.0, rel=1e-12)


def test_exact_slope_matches_diversity_order_heterodyne():
    # log-log slope over the 70-80 dB decade against the double-pole law
    # gbar^(-G_d) L(gbar): the decade costs G_d less the log share of L
    scheme = ModulationScheme.DBPSK
    for alpha, beta, zeta in [(*RED, 6.1), (*BLUE, 6.1)]:
        p70 = average_ber(make_dist(alpha, beta, zeta, 1, 70.0), scheme)
        p80 = average_ber(make_dist(alpha, beta, zeta, 1, 80.0), scheme)
        slope = math.log10(p70) - math.log10(p80)
        gd = min(zeta ** 2, alpha, beta)
        rep = asymptotic_ber(make_dist(alpha, beta, zeta, 1, 70.0), scheme)
        log_share = math.log10(leading_log_factor(rep, 80.0)
                               / leading_log_factor(rep, 70.0))
        assert abs(slope - (gd - log_share)) / gd < 0.05, (alpha, beta)


def test_coding_gain_reproduces_asymptote():
    dist = make_dist(*RED, 6.1, 1, 70.0)
    rep = asymptotic_ber(dist, ModulationScheme.DBPSK)
    assert rep.coding_gain > 0.0
    want = (rep.coding_gain * dist.mean_snr) ** (-rep.diversity_order)
    assert rep.ber_estimate == pytest.approx(want, rel=1e-9)


def test_degenerate_exponent_gap_warns():
    dist = make_dist(4.2, 4.2 + 1e-7, 2.0, 1, 40.0)
    with pytest.warns(RuntimeWarning, match="nearly degenerate"):
        asymptotic_ber(dist, ModulationScheme.DBPSK)


@pytest.mark.parametrize("row", [
    (200.0, 150.0, 20.0, 1, 30.0),
    (1000.0, 2.0, 2.0, 1, -40.0),
], ids=["above-one-half", "minus-infinity"])
def test_asymptote_outside_its_regime_warns_and_keeps_its_value(row):
    with pytest.warns(RuntimeWarning, match="outside its regime"):
        rep = asymptotic_ber(make_dist(*row), ModulationScheme.DBPSK)
    assert not 0.0 <= rep.ber_estimate <= 0.5
    # the value is the sum itself, reported as it is
    assert rep.ber_estimate == rep.evaluate(rep.mean_snr)


def test_asymptote_in_its_regime_does_not_warn():
    # the 70 and 80 dB rows of acceptance criterion 8
    for alpha, beta, a in [(13.2818, 5.7795, 1), (10.9537, 2.9833, 1),
                           (13.2818, 5.7795, 2), (12.5331, 4.6787, 2)]:
        for db in (70.0, 80.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = asymptotic_ber(make_dist(alpha, beta, 6.1, a, db),
                                     ModulationScheme.DBPSK)
            assert 0.0 < rep.ber_estimate < 0.5


@pytest.mark.parametrize("row", [
    (200.0, 150.0, 20.0, 1, 30.0),
    (200.0, 150.0, 20.0, 2, 30.0),
    (1000.0, 2.0, 2.0, 1, -40.0),
], ids=["large-shapes-HD", "large-shapes-IM/DD", "alpha-1000-HD"])
def test_asymptote_past_double_range_is_infinite_not_an_error(row):
    # the log weights of these rows reach 462 to 11,784, so the residue
    # weights, the leading coefficients and the sum all leave the double
    # range; they read +-inf, and terms of opposite sign never meet as
    # inf - inf
    rep = asymptotic_ber(make_dist(*row), ModulationScheme.DBPSK)
    for g in (1e-4, 1.0, 1e30):
        value = rep.evaluate(g)
        assert not math.isnan(value), (g, value)
    assert not any(math.isnan(c) for c in rep.leading_coefficients)
    assert not any(math.isnan(w) for w in rep.term_weights)


def test_term_weights_shape():
    for a in (1, 2):
        dist = make_dist(*RED, 6.1, a, 50.0)
        rep = asymptotic_ber(dist, ModulationScheme.CBPSK)
        assert len(rep.term_weights) == 6 * a
        assert len(rep.exponents) == 6 * a
        assert rep.diversity_order == pytest.approx(min(dist.params.delta2))


def test_leading_double_pole_matches_digamma_formula():
    # at generic parameters the pole at G_d is double; its residue is
    # -K H(d) z^d (ln z + psi_H(d) + 2 gamma_E), z = q0 / (q gbar), with H
    # the remaining gamma factors and psi_H their log-derivative
    scheme = ModulationScheme.DBPSK
    dist = make_dist(*RED, 6.1, 1, 70.0)
    p = dist.params
    d = min(p.delta2)
    others = [b for b in p.delta2 if b != d]
    log_h = (math.lgamma(scheme.p + d) - math.log(d)
             + sum(math.lgamma(b - d) for b in others)
             - sum(math.lgamma(a - d) for a in p.delta1))
    psi_h = (digamma(scheme.p + d) - 1.0 / d
             - sum(digamma(b - d) for b in others)
             + sum(digamma(a - d) for a in p.delta1))
    ln_z0 = math.log(p.q0 / scheme.q)  # ln z = ln_z0 - ln(gbar)
    c1 = math.exp(dist.params.log_m0 - math.log(2.0) - math.lgamma(scheme.p)
                  + log_h + d * ln_z0)
    c0 = -c1 * (ln_z0 + psi_h + 2.0 * np.euler_gamma)
    rep = asymptotic_ber(dist, ModulationScheme.DBPSK)
    assert rep.leading_coefficients == pytest.approx((c0, c1), rel=1e-12)


# BER residue at each distinct decay exponent, 60 dB: mpmath at 40 digits,
# a contour integral of the Mellin-Barnes integrand around each pole
FROZEN_RESIDUES = [
    # zeta^2 = alpha: quadruple pole at G_d
    ((4.0, 6.0, 2.0, 1), ModulationScheme.DBPSK,
     {4.0: 9.744053814551765e-17, 6.0: 3.474904892267405e-23}),
    ((4.0, 6.5, 2.0, 2), ModulationScheme.NBFSK,
     {2.0: 1.101354845112511e-7, 2.5: 3.670501590793877e-7,
      3.25: 3.678971816277507e-8, 3.75: 3.630354360697435e-9}),
    # alpha = zeta^2 + 2: the lower zeta^2 poles and the upper zeta^2 + 1
    # zeros reach the pole at alpha
    ((3.21, 3.7, 1.1, 1), ModulationScheme.CBPSK,
     {1.21: 3.42449483478403e-7, 3.21: 1.952802234494628e-16,
      3.7: 9.876768397445732e-18}),
    # IM/DD: the upper row cancels the poles at (zeta^2 + 1) / 2 (the
    # contour integral there reads 4e-139, quadrature noise beside the
    # 4e-119 residue at 18.605)
    ((*RED, 6.1, 2), ModulationScheme.CBFSK,
     {1.49165: 4.599708973730952e-7, 1.99165: 2.252960259668634e-8,
      5.47685: -3.883484647197313e-16, 5.97685: -1.584560198811807e-17,
      18.605: 4.119608146206077e-119, 19.105: 0.0}),
]


@pytest.mark.parametrize("channel, scheme, residues", FROZEN_RESIDUES)
def test_residues_match_frozen_high_precision(channel, scheme, residues):
    dist = make_dist(*channel, 60.0)
    rep = asymptotic_ber(dist, scheme)
    lnw = math.log(rep.kernel_scale * dist.mean_snr / rep.argument_scale)
    assert sorted(residues) == pytest.approx(sorted(set(rep.exponents)))
    for d, want in residues.items():
        got = sum(sg * math.exp(rep.log_prefactor + lw - ex * lnw) * lnw ** k
                  for lw, sg, ex, k in zip(rep.log_weights, rep.weight_signs,
                                           rep.exponents, rep.log_powers)
                  if abs(ex - d) < 1e-9)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300), d


# ---------------------------------------------------------------------------
# solver


def test_solve_mean_snr_db_brackets():
    scheme = ModulationScheme.DBPSK

    def metric(gbar: float) -> float:
        return average_ber(make_dist(*RED, 6.1, 1, 10.0 * math.log10(gbar)),
                           scheme)

    db = solve_mean_snr_db(metric, 1e-4, 5.0, 60.0)
    assert metric(10.0 ** (db / 10.0)) == pytest.approx(1e-4, rel=1e-2)
    with pytest.raises(ValueError):
        solve_mean_snr_db(metric, 0.9, 30.0, 60.0)
