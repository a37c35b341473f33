"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Criterion 5 encodes a
source anchor that the verified implementation does not reproduce: the
quoted capacity 10.2 +- 0.5 bits/s/Hz versus the triple-confirmed 10.98
(closed form = quadrature = Monte Carlo).  Its test asserts the stated
tolerance, prints the measured values, and fails; the README section
"Install and test" says why the cause stays unsettled.  Criterion 8
compares the 70-80 dB BER slope with the double-pole law
mean_snr^(-G_d) (c1 ln(mean_snr) + c0) that the coincident decay
exponents of the two hops produce.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import kv

from conftest import (
    FIG_COLORS,
    TABLE2_LEVELS,
    leading_log_factor,
    make_dist,
    reflected,
    solve_mean_snr_db,
)
from risfso.metrics import (
    ModulationScheme,
    asymptotic_ber,
    average_ber,
    ergodic_capacity,
    ergodic_capacity_by_quadrature,
    outage_probability,
)
from risfso.simulator import McChannel, McConfig, estimate_metric
from risfso.special import MeijerGSpec, meijer_g
from risfso.statistics import cdf, cdf_by_quadrature, mgf, pdf
from risfso.sweeps import emit, run_sweep
from risfso.presets import figure_preset

MC_SEED = 20240811
ZETAS = (1.1, 6.1)
DETECTIONS = (1, 2)
GTH_9DB = 10.0 ** 0.9


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _mc_channel(alpha: float, beta: float, zeta: float, a: int,
                mean_snr: float) -> McChannel:
    hop = math.sqrt(mean_snr)
    return McChannel(zeta2=zeta ** 2, alpha=alpha, beta=beta, a=a,
                     mean_snr_h=hop, mean_snr_g=hop)


def _outage_crossing_db(alpha: float, beta: float, zeta: float, a: int,
                        target: float, interpretation: str,
                        lo: float = 2.0, hi: float = 92.0) -> float:
    factor = 2.0 if interpretation == "per-hop" else 1.0

    def metric(gbar_axis: float) -> float:
        db = 10.0 * math.log10(gbar_axis)
        dist = make_dist(alpha, beta, zeta, a, factor * db)
        return outage_probability(dist, GTH_9DB)

    return solve_mean_snr_db(metric, target, lo, hi)


# ---------------------------------------------------------------------------


def test_criterion_01_special_function_identities():
    t0 = time.monotonic()
    worst = 0.0
    for z in (0.2, 0.5, 1.0, 3.0, 8.0):
        got = meijer_g(MeijerGSpec(1, 0, (), (0.0,), z)).value
        worst = max(worst, abs(got / math.exp(-z) - 1.0))
    for z in (0.3, 0.7, 1.0):
        got = meijer_g(MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), z)).value
        worst = max(worst, abs(got / math.log1p(z) - 1.0))
    for nu in (0.0, 0.5, 1.0, 2.3):
        for x in (0.5, 1.0, 5.0):
            spec = MeijerGSpec(2, 0, (), (nu / 2.0, -nu / 2.0), x * x / 4.0)
            got = meijer_g(spec).value
            worst = max(worst, abs(got / (2.0 * kv(nu, x)) - 1.0))
    refl_specs = [
        MeijerGSpec(1, 0, (), (0.0,), 1.0),
        MeijerGSpec(2, 0, (), (0.25, -0.25), 1.0),
        MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), 2.0),
        MeijerGSpec(6, 0, (38.21, 38.21), (37.21, 12.5331, 4.6787) * 2, 1.3),
        MeijerGSpec(6, 1, (1.0, 5.0, 5.0), (4.0, 4.2, 2.5) * 2 + (0.0,), 0.4),
    ]
    for spec in refl_specs:
        direct = meijer_g(spec).value
        mirrored = meijer_g(reflected(spec)).value
        worst = max(worst, abs(mirrored / direct - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"worst identity deviation {worst:.2e} "
                   f"(tolerance 1e-8), runtime {elapsed:.1f} s (< 10 s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_triangle_closure():
    t0 = time.monotonic()
    n = 1_000_000
    worst_rel = 0.0
    worst_z = 0.0
    cells = 0
    for _, alpha, beta in TABLE2_LEVELS:
        for zeta in ZETAS:
            for a in DETECTIONS:
                for db in (10.0, 20.0, 30.0):
                    dist = make_dist(alpha, beta, zeta, a, db)
                    chan = _mc_channel(alpha, beta, zeta, a, dist.mean_snr)
                    cfg = McConfig(sample_count=n, seed=MC_SEED)
                    for g in (GTH_9DB, 0.1 * dist.mean_snr):
                        closed = cdf(dist, g)
                        quadr = cdf_by_quadrature(dist, g)
                        rel = abs(closed / quadr - 1.0)
                        worst_rel = max(worst_rel, rel)
                        emp = estimate_metric("outage", chan, cfg,
                                              gamma_th=g).mean
                        sigma = math.sqrt(closed * (1.0 - closed) / n)
                        worst_z = max(worst_z, abs(emp - closed) / sigma)
                    cells += 1
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-5 and worst_z <= 3.0 and elapsed < 300.0
    _report(2, ok, f"{cells} cells x 2 points: closed-vs-quadrature worst "
                   f"{worst_rel:.2e} (<= 1e-5), worst MC z-score "
                   f"{worst_z:.2f} (<= 3), runtime {elapsed:.0f} s (< 300 s)")
    assert worst_rel <= 1e-5
    assert worst_z <= 3.0
    assert elapsed < 300.0


def test_criterion_03_normalization_and_shape():
    from scipy.integrate import quad
    t0 = time.monotonic()
    worst_norm = 0.0
    worst_mgf = 0.0
    worst_fd = 0.0
    monotone_ok = True
    for _, alpha, beta in TABLE2_LEVELS:
        for zeta in ZETAS:
            for a in DETECTIONS:
                dist = make_dist(alpha, beta, zeta, a, 20.0)
                gbar = dist.mean_snr
                c = min(dist.params.delta2)
                val, _ = quad(lambda u: pdf(dist, gbar * math.exp(u))
                              * gbar * math.exp(u),
                              -(46.0 / c + 6.0), 14.0 * a, points=[0.0],
                              limit=300, epsabs=0.0, epsrel=1e-7)
                worst_norm = max(worst_norm, abs(val - 1.0))
                worst_mgf = max(worst_mgf, abs(mgf(dist, 1e-5 / gbar) - 1.0))
                grid = gbar * np.logspace(-3.5, 3.5, 25)
                vals = [cdf(dist, float(g)) for g in grid]
                monotone_ok &= all(v2 >= v1 - 1e-12
                                   for v1, v2 in zip(vals, vals[1:]))
                monotone_ok &= all(-1e-9 <= v <= 1.0 + 1e-6 for v in vals)
    for _, alpha, beta in TABLE2_LEVELS[:2]:
        for a in DETECTIONS:
            dist = make_dist(alpha, beta, 6.1, a, 20.0)
            gbar = dist.mean_snr
            h = 1e-4
            for ratio in (0.1, 0.7, 2.0):
                g = ratio * gbar
                want = pdf(dist, g)
                if want <= 1e-8:
                    continue
                fd = (cdf(dist, g * (1 + h)) - cdf(dist, g * (1 - h))) \
                    / (2.0 * g * h)
                worst_fd = max(worst_fd, abs(fd / want - 1.0))
    elapsed = time.monotonic() - t0
    ok = (worst_norm <= 1e-4 and worst_mgf <= 1e-4 and monotone_ok
          and worst_fd <= 1e-3 and elapsed < 60.0)
    _report(3, ok, f"worst |integral(pdf)-1| {worst_norm:.2e} (<= 1e-4), "
                   f"worst |mgf(0+)-1| {worst_mgf:.2e} (<= 1e-4), cdf "
                   f"monotone in [0,1]: {monotone_ok}, worst fd-derivative "
                   f"deviation {worst_fd:.2e} (<= 1e-3), "
                   f"runtime {elapsed:.0f} s (< 60 s)")
    assert worst_norm <= 1e-4
    assert worst_mgf <= 1e-4
    assert monotone_ok
    assert worst_fd <= 1e-3
    assert elapsed < 60.0


def test_criterion_04_outage_anchor_set():
    anchors = (26.0, 33.0, 44.0)
    rows = [(10.9537, 2.9833), (4.9477, 1.2310), (2.9428, 2.5605)]
    results = {}
    for interpretation in ("product", "per-hop"):
        crossings = [
            _outage_crossing_db(alpha, beta, 6.1, 1, 1e-3, interpretation)
            for alpha, beta in rows
        ]
        # each anchor must be matched by exactly one scenario crossing
        remaining = list(crossings)
        matched = True
        for anchor in anchors:
            hits = [c for c in remaining if abs(c - anchor) <= 2.0]
            if not hits:
                matched = False
                break
            remaining.remove(hits[0])
        results[interpretation] = (matched, crossings)
    ok = any(m for m, _ in results.values())
    flag = next((k for k, (m, _) in results.items() if m), "none")
    prod = results["product"][1]
    pairwise = [abs(c - a) <= 2.0 for c, a in zip(prod, anchors)]
    _report(4, ok,
            f"recorded flag: {flag}; crossings under product flag "
            f"{[f'{c:.2f}' for c in prod]} dB vs anchors {anchors}; "
            f"set-match within +-2 dB: {results['product'][0]}; literal "
            f"row pairing {pairwise} (rows 2/3 of the prose are swapped "
            f"relative to the computed curves, corroborated by the "
            f"pointing-gap sequence)")
    assert ok, f"no interpretation flag reproduces the anchor set: {results}"
    assert flag == "product"


def test_criterion_05_capacity_anchor():
    dist = make_dist(10.9537, 2.9833, 6.1, 1, 35.0)
    closed = ergodic_capacity(dist)
    quadr = ergodic_capacity_by_quadrature(dist)
    est = estimate_metric("capacity",
                          _mc_channel(10.9537, 2.9833, 6.1, 1, dist.mean_snr),
                          McConfig(sample_count=2_000_000, seed=MC_SEED))
    ok = abs(closed - 10.2) <= 0.5
    _report(5, ok,
            f"capacity at 35 dB: closed {closed:.4f}, quadrature "
            f"{quadr:.4f}, MC {est.mean:.4f} +- {est.std_error:.4f} "
            f"bits/s/Hz; anchor window 10.2 +- 0.5 "
            f"{'contains' if ok else 'excludes'} the triple-confirmed value "
            f"(the quoted text value cannot be reproduced under either "
            f"interpretation flag; see README, Install and test)")
    assert abs(closed - quadr) <= 1e-4, "internal paths disagree"
    assert abs(closed - est.mean) <= 3.0 * est.std_error, "MC disagrees"
    assert ok, (f"quoted anchor 10.2 +- 0.5 excludes the verified value "
                f"{closed:.4f}")


def test_criterion_06_detection_gap():
    gaps = {}
    for label, alpha, beta in TABLE2_LEVELS:
        hd = _outage_crossing_db(alpha, beta, 6.1, 1, 1e-2, "product")
        imdd = _outage_crossing_db(alpha, beta, 6.1, 2, 1e-2, "product")
        gaps[label] = imdd - hd
    ok = all(g >= 12.0 for g in gaps.values())
    _report(6, ok, "IM/DD-vs-HD mean-SNR gap at outage 1e-2, zeta 6.1: "
            + ", ".join(f"{k} {v:.1f} dB" for k, v in gaps.items())
            + " (all >= 12 dB required)")
    assert ok, gaps


def test_criterion_07_color_anchors():
    anchors = {"blue": 35.0, "green": 38.0, "red": 39.0}
    recorded = None
    tried = {}
    for a in DETECTIONS:
        for zeta in ZETAS:
            crossings = {}
            for color, (alpha, beta) in FIG_COLORS.items():
                def metric(gbar: float, al=alpha, be=beta) -> float:
                    db = 10.0 * math.log10(gbar)
                    return average_ber(make_dist(al, be, zeta, a, db),
                                       ModulationScheme.DBPSK)
                try:
                    crossings[color] = solve_mean_snr_db(metric, 1e-4,
                                                         5.0, 100.0)
                except ValueError:
                    crossings[color] = math.nan
            ordered = (crossings["blue"] < crossings["green"]
                       < crossings["red"])
            within = all(abs(crossings[c] - anchors[c]) <= 2.0
                         for c in anchors)
            tried[(a, zeta)] = crossings
            if ordered and within and recorded is None:
                recorded = (a, zeta, dict(crossings))
    ok = recorded is not None
    detail = "no candidate matches"
    if ok:
        a, zeta, crossings = recorded
        mode = "HD" if a == 1 else "IM/DD"
        detail = (f"recorded detection mode {mode} with zeta {zeta}: "
                  + ", ".join(f"{c} {v:.2f} dB" for c, v in crossings.items())
                  + f" vs anchors {anchors} (each +-2 dB, order blue<green<red)")
    _report(7, ok, detail)
    assert ok, tried
    assert recorded[0] == 1 and recorded[1] == 1.1


def test_criterion_08_asymptotics():
    scheme = ModulationScheme.DBPSK
    pairs = [
        ("HD zeta6.1 (13.2818,5.7795)", 13.2818, 5.7795, 6.1, 1),
        ("HD zeta6.1 (10.9537,2.9833)", 10.9537, 2.9833, 6.1, 1),
        ("IM/DD zeta6.1 (13.2818,5.7795)", 13.2818, 5.7795, 6.1, 2),
        ("IM/DD zeta6.1 (12.5331,4.6787)", 12.5331, 4.6787, 6.1, 2),
    ]
    slope_rows = []
    worst_dev = 0.0
    for label, alpha, beta, zeta, a in pairs:
        p70 = average_ber(make_dist(alpha, beta, zeta, a, 70.0), scheme)
        p80 = average_ber(make_dist(alpha, beta, zeta, a, 80.0), scheme)
        slope = math.log10(p70) - math.log10(p80)
        rep = asymptotic_ber(make_dist(alpha, beta, zeta, a, 70.0), scheme)
        gd = rep.diversity_order
        # the double pole at G_d: P_b ~ gbar^(-G_d) L(gbar), so a decade
        # of mean SNR costs G_d - log10(L(gbar_80) / L(gbar_70))
        log_share = math.log10(leading_log_factor(rep, 80.0)
                               / leading_log_factor(rep, 70.0))
        dev = abs(slope - (gd - log_share)) / gd
        worst_dev = max(worst_dev, dev)
        slope_rows.append(f"{label}: slope {slope:.3f} vs G_d {gd:.3f} "
                          f"(raw {100 * abs(slope - gd) / gd:.1f}%, "
                          f"log share {log_share:.3f}, residual "
                          f"{dev:.1e} of G_d)")
    # asymptote-vs-exact factor-two check wherever the exact BER < 1e-6
    worst_factor = 1.0
    for label, alpha, beta, zeta, a in pairs:
        for db in (60.0, 70.0, 80.0, 90.0):
            dist = make_dist(alpha, beta, zeta, a, db)
            exact = average_ber(dist, scheme)
            if exact >= 1e-6:
                continue
            approx = asymptotic_ber(dist, scheme).ber_estimate
            worst_factor = max(worst_factor, approx / exact, exact / approx)
    slopes_ok = worst_dev <= 0.05
    factor_ok = worst_factor <= 2.0
    _report(8, slopes_ok and factor_ok,
            "; ".join(slope_rows)
            + f"; asymptote/exact worst factor {worst_factor:.3f} (<= 2). "
            "The raw slope deviation is the log factor of the "
            "twice-repeated decay exponents (README, Install and test)")
    assert factor_ok
    assert slopes_ok, (f"slope deviation {worst_dev:.3f} of G_d from the "
                       "double-pole law exceeds 5% at 70-80 dB")


def test_criterion_09_monotonicity_batteries():
    t0 = time.monotonic()
    S = ModulationScheme
    grid_db = {1: np.linspace(12.0, 45.0, 20), 2: np.linspace(20.0, 60.0, 20)}
    pointing_ok = True
    pointwise_ok = True
    pair_checked = 0
    for _, alpha, beta in TABLE2_LEVELS:
        for a in DETECTIONS:
            for db in grid_db[a]:
                bad = make_dist(alpha, beta, 1.1, a, float(db))
                good = make_dist(alpha, beta, 6.1, a, float(db))
                pointing_ok &= (outage_probability(good, GTH_9DB)
                                <= outage_probability(bad, GTH_9DB) + 1e-12)
                pointing_ok &= (ergodic_capacity(good)
                                >= ergodic_capacity(bad) - 1e-9)
                pointing_ok &= (average_ber(good, S.DBPSK)
                                <= average_ber(bad, S.DBPSK) + 1e-12)
                vals = {s: average_ber(good, s) for s in S}
                pointwise_ok &= vals[S.CBPSK] <= vals[S.DBPSK] * (1 + 1e-9)
                pointwise_ok &= vals[S.CBPSK] <= vals[S.CBFSK] * (1 + 1e-9)
                pointwise_ok &= vals[S.DBPSK] <= vals[S.NBFSK] * (1 + 1e-9)
                pointwise_ok &= vals[S.CBFSK] <= vals[S.NBFSK] * (1 + 1e-9)
    # DBPSK-vs-CBFSK leg in its true regime: decided by the smallest
    # decay exponent (crossover exists only above one)
    leg_rows = []
    leg_ok = True
    for label, alpha, beta in TABLE2_LEVELS:
        for a in DETECTIONS:
            dist = make_dist(alpha, beta, 6.1, a, 55.0 if a == 1 else 75.0)
            d = min(dist.params.delta2)
            b_d = average_ber(dist, S.DBPSK)
            b_c = average_ber(dist, S.CBFSK)
            if d >= 1.0:
                leg_ok &= b_d <= b_c * (1 + 1e-9)
                leg_rows.append(f"{label}/a{a}: exponent {d:.2f}>=1, "
                                f"DBPSK<=CBFSK holds")
            else:
                leg_ok &= b_c <= b_d * (1 + 1e-9)
                leg_rows.append(f"{label}/a{a}: exponent {d:.2f}<1, "
                                f"documented inversion (CBFSK better)")
            pair_checked += 1
    color_ok = True
    for db in np.linspace(25.0, 40.0, 16):
        vals = {c: average_ber(make_dist(*ab, 6.1, 1, float(db)), S.DBPSK)
                for c, ab in FIG_COLORS.items()}
        color_ok &= vals["blue"] <= vals["green"] <= vals["red"]
    dominance_ok = True
    for _, alpha, beta in TABLE2_LEVELS:
        for db in np.linspace(10.0, 50.0, 20):
            hd = make_dist(alpha, beta, 6.1, 1, float(db))
            imdd = make_dist(alpha, beta, 6.1, 2, float(db))
            dominance_ok &= ergodic_capacity(hd) >= ergodic_capacity(imdd) - 1e-9
            dominance_ok &= (average_ber(hd, S.DBPSK)
                             <= average_ber(imdd, S.DBPSK) + 1e-12)
    elapsed = time.monotonic() - t0
    ok = (pointing_ok and pointwise_ok and leg_ok and color_ok
          and dominance_ok and elapsed < 120.0)
    _report(9, ok,
            f"pointing monotonicity {pointing_ok}, pointwise scheme legs "
            f"{pointwise_ok}, DBPSK/CBFSK regime leg {leg_ok} "
            f"({pair_checked} combos: " + "; ".join(leg_rows) + "), "
            f"color ordering {color_ok}, detection dominance {dominance_ok}, "
            f"runtime {elapsed:.0f} s (< 120 s)")
    assert pointing_ok and pointwise_ok and leg_ok and color_ok and dominance_ok
    assert elapsed < 120.0


def test_criterion_10_sweep_determinism(tmp_path):
    spec = figure_preset("fig3", seed=42)
    paths = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        emit(run_sweep(spec), "csv", str(out))
        paths.append(out)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(10, identical,
            f"fig3 preset with seed 42 twice: byte-identical CSV "
            f"({paths[0].stat().st_size} bytes) = {identical}")
    assert identical
