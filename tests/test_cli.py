"""Configuration parsing, sweeps, serialization and the CLI surface."""
from __future__ import annotations

import csv
import json
import math
import re

import pytest

from conftest import load_curves
from risfso import cli, metrics, statistics
from risfso.presets import figure_preset
from risfso.simulator import McConfig
from risfso.special import MeijerGError
from risfso.sweeps import (
    ConfigError,
    MetricCurve,
    MetricSpec,
    ScenarioSpec,
    SweepSpec,
    db_to_linear,
    distribution,
    emit,
    mc_estimate,
    parse_config,
    run_sweep,
)


def write_config(tmp_path, obj) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


MINIMAL = {
    "scenarios": [{"alpha": 4.2, "beta": 2.5, "zeta": 2.0,
                   "detection": "hd", "mean_snr_db": 20.0}],
    "sweep": {"variable": "mean_snr_db", "start": 10.0, "stop": 14.0,
              "step": 2.0, "metrics": [{"name": "capacity"}]},
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_constants_config(tmp_path):
    spec = parse_config(write_config(tmp_path, MINIMAL))
    assert len(spec.scenarios) == 1
    sc = spec.scenarios[0]
    assert (sc.alpha, sc.beta, sc.zeta) == (4.2, 2.5, 2.0)
    assert spec.grid() == [10.0, 12.0, 14.0]


def test_parse_table_preset(tmp_path):
    cfg = {
        "scenarios": [{"preset": "table2-blue-strong", "zeta": 6.1}],
        "sweep": {"variable": "mean_snr_db", "start": 0, "stop": 10,
                  "step": 5, "metrics": []},
    }
    spec = parse_config(write_config(tmp_path, cfg))
    assert spec.scenarios[0].alpha == 12.5331
    assert spec.scenarios[0].beta == 4.6787


def test_parse_physical_route(tmp_path):
    cfg = {
        "scenarios": [{"cn2": 5e-14, "color": "red", "zeta": 6.1}],
        "sweep": {"variable": "mean_snr_db", "start": 0, "stop": 10,
                  "step": 5, "metrics": []},
    }
    spec = parse_config(write_config(tmp_path, cfg))
    # frozen full-scenario derivation (700 nm, 1 km, 1 mm aperture)
    assert spec.scenarios[0].alpha == pytest.approx(2.95411653953239548,
                                                    rel=1e-10)
    assert spec.scenarios[0].beta == pytest.approx(4.07933810221389554,
                                                   rel=1e-10)


def test_parse_rejects_zero_step(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["step"] = 0.0
    with pytest.raises(ConfigError, match="sweep.step"):
        parse_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("variable, key, value, message", [
    ("mean_snr_db", "stop", math.inf, "sweep.stop: must be finite"),
    ("mean_snr_db", "start", math.nan, "sweep.start: must be finite"),
    ("mean_snr_db", "step", 1e-300, "sweep.step: gives more than"),
    # at parse time, not as an unnamed error of the first grid point
    ("zeta", "start", -1.0, r"^sweep\.start: must be > 0 when sweeping zeta$"),
], ids=["stop-inf", "start-nan", "step-runaway", "zeta-start-negative"])
def test_parse_rejects_non_finite_and_runaway_grids(tmp_path, variable, key,
                                                    value, message):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["variable"] = variable
    cfg["sweep"][key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("metric, seed, message", [
    ({"samples": 2.7}, 0, r"^sweep\.metrics\[0\]\.samples: must be an integer, got 2\.7$"),
    ({"samples": True}, 0, r"^sweep\.metrics\[0\]\.samples: must be an integer, got True$"),
    ({"samples": "2000"}, 0,
     r"^sweep\.metrics\[0\]\.samples: must be an integer, got '2000'$"),
    ({}, 1.9, r"^sweep\.seed: must be an integer, got 1\.9$"),
    ({}, True, r"^sweep\.seed: must be an integer, got True$"),
    ({}, -1, r"^sweep\.seed: must lie in \[0, 2\^64\), got -1$"),
    ({}, 2 ** 64, r"^sweep\.seed: must lie in \[0, 2\^64\), got 18446744073709551616$"),
], ids=["samples-float", "samples-bool", "samples-string", "seed-float",
        "seed-bool", "seed-negative", "seed-too-large"])
def test_parse_takes_json_integers_only(tmp_path, metric, seed, message):
    # a float, a bool or a string is not silently truncated, and a seed
    # out of range fails here rather than inside a Monte Carlo curve
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "mc": True, **metric}]
    cfg["sweep"]["seed"] = seed
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, cfg))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "mc": True, "samples": 2000}]
    cfg["sweep"]["seed"] = 2 ** 64 - 1
    spec = parse_config(write_config(tmp_path, cfg))
    assert (spec.metrics[0].samples, spec.seed) == (2000, 2 ** 64 - 1)


def test_parse_rejects_bad_metric(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "ber"}]
    with pytest.raises(ConfigError, match="needs a scheme"):
        parse_config(write_config(tmp_path, cfg))
    cfg["sweep"]["metrics"] = [{"name": "outage"}]
    with pytest.raises(ConfigError, match="gamma_th_db"):
        parse_config(write_config(tmp_path, cfg))


SCENARIO = ScenarioSpec("x", 4.2, 2.5, 2.0, mean_snr_db=20.0)


@pytest.mark.parametrize("fields, message", [
    ({"step": 0.0}, "sweep.step: must be > 0"),
    ({"step": -1.0}, "sweep.step: must be > 0"),
    ({"stop": 8.0}, "sweep.stop: must be >= start"),
    # rejected before any grid is built: the grid would hold 4e12 points
    ({"step": 1e-12}, "sweep.step: gives more than 100000 grid points"),
    ({"variable": "snr"},
     "sweep.variable: must be one of ('mean_snr_db', 'gamma_th_db', 'zeta')"),
    ({"metrics": (MetricSpec(name="capacity"), MetricSpec(name="ber"))},
     "sweep.metrics[1]: ber needs a scheme"),
    ({"metrics": (MetricSpec(name="ber", scheme="foo"),)},
     "sweep.metrics[0].scheme: unknown modulation scheme 'foo'; "
     "choose from ['CBFSK', 'NBFSK', 'CBPSK', 'DBPSK']"),
    ({"metrics": (MetricSpec(name="mgf"),)}, "sweep.metrics[0]: mgf needs s > 0"),
    ({"metrics": (MetricSpec(name="mgf", s=math.inf),)}, "sweep.metrics[0].s: must be finite"),
    ({"metrics": (MetricSpec(name="outage"),)}, "sweep.metrics[0]: outage needs gamma_th_db"),
    ({"metrics": (MetricSpec(name="snr"),)},
     "sweep.metrics[0].name: must be one of outage, capacity, ber, mgf"),
    ({"metrics": (MetricSpec(name="capacity", mc=True, samples=0),)},
     "sweep.metrics[0].samples: must be >= 1"),
    ({"metrics": (MetricSpec(name="capacity", mc="false"),)},
     "sweep.metrics[0].mc: must be true or false"),
    # a field that its metric does not read, named by its path
    ({"metrics": (MetricSpec(name="capacity", scheme="foo", s=3.0, gamma_th_db=5.0),)},
     "sweep.metrics[0].scheme: capacity takes no scheme"),
    ({"metrics": (MetricSpec(name="ber", scheme="DBPSK", s=1.0),)},
     "sweep.metrics[0].s: ber takes no s"),
    ({"metrics": (MetricSpec(name="mgf", s=1.0, gamma_th_db=5.0),)},
     "sweep.metrics[0].gamma_th_db: mgf takes no gamma_th_db"),
    ({"variable": "gamma_th_db", "metrics": (MetricSpec(name="outage", gamma_th_db=5.0),)},
     "sweep.metrics[0].gamma_th_db: the gamma_th_db sweep sets the threshold"),
], ids=["step-zero", "step-negative", "stop-below-start", "step-tiny", "variable",
        "ber-no-scheme", "ber-unknown-scheme", "mgf-no-s", "mgf-s-inf",
        "outage-no-threshold", "metric-name", "samples", "mc-string",
        "capacity-unused-fields", "ber-unused-s", "mgf-unused-threshold",
        "outage-threshold-in-threshold-sweep"])
def test_sweep_spec_built_in_code_is_checked_like_a_config(fields, message):
    # a library caller of run_sweep meets the config's errors when it
    # builds the spec, not a ZeroDivisionError, an empty sweep or a
    # failure inside a curve
    spec = {"variable": "mean_snr_db", "start": 10.0, "stop": 14.0, "step": 2.0,
            "metrics": (MetricSpec(name="capacity"),), "scenarios": (SCENARIO,)}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SweepSpec(**{**spec, **fields})


@pytest.mark.parametrize("key, value, message", [
    ("format", "xml", r"^sweep\.format: must be csv or json, got 'xml'$"),
    ("output", 1, r"^sweep\.output: must be a string$"),
], ids=["format", "output"])
def test_parse_checks_output_fields(tmp_path, key, value, message):
    # before the sweep runs, not when its result is written
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"][key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_mc_flag_that_is_not_boolean(tmp_path):
    # the string "false" is truthy
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "mc": "false"}]
    with pytest.raises(ConfigError, match=r"^sweep\.metrics\[0\]\.mc: must be true or false$"):
        parse_config(write_config(tmp_path, cfg))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "mc": False}]
    assert parse_config(write_config(tmp_path, cfg)).metrics[0].mc is False


def test_parse_warns_on_unknown_key(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["scenarios"][0]["wavelenght_nm"] = 700.0
    with pytest.warns(UserWarning, match="unknown key"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_requires_mean_snr_for_threshold_sweep(tmp_path):
    cfg = {
        "scenarios": [{"alpha": 4.2, "beta": 2.5, "zeta": 2.0}],
        "sweep": {"variable": "gamma_th_db", "start": 0, "stop": 10,
                  "step": 5, "metrics": [{"name": "outage"}]},
    }
    with pytest.raises(ConfigError, match="mean_snr_db"):
        parse_config(write_config(tmp_path, cfg))


# ---------------------------------------------------------------------------
# sweeps


def test_fig3_preset_yields_six_curves():
    spec = figure_preset("fig3")
    assert spec.variable == "mean_snr_db"
    assert len(spec.scenarios) == 6  # two pointing levels, three rows
    small = SweepSpec(variable="mean_snr_db", start=20.0, stop=24.0, step=2.0,
                      metrics=spec.metrics, scenarios=spec.scenarios)
    curves = run_sweep(small)
    assert len(curves) == 6
    assert all(len(c.x) == 3 for c in curves)
    assert all(math.isfinite(v) for c in curves for v in c.y)


def test_preset_fixed_parameters():
    # threshold sweep at 9 dB per hop (18 dB product) for fig2; fixed
    # 9 dB outage threshold for the mean-SNR sweeps of fig3/fig4
    fig2 = figure_preset("fig2")
    assert fig2.variable == "gamma_th_db"
    assert len(fig2.scenarios) == 12
    assert all(sc.mean_snr_db == 18.0 for sc in fig2.scenarios)
    for name, a in (("fig3", 1), ("fig4", 2)):
        spec = figure_preset(name)
        assert spec.metrics[0].gamma_th_db == 9.0
        assert all(sc.detection.a == a for sc in spec.scenarios)
    fig7 = figure_preset("fig7")
    assert {m.scheme for m in fig7.metrics} \
        == {"CBFSK", "NBFSK", "CBPSK", "DBPSK"}


def test_fig9a_preset_yields_three_color_curves():
    spec = figure_preset("fig9a")
    assert len(spec.scenarios) == 3
    assert {sc.label for sc in spec.scenarios} == {"red", "green", "blue"}
    assert all(sc.detection.a == 1 and sc.zeta == 1.1
               for sc in spec.scenarios)


def test_empty_metric_list_yields_empty_output(tmp_path):
    spec = SweepSpec(variable="mean_snr_db", start=0.0, stop=10.0, step=5.0,
                     metrics=(), scenarios=(ScenarioSpec(
                         "x", 4.2, 2.5, 2.0),))
    curves = run_sweep(spec)
    assert curves == []
    out = tmp_path / "empty.csv"
    emit(curves, "csv", str(out))
    assert out.read_text().splitlines() == ["x,y,curve"]


def test_mc_metric_embeds_seed():
    spec = SweepSpec(variable="mean_snr_db", start=20.0, stop=20.0, step=1.0,
                     metrics=(MetricSpec(name="outage", gamma_th_db=6.0,
                                         mc=True, samples=20_000),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0),),
                     seed=777)
    curves = run_sweep(spec)
    assert curves[0].meta["seed"] == 777
    assert curves[0].meta["samples"] == 20_000


def test_mgf_sweep_labels_its_s_and_matches_the_closed_form(tmp_path):
    metrics = (MetricSpec(name="mgf", s=0.5),
               MetricSpec(name="mgf", s=0.5, mc=True, samples=20_000))
    spec = SweepSpec(variable="mean_snr_db", start=10.0, stop=20.0, step=5.0,
                     metrics=metrics, scenarios=(SCENARIO,), seed=11)
    closed, sampled = run_sweep(spec)
    assert [c.meta["curve"] for c in (closed, sampled)] == ["x|mgf-s0.5", "x|mgf-s0.5-mc"]
    out = tmp_path / "mgf.csv"
    emit([closed, sampled], "csv", str(out))
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and {row["s"] for row in rows} == {"0.5"}
    for x, y_closed, y_mc in zip(spec.grid(), closed.y, sampled.y):
        dist = distribution(SCENARIO, x)
        assert y_closed.hex() == statistics.mgf(dist, 0.5).hex(), x
        # the sweep's estimate is mc_estimate's at the sweep's seed
        est = mc_estimate(metrics[1], dist, McConfig(sample_count=20_000, seed=11), None)
        assert y_mc == est.mean, x
        assert abs(y_mc - y_closed) <= 5.0 * est.std_error, x


def test_threshold_sweep_reaches_past_the_double_range():
    # 10^(x / 10) leaves the doubles below -3,240 dB and above 3,083 dB;
    # the sweep hands the cdf builder ln gamma = x ln(10) / 10 instead
    spec = SweepSpec(variable="gamma_th_db", start=-4000.0, stop=4000.0, step=2000.0,
                     metrics=(MetricSpec(name="outage"),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0, mean_snr_db=20.0),))
    curve = run_sweep(spec)[0]
    assert "failures" not in curve.meta
    assert curve.y[:2] == [0.0, 0.0] and curve.y[3:] == [1.0, 1.0]
    assert 0.0 < curve.y[2] < 1.0


@pytest.mark.parametrize("interpretation", ["product", "per-hop"])
def test_a_sweep_gives_the_doubles_of_the_scalar_calls(interpretation):
    # a curve is one family on one distribution, but each ln z is formed
    # as a scalar call forms it, so every value is the scalar call's to
    # the last bit
    sc = ScenarioSpec("x", 4.2, 2.5, 2.0, mean_snr_db=20.0, mu=0.8)

    def outage(dist, gamma_th_db):
        # the sweep hands the cdf ln gamma_th, as this family of one does
        ln_gamma = gamma_th_db / 10.0 * math.log(10.0)
        return statistics.evaluate_batch(statistics.cdf_form(dist, [ln_gamma]))[0]

    calls = [(MetricSpec(name="outage", gamma_th_db=9.0), lambda d: outage(d, 9.0)),
             (MetricSpec(name="capacity"), metrics.ergodic_capacity),
             (MetricSpec(name="mgf", s=0.5), lambda d: statistics.mgf(d, 0.5))]
    calls += [(MetricSpec(name="ber", scheme=scheme.name),
               lambda d, scheme=scheme: metrics.average_ber(d, scheme))
              for scheme in metrics.ModulationScheme]
    spec = SweepSpec(variable="mean_snr_db", start=-5.0, stop=60.0, step=2.5,
                     metrics=tuple(metric for metric, _ in calls), scenarios=(sc,),
                     gbar_interpretation=interpretation)
    for curve, (_, call) in zip(run_sweep(spec), calls, strict=True):
        want = [call(distribution(sc, x, interpretation)) for x in curve.x]
        assert [y.hex() for y in curve.y] == [v.hex() for v in want], curve.meta["curve"]
    spec = SweepSpec(variable="gamma_th_db", start=-10.0, stop=40.0, step=2.5,
                     metrics=(MetricSpec(name="outage"),), scenarios=(sc,),
                     gbar_interpretation=interpretation)
    (curve,) = run_sweep(spec)
    dist = distribution(sc, 20.0, interpretation)
    assert [y.hex() for y in curve.y] == [outage(dist, x).hex() for x in curve.x]


def test_point_failures_recorded_as_gaps(monkeypatch):
    # one bad grid point yields NaN plus a diagnostic, not an abort; no
    # step of a point raises MeijerGError, but bench/selftest.py injects
    # one before the curve's family, as this test does
    import risfso.sweeps as sweeps_mod

    real = sweeps_mod._eval_point

    def flaky(metric, dist, gamma_th_db, mean_snr, seed):
        if abs(mean_snr - 10.0 ** 2.2) < 1e-6:
            raise MeijerGError("synthetic failure at 22 dB")
        return real(metric, dist, gamma_th_db, mean_snr, seed)

    monkeypatch.setattr(sweeps_mod, "_eval_point", flaky)
    spec = SweepSpec(variable="mean_snr_db", start=20.0, stop=24.0, step=2.0,
                     metrics=(MetricSpec(name="outage", gamma_th_db=6.0),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0),))
    curve = run_sweep(spec)[0]
    assert math.isnan(curve.y[1])
    assert math.isfinite(curve.y[0]) and math.isfinite(curve.y[2])
    assert "synthetic failure" in curve.meta["failures"]


def test_failure_inside_the_curve_batch_leaves_the_other_points(monkeypatch):
    # the closed-form points of a curve are one family; one that fails in
    # its pass, here by a log prefactor whose value overflows, becomes a
    # gap and the others keep their values
    import risfso.sweeps as sweeps_mod

    spec = SweepSpec(variable="mean_snr_db", start=20.0, stop=26.0, step=2.0,
                     metrics=(MetricSpec(name="outage", gamma_th_db=6.0),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0),))
    clean = run_sweep(spec)[0]
    real, calls = sweeps_mod.cdf_form, []

    def second_overflows(dist, ln_gamma, mean_snr):
        calls.append(dist)
        family = real(dist, ln_gamma, mean_snr)
        family.log_prefactors[1] = 800.0
        return family

    monkeypatch.setattr(sweeps_mod, "cdf_form", second_overflows)
    curve = run_sweep(spec)[0]
    assert len(calls) == 1
    assert math.isnan(curve.y[1])
    assert curve.y[:1] + curve.y[2:] == clean.y[:1] + clean.y[2:]
    assert curve.meta["failures"] == "x=22: contour evaluation returned inf"


def test_emit_surfaces_io_error_with_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(ConfigError, match="out.csv"):
        emit([], "csv", str(target))


def test_per_hop_interpretation_squares_mean_snr():
    base = SweepSpec(variable="mean_snr_db", start=15.0, stop=15.0, step=1.0,
                     metrics=(MetricSpec(name="capacity"),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0),))
    prod = run_sweep(base)[0].y[0]
    per_hop = run_sweep(SweepSpec(**{**base.__dict__,
                                     "gbar_interpretation": "per-hop"}))[0].y[0]
    prod30 = run_sweep(SweepSpec(**{**base.__dict__,
                                    "start": 30.0, "stop": 30.0}))[0].y[0]
    assert per_hop == pytest.approx(prod30, rel=1e-12)
    assert per_hop > prod


# ---------------------------------------------------------------------------
# serialization


def test_csv_shape_single_curve(tmp_path):
    curve = MetricCurve(x=[1.0, 2.0, 3.0], y=[0.1, 0.2, 0.3],
                        meta={"curve": "c1", "alpha": 4.2})
    out = tmp_path / "one.csv"
    emit([curve], "csv", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header plus three points
    assert lines[0] == "x,y,curve,alpha"
    assert lines[1].startswith("1.0,0.1,c1,")


def test_csv_two_curves_distinguished_by_curve_column(tmp_path):
    curves = [
        MetricCurve(x=[1.0], y=[0.5], meta={"curve": "a"}),
        MetricCurve(x=[1.0], y=[0.7], meta={"curve": "b"}),
    ]
    out = tmp_path / "two.csv"
    emit(curves, "csv", str(out))
    rows = out.read_text().splitlines()[1:]
    assert {r.split(",")[2] for r in rows} == {"a", "b"}


def test_json_round_trip_is_byte_identical(tmp_path):
    curves = [MetricCurve(x=[1.0, 2.0], y=[0.5, 0.25],
                          meta={"curve": "a", "alpha": 4.2, "zeta": 2.0})]
    p1 = tmp_path / "c1.json"
    p2 = tmp_path / "c2.json"
    emit(curves, "json", str(p1))
    emit(load_curves(str(p1)), "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        emit([], "xml", str(tmp_path / "x.xml"))


def test_curve_length_mismatch_rejected():
    with pytest.raises(ValueError):
        MetricCurve(x=[1.0, 2.0], y=[1.0], meta={})


# ---------------------------------------------------------------------------
# command-line surface


def test_cli_capacity_roundtrip(capsys):
    rc = cli.main(["capacity", "--alpha", "12.5331", "--beta", "4.6787",
                   "--zeta", "6.1", "--mean-snr-db", "20"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    from conftest import make_dist
    from risfso.metrics import ergodic_capacity
    want = ergodic_capacity(make_dist(12.5331, 4.6787, 6.1, 1, 20.0))
    assert payload["value"] == pytest.approx(want, rel=1e-12)


def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    rc = cli.main(["capacity", "--alpha", "12.5331", "--beta", "4.6787",
                   "--zeta", "6.1", "--mean-snr-db", "20", "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: output: cannot write")


def test_cli_outage_and_cdf_agree(capsys):
    args = ["--preset", "table2-red-strong", "--zeta", "6.1",
            "--mean-snr-db", "26"]
    assert cli.main(["outage", "--gamma-th-db", "9", *args]) == 0
    outage = json.loads(capsys.readouterr().out)["value"]
    assert cli.main(["cdf", "--gamma-db", "9", *args]) == 0
    level = json.loads(capsys.readouterr().out)["value"]
    assert outage == pytest.approx(level, rel=1e-12)
    assert outage == pytest.approx(1.41e-3, rel=0.02)


def test_cli_params_frozen_reference(capsys):
    rc = cli.main(["params", "--color", "red", "--cn2", "5e-14",
                   "--zeta", "6.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(2.95411653953239548, rel=1e-10)
    assert payload["beta"] == pytest.approx(4.07933810221389554, rel=1e-10)
    # default geometry: r = 0.1 m, w_z = 1 m
    assert payload["v"] == pytest.approx(0.1 * math.sqrt(math.pi / 2.0),
                                         rel=1e-12)
    assert 0.0 < payload["a0"] < 1.0
    assert payload["path_loss"] == 1.0


def test_cli_asymptote_fields(capsys):
    rc = cli.main(["asymptote", "--scheme", "DBPSK", "--alpha", "10.9537",
                   "--beta", "2.9833", "--zeta", "1.1", "--mean-snr-db", "40"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diversity_order"] == pytest.approx(1.21, rel=1e-12)
    assert payload["coding_gain"] > 0.0


def test_cli_csv_format_for_single_values(capsys):
    rc = cli.main(["cdf", "--gamma-db", "9", "--alpha", "4.2", "--beta",
                   "2.5", "--zeta", "2.0", "--mean-snr-db", "20",
                   "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    key, value = lines[1].split(",")
    assert key == "value" and 0.0 < float(value) < 1.0


def test_cli_mc_smoke(capsys):
    rc = cli.main(["mc", "--metric", "outage", "--gamma-th-db", "6",
                   "--alpha", "4.2", "--beta", "2.5", "--zeta", "2.0",
                   "--mean-snr-db", "15", "--samples", "20000",
                   "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["mean"] < 1.0
    assert payload["seed"] == 3


def test_cli_schema_errors_exit_one(capsys, tmp_path):
    assert cli.main(["capacity", "--zeta", "2.0", "--mean-snr-db", "10"]) == 1
    assert cli.main(["capacity", "--preset", "table2-ultraviolet-strong",
                     "--zeta", "2.0", "--mean-snr-db", "10"]) == 1
    # missing threshold/rate surfaces as a configuration error
    assert cli.main(["outage", "--alpha", "4.2", "--beta", "2.5",
                     "--zeta", "2.0", "--mean-snr-db", "10"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == 1
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["stop"] = math.inf
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    assert cli.main(["ber", *ONE_POINT, "--zeta", "2.0", "--scheme", "foo"]) == 1
    capsys.readouterr()
    # values the parser cannot convert name their field
    for key, value in (("detection", "foo"), ("zeta", "abc")):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["scenarios"][0][key] = value
        assert cli.main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: scenarios[0].{key}: ")


ONE_POINT = ["--alpha", "4.2", "--beta", "2.5", "--mean-snr-db", "10"]


@pytest.mark.parametrize("argv, message", [
    (["capacity", *ONE_POINT, "--zeta", "0"], "channel.zeta: must be > 0"),
    (["capacity", *ONE_POINT, "--zeta", "2.0", "--mu", "1.5"],
     "channel.mu: must lie in (0, 1]"),
    (["capacity", "--alpha", "4.2", "--zeta", "2.0", "--mean-snr-db", "10"],
     "channel: alpha and beta must be given together"),
    (["mc", "--metric", "ber", *ONE_POINT, "--zeta", "2.0"],
     "metric: ber needs a scheme"),
    (["mc", "--metric", "mgf", "--s", "-1", *ONE_POINT, "--zeta", "2.0"],
     "metric: mgf needs s > 0"),
    (["capacity", *ONE_POINT, "--zeta", "2.0", "--detection", "foo"],
     "channel.detection: unknown detection mode 'foo' (use 'hd' or 'imdd')"),
    (["mc", "--metric", "ber", "--scheme", "foo", *ONE_POINT, "--zeta", "2.0"],
     "metric.scheme: unknown modulation scheme 'foo'; "
     "choose from ['CBFSK', 'NBFSK', 'CBPSK', 'DBPSK']"),
    (["capacity", "--zeta", "2.0", "--mean-snr-db", "10"],
     "channel: give --preset, or --alpha and --beta"),
    (["params", "--color", "red", "--cn2", "1e-14", "--zeta", "2",
      "--detection", "foo"],
     "params.detection: unknown detection mode 'foo' (use 'hd' or 'imdd')"),
    (["params", "--cn2", "1e-14", "--zeta", "2"], "give --wavelength-nm or --color"),
    (["ber", "--scheme", "foo", *ONE_POINT, "--zeta", "2.0"],
     "metric.scheme: unknown modulation scheme 'foo'; "
     "choose from ['CBFSK', 'NBFSK', 'CBPSK', 'DBPSK']"),
    (["asymptote", "--scheme", "foo", *ONE_POINT, "--zeta", "2.0"],
     "metric.scheme: unknown modulation scheme 'foo'; "
     "choose from ['CBFSK', 'NBFSK', 'CBPSK', 'DBPSK']"),
    (["mc", "--metric", "capacity", *ONE_POINT, "--zeta", "2", "--seed", "-1"],
     "mc.seed: must lie in [0, 2^64), got -1"),
    (["mc", "--metric", "capacity", *ONE_POINT, "--zeta", "2",
      "--seed", str(2 ** 64)],
     "mc.seed: must lie in [0, 2^64), got 18446744073709551616"),
    (["mc", "--metric", "capacity", *ONE_POINT, "--zeta", "2", "--samples", "0"],
     "metric.samples: must be >= 1"),
    (["sweep", "--preset", "fig3", "--seed", "-1"],
     "sweep.seed: must lie in [0, 2^64), got -1"),
    (["outage", *ONE_POINT, "--zeta", "2", "--rate", "400"],
     "rate 400.0 gives a threshold past the largest double"),
    (["outage", *ONE_POINT, "--zeta", "2", "--rate", "355",
      "--rate-convention", "exp2r-minus-1"],
     "rate 355.0 gives a threshold past the largest double"),
    # a negative rate under either convention, not the threshold it gives
    (["outage", *ONE_POINT, "--zeta", "2", "--rate=-0.5"], "rate must be >= 0, got -0.5"),
    (["outage", *ONE_POINT, "--zeta", "2", "--rate=-0.5",
      "--rate-convention", "exp2r-minus-1"], "rate must be >= 0, got -0.5"),
])
def test_cli_field_errors_name_the_field(capsys, argv, message):
    # the CLI's channel and MC flags go through the JSON config parser
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["mc", "--preset", "table2-red-strong", "--zeta", "1.1", "--mean-snr-db",
      "30", "--metric", "outage", "--gamma-th-db", "nan", "--samples", "1000"],
     "metric.gamma_th_db: must be finite"),
    (["capacity", "--alpha", "2", "--beta", "2", "--zeta", "inf",
      "--mean-snr-db", "30"], "channel.zeta: must be finite"),
    (["capacity", "--alpha", "nan", "--beta", "2", "--zeta", "2",
      "--mean-snr-db", "30"], "channel.alpha: must be finite"),
    (["capacity", *ONE_POINT[:4], "--mean-snr-db=inf", "--zeta", "2"],
     "channel.mean_snr_db: must be finite"),
    (["cdf", *ONE_POINT, "--zeta", "2", "--gamma-db", "nan"],
     "metric.gamma_db: must be finite"),
    (["params", "--color", "red", "--cn2", "5e-14", "--zeta", "inf"],
     "params.zeta: must be finite"),
    (["cdf", *ONE_POINT, "--zeta", "2", "--gamma-db", "inf"],
     "metric.gamma_db: must be finite"),
    (["pdf", *ONE_POINT, "--zeta", "2", "--gamma-db", "inf"],
     "metric.gamma_db: must be finite"),
    (["mgf", *ONE_POINT, "--zeta", "2", "--s", "inf"],
     "mgf needs finite s > 0, got inf"),
    # 10^(x / 10) is a finite positive double from -3236 to 3082 dB
    (["capacity", *ONE_POINT[:4], "--zeta", "2", "--mean-snr-db", "3100"],
     "channel.mean_snr_db: 3100 dB is not a finite positive double once linear"),
    (["capacity", *ONE_POINT[:4], "--zeta", "2", "--mean-snr-db", "-4000"],
     "channel.mean_snr_db: -4000 dB is not a finite positive double once linear"),
    (["cdf", *ONE_POINT, "--zeta", "2", "--gamma-db", "4000"],
     "metric.gamma_db: 4000 dB is not a finite positive double once linear"),
    (["pdf", *ONE_POINT, "--zeta", "2", "--gamma-db", "-4000"],
     "metric.gamma_db: -4000 dB is not a finite positive double once linear"),
    (["outage", *ONE_POINT, "--zeta", "2", "--gamma-th-db", "4000"],
     "metric.gamma_th_db: 4000 dB is not a finite positive double once linear"),
    (["mc", "--metric", "outage", "--gamma-th-db", "4000", *ONE_POINT,
      "--zeta", "2", "--samples", "1000"],
     "metric.gamma_th_db: 4000 dB is not a finite positive double once linear"),
    # a mean SNR that is a double, but not once times mu^2
    (["capacity", *ONE_POINT[:4], "--zeta", "2", "--mean-snr-db", "-3000", "--mu", "1e-160"],
     "channel.mean_snr_db: -3000 dB times mu^2 at mu=1e-160 is not a positive finite double"),
    (["outage", *ONE_POINT, "--zeta", "2", "--rate", "nan"],
     "rate must be finite, got nan"),
    (["outage", *ONE_POINT, "--zeta", "2", "--rate", "inf"],
     "rate must be finite, got inf"),
])
def test_cli_non_finite_inputs_exit_one_naming_the_field(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("x_db, factor, message", [
    (math.nan, 1.0, "must be finite"),
    (-math.inf, 2.0, "must be finite"),
    (3100.0, 1.0, "3100 dB is not a finite positive double once linear"),
    (1600.0, 2.0, "1600 dB is not a finite positive double once linear"),
    (-4000.0, 1.0, "-4000 dB is not a finite positive double once linear"),
])
def test_db_to_linear_names_its_path(x_db, factor, message):
    with pytest.raises(ConfigError) as info:
        db_to_linear(x_db, "sweep.start", factor)
    assert str(info.value) == f"sweep.start: {message}"


@pytest.mark.parametrize("x_db", [-1500.0, -12.5, 0.0, 33.3, 1500.0])
@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_db_to_linear_is_the_power_of_ten(x_db, factor):
    assert db_to_linear(x_db, "sweep.start", factor) == 10.0 ** (factor * x_db / 10.0)


@pytest.mark.parametrize("sweep, scenario, flags, message", [
    ({"start": 3000.0, "stop": 3100.0, "step": 50.0}, {}, [],
     r"sweep\.stop: 3100 dB is not"),
    ({"start": -4000.0, "stop": 0.0, "step": 1000.0}, {}, [],
     r"sweep\.start: -4000 dB is not"),
    ({"start": 1500.0, "stop": 1600.0, "step": 50.0}, {},
     ["--gbar-interpretation", "per-hop"], r"sweep\.stop: 1600 dB is not"),
    ({"variable": "zeta", "start": 1.0, "stop": 2.0, "step": 1.0},
     {"mean_snr_db": 3100.0}, [], r"scenarios\[0\]\.mean_snr_db: 3100 dB is not"),
    ({"variable": "zeta", "start": 1.0, "stop": 2.0, "step": 1.0},
     {"mean_snr_db": 1600.0}, ["--gbar-interpretation", "per-hop"],
     r"scenarios\[0\]\.mean_snr_db: 1600 dB is not"),
    # mu^2 takes the mean SNR at the grid's low end out of the doubles
    ({"start": -3000.0, "stop": -2990.0, "step": 5.0}, {"mu": 1e-160}, [],
     r"scenarios\[0\]\.mu: -3000 dB times mu\^2 at mu=1e-160 is not a positive finite double$"),
    ({"variable": "zeta", "start": 1.0, "stop": 2.0, "step": 1.0},
     {"mean_snr_db": -1500.0, "mu": 1e-160}, ["--gbar-interpretation", "per-hop"],
     r"scenarios\[0\]\.mu: -1500 dB times mu\^2 at mu=1e-160 is not"),
], ids=["stop", "start", "stop-per-hop", "scenario", "scenario-per-hop", "mu", "mu-per-hop"])
def test_config_mean_snr_past_the_double_range_names_the_field(
        tmp_path, capsys, sweep, scenario, flags, message):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"].update(sweep)
    cfg["scenarios"][0].update(scenario)
    path = write_config(tmp_path, cfg)
    if not flags:
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(path)
    assert cli.main(["sweep", "--config", path, *flags,
                     "--out", str(tmp_path / "out.csv")]) == 1
    assert re.match(f"error: {message}", capsys.readouterr().err)


def test_config_metric_field_that_its_metric_does_not_read_names_the_field(tmp_path, capsys):
    # the field went into the curve name and the CSV columns, and an
    # unknown scheme on a capacity metric was not even checked
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "scheme": "foo", "s": 3.0,
                                "gamma_th_db": 5.0}]
    path = write_config(tmp_path, cfg)
    message = "sweep.metrics[0].scheme: capacity takes no scheme"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


MC_OUTAGE = {"name": "outage", "mc": True, "samples": 1000}


@pytest.mark.parametrize("sweep, message", [
    ({"variable": "gamma_th_db", "start": 3000.0, "stop": 3100.0, "metrics": [MC_OUTAGE]},
     "sweep.stop: 3100 dB is not"),
    ({"variable": "gamma_th_db", "start": -4000.0, "stop": 0.0, "metrics": [MC_OUTAGE]},
     "sweep.start: -4000 dB is not"),
    ({"metrics": [{"name": "capacity"}, {**MC_OUTAGE, "gamma_th_db": 3100.0}]},
     "sweep.metrics[1].gamma_th_db: 3100 dB is not"),
], ids=["stop", "start", "fixed"])
def test_mc_outage_threshold_past_the_double_range_names_the_field(
        tmp_path, capsys, sweep, message):
    # the closed-form outage reaches past the doubles, but the Monte Carlo
    # one compares linear SNRs, so the sweep fails before it runs
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"].update(sweep, step=50.0)
    config = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        parse_config(config)
    assert cli.main(["sweep", "--config", config, "--seed", "3",
                     "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    # without the Monte Carlo the same sweep parses
    cfg["sweep"]["metrics"] = [{**metric, "mc": False} for metric in cfg["sweep"]["metrics"]]
    assert parse_config(write_config(tmp_path, cfg)).stop == cfg["sweep"]["stop"]


def test_cli_config_seed_override_is_checked_like_the_config(tmp_path, capsys):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "capacity", "mc": True, "samples": 1000}]
    path = write_config(tmp_path, cfg)
    for seed in ("-1", str(2 ** 64)):
        assert cli.main(["sweep", "--config", path, "--seed", seed,
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == \
            f"error: sweep.seed: must lie in [0, 2^64), got {int(seed)}\n"


def test_config_non_finite_scenario_field_names_it(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["scenarios"][0]["zeta"] = math.nan
    with pytest.raises(ConfigError, match=r"^scenarios\[0\]\.zeta: must be finite$"):
        parse_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("argv", [
    ["ber", *ONE_POINT, "--zeta", "2.0"],
    ["asymptote", *ONE_POINT, "--zeta", "2.0"],
    ["mc", "--metric", "ber", *ONE_POINT, "--zeta", "2.0",
     "--samples", "2000", "--seed", "3"],
], ids=["ber", "asymptote", "mc"])
def test_cli_scheme_is_case_insensitive(capsys, argv):
    outputs = []
    for scheme in ("CBFSK", "cbfsk"):
        assert cli.main([*argv, "--scheme", scheme]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_numerical_failures_exit_two(monkeypatch, capsys):
    def boom(*a, **kw):
        raise MeijerGError("synthetic evaluator failure")
    monkeypatch.setattr(cli, "ergodic_capacity", boom)
    rc = cli.main(["capacity", "--alpha", "4.2", "--beta", "2.5",
                   "--zeta", "2.0", "--mean-snr-db", "10"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_sweep_deterministic_bytes(tmp_path, capsys):
    # identical invocations produce byte-identical CSV files
    cfg = {
        "scenarios": [{"preset": "table2-red-weak", "zeta": 6.1}],
        "sweep": {"variable": "mean_snr_db", "start": 18.0, "stop": 30.0,
                  "step": 4.0,
                  "metrics": [{"name": "outage", "gamma_th_db": 9.0},
                              {"name": "outage", "gamma_th_db": 9.0,
                               "mc": True, "samples": 40000}]},
    }
    cfg_path = write_config(tmp_path, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg_path, "--seed", "42",
                     "--out", str(p1)]) == 0
    assert cli.main(["sweep", "--config", cfg_path, "--seed", "42",
                     "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.stat().st_size > 100


def test_cli_sweep_config_keeps_fields_no_flag_sets(tmp_path, capsys):
    # unset --seed and --gbar-interpretation leave the config's own values;
    # a flag that is given replaces them
    cfg = {"scenarios": MINIMAL["scenarios"],
           "sweep": {"variable": "mean_snr_db", "start": 10.0, "stop": 10.0,
                     "step": 1.0, "gbar_interpretation": "per-hop", "seed": 7,
                     "metrics": [{"name": "capacity"},
                                 {"name": "capacity", "mc": True,
                                  "samples": 2000}]}}
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out.json")
    for flags, capacity, interp, seed in (
            ([], 5.6616, "per-hop", 7),
            (["--gbar-interpretation", "product", "--seed", "3"],
             2.7214, "product", 3)):
        assert cli.main(["sweep", "--config", cfg_path, "--format", "json",
                         "--out", out, *flags]) == 0
        closed, mc = load_curves(out)
        assert closed.y[0] == pytest.approx(capacity, abs=1e-4)
        assert closed.meta["gbar_interpretation"] == interp
        assert mc.meta["seed"] == seed
    capsys.readouterr()
