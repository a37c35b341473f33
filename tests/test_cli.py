"""Configuration parsing, sweeps, serialization and the CLI surface."""
from __future__ import annotations

import json
import math

import pytest

from conftest import load_curves
from risfso import cli
from risfso.presets import figure_preset
from risfso.special import MeijerGError
from risfso.sweeps import (
    ConfigError,
    MetricCurve,
    MetricSpec,
    ScenarioSpec,
    SweepSpec,
    emit,
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


@pytest.mark.parametrize("key, value, message", [
    ("stop", math.inf, "sweep.stop: must be finite"),
    ("start", math.nan, "sweep.start: must be finite"),
    ("step", 1e-300, "sweep.step: gives more than"),
])
def test_parse_rejects_non_finite_and_runaway_grids(tmp_path, key, value,
                                                    message):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"][key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_bad_metric(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["sweep"]["metrics"] = [{"name": "ber"}]
    with pytest.raises(ConfigError, match="needs a scheme"):
        parse_config(write_config(tmp_path, cfg))
    cfg["sweep"]["metrics"] = [{"name": "outage"}]
    with pytest.raises(ConfigError, match="gamma_th_db"):
        parse_config(write_config(tmp_path, cfg))


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


def test_point_failures_recorded_as_gaps(monkeypatch):
    # one bad grid point yields NaN plus a diagnostic, not an abort
    import risfso.sweeps as sweeps_mod

    real = sweeps_mod.outage_probability

    def flaky(dist, gamma_th):
        if abs(dist.mean_snr - 10.0 ** 2.2) < 1e-6:
            raise MeijerGError("synthetic failure at 22 dB")
        return real(dist, gamma_th)

    monkeypatch.setattr(sweeps_mod, "outage_probability", flaky)
    spec = SweepSpec(variable="mean_snr_db", start=20.0, stop=24.0, step=2.0,
                     metrics=(MetricSpec(name="outage", gamma_th_db=6.0),),
                     scenarios=(ScenarioSpec("x", 4.2, 2.5, 2.0),))
    curve = run_sweep(spec)[0]
    assert math.isnan(curve.y[1])
    assert math.isfinite(curve.y[0]) and math.isfinite(curve.y[2])
    assert "synthetic failure" in curve.meta["failures"]


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
])
def test_cli_field_errors_name_the_field(capsys, argv, message):
    # the CLI's channel and MC flags go through the JSON config parser
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
