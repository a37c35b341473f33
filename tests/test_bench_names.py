"""The benchmark's tracer patches package functions by name and reads
fields off their results; every traced (module, function) pair must
still resolve and every field it reads must still exist, so that
deleting or renaming one fails here rather than in a traced benchmark
run."""
from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

from risfso import presets, sweeps
from risfso.special import MeijerGError, MeijerGSpec, meijer_g

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_resolve():
    tracing = _tracing()
    missing = [f"{mod}.{fn}" for mod, fn in tracing.TRACED
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert not missing, missing


def test_traced_meijer_g_fields_exist():
    # the fields tracing._annotate reads off a meijer_g result
    spec = MeijerGSpec(1, 0, (), (0.0,), log_argument=0.0)
    res = meijer_g(spec)
    missing = [a for a in ("value", "abs_error_estimate", "perturbation_note")
               if not hasattr(res, a)]
    assert not missing, missing
    info: dict = {}
    _tracing()._annotate("meijerg.meijer_g", (spec,), res, info)
    assert info["perturbed"] is False
    assert 0.0 <= info["rel_err"] < 1e-9


# names the benchmark reads without tracing them: bench/workloads.py
# builds the figures workload from the presets and the point inputs from
# the parameter table, and bench/selftest.py replaces sweeps._eval_point


def test_untraced_names_the_benchmark_reads():
    assert callable(presets.figure_preset) and callable(sweeps._eval_point)
    assert presets.PRESET_NAMES == ("fig2", "fig3", "fig4", "fig5", "fig6",
                                    "fig7", "fig8", "fig9a", "fig9b")
    assert set(presets.TABLE2) == {(color, level)
                                   for color in ("red", "green", "blue")
                                   for level in ("strong", "moderate", "weak")}


def test_preset_curve_keys_match_the_frozen_figures():
    keys = []
    for preset in presets.PRESET_NAMES:
        spec = presets.figure_preset(preset)
        keys += [f"{preset}|{sc.label}|{metric.label()}"
                 for sc in spec.scenarios for metric in spec.metrics]
    frozen = json.loads((BENCH / "reference_figures.json").read_text(encoding="utf-8"))
    assert len(keys) == len(set(keys)) == 58
    assert set(keys) == set(frozen["curves"])


def test_sweep_looks_up_the_point_evaluator_at_every_point(monkeypatch):
    # the self-test swaps sweeps._eval_point by name and makes its 4th
    # call raise; the point becomes a gap and the curve goes on
    real, calls = sweeps._eval_point, []

    def fourth_point_raises(*args):
        calls.append(1)
        if len(calls) == 4:
            raise MeijerGError("injected")
        return real(*args)

    monkeypatch.setattr(sweeps, "_eval_point", fourth_point_raises)
    spec = sweeps.SweepSpec(variable="mean_snr_db", start=10.0, stop=15.0, step=1.0,
                            metrics=(sweeps.MetricSpec(name="capacity"),),
                            scenarios=(sweeps.ScenarioSpec("x", 4.2, 2.5, 2.0),))
    curve = sweeps.run_sweep(spec)[0]
    assert len(calls) == 6
    assert [math.isnan(y) for y in curve.y] == [False] * 3 + [True] + [False] * 2
    assert curve.meta["failures"] == "x=13: injected"
