"""The benchmark's tracer patches package functions by name and reads
fields off their results; every traced (module, function) pair must
still resolve and every field it reads must still exist, so that
deleting or renaming one fails here rather than in a traced benchmark
run."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

from risfso.special import MeijerGSpec, meijer_g

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
    spec = MeijerGSpec(1, 0, (), (0.0,), 1.0)
    res = meijer_g(spec)
    missing = [a for a in ("value", "abs_error_estimate", "perturbation_note")
               if not hasattr(res, a)]
    assert not missing, missing
    info: dict = {}
    _tracing()._annotate("meijerg.meijer_g", (spec,), res, info)
    assert info["perturbed"] is False
    assert 0.0 <= info["rel_err"] < 1e-9
