"""The benchmark's tracer patches package functions by name; every
traced (module, function) pair must still resolve, so that deleting or
renaming one fails here rather than in a traced benchmark run."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_functions_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
    missing = [f"{mod}.{fn}" for mod, fn in tracing.TRACED
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert not missing, missing
