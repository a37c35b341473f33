"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

It runs every workload at a tiny size, untraced and traced, and checks
that the result line carries exactly the metrics ``BENCHMARK.json``
names, each with its unit, and that the detail line carries the
per-workload metric names.  It checks that two traced runs count the
same work, that a corrupted frozen reference is counted as a failed
operation, and that the benchmark exits non-zero without printing a
result when the package is missing.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from risfso.special import MeijerGError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "points_per_s": "points/s", "curve_ms_p50": "ms", "curve_ms_tail": "ms",
    "query_ms_p50": "ms", "query_ms_tail": "ms", "checks_per_s": "checks/s",
    "check_s_p50": "s", "mc_samples_per_s": "samples/s",
}
NAMED_BY_WORKLOAD = {
    "figures": {"points_per_s", "curve_ms_p50", "curve_ms_tail"},
    "point-queries": {"points_per_s", "query_ms_p50", "query_ms_tail"},
    "oracles": {"checks_per_s", "check_s_p50"},
    "montecarlo": {"mc_samples_per_s"},
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)


def run_cli(argv: list[str]) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    expect(code == 0, f"{argv} exited {code}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{argv}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{argv}: nothing attempted")
    return result, json.loads(lines[-2])["detail"]


def check_metrics(result: dict, wanted: list[dict], label: str) -> None:
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in wanted},
           f"{label}: metrics {sorted(set(got) ^ {m['name'] for m in wanted})} "
           "missing or unexpected")
    for m in wanted:
        value = got[m["name"]]
        expect(value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']}")
        expect(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
               f"{label}: {m['name']} value {value['value']!r}")


def main() -> None:
    import workloads

    for name in run.WORKLOADS:
        workloads.TRACE_QUANTUM[name] = 1
        argv = ["--workload", name, "--seed", "1", "--seconds", "0.2"]
        result, detail = run_cli(argv + ["--trace", "0"])
        check_metrics(result, SPEC["end_to_end"], f"{name} untraced")
        named = detail["named_metrics"]
        for key in NAMED_BY_WORKLOAD[name] | {"setup_s", "peak_rss_mb", "failed_frac"}:
            expect(key in named and named[key]["unit"] == NAMED_UNITS[key],
                   f"{name}: named metric {key} missing or with a wrong unit")
        for key in ("provenance", "tail_percentile", "samples", "cpu_over_wall"):
            expect(key in detail, f"{name}: detail lacks {key}")
        traced = [run_cli(argv + ["--trace", "1"])[0] for _ in range(2)]
        check_metrics(traced[0], SPEC["per_layer"], f"{name} traced")
        for m in SPEC["per_layer"]:
            if m["unit"] == "count":
                a, b = (t["metrics"][m["name"]]["value"] for t in traced)
                expect(a == b, f"{name}: {m['name']} counted {a} then {b}")
        print(f"selftest: {name}: metrics and units present, traced counts repeat")

    figures = workloads.Figures(seed=0)
    op = figures.op(0)
    expect(run.measure(figures, count=1)["failures"] == [],
           "figures: first curve fails against its own reference")
    corrupted = copy.deepcopy(figures.reference)
    corrupted["curves"][op.inputs["curve"]][3] *= 1.0 + 1e-6
    failures = run.measure(workloads.Figures(seed=0, reference=corrupted),
                           count=1)["failures"]
    expect(len(failures) == 1 and not run.is_correct(failures),
           "figures: a corrupted reference value was not counted as a mismatch")
    print("selftest: a corrupted frozen reference is counted as a failed operation")

    # run_sweep records NaN and a failures entry when a point raises
    eval_point, calls = workloads.sweeps._eval_point, []

    def fourth_point_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise MeijerGError("injected by the self-test")
        return eval_point(*args, **kwargs)

    workloads.sweeps._eval_point = fourth_point_raises
    try:
        failures = run.measure(figures, count=1)["failures"]
    finally:
        workloads.sweeps._eval_point = eval_point
    expect(len(failures) == 1 and "nan" in failures[0]["why"]
           and not run.is_correct(failures),
           "figures: a NaN point did not make the run incorrect")
    print("selftest: a NaN figure point makes the run incorrect")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "figures",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the package the benchmark must exit non-zero and print nothing")
    print("selftest: without the package it exits non-zero and prints no result")
    print("selftest: OK")


if __name__ == "__main__":
    main()
