"""Benchmark of the risfso closed forms, their oracles and the Monte Carlo.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 15 --trace 0

One process with one thread drives the package's public functions in a
closed loop for ``--seconds`` seconds and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the details: provenance, the metrics under
their per-workload names, tail percentiles with sample counts, and every
failed operation with its inputs.  ``--trace 1`` runs a fixed amount of
work twice, untraced and then traced, and reports per-layer metrics and
the tracing overhead instead.  See ``bench/README.md``.
"""
from __future__ import annotations

import os
import sys

# one thread: pin BLAS and OpenMP before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("figures", "point-queries", "oracles", "montecarlo")

# set-ups per untraced run, each in a fresh process but this one's own
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
SLICE_S = 0.25  # seconds of operations between two reference blocks
FAILURES_LISTED = 100  # the detail line lists at most this many, in order

# per-workload names of the timings, as (name, timing, unit, scale).  The
# tails appear only here: on a shared host they spread by up to a third
# between runs of the same code, too much to carry a bound of 0.25.
NAMED = {
    "figures": (("points_per_s", "work_per_s", "points/s", 1.0),
                ("curve_ms_p50", "op_ms_p50", "ms", 1.0),
                ("curve_ms_tail", "op_ms_tail", "ms", 1.0)),
    "point-queries": (("points_per_s", "work_per_s", "points/s", 1.0),
                      ("query_ms_p50", "op_ms_p50", "ms", 1.0),
                      ("query_ms_tail", "op_ms_tail", "ms", 1.0)),
    "oracles": (("checks_per_s", "work_per_s", "checks/s", 1.0),
                ("check_s_p50", "op_ms_p50", "s", 1e-3)),
    "montecarlo": (("mc_samples_per_s", "work_per_s", "samples/s", 1.0),),
}
TIMING_NOTE = ("one single-threaded process on a shared host: wall time equals "
               "CPU time (cpu_over_wall), so run-to-run spread comes from the "
               "host's speed, not from scheduling")


def setup(workload: str, seed: int):
    """Import the package, make the workload's inputs and warm it up.

    Returns the workload and ``{"setup_s", "ref_s"}``: the set-up time,
    and the median of three reference blocks timed right after it.

    Imports use Python's bytecode cache as usual.  In a fresh checkout
    the first set-up compiles the package and writes the cache, and the
    later ones read it, so the median of the set-ups is an import with
    the cache present, whether or not anything ran before."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads

    wl = workloads.make(workload, seed)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    import reference

    ref_s = statistics.median(reference.block_seconds() for _ in range(3))
    return wl, {"setup_s": setup_s, "ref_s": ref_s}


def measure(wl, *, seconds: float | None = None, count: int | None = None,
            calibrate: bool = False) -> dict:
    """Closed loop over ``wl.op(0), wl.op(1), ...`` until ``seconds`` have
    passed at the end of a round, or ``count`` operations are done,
    timing each call.

    With ``calibrate``, a reference block of the workload's kind is timed
    before the first operation and after every ``SLICE_S`` seconds of
    operations; ``refs`` holds their times, and ``local_refs`` holds, for
    each operation, the mean of the two blocks timed just before and just
    after its slice.
    """
    import reference
    from workloads import OP_ERRORS

    clock = time.perf_counter
    times, work, failures, slice_of = [], 0, [], []
    block = reference.BLOCKS[wl.ref_block]
    refs = [block()] if calibrate else []
    start, cpu0 = clock(), time.process_time()
    slice_start = start
    i = 0
    while True:
        op = wl.op(i)
        t0 = clock()
        try:
            out = wl.call(op)
            why = ""
        except OP_ERRORS as exc:
            why = f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        if not why:
            why = wl.check(op, out)
        times.append(dt)
        slice_of.append(len(refs) - 1)
        work += op.work
        if why:
            failures.append({"op": i, "inputs": _plain(op.inputs), "why": why,
                             "class": "mismatch" if wl.referenced else "error"})
        i += 1
        done = (count is not None and i >= count) or (
            seconds is not None and i % wl.round_ops == 0
            and clock() - start >= seconds)
        if calibrate and (done or clock() - slice_start >= SLICE_S):
            refs.append(block())
            slice_start = clock()
        if done:
            break
    wall = clock() - start
    local_refs = [0.5 * (refs[k] + refs[k + 1]) for k in slice_of] if calibrate else []
    return {"times": times, "refs": refs, "local_refs": local_refs, "work": work,
            "failures": failures, "wall": wall, "cpu": time.process_time() - cpu0}


def is_correct(failures: list[dict]) -> bool:
    """True unless an output disagreed with, or could not be compared
    with, its independent reference (see ``workloads.Workload``)."""
    return not any(f["class"] == "mismatch" for f in failures)


def _plain(inputs: dict) -> dict:
    return {k: v for k, v in inputs.items() if isinstance(v, (str, int, float))}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ``TAIL_BEYOND`` samples above it, or of the maximum when there are
    too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced(args, wl, setups: list[dict]) -> tuple[dict, dict, dict]:
    import reference

    run = measure(wl, seconds=args.seconds, calibrate=True)
    times = run["times"]
    # each operation in units of the reference blocks timed around it, so
    # that a slowdown of the host within the run cancels out
    in_refs = [t / r for t, r in zip(times, run["local_refs"])]
    tail_s, tail_pct = tail(times)
    timings = {"work_per_s": run["work"] / sum(times),
               "op_ms_p50": 1e3 * statistics.median(times),
               "op_ms_tail": 1e3 * tail_s}
    bounded = {
        "setup_s": (reference.NOMINAL_S * statistics.median(
            s["setup_s"] / s["ref_s"] for s in setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "work_per_ref": (run["work"] / sum(in_refs), "1/ref"),
        "op_p50_ref": (statistics.median(in_refs), "ref"),
    }
    named = {"setup_s": bounded["setup_s"], "peak_rss_mb": bounded["peak_rss_mb"],
             "failed_frac": (len(run["failures"]) / len(times), "ratio")}
    for name, timing, unit, scale in NAMED[args.workload]:
        named[name] = (timings[timing] * scale, unit)
    detail = {
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail_percentile": tail_pct,
        "samples": len(times),
        "setups": setups,
        "ref_block_ms_p50": 1e3 * statistics.median(run["refs"]),
        "wall_s": run["wall"],
        "cpu_s": run["cpu"],
        "cpu_over_wall": run["cpu"] / run["wall"],
    }
    return run, {k: {"value": v, "unit": u} for k, (v, u) in bounded.items()}, detail


def traced(args, wl) -> tuple[dict, dict, dict]:
    import tracing
    from workloads import TRACE_QUANTUM

    quantum = TRACE_QUANTUM[args.workload]
    plain = measure(wl, count=quantum)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = measure(wl, count=quantum)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.untraced_s"] = plain["wall"]
    layers["trace.overhead_s"] = run["wall"] - plain["wall"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall"]
    run["failures"] = plain["failures"] + run["failures"]
    run["times"] = plain["times"] + run["times"]
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
    detail = {"quantum_ops": quantum, "traced_wall_s": run["wall"],
              "untraced_wall_s": plain["wall"]}
    return run, metrics, detail


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_in_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60.0, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "timing_note": TIMING_NOTE,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=10.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown: git not available"
    lines = done.stdout.split()
    if done.returncode != 0 or Path(lines[0]).resolve() != ROOT:
        return "unknown: not a git checkout"
    return lines[1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "risfso" / "__init__.py").is_file():
        print(f"bench: no risfso package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or not 0.0 < args.seconds < float("inf"):
        print("bench: --seed must be >= 0 and --seconds positive and finite",
              file=sys.stderr)
        return 2

    if args.setup_only:
        print(json.dumps(setup(args.workload, args.seed)[1]))
        return 0

    started = time.perf_counter()
    setups = [] if args.trace else [_setup_in_child(args)
                                    for _ in range(SETUP_REPEATS - 1)]
    wl, own_setup = setup(args.workload, args.seed)
    setups.append(own_setup)
    if args.trace:
        run, metrics, detail = traced(args, wl)
    else:
        run, metrics, detail = untraced(args, wl, setups)
    failures = run["failures"]
    detail = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed),
              **detail, "failures_total": len(failures),
              "failures": failures[:FAILURES_LISTED],
              "elapsed_s": time.perf_counter() - started}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": is_correct(failures), "attempted": len(run["times"]),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
