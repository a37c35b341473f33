"""Regenerate the frozen per-point references of the ``figures`` workload.

Run from the repository root at the commit the references should come
from:

    python3 bench/make_reference.py

It evaluates every curve of the nine figure presets and writes
``bench/reference_figures.json`` with the commit it ran at.  The
benchmark compares each point to these values with relative tolerance
``RTOL``: two orders above the evaluator's 1e-10 target, so a change at
that level passes and a wrong value does not.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

RTOL = 1e-8


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    figures = workloads.Figures(seed=0, reference={"curves": {}, "rtol": RTOL})
    curves = {}
    for op in figures.curves:
        (curve,) = figures.call(op)
        curves[op.inputs["curve"]] = curve.y
    payload = {"commit": commit, "rtol": RTOL,
               "points": sum(len(y) for y in curves.values()), "curves": curves}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=0) + "\n",
                                   encoding="utf-8")
    print(f"wrote {payload['points']} points of {len(curves)} curves "
          f"at {commit} to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
