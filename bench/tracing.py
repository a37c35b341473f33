"""Span tracing of the risfso layers, installed from outside the package.

``Tracer.install`` replaces each traced function on every ``risfso``
module attribute bound to it, so a call that crosses a layer boundary
goes through a wrapper that records one span: its name, start, end, the
span that was open when it started, and a few counts taken at the
boundary.  Spans stay in memory until ``layer_metrics`` reduces them.
Nothing inside ``src/`` is edited; ``uninstall`` restores the originals.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# (module, function) -> span name; the layer is the part before the dot
TRACED = {
    ("risfso.special.gammafn", "loggamma_complex"): "gammafn.loggamma",
    ("risfso.special.quadrature", "gauss_kronrod"): "quadrature.gk",
    ("risfso.special.meijerg", "meijer_g"): "meijerg.meijer_g",
    **{("risfso.statistics", fn): f"statistics.{fn}" for fn in (
        "pdf", "cdf", "mgf", "subchannel_pdf", "cdf_by_quadrature",
        "pdf_by_product_integral")},
    **{("risfso.metrics", fn): f"metrics.{fn}" for fn in (
        "outage_probability", "ergodic_capacity", "average_ber",
        "asymptotic_ber", "ergodic_capacity_by_quadrature",
        "average_ber_by_quadrature")},
    ("risfso.simulator", "estimate_metric"): "simulator.estimate",
    ("risfso.simulator", "sample_end_to_end_snr"): "simulator.sample",
    ("risfso.sweeps", "run_sweep"): "sweeps.run_sweep",
}

# quadrature twins: their meijer_g children are the oracle's cost
TWINS = {
    "statistics.cdf_by_quadrature", "statistics.pdf_by_product_integral",
    "metrics.ergodic_capacity_by_quadrature", "metrics.average_ber_by_quadrature",
}

# (m, n, p, q) of every G-function the public closed forms build, for
# both detection exponents; any other shape is counted as "other"
SHAPES = ((6, 0, 2, 6), (6, 1, 3, 7), (6, 2, 4, 7), (8, 1, 4, 8),
          (12, 1, 5, 13), (12, 2, 6, 13), (14, 1, 6, 14), (3, 0, 1, 3))
MC_METRICS = ("outage", "capacity", "ber", "mgf")


def shape_name(shape) -> str:
    return "G" + "-".join(str(v) for v in shape) if shape in SHAPES else "other"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, info dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info: dict = {}
            if name == "gammafn.loggamma":
                info["points"] = int(np.size(args[0]))
            elif name == "quadrature.gk":
                args = (_counting(args[0], info),) + args[1:]
            elif name == "meijerg.meijer_g":
                spec = args[0]
                info["shape"] = shape_name((spec.m, spec.n, spec.p, spec.q))
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, info])
            stack.append(len(spans) - 1)
            span = spans[-1]
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _annotate(name, args, out, info)
            return out

        return wrapper

    def install(self) -> None:
        risfso_modules = [m for k, m in sorted(sys.modules.items())
                          if k == "risfso" or k.startswith("risfso.")]
        for (modname, fn_name), span_name in TRACED.items():
            orig = getattr(sys.modules[modname], fn_name)
            wrapper = self._wrap(span_name, orig)
            for mod in risfso_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def _counting(f, info: dict):
    info["points"] = 0

    def counted(t):
        info["points"] += int(np.size(t))
        return f(t)

    return counted


def _annotate(name: str, args, out, info: dict) -> None:
    if name == "meijerg.meijer_g":
        info["perturbed"] = bool(out.perturbation_note)
        info["rel_err"] = (out.abs_error_estimate / abs(out.value)
                           if out.value != 0.0 else 0.0)
    elif name == "simulator.estimate":
        info["metric"] = args[0]
        info["samples"] = out.sample_count
    elif name == "sweeps.run_sweep":
        info["curves"] = len(out)
        info["points"] = sum(len(c.y) for c in out)
        info["failures"] = sum(1 for c in out for y in c.y if y != y)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios from a finished trace."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    # parents precede their children in ``spans``
    mg_anc = [-1] * n
    twin_anc = [-1] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            mg_anc[i] = mg_anc[parent]
            twin_anc[i] = twin_anc[parent]
        if name == "meijerg.meijer_g":
            mg_anc[i] = i
        if name in TWINS:
            twin_anc[i] = i

    self_s: Counter = Counter()
    calls: Counter = Counter()
    shape_calls: Counter = Counter()
    out: dict[str, float] = {}
    lg_points = lg_points_in_mg = gk_points = 0
    perturbed = 0
    worst_rel = 0.0
    twin_calls: Counter = Counter()
    twin_mg: Counter = Counter()
    samples = 0
    sample_s = 0.0
    mc_time: Counter = Counter()
    mc_samples: Counter = Counter()
    sweep: Counter = Counter()
    for i, (name, _, _, _, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += dur[i] - child[i]
        calls[name] += 1
        calls[layer] += 1
        if name == "gammafn.loggamma":
            lg_points += info["points"]
            if mg_anc[i] >= 0:
                lg_points_in_mg += info["points"]
        elif name == "quadrature.gk":
            gk_points += info["points"]
        elif name == "meijerg.meijer_g":
            shape_calls[info["shape"]] += 1
            perturbed += info.get("perturbed", False)
            worst_rel = max(worst_rel, info.get("rel_err", 0.0))
            if twin_anc[i] >= 0:
                twin_mg[spans[twin_anc[i]][0].split(".", 1)[0]] += 1
        elif name == "simulator.estimate" and info:
            mc_time[info["metric"]] += dur[i]
            mc_samples[info["metric"]] += info["samples"]
            samples += info["samples"]
        elif name == "simulator.sample":
            sample_s += dur[i]
        elif name == "sweeps.run_sweep" and info:
            sweep.update({k: info[k] for k in ("curves", "points", "failures")})
        if name in TWINS:
            twin_calls[layer] += 1

    mg_calls = calls["meijerg.meijer_g"]
    out["gammafn.loggamma_calls"] = calls["gammafn.loggamma"]
    out["gammafn.loggamma_points"] = lg_points
    out["gammafn.self_s"] = self_s["gammafn"]
    out["gammafn.ns_per_point"] = _ratio(1e9 * self_s["gammafn"], lg_points)
    out["meijerg.calls"] = mg_calls
    for shape in SHAPES:
        out[f"meijerg.calls.{shape_name(shape)}"] = shape_calls[shape_name(shape)]
    out["meijerg.calls.other"] = shape_calls["other"]
    out["meijerg.self_s"] = self_s["meijerg"]
    out["meijerg.points_per_call"] = _ratio(lg_points_in_mg, mg_calls)
    out["meijerg.perturbed_frac"] = _ratio(perturbed, mg_calls)
    out["meijerg.worst_rel_err_est"] = worst_rel
    out["quadrature.gk_calls"] = calls["quadrature.gk"]
    out["quadrature.integrand_points"] = gk_points
    out["quadrature.self_s"] = self_s["quadrature"]
    for layer in ("statistics", "metrics"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.oracle_meijerg_per_call"] = _ratio(twin_mg[layer],
                                                         twin_calls[layer])
    out["simulator.samples"] = samples
    out["simulator.sample_s"] = sample_s
    out["simulator.estimate_self_s"] = self_s["simulator"] - sample_s
    for metric in MC_METRICS:
        out[f"simulator.ns_per_sample.{metric}"] = _ratio(
            1e9 * mc_time[metric], mc_samples[metric])
    out["sweeps.points"] = sweep["points"]
    out["sweeps.curves"] = sweep["curves"]
    out["sweeps.failures"] = sweep["failures"]
    out["sweeps.self_s"] = self_s["sweeps"]
    out["trace.spans"] = n
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("rel_err_est"):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    # a layer that did no work on this workload reports 0
    return num / den if den else 0.0
