"""The benchmark's four workloads: inputs made from a seed, one timed
operation each, and the check that decides whether it failed.

Every call into the package goes through a module attribute
(``metrics.average_ber``, ``sweeps.run_sweep``, ...), so the span
wrappers of ``tracing`` see it when a traced run installs them.
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from risfso import channel, metrics, presets, simulator, statistics, sweeps
from risfso.special import MeijerGError

# exceptions that count as a failed operation rather than a benchmark bug
OP_ERRORS = (MeijerGError, ValueError, ArithmeticError)

REFERENCE = Path(__file__).with_name("reference_figures.json")

# operations in the fixed amount of work a traced run does twice
TRACE_QUANTUM = {"figures": 58, "point-queries": 700, "oracles": 8,
                 "montecarlo": 8}

QUERY_KINDS = ("pdf", "cdf", "mgf", "outage", "capacity", "ber", "asymptote")
MC_KINDS = ("outage", "capacity", "ber", "mgf")
# (twin, detection, table2 row, zeta, scheme, stratum) of the oracle
# cases, in order.  The stratum places the case's mean SNR and threshold
# ratio in one quarter of their ranges, so that each twin meets two of
# the four quarters and a round of the eight cases covers every quarter.
ORACLE_CASES = (
    ("cdf", "HD", "red-strong", 1.1, "DBPSK", 0),
    ("pdf", "HD", "green-moderate", 6.1, "DBPSK", 1),
    ("capacity", "HD", "blue-weak", 1.1, "DBPSK", 0),
    ("ber", "HD", "red-strong", 6.1, "DBPSK", 1),
    ("cdf", "IM_DD", "green-moderate", 6.1, "CBFSK", 2),
    ("pdf", "IM_DD", "blue-weak", 1.1, "CBFSK", 3),
    ("capacity", "IM_DD", "red-strong", 6.1, "CBFSK", 2),
    ("ber", "IM_DD", "green-moderate", 1.1, "CBFSK", 3),
)
ORACLE_STRATA = 4
# the operating points of the tier-1 twin tests (tests/test_statistics.py,
# tests/test_metrics.py, tests/test_acceptance.py): product mean SNR from
# 20 to 35 dB, threshold from 1e-3 to 1e3 times the mean
ORACLE_MEAN_DB = (20.0, 35.0)
ORACLE_RATIO_DB = (-30.0, 30.0)
# relative closed-form-versus-twin tolerances of the tier-1 oracle tests
TWIN_RTOL = {"cdf": 1e-5, "pdf": 1e-5, "capacity": 1e-7, "ber": 1e-7}
# warm-up inputs come from stream indices no measured operation uses
WARM_UP_INDEX = 2 ** 32
MC_SAMPLES = 1_000_000
MC_CYCLE = 8  # cases of each metric in one round of montecarlo
MC_SIGMAS = 5.0
PROBABILITY_METRICS = {"outage", "ber", "cdf", "mgf"}

_ROWS = sorted(presets.TABLE2)
_MODES = (channel.DetectionMode.HD, channel.DetectionMode.IM_DD)
_SCHEMES = tuple(metrics.ModulationScheme)


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: what it runs, its inputs, and the work it stands for
    (closed-form points, twin checks or Monte Carlo samples)."""

    kind: str
    inputs: dict
    work: int


def _db(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _draw(seed: int, index: int, kind: str, j: int, cycle: int = 0) -> Op:
    """Fresh inputs for operation ``index`` of a seeded stream, the
    ``j``-th operation of its kind.

    Each input steps through equal strata of its range, one stratum per
    operation of the kind, and the seed places it inside the stratum.
    Without ``cycle`` the strata counts of mean SNR, threshold and zeta
    are pairwise coprime, so the combinations keep changing, and a long
    run covers the inputs in the same proportions.  With ``cycle`` (a
    multiple of 8) each of them has ``cycle`` strata, visited in three
    different orders, and the detection modes and schemes repeat every 8
    operations: every ``cycle`` operations of a kind then cover the same
    strata and combinations (only the Table 2 row keeps turning), so a
    short run of whole cycles has nearly the same mix as a long one.
    """
    rng = np.random.default_rng([seed, index])
    u = [float(x) for x in rng.random(3)]
    if cycle:
        strata = [((k * j) % cycle, cycle) for k in (3, 1, 5)]
    else:
        strata = [(j, 13), (j, 7), (j, 5)]
    color, level = _ROWS[j % len(_ROWS)]
    alpha, beta = presets.TABLE2[(color, level)]
    inputs = {
        "kind": kind,
        "table2": f"{color}-{level}",
        "alpha": alpha,
        "beta": beta,
        "detection": _MODES[j % 2].name,
        "scheme": _SCHEMES[(j // 2) % len(_SCHEMES)].name,
        "mean_snr_db": 80.0 * _stratum(*strata[0], u[0]),
        "threshold_db": -10.0 + 30.0 * _stratum(*strata[1], u[1]),
        "zeta": 1.1 + 5.0 * _stratum(*strata[2], u[2]),
        "mc_seed": int(rng.integers(2 ** 63)),
    }
    return Op(kind, inputs, 1)


def _stratum(j: int, strata: int, u: float) -> float:
    """Point ``u`` of stratum ``j mod strata`` of [0, 1)."""
    return (j % strata + u) / strata


def _distribution(inp: dict) -> statistics.SnrDistribution:
    # the mean SNR is the end-to-end (product) value, split evenly per hop
    per_hop = math.sqrt(_db(inp["mean_snr_db"]))
    params = channel.cascade_from_constants(
        inp["alpha"], inp["beta"], inp["zeta"],
        channel.DetectionMode[inp["detection"]], per_hop, per_hop)
    return statistics.SnrDistribution(params)


def _closed_form(kind: str, inp: dict):
    dist = _distribution(inp)
    gamma = _db(inp["threshold_db"])
    scheme = metrics.ModulationScheme[inp["scheme"]]
    if kind == "pdf":
        return statistics.pdf(dist, gamma)
    if kind == "cdf":
        return statistics.cdf(dist, gamma)
    if kind == "mgf":
        return statistics.mgf(dist, 1.0 / gamma)
    if kind == "outage":
        return metrics.outage_probability(dist, gamma)
    if kind == "capacity":
        return metrics.ergodic_capacity(dist)
    if kind == "ber":
        return metrics.average_ber(dist, scheme)
    if kind == "asymptote":
        return metrics.asymptotic_ber(dist, scheme)
    raise KeyError(kind)


def _twin(kind: str, inp: dict) -> float:
    dist = _distribution(inp)
    gamma = _db(inp["threshold_db"])
    if kind == "cdf":
        return statistics.cdf_by_quadrature(dist, gamma)
    if kind == "pdf":
        return statistics.pdf_by_product_integral(dist, gamma)
    if kind == "capacity":
        return metrics.ergodic_capacity_by_quadrature(dist)
    if kind == "ber":
        return metrics.average_ber_by_quadrature(
            dist, metrics.ModulationScheme[inp["scheme"]])
    raise KeyError(kind)


def _disagreement(kind: str, got: float, want: float, rtol: float,
                  what: str) -> str:
    """Why ``got`` fails against the reference value ``want``, or ''.
    A value that cannot be compared (non-finite, out of range) fails."""
    why = _value_error(kind, got)
    if why:
        return why
    if not abs(got - want) <= rtol * abs(want):
        return f"{got!r} differs from {what} {want!r} by more than rtol {rtol:g}"
    return ""


def _value_error(kind: str, value: float) -> str:
    """Why a value is wrong on its face, or ''."""
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    if kind in PROBABILITY_METRICS and not 0.0 <= value <= 1.0:
        return f"probability {value!r} outside [0, 1]"
    if value < 0.0:
        return f"negative value {value!r}"
    return ""


class Workload:
    """Operation ``i`` of a workload is ``op(i)``; ``call`` runs it (the
    timed part) and ``check`` judges its output, returning why it failed
    or ''.  A timed run ends on a multiple of ``round_ops`` operations, so
    that it holds whole rounds of the kinds or cases that take turns.

    In a ``referenced`` workload every output is compared with an
    independent reference (the frozen figure values, the quadrature twin,
    the Monte Carlo estimate), so any failure there, including an output
    that cannot be compared or a call that raised, is a mismatch and makes
    the run incorrect.  Point queries have no reference; their failures
    (a raise, a non-finite value, a probability outside [0, 1]) are
    errors: counted and listed, but not a verdict on correctness."""

    name = ""
    round_ops = 1
    referenced = True
    ref_block = "scalar"  # the reference block timings are divided by

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


class Figures(Workload):
    """All nine figure presets, one curve per ``run_sweep`` call, in a
    fixed order; the seed does not change the content."""

    name = "figures"

    def __init__(self, seed: int, reference: dict | None = None) -> None:
        super().__init__(seed)
        self.curves: list[Op] = []
        for preset in presets.PRESET_NAMES:
            spec = presets.figure_preset(preset)
            for sc in spec.scenarios:
                for metric in spec.metrics:
                    one = dataclasses.replace(spec, scenarios=(sc,), metrics=(metric,))
                    key = f"{preset}|{sc.label}|{metric.label()}"
                    self.curves.append(Op(metric.name, {"curve": key, "spec": one},
                                          len(one.grid())))
        if reference is None:
            reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.reference = reference
        # whole passes, so every run weighs each curve equally
        self.round_ops = len(self.curves)

    def op(self, i: int) -> Op:
        return self.curves[i % len(self.curves)]

    def call(self, op: Op):
        return sweeps.run_sweep(op.inputs["spec"])

    def check(self, op: Op, out) -> str:
        want = self.reference["curves"].get(op.inputs["curve"])
        if want is None:
            return "no frozen reference for this curve"
        if len(out) != 1 or len(out[0].y) != len(want):
            return f"expected one curve of {len(want)} points"
        curve = out[0]
        rtol = self.reference["rtol"]
        problems = []
        if "failures" in curve.meta:
            problems.append(f"sweep failures: {curve.meta['failures']}")
        for x, y, ref in zip(curve.x, curve.y, want):
            why = _disagreement(op.kind, y, ref, rtol, "frozen")
            if why:
                problems.append(f"x={x:g}: {why}")
        return "; ".join(problems)

    def warm_up(self) -> None:
        spec = self.curves[0].inputs["spec"]
        sweeps.run_sweep(dataclasses.replace(spec, stop=spec.start))


class PointQueries(Workload):
    """A seeded stream of single public calls sharing nothing; the call
    kinds take turns so every run has the same mix."""

    name = "point-queries"
    round_ops = len(QUERY_KINDS)
    referenced = False

    def op(self, i: int) -> Op:
        n = len(QUERY_KINDS)
        return _draw(self.seed, i, QUERY_KINDS[i % n], i // n)

    def call(self, op: Op):
        return _closed_form(op.kind, op.inputs)

    def check(self, op: Op, out) -> str:
        if op.kind != "asymptote":
            return _value_error(op.kind, out)
        if not out.diversity_order > 0.0:
            return f"diversity order {out.diversity_order!r} not positive"
        est = out.ber_estimate
        return "" if math.isfinite(est) else f"non-finite estimate {est!r}"

    def warm_up(self) -> None:
        for i in range(len(QUERY_KINDS)):
            self.call(self.op(WARM_UP_INDEX + i))


class Oracles(Workload):
    """Seeded cases, each running one quadrature twin against its closed
    form.  A twin call costs from 0.5 s to 10 s depending on the channel
    and the threshold, and a run holds only one or two rounds of the
    eight cases, so each case's channel and stratum are fixed by
    ``ORACLE_CASES``: every twin in both detection modes, over the three
    turbulence levels and both pointing ratios.  The seed places the mean
    SNR and the threshold-to-mean ratio inside the case's stratum of the
    tier-1 ranges.  Every round then does the same mix of work."""

    name = "oracles"
    round_ops = len(ORACLE_CASES)

    def op(self, i: int) -> Op:
        kind, detection, table2, zeta, scheme, stratum = \
            ORACLE_CASES[i % len(ORACLE_CASES)]
        rng = np.random.default_rng([self.seed, i])
        u_mean, u_ratio = (float(x) for x in rng.random(2))
        lo, hi = ORACLE_MEAN_DB
        mean_db = lo + (hi - lo) * _stratum(stratum, ORACLE_STRATA, u_mean)
        lo, hi = ORACLE_RATIO_DB
        ratio_db = lo + (hi - lo) * _stratum(stratum, ORACLE_STRATA, u_ratio)
        alpha, beta = presets.TABLE2[tuple(table2.split("-"))]
        return Op(kind, {
            "kind": kind, "table2": table2, "alpha": alpha, "beta": beta,
            "zeta": zeta, "detection": detection, "mean_snr_db": mean_db,
            "threshold_db": mean_db + ratio_db, "scheme": scheme}, 1)

    def call(self, op: Op):
        return _closed_form(op.kind, op.inputs), _twin(op.kind, op.inputs)

    def check(self, op: Op, out) -> str:
        closed, twin = out
        why = _value_error(op.kind, twin)
        if why:
            return f"twin: {why}"
        why = _disagreement(op.kind, closed, twin, TWIN_RTOL[op.kind], "twin")
        return f"closed form {why}" if why else ""

    def warm_up(self) -> None:
        # closed forms only: one twin call would cost more than the set-up
        for i in range(len(ORACLE_CASES)):
            op = self.op(WARM_UP_INDEX + i)
            _closed_form(op.kind, op.inputs)


class MonteCarlo(Workload):
    """Seeded ``estimate_metric`` cases with 10^6 samples each, checked
    against the closed form; the four metrics take turns.  An estimate
    costs 0.1 to 0.7 s depending on its inputs, and a run holds only 60
    to 120 of them, so a round is ``MC_CYCLE`` cases of each metric
    with the same strata (see ``_draw``)."""

    name = "montecarlo"
    round_ops = len(MC_KINDS) * MC_CYCLE
    ref_block = "vector"

    def op(self, i: int) -> Op:
        n = len(MC_KINDS)
        op = _draw(self.seed, i, MC_KINDS[i % n], i // n, cycle=MC_CYCLE)
        return dataclasses.replace(op, work=MC_SAMPLES)

    def call(self, op: Op):
        return _estimate(op, MC_SAMPLES)

    def check(self, op: Op, out) -> str:
        try:
            closed = _closed_form(op.kind, op.inputs)
        except OP_ERRORS as exc:
            return f"closed form raised {type(exc).__name__}: {exc}"
        why = _value_error(op.kind, out.mean) or _value_error(op.kind, closed)
        if why:
            return why
        # a zero-event estimate has std_error 0; 1/N keeps the test fair
        sigma = max(out.std_error, 1.0 / out.sample_count)
        if not abs(out.mean - closed) <= MC_SIGMAS * sigma:
            return (f"MC {out.mean!r} +- {out.std_error!r} is more than "
                    f"{MC_SIGMAS:g} standard errors from closed form {closed!r}")
        return ""

    def warm_up(self) -> None:
        for i in range(len(MC_KINDS)):
            _estimate(self.op(WARM_UP_INDEX + i), 10_000)


def _estimate(op: Op, samples: int):
    inp = op.inputs
    per_hop = math.sqrt(_db(inp["mean_snr_db"]))
    chan = simulator.McChannel(
        zeta2=inp["zeta"] ** 2, alpha=inp["alpha"], beta=inp["beta"],
        a=channel.DetectionMode[inp["detection"]].a,
        mean_snr_h=per_hop, mean_snr_g=per_hop)
    cfg = simulator.McConfig(sample_count=samples, seed=inp["mc_seed"])
    gamma = _db(inp["threshold_db"])
    scheme = metrics.ModulationScheme[inp["scheme"]]
    kwargs = {"outage": {"gamma_th": gamma},
              "capacity": {},
              "ber": {"p": scheme.p, "q": scheme.q},
              "mgf": {"s": 1.0 / gamma}}[op.kind]
    return simulator.estimate_metric(op.kind, chan, cfg, **kwargs)


def make(name: str, seed: int) -> Workload:
    classes = {cls.name: cls for cls in (Figures, PointQueries, Oracles, MonteCarlo)}
    return classes[name](seed)
