"""Sweep configuration, execution and CSV/JSON serialization.

A sweep is a grid over one variable (mean SNR in dB, outage threshold
in dB, or the pointing ratio zeta) evaluated for every scenario-metric
combination.  The closed-form points of a curve are evaluated together,
in one batched contour pass.  Evaluation failures at single grid points
are recorded as NaN gaps with a diagnostic in the curve metadata rather
than aborting the sweep.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, replace

from .channel import (TABLE2, WAVELENGTH_NM, DetectionMode, LinkScenario,
                      alpha_beta, cascade_from_constants)
from .metrics import ModulationScheme, ber_form, capacity_form
from .simulator import McChannel, McConfig, McEstimate, estimate_metric
from .special import MeijerGError
from .statistics import (
    FormFamily,
    RisElement,
    SnrDistribution,
    cdf_form,
    evaluate_batch,
    mgf_form,
)

__all__ = [
    "ConfigError",
    "MetricCurve",
    "MetricSpec",
    "ScenarioSpec",
    "SweepSpec",
    "db_to_linear",
    "distribution",
    "emit",
    "link_scenario",
    "mc_estimate",
    "metric_spec",
    "parse_config",
    "run_sweep",
    "scenario_spec",
    "table2_constants",
]

VARIABLES = ("mean_snr_db", "gamma_th_db", "zeta")
INTERPRETATIONS = ("product", "per-hop")
METRICS = ("outage", "capacity", "ber", "mgf")
# far above the largest bundled preset (81 points per curve)
MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    """Schema violation; the message carries the offending field path."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One resolved channel configuration for sweeping."""

    label: str
    alpha: float
    beta: float
    zeta: float
    detection: DetectionMode = DetectionMode.HD
    mean_snr_db: float | None = None
    mu: float = 1.0


@dataclass(frozen=True)
class MetricSpec:
    name: str
    gamma_th_db: float | None = None
    scheme: str | None = None
    s: float | None = None
    mc: bool = False
    samples: int = 200_000

    def label(self) -> str:
        parts = [self.name]
        if self.scheme:
            parts.append(self.scheme)
        if self.gamma_th_db is not None:
            parts.append(f"gth{self.gamma_th_db:g}dB")
        if self.s is not None:
            parts.append(f"s{self.s:g}")
        if self.mc:
            parts.append("mc")
        return "-".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    step: float
    metrics: tuple[MetricSpec, ...]
    scenarios: tuple[ScenarioSpec, ...]
    gbar_interpretation: str = "product"
    seed: int = 0
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self) -> None:
        # checked here, so that a spec built in code or overridden by
        # dataclasses.replace is checked like the config's own fields
        _require(self.variable in VARIABLES, "sweep.variable",
                 f"must be one of {VARIABLES}")
        _require(self.step > 0, "sweep.step", "must be > 0")
        _require(self.stop >= self.start, "sweep.stop", "must be >= start")
        _require((self.stop - self.start) / self.step < MAX_GRID_POINTS, "sweep.step",
                 f"gives more than {MAX_GRID_POINTS} grid points")
        for i, metric in enumerate(self.metrics):
            _check_metric(metric, f"sweep.metrics[{i}]", self.variable)
        _require(self.gbar_interpretation in INTERPRETATIONS,
                 "sweep.gbar_interpretation", f"must be one of {INTERPRETATIONS}")
        _field(vars(self), "seed", "sweep", _seed)
        if self.variable == "zeta":
            _require(self.start > 0, "sweep.start", "must be > 0 when sweeping zeta")
        if self.variable == "mean_snr_db":
            mean_snrs = [(self.start, "sweep.start"), (self.stop, "sweep.stop")]
        else:
            mean_snrs = [(sc.mean_snr_db, f"scenarios[{i}].mean_snr_db")
                         for i, sc in enumerate(self.scenarios)]
        for x_db, path in mean_snrs:
            _require(x_db is not None, path, f"required when sweeping {self.variable}")
            _hop_mean_snr(x_db, self.gbar_interpretation, 1.0, path)
        # mu^2 can take the mean SNR out of the doubles at the grid's low end
        for i, sc in enumerate(self.scenarios):
            low = self.start if self.variable == "mean_snr_db" else sc.mean_snr_db
            _hop_mean_snr(low, self.gbar_interpretation, sc.mu, f"scenarios[{i}].mu")
        # the Monte Carlo outage takes its threshold linear (mc_estimate)
        if self.variable == "gamma_th_db" and any(
                m.mc and m.name == "outage" for m in self.metrics):
            for x_db, path in ((self.start, "sweep.start"), (self.stop, "sweep.stop")):
                db_to_linear(x_db, path)

    def grid(self) -> list[float]:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(n)]


@dataclass
class MetricCurve:
    x: list[float]
    y: list[float]
    meta: dict

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


# ---------------------------------------------------------------------------
# config parsing


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _field(obj: dict, key: str, path: str, convert=float, default=None):
    """``convert(obj[key])``, or ``default`` when ``key`` is absent; a
    value that ``convert`` rejects, or a float that is not finite,
    raises ConfigError naming the field."""
    if key not in obj:
        return default
    try:
        value = convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None
    _require(not isinstance(value, float) or math.isfinite(value),
             f"{path}.{key}", "must be finite")
    return value


def _integer(value) -> int:
    """A JSON integer; a float, a bool or a string raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _seed(value) -> int:
    """A Monte Carlo seed: a JSON integer in [0, 2^64)."""
    if not 0 <= _integer(value) < 2 ** 64:
        raise ValueError(f"must lie in [0, 2^64), got {value}")
    return value


def db_to_linear(x_db: float, path: str, factor: float = 1.0) -> float:
    """10^(factor x_db / 10); a value that is not a finite positive double
    raises ConfigError naming ``path``, its message formatted only then."""
    _require(math.isfinite(x_db), path, "must be finite")
    try:
        value = 10.0 ** (factor * x_db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{path}: {x_db:g} dB is not a finite positive double once linear")
    return value


def _hop_mean_snr(x_db: float, interpretation: str, mu: float, path: str) -> float:
    """The mean SNR of each hop, both equal, at ``x_db``: the product mean
    SNR, or under ``per-hop`` one hop's.  One whose product times mu^2 is
    not a positive finite double raises ConfigError naming ``path``."""
    hop = math.sqrt(db_to_linear(x_db, path, 2.0 if interpretation == "per-hop" else 1.0))
    if not 0.0 < hop * hop * mu ** 2 < math.inf:  # formats its message only on failure
        raise ConfigError(f"{path}: {x_db:g} dB times mu^2 at mu={mu!r} "
                          "is not a positive finite double")
    return hop


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            warnings.warn(f"unknown key {path}.{key}", UserWarning)


_LINK_DEFAULTS = {"distance_m": 1000.0, "aperture_diameter_mm": 1.0,
                  "receiver_radius_m": 0.1, "beam_waist_m": 1.0,
                  "attenuation_per_km": 0.0, "color": "red"}


def table2_constants(name: str, path: str) -> tuple[float, float]:
    """(alpha, beta) behind a ``table2-<color>-<level>`` preset name."""
    prefix, _, key = name.partition("-")
    color, _, level = key.partition("-")
    if prefix != "table2" or (color, level) not in TABLE2:
        raise ConfigError(
            f"{path}: unknown preset {name!r}; expected "
            "table2-<red|blue|green>-<strong|moderate|weak>")
    return TABLE2[(color, level)]


def link_scenario(fields: dict, detection: DetectionMode,
                  path: str) -> LinkScenario:
    """Physical link from user units (nm, m, mm, 1/km).

    ``fields`` uses the JSON scenario keys; ``wavelength_nm`` wins over
    ``color``, and every key but ``cn2`` and ``zeta`` has a default.
    """
    f = {**_LINK_DEFAULTS, **fields}
    wavelength_nm = _field(f, "wavelength_nm", path)
    if wavelength_nm is None:
        color = str(f["color"])
        _require(color in WAVELENGTH_NM, f"{path}.color",
                 f"must be one of {sorted(WAVELENGTH_NM)}")
        wavelength_nm = WAVELENGTH_NM[color]
    return LinkScenario(
        wavelength=wavelength_nm * 1e-9,
        distance=_field(f, "distance_m", path),
        aperture_diameter=_field(f, "aperture_diameter_mm", path) * 1e-3,
        cn2=_field(f, "cn2", path),
        receiver_radius=_field(f, "receiver_radius_m", path),
        beam_waist=_field(f, "beam_waist_m", path),
        attenuation=_field(f, "attenuation_per_km", path) * 1e-3,
        zeta=_field(f, "zeta", path),
        detection=detection,
    )


def mc_estimate(metric: MetricSpec, dist: SnrDistribution, config: McConfig,
                gamma_th_db: float | None) -> McEstimate:
    """Monte Carlo estimate of a ``metric_spec``-validated metric on the
    sampled twin of ``dist``; ``gamma_th_db`` is the outage threshold at
    this point."""
    p = dist.params
    hop = math.sqrt(p.mean_snr)
    chan = McChannel(zeta2=p.zeta2, alpha=p.alpha, beta=p.beta, a=p.a,
                     mean_snr_h=hop, mean_snr_g=hop, mu=dist.ris.mu)
    kw: dict = {}
    if metric.name == "outage":
        kw["gamma_th"] = db_to_linear(gamma_th_db, "metric.gamma_th_db")
    elif metric.name == "ber":
        sch = ModulationScheme.from_name(metric.scheme)
        kw.update(p=sch.p, q=sch.q)
    elif metric.name == "mgf":
        kw["s"] = metric.s
    return estimate_metric(metric.name, chan, config, **kw)


def scenario_spec(obj: dict, path: str) -> ScenarioSpec:
    """Validate one channel description (JSON scenario keys) into a
    ``ScenarioSpec``; errors name the field under ``path``."""
    _require(isinstance(obj, dict), path, "must be an object")
    allowed = {"label", "preset", "alpha", "beta", "zeta", "detection",
               "mean_snr_db", "mu", "wavelength_nm", "color", "distance_m",
               "aperture_diameter_mm", "cn2", "receiver_radius_m",
               "beam_waist_m", "attenuation_per_km"}
    _check_keys(obj, allowed, path)

    _require("zeta" in obj, path, "zeta is required")
    zeta = _field(obj, "zeta", path)
    _require(zeta > 0, f"{path}.zeta", "must be > 0")
    detection = _field(obj, "detection", path,
                       lambda v: DetectionMode.from_name(str(v)),
                       DetectionMode.HD)
    mean_snr_db = _field(obj, "mean_snr_db", path)
    mu = _field(obj, "mu", path, default=1.0)
    _require(0.0 < mu <= 1.0, f"{path}.mu", "must lie in (0, 1]")

    if "preset" in obj:
        alpha, beta = table2_constants(str(obj["preset"]), f"{path}.preset")
    elif "alpha" in obj or "beta" in obj:
        _require("alpha" in obj and "beta" in obj, path,
                 "alpha and beta must be given together")
        alpha = _field(obj, "alpha", path)
        beta = _field(obj, "beta", path)
        _require(alpha > 0, f"{path}.alpha", "must be > 0")
        _require(beta > 0, f"{path}.beta", "must be > 0")
    elif "cn2" in obj:
        turb = alpha_beta(link_scenario(obj, detection, path))
        alpha, beta = turb.alpha, turb.beta
    else:
        raise ConfigError(
            f"{path}: give a preset, (alpha, beta) constants, or cn2 geometry")

    label = str(obj.get("label", obj.get("preset", f"a{alpha:g}-b{beta:g}")))
    return ScenarioSpec(label=label, alpha=alpha, beta=beta, zeta=zeta,
                        detection=detection, mean_snr_db=mean_snr_db, mu=mu)


def metric_spec(obj: dict, path: str, variable: str | None) -> MetricSpec:
    """Validate one metric description (JSON metric keys) into a
    ``MetricSpec``.  ``variable`` is the swept variable, or None for a
    single point; a threshold sweep supplies the outage threshold."""
    _require(isinstance(obj, dict), path, "must be an object")
    allowed = {"name", "gamma_th_db", "scheme", "s", "mc", "samples"}
    _check_keys(obj, allowed, path)
    _require("name" in obj, path, "name is required")
    metric = MetricSpec(name=str(obj["name"]),
                        gamma_th_db=_field(obj, "gamma_th_db", path),
                        scheme=str(obj["scheme"]) if "scheme" in obj else None,
                        s=_field(obj, "s", path), mc=obj.get("mc", False),
                        samples=_field(obj, "samples", path, _integer, 200_000))
    # checked with the user's spelling of the scheme, kept upper-cased
    _check_metric(metric, path, variable)
    return metric if metric.scheme is None else replace(metric, scheme=metric.scheme.upper())


def _check_metric(metric: MetricSpec, path: str, variable: str | None) -> None:
    """The rules of one metric, ``metric_spec``'s and ``SweepSpec``'s;
    ``variable`` is the swept variable, or None for a single point."""
    _require(metric.name in METRICS, f"{path}.name", f"must be one of {', '.join(METRICS)}")
    # a field that the metric does not read would only rename its curve
    for key, reader in (("scheme", "ber"), ("s", "mgf"), ("gamma_th_db", "outage")):
        _require(getattr(metric, key) is None or metric.name == reader, f"{path}.{key}",
                 f"{metric.name} takes no {key}")
    _require(metric.gamma_th_db is None or variable != "gamma_th_db", f"{path}.gamma_th_db",
             "the gamma_th_db sweep sets the threshold")
    _require(isinstance(metric.mc, bool), f"{path}.mc", "must be true or false")
    given = {key: value for key, value in vars(metric).items() if value is not None}
    for key in ("gamma_th_db", "s"):
        _field(given, key, path)
    _require(_field(given, "samples", path, _integer, 0) >= 1, f"{path}.samples", "must be >= 1")
    if metric.name == "outage" and variable != "gamma_th_db":
        _require(metric.gamma_th_db is not None, path, "outage needs gamma_th_db")
    if metric.name == "outage" and metric.mc and metric.gamma_th_db is not None:
        # the Monte Carlo outage takes its threshold linear (mc_estimate)
        db_to_linear(metric.gamma_th_db, f"{path}.gamma_th_db")
    if metric.name == "ber":
        _require(metric.scheme is not None, path, "ber needs a scheme")
        _field(given, "scheme", path, lambda v: ModulationScheme.from_name(str(v)))
    if metric.name == "mgf":
        _require(metric.s is not None and metric.s > 0, path, "mgf needs s > 0")


def parse_config(path: str) -> SweepSpec:
    """Load and validate a sweep description from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    _require(isinstance(obj, dict), "<root>", "must be an object")
    _check_keys(obj, {"scenarios", "sweep"}, "<root>")
    _require("scenarios" in obj, "<root>", "scenarios is required")
    _require("sweep" in obj, "<root>", "sweep is required")

    raw_scenarios = obj["scenarios"]
    _require(isinstance(raw_scenarios, list) and raw_scenarios,
             "scenarios", "must be a nonempty list")
    scenarios = tuple(scenario_spec(sc, f"scenarios[{i}]")
                      for i, sc in enumerate(raw_scenarios))

    sw = obj["sweep"]
    _require(isinstance(sw, dict), "sweep", "must be an object")
    _check_keys(sw, {"variable", "start", "stop", "step", "metrics",
                     "gbar_interpretation", "seed", "output", "format"}, "sweep")
    variable = str(sw.get("variable", "mean_snr_db"))
    for key in ("start", "stop", "step"):
        _require(key in sw, f"sweep.{key}", "is required")
    start, stop, step = (_field(sw, key, "sweep") for key in ("start", "stop", "step"))
    raw_metrics = sw.get("metrics", [])
    _require(isinstance(raw_metrics, list), "sweep.metrics", "must be a list")
    metrics = tuple(metric_spec(mt, f"sweep.metrics[{i}]", variable)
                    for i, mt in enumerate(raw_metrics))
    output = sw.get("output")
    _require(output is None or isinstance(output, str), "sweep.output", "must be a string")
    fmt = sw.get("format", "csv")
    _require(fmt in ("csv", "json"), "sweep.format", f"must be csv or json, got {fmt!r}")
    return SweepSpec(variable=variable, start=start, stop=stop, step=step,
                     metrics=metrics, scenarios=scenarios,
                     gbar_interpretation=sw.get("gbar_interpretation", "product"),
                     seed=sw.get("seed", 0), output_path=output, output_format=fmt)


# ---------------------------------------------------------------------------
# execution


def distribution(sc: ScenarioSpec, mean_snr_db: float,
                 interpretation: str = "product", zeta: float | None = None,
                 path: str = "mean_snr_db") -> SnrDistribution:
    """Distribution of ``sc`` at ``mean_snr_db``: the product mean SNR, or
    under ``per-hop`` the mean SNR of each hop.  ``zeta`` replaces the
    scenario's own when given; a mean SNR that is out of range, alone or
    times mu^2, raises ConfigError naming ``path``."""
    hop = _hop_mean_snr(mean_snr_db, interpretation, sc.mu, path)
    params = cascade_from_constants(sc.alpha, sc.beta,
                                    zeta if zeta is not None else sc.zeta,
                                    sc.detection, hop, hop)
    return SnrDistribution(params, RisElement(mu=sc.mu))


def _eval_point(metric: MetricSpec, dist: SnrDistribution, gamma_th_db: float | None,
                mean_snr: float, seed: int) -> float | tuple[float | None, float]:
    """One grid point, at threshold ``gamma_th_db`` and product mean SNR
    times mu^2 ``mean_snr``: with ``metric.mc`` its Monte Carlo estimate
    on ``dist``, the point's own distribution; else its ln gamma_th (None
    without a threshold) and its mean SNR, which ``_family`` takes."""
    if metric.mc:
        cfg = McConfig(sample_count=metric.samples, seed=seed)
        return mc_estimate(metric, dist, cfg, gamma_th_db).mean
    # ln gamma_th, so that gamma_th need not be a double
    return None if gamma_th_db is None else gamma_th_db / 10.0 * math.log(10.0), mean_snr


def _family(metric: MetricSpec, dist: SnrDistribution, ln_gamma: list[float | None],
            mean_snr: list[float]) -> FormFamily:
    """The closed form of a curve's points on the shape of ``dist``."""
    if metric.name == "outage":
        return cdf_form(dist, ln_gamma, mean_snr)
    if metric.name == "capacity":
        return capacity_form(dist, mean_snr)
    if metric.name == "ber":
        return ber_form(dist, ModulationScheme.from_name(metric.scheme), mean_snr)
    return mgf_form(dist, [metric.s] * len(mean_snr), mean_snr)


def _curve(spec: SweepSpec, sc: ScenarioSpec, metric: MetricSpec,
           grid: list[float]) -> tuple[list[float], list[str]]:
    """Values of one curve over the grid, and its failures as
    ``x=<x>: <message>``; a point that failed is NaN.  A curve has one
    distribution, and its closed-form points are one family, but where
    zeta varies or the Monte Carlo samples each point has its own."""
    fixed = {"mean_snr_db": sc.mean_snr_db, "gamma_th_db": metric.gamma_th_db,
             "zeta": sc.zeta}
    dist, values, families = None, [], {}
    for x in grid:
        point = {**fixed, spec.variable: x}
        if dist is None or metric.mc or spec.variable == "zeta":
            dist = distribution(sc, point["mean_snr_db"], spec.gbar_interpretation, point["zeta"])
        hop = _hop_mean_snr(point["mean_snr_db"], spec.gbar_interpretation, sc.mu, "mean_snr_db")
        try:
            values.append(_eval_point(metric, dist, point["gamma_th_db"],
                                      hop * hop * sc.mu ** 2, spec.seed))
        except MeijerGError as exc:  # no step raises it; the benchmark's self-test does
            values.append(exc)
        else:
            families.setdefault(dist, []).append(len(values) - 1)
    for dist, index in families.items() if not metric.mc else ():
        ln_gamma, mean_snr = (list(v) for v in zip(*(values[i] for i in index)))
        for i, value in zip(index, evaluate_batch(_family(metric, dist, ln_gamma, mean_snr))):
            values[i] = value
    ys = [math.nan if isinstance(v, MeijerGError) else float(v) for v in values]
    failures = [f"x={x:g}: {v}" for x, v in zip(grid, values) if isinstance(v, MeijerGError)]
    return ys, failures


def run_sweep(spec: SweepSpec) -> list[MetricCurve]:
    """Evaluate every scenario-metric pair over the grid, in order."""
    grid = spec.grid()
    curves: list[MetricCurve] = []
    for sc in spec.scenarios:
        for metric in spec.metrics:
            ys, failures = _curve(spec, sc, metric, grid)
            meta = {
                "curve": f"{sc.label}|{metric.label()}",
                "label": sc.label,
                "metric": metric.name,
                "alpha": sc.alpha,
                "beta": sc.beta,
                "zeta": sc.zeta,
                "detection": "hd" if sc.detection is DetectionMode.HD else "imdd",
                "mu": sc.mu,
                "variable": spec.variable,
                "gbar_interpretation": spec.gbar_interpretation,
            }
            if sc.mean_snr_db is not None and spec.variable != "mean_snr_db":
                meta["mean_snr_db"] = sc.mean_snr_db
            if metric.gamma_th_db is not None or spec.variable == "gamma_th_db":
                meta["gamma_th_db"] = metric.gamma_th_db
            if metric.scheme is not None:
                meta["scheme"] = metric.scheme
            if metric.s is not None:
                meta["s"] = metric.s
            if metric.mc:
                meta["seed"] = spec.seed
                meta["samples"] = metric.samples
            if failures:
                meta["failures"] = "; ".join(failures)
            curves.append(MetricCurve(x=list(grid), y=ys, meta=meta))
    return curves


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _curves_to_csv(curves: list[MetricCurve]) -> str:
    meta_keys = sorted({k for c in curves for k in c.meta} - {"curve"})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "curve"] + meta_keys)
    for c in curves:
        tail = [_fmt(c.meta[k]) if k in c.meta else "" for k in meta_keys]
        name = c.meta.get("curve", "")
        for xv, yv in zip(c.x, c.y):
            writer.writerow([_fmt(float(xv)), _fmt(float(yv)), name] + tail)
    return buf.getvalue()


def _curves_to_json(curves: list[MetricCurve]) -> str:
    payload = {"curves": [{"x": c.x, "y": c.y, "meta": c.meta} for c in curves]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def emit(curves: list[MetricCurve], fmt: str, path: str) -> None:
    """Write curves as CSV or canonical JSON; identical inputs yield
    byte-identical files."""
    if fmt == "csv":
        text = _curves_to_csv(curves)
    elif fmt == "json":
        text = _curves_to_json(curves)
    else:
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; a file that cannot be written
    raises ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path!r} ({exc})") from None
