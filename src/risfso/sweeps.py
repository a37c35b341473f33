"""Sweep configuration, execution and CSV/JSON serialization.

A sweep is a grid over one variable (mean SNR in dB, outage threshold
in dB, or the pointing ratio zeta) evaluated for every scenario-metric
combination.  Evaluation failures at single grid points are recorded as
NaN gaps with a diagnostic in the curve metadata rather than aborting
the sweep.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

from .channel import DetectionMode, LinkScenario, alpha_beta, cascade_from_constants
from .metrics import (
    ModulationScheme,
    average_ber,
    ergodic_capacity,
    outage_probability,
)
from .simulator import McChannel, McConfig, McEstimate, estimate_metric
from .special import MeijerGError
from .statistics import RisElement, SnrDistribution, mgf

__all__ = [
    "ConfigError",
    "MetricCurve",
    "MetricSpec",
    "ScenarioSpec",
    "SweepSpec",
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
    value that ``convert`` rejects raises ConfigError naming the field."""
    if key not in obj:
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            warnings.warn(f"unknown key {path}.{key}", UserWarning)


_LINK_DEFAULTS = {"distance_m": 1000.0, "aperture_diameter_mm": 1.0,
                  "receiver_radius_m": 0.1, "beam_waist_m": 1.0,
                  "attenuation_per_km": 0.0, "color": "red"}


def table2_constants(name: str, path: str) -> tuple[float, float]:
    """(alpha, beta) behind a ``table2-<color>-<level>`` preset name."""
    from .presets import TABLE2  # local import to avoid a cycle

    prefix, _, key = name.partition("-")
    color, _, level = key.partition("-")
    if prefix != "table2" or (color, level) not in TABLE2:
        raise ConfigError(
            f"{path}: unknown preset {name!r}; expected "
            "table2-<red|blue|green>-<strong|moderate|weak>")
    return TABLE2[(color, level)]


def link_scenario(fields: dict, zeta: float, detection: DetectionMode,
                  path: str) -> LinkScenario:
    """Physical link from user units (nm, m, mm, 1/km).

    ``fields`` uses the JSON scenario keys; ``wavelength_nm`` wins over
    ``color``, and every key but ``cn2`` has a default.
    """
    from .presets import WAVELENGTH_NM  # local import to avoid a cycle

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
        zeta=zeta,
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
        kw["gamma_th"] = 10.0 ** (gamma_th_db / 10.0)
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
        turb = alpha_beta(link_scenario(obj, zeta, detection, path))
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
    name = str(obj["name"])
    _require(name in ("outage", "capacity", "ber", "mgf"), f"{path}.name",
             "must be one of outage, capacity, ber, mgf")
    gamma_th_db = _field(obj, "gamma_th_db", path)
    scheme = str(obj["scheme"]).upper() if "scheme" in obj else None
    s = _field(obj, "s", path)
    mc = bool(obj.get("mc", False))
    samples = _field(obj, "samples", path, int, 200_000)
    _require(samples >= 1, f"{path}.samples", "must be >= 1")
    if name == "outage" and variable != "gamma_th_db":
        _require(gamma_th_db is not None, path, "outage needs gamma_th_db")
    if name == "ber":
        _require(scheme is not None, path, "ber needs a scheme")
        _field(obj, "scheme", path,
               lambda v: ModulationScheme.from_name(str(v)))
    if name == "mgf":
        _require(s is not None and s > 0, path, "mgf needs s > 0")
    return MetricSpec(name=name, gamma_th_db=gamma_th_db, scheme=scheme,
                      s=s, mc=mc, samples=samples)


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
    _require(variable in VARIABLES, "sweep.variable",
             f"must be one of {VARIABLES}")
    for key in ("start", "stop", "step"):
        _require(key in sw, f"sweep.{key}", "is required")
        _require(math.isfinite(_field(sw, key, "sweep")), f"sweep.{key}",
                 "must be finite")
    start, stop, step = float(sw["start"]), float(sw["stop"]), float(sw["step"])
    _require(step > 0, "sweep.step", "must be > 0")
    _require(stop >= start, "sweep.stop", "must be >= start")
    _require((stop - start) / step < MAX_GRID_POINTS, "sweep.step",
             f"gives more than {MAX_GRID_POINTS} grid points")
    interp = str(sw.get("gbar_interpretation", "product"))
    _require(interp in INTERPRETATIONS, "sweep.gbar_interpretation",
             f"must be one of {INTERPRETATIONS}")
    raw_metrics = sw.get("metrics", [])
    _require(isinstance(raw_metrics, list), "sweep.metrics", "must be a list")
    metrics = tuple(metric_spec(mt, f"sweep.metrics[{i}]", variable)
                    for i, mt in enumerate(raw_metrics))
    if variable != "mean_snr_db":
        for i, sc in enumerate(scenarios):
            _require(sc.mean_snr_db is not None, f"scenarios[{i}].mean_snr_db",
                     f"required when sweeping {variable}")
    return SweepSpec(variable=variable, start=start, stop=stop, step=step,
                     metrics=metrics, scenarios=scenarios,
                     gbar_interpretation=interp,
                     seed=_field(sw, "seed", "sweep", int, 0),
                     output_path=sw.get("output"),
                     output_format=str(sw.get("format", "csv")))


# ---------------------------------------------------------------------------
# execution


def _mean_snr_linear(x_db: float, interpretation: str) -> float:
    # per-hop: the axis shows one hop's mean SNR, both hops equal
    factor = 2.0 if interpretation == "per-hop" else 1.0
    return 10.0 ** (factor * x_db / 10.0)


def distribution(sc: ScenarioSpec, mean_snr: float, zeta: float | None = None
                 ) -> SnrDistribution:
    """Distribution of ``sc`` at the linear product mean SNR ``mean_snr``,
    with ``zeta`` in place of the scenario's own when given."""
    params = cascade_from_constants(sc.alpha, sc.beta,
                                    zeta if zeta is not None else sc.zeta,
                                    sc.detection, math.sqrt(mean_snr),
                                    math.sqrt(mean_snr))
    return SnrDistribution(params, RisElement(mu=sc.mu))


def _eval_point(metric: MetricSpec, dist: SnrDistribution,
                gamma_th_db: float | None, seed: int) -> float:
    if metric.mc:
        cfg = McConfig(sample_count=metric.samples, seed=seed)
        return mc_estimate(metric, dist, cfg, gamma_th_db).mean
    if metric.name == "outage":
        return outage_probability(dist, 10.0 ** (gamma_th_db / 10.0))
    if metric.name == "capacity":
        return ergodic_capacity(dist)
    if metric.name == "ber":
        return average_ber(dist, ModulationScheme.from_name(metric.scheme))
    if metric.name == "mgf":
        return mgf(dist, metric.s)
    raise ConfigError(f"metric.name: unknown metric {metric.name!r}")


def run_sweep(spec: SweepSpec) -> list[MetricCurve]:
    """Evaluate every scenario-metric pair over the grid, in order."""
    grid = spec.grid()
    if not grid:
        return []
    curves: list[MetricCurve] = []
    for sc in spec.scenarios:
        for metric in spec.metrics:
            ys: list[float] = []
            failures: list[str] = []
            for x in grid:
                zeta = sc.zeta
                gamma_th_db = metric.gamma_th_db
                if spec.variable == "mean_snr_db":
                    mean_snr = _mean_snr_linear(x, spec.gbar_interpretation)
                else:
                    mean_snr = _mean_snr_linear(sc.mean_snr_db,
                                                spec.gbar_interpretation)
                    if spec.variable == "gamma_th_db":
                        gamma_th_db = x
                    else:
                        zeta = x
                try:
                    dist = distribution(sc, mean_snr, zeta)
                    ys.append(float(_eval_point(metric, dist, gamma_th_db,
                                                spec.seed)))
                except MeijerGError as exc:
                    ys.append(math.nan)
                    failures.append(f"x={x:g}: {exc}")
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
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path!r} ({exc})") from None
