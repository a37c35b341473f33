"""Bundled scenario constants and figure-reproduction sweep presets.

Two color-naming conventions coexist in the bundled data and are kept
verbatim: the ``table2-*`` presets index the parameter table by its
column labels, while the ``fig9*`` presets label their three curves the
way the color-comparison figure assigns the same parameter pairs.  The
fig9 assignment is the one consistent with blue performing best.
"""
from __future__ import annotations

from .channel import DetectionMode
from .sweeps import ConfigError, MetricSpec, ScenarioSpec, SweepSpec

__all__ = ["FIG9_COLORS", "PRESET_NAMES", "TABLE2", "WAVELENGTH_NM",
           "figure_preset"]

WAVELENGTH_NM = {"red": 700.0, "green": 530.0, "blue": 470.0}

# (color, turbulence level) -> (alpha, beta); column labels of the source
# parameter table (levels: strong 2e-11, moderate 3e-12, weak 5e-14)
TABLE2 = {
    ("red", "strong"): (10.9537, 2.9833),
    ("blue", "strong"): (12.5331, 4.6787),
    ("green", "strong"): (13.2818, 5.7795),
    ("red", "moderate"): (4.9477, 1.2310),
    ("blue", "moderate"): (5.6690, 1.4315),
    ("green", "moderate"): (6.0130, 1.5682),
    ("red", "weak"): (2.9428, 2.5605),
    ("blue", "weak"): (2.5012, 2.0807),
    ("green", "weak"): (2.3664, 1.9221),
}

# color -> (alpha, beta) as labeled by the three-color comparison figure:
# the strong row of the table, its blue and green columns swapped
FIG9_COLORS = {fig: TABLE2[(column, "strong")]
               for fig, column in (("red", "red"), ("green", "blue"),
                                   ("blue", "green"))}

# the three turbulence levels the single-color sweeps cycle through
_LEVELS = [(level, TABLE2[("red", level)])
           for level in ("strong", "moderate", "weak")]
_ZETAS = (1.1, 6.1)

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                "fig9a", "fig9b")


def _level_scenarios(detection: DetectionMode, zetas=_ZETAS,
                     mean_snr_db: float | None = None) -> list[ScenarioSpec]:
    out = []
    for zeta in zetas:
        for name, (alpha, beta) in _LEVELS:
            out.append(ScenarioSpec(
                label=f"{name}-z{zeta:g}", alpha=alpha, beta=beta, zeta=zeta,
                detection=detection, mean_snr_db=mean_snr_db))
    return out


def _color_scenarios(detection: DetectionMode, zeta: float) -> list[ScenarioSpec]:
    return [ScenarioSpec(label=color, alpha=ab[0], beta=ab[1], zeta=zeta,
                         detection=detection)
            for color, ab in FIG9_COLORS.items()]


def figure_preset(name: str, gbar_interpretation: str = "product",
                  seed: int = 0) -> SweepSpec:
    """Sweep specification behind one bundled figure preset."""
    hd, imdd = DetectionMode.HD, DetectionMode.IM_DD
    outage9 = (MetricSpec(name="outage", gamma_th_db=9.0),)
    capacity = (MetricSpec(name="capacity"),)
    all_schemes = tuple(MetricSpec(name="ber", scheme=s)
                        for s in ("CBFSK", "NBFSK", "CBPSK", "DBPSK"))
    common = dict(gbar_interpretation=gbar_interpretation, seed=seed)
    alpha, beta = TABLE2[("red", "strong")]  # the single-row BER figures

    if name == "fig2":
        # outage versus threshold at fixed 9 dB per-hop mean SNR (18 dB product)
        scen = (_level_scenarios(hd, mean_snr_db=18.0)
                + _level_scenarios(imdd, mean_snr_db=18.0))
        scen = [ScenarioSpec(sc.label + ("-hd" if sc.detection is hd else "-imdd"),
                             sc.alpha, sc.beta, sc.zeta, sc.detection,
                             sc.mean_snr_db, sc.mu) for sc in scen]
        return SweepSpec(variable="gamma_th_db", start=-10.0, stop=20.0, step=1.0,
                         metrics=(MetricSpec(name="outage"),),
                         scenarios=tuple(scen), **common)
    if name == "fig3":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=60.0, step=1.0,
                         metrics=outage9,
                         scenarios=tuple(_level_scenarios(hd)), **common)
    if name == "fig4":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=80.0, step=1.0,
                         metrics=outage9,
                         scenarios=tuple(_level_scenarios(imdd)), **common)
    if name == "fig5":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=50.0, step=1.0,
                         metrics=capacity,
                         scenarios=tuple(_level_scenarios(hd)), **common)
    if name == "fig6":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=60.0, step=1.0,
                         metrics=capacity,
                         scenarios=tuple(_level_scenarios(imdd)), **common)
    if name == "fig7":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=60.0, step=1.0,
                         metrics=all_schemes,
                         scenarios=tuple(
                             ScenarioSpec(label=f"strong-z{z:g}", alpha=alpha,
                                          beta=beta, zeta=z, detection=hd)
                             for z in _ZETAS), **common)
    if name == "fig8":
        return SweepSpec(variable="mean_snr_db", start=0.0, stop=80.0, step=1.0,
                         metrics=all_schemes,
                         scenarios=tuple(
                             ScenarioSpec(label=f"strong-z{z:g}", alpha=alpha,
                                          beta=beta, zeta=z, detection=imdd)
                             for z in _ZETAS), **common)
    if name == "fig9a":
        # color comparison; heterodyne at zeta = 1.1 reproduces the quoted
        # 35/38/39 dB crossings at BER 1e-4
        return SweepSpec(variable="mean_snr_db", start=10.0, stop=60.0, step=1.0,
                         metrics=(MetricSpec(name="ber", scheme="DBPSK"),),
                         scenarios=tuple(_color_scenarios(hd, zeta=1.1)), **common)
    if name == "fig9b":
        return SweepSpec(variable="mean_snr_db", start=10.0, stop=60.0, step=1.0,
                         metrics=capacity,
                         scenarios=tuple(_color_scenarios(hd, zeta=1.1)), **common)
    raise ConfigError(f"preset: unknown preset {name!r}; "
                      f"choose from {PRESET_NAMES}")
