"""Figure-reproduction sweep presets, and the bundled scenario constants.

Two color-naming conventions coexist in the bundled data and are kept
verbatim: the ``table2-*`` presets index the parameter table by its
column labels, while the ``fig9*`` presets label their three curves the
way the color-comparison figure assigns the same parameter pairs.  The
fig9 assignment is the one consistent with blue performing best.
"""
from __future__ import annotations

from .channel import TABLE2, WAVELENGTH_NM, DetectionMode
from .sweeps import ConfigError, MetricSpec, ScenarioSpec, SweepSpec

__all__ = ["FIG9_COLORS", "PRESET_NAMES", "TABLE2", "WAVELENGTH_NM",
           "figure_preset"]

# color -> (alpha, beta) as labeled by the three-color comparison figure:
# the strong row of the table, its blue and green columns swapped
FIG9_COLORS = {fig: TABLE2[(column, "strong")]
               for fig, column in (("red", "red"), ("green", "blue"),
                                   ("blue", "green"))}

_HD, _IMDD = DetectionMode.HD, DetectionMode.IM_DD
_ZETAS = (1.1, 6.1)


def _levels(detection: DetectionMode, suffix: str = "",
            mean_snr_db: float | None = None) -> tuple[ScenarioSpec, ...]:
    """The three turbulence levels of the red column at each zeta."""
    return tuple(ScenarioSpec(f"{level}-z{zeta:g}{suffix}",
                              *TABLE2[("red", level)], zeta, detection,
                              mean_snr_db)
                 for zeta in _ZETAS for level in ("strong", "moderate", "weak"))


def _strong(detection: DetectionMode) -> tuple[ScenarioSpec, ...]:
    """The single strong red row of the BER figures at each zeta."""
    return tuple(ScenarioSpec(f"strong-z{zeta:g}", *TABLE2[("red", "strong")],
                              zeta, detection) for zeta in _ZETAS)


# color comparison; heterodyne at zeta = 1.1 reproduces the quoted
# 35/38/39 dB crossings at BER 1e-4
_COLORS = tuple(ScenarioSpec(color, *ab, 1.1, _HD)
                for color, ab in FIG9_COLORS.items())
_OUTAGE9 = (MetricSpec(name="outage", gamma_th_db=9.0),)
_CAPACITY = (MetricSpec(name="capacity"),)
_ALL_SCHEMES = tuple(MetricSpec(name="ber", scheme=s)
                     for s in ("CBFSK", "NBFSK", "CBPSK", "DBPSK"))

# name -> (variable, start, stop, metrics, scenarios); every grid steps 1
_PRESETS = {
    # outage versus threshold at fixed 9 dB per-hop mean SNR (18 dB product)
    "fig2": ("gamma_th_db", -10.0, 20.0, (MetricSpec(name="outage"),),
             _levels(_HD, "-hd", 18.0) + _levels(_IMDD, "-imdd", 18.0)),
    "fig3": ("mean_snr_db", 0.0, 60.0, _OUTAGE9, _levels(_HD)),
    "fig4": ("mean_snr_db", 0.0, 80.0, _OUTAGE9, _levels(_IMDD)),
    "fig5": ("mean_snr_db", 0.0, 50.0, _CAPACITY, _levels(_HD)),
    "fig6": ("mean_snr_db", 0.0, 60.0, _CAPACITY, _levels(_IMDD)),
    "fig7": ("mean_snr_db", 0.0, 60.0, _ALL_SCHEMES, _strong(_HD)),
    "fig8": ("mean_snr_db", 0.0, 80.0, _ALL_SCHEMES, _strong(_IMDD)),
    "fig9a": ("mean_snr_db", 10.0, 60.0,
              (MetricSpec(name="ber", scheme="DBPSK"),), _COLORS),
    "fig9b": ("mean_snr_db", 10.0, 60.0, _CAPACITY, _COLORS),
}

PRESET_NAMES = tuple(_PRESETS)


def figure_preset(name: str, gbar_interpretation: str = "product",
                  seed: int = 0) -> SweepSpec:
    """Sweep specification behind one bundled figure preset."""
    if name not in _PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; "
                          f"choose from {PRESET_NAMES}")
    variable, start, stop, metrics, scenarios = _PRESETS[name]
    return SweepSpec(variable=variable, start=start, stop=stop, step=1.0,
                     metrics=metrics, scenarios=scenarios,
                     gbar_interpretation=gbar_interpretation, seed=seed)
