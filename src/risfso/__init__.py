"""Closed-form and Monte Carlo performance analysis of a reflected
two-hop free-space-optical link under gamma-gamma turbulence with
pointing errors."""

from .channel import (
    CascadeParams,
    DetectionMode,
    LinkScenario,
    PointingState,
    TurbulenceState,
    alpha_beta,
    cascade_from_constants,
    path_loss,
    pointing_state,
    rytov_variance,
)
from .metrics import (
    AsymptoteReport,
    ModulationScheme,
    asymptotic_ber,
    average_ber,
    ergodic_capacity,
    outage_probability,
)
from .simulator import McChannel, McConfig, McEstimate, estimate_metric
from .special import EvalResult, MeijerGSpec, meijer_g
from .statistics import RisElement, SnrDistribution, cdf, mgf, pdf

__version__ = "0.1.0"

__all__ = [
    "AsymptoteReport",
    "CascadeParams",
    "DetectionMode",
    "EvalResult",
    "LinkScenario",
    "McChannel",
    "McConfig",
    "McEstimate",
    "MeijerGSpec",
    "ModulationScheme",
    "PointingState",
    "RisElement",
    "SnrDistribution",
    "TurbulenceState",
    "alpha_beta",
    "asymptotic_ber",
    "average_ber",
    "cascade_from_constants",
    "cdf",
    "ergodic_capacity",
    "estimate_metric",
    "meijer_g",
    "mgf",
    "outage_probability",
    "path_loss",
    "pdf",
    "pointing_state",
    "rytov_variance",
]
