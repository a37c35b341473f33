"""Numeric kernels: complex log-gamma, quadrature, Meijer-G."""
from .gammafn import loggamma_complex
from .meijerg import (
    ContourError,
    EvalResult,
    MeijerGError,
    MeijerGSpec,
    meijer_g,
)
from .quadrature import QuadratureResult, gauss_kronrod

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGSpec",
    "QuadratureResult",
    "gauss_kronrod",
    "loggamma_complex",
    "meijer_g",
]
