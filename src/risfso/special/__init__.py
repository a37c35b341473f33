"""Numeric kernels: complex log-gamma, quadrature, Meijer-G."""
from .gammafn import loggamma_complex
from .meijerg import (
    ContourError,
    EvalResult,
    MeijerGError,
    MeijerGFamily,
    MeijerGKernel,
    MeijerGSpec,
    meijer_g,
    meijer_g_batch,
    meijer_g_family,
)
from .quadrature import QuadratureResult, gauss_kronrod

__all__ = [
    "ContourError",
    "EvalResult",
    "MeijerGError",
    "MeijerGFamily",
    "MeijerGKernel",
    "MeijerGSpec",
    "QuadratureResult",
    "gauss_kronrod",
    "loggamma_complex",
    "meijer_g",
    "meijer_g_batch",
    "meijer_g_family",
]
