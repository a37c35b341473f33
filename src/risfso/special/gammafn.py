"""Complex log-gamma for the Mellin-Barnes integrands.

The contour kernels only need exp(loggamma_complex(z)) == Gamma(z), so
scipy's principal-branch ``loggamma`` serves as is; the name stays so
that callers and instrumentation can find the kernel in one place.
"""
from __future__ import annotations

from scipy.special import loggamma as loggamma_complex

__all__ = ["loggamma_complex"]
