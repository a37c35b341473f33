"""End-to-end SNR statistics of the reflected two-hop link.

The SNR of the cascade is the product of the two per-hop SNRs (the
reflecting element contributes a deterministic amplitude factor), and
each per-hop SNR follows the unified pointing-error/turbulence law.
Closed forms for the PDF, CDF and MGF are single Meijer-G evaluations;
each one is paired with a direct-quadrature implementation of the
integral it solves, used as an independent validation path.

Each statistic has one builder (``pdf_form``, ``cdf_form``, ...) that
returns its ``ClosedForm``, the evaluation before it is made, or the
value where it is known exactly.  ``evaluate_batch`` is the one
evaluator: it makes many forms in one batched contour pass, and a
public scalar call is a batch of one.  The quadrature twins integrate
with ``gauss_kronrod``, whose integrand takes all the nodes of a
refinement round at once, so each round is one batch.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning

from .channel import CascadeParams
from .special import (
    EvalResult,
    MeijerGError,
    MeijerGSpec,
    gauss_kronrod,
    meijer_g_batch,
)

__all__ = [
    "ClosedForm",
    "RisElement",
    "SnrDistribution",
    "cdf",
    "cdf_by_quadrature",
    "cdf_form",
    "evaluate_batch",
    "mgf",
    "mgf_form",
    "mgf_by_quadrature",
    "pdf",
    "pdf_by_product_integral",
    "pdf_by_substituted_integral",
    "pdf_form",
    "subchannel_pdf",
    "subchannel_pdf_form",
]

# relative tolerances of the quadrature twins
_PDF_TWIN_REL_TOL = 1e-7
_TWIN_REL_TOL = 1e-8
# the least positive normal double and its ln
_TINY = sys.float_info.min
_LN_TINY = math.log(_TINY)


@dataclass(frozen=True)
class RisElement:
    """Reflecting element: amplitude coefficient.

    The induced phase is assumed perfectly compensated end to end, so
    only the amplitude enters the statistics (as a mean-SNR rescaling
    by mu^2).
    """

    mu: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu!r}")


@dataclass(frozen=True)
class SnrDistribution:
    """Immutable end-to-end SNR distribution for one cascade."""

    params: CascadeParams
    ris: RisElement = field(default_factory=RisElement)

    @property
    def mean_snr(self) -> float:
        return self.params.mean_snr * self.ris.mu ** 2


class ClosedForm(NamedTuple):
    """exp(log_prefactor) * G(spec), clamped to [0, 1] if a probability."""

    spec: MeijerGSpec
    log_prefactor: float
    probability: bool = False

    def finish(self, res: EvalResult | MeijerGError) -> float | MeijerGError:
        """The statistic from its contour result, or the error the contour
        failed with.  Near saturation the contour value of a probability
        carries rounding of order 1e-13 and can land just above one."""
        if isinstance(res, MeijerGError):
            return res
        return min(max(res.value, 0.0), 1.0) if self.probability else res.value


def evaluate_batch(forms: Sequence[ClosedForm | float | MeijerGError]
                   ) -> list[float | MeijerGError]:
    """Value of every form, the closed forms in one batched contour pass.

    A float is a value known exactly and passes straight through, as
    does a MeijerGError met before evaluation; a closed form whose
    evaluation fails holds its MeijerGError instead.
    """
    closed = [f for f in forms if isinstance(f, ClosedForm)]
    results = iter(meijer_g_batch([f.spec for f in closed],
                                  [f.log_prefactor for f in closed]))
    return [f.finish(next(results)) if isinstance(f, ClosedForm) else f
            for f in forms]


def _values(forms: Sequence[ClosedForm | float]) -> list[float]:
    """``evaluate_batch`` of forms; a form that fails raises its
    MeijerGError."""
    values = evaluate_batch(forms)
    for value in values:
        if isinstance(value, MeijerGError):
            raise value
    return values


def _density_argument(z: float, name: str, gamma: float) -> float:
    """z, the Meijer-G argument of a density at gamma, or a ValueError
    naming gamma where z is not a normal double: it overflows, or it is
    subnormal and has lost digits, or 0."""
    if not _TINY <= z < math.inf:
        raise ValueError(f"{name} at gamma {gamma!r} is out of double range: "
                         f"its Meijer-G argument is {z!r}")
    return z


def _warn_if_cut_short(left_out: float, value: float, rel_tol: float,
                       name: str) -> None:
    """IntegrationWarning where a twin's cut at ``_log_pdf_floor`` leaves
    out an estimated ``left_out`` of its integral, more than its relative
    tolerance allows."""
    if left_out > rel_tol * abs(value):
        warnings.warn(f"{name}: the cut where the density's argument leaves the "
                      f"normal doubles leaves out about {left_out:.2g} of "
                      f"{value:.6g}, more than the relative tolerance {rel_tol:g}",
                      IntegrationWarning, stacklevel=3)


def _log_pdf_floor(dist: SnrDistribution) -> float:
    """ln of a gamma above which gamma, gamma / mean SNR and the argument
    of ``pdf_form`` are all normal doubles."""
    p = dist.params
    ln_mean = math.log(dist.mean_snr)
    return 1.0 + max(_LN_TINY, ln_mean + max(
        _LN_TINY, p.a * (_LN_TINY - 2.0 * math.log(p.big_q))))


def pdf_form(dist: SnrDistribution, gamma: float) -> ClosedForm:
    """Closed form of the density at gamma."""
    ratio = gamma / dist.mean_snr
    p = dist.params
    z = _density_argument(p.big_q ** 2 * ratio ** (1.0 / p.a), "pdf", gamma)
    spec = MeijerGSpec(6, 0, (p.zeta2 + 1.0,) * 2, (p.zeta2, p.alpha, p.beta) * 2, z)
    return ClosedForm(spec, math.log(p.a) + 2.0 * p.log_m - math.log(gamma))


def subchannel_pdf_form(dist: SnrDistribution, gamma_i: float,
                        mean_snr_i: float) -> ClosedForm:
    """Closed form of a single hop's density at gamma_i with per-hop mean
    ``mean_snr_i``."""
    ratio = gamma_i / mean_snr_i
    p = dist.params
    z = _density_argument(p.big_q * ratio ** (1.0 / p.a), "subchannel_pdf", gamma_i)
    spec = MeijerGSpec(3, 0, (p.zeta2 + 1.0,), (p.zeta2, p.alpha, p.beta), z)
    return ClosedForm(spec, p.log_m - math.log(gamma_i))


def cdf_form(dist: SnrDistribution, gamma: float) -> ClosedForm | float:
    """Closed form of P(SNR <= gamma), or its exact value 0 at gamma = 0."""
    if not gamma >= 0.0:
        raise ValueError(f"cdf needs gamma >= 0, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    p = dist.params
    spec = MeijerGSpec(6 * p.a, 1, (1.0,) + p.delta1, p.delta2 + (0.0,),
                       p.q0 * gamma / dist.mean_snr)
    return ClosedForm(spec, p.log_m0, probability=True)


def mgf_form(dist: SnrDistribution, s: float) -> ClosedForm:
    """Closed form of E[exp(-s SNR)]."""
    if not s > 0.0:
        raise ValueError(f"mgf needs s > 0, got {s!r}")
    p = dist.params
    spec = MeijerGSpec(6 * p.a, 2, (0.0, 1.0) + p.delta1, p.delta2 + (0.0,),
                       p.q0 / (dist.mean_snr * s))
    return ClosedForm(spec, p.log_m0, probability=True)


def pdf(dist: SnrDistribution, gamma: float) -> float:
    """Density of the end-to-end SNR at gamma > 0."""
    if not gamma > 0.0:
        raise ValueError(f"pdf needs gamma > 0, got {gamma!r}")
    return _values([pdf_form(dist, gamma)])[0]


def cdf(dist: SnrDistribution, gamma: float) -> float:
    """P(SNR <= gamma) for gamma >= 0, clamped to [0, 1]."""
    return _values([cdf_form(dist, gamma)])[0]


def mgf(dist: SnrDistribution, s: float) -> float:
    """Laplace transform E[exp(-s SNR)] for s > 0, clamped to [0, 1].

    As s goes to zero the contour value carries rounding of order 1e-12
    and can land just above one.
    """
    return _values([mgf_form(dist, s)])[0]


def subchannel_pdf(dist: SnrDistribution, gamma_i: float,
                   mean_snr_i: float) -> float:
    """Density of a single hop's SNR with per-hop mean ``mean_snr_i``."""
    if not gamma_i > 0.0:
        raise ValueError(f"subchannel_pdf needs gamma_i > 0, got {gamma_i!r}")
    return _values([subchannel_pdf_form(dist, gamma_i, mean_snr_i)])[0]


def _product_span(dist: SnrDistribution) -> float:
    # the integrand decays at least like exp(-c|u|) with c the smallest
    # per-hop exponent; 42/c reaches ~1e-18 relative to the peak
    c = min(dist.params.delta2)
    return min(30.0 * dist.params.a + 20.0, 42.0 / c + 6.0)


def pdf_by_product_integral(dist: SnrDistribution, gamma: float) -> float:
    """Density via the product-law integral over the two hop densities.

    Independent of the cascade closed form: only the per-hop density is
    evaluated inside the integrand.  The per-hop means are split evenly
    (the result depends on their product only).
    """
    if not gamma > 0.0:
        raise ValueError(f"needs gamma > 0, got {gamma!r}")
    gbar_i = math.sqrt(dist.mean_snr)
    t_star = math.sqrt(gamma)  # equal sub-channel arguments here

    def integrand(u: np.ndarray) -> np.ndarray:
        t = t_star * np.exp(u)
        # both hop densities of every node in one batch
        f = np.array(_values([subchannel_pdf_form(dist, x, gbar_i) for x in
                              np.concatenate([t, gamma / t]).tolist()]))
        return f[:t.size] * f[t.size:]

    span = _product_span(dist)
    return gauss_kronrod(integrand, -span, span, _PDF_TWIN_REL_TOL, 0.0,
                         points=[0.0]).value


def pdf_by_substituted_integral(dist: SnrDistribution, gamma: float) -> float:
    """Density via the power-substituted form of the product integral.

    The second factor carries the reflected parameter lists, so this
    path exercises the reflection identity inside an integrand.
    """
    if not gamma > 0.0:
        raise ValueError(f"needs gamma > 0, got {gamma!r}")
    p = dist.params
    a = p.a
    gbar_i = math.sqrt(dist.mean_snr)
    upper1 = (p.zeta2 + 1.0,)
    lower1 = (p.zeta2, p.alpha, p.beta)
    upper2 = (1.0 - p.zeta2, 1.0 - p.alpha, 1.0 - p.beta)
    lower2 = (-p.zeta2,)
    c1 = p.big_q / gbar_i ** (1.0 / a)
    c2 = (gbar_i / gamma) ** (1.0 / a) / p.big_q
    x_star = (1.0 / (c1 * c2)) ** 0.5  # equal arguments at the peak

    def integrand(u: np.ndarray) -> np.ndarray:
        x = (x_star * np.exp(u)).tolist()
        first = [ClosedForm(MeijerGSpec(3, 0, upper1, lower1, c1 * v), 0.0) for v in x]
        second = [ClosedForm(MeijerGSpec(0, 3, upper2, lower2, c2 * v), 0.0) for v in x]
        g = np.array(_values(first + second))
        return g[:len(x)] * g[len(x):]

    # x = t^(1/a) of the product integral's t: the same region
    span = _product_span(dist) / a
    val = gauss_kronrod(integrand, -span, span, _PDF_TWIN_REL_TOL, 0.0,
                        points=[0.0]).value
    lp = math.log(a) + 2.0 * dist.params.log_m - math.log(gamma)
    return math.exp(lp) * val


def cdf_by_quadrature(dist: SnrDistribution, gamma: float) -> float:
    """CDF as the direct integral of the closed-form density.

    On the log axis the integrand decays like exp(c u) toward the
    origin, c being the smallest decay exponent, so a fixed cut at
    -48/c loses under 1e-20 of the mass.  Where that cut lies below
    ``_log_pdf_floor``, the cut stops at the floor instead, leaving out
    about the integrand there over c: 1.4e-11 at zeta 0.2 under HD (c =
    0.04) and gamma = mean SNR / 100, 8.4e-6 under IM/DD (c = 0.02),
    where the twin warns that this exceeds its tolerance.  A gamma at or
    below the floor leaves nothing to integrate and raises ValueError.
    """
    if gamma < 0.0:
        raise ValueError(f"needs gamma >= 0, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    floor = _log_pdf_floor(dist)
    if not math.log(gamma) > floor:
        raise ValueError(f"needs gamma above exp({floor:.6g}), where the density's "
                         f"argument is a normal double, got {gamma!r}")
    c = min(dist.params.delta2)

    def integrand(u: np.ndarray) -> np.ndarray:
        x = gamma * np.exp(u)
        return np.array(_values([pdf_form(dist, v) for v in x.tolist()])) * x

    cut = -(48.0 / c + 5.0)
    lo = max(cut, floor - math.log(gamma))
    value = gauss_kronrod(integrand, lo, 0.0, _TWIN_REL_TOL, 0.0).value
    if lo > cut:
        _warn_if_cut_short(integrand(np.array([lo]))[0] / c, value,
                           _TWIN_REL_TOL, "cdf_by_quadrature")
    return value


def mgf_by_quadrature(dist: SnrDistribution, s: float) -> float:
    """MGF as s times the Laplace transform of the closed-form CDF."""
    if not s > 0.0:
        raise ValueError(f"needs s > 0, got {s!r}")

    def integrand(v: np.ndarray) -> np.ndarray:
        return np.exp(-v) * np.array(_values([cdf_form(dist, g)
                                              for g in (v / s).tolist()]))

    return gauss_kronrod(integrand, 0.0, 50.0, _TWIN_REL_TOL, 0.0,
                         points=[0.1, 1.0, 5.0, 20.0]).value
