"""End-to-end SNR statistics of the reflected two-hop link.

The SNR of the cascade is the product of the two per-hop SNRs (the
reflecting element contributes a deterministic amplitude factor), and
each per-hop SNR follows the unified pointing-error/turbulence law.
Closed forms for the PDF, CDF and MGF are single Meijer-G evaluations;
each one is paired with a direct-quadrature implementation of the
integral it solves, used as an independent validation path.

Each statistic has one builder (``pdf_form``, ``cdf_form``, ...) that
returns its ``ClosedForm``, the evaluation before it is made, or the
value where it is known exactly.  The density and cdf builders take
ln gamma, and every builder forms ln z from logs, so that neither gamma
nor z need be a double.  ``evaluate_batch`` is the one evaluator: it
makes many forms in one batched contour pass, and a public scalar call
is a batch of one.  The quadrature twins integrate with
``gauss_kronrod``, whose integrand takes all the nodes of a refinement
round at once, so each round is one batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

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
    "pdf_form",
    "subchannel_pdf",
    "subchannel_pdf_form",
]

# relative tolerances of the quadrature twins
_PDF_TWIN_REL_TOL = 1e-7
_TWIN_REL_TOL = 1e-8


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

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_snr < math.inf:
            raise ValueError(f"mean SNR {self.params.mean_snr!r} times mu^2 must be a positive "
                             f"finite double, got {self.mean_snr!r} at mu={self.ris.mu!r}")

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


def _density(form: ClosedForm, name: str, gamma: float) -> float:
    """The value of a density's closed form; a MeijerGError, such as a
    value past the double range, names gamma."""
    value = evaluate_batch([form])[0]
    if isinstance(value, MeijerGError):
        raise type(value)(f"{name} at gamma {gamma!r}: {value}")
    return value


def pdf_form(dist: SnrDistribution, ln_gamma: float) -> ClosedForm:
    """Closed form of the density at gamma, given ln gamma."""
    p = dist.params
    lnz = 2.0 * math.log(p.big_q) + (ln_gamma - math.log(dist.mean_snr)) / p.a
    spec = MeijerGSpec(6, 0, (p.zeta2 + 1.0,) * 2, (p.zeta2, p.alpha, p.beta) * 2,
                       log_argument=lnz)
    return ClosedForm(spec, math.log(p.a) + 2.0 * p.log_m - ln_gamma)


def _x_pdf_form(dist: SnrDistribution, ln_x: float) -> ClosedForm:
    """Closed form of x times the density at x, given ln x."""
    form = pdf_form(dist, ln_x)
    return form._replace(log_prefactor=form.log_prefactor + ln_x)


def subchannel_pdf_form(dist: SnrDistribution, ln_gamma_i: float,
                        mean_snr_i: float) -> ClosedForm:
    """Closed form of a single hop's density at gamma_i, given ln gamma_i,
    with per-hop mean ``mean_snr_i``."""
    p = dist.params
    lnz = math.log(p.big_q) + (ln_gamma_i - math.log(mean_snr_i)) / p.a
    spec = MeijerGSpec(3, 0, (p.zeta2 + 1.0,), (p.zeta2, p.alpha, p.beta),
                       log_argument=lnz)
    return ClosedForm(spec, p.log_m - ln_gamma_i)


def cdf_form(dist: SnrDistribution, ln_gamma: float) -> ClosedForm | float:
    """Closed form of P(SNR <= gamma), given ln gamma, or its exact value
    0 at ln gamma = -inf."""
    if ln_gamma == -math.inf:
        return 0.0
    p = dist.params
    lnz = math.log(p.q0) + ln_gamma - math.log(dist.mean_snr)
    spec = MeijerGSpec(6 * p.a, 1, (1.0,) + p.delta1, p.delta2 + (0.0,),
                       log_argument=lnz)
    return ClosedForm(spec, p.log_m0, probability=True)


def mgf_form(dist: SnrDistribution, s: float) -> ClosedForm:
    """Closed form of E[exp(-s SNR)]."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"mgf needs finite s > 0, got {s!r}")
    p = dist.params
    lnz = math.log(p.q0) - math.log(dist.mean_snr) - math.log(s)
    spec = MeijerGSpec(6 * p.a, 2, (0.0, 1.0) + p.delta1, p.delta2 + (0.0,),
                       log_argument=lnz)
    return ClosedForm(spec, p.log_m0, probability=True)


def pdf(dist: SnrDistribution, gamma: float) -> float:
    """Density of the end-to-end SNR at a finite gamma > 0; a MeijerGError
    naming gamma where the density is past the double range."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"pdf needs finite gamma > 0, got {gamma!r}")
    return _density(pdf_form(dist, math.log(gamma)), "pdf", gamma)


def cdf(dist: SnrDistribution, gamma: float) -> float:
    """P(SNR <= gamma) for a finite gamma >= 0, clamped to [0, 1]."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"cdf needs finite gamma >= 0, got {gamma!r}")
    return _values([cdf_form(dist, math.log(gamma) if gamma else -math.inf)])[0]


def mgf(dist: SnrDistribution, s: float) -> float:
    """E[exp(-s SNR)], the Laplace transform, for a finite s > 0, clamped to [0, 1].

    As s goes to zero the contour value carries rounding of order 1e-12
    and can land just above one.
    """
    return _values([mgf_form(dist, s)])[0]


def subchannel_pdf(dist: SnrDistribution, gamma_i: float,
                   mean_snr_i: float) -> float:
    """Density of a single hop's SNR at a finite gamma_i > 0 with finite
    per-hop mean ``mean_snr_i`` > 0; a MeijerGError naming gamma_i where
    the density is past the double range."""
    for name, value in (("gamma_i", gamma_i), ("mean_snr_i", mean_snr_i)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"subchannel_pdf needs finite {name} > 0, got {value!r}")
    return _density(subchannel_pdf_form(dist, math.log(gamma_i), mean_snr_i),
                    "subchannel_pdf", gamma_i)


def pdf_by_product_integral(dist: SnrDistribution, gamma: float) -> float:
    """Density via the product-law integral over the two hop densities.

    Independent of the cascade closed form: only the per-hop density is
    evaluated inside the integrand.  The per-hop means are split evenly
    (the result depends on their product only), so the integrand
    f(t* e^u) f(t* e^-u) is even in u: it is integrated over u >= 0 and
    doubled, one hop pair per node.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"needs finite gamma > 0, got {gamma!r}")
    gbar_i = math.sqrt(dist.mean_snr)
    ln_t_star = 0.5 * math.log(gamma)  # equal sub-channel arguments here

    def integrand(u: np.ndarray) -> np.ndarray:
        # both hop densities of every node in one batch, at t and gamma / t
        ln_t = np.concatenate([ln_t_star + u, ln_t_star - u])
        f = np.array(_values([subchannel_pdf_form(dist, v, gbar_i)
                              for v in ln_t.tolist()]))
        return f[:u.size] * f[u.size:]

    # the integrand decays at least like exp(-c u) with c the smallest
    # per-hop exponent; 42/c reaches ~1e-18 relative to the peak
    span = min(30.0 * dist.params.a + 20.0, 42.0 / min(dist.params.delta2) + 6.0)
    return 2.0 * gauss_kronrod(integrand, 0.0, span, _PDF_TWIN_REL_TOL, 0.0).value


def cdf_by_quadrature(dist: SnrDistribution, gamma: float) -> float:
    """CDF as the direct integral of the closed-form density.

    On the log axis, u = ln(x / gamma), the integrand x pdf(x) decays
    like exp(c u) toward the origin, c being the smallest decay
    exponent, so a fixed cut at -48/c loses under 1e-20 of the mass.
    Each node passes ln gamma + u to the builder and takes x pdf(x) as
    one closed form, so neither x nor the density need be a double
    there, at any gamma.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"needs finite gamma >= 0, got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    ln_gamma = math.log(gamma)
    c = min(dist.params.delta2)

    def integrand(u: np.ndarray) -> np.ndarray:
        return np.array(_values([_x_pdf_form(dist, v) for v in (ln_gamma + u).tolist()]))

    return gauss_kronrod(integrand, -(48.0 / c + 5.0), 0.0, _TWIN_REL_TOL, 0.0).value


def mgf_by_quadrature(dist: SnrDistribution, s: float) -> float:
    """MGF as s times the Laplace transform of the closed-form CDF."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"needs finite s > 0, got {s!r}")
    ln_s = math.log(s)

    def integrand(v: np.ndarray) -> np.ndarray:
        # the cdf at v / s
        return np.exp(-v) * np.array(_values([cdf_form(dist, g)
                                              for g in (np.log(v) - ln_s).tolist()]))

    return gauss_kronrod(integrand, 0.0, 50.0, _TWIN_REL_TOL, 0.0,
                         points=[0.1, 1.0, 5.0, 20.0]).value
