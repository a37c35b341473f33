"""End-to-end SNR statistics of the reflected two-hop link.

The SNR of the cascade is the product of the two per-hop SNRs (the
reflecting element contributes a deterministic amplitude factor), and
each per-hop SNR follows the unified pointing-error/turbulence law.
Closed forms for the PDF, CDF and MGF are single Meijer-G evaluations;
each one is paired with a direct-quadrature implementation of the
integral it solves, used as an independent validation path.

Each statistic has one builder (``pdf_form``, ``cdf_form``, ...) that
takes a distribution and a sequence of per-point inputs (ln gamma, s or
the mean SNR) and returns one ``FormFamily``: one kernel, checked once,
with a list of ln z and a list of log prefactors.  Every builder forms
each ln z from logs, with the arithmetic of a single point, so that
neither gamma nor z need be a double and a point's value does not depend
on its family.  ``evaluate_batch`` is the one evaluator: it gives a
family to ``meijer_g_family``, one batched contour pass.  A sweep curve
over the mean SNR or the threshold is one family, a public scalar call
is a family of one, and the quadrature twins integrate with
``gauss_kronrod``, whose integrand takes all the nodes of a refinement
round at once, so each round is one family.  A twin holds one
``MeijerGFamily`` of its kernel for the length of its call, and each
round is one call of it, so the rounds share one table of log chi: a
round reads the rows that earlier rounds filled on the same lattice
lines.  The table keeps the rows of finished passes up to 16,320 nodes,
the least recently used leaving first, and drops them all when the twin
returns; log chi depends on s alone, so every value keeps its bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import CascadeParams
from .special import MeijerGError, MeijerGFamily, MeijerGKernel, gauss_kronrod, meijer_g_family

__all__ = [
    "FormFamily",
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


class FormFamily(NamedTuple):
    """exp(log_prefactors[i]) * G(kernel; ln z = log_arguments[i]) at each
    point i, clamped to [0, 1] if a probability."""

    kernel: MeijerGKernel
    log_arguments: list[float]
    log_prefactors: list[float]
    probability: bool = False


def evaluate_batch(family: FormFamily) -> list[float | MeijerGError]:
    """Value at every point of a family, in one batched contour pass; a
    point whose evaluation fails holds its MeijerGError instead.  Near
    saturation the contour value of a probability carries rounding of
    order 1e-13 and can land just above one."""
    return _read(family, meijer_g_family(family.kernel, family.log_arguments,
                                         family.log_prefactors))


def _read(family: FormFamily, results: list) -> list[float | MeijerGError]:
    """The value of each contour result of a family, or its MeijerGError."""
    return [res if isinstance(res, MeijerGError)
            else min(max(res.value, 0.0), 1.0) if family.probability else res.value
            for res in results]


def _values(family: FormFamily, where: str = "",
            held: MeijerGFamily | None = None) -> list[float]:
    """``evaluate_batch`` of a family, or the same pass of ``held``, a
    MeijerGFamily of its kernel that a quadrature twin holds over its
    rounds; a point that fails, such as a density past the double range,
    raises its MeijerGError, its message led by ``where``."""
    values = (evaluate_batch(family) if held is None
              else _read(family, held(family.log_arguments, family.log_prefactors)))
    for value in values:
        if isinstance(value, MeijerGError):
            raise type(value)(f"{where}{value}")
    return values


def pdf_form(dist: SnrDistribution, ln_gamma: list[float]) -> FormFamily:
    """Closed form of the density at each gamma, given ln gamma.

    Any finite ln gamma is accepted, so gamma need not be a double; a
    point whose density lies past the double range fails in its slot.
    """
    p = dist.params
    lnq, ln_gbar = 2.0 * math.log(p.big_q), math.log(dist.mean_snr)
    kernel = MeijerGKernel(6, 0, (p.zeta2 + 1.0,) * 2, (p.zeta2, p.alpha, p.beta) * 2)
    log_c = math.log(p.a) + 2.0 * p.log_m
    return FormFamily(kernel, [lnq + (v - ln_gbar) / p.a for v in ln_gamma],
                      [log_c - v for v in ln_gamma])


def _x_pdf_form(dist: SnrDistribution, ln_x: list[float]) -> FormFamily:
    """Closed form of x times the density at each x, given ln x."""
    family = pdf_form(dist, ln_x)
    return family._replace(log_prefactors=[c + v for c, v in zip(family.log_prefactors, ln_x)])


def subchannel_pdf_form(dist: SnrDistribution, ln_gamma_i: list[float],
                        mean_snr_i: float) -> FormFamily:
    """Closed form of a single hop's density at each gamma_i, given ln
    gamma_i, with per-hop mean ``mean_snr_i``, a finite double > 0.

    Any finite ln gamma_i is accepted; a point whose density lies past
    the double range fails in its slot.
    """
    p = dist.params
    lnq, ln_gbar = math.log(p.big_q), math.log(mean_snr_i)
    kernel = MeijerGKernel(3, 0, (p.zeta2 + 1.0,), (p.zeta2, p.alpha, p.beta))
    return FormFamily(kernel, [lnq + (v - ln_gbar) / p.a for v in ln_gamma_i],
                      [p.log_m - v for v in ln_gamma_i])


def cdf_form(dist: SnrDistribution, ln_gamma: list[float],
             mean_snr: list[float] | None = None) -> FormFamily:
    """Closed form of P(SNR <= gamma) at each point, given ln gamma and
    the point's mean SNR times mu^2, or the distribution's own where
    ``mean_snr`` is None.

    Any finite ln gamma and any finite mean SNR > 0 are accepted.  The
    reach of a threshold sweep is the contour's: at a mean SNR of 20 dB
    (strong row, zeta 6.1, HD), points past about 5e4 dB above the mean,
    where the cdf reads 1, or 9e5 dB below it, where it reads 0, fail in
    their slots with a ContourError.
    """
    p = dist.params
    lnq = math.log(p.q0)
    kernel = MeijerGKernel(6 * p.a, 1, (1.0,) + p.delta1, p.delta2 + (0.0,))
    ln_gbar = [math.log(v) for v in mean_snr or [dist.mean_snr] * len(ln_gamma)]
    return FormFamily(kernel, [lnq + v - m for v, m in zip(ln_gamma, ln_gbar, strict=True)],
                      [p.log_m0] * len(ln_gbar), probability=True)


def mgf_form(dist: SnrDistribution, s: list[float],
             mean_snr: list[float] | None = None) -> FormFamily:
    """Closed form of E[exp(-s SNR)] at each point, given s and the
    point's mean SNR times mu^2, or the distribution's own where
    ``mean_snr`` is None.  Each s must be a finite double > 0 and each
    mean SNR a finite double > 0."""
    for v in s:
        if not 0.0 < v < math.inf:
            raise ValueError(f"mgf needs finite s > 0, got {v!r}")
    p = dist.params
    lnq = math.log(p.q0)
    kernel = MeijerGKernel(6 * p.a, 2, (0.0, 1.0) + p.delta1, p.delta2 + (0.0,))
    ln_gbar = [math.log(v) for v in mean_snr or [dist.mean_snr] * len(s)]
    return FormFamily(kernel, [lnq - m - math.log(v) for v, m in zip(s, ln_gbar, strict=True)],
                      [p.log_m0] * len(ln_gbar), probability=True)


def pdf(dist: SnrDistribution, gamma: float) -> float:
    """Density of the end-to-end SNR at a finite gamma > 0; a MeijerGError
    naming gamma where the density is past the double range."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"pdf needs finite gamma > 0, got {gamma!r}")
    return _values(pdf_form(dist, [math.log(gamma)]), f"pdf at gamma {gamma!r}: ")[0]


def cdf(dist: SnrDistribution, gamma: float) -> float:
    """P(SNR <= gamma) for a finite gamma >= 0, clamped to [0, 1]; 0 at
    gamma = 0."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"cdf needs finite gamma >= 0, got {gamma!r}")
    if not gamma:
        return 0.0
    return _values(cdf_form(dist, [math.log(gamma)]), f"cdf at gamma {gamma!r}: ")[0]


def mgf(dist: SnrDistribution, s: float) -> float:
    """E[exp(-s SNR)], the Laplace transform, for a finite s > 0, clamped to [0, 1].

    As s goes to zero the contour value carries rounding of order 1e-12
    and can land just above one.
    """
    return _values(mgf_form(dist, [s]), f"mgf at s {s!r}: ")[0]


def subchannel_pdf(dist: SnrDistribution, gamma_i: float,
                   mean_snr_i: float) -> float:
    """Density of a single hop's SNR at a finite gamma_i > 0 with finite
    per-hop mean ``mean_snr_i`` > 0; a MeijerGError naming gamma_i where
    the density is past the double range."""
    for name, value in (("gamma_i", gamma_i), ("mean_snr_i", mean_snr_i)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"subchannel_pdf needs finite {name} > 0, got {value!r}")
    return _values(subchannel_pdf_form(dist, [math.log(gamma_i)], mean_snr_i),
                   f"subchannel_pdf at gamma {gamma_i!r}: ")[0]


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
    where = f"pdf_by_product_integral at gamma {gamma!r}: "

    def integrand(u: np.ndarray) -> np.ndarray:
        # both hop densities of every node in one batch, at t and gamma / t
        ln_t = np.concatenate([ln_t_star + u, ln_t_star - u])
        f = np.array(_values(subchannel_pdf_form(dist, ln_t.tolist(), gbar_i), where, held))
        return f[:u.size] * f[u.size:]

    # the integrand decays at least like exp(-c u) with c the smallest
    # per-hop exponent; 42/c reaches ~1e-18 relative to the peak
    span = min(30.0 * dist.params.a + 20.0, 42.0 / min(dist.params.delta2) + 6.0)
    with MeijerGFamily(subchannel_pdf_form(dist, [], gbar_i).kernel) as held:
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
    where = f"cdf_by_quadrature at gamma {gamma!r}: "

    def integrand(u: np.ndarray) -> np.ndarray:
        return np.array(_values(_x_pdf_form(dist, (ln_gamma + u).tolist()), where, held))

    with MeijerGFamily(_x_pdf_form(dist, []).kernel) as held:
        return gauss_kronrod(integrand, -(48.0 / c + 5.0), 0.0, _TWIN_REL_TOL, 0.0).value


def mgf_by_quadrature(dist: SnrDistribution, s: float) -> float:
    """MGF as s times the Laplace transform of the closed-form CDF."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"needs finite s > 0, got {s!r}")
    ln_s = math.log(s)
    where = f"mgf_by_quadrature at s {s!r}: "

    def integrand(v: np.ndarray) -> np.ndarray:
        # the cdf at v / s
        return np.exp(-v) * np.array(
            _values(cdf_form(dist, (np.log(v) - ln_s).tolist()), where, held))

    with MeijerGFamily(cdf_form(dist, []).kernel) as held:
        return gauss_kronrod(integrand, 0.0, 50.0, _TWIN_REL_TOL, 0.0,
                             points=[0.1, 1.0, 5.0, 20.0]).value
