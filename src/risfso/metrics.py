"""Link-level performance metrics on top of the SNR statistics.

Outage probability, ergodic capacity and average BER for the four
binary modulation schemes, each as a single Meijer-G closed form with a
direct-quadrature twin, plus the high-SNR asymptote with its diversity
order and coding gain.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, gammasgn, polygamma, zeta

from .channel import DetectionMode
from .special import MeijerGSpec, meijer_g
from .statistics import SnrDistribution, cdf, pdf

__all__ = [
    "AsymptoteReport",
    "ModulationScheme",
    "average_ber",
    "average_ber_by_quadrature",
    "asymptotic_ber",
    "ergodic_capacity",
    "ergodic_capacity_by_quadrature",
    "outage_probability",
]

# relative tolerance of the quadrature twins
_TWIN_REL_TOL = 1e-9


class ModulationScheme(enum.Enum):
    """Binary schemes and their conditional-BER kernel exponents (p, q)."""

    CBFSK = (0.5, 0.5)
    NBFSK = (1.0, 0.5)
    CBPSK = (0.5, 1.0)
    DBPSK = (1.0, 1.0)

    @property
    def p(self) -> float:
        return self.value[0]

    @property
    def q(self) -> float:
        return self.value[1]

    @classmethod
    def from_name(cls, name: str) -> "ModulationScheme":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown modulation scheme {name!r}; "
                             f"choose from {[s.name for s in cls]}") from None


def outage_probability(dist: SnrDistribution, gamma_th: float | None = None, *,
                       rate: float | None = None,
                       rate_convention: str = "exp2r-minus1-exponent") -> float:
    """P(SNR < threshold).

    The threshold is given directly or derived from a target rate R.
    The default rate mapping is gamma_th = exp(2R - 1); the more common
    gamma_th = exp(2R) - 1 is available as ``rate_convention="exp2r-minus-1"``.
    """
    if (gamma_th is None) == (rate is None):
        raise ValueError("give exactly one of gamma_th or rate")
    if rate is not None:
        if rate_convention == "exp2r-minus1-exponent":
            gamma_th = math.exp(2.0 * rate - 1.0)
        elif rate_convention == "exp2r-minus-1":
            gamma_th = math.expm1(2.0 * rate)
        else:
            raise ValueError(f"unknown rate_convention {rate_convention!r}")
    if gamma_th < 0.0:
        raise ValueError(f"gamma_th must be nonnegative, got {gamma_th!r}")
    return cdf(dist, gamma_th)


def ergodic_capacity(dist: SnrDistribution) -> float:
    """Mean achievable rate E[log2(1 + chi * SNR)] in bits/s/Hz."""
    p = dist.params
    upper = (0.0, 1.0) + p.delta1
    lower = p.delta2 + (0.0, 0.0)
    z = p.q0 / (DetectionMode(p.a).chi * dist.mean_snr)
    spec = MeijerGSpec(6 * p.a + 2, 1, upper, lower, z)
    lp = p.log_m0 - math.log(math.log(2.0))
    return meijer_g(spec, log_prefactor=lp).value


def ergodic_capacity_by_quadrature(dist: SnrDistribution) -> float:
    """Capacity as the direct integral of log(1 + chi x) over the density."""
    p = dist.params
    chi = DetectionMode(p.a).chi
    gbar = dist.mean_snr
    c = min(p.delta2)

    def integrand(u: float) -> float:
        g = gbar * math.exp(u)
        return math.log1p(chi * g) * pdf(dist, g) * g

    lo = -(80.0 / c + 20.0)
    hi = 20.0 * p.a
    val, _ = quad(integrand, lo, hi, points=[0.0], limit=400,
                  epsabs=1e-290, epsrel=_TWIN_REL_TOL)
    return val / math.log(2.0)


def average_ber(dist: SnrDistribution, scheme: ModulationScheme) -> float:
    """Average bit error probability of the given binary scheme."""
    p = dist.params
    sp, sq = scheme.p, scheme.q
    upper = (1.0 - sp, 1.0) + p.delta1
    lower = p.delta2 + (0.0,)
    z = p.q0 / (sq * dist.mean_snr)
    spec = MeijerGSpec(6 * p.a, 2, upper, lower, z)
    lp = p.log_m0 - math.log(2.0) - math.lgamma(sp)
    return meijer_g(spec, log_prefactor=lp).value


def average_ber_by_quadrature(dist: SnrDistribution,
                              scheme: ModulationScheme) -> float:
    """BER as the Laplace-kernel integral over the closed-form CDF.

    Substituting x = v^(1/p) absorbs the x^(p-1) weight, leaving
    (q^p / (2 Gamma(p) p)) * int_0^inf exp(-q v^(1/p)) F(v^(1/p)) dv.
    """
    sp, sq = scheme.p, scheme.q

    def integrand(v: float) -> float:
        if v <= 0.0:
            return 0.0
        g = v ** (1.0 / sp)
        return math.exp(-sq * g) * cdf(dist, g)

    v_hi = (45.0 / sq) ** sp
    val, _ = quad(integrand, 0.0, v_hi, points=[(1.0 / sq) ** sp],
                  limit=400, epsabs=1e-290, epsrel=_TWIN_REL_TOL)
    return sq ** sp / (2.0 * math.gamma(sp) * sp) * val


@dataclass(frozen=True)
class AsymptoteReport:
    """High-SNR BER law from the residues at the decay exponents.

    Both hops share their statistics, so every decay exponent appears
    twice in the lower parameter row and each pole is at least double.
    The leading law is therefore not a pure power but

        P_b ~ mean_snr^(-diversity_order) * sum_k c_k ln(mean_snr)^k,

    ``leading_coefficients = (c_0, c_1, ...)``, a polynomial of degree
    one below the pole order: ``c_1 ln(mean_snr) + c_0`` for this
    cascade, degree three when zeta^2 equals alpha or beta.  The full
    sum keeps the exact residue at every distinct exponent; term ``i``
    is

        exp(log_prefactor) * term_weights[i]
            * w^(-exponents[i]) * ln(w)^log_powers[i],
        w = kernel_scale * mean_snr / argument_scale,

    where ``exponents`` lists the lower-row entries, ascending and with
    multiplicity, and a power that an upper-row entry cancels (both
    (zeta^2 + 1)/2 poles under IM/DD) carries weight 0.  ``coding_gain``
    is the effective value at ``mean_snr``, defined by
    ``(coding_gain * mean_snr)^(-diversity_order) = ber_estimate``: the
    log factor makes it drift, so a single constant only holds pointwise.
    """

    diversity_order: float
    coding_gain: float
    leading_coefficients: tuple[float, ...]
    term_weights: tuple[float, ...]
    exponents: tuple[float, ...]
    log_powers: tuple[int, ...]
    log_weights: tuple[float, ...]
    weight_signs: tuple[float, ...]
    log_prefactor: float
    kernel_scale: float
    argument_scale: float
    mean_snr: float
    ber_estimate: float

    def evaluate(self, mean_snr: float) -> float:
        """Asymptotic BER at another mean SNR."""
        lnw = math.log(self.kernel_scale * mean_snr / self.argument_scale)
        total = 0.0
        for lw, sg, ex, k in zip(self.log_weights, self.weight_signs,
                                 self.exponents, self.log_powers):
            total += sg * math.exp(self.log_prefactor + lw - ex * lnw) * lnw ** k
        return total


_COINCIDENT = 1e-9  # exponents closer than this share one pole


def _residue_terms(d: float, lower: tuple[float, ...],
                   upper: tuple[float, ...], sp: float) -> list[tuple[float, float]]:
    """Residue of the BER Mellin-Barnes integrand at s = d, by power of ln w.

    The integrand is Gamma(sp + s) / s * prod Gamma(lower - s)
    / prod Gamma(upper - s) * w^(-s), where ``upper`` holds the entries
    after the first two of the BER G-function's upper row.  Entries of
    either row that sit a nonnegative integer below d make d a pole of
    order m (the upper row contributes zeros).  Returns (log|weight|,
    sign) for the powers 0 .. m-1 of ln w, empty when the upper row
    cancels the pole.
    """
    lo = np.asarray(lower) - d
    up = np.asarray(upper) - d
    # every factor as Gamma(y + step * u)^power around s = d + u, with
    # Gamma(sp + s) / s = Gamma(sp + s) Gamma(s) / Gamma(1 + s)
    y = np.concatenate(([sp + d, d, d + 1.0], lo, up))
    step = np.concatenate(([1.0] * 3, -np.ones(lo.size + up.size)))
    power = np.concatenate(([1.0, 1.0, -1.0], np.ones(lo.size),
                            -np.ones(up.size)))
    pole = (step < 0.0) & (y < _COINCIDENT) \
        & (np.abs(y - np.round(y)) < _COINCIDENT)
    m = int(power[pole].sum())
    if m <= 0:
        return []
    # Gamma(-n - u) = (-1)^(n+1) / (u Gamma(1 + n + u)) * pi u / sin(pi u)
    n = -np.round(y[pole])
    sign = np.prod(gammasgn(y[~pole])) * np.prod((-1.0) ** (n + 1.0))
    y[pole], step[pole], power[pole] = 1.0 + n, 1.0, -power[pole]
    c = np.empty(m)
    c[0] = power @ gammaln(y)
    for j in range(1, m):
        c[j] = power @ (step ** j * polygamma(j - 1, y)) / math.factorial(j)
        if j % 2 == 0:  # ln(pi u / sin(pi u)) = sum_k zeta(2k) u^(2k) / k
            c[j] += m * zeta(j) / (j // 2)
    # e = exp(c - c_0) as a power series in u
    e = [1.0]
    for j in range(1, m):
        e.append(sum(k * c[k] * e[j - k] for k in range(1, j + 1)) / j)
    # closing the contour to the right collects minus the residue, the
    # coefficient of u^(m-1) in sign exp(c(u)) w^(-d-u), whose ln w^k
    # part is (-1)^k e_{m-1-k} / k!
    terms = []
    for k in range(m):
        coef = -sign * (-1.0) ** k * e[m - 1 - k] / math.factorial(k)
        terms.append((c[0] + math.log(abs(coef)) if coef else -math.inf,
                      math.copysign(1.0, coef) if coef else 0.0))
    return terms


def asymptotic_ber(dist: SnrDistribution,
                   scheme: ModulationScheme) -> AsymptoteReport:
    """Leading high-SNR expansion of the average BER.

    Sums the exact residue at each decay exponent; the coincident pairs
    of the cascade give double poles, so the dominant term is
    mean_snr^(-G_d) (c_1 ln(mean_snr) + c_0).  ``report.ber_estimate``
    holds the asymptote at the distribution's own mean SNR;
    ``report.evaluate`` re-evaluates the sum elsewhere.
    """
    p = dist.params
    sp, sq = scheme.p, scheme.q
    vals = sorted(p.delta2)
    clusters: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] < _COINCIDENT:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    gaps = [c2[0] - c1[-1] for c1, c2 in zip(clusters[:-1], clusters[1:])]
    if gaps and min(gaps) < 1e-6:
        warnings.warn(
            f"decay exponents nearly degenerate (gap {min(gaps):.2e}); "
            "asymptote term weights are ill-conditioned", RuntimeWarning)

    # every upper entry lies above the smallest exponent, so its pole
    # survives and sets the diversity order
    residues = [_residue_terms(members[0], p.delta2, p.delta1, sp)
                for members in clusters]
    diversity, leading = vals[0], residues[0]
    exps, powers, log_weights, signs = [], [], [], []
    for members, terms in zip(clusters, residues):
        # one entry per lower-row entry or pole order, whichever is larger
        terms = terms + [(-math.inf, 0.0)] * (len(members) - len(terms))
        for k, (lw, sg) in enumerate(terms):
            exps.append(members[0])
            powers.append(k)
            log_weights.append(lw)
            signs.append(sg)

    log_pref = p.log_m0 - math.log(2.0) - math.lgamma(sp)
    # leading term in ln(mean_snr): ln w = ln(mean_snr) + shift
    shift = math.log(sq / p.q0)
    lin = [sg * math.exp(log_pref + lw - diversity * shift) for lw, sg in leading]
    leading_coefficients = tuple(
        sum(w * math.comb(k, j) * shift ** (k - j) for k, w in enumerate(lin)
            if k >= j)
        for j in range(len(lin)))

    report = AsymptoteReport(
        diversity_order=diversity,
        coding_gain=math.nan,
        leading_coefficients=leading_coefficients,
        term_weights=tuple(sg * math.exp(lw) if lw < 700.0 else sg * math.inf
                           for lw, sg in zip(log_weights, signs)),
        exponents=tuple(exps),
        log_powers=tuple(powers),
        log_weights=tuple(log_weights),
        weight_signs=tuple(signs),
        log_prefactor=log_pref,
        kernel_scale=sq,
        argument_scale=p.q0,
        mean_snr=dist.mean_snr,
        ber_estimate=math.nan,
    )
    est = report.evaluate(dist.mean_snr)
    gc = est ** (-1.0 / diversity) / dist.mean_snr if est > 0.0 else math.nan
    object.__setattr__(report, "ber_estimate", est)
    object.__setattr__(report, "coding_gain", gc)
    return report
