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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, gammasgn, polygamma, zeta

from .channel import DetectionMode
from .special import MeijerGFamily, MeijerGKernel, gauss_kronrod
from .statistics import (
    FormFamily,
    SnrDistribution,
    _values,
    _x_pdf_form,
    cdf,
    cdf_form,
)

__all__ = [
    "AsymptoteReport",
    "ModulationScheme",
    "average_ber",
    "average_ber_by_quadrature",
    "asymptotic_ber",
    "ber_form",
    "capacity_form",
    "ergodic_capacity",
    "ergodic_capacity_by_quadrature",
    "outage_probability",
]

# relative tolerance of the quadrature twins
_TWIN_REL_TOL = 1e-9
# outage_probability's threshold gamma_th from a target rate R, by rate
# convention, the first being the default
_RATE_THRESHOLDS = {
    "exp2r-minus1-exponent": lambda rate: math.exp(2.0 * rate - 1.0),
    "exp2r-minus-1": lambda rate: math.expm1(2.0 * rate),
}
RATE_CONVENTIONS = tuple(_RATE_THRESHOLDS)


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
        if rate_convention not in _RATE_THRESHOLDS:
            raise ValueError(f"unknown rate_convention {rate_convention!r}")
        if not math.isfinite(rate):
            raise ValueError(f"rate must be finite, got {rate!r}")
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate!r}")
        try:
            gamma_th = _RATE_THRESHOLDS[rate_convention](rate)
        except OverflowError:
            raise ValueError(
                f"rate {rate!r} gives a threshold past the largest double") from None
    if not math.isfinite(gamma_th):
        raise ValueError(f"gamma_th must be finite, got {gamma_th!r}")
    if gamma_th < 0.0:
        raise ValueError(f"gamma_th must be nonnegative, got {gamma_th!r}")
    return cdf(dist, gamma_th)


def capacity_form(dist: SnrDistribution, mean_snr: list[float] | None = None) -> FormFamily:
    """Closed form of the ergodic capacity at each mean SNR times mu^2 of
    ``mean_snr`` (positive finite doubles), or at the distribution's own
    where it is None."""
    p = dist.params
    lnq = math.log(p.q0) - math.log(DetectionMode(p.a).chi)
    kernel = MeijerGKernel(6 * p.a + 2, 1, (0.0, 1.0) + p.delta1, p.delta2 + (0.0, 0.0))
    lnz = [lnq - math.log(v) for v in mean_snr or [dist.mean_snr]]
    return FormFamily(kernel, lnz, [p.log_m0 - math.log(math.log(2.0))] * len(lnz))


def ergodic_capacity(dist: SnrDistribution) -> float:
    """Mean achievable rate E[log2(1 + chi * SNR)] in bits/s/Hz."""
    return _values(capacity_form(dist), f"ergodic_capacity at mean SNR {dist.mean_snr!r}: ")[0]


def ergodic_capacity_by_quadrature(dist: SnrDistribution) -> float:
    """Capacity as the direct integral of log(1 + chi x) over the density."""
    p = dist.params
    chi = DetectionMode(p.a).chi
    gbar = dist.mean_snr
    ln_gbar = math.log(gbar)
    c = min(p.delta2)

    def integrand(u: np.ndarray) -> np.ndarray:
        # g f(g) at g = gbar e^u as one closed form
        gf = np.array(_values(_x_pdf_form(dist, (ln_gbar + u).tolist()), held=held))
        return np.log1p(chi * gbar * np.exp(u)) * gf

    # toward the origin the integrand falls like exp((1 + c) u), so the cut
    # at -(80/c + 20) leaves out about exp(-80/c - 100) of its size at u = 0
    with MeijerGFamily(_x_pdf_form(dist, []).kernel) as held:
        val = gauss_kronrod(integrand, -(80.0 / c + 20.0), 20.0 * p.a, _TWIN_REL_TOL,
                            1e-290, points=[0.0]).value
    return val / math.log(2.0)


def ber_form(dist: SnrDistribution, scheme: ModulationScheme,
             mean_snr: list[float] | None = None) -> FormFamily:
    """Closed form of the average BER of the given binary scheme at each
    mean SNR times mu^2 of ``mean_snr`` (positive finite doubles), or at
    the distribution's own where it is None."""
    p = dist.params
    sp, sq = scheme.p, scheme.q
    lnq = math.log(p.q0) - math.log(sq)
    kernel = MeijerGKernel(6 * p.a, 2, (1.0 - sp, 1.0) + p.delta1, p.delta2 + (0.0,))
    lnz = [lnq - math.log(v) for v in mean_snr or [dist.mean_snr]]
    return FormFamily(kernel, lnz, [p.log_m0 - math.log(2.0) - math.lgamma(sp)] * len(lnz))


def average_ber(dist: SnrDistribution, scheme: ModulationScheme) -> float:
    """Average bit error probability of the given binary scheme."""
    return _values(ber_form(dist, scheme),
                   f"average_ber of {scheme.name} at mean SNR {dist.mean_snr!r}: ")[0]


def average_ber_by_quadrature(dist: SnrDistribution,
                              scheme: ModulationScheme) -> float:
    """BER as the Laplace-kernel integral over the closed-form CDF.

    Substituting x = v^(1/p) absorbs the x^(p-1) weight, leaving
    (q^p / (2 Gamma(p) p)) * int_0^inf exp(-q v^(1/p)) F(v^(1/p)) dv.
    """
    sp, sq = scheme.p, scheme.q

    def integrand(v: np.ndarray) -> np.ndarray:
        # the cdf at g = v^(1/p)
        return np.exp(-sq * v ** (1.0 / sp)) * np.array(
            _values(cdf_form(dist, (np.log(v) / sp).tolist()), held=held))

    v_hi = (45.0 / sq) ** sp
    with MeijerGFamily(cdf_form(dist, []).kernel) as held:
        val = gauss_kronrod(integrand, 0.0, v_hi, _TWIN_REL_TOL, 1e-290,
                            points=[(1.0 / sq) ** sp]).value
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
        return _exp_sum([self.log_prefactor + lw - ex * lnw
                         for lw, ex in zip(self.log_weights, self.exponents)],
                        [sg * lnw ** k
                         for sg, k in zip(self.weight_signs, self.log_powers)])


# the largest log whose exp a sum takes unscaled, which leaves the
# polynomial weights e^109 of headroom
_EXP_CEILING = 600.0


def _signed_exp(sign: float, log_abs: float) -> float:
    """sign * exp(log_abs) for a sign of -1, 0 or 1; a value past the
    double range is +-inf."""
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf if sign else 0.0


def _exp_sum(logs: list[float], weights: list[float]) -> float:
    """sum_i weights[i] * exp(logs[i]); +-inf past the double range.  Past
    ``_EXP_CEILING`` every term is scaled by the largest exp(logs[i])
    before the sum, so that terms never meet as inf - inf."""
    scale = max(0.0, max(logs) - _EXP_CEILING)
    total = sum(w * math.exp(lg - scale) for lg, w in zip(logs, weights))
    if total == 0.0 or scale == 0.0:
        return total
    return _signed_exp(math.copysign(1.0, total), scale + math.log(abs(total)))


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
    logs = [log_pref + lw - diversity * shift for lw, _ in leading]
    leading_coefficients = tuple(
        _exp_sum(logs[j:], [sg * math.comb(k, j) * shift ** (k - j)
                            for k, (_, sg) in enumerate(leading[j:], j)])
        for j in range(len(logs)))

    report = AsymptoteReport(
        diversity_order=diversity,
        coding_gain=math.nan,
        leading_coefficients=leading_coefficients,
        term_weights=tuple(_signed_exp(sg, lw)
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
    if not 0.0 <= est <= 0.5:
        warnings.warn("ber_estimate is no BER: the high-SNR expansion is outside "
                      "its regime at this mean SNR", RuntimeWarning, stacklevel=2)
    gc = est ** (-1.0 / diversity) / dist.mean_snr if est > 0.0 else math.nan
    return replace(report, ber_estimate=est, coding_gain=gc)
