"""Physical link description and derived analytical parameters.

Translates a free-space-optical hop (geometry, wavelength, refractive
index structure, pointing) into the turbulence shape parameters, the
pointing-error parameters, and the cascade parameter bundle that every
closed-form statistic of the reflected two-hop link consumes, and holds
the source's wavelengths and turbulence-shape table.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "CascadeParams",
    "DetectionMode",
    "LinkScenario",
    "PointingState",
    "TABLE2",
    "TurbulenceState",
    "WAVELENGTH_NM",
    "alpha_beta",
    "cascade_from_constants",
    "path_loss",
    "pointing_state",
    "rytov_variance",
]


WAVELENGTH_NM = {"red": 700.0, "green": 530.0, "blue": 470.0}

# (color, turbulence level) -> (alpha, beta); column labels of the source
# parameter table (levels: strong 2e-11, moderate 3e-12, weak 5e-14)
TABLE2 = {
    ("red", "strong"): (10.9537, 2.9833),
    ("blue", "strong"): (12.5331, 4.6787),
    ("green", "strong"): (13.2818, 5.7795),
    ("red", "moderate"): (4.9477, 1.2310),
    ("blue", "moderate"): (5.6690, 1.4315),
    ("green", "moderate"): (6.0130, 1.5682),
    ("red", "weak"): (2.9428, 2.5605),
    ("blue", "weak"): (2.5012, 2.0807),
    ("green", "weak"): (2.3664, 1.9221),
}


class DetectionMode(enum.Enum):
    """Receiver front end: heterodyne or intensity-modulation direct
    detection.  The SNR exponent ``a`` and the capacity scale ``chi``
    are bound to the mode by construction."""

    HD = 1
    IM_DD = 2

    @property
    def a(self) -> int:
        return self.value

    @property
    def chi(self) -> float:
        return 1.0 if self is DetectionMode.HD else math.e / (2.0 * math.pi)

    @classmethod
    def from_name(cls, name: str) -> "DetectionMode":
        key = name.strip().lower().replace("/", "").replace("-", "").replace("_", "")
        if key == "hd":
            return cls.HD
        if key in ("imdd", "im"):
            return cls.IM_DD
        raise ValueError(f"unknown detection mode {name!r} (use 'hd' or 'imdd')")


@dataclass(frozen=True)
class LinkScenario:
    """One sub-channel of the reflected link.

    All lengths in meters, ``cn2`` in m^(-2/3), ``attenuation`` in 1/m.
    ``zeta`` (equivalent beam radius over pointing jitter) is a direct
    input: sweeps vary it without deriving it from a jitter sigma.
    """

    wavelength: float
    distance: float
    aperture_diameter: float
    cn2: float
    receiver_radius: float
    beam_waist: float
    attenuation: float
    zeta: float
    detection: DetectionMode = DetectionMode.HD

    def __post_init__(self) -> None:
        for name in ("wavelength", "distance", "aperture_diameter",
                     "receiver_radius", "beam_waist", "zeta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 1e-17 <= self.cn2 <= 1e-9:
            raise ValueError(f"cn2 outside the supported range [1e-17, 1e-9]: {self.cn2!r}")
        if self.attenuation < 0.0:
            raise ValueError(f"attenuation must be nonnegative, got {self.attenuation!r}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class TurbulenceState:
    """Rytov variance, aperture parameter and the two gamma shapes."""

    rytov: float
    d: float
    alpha: float
    beta: float
    saturated: bool = False


@dataclass(frozen=True)
class PointingState:
    v: float
    a0: float
    zeta: float

    def __post_init__(self) -> None:
        # a0 = 1 is the wide-receiver limit where erf saturates
        if not 0.0 < self.a0 <= 1.0:
            raise ValueError(f"a0 must lie in (0, 1], got {self.a0!r}")
        if not self.zeta > 0.0:
            raise ValueError(f"zeta must be positive, got {self.zeta!r}")


@dataclass(frozen=True)
class CascadeParams:
    """Constants of the two-hop closed forms.

    ``delta1``/``delta2`` are the 2a- and 6a-entry parameter lists of
    the CDF-level G-function; ``mean_snr`` is the product of the two
    per-hop mean SNRs with path loss already folded in.  M and M0 are
    kept as ``log_m``/``log_m0``: M0 leaves the double range for large
    turbulence shapes.
    """

    zeta2: float
    alpha: float
    beta: float
    a: int
    mean_snr: float
    log_m: float
    big_q: float
    log_m0: float
    q0: float
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]


def rytov_variance(scenario: LinkScenario) -> float:
    """sigma_2^2 = 0.492 Cn^2 eta^(7/6) L^(11/6) with eta = 2 pi / lambda."""
    return 0.492 * scenario.cn2 * scenario.wavenumber ** (7.0 / 6.0) \
        * scenario.distance ** (11.0 / 6.0)


_SATURATION_EXPONENT = 1e-12


def alpha_beta(scenario: LinkScenario) -> TurbulenceState:
    """Gamma shape parameters from the Rytov variance.

    Both shapes are 1/(exp(x) - 1) for exponent arguments x built from
    sigma_2^2 and d = sqrt(eta D^2 / 4 L).  When an exponent argument
    underflows the shape is returned at the 1/x limit with the
    ``saturated`` flag set.  Note the beta exponent as implemented
    keeps the (1 + 0.69 sigma^{12/5})^{-5/6} factor in its numerator,
    so beta can exceed alpha at moderate turbulence strengths.
    """
    s2 = rytov_variance(scenario)
    if not s2 > 0.0:
        raise ValueError(f"rytov variance must be positive, got {s2!r}")
    d2 = scenario.wavenumber * scenario.aperture_diameter ** 2 / (4.0 * scenario.distance)
    d = math.sqrt(d2)
    s125 = s2 ** 2.4

    x_alpha = 0.49 * s2 / (1.0 + 0.18 * d2 + 0.56 * s125) ** (7.0 / 6.0)
    x_beta = 0.51 * s2 * (1.0 + 0.69 * s125) ** (-5.0 / 6.0) \
        / (1.0 + 0.90 * d2 + 0.62 * s125) ** (5.0 / 6.0)

    saturated = min(x_alpha, x_beta) < _SATURATION_EXPONENT
    alpha = 1.0 / x_alpha if x_alpha < _SATURATION_EXPONENT else 1.0 / math.expm1(x_alpha)
    beta = 1.0 / x_beta if x_beta < _SATURATION_EXPONENT else 1.0 / math.expm1(x_beta)
    return TurbulenceState(rytov=s2, d=d, alpha=alpha, beta=beta, saturated=saturated)


def pointing_state(scenario: LinkScenario) -> PointingState:
    """v = r sqrt(pi) / (sqrt(2) w_z) and A0 = erf(v)^2; zeta passes through."""
    v = scenario.receiver_radius * math.sqrt(math.pi) / (math.sqrt(2.0) * scenario.beam_waist)
    a0 = math.erf(v) ** 2
    return PointingState(v=v, a0=a0, zeta=scenario.zeta)


def path_loss(scenario: LinkScenario) -> float:
    """Beer-Lambert transmission exp(-attenuation * distance), in (0, 1]."""
    return math.exp(-scenario.attenuation * scenario.distance)


def cascade_from_constants(alpha: float, beta: float, zeta: float,
                           mode: DetectionMode, mean_snr_h: float,
                           mean_snr_g: float) -> CascadeParams:
    """Closed-form constants of the two-hop cascade from the turbulence
    shapes (alpha, beta) and the pointing ratio zeta.

    With M = zeta^2 / (a Gamma(alpha) Gamma(beta)), the
    Gauss-multiplication constants are

        M0 = M^2 a^(2(alpha+beta-1)) / (2 pi)^(2(a-1)),
        Q0 = Q^(2a) / a^(4a),

    both validated against direct quadrature of the CDF integral for
    a = 2 (the a = 1 case collapses to M0 = M^2, Q0 = Q^2).
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("zeta", zeta),
                        ("mean_snr_h", mean_snr_h), ("mean_snr_g", mean_snr_g)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    mean_snr = mean_snr_h * mean_snr_g
    if not 0.0 < mean_snr < math.inf:
        raise ValueError(f"mean_snr_h * mean_snr_g must be a positive finite double, "
                         f"got {mean_snr_h!r} * {mean_snr_g!r} = {mean_snr!r}")
    a = mode.a
    zeta2 = zeta ** 2

    log_m = math.log(zeta2 / a) - math.lgamma(alpha) - math.lgamma(beta)
    big_q = zeta2 * alpha * beta / (1.0 + zeta2)
    log_m0 = (2.0 * log_m + 2.0 * (alpha + beta - 1.0) * math.log(a)
              - 2.0 * (a - 1) * math.log(2.0 * math.pi))
    q0 = big_q ** (2 * a) / a ** (4 * a)

    delta1 = tuple((zeta2 + 1.0 + k) / a for k in range(a)) * 2
    delta2 = (tuple((zeta2 + k) / a for k in range(a))
              + tuple((alpha + k) / a for k in range(a))
              + tuple((beta + k) / a for k in range(a))) * 2

    return CascadeParams(zeta2=zeta2, alpha=alpha, beta=beta, a=a,
                         mean_snr=mean_snr,
                         log_m=log_m, big_q=big_q, log_m0=log_m0, q0=q0,
                         delta1=delta1, delta2=delta2)
