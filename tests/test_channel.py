"""Physical-parameter derivation and the cascade constant bundle."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv as scipy_kv

from risfso.channel import (
    CascadeParams,
    DetectionMode,
    LinkScenario,
    PointingState,
    alpha_beta,
    cascade_from_constants,
    path_loss,
    pointing_state,
    rytov_variance,
)


def scenario(**kw) -> LinkScenario:
    base = dict(wavelength=700e-9, distance=1000.0, aperture_diameter=1e-3,
                cn2=5e-14, receiver_radius=0.1, beam_waist=1.0,
                attenuation=0.0, zeta=6.1, detection=DetectionMode.HD)
    base.update(kw)
    return LinkScenario(**base)


# ---------------------------------------------------------------------------
# scintillation strength


def test_rytov_frozen_reference():
    # mpmath: 0.492 * 5e-14 * (2 pi / 700e-9)^(7/6) * 1000^(11/6)
    assert rytov_variance(scenario()) == pytest.approx(1.0066161800498364,
                                                       rel=1e-14)


def test_rytov_linear_in_cn2():
    s1 = rytov_variance(scenario(cn2=2e-14))
    s2 = rytov_variance(scenario(cn2=4e-14))
    assert s2 == pytest.approx(2.0 * s1, rel=1e-14)
    assert rytov_variance(scenario(cn2=1e-16)) > 0.0


def test_alpha_beta_frozen_reference_unit_rytov():
    # cn2 chosen so the Rytov variance is exactly the frozen 1.0066...;
    # references recomputed from the printed shape formulas at 30 digits
    sc = scenario()
    turb = alpha_beta(sc)
    assert turb.rytov == pytest.approx(1.0066161800498364, rel=1e-13)
    assert turb.d == pytest.approx(0.0473708217425467301, rel=1e-13)
    assert turb.alpha == pytest.approx(2.95411653953239548, rel=1e-10)
    assert turb.beta == pytest.approx(4.07933810221389554, rel=1e-10)
    assert not turb.saturated


def test_alpha_beta_zero_aperture_reference():
    # d -> 0 at unit Rytov variance: alpha = 1/(exp(0.49/1.56^(7/6)) - 1)
    sc = scenario(aperture_diameter=1e-7,
                  cn2=5e-14 / 1.0066161800498364)
    turb = alpha_beta(sc)
    assert turb.alpha == pytest.approx(2.95286414723249881, rel=1e-9)
    assert turb.beta == pytest.approx(4.05704347836366006, rel=1e-9)


def test_alpha_beta_saturation_flag():
    turb = alpha_beta(scenario(cn2=1e-17, distance=0.01))
    assert turb.saturated
    assert turb.alpha > 1e11 and turb.beta > 1e11


def test_alpha_beta_monotone_then_saturating():
    # The shapes fall with rising scintillation only up to the turn of
    # the saturation corrections (near rytov 1.05 for alpha, 0.75 for
    # beta, grid-checked here); past the turn both grow again.  The
    # strictly-decreasing window is what the property test pins.
    cn2_for = lambda s2: s2 * 5e-14 / 1.0066161800498364
    alphas, betas = [], []
    grid = np.linspace(0.1, 0.7, 13)
    for s2 in grid:
        turb = alpha_beta(scenario(aperture_diameter=1e-7, cn2=cn2_for(s2)))
        alphas.append(turb.alpha)
        betas.append(turb.beta)
    assert all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:]))
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
    # saturation regime: both shapes rise again
    hi = [alpha_beta(scenario(aperture_diameter=1e-7, cn2=cn2_for(s2)))
          for s2 in (2.0, 5.0)]
    assert hi[1].alpha > hi[0].alpha > alphas[-1]
    assert hi[1].beta > hi[0].beta > betas[-1]


# ---------------------------------------------------------------------------
# pointing

def test_pointing_state_formulas():
    # r = w_z gives v = sqrt(pi/2); A0 frozen from the erf reference
    pt = pointing_state(scenario(receiver_radius=0.4, beam_waist=0.4))
    assert pt.v == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    assert pt.a0 == pytest.approx(0.853186128923578706, rel=1e-13)
    assert pt.zeta == 6.1


def test_pointing_a0_limit():
    pt = pointing_state(scenario(receiver_radius=10.0, beam_waist=0.01))
    assert pt.a0 == pytest.approx(1.0, abs=1e-12)


def test_pointing_zeta_passthrough():
    assert pointing_state(scenario(zeta=6.1)).zeta == 6.1
    assert pointing_state(scenario(zeta=1.1)).zeta == 1.1


def test_pointing_pdf_normalizes():
    # power-law density zeta^2/a0^(zeta^2) * x^(zeta^2 - 1) on [0, a0]
    for zeta in (1.1, 6.1):
        pt = pointing_state(scenario(zeta=zeta))
        z2 = zeta ** 2
        val, _ = quad(lambda x: z2 / pt.a0 ** z2 * x ** (z2 - 1.0),
                      0.0, pt.a0, epsabs=1e-14, epsrel=1e-13)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_turbulence_pdf_normalizes_for_all_table_rows():
    pairs = [(10.9537, 2.9833), (12.5331, 4.6787), (13.2818, 5.7795),
             (4.9477, 1.2310), (5.6690, 1.4315), (6.0130, 1.5682),
             (2.9428, 2.5605), (2.5012, 2.0807), (2.3664, 1.9221)]
    for alpha, beta in pairs:
        lead = (2.0 * (alpha * beta) ** (0.5 * (alpha + beta))
                / (math.gamma(alpha) * math.gamma(beta)))

        def dens(u: float) -> float:
            x = math.exp(u)
            return (lead * x ** (0.5 * (alpha + beta))
                    * scipy_kv(alpha - beta, 2.0 * math.sqrt(alpha * beta * x)))

        val, _ = quad(dens, -40.0, 8.0, limit=400, epsabs=1e-12, epsrel=1e-11)
        assert val == pytest.approx(1.0, abs=1e-8), (alpha, beta)


# ---------------------------------------------------------------------------
# path loss

def test_path_loss():
    assert path_loss(scenario(attenuation=0.0)) == 1.0
    assert path_loss(scenario(attenuation=math.log(2.0) / 1000.0)) \
        == pytest.approx(0.5, rel=1e-14)
    assert path_loss(scenario(attenuation=1e-4)) \
        == pytest.approx(math.exp(-0.1), rel=1e-14)


# ---------------------------------------------------------------------------
# cascade constants

def _parts(zeta: float, alpha: float, beta: float, mode: DetectionMode,
           gh: float = 10.0, gg: float = 10.0) -> CascadeParams:
    return cascade_from_constants(alpha, beta, zeta, mode, gh, gg)


def test_cascade_heterodyne_collapses():
    p = _parts(6.1, 10.9537, 2.9833, DetectionMode.HD)
    assert p.a == 1
    assert math.exp(p.log_m0) == pytest.approx(math.exp(p.log_m) ** 2,
                                               rel=1e-14)
    assert p.q0 == pytest.approx(p.big_q ** 2, rel=1e-14)
    z2 = 6.1 ** 2
    assert p.delta1 == (z2 + 1.0, z2 + 1.0)
    assert p.delta2 == (z2, 10.9537, 2.9833, z2, 10.9537, 2.9833)


def test_cascade_q_formula():
    p = _parts(6.1, 10.9537, 2.9833, DetectionMode.HD)
    z2 = 6.1 ** 2
    assert p.big_q == pytest.approx(z2 * 10.9537 * 2.9833 / (1.0 + z2),
                                    rel=1e-14)
    assert math.exp(p.log_m) == pytest.approx(
        z2 / (math.gamma(10.9537) * math.gamma(2.9833)), rel=1e-12)


def test_cascade_imdd_lists_are_half_shifted():
    p = _parts(2.0, 4.2, 2.5, DetectionMode.IM_DD)
    assert p.a == 2
    assert len(p.delta1) == 4 and len(p.delta2) == 12
    z2 = 4.0
    half = (z2 / 2, (z2 + 1) / 2, 4.2 / 2, (4.2 + 1) / 2, 2.5 / 2, (2.5 + 1) / 2)
    assert p.delta1 == ((z2 + 1) / 2, (z2 + 2) / 2) * 2
    assert p.delta2 == half + half
    # the multiplication constants validated against direct quadrature
    assert math.exp(p.log_m0) == pytest.approx(
        math.exp(p.log_m) ** 2 * 2 ** (2 * (4.2 + 2.5 - 1)) / (2 * math.pi) ** 2,
        rel=1e-13)
    assert p.q0 == pytest.approx(p.big_q ** 4 / 256.0, rel=1e-13)


def test_cascade_mean_snr_product_and_scale_free():
    p1 = _parts(2.0, 4.2, 2.5, DetectionMode.HD, gh=4.0, gg=25.0)
    assert p1.mean_snr == pytest.approx(100.0, rel=1e-14)
    p2 = _parts(2.0, 4.2, 2.5, DetectionMode.HD, gh=40.0, gg=250.0)
    for name in ("log_m", "big_q", "log_m0", "q0", "delta1", "delta2", "zeta2"):
        assert getattr(p1, name) == getattr(p2, name)
    assert p2.mean_snr == pytest.approx(1e4, rel=1e-14)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("name", ["alpha", "beta", "zeta", "mean_snr_h",
                                  "mean_snr_g"])
def test_cascade_rejects_an_input_that_is_not_positive_and_finite(name, value):
    # an infinite shape or mean SNR fails here, naming it, rather than
    # as a non-finite ln z inside a closed form
    args = dict(alpha=4.2, beta=2.5, zeta=2.0, mode=DetectionMode.HD,
                mean_snr_h=10.0, mean_snr_g=10.0)
    args[name] = value
    with pytest.raises(ValueError, match=rf"^{name} must be positive and "
                                         rf"finite, got {value!r}$"):
        cascade_from_constants(**args)


def test_detection_mode_binding():
    assert DetectionMode.HD.a == 1 and DetectionMode.HD.chi == 1.0
    assert DetectionMode.IM_DD.a == 2
    assert DetectionMode.IM_DD.chi == pytest.approx(math.e / (2 * math.pi),
                                                    rel=1e-15)
    assert DetectionMode.from_name("hd") is DetectionMode.HD
    assert DetectionMode.from_name("IM/DD") is DetectionMode.IM_DD
    with pytest.raises(ValueError):
        DetectionMode.from_name("coherent")


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(wavelength=-1.0)
    with pytest.raises(ValueError):
        scenario(cn2=1e-20)
    with pytest.raises(ValueError):
        scenario(attenuation=-0.1)
    with pytest.raises(ValueError):
        scenario(zeta=0.0)
    with pytest.raises(ValueError):
        PointingState(v=1.0, a0=1.5, zeta=1.0)
