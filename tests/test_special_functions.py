"""Log-gamma kernel, quadrature helper and the Meijer-G evaluator.

The log-gamma kernel is scipy's; its tests compare exp(loggamma), all
that the contour integrands use, against frozen values.  Frozen
reference values were computed with an arbitrary-precision library
(mpmath, 30+ significant digits); the Meijer-G ones, 40 digits each, sit
in ``meijer_references.json`` with the script that regenerates them.
Runtime identity checks use scipy's Bessel K as an independent
reference.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import kv as scipy_kv

from conftest import meijer_references, reflected
from risfso.special import (
    ContourError,
    MeijerGSpec,
    gauss_kronrod,
    loggamma_complex,
    meijer_g,
)

# ---------------------------------------------------------------------------
# gamma family


def test_gamma_frozen_reference():
    # Gamma is exp(loggamma), as the contour integrands use it
    # mpmath: gamma(3.7)
    assert math.exp(loggamma_complex(3.7)) \
        == pytest.approx(4.17065178379660317, rel=1e-13)
    # mpmath: gamma(2.5 + 3j)
    want = complex(-0.218118971081122897, 0.0720347634071750336)
    got = cmath.exp(complex(loggamma_complex(2.5 + 3j)))
    assert abs(got - want) / abs(want) < 1e-12


def test_loggamma_frozen_reference_via_exp():
    # branch-insensitive: compare exp(loggamma) against mpmath values
    for z, ref in [
        (0.3 + 40j, complex(-62.6506860539681327, 107.24156057988668)),
        (37.9 + 5j, complex(98.6350923491788905, 18.1233147869344574)),
    ]:
        got = cmath.exp(complex(loggamma_complex(z)))
        want = cmath.exp(ref)
        assert abs(got - want) / abs(want) < 5e-13


def test_gamma_recurrence_on_grid():
    rng = np.random.default_rng(7)
    z = rng.uniform(0.05, 49.0, 200)
    g1 = np.array([complex(loggamma_complex(v + 1.0)) for v in z])
    g0 = np.array([complex(loggamma_complex(v)) for v in z])
    assert_allclose(np.exp(g1 - g0).real, z, rtol=1e-12)


# ---------------------------------------------------------------------------
# quadrature helper


def test_gauss_kronrod_polynomial_and_oscillatory():
    val, err, _ = gauss_kronrod(lambda x: x ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert err < 1e-12
    val, err, _ = gauss_kronrod(np.cos, 0.0, 40.0)
    assert val == pytest.approx(math.sin(40.0), abs=1e-11)


# ---------------------------------------------------------------------------
# Meijer-G: identity instances


EXP_SPEC = MeijerGSpec(1, 0, (), (0.0,), 1.0)
LOG_SPEC = MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), 1.0)
BESSEL_SPEC = MeijerGSpec(2, 0, (), (0.25, -0.25), 1.0)


def test_meijer_exponential_identity():
    for z in (0.2, 0.5, 1.0, 3.0, 8.0):
        res = meijer_g(MeijerGSpec(1, 0, (), (0.0,), z))
        assert res.value == pytest.approx(math.exp(-z), rel=1e-10)
        assert res.method == "contour"
        assert res.abs_error_estimate >= 0.0


def test_meijer_log_identity():
    for z in (0.3, 1.0):
        res = meijer_g(MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), z))
        assert res.value == pytest.approx(math.log1p(z), rel=1e-10)


def test_meijer_bessel_identity_against_own_bessel():
    # covers the coincident-order case nu = 0 as well
    for nu in (0.0, 0.5, 1.0, 2.3):
        for x in (0.5, 1.0, 5.0):
            spec = MeijerGSpec(2, 0, (), (nu / 2.0, -nu / 2.0), x * x / 4.0)
            want = 2.0 * float(scipy_kv(nu, x))
            assert meijer_g(spec).value == pytest.approx(want, rel=1e-8)


def test_meijer_frozen_references():
    # mpmath anchors (duplicates perturbed by 1e-12 at 40 digits)
    g = meijer_g(MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), 2.0))
    assert g.value == pytest.approx(0.487528417735208131, rel=1e-10)
    g = meijer_g(MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2, 0.8))
    assert g.value == pytest.approx(0.0529417155971279576, rel=1e-10)
    g = meijer_g(MeijerGSpec(6, 0, (38.21, 38.21),
                             (37.21, 12.5331, 4.6787) * 2, 1.3))
    assert g.value == pytest.approx(120566.891301455704, rel=1e-9)


def test_meijer_log_prefactor_scaling():
    base = meijer_g(EXP_SPEC).value
    scaled = meijer_g(EXP_SPEC, log_prefactor=math.log(40.0)).value
    assert scaled == pytest.approx(40.0 * base, rel=1e-12)


def test_reflection_identity():
    specs = [
        EXP_SPEC,
        LOG_SPEC,
        BESSEL_SPEC,
        MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), 2.0),
        MeijerGSpec(6, 0, (38.21, 38.21), (37.21, 12.5331, 4.6787) * 2, 1.3),
        MeijerGSpec(6, 1, (1.0, 5.0, 5.0), (4.0, 4.2, 2.5) * 2 + (0.0,), 0.4),
    ]
    for spec in specs:
        direct = meijer_g(spec)
        mirrored = meijer_g(reflected(spec))
        assert mirrored.value == pytest.approx(direct.value, rel=1e-8)


# ---------------------------------------------------------------------------
# Meijer-G: frozen 40-digit references (tests/make_meijer_references.py)


@pytest.mark.parametrize("entry", meijer_references(), ids=lambda e: e["label"])
def test_meijer_matches_frozen_reference(entry):
    spec = MeijerGSpec(entry["m"], entry["n"], tuple(entry["a_params"]),
                       tuple(entry["b_params"]), entry["argument"])
    want = float(entry["value"])
    res = meijer_g(spec)
    err = abs(res.value - want)
    assert err <= 1e-10 * abs(want), (res.value, want)
    assert err <= res.abs_error_estimate, (err, res.abs_error_estimate)


def test_frozen_references_cover_every_closed_form_shape():
    # (m, n, p, q) per family row: pdf G^{6,0}, cdf G^{6a,1}, mgf and BER
    # G^{6a,2}, capacity G^{6a+2,1} and the per-hop density G^{3,0}
    rows: dict[tuple, set] = {}
    for entry in meijer_references():
        case = entry.get("case")
        if case is not None:
            shape = (entry["m"], entry["n"], len(entry["a_params"]),
                     len(entry["b_params"]))
            rows.setdefault((case["level"], case["zeta"], case["a"]),
                            set()).add(shape)
    assert len(rows) == 12
    for (_, _, a), shapes in rows.items():
        assert shapes == {(6, 0, 2, 6), (6 * a, 1, 1 + 2 * a, 6 * a + 1),
                          (6 * a, 2, 2 + 2 * a, 6 * a + 1),
                          (6 * a + 2, 1, 2 + 2 * a, 6 * a + 2), (3, 0, 1, 3)}


# ---------------------------------------------------------------------------
# failure modes and validation


def test_spec_validation():
    with pytest.raises(ValueError):
        MeijerGSpec(2, 0, (), (0.0,), 1.0)  # m > q
    with pytest.raises(ValueError):
        MeijerGSpec(0, 2, (1.0,), (0.0,), 1.0)  # n > p
    with pytest.raises(ValueError):
        MeijerGSpec(1, 0, (), (0.0,), -1.0)  # nonpositive argument
    with pytest.raises(ValueError):
        MeijerGSpec(1, 0, (), (0.0,), 0.0)


def test_contour_rejects_nonpositive_decay_index():
    # m + n - (p+q)/2 = 0: no exponential decay along the line
    with pytest.raises(ContourError):
        meijer_g(MeijerGSpec(1, 1, (0.3, 0.9), (0.7, 0.1), 0.5))


@pytest.mark.parametrize("upper", [1.0, 2.0], ids=["unit-deep", "two-deep"])
def test_touching_pole_families_raise_contour_error(upper):
    # a leading upper parameter a positive integer above a leading lower
    # one: the families touch and no vertical line separates them
    with pytest.raises(ContourError, match=r"separating strip .* is empty"):
        meijer_g(MeijerGSpec(1, 1, (upper,), (0.0, -3.2), 0.6))


def test_eval_result_invariants():
    for spec in (EXP_SPEC, LOG_SPEC, BESSEL_SPEC):
        res = meijer_g(spec)
        assert math.isfinite(res.value)
        assert res.abs_error_estimate >= 0.0
        assert res.method == "contour"
