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
import decimal
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning
from scipy.special import digamma as scipy_digamma
from scipy.special import kv as scipy_kv
from scipy.special import polygamma as scipy_polygamma

from conftest import (
    TABLE2_LEVELS,
    assert_matches_reference,
    closed_form,
    make_dist,
    meijer_references,
    point_spec,
    reflected,
)
from risfso import presets
from risfso.metrics import (
    ModulationScheme,
    average_ber_by_quadrature,
    ber_form,
    capacity_form,
    ergodic_capacity_by_quadrature,
)
from risfso.special import (
    ContourError,
    EvalResult,
    MeijerGError,
    MeijerGKernel,
    MeijerGSpec,
    gauss_kronrod,
    loggamma_complex,
    meijer_g,
    meijer_g_batch,
    meijer_g_family,
)
from risfso.special import meijerg
from risfso.special.meijerg import (
    _contour_strip,
    _Kernel,
    _kernel_tables,
    _merged_factors,
    _pick_lines,
    _snap,
    _Table,
    _table,
    _trapezoid,
)
from risfso.statistics import (
    cdf_by_quadrature,
    cdf_form,
    mgf_form,
    pdf_by_product_integral,
    pdf_form,
)
from risfso.sweeps import run_sweep

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


def test_gauss_kronrod_without_breakpoints_keeps_its_values():
    # (value, error, abs_integral) as float.hex, frozen before breakpoints
    # were added: a call without them is unchanged to the last bit
    for f, a, b, want in [
        (lambda x: np.exp(-x) * np.sin(5.0 * x), 0.0, 10.0,
         ("0x1.89d47042dd0d2p-3", "0x1.5f7cbe1880000p-41", "0x1.43a4e10cbc5d4p-1")),
        (np.cos, 0.0, 40.0,
         ("0x1.7d7f78e027ef0p-1", "0x1.6c75a00000000p-41", "0x1.940fad8ceb4eap+4")),
        (lambda x: np.abs(x - 0.3), 0.0, 1.0,
         ("0x1.28f5c28f5b792p-2", "0x1.91fc701514eeap-41", "0x1.28f5c28f5b792p-2")),
    ]:
        assert tuple(v.hex() for v in gauss_kronrod(f, a, b)) == want
        assert tuple(v.hex() for v in gauss_kronrod(f, a, b, points=())) == want


def test_gauss_kronrod_breakpoint_at_a_kink():
    rounds = []

    def kinked(x):
        rounds.append(x.size)
        return np.abs(x - 0.3)

    val, err, _ = gauss_kronrod(kinked, 0.0, 1.0, points=[0.3])
    # linear on both panels: exact in the first round
    assert val == pytest.approx(0.29, rel=1e-14)
    assert err < 1e-14
    assert rounds == [30]


def test_gauss_kronrod_stops_on_nan_integrand():
    # no panel of a NaN integrand passes a split test, so refinement has
    # to end on the NaN error estimate itself
    def timeout(signum, frame):
        raise TimeoutError("gauss_kronrod kept refining a NaN integrand")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.warns(IntegrationWarning):
            val, err, _ = gauss_kronrod(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not math.isfinite(val)
    assert not math.isfinite(err)


def _exact(row):
    """The exact integral of a row, and the size of the terms whose
    difference it is (its rounding scale)."""
    c, decay, k, lo, hi = row[:5]
    ends = [-c * math.exp(-decay * x) * (decay * math.sin(k * x) + k * math.cos(k * x))
            / (decay ** 2 + k ** 2) for x in (lo, hi)]
    return ends[1] - ends[0], max(map(abs, ends))


@st.composite
def _integral_rows(draw):
    """A damped sine c exp(-b x) sin(k x) over [lo, hi], with its
    tolerances."""
    lo = draw(st.floats(-4.0, 4.0))
    hi = lo + draw(st.floats(0.1, 8.0))
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))
    return (c, draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 20.0)), lo, hi,
            10.0 ** -draw(st.integers(6, 12)), draw(st.sampled_from([0.0, 1e-13])))


@given(row=_integral_rows())
def test_gauss_kronrod_error_estimate_bounds_a_smooth_integral(row):
    # the |Kronrod - Gauss| estimate bounds the error of a smooth
    # integrand, unless its absolute tolerance let it stop first
    c, decay, k, lo, hi, rel_tol, abs_tol = row
    value, error, abs_integral = gauss_kronrod(
        lambda x: c * np.exp(-decay * x) * np.sin(k * x), lo, hi, rel_tol, abs_tol)
    exact, scale = _exact(row)
    assert abs(value - exact) <= max(error, abs_tol) + 1e-14 * (abs_integral + scale), row


# ---------------------------------------------------------------------------
# Meijer-G: identity instances


EXP_SPEC = MeijerGSpec(1, 0, (), (0.0,), log_argument=0.0)
LOG_SPEC = MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), log_argument=0.0)
BESSEL_SPEC = MeijerGSpec(2, 0, (), (0.25, -0.25), log_argument=0.0)


def test_meijer_exponential_identity():
    for z in (0.2, 0.5, 1.0, 3.0, 8.0):
        res = meijer_g(MeijerGSpec(1, 0, (), (0.0,), log_argument=math.log(z)))
        assert res.value == pytest.approx(math.exp(-z), rel=1e-10)
        assert res.abs_error_estimate >= 0.0


def test_meijer_log_identity():
    for z in (0.3, 1.0):
        res = meijer_g(MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), log_argument=math.log(z)))
        assert res.value == pytest.approx(math.log1p(z), rel=1e-10)


def test_meijer_bessel_identity_against_own_bessel():
    # covers the coincident-order case nu = 0 as well
    for nu in (0.0, 0.5, 1.0, 2.3):
        for x in (0.5, 1.0, 5.0):
            spec = MeijerGSpec(2, 0, (), (nu / 2.0, -nu / 2.0), log_argument=math.log(x * x / 4.0))
            want = 2.0 * float(scipy_kv(nu, x))
            assert meijer_g(spec).value == pytest.approx(want, rel=1e-8)


def test_meijer_frozen_references():
    # mpmath anchors (duplicates perturbed by 1e-12 at 40 digits)
    g = meijer_g(MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), log_argument=math.log(2.0)))
    assert g.value == pytest.approx(0.487528417735208131, rel=1e-10)
    g = meijer_g(MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2, log_argument=math.log(0.8)))
    assert g.value == pytest.approx(0.0529417155971279576, rel=1e-10)
    g = meijer_g(MeijerGSpec(6, 0, (38.21, 38.21),
                             (37.21, 12.5331, 4.6787) * 2, log_argument=math.log(1.3)))
    assert g.value == pytest.approx(120566.891301455704, rel=1e-9)


def test_meijer_log_prefactor_scaling():
    base = meijer_g(EXP_SPEC).value
    scaled = meijer_g(EXP_SPEC, log_prefactor=math.log(40.0)).value
    assert scaled == pytest.approx(40.0 * base, rel=1e-12)


def test_reflection_identity():
    # the per-hop density's G^{3,0} shape (red strong row, zeta 6.1) at
    # nine arguments Q / x: their mirrors are the G^{0,3} forms at x / Q,
    # and both stay nonnegative
    p = make_dist(10.9537, 2.9833, 6.1, 1, 20.0).params
    hop = [MeijerGSpec(3, 0, (p.zeta2 + 1.0,), (p.zeta2, p.alpha, p.beta),
                       log_argument=-math.log(x / p.big_q))
           for x in np.logspace(-2, 2, 9)]
    specs = [
        EXP_SPEC,
        LOG_SPEC,
        BESSEL_SPEC,
        MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), log_argument=math.log(2.0)),
        MeijerGSpec(6, 0, (38.21, 38.21), (37.21, 12.5331, 4.6787) * 2,
                    log_argument=math.log(1.3)),
        MeijerGSpec(6, 1, (1.0, 5.0, 5.0), (4.0, 4.2, 2.5) * 2 + (0.0,),
                    log_argument=math.log(0.4)),
    ]
    for spec in specs + hop:
        direct = meijer_g(spec)
        mirrored = meijer_g(reflected(spec))
        assert mirrored.value == pytest.approx(direct.value, rel=1e-8)
        if spec in hop:
            assert direct.value >= -1e-12 and mirrored.value >= -1e-12


# ---------------------------------------------------------------------------
# Meijer-G: frozen 40-digit references (tests/make_meijer_references.py)


def _reference_spec(entry) -> MeijerGSpec:
    return MeijerGSpec(entry["m"], entry["n"], tuple(entry["a_params"]),
                       tuple(entry["b_params"]), log_argument=math.log(entry["argument"]))


@pytest.mark.parametrize("entry", meijer_references(), ids=lambda e: e["label"])
def test_meijer_matches_frozen_reference(entry):
    res = meijer_g(_reference_spec(entry), log_prefactor=entry.get("log_prefactor", 0.0))
    assert_matches_reference(entry, res)


def test_batched_references_match_frozen_and_one_at_a_time():
    # one batch per (m, n, p, q), and one of all the references in a
    # seeded shuffled order, which interleaves their kernels: each value
    # is right, within its own estimate, and the same as in a batch of
    # one to the last bit, its estimate too
    entries = meijer_references()
    specs = [_reference_spec(entry) for entry in entries]
    prefactors = [entry.get("log_prefactor", 0.0) for entry in entries]
    alone = [meijer_g(spec, log_prefactor=prefactor)
             for spec, prefactor in zip(specs, prefactors)]
    batches: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        batches.setdefault((spec.m, spec.n, spec.p, spec.q), []).append(i)
    shuffled = np.random.default_rng(24).permutation(len(entries)).tolist()
    for batch in [*batches.values(), shuffled]:
        results = meijer_g_batch([specs[i] for i in batch], [prefactors[i] for i in batch])
        for i, res in zip(batch, results):
            assert_matches_reference(entries[i], res)
            assert (res.value.hex(), res.abs_error_estimate.hex()) \
                == (alone[i].value.hex(), alone[i].abs_error_estimate.hex()), entries[i]["label"]


def test_error_estimate_is_honest_and_tight():
    # each G-value of a frozen reference that is a nonzero double, at log
    # prefactor 0, lies within its estimate, and the estimate is a median
    # of under 10^3.5 times its true error, an exact value counting as off
    # by 1e-20 of it (the bound from edge lines that this estimate
    # replaced ran a median 10^4.5 above it)
    entries = meijer_references()
    results = meijer_g_batch([_reference_spec(entry) for entry in entries], [0.0] * len(entries))
    ratios = []
    for entry, res in zip(entries, results):
        want = float(decimal.Decimal(entry["value"]))
        if want == 0.0 or not math.isfinite(want):
            continue
        err = abs(res.value - want)
        assert err <= res.abs_error_estimate, (entry["label"], err, res.abs_error_estimate)
        ratios.append(res.abs_error_estimate / (err or 1e-20 * abs(want)))
    assert len(ratios) >= 300
    assert np.median(ratios) < 10.0 ** 3.5, np.log10(np.median(ratios))


@pytest.mark.parametrize("spec, log_prefactor, want", [
    # G = e^-1 at z = 1, times e^(that prefactor) exactly
    (EXP_SPEC, 1.0 + math.log(1e307), math.exp(math.log(1e307))),
    (EXP_SPEC, 1.0 + math.log(1.7e308), math.exp(math.log(1.7e308))),
    # the pdf at gamma = 1e-320, strong row, zeta 0.2, HD, 30 dB (mpmath)
    (point_spec(pdf_form(make_dist(10.9537, 2.9833, 0.2, 1, 30.0), [math.log(1e-320)])),
     pdf_form(make_dist(10.9537, 2.9833, 0.2, 1, 30.0), [math.log(1e-320)]).log_prefactors[0],
     1.132272679900766473770531666572281943572e+307),
], ids=["exp-1e307", "exp-1.7e308", "pdf-1e307"])
def test_a_value_near_the_largest_double_has_a_finite_estimate(spec, log_prefactor, want):
    # the sums of such a line are scaled down, and the estimate is formed
    # from them without squaring one
    res = meijer_g(spec, log_prefactor=log_prefactor)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert math.isfinite(res.abs_error_estimate)
    assert abs(res.value - want) <= res.abs_error_estimate <= 1e-10 * want


def _recorded_passes(monkeypatch) -> list:
    """Every pass that ``_trapezoid`` starts, as (call, table, line),
    recorded through ``_Line``, call numbering the calls of
    ``_trapezoid``: a held family's calls share one table.  The last pass
    of an instance in its call is the one that finishes."""
    passes, calls = [], [0]
    init, trapezoid = meijerg._Line.__init__, meijerg._trapezoid

    def recording(line, table, *args):
        init(line, table, *args)
        passes.append((calls[0], table, line))

    def counting(*args):
        calls[0] += 1
        return trapezoid(*args)

    monkeypatch.setattr(meijerg._Line, "__init__", recording)
    monkeypatch.setattr(meijerg, "_trapezoid", counting)
    return passes


def _finished_passes(passes: list) -> list:
    """The (table, line) of each pass that finishes."""
    return list({(call, line.inst): (table, line) for call, table, line in passes}.values())


def test_batch_keeps_values_beside_a_failing_line_and_one_whose_rate_halves_its_step(
        monkeypatch):
    # one batch: a line whose step is too fine for its span fails before
    # it asks for a node, while e^-2 beside it and a line whose phase
    # turns too fast for the step that its pole distance gives, which it
    # halves before it asks for a node, keep the values of a batch of one
    specs = [MeijerGSpec(1, 0, (), (0.0,), log_argument=-2e4),
             MeijerGSpec(1, 0, (), (0.0,), log_argument=math.log(2.0)),
             MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2, log_argument=math.log(0.8))]
    alone = [meijer_g_batch([spec], [0.0])[0] for spec in specs]
    passes = _recorded_passes(monkeypatch)
    fails, exp2, halves = meijer_g_batch(specs, [0.0, 0.0, 0.0])
    assert isinstance(fails, ContourError) and "too fine" in str(fails)
    assert isinstance(alone[0], ContourError) and str(alone[0]) == str(fails)
    assert exp2.value == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert halves.value == pytest.approx(0.0529417155971279576, rel=1e-10)
    # e^-2 and the third line make one pass each, the third at half the
    # step that its pole distance gives
    gamma, logs, _, slope = _kernel_tables(specs[2])
    ((_, d),) = _pick_lines(_Kernel(gamma, logs), _contour_strip(specs[2]),
                            [specs[2].log_argument + slope])
    assert [line.h for *_, line in passes] == [passes[0][-1].h, 0.5 * min(0.1, d / 6.0)]
    for one, res in zip(alone[1:], (exp2, halves)):
        assert (res.value.hex(), res.abs_error_estimate.hex()) \
            == (one.value.hex(), one.abs_error_estimate.hex())


def test_a_line_that_grows_into_a_faster_phase_sums_its_span_again(monkeypatch):
    # each line made to start at the step that its pole distance gives,
    # unhalved, over a quarter of its span: it grows, and where the phase
    # turns too fast at its new end for that step, it sums its whole span
    # again at a finer one; in a batch and alone alike, and close to the
    # value of the line's own plan
    specs = [MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2, log_argument=math.log(z))
             for z in (0.8, 0.5, 2.0)]
    want = meijer_g_batch(specs, [0.0] * len(specs))
    plan = meijerg._plan

    def short(kernel, placed, *args):
        return [(min(0.1, d / 6.0), 0.25 * span)
                for (_, d), (_, span) in zip(placed, plan(kernel, placed, *args))]

    monkeypatch.setattr(meijerg, "_plan", short)
    alone = [meijer_g_batch([spec], [0.0])[0] for spec in specs]
    passes = _recorded_passes(monkeypatch)
    batch = meijer_g_batch(specs, [0.0] * len(specs))
    finished = [line for _, line in _finished_passes(passes)]
    assert len(passes) > len(finished) == len(specs)
    assert min(line.h for line in finished) < max(line.h for *_, line in passes)
    for one, res, good in zip(alone, batch, want):
        assert res.value == pytest.approx(good.value, rel=1e-10)
        assert (res.value.hex(), res.abs_error_estimate.hex()) \
            == (one.value.hex(), one.abs_error_estimate.hex())


def test_a_shared_row_grows_for_a_line_with_a_longer_pass(monkeypatch):
    # two lines of one kernel on one line, the second made to span three
    # times the first, then fifteen times, so that its row grows past one
    # piece: the rows that the first line makes must grow for the second,
    # and each value stays that of a batch of one
    spec = MeijerGSpec(1, 0, (), (0.0,), log_argument=math.log(2.0))
    gamma, logs, constant, slope = _kernel_tables(spec)
    kernel = _Kernel(gamma, logs)
    lnz = [math.log(2.0) + slope, math.log(3.0) + slope]
    (placed,) = _pick_lines(kernel, _contour_strip(spec), lnz[:1])
    longest = [0]
    fill = meijerg._Table.fill

    def recording(table, asks):
        fill(table, asks)
        longest[0] = max(longest[0], *(row.chi.size for row in table.index.values()))

    monkeypatch.setattr(meijerg._Table, "fill", recording)
    plan = meijerg._plan

    def stretched(kernel, placed, lnz_of, *args):
        # each line's first span times its factor, by its ln z
        return [(h, span * stretch[lnz.index(z)])
                for (h, span), z in zip(plan(kernel, placed, lnz_of, *args), lnz_of)]

    monkeypatch.setattr(meijerg, "_plan", stretched)
    for stretch in ([1.0, 3.0], [1.0, 15.0]):

        def run(which):
            return _trapezoid(_Table(kernel), [placed] * len(which), [lnz[i] for i in which],
                              [constant] * len(which), math.pi * spec.decay_index)

        batch = run([0, 1])
        for i, want in enumerate((math.exp(-2.0), math.exp(-3.0))):
            (alone,) = run([i])
            assert batch[i].value == pytest.approx(want, rel=1e-13)
            assert (batch[i].value.hex(), batch[i].abs_error_estimate.hex()) \
                == (alone.value.hex(), alone.abs_error_estimate.hex())
    assert longest[0] > meijerg._PIECE


def test_a_row_grown_over_rounds_holds_one_call_of_log_chi():
    # asks that end inside a piece of _PIECE nodes, on it, past it and
    # not at all: the row holds log chi and the sums of the moduli of its
    # terms at each of its nodes as one kernel call over all of them gives
    # them, to the last bit
    form = cdf_form(make_dist(4.9477, 1.2310, 1.1, 2, 20.0), [math.log(10.0)])
    kernel = _Kernel(*_kernel_tables(form.kernel)[:2])
    table = _Table(kernel)
    row = table.row(0.3, 0.05)
    for stop in (15, 1020, 1020, 1035, 2565):
        table.fill([(row, stop), (row, stop - 15)])
    s = np.empty(2565, dtype=complex)
    s.real, s.imag = 0.3, 0.05 * np.arange(2565)
    want, bulk = kernel.log_chi(s)
    assert row.chi.size == row.bulk.size == 2565
    assert [v.hex() for v in row.chi.real] == [v.hex() for v in want.real]
    assert [v.hex() for v in row.chi.imag] == [v.hex() for v in want.imag]
    assert [v.hex() for v in row.bulk] == [v.hex() for v in bulk]
    assert np.all(bulk >= np.abs(want))


def test_a_row_leaves_the_table_with_its_last_pass(monkeypatch):
    # the table holds the rows of the running and waiting passes only: it
    # holds fewer nodes at its fullest than it computes over the batch,
    # and none once the batch is done
    tables, held, computed = [], [0], [0]

    class Recording(_Table):
        def __init__(self, kernel):
            super().__init__(kernel)
            tables.append(self)

        def fill(self, asks):
            before = sum(row.chi.size for row in self.index.values())
            super().fill(asks)
            after = sum(row.chi.size for row in self.index.values())
            computed[0] += after - before
            held[0] = max(held[0], after)

    monkeypatch.setattr(meijerg, "_Table", Recording)
    # enough points that their lines join over several rounds
    forms = [cdf_form(make_dist(4.9477, 1.2310, 1.1, 1, mean_db), [math.log(10.0)])
             for mean_db in np.linspace(0.0, 40.0, 401)]
    meijer_g_batch([point_spec(form) for form in forms], [form.log_prefactors[0] for form in forms])
    assert len(tables) == 1 and not tables[0].index
    assert 0 < held[0] < computed[0], (held[0], computed[0])


def test_no_summed_node_turns_the_phase_by_more_than_a_quarter_pi(monkeypatch):
    # a line takes its step from the rate of the phase at its pass's ends
    # before it sums, not from the turns of a pass already summed:
    # recomputed between neighbouring nodes of every finished pass of the
    # nine presets and of one call of each oracle twin, the phase of w
    # turns by at most pi / 4
    passes = _recorded_passes(monkeypatch)
    for name in presets.PRESET_NAMES:
        run_sweep(presets.figure_preset(name))
    dist = make_dist(4.9477, 1.2310, 1.1, 2, 20.0)
    cdf_by_quadrature(dist, 0.5 * dist.mean_snr)
    pdf_by_product_integral(dist, 0.5 * dist.mean_snr)
    ergodic_capacity_by_quadrature(dist)
    average_ber_by_quadrature(dist, ModulationScheme.CBPSK)
    finished = _finished_passes(passes)
    assert len(finished) > 3338
    for table, line in finished:
        k = np.arange(line.stop)
        phase = table.kernel.log_chi(line.x + 1j * line.h * k)[0].imag + line.h * k * line.lnz
        assert np.abs(np.diff(phase)).max() <= 0.25 * math.pi, (line.x, line.h, line.stop)


def test_every_node_the_table_computes_is_read_by_a_pass_that_finishes(monkeypatch):
    # no pass is thrown away on the nine presets or on 80 batch-of-one cdf
    # and pdf forms (one Table 2 row, both detection modes, 0 to 60 dB),
    # counted through _Kernel.log_chi; and those batches of one take at
    # most 1.2 rounds each on average
    computed, rounds = [0], [0]
    log_chi, fill = _Kernel.log_chi, _Table.fill

    def counting(kernel, s):
        computed[0] += s.size
        return log_chi(kernel, s)

    def counting_rounds(table, asks):
        rounds[0] += 1
        fill(table, asks)

    monkeypatch.setattr(_Kernel, "log_chi", counting)
    monkeypatch.setattr(_Table, "fill", counting_rounds)
    passes = _recorded_passes(monkeypatch)

    def read() -> int:
        # per row, the most nodes that a finished pass of its line reads
        ends: dict[int, int] = {}
        for _, line in _finished_passes(passes):
            ends[id(line.row)] = max(ends.get(id(line.row), 0), line.stop)
        return sum(ends.values())

    for name in presets.PRESET_NAMES:
        run_sweep(presets.figure_preset(name))
    assert read() == computed[0] > 0
    passes.clear()
    computed[0] = rounds[0] = 0
    forms = [build(make_dist(4.9477, 1.2310, 1.1, a, mean_db), [math.log(10.0)])
             for build in (cdf_form, pdf_form) for a in (1, 2)
             for mean_db in np.linspace(0.0, 60.0, 20)]
    for form in forms:
        meijer_g_batch([point_spec(form)], form.log_prefactors)
    assert read() == computed[0] > 0
    assert rounds[0] <= 1.2 * len(forms) == 96.0, rounds[0]


def test_each_lattice_line_is_planned_once_per_family(monkeypatch):
    # over the nine presets _plan takes scipy's real log-gamma, the top of
    # the Stirling fall, on one row per distinct abscissa of each family,
    # and the presets' points share far fewer lines than they are
    rows, lines, points = [0], [0], [0]
    gammaln, plan = meijerg.gammaln, meijerg._plan

    def counting(x):
        rows[0] += x.shape[0]
        return gammaln(x)

    def recording(kernel, placed, *args):
        lines[0] += len({sigma for sigma, _ in placed})
        points[0] += len(placed)
        return plan(kernel, placed, *args)

    monkeypatch.setattr(meijerg, "gammaln", counting)
    monkeypatch.setattr(meijerg, "_plan", recording)
    for name in presets.PRESET_NAMES:
        run_sweep(presets.figure_preset(name))
    assert points[0] == 3338
    assert 0 < rows[0] == lines[0] < points[0] / 4, (rows[0], lines[0])


def test_every_row_the_table_fills_is_a_lines_own(monkeypatch):
    # one row per line: each row that a round fills has the abscissa and
    # step of some pass's line, and each pass's line has its row, over the
    # nine presets and one call of each oracle twin
    filled = set()
    fill = _Table.fill

    def recording(table, asks):
        filled.update((id(table), row.x, row.step) for row, _ in asks)
        fill(table, asks)

    monkeypatch.setattr(_Table, "fill", recording)
    passes = _recorded_passes(monkeypatch)
    for name in presets.PRESET_NAMES:
        run_sweep(presets.figure_preset(name))
    dist = make_dist(4.9477, 1.2310, 1.1, 2, 20.0)
    cdf_by_quadrature(dist, 0.5 * dist.mean_snr)
    pdf_by_product_integral(dist, 0.5 * dist.mean_snr)
    ergodic_capacity_by_quadrature(dist)
    average_ber_by_quadrature(dist, ModulationScheme.CBPSK)
    assert filled == {(id(table), line.x, line.h) for _, table, line in passes}
    assert all(line.row.step == line.h for *_, line in passes)


def test_points_of_a_curve_share_their_log_gammas(monkeypatch):
    # a dense mean-SNR curve of the outage: one kernel, 41 arguments, whose
    # lines mostly fall on shared lattice lines; the count goes through the
    # name that the benchmark's tracer replaces
    points = [0]

    def counting(x, out=None):
        points[0] += x.size
        return loggamma_complex(x, out=out)

    monkeypatch.setattr(meijerg, "loggamma_complex", counting)
    forms = [cdf_form(make_dist(4.9477, 1.2310, 1.1, 1, mean_db), [math.log(10.0)])
             for mean_db in np.linspace(0.0, 40.0, 41)]
    alone = [meijer_g(point_spec(form), log_prefactor=form.log_prefactors[0]) for form in forms]
    one_at_a_time, points[0] = points[0], 0
    batch = meijer_g_batch([point_spec(form) for form in forms],
                           [form.log_prefactors[0] for form in forms])
    assert 0 < points[0] <= one_at_a_time / 4, (points[0], one_at_a_time)
    for one, res in zip(alone, batch):
        assert (res.value.hex(), res.abs_error_estimate.hex()) \
            == (one.value.hex(), one.abs_error_estimate.hex())


def test_batch_failures_stay_per_instance():
    # an empty strip fails at set-up, for both instances of its kernel,
    # and an overflowing prefactor inside the contour pass; the other
    # instances keep their values
    specs = [EXP_SPEC, EXP_SPEC,
             MeijerGSpec(1, 1, (1.0,), (0.0, -3.2), log_argument=math.log(0.6)),
             MeijerGSpec(1, 0, (), (0.0,), log_argument=math.log(2.0)),
             MeijerGSpec(1, 1, (1.0,), (0.0, -3.2), log_argument=math.log(3.0)),
             MeijerGSpec(1, 0, (), (0.0,), log_argument=math.log(3.0))]
    good, overflow, empty, other, empty_too, third = meijer_g_batch(
        specs, [0.0, 800.0, 0.0, 0.0, 0.0, 0.0])
    assert good == meijer_g(EXP_SPEC)
    assert other == meijer_g(specs[3])
    assert third == meijer_g(specs[5])
    assert isinstance(overflow, MeijerGError)
    assert "contour evaluation returned" in str(overflow)
    for res in (empty, empty_too):
        assert isinstance(res, ContourError) and "is empty" in str(res)


def _unmerged_log_chi(spec: MeijerGSpec, s: np.ndarray) -> np.ndarray:
    # one log-gamma per parameter, straight from the Mellin-Barnes kernel
    a, b, m, n = spec.a_params, spec.b_params, spec.m, spec.n
    total = np.zeros_like(s)
    for j in range(spec.q):
        total += loggamma_complex(b[j] - s) if j < m else -loggamma_complex(1.0 - b[j] + s)
    for j in range(spec.p):
        total += loggamma_complex(1.0 - a[j] + s) if j < n else -loggamma_complex(a[j] - s)
    return total


def _line_in_strip(spec: MeijerGSpec) -> float:
    lo, hi = _contour_strip(spec)
    if math.isinf(lo):
        return hi - 0.5
    return lo + 0.5 if math.isinf(hi) else 0.5 * (lo + hi)


def _assert_kernel_matches_unmerged(spec: MeijerGSpec, tables) -> None:
    """The folded kernel, its constant and slope included, against one
    log-gamma per parameter on a line inside the strip: the real part to
    1e-13 and the phase modulo 2 pi, since the folded kernel sums logs in
    place of log-gamma differences and Gamma(2x) in place of Gamma(x)
    Gamma(x + 1/2)."""
    gamma, logs, constant, slope = tables
    s = _line_in_strip(spec) + 1j * np.linspace(0.0, 60.0, 241)
    want = _unmerged_log_chi(spec, s)
    scale = 1e-13 * np.maximum(1.0, np.abs(want))
    got = _Kernel(gamma, logs).log_chi(s)[0] + slope * s + constant
    phase = np.angle(np.exp(1j * (got - want).imag))
    assert np.all(np.abs((got - want).real) <= scale), spec
    assert np.all(np.abs(phase) <= scale), spec


# per closed form: parameters, merged factors, then log-gammas and logs
# once unit shifts are folded and half shifts paired
KERNEL_COUNTS = {
    1: {"pdf": (8, 4, 2, 1), "cdf": (10, 6, 2, 2), "mgf": (11, 5, 3, 1),
        "capacity": (12, 7, 4, 2), "CBFSK": (11, 7, 3, 2), "NBFSK": (11, 5, 3, 1),
        "CBPSK": (11, 7, 3, 2), "DBPSK": (11, 5, 3, 1)},
    2: {"pdf": (8, 4, 2, 1), "cdf": (18, 8, 2, 2), "mgf": (19, 7, 3, 1),
        "capacity": (20, 9, 4, 2), "CBFSK": (19, 9, 3, 2), "NBFSK": (19, 7, 3, 1),
        "CBPSK": (19, 9, 3, 2), "DBPSK": (19, 7, 3, 1)},
}


@pytest.mark.parametrize("a", [1, 2], ids=["HD", "IM/DD"])
def test_kernel_tables_merge_equal_and_fold_shifted_factors(a):
    # the cascade closed forms list every parameter twice, and under IM/DD
    # the (zeta^2 + 1)/2 factor cancels between numerator and denominator;
    # then zeta^2 + 1 folds onto zeta^2 and Gamma(1 + s) onto Gamma(s), and
    # under IM/DD each alpha/2, (alpha + 1)/2 pair, and beta's, becomes one
    # log-gamma of slope -2
    dist = make_dist(4.9477, 1.2310, 1.1, a, 20.0)
    ln_gamma = math.log(30.0)
    specs = {"pdf": pdf_form(dist, [ln_gamma]), "cdf": cdf_form(dist, [ln_gamma]),
             "mgf": mgf_form(dist, [0.3]), "capacity": capacity_form(dist)}
    specs.update((scheme.name, ber_form(dist, scheme)) for scheme in ModulationScheme)
    specs = {name: point_spec(form) for name, form in specs.items()}
    assert specs.keys() == KERNEL_COUNTS[a].keys()
    for name, spec in specs.items():
        offs, slope, weight = _table(_merged_factors(spec))
        tables = _kernel_tables(spec)
        assert (spec.p + spec.q, len(offs), tables[0].shape[1], tables[1].shape[1]) \
            == KERNEL_COUNTS[a][name], name
        # a paired factor has slope +-2 and leaves a constant and a slope;
        # the densities' parameters carry no Gauss multiplication
        paired = bool(np.any(np.abs(tables[0][1]) == 2.0))
        assert (tables[2] != 0.0, tables[3] != 0.0) == (paired, paired), name
        assert paired == (a == 2 and name != "pdf"), name
        s = _line_in_strip(spec) + 1j * np.linspace(0.0, 60.0, 241)
        want = _unmerged_log_chi(spec, s)
        merged = (weight[:, None] * loggamma_complex(offs[:, None] + slope[:, None] * s)).sum(axis=0)
        assert np.all(np.abs(merged - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), name
        _assert_kernel_matches_unmerged(spec, tables)


@st.composite
def _coincident_forms(draw):
    """A closed form, of either detection mode and any builder, whose
    parameters coincide exactly: alpha - beta in {0, +-1/2, +-1, +-3/2,
    +-2}, and zeta^2 = alpha or zeta^2 + 1 = beta in two draws of three.
    alpha, zeta^2 and beta lie on a lattice of quarters from 1/2 up, so
    the capacity's Gamma(-s)^2 can pair with a factor at 1/2 of unequal
    weight, which merges partly."""
    gap = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0]))
    kind = draw(st.sampled_from(["gap", "zeta^2 = alpha", "zeta^2 + 1 = beta"]))
    zeta = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
    if kind == "gap":
        alpha = draw(st.integers(2, 120)) / 4.0
        beta = alpha - gap
    elif kind == "zeta^2 = alpha":
        alpha = zeta ** 2
        beta = alpha - gap
    else:
        beta = zeta ** 2 + 1.0
        alpha = beta + gap
    assume(min(alpha, beta) >= 0.5)
    case = {"alpha": alpha, "beta": beta, "zeta": zeta, "a": draw(st.sampled_from([1, 2])),
            "mean_snr_db": 20.0, "ratio": 10.0 ** draw(st.floats(-3.0, 3.0)),
            "statistic": draw(st.sampled_from(
                ["pdf", "subchannel_pdf", "cdf", "mgf", "capacity", "ber"])),
            "scheme": draw(st.sampled_from([s.name for s in ModulationScheme]))}
    return closed_form(case)


@given(form=_coincident_forms())
# IM/DD capacity at alpha = 1: Gamma(-s) of weight 3 after the fold pairs
# with Gamma(1/2 - s) of weight 2
@example(form=closed_form({"alpha": 1.0, "beta": 1.5, "zeta": 1.1, "a": 2,
                           "mean_snr_db": 20.0, "statistic": "capacity"}))
# HD capacity at alpha = beta = 1/2 and IM/DD cdf at zeta^2 + 1 = beta = alpha
@example(form=closed_form({"alpha": 0.5, "beta": 0.5, "zeta": 1.1, "a": 1,
                           "mean_snr_db": 20.0, "statistic": "capacity"}))
@example(form=closed_form({"alpha": 3.25, "beta": 3.25, "zeta": 1.5, "a": 2,
                           "mean_snr_db": 20.0, "ratio": 1.0, "statistic": "cdf"}))
def test_fold_of_coincident_parameters(form):
    spec = point_spec(form)
    _assert_kernel_matches_unmerged(spec, _kernel_tables(spec))
    # one instance alone and in a batch with other shapes and arguments
    others = [MeijerGSpec(spec.m, spec.n, spec.a_params, spec.b_params,
                          log_argument=spec.log_argument + math.log(7.0)),
              EXP_SPEC, BESSEL_SPEC]
    alone = meijer_g_batch([spec], form.log_prefactors)[0]
    batched = meijer_g_batch([others[0], spec] + others[1:],
                             [0.0, form.log_prefactors[0], 0.0, 0.0])[1]
    assert isinstance(alone, EvalResult), alone
    assert (alone.value.hex(), alone.abs_error_estimate.hex()) \
        == (batched.value.hex(), batched.abs_error_estimate.hex())


def test_fold_merges_unequal_weights_partly():
    # IM/DD capacity at alpha = 1: (alpha + 1)/2 = 1 folds onto Gamma(-s),
    # whose weight 3 then shares 2 with Gamma(1/2 - s), alpha/2
    dist = make_dist(1.0, 1.5, 1.1, 2, 20.0)
    gamma, _, _, _ = _kernel_tables(capacity_form(dist).kernel)
    factors = {(c, e): w for c, e, w in gamma.T}
    assert factors == {(0.0, -1.0): 1.0, (0.0, -2.0): 2.0, (1.5, -2.0): 2.0,
                       (1.0, 1.0): 1.0}


def _raw_slopes(spec: MeijerGSpec, sigma: float) -> tuple[float, float, float]:
    """phi'(sigma), the size of its terms and phi''(sigma), for phi the
    log of the Mellin-Barnes integrand's magnitude on the real axis, one
    digamma and one trigamma per parameter of the spec."""
    a, b, m, n = spec.a_params, spec.b_params, spec.m, spec.n
    # (argument, sign of s, weight) of each gamma factor
    factors = ([(b[j] - sigma, -1, 1) for j in range(m)]
               + [(1.0 - a[j] + sigma, 1, 1) for j in range(n)]
               + [(1.0 - b[j] + sigma, 1, -1) for j in range(m, spec.q)]
               + [(a[j] - sigma, -1, -1) for j in range(n, spec.p)])
    terms = [w * e * float(scipy_digamma(x)) for x, e, w in factors] + [spec.log_argument]
    curvature = sum(w * float(scipy_polygamma(1, x)) for x, _, w in factors)
    return math.fsum(terms), sum(map(abs, terms)), curvature


def _cells(line: float, lo: float, hi: float) -> list[tuple[float, float, float]]:
    """The cells that ``_snap`` moves onto line, as (strip end it measures
    from, lower bound, upper bound): the line's own, and on a two-sided
    strip those that meet at the centre, which may end short of a line
    just past it."""
    probes = [line]
    if math.isfinite(lo) and math.isfinite(hi):
        centre = 0.5 * (lo + hi)
        probes += [math.nextafter(centre, lo), math.nextafter(centre, hi)]
    cells = set()
    for probe in probes:
        snapped, _, lower, upper = _snap(probe, lo, hi)
        if snapped == line:
            cells.add((lo if probe - lo <= hi - probe else hi, lower, upper))
    return sorted(cells)


def _assert_line_holds_the_saddle(spec: MeijerGSpec, line: float, d: float) -> None:
    """The line lies strictly inside the strip, on the lattice, with d its
    distance to the nearer pole, and phi' is <= 0 at the lower bound of
    its cells and >= 0 at the upper one, within the rounding of its terms
    and of the bound."""
    lo, hi = _contour_strip(spec)
    assert lo < line < hi, (spec, line)
    assert d == min(line - lo, hi - line), (spec, line, d)
    cells = _cells(line, lo, hi)
    assert cells, (spec, line)
    eps = np.finfo(float).eps
    for end, lower, upper in cells:
        # within half a spacing of the line: 0.5 in the distance D to the
        # strip end from D = 1 up, 0.25 in ln D below
        dist = abs(line - end)
        for bound in (lower, upper):
            if dist >= 1.0:
                assert abs(abs(bound - end) - dist) <= 0.25 + 4 * eps * abs(line), (spec, line)
            else:
                assert abs(math.log(abs(bound - end) / dist)) <= 0.125 + 1e-12, (spec, line)
    for bound, sign in ((min(c[1] for c in cells), 1.0), (max(c[2] for c in cells), -1.0)):
        slope, size, curvature = _raw_slopes(spec, bound)
        assert sign * slope <= 8 * eps * (size + abs(curvature * bound)), (spec, line, bound, slope)


def _lines(specs: list[MeijerGSpec]) -> list[tuple[float, float]]:
    """The line and pole distance of each spec, searched as one batch; the
    specs share their kernel and differ in ln z alone."""
    gamma, logs, _, slope = _kernel_tables(specs[0])
    with np.errstate(all="ignore"):
        return _pick_lines(_Kernel(gamma, logs), _contour_strip(specs[0]),
                           [spec.log_argument + slope for spec in specs])


def test_saddle_search_finds_the_saddle_the_same_in_any_batch():
    # one-sided strips both ways (the cascade pdf and its reflection, from
    # the far tails to large shapes) and two-sided ones (the cdf up to
    # saturation), each batch mixing instances whose saddles lie 1e-2 to
    # 1e5 units from a strip end
    specs = []
    for alpha, beta, zeta, a in [(10.9537, 2.9833, 6.1, 1), (4.9477, 1.2310, 1.1, 2),
                                 (101.0, 97.0, 6.1, 2), (200.0, 150.0, 20.0, 1)]:
        dist = make_dist(alpha, beta, zeta, a, 30.0)
        for ratio in (1e-30, 1e-12, 1e-3, 1.0, 1e3, 1e12, 1e20):
            ln_gamma = math.log(ratio * dist.mean_snr)
            pdf_spec = point_spec(pdf_form(dist, [ln_gamma]))
            specs += [pdf_spec, reflected(pdf_spec), point_spec(cdf_form(dist, [ln_gamma]))]
    groups: dict[tuple, list] = {}
    for spec in specs:
        tables = _kernel_tables(spec)
        groups.setdefault((tables[0].shape[1], tables[1].shape[1]), []).append(spec)
    # the IM/DD cdf pairs alpha's and beta's factors into log-gammas of
    # slope -2 and joins the HD cdf's group
    assert len(groups) == 2
    kernels: dict[tuple, list] = {}
    for spec in specs:
        kernels.setdefault((spec.m, spec.n, spec.a_params, spec.b_params), []).append(spec)
    for group in kernels.values():
        for spec, (line, d) in zip(group, _lines(group)):
            _assert_line_holds_the_saddle(spec, line, d)
            ((alone, alone_d),) = _lines([spec])
            assert (alone.hex(), alone_d.hex()) == (line.hex(), d.hex()), (spec, alone, line)


@st.composite
def _saddle_forms(draw):
    """A pdf, reflected pdf, cdf, mgf, capacity or BER spec over a wide
    box of channels: ln(gamma / mean SNR) in [-70, 70] moves the argument,
    through gamma, s = 1 / gamma or, for the capacity and the BER, the
    mean SNR about 30 dB."""
    alpha, beta = (draw(st.floats(0.5, 200.0)) for _ in range(2))
    zeta, a = draw(st.floats(0.3, 20.0)), draw(st.sampled_from([1, 2]))
    x = draw(st.floats(-70.0, 70.0))
    kind = draw(st.sampled_from(["pdf", "reflected pdf", "cdf", "mgf", "capacity", "ber"]))
    if kind in ("capacity", "ber"):
        dist = make_dist(alpha, beta, zeta, a, 30.0 + 10.0 * x / math.log(10.0))
        scheme = draw(st.sampled_from(list(ModulationScheme)))
        return point_spec(capacity_form(dist) if kind == "capacity" else ber_form(dist, scheme))
    dist = make_dist(alpha, beta, zeta, a, 30.0)
    ln_gamma = x + math.log(dist.mean_snr)
    if kind == "mgf":
        return point_spec(mgf_form(dist, [math.exp(-ln_gamma)]))
    if kind == "cdf":
        return point_spec(cdf_form(dist, [ln_gamma]))
    spec = point_spec(pdf_form(dist, [ln_gamma]))
    return reflected(spec) if kind == "reflected pdf" else spec


@given(spec=_saddle_forms(), shift=st.floats(-40.0, 40.0))
def test_every_line_holds_its_saddle(spec, shift):
    # the line of each instance, in a batch with the same kernel at other
    # arguments, is the one it takes alone
    others = [MeijerGSpec(spec.m, spec.n, spec.a_params, spec.b_params,
                          log_argument=spec.log_argument + v) for v in (shift, -shift, 3.0)]
    (alone,) = _lines([spec])
    line, d = _lines([others[0], spec] + others[1:])[1]
    _assert_line_holds_the_saddle(spec, line, d)
    assert (alone[0].hex(), alone[1].hex()) == (line.hex(), d.hex()), (spec, alone, line)


@pytest.mark.parametrize(("sigma", "lo", "hi", "want"), [
    # the D = 1 cell, from either side of D = 1
    (0.6 + 0.9, 0.6, math.inf, (1.6, 1.0, 0.6 + math.exp(-0.125), 1.85)),
    (0.6 + 1.2, 0.6, math.inf, (1.6, 1.0, 0.6 + math.exp(-0.125), 1.85)),
    # a one-sided strip open to the left, far out and near its pole
    (2.0 - 7.3, -math.inf, 2.0, (-5.5, 7.5, 2.0 - 7.75, 2.0 - 7.25)),
    (2.0 - 0.3, -math.inf, 2.0, (2.0 - math.exp(-1.25), math.exp(-1.25),
                                 2.0 - math.exp(-1.125), 2.0 - math.exp(-1.375))),
    # open to the right, below D = 1
    (0.5 + 0.3, 0.5, math.inf, (0.5 + math.exp(-1.25), math.exp(-1.25),
                                0.5 + math.exp(-1.375), 0.5 + math.exp(-1.125))),
    # a two-sided strip 3.6 wide: D = 1.78 snaps to 2, past the centre,
    # from either end, and the cell ends at the centre
    (1.78, 0.0, 3.6, (2.0, 1.6, 1.75, 1.8)),
    (1.82, 0.0, 3.6, (1.6, 1.6, 1.8, 1.85)),
    # on a strip 3 wide the line of D = 1.5 is the centre from both ends
    (1.4, 0.0, 3.0, (1.5, 1.5, 1.25, 1.5)),
    (1.6, 0.0, 3.0, (1.5, 1.5, 1.5, 1.75)),
])
def test_snap_places_the_line_and_bounds_its_cell(sigma, lo, hi, want):
    got = _snap(sigma, lo, hi)
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
    line, _, lower, upper = got
    # the cell holds sigma, and every point of it snaps onto the line
    assert lower <= sigma <= upper
    for point in np.linspace(lower, upper, 9)[1:-1]:
        assert _snap(float(point), lo, hi)[0] == line


def test_frozen_references_cover_every_closed_form_shape():
    # (m, n, p, q) per family row: pdf G^{6,0}, cdf G^{6a,1}, mgf and BER
    # G^{6a,2}, capacity G^{6a+2,1} and the per-hop density G^{3,0}
    rows: dict[tuple, set] = {}
    family = {level for level, _, _ in TABLE2_LEVELS}
    for entry in meijer_references():
        case = entry.get("case")
        if case is not None and case["level"] in family:
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
        MeijerGSpec(2, 0, (), (0.0,), log_argument=0.0)  # m > q
    with pytest.raises(ValueError):
        MeijerGSpec(0, 2, (1.0,), (0.0,), log_argument=0.0)  # n > p
    # ln z of z = 0, of z past the double range, and not a number
    for log_argument in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="log_argument must be finite"):
            MeijerGSpec(1, 0, (), (0.0,), log_argument=log_argument)
        # and each point of a family
        with pytest.raises(ValueError, match="every log_argument must be finite"):
            meijer_g_family(MeijerGKernel(1, 0, (), (0.0,)), [0.0, log_argument], [0.0, 0.0])
    # ln z is keyword-only, so a fifth positional argument, such as z, raises
    with pytest.raises(TypeError):
        MeijerGSpec(1, 0, (), (0.0,), 1.0)


def test_contour_rejects_nonpositive_decay_index():
    # m + n - (p+q)/2 = 0: no exponential decay along the line
    with pytest.raises(ContourError):
        meijer_g(MeijerGSpec(1, 1, (0.3, 0.9), (0.7, 0.1), log_argument=math.log(0.5)))


@pytest.mark.parametrize("upper", [1.0, 2.0], ids=["unit-deep", "two-deep"])
def test_touching_pole_families_raise_contour_error(upper):
    # a leading upper parameter a positive integer above a leading lower
    # one: the families touch and no vertical line separates them
    with pytest.raises(ContourError, match=r"separating strip .* is empty"):
        meijer_g(MeijerGSpec(1, 1, (upper,), (0.0, -3.2), log_argument=math.log(0.6)))


def test_eval_result_invariants():
    for spec in (EXP_SPEC, LOG_SPEC, BESSEL_SPEC):
        res = meijer_g(spec)
        assert math.isfinite(res.value)
        assert res.abs_error_estimate >= 0.0
