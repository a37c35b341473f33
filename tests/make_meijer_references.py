"""Regenerate the frozen Meijer-G references of the test suite.

Run from the repository root:

    python3 tests/make_meijer_references.py

It needs mpmath, which only this script imports, and takes about 3
minutes on a 2-core machine.  It records the G-function instance behind
every closed form of the package on the twelve family rows (the three
turbulence rows of ``conftest.TABLE2_LEVELS``, pointing ratio zeta 1.1
and 6.1, heterodyne and IM/DD detection): pdf, cdf, mgf, capacity, the
four BER schemes and the per-hop density.  It adds the cdf and the mgf
of every row at ratios far outside the bulk (``BAND_RATIOS``), a few
instances off the family, and the two densities from ratio 1e-30 to
1e20 on the family rows and two large-shape rows (``tail_cases``).  The
cases are ``conftest.reference_cases``, and each instance is the spec
that the statistic's builder returns (``conftest.closed_form``).  Each
instance is evaluated at 40 significant digits at z = exp(ln z), ln z
being the spec's ``log_argument``, and written to
``tests/meijer_references.json`` with its own orders, parameters and
argument z rounded to a double, so that a later change to
``cascade_from_constants`` cannot move a reference with it.  Instances
taken from a builder also keep their case and the builder's
``log_prefactor``.

The committed entries were made when the builders formed z itself in
floating point; they now form ln z from logs.  So a run today writes
arguments an ulp or so away from the committed ones, and values that
move with them: by up to about 1e-13 relative where the value, its
prefactor included, is a double, and by more in the far tails, where
it underflows.  ``test_builders_rebuild_every_frozen_spec``
in ``tests/test_statistics.py`` bounds that difference: each builder's
ln z lies within 1e-13 of the log of the frozen argument, and each
builder form evaluates within 1e-10 of the frozen value, or to 0 where
that underflows.  A run over the committed file would thus rewrite
every entry; to check the script, run it on a copy of the repository.

Most instances come from ``mpmath.meijerg``.  A tail density whose
argument exceeds 1 has its saddle point out on the far side of its
strip, where the series in z that ``mpmath.meijerg`` sums cancels
through thousands of digits and does not finish; those are integrated
along the Mellin-Barnes line through mpmath's own saddle point with
``mpmath.quad`` instead (``line_reference``).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conftest import REFERENCES, closed_form, reference_cases, tail_cases  # noqa: E402
from risfso.special import MeijerGSpec  # noqa: E402

DPS = 40

# off-family instances: the Meijer-G identities and the frozen and
# coincident-parameter cases of the special-function tests
OTHER = {
    "exp z=1": MeijerGSpec(1, 0, (), (0.0,), log_argument=0.0),
    "log1p z=1": MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), log_argument=0.0),
    "bessel-k nu=0.5 x=2": MeijerGSpec(2, 0, (), (0.25, -0.25), log_argument=0.0),
    "z^0.75 exp z=0.5": MeijerGSpec(1, 0, (), (0.75,), log_argument=math.log(0.5)),
    "z^0.75 exp z=2": MeijerGSpec(1, 0, (), (0.75,), log_argument=math.log(2.0)),
    "G3-0 z=0.7": MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), log_argument=math.log(0.7)),
    "G6-0 twin z=0.8": MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2,
                                   log_argument=math.log(0.8)),
    "G6-0 cascade pdf z=0.3": MeijerGSpec(
        6, 0, (38.21, 38.21), (37.21, 12.5331, 4.6787) * 2, log_argument=math.log(0.3)),
}


def argument(spec: MeijerGSpec) -> mpmath.mpf:
    """z = exp(ln z) of the spec, at DPS digits."""
    return mpmath.exp(mpmath.mpf(spec.log_argument))


def reference(spec: MeijerGSpec) -> mpmath.mpf:
    a = [list(spec.a_params[:spec.n]), list(spec.a_params[spec.n:])]
    b = [list(spec.b_params[:spec.m]), list(spec.b_params[spec.m:])]
    z = argument(spec)
    if spec.n and z > 1e10:
        # the series in z cancels through hundreds of digits out here; the
        # expansion in 1/z omits terms of order exp(-(q-p) z^(1/(q-p))),
        # and mpmath raises where its divergent tail cannot reach DPS
        try:
            return mpmath.meijerg(a, b, z, series=2)
        except mpmath.mp.NoConvergence:
            pass
    return mpmath.meijerg(a, b, z, series=1)


def line_reference(spec: MeijerGSpec) -> mpmath.mpf:
    """G(z) of a one-sided spec as (1/pi) times the integral over t > 0 of
    Re w(sigma + i t), w(s) = chi(s) z^s the Mellin-Barnes integrand, on
    the vertical line through the saddle point sigma of |w| on the real
    axis.  Near the saddle w falls off like a Gaussian in t of width
    1/sqrt(phi''(sigma)), phi = log |w|, and the quadrature breaks the
    line at that width times powers of 2."""
    m, n = spec.m, spec.n
    if m and n:
        raise ValueError("line_reference takes one-sided specs only")
    a = [mpmath.mpf(v) for v in spec.a_params]
    b = [mpmath.mpf(v) for v in spec.b_params]
    lnz = mpmath.mpf(spec.log_argument)
    # (offset, sign of s, weight) of each gamma factor of chi
    factors = ([(b[j], -1, 1) for j in range(m)] + [(1 - a[j], 1, 1) for j in range(n)]
               + [(1 - b[j], 1, -1) for j in range(m, spec.q)]
               + [(a[j], -1, -1) for j in range(n, spec.p)])

    def log_w(s):
        return sum(w * mpmath.loggamma(c + e * s) for c, e, w in factors) + s * lnz

    def slope(x):
        return sum(w * e * mpmath.digamma(c + e * x) for c, e, w in factors) + lnz

    # the strip runs from its end to infinity on one side; next to the
    # end phi' has the sign -side, and its root lies where that changes:
    # bisect on the log of the distance from the end, then secant steps
    end, side = (min(b[:m]), -1) if m else (max(a[:n]) - 1, 1)
    near, far = mpmath.mpf(-60), mpmath.mpf(1)
    while mpmath.sign(slope(end + side * mpmath.exp(far))) == -side:
        far *= 2
    for _ in range(60):
        mid = (near + far) / 2
        if mpmath.sign(slope(end + side * mpmath.exp(mid))) == -side:
            near = mid
        else:
            far = mid
    sigma = mpmath.findroot(slope, end + side * mpmath.exp(mid))
    width = 1 / mpmath.sqrt(sum(w * mpmath.psi(1, c + e * sigma) for c, e, w in factors))
    peak = log_w(sigma)
    value, error = mpmath.quad(
        lambda t: mpmath.re(mpmath.exp(log_w(sigma + 1j * t) - peak)),
        [0] + [width * 2 ** k for k in range(-3, 8)] + [mpmath.inf],
        error=True, maxdegree=10)
    if not error <= mpmath.mpf(10) ** (5 - DPS) * abs(value):
        raise ArithmeticError(f"line quadrature error {mpmath.nstr(error, 3)} "
                              f"on a value of {mpmath.nstr(value, 3)}")
    return value * mpmath.exp(peak) / mpmath.pi


def case_label(case: dict) -> str:
    mode = "HD" if case["a"] == 1 else "IM/DD"
    out = (f"{case['statistic']} {case['level']} zeta {case['zeta']:g} {mode} "
           f"{case['mean_snr_db']:g} dB")
    if "scheme" in case:
        out += f" {case['scheme']}"
    if "ratio" in case:
        out += f" ratio {case['ratio']:g}"
    return out


def entry(label: str, spec: MeijerGSpec, value: mpmath.mpf, **extra) -> dict:
    print(f"{label:48s} {mpmath.nstr(value, 12)}", flush=True)
    return {"label": label, "m": spec.m, "n": spec.n,
            "a_params": list(spec.a_params), "b_params": list(spec.b_params),
            "argument": float(argument(spec)), **extra,
            "value": mpmath.nstr(value, DPS, min_fixed=1, max_fixed=0)}


def main() -> None:
    mpmath.mp.dps = DPS
    entries = [entry(label, spec, reference(spec)) for label, spec in OTHER.items()]
    tails = list(tail_cases())
    for case in reference_cases():
        form = closed_form(case)
        spec = form.spec
        value = (line_reference(spec) if case in tails and spec.log_argument > 0.0
                 else reference(spec))
        entries.append(entry(case_label(case), spec, value, case=case,
                             log_prefactor=form.log_prefactor))
    lines = ",\n".join(json.dumps(e) for e in entries)
    REFERENCES.write_text(f'{{"dps": {DPS}, "entries": [\n{lines}\n]}}\n',
                          encoding="utf-8")
    print(f"wrote {len(entries)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
