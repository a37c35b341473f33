"""Regenerate the frozen Meijer-G references of the test suite.

Run from the repository root:

    python3 tests/make_meijer_references.py

It needs mpmath, which only this script imports.  It records the
G-function instance behind every closed form of the package on the
twelve family rows (the three turbulence rows of ``conftest.TABLE2_LEVELS``,
pointing ratio zeta 1.1 and 6.1, heterodyne and IM/DD detection): pdf,
cdf, mgf, capacity, the four BER schemes and the per-hop density.  It
adds the cdf and the mgf of every row at ratios far outside the bulk
(``BAND_RATIOS``), and a few instances off the family.  Each instance is
evaluated with ``mpmath.meijerg`` at 40 significant digits and written
to ``tests/meijer_references.json`` with its own orders, parameters and
argument, so that a later change to ``cascade_from_constants`` cannot move a
reference with it.  Instances taken from a public function also keep
the function, its inputs and the ``log_prefactor`` it passed.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conftest import (  # noqa: E402
    BAND_MEAN_DB,
    BAND_RATIOS,
    REFERENCES,
    TABLE2_LEVELS,
    make_dist,
)
from risfso import metrics, statistics  # noqa: E402
from risfso.special import MeijerGSpec  # noqa: E402

DPS = 40
FAMILY_MEAN_DB = 20.0
ZETAS = (1.1, 6.1)

# off-family instances: the Meijer-G identities and the frozen and
# coincident-parameter cases of the special-function tests
OTHER = {
    "exp z=1": MeijerGSpec(1, 0, (), (0.0,), 1.0),
    "log1p z=1": MeijerGSpec(1, 2, (1.0, 1.0), (1.0, 0.0), 1.0),
    "bessel-k nu=0.5 x=2": MeijerGSpec(2, 0, (), (0.25, -0.25), 1.0),
    "z^0.75 exp z=0.5": MeijerGSpec(1, 0, (), (0.75,), 0.5),
    "z^0.75 exp z=2": MeijerGSpec(1, 0, (), (0.75,), 2.0),
    "G3-0 z=0.7": MeijerGSpec(3, 0, (5.0,), (4.0, 4.2, 2.5), 0.7),
    "G6-0 twin z=0.8": MeijerGSpec(6, 0, (5.0, 5.0), (4.0, 4.2, 2.5) * 2, 0.8),
    "G6-0 cascade pdf z=0.3": MeijerGSpec(
        6, 0, (38.21, 38.21), (37.21, 12.5331, 4.6787) * 2, 0.3),
}


def captured(fn, *args) -> tuple[MeijerGSpec, float]:
    """(spec, log_prefactor) of the one ``meijer_g`` call behind fn(*args)."""
    original = statistics.meijer_g
    seen = []

    def record(spec, *, log_prefactor=0.0):
        seen.append((spec, log_prefactor))
        return original(spec, log_prefactor=log_prefactor)

    statistics.meijer_g = metrics.meijer_g = record
    try:
        fn(*args)
    finally:
        statistics.meijer_g = metrics.meijer_g = original
    (out,) = seen
    return out


def reference(spec: MeijerGSpec) -> mpmath.mpf:
    a = [list(spec.a_params[:spec.n]), list(spec.a_params[spec.n:])]
    b = [list(spec.b_params[:spec.m]), list(spec.b_params[spec.m:])]
    if spec.n and spec.argument > 1e10:
        # the series in z cancels through hundreds of digits out here; the
        # expansion in 1/z omits terms of order exp(-(q-p) z^(1/(q-p))),
        # and mpmath raises where its divergent tail cannot reach DPS
        try:
            return mpmath.meijerg(a, b, spec.argument, series=2)
        except mpmath.mp.NoConvergence:
            pass
    return mpmath.meijerg(a, b, spec.argument, series=1)


def family_cases():
    """(case, fn, args) of every public closed form on the twelve rows."""
    for level, alpha, beta in TABLE2_LEVELS:
        for zeta in ZETAS:
            for a in (1, 2):
                row = {"level": level, "alpha": alpha, "beta": beta,
                       "zeta": zeta, "a": a}
                dist = make_dist(alpha, beta, zeta, a, FAMILY_MEAN_DB)
                gbar = dist.mean_snr
                base = dict(row, mean_snr_db=FAMILY_MEAN_DB)
                yield dict(base, statistic="pdf", ratio=0.03), \
                    statistics.pdf, (dist, 0.03 * gbar)
                yield dict(base, statistic="cdf", ratio=0.05), \
                    statistics.cdf, (dist, 0.05 * gbar)
                yield dict(base, statistic="mgf", ratio=1.0), \
                    statistics.mgf, (dist, 1.0 / gbar)
                yield dict(base, statistic="capacity"), \
                    metrics.ergodic_capacity, (dist,)
                for scheme in metrics.ModulationScheme:
                    yield dict(base, statistic="ber", scheme=scheme.name), \
                        metrics.average_ber, (dist, scheme)
                yield dict(base, statistic="subchannel_pdf", ratio=0.5), \
                    statistics.subchannel_pdf, \
                    (dist, 0.5 * math.sqrt(gbar), math.sqrt(gbar))
                band = make_dist(alpha, beta, zeta, a, BAND_MEAN_DB)
                for ratio in BAND_RATIOS:
                    case = dict(row, mean_snr_db=BAND_MEAN_DB, ratio=ratio)
                    yield dict(case, statistic="cdf"), \
                        statistics.cdf, (band, ratio * band.mean_snr)
                    yield dict(case, statistic="mgf"), \
                        statistics.mgf, (band, ratio / band.mean_snr)


def case_label(case: dict) -> str:
    mode = "HD" if case["a"] == 1 else "IM/DD"
    out = (f"{case['statistic']} {case['level']} zeta {case['zeta']:g} {mode} "
           f"{case['mean_snr_db']:g} dB")
    if "scheme" in case:
        out += f" {case['scheme']}"
    if "ratio" in case:
        out += f" ratio {case['ratio']:g}"
    return out


def entry(label: str, spec: MeijerGSpec, **extra) -> dict:
    value = reference(spec)
    print(f"{label:48s} {mpmath.nstr(value, 12)}", flush=True)
    return {"label": label, "m": spec.m, "n": spec.n,
            "a_params": list(spec.a_params), "b_params": list(spec.b_params),
            "argument": spec.argument, **extra,
            "value": mpmath.nstr(value, DPS, min_fixed=1, max_fixed=0)}


def main() -> None:
    mpmath.mp.dps = DPS
    entries = [entry(label, spec) for label, spec in OTHER.items()]
    for case, fn, args in family_cases():
        spec, log_prefactor = captured(fn, *args)
        entries.append(entry(case_label(case), spec, case=case,
                             log_prefactor=log_prefactor))
    lines = ",\n".join(json.dumps(e) for e in entries)
    REFERENCES.write_text(f'{{"dps": {DPS}, "entries": [\n{lines}\n]}}\n',
                          encoding="utf-8")
    print(f"wrote {len(entries)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
