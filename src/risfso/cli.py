"""Command-line interface.

Subcommands evaluate single statistics or metrics for one channel
configuration (given as constants, a bundled preset, or physical link
geometry), run Monte Carlo estimates, and execute sweeps that
regenerate the bundled figure datasets as CSV or JSON.

Mean SNRs and thresholds cross this boundary in dB; all internal
computation is linear.  Exit codes: 0 success, 1 configuration or
schema error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import presets
from .channel import DetectionMode, alpha_beta, path_loss, pointing_state
from .metrics import (
    ModulationScheme,
    asymptotic_ber,
    average_ber,
    ergodic_capacity,
    outage_probability,
)
from .simulator import McConfig
from .special import MeijerGError
from .statistics import SnrDistribution, cdf, mgf, pdf
from .sweeps import (
    ConfigError,
    distribution,
    emit,
    link_scenario,
    mc_estimate,
    metric_spec,
    parse_config,
    run_sweep,
    scenario_spec,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route usage errors to exit code 1
        raise ConfigError(message)


# channel flags share their dest names with the JSON scenario keys
_CHANNEL_KEYS = ("preset", "alpha", "beta", "zeta", "detection",
                 "mean_snr_db", "mu")
_MC_METRIC_KEYS = ("gamma_th_db", "scheme", "s")


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="table2-<color>-<level> constants")
    p.add_argument("--alpha", type=float, help="large-scale shape")
    p.add_argument("--beta", type=float, help="small-scale shape")
    p.add_argument("--zeta", type=float, required=True,
                   help="beam radius over pointing jitter")
    # unset --detection and --mu take the defaults of sweeps.scenario_spec
    p.add_argument("--detection", help="hd (default) or imdd")
    p.add_argument("--mean-snr-db", type=float, required=True,
                   help="end-to-end (product) mean SNR in dB")
    p.add_argument("--mu", type=float,
                   help="reflection amplitude coefficient (default 1)")
    p.add_argument("--format", default="json", choices=["json", "csv"])


def _given(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _distribution(args: argparse.Namespace) -> SnrDistribution:
    given = _given(args, _CHANNEL_KEYS)
    if not {"preset", "alpha", "beta"} & given.keys():
        # the cn2 geometry that a JSON scenario may give has no flag here
        raise ConfigError("channel: give --preset, or --alpha and --beta")
    sc = scenario_spec(given, "channel")
    return distribution(sc, 10.0 ** (sc.mean_snr_db / 10.0))


def _print_result(payload: dict, args: argparse.Namespace) -> None:
    if getattr(args, "format", None) == "csv":
        lines = ["key,value"] + [f"{k},{payload[k]}" for k in sorted(payload)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="risfso",
                     description="Reflected two-hop FSO link statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", parents=[], help="derive channel parameters "
                       "from physical link geometry")
    p.add_argument("--wavelength-nm", type=float)
    p.add_argument("--color", choices=sorted(presets.WAVELENGTH_NM))
    # unset geometry takes the defaults of sweeps.link_scenario
    p.add_argument("--distance-m", type=float)
    p.add_argument("--aperture-diameter-mm", type=float)
    p.add_argument("--cn2", type=float, required=True)
    p.add_argument("--receiver-radius-m", type=float)
    p.add_argument("--beam-waist-m", type=float)
    p.add_argument("--attenuation-per-km", type=float)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--detection", default="hd")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out")

    for name, extra in (
        ("pdf", ("--gamma-db",)),
        ("cdf", ("--gamma-db",)),
        ("mgf", ("--s",)),
        ("outage", ()),
        ("capacity", ()),
        ("ber", ("--scheme",)),
        ("asymptote", ("--scheme",)),
    ):
        p = sub.add_parser(name, help=f"evaluate {name} for one configuration")
        _add_channel_args(p)
        p.add_argument("--out")
        if "--gamma-db" in extra:
            p.add_argument("--gamma-db", type=float, required=True)
        if "--s" in extra:
            p.add_argument("--s", type=float, required=True)
        if "--scheme" in extra:
            p.add_argument("--scheme", required=True,
                           help="CBFSK, NBFSK, CBPSK or DBPSK (any case)")
        if name == "outage":
            p.add_argument("--gamma-th-db", type=float)
            p.add_argument("--rate", type=float)
            p.add_argument("--rate-convention", default="exp2r-minus1-exponent",
                           choices=["exp2r-minus1-exponent", "exp2r-minus-1"])

    p = sub.add_parser("mc", help="Monte Carlo estimate of one metric")
    _add_channel_args(p)
    p.add_argument("--metric", required=True,
                   choices=["outage", "capacity", "ber", "mgf"])
    p.add_argument("--gamma-th-db", type=float)
    p.add_argument("--scheme", help="BER scheme, as for the ber command")
    p.add_argument("--s", type=float)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=200_000)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="run a grid sweep from a preset or config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=presets.PRESET_NAMES)
    group.add_argument("--config", help="JSON sweep description")
    # unset: a preset takes seed 0 and "product", a config keeps its own
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default=None, choices=["csv", "json"])
    p.add_argument("--out")
    p.add_argument("--gbar-interpretation", choices=["product", "per-hop"])
    return parser


def _run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "params":
        if args.wavelength_nm is None and args.color is None:
            raise ConfigError("give --wavelength-nm or --color")
        fields = {k: v for k, v in vars(args).items() if v is not None}
        scenario = link_scenario(fields, args.zeta,
                                 DetectionMode.from_name(args.detection),
                                 "params")
        turb = alpha_beta(scenario)
        point = pointing_state(scenario)
        _print_result({
            "rytov_variance": turb.rytov, "d": turb.d,
            "alpha": turb.alpha, "beta": turb.beta,
            "saturated": turb.saturated,
            "v": point.v, "a0": point.a0, "zeta": point.zeta,
            "path_loss": path_loss(scenario),
        }, args)
        return 0

    if cmd in ("pdf", "cdf", "mgf", "outage", "capacity", "ber", "asymptote"):
        dist = _distribution(args)
        if cmd == "pdf":
            value = pdf(dist, 10.0 ** (args.gamma_db / 10.0))
        elif cmd == "cdf":
            value = cdf(dist, 10.0 ** (args.gamma_db / 10.0))
        elif cmd == "mgf":
            value = mgf(dist, args.s)
        elif cmd == "outage":
            gth = 10.0 ** (args.gamma_th_db / 10.0) \
                if args.gamma_th_db is not None else None
            value = outage_probability(dist, gth, rate=args.rate,
                                       rate_convention=args.rate_convention)
        elif cmd == "capacity":
            value = ergodic_capacity(dist)
        elif cmd == "ber":
            value = average_ber(dist, ModulationScheme.from_name(args.scheme))
        else:
            report = asymptotic_ber(dist,
                                    ModulationScheme.from_name(args.scheme))
            _print_result({
                "diversity_order": report.diversity_order,
                "coding_gain": report.coding_gain,
                "ber_asymptote": report.ber_estimate,
                "mean_snr_db": args.mean_snr_db,
            }, args)
            return 0
        _print_result({"value": value}, args)
        return 0

    if cmd == "mc":
        dist = _distribution(args)
        metric = metric_spec({"name": args.metric,
                              **_given(args, _MC_METRIC_KEYS)}, "metric", None)
        cfg = McConfig(sample_count=args.samples, seed=args.seed,
                       batch_size=args.batch_size)
        est = mc_estimate(metric, dist, cfg, metric.gamma_th_db)
        _print_result({"mean": est.mean, "std_error": est.std_error,
                       "sample_count": est.sample_count,
                       "seed": args.seed}, args)
        return 0

    if cmd == "sweep":
        given = {k: v for k, v in (("seed", args.seed),
                                   ("gbar_interpretation", args.gbar_interpretation))
                 if v is not None}
        if args.preset:
            spec = presets.figure_preset(args.preset, **given)
            default_out = f"{args.preset}.{args.format or 'csv'}"
        else:
            spec = dataclasses.replace(parse_config(args.config), **given)
            default_out = spec.output_path or "sweep.csv"
        fmt = args.format or spec.output_format
        out = args.out or default_out
        curves = run_sweep(spec)
        emit(curves, fmt, out)
        sys.stdout.write(f"wrote {len(curves)} curve(s) to {out}\n")
        return 0

    raise ConfigError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (MeijerGError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
