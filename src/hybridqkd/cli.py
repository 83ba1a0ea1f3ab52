"""Command-line entry point.

Subcommands:

* ``run CONFIG`` — run the configured scenario, writing CSVs and a
  manifest to the output directory.
* ``calibrate CONFIG --target-raw BPS`` — bisect the Bob-channel
  transmittance until the simulated raw key rate meets the target.
* ``analyze ALICE_TAGS BOB_TAGS --window PS`` — offline coincidence
  analysis of two dumped tag streams.

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 protocol abort (an abort is a valid experimental outcome, reported
distinctly so scripts can branch on it).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, harness, protocol, tags


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridqkd",
        description="Entanglement-QKD session simulator and analyzer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file")
    run.add_argument("config", help="path to a scenario config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out", default=None,
                     help="output directory (default: the config's out_dir)")
    run.add_argument("--scenario", default=None,
                     help="override the config scenario name")
    run.set_defaults(func=_cmd_run)

    cal = sub.add_parser("calibrate",
                         help="fit the loss knob to a raw-rate target")
    cal.add_argument("config", help="path to a scenario config file")
    cal.add_argument("--target-raw", type=float, required=True,
                     metavar="BPS", help="raw key rate to calibrate to")
    cal.add_argument("--tolerance", type=float, default=None,
                     help="relative tolerance (default from config)")
    cal.add_argument("--out", default=None,
                     help="directory for calibration.csv (default: none)")
    cal.set_defaults(func=_cmd_calibrate)

    ana = sub.add_parser("analyze",
                         help="offline analysis of two tag-stream dumps")
    ana.add_argument("alice_tags", help="path to the alice tag stream")
    ana.add_argument("bob_tags", help="path to the bob tag stream")
    ana.add_argument("--window", type=int, required=True, metavar="PS",
                     help="coincidence window in picoseconds")
    ana.add_argument("--out", default=".",
                     help="directory for matrix.csv and estimates.csv")
    ana.set_defaults(func=_cmd_analyze)
    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replaced(seed=args.seed)
    if args.scenario is not None:
        cfg = cfg.replaced(scenario=args.scenario)
    result = harness.run_scenario(cfg, out_dir=args.out)
    print(f"scenario {result.scenario}: {result.summary}")
    for path in result.files:
        print(f"wrote {path}")
    return result.exit_code


def _cmd_calibrate(args) -> int:
    # through the config, so that the schema checks both values
    overrides = {"calibrate__target_raw_bps": args.target_raw}
    if args.tolerance is not None:
        overrides["calibrate__tolerance"] = args.tolerance
    cfg = harness.load_config(args.config).replaced(**overrides)
    transmittance, raw_bps, rows = harness.calibrate_loss(cfg)
    print(f"calibrated channel.bob.transmittance = {transmittance:.10g}")
    print(f"verified raw rate = {raw_bps:.6g} bps "
          f"(target {cfg['calibrate.target_raw_bps']:.6g}, "
          f"{len(rows)} probes)")
    if args.out is not None:
        from pathlib import Path
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "calibration.csv").write_text(
            tags.csv_text("iteration,transmittance,raw_bps", rows))
        print(f"wrote {out / 'calibration.csv'}")
    return 0


def _cmd_analyze(args) -> int:
    result = harness.analyze_streams(args.alice_tags, args.bob_tags,
                                     args.window, out_dir=args.out)
    print(f"delay = {result['delay_ps']} ps")
    print(f"pairs = {result['pairs']}")
    print(f"S = {result['s']:.6f} +- {result['s_err']:.6f}")
    print(f"QBER = {result['qber']:.6f}")
    for path in result["files"]:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except protocol.SessionAbort as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (harness.CalibrationError, protocol.ProtocolError,
            tags.InsufficientDataError, tags.NoCorrelationError,
            tags.InsufficientStatisticsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
