"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AirkeyError, ConfigError
from .harness import ExperimentConfig, run_experiment, sweep


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--protocol", choices=["hmac", "fmac"])
    parser.add_argument("--n", type=int, dest="n_users", help="number of users")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--eve", action="store_true", default=None)
    parser.add_argument("--precision", type=int, dest="precision_digits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airkey",
        description="Simulate group secret-key generation over a wireless MAC",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment")
    _add_common_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="sweep one config field")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, help="config field to sweep")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated list of axis values"
    )
    return parser


def _load_config(args) -> ExperimentConfig:
    text = "{}"
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError({"config": f"no such file: {path}"})
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError({"config": f"{path} is not UTF-8 text: {e}"}) from e
    overrides = {
        "protocol": args.protocol,
        "n_users": args.n_users,
        "seed": args.seed,
        "trials": args.trials,
        "out_dir": args.out,
        "eve": args.eve,
        "precision_digits": args.precision_digits,
    }
    return ExperimentConfig.from_json(
        text, **{k: v for k, v in overrides.items() if v is not None}
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "run":
            summary = run_experiment(cfg)
            print(json.dumps(summary, sort_keys=True, indent=2))
        else:
            values = [v for v in args.values.split(",") if v]
            table = sweep(cfg, args.axis, values)
            print(json.dumps(table, sort_keys=True, indent=2))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (AirkeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


def entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
