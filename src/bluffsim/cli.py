"""Command line interface.

    bluffsim run --config <path-or-preset> --out <dir> [--seed N] [--dry-run]
    bluffsim sweep --config <path-or-preset> --param <dotted.path> \
        --values v1,v2,... --out <dir>

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import PRESETS, dump_config, load_config
from .domain import ConfigError
from .pipeline import run, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bluffsim",
        description="Deterministic ad-network simulator with decoy-ad fraud detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its outputs")
    p_run.add_argument(
        "--config",
        required=True,
        help=f"YAML config path or preset name {sorted(PRESETS)}",
    )
    p_run.add_argument("--out", help="output directory (required unless --dry-run)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the config and echo it; write no files",
    )

    p_sweep = sub.add_parser("sweep", help="run the pipeline per parameter value")
    p_sweep.add_argument("--config", required=True, help="YAML config path or preset name")
    p_sweep.add_argument("--param", required=True, help="dotted numeric field, e.g. injection.rho")
    p_sweep.add_argument("--values", required=True, help="comma-separated numeric values")
    p_sweep.add_argument("--out", required=True, help="output directory for sweep_summary.csv")
    p_sweep.add_argument("--seed", type=int, help="override the config seed")
    return parser


def _parse_values(raw: str) -> list:
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk))
        except ValueError:
            try:
                values.append(float(chunk))
            except ValueError:
                raise ConfigError(f"sweep value {chunk!r} is not numeric") from None
    if not values:
        raise ConfigError("no sweep values given")
    return values


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        config.validate()

        if args.command == "run":
            if args.dry_run:
                sys.stdout.write(dump_config(config))
                print("config ok (dry run, no files written)")
                return 0
            if not args.out:
                raise ConfigError("run requires --out unless --dry-run is given")
            outputs = run(config, args.out)
            print(f"run complete: {outputs.out_dir}")
            return 0

        values = _parse_values(args.values)
        rows = sweep(config, args.param, values, args.out)
        print(f"sweep complete: {len(rows)} values -> {args.out}/sweep_summary.csv")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
