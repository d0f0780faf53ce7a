"""Command-line entry point: one subcommand per experiment scenario.

Exit codes: 0 success, 2 configuration problems, 3 numeric failures,
including a count too large to allocate and a search too deep.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, EnumerationBudgetError, NumericError, ParameterError
from .harness import ExperimentConfig, emit, run_experiment

# subcommand -> (scenario, bundled config in configs/ run without --config)
_SUBCOMMANDS = {
    "csi-sumrate": ("csi_sumrate", "csi_sumrate"),
    "csi-complexity": ("csi_complexity", "csi_complexity"),
    "csi-stability": ("csi_stability", "csi_stability"),
    "cdi-converge": ("cdi_convergence", "cdi_convergence"),
    "cdi-outage": ("cdi_outage", "cdi_outage_k2"),
    "cdi-complexity": ("cdi_complexity", "cdi_complexity"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsched",
        description="Scheduling experiments for an uplink satellite-terrestrial relay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; defaults to the bundled one")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--trials", type=int, help="override the config trial count")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()
# numpy's ValueErrors for a shape or byte count past the largest index
_PAST_ARRAY_LIMIT = ("Maximum allowed dimension exceeded", "array is too big")


def _load_config(args, scenario: str, bundled: str) -> ExperimentConfig:
    bundled_path = Path(__file__).with_name("configs") / f"{bundled}.json"
    path = bundled_path if args.config is None else args.config
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # bad JSON or UTF-8, an integer past Python's digit limit, or nesting
    # past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if args.config is None:
        del raw["output_path"]  # the bundled defaults print to stdout
    elif raw.get("scenario") != scenario:
        raise ConfigError(
            f"config scenario {raw.get('scenario')!r} does not match subcommand "
            f"({scenario})"
        )
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.out is not None:
        raw["output_path"] = args.out
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _load_config(args, *_SUBCOMMANDS[args.command])
        rows = run_experiment(config)
        text = emit(rows, args.format, config.output_path)
        if config.output_path:
            print(f"wrote {len(rows)} rows to {config.output_path}")
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EnumerationBudgetError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_PAST_ARRAY_LIMIT):
            raise
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return 3
    except RecursionError as exc:
        print(f"numeric error: search too deep: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
