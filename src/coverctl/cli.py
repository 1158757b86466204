"""Command-line front end.

    coverctl run --preset NAME [--seed N] [--replicas K] [--jobs J] [--plot] [--out DIR]
    coverctl run --config FILE [overrides...]
    coverctl list-presets
    coverctl oracle --preset NAME | --config FILE

Config files are flat JSON with the documented key set; command-line flags
override file keys and the merged effective config is always written back
next to the traces. Exit codes: 2 bad config, 3 infeasible benchmark, 4 broken
invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .control import InvariantViolation
from .oracles import InfeasibleBenchmarkError
from .presets import ConfigError, ExperimentConfig, preset_catalog, preset_config
from .runner import benchmark_values, execute


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}:1:1: top level must be a JSON object")
    return doc


def _resolve_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = ExperimentConfig.from_dict(_load_config_file(args.config))
    else:
        raise ConfigError("one of --preset or --config is required")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "replicas", None) is not None:
        overrides["replicas"] = args.replicas
    if getattr(args, "out", None) is not None:
        overrides["output_dir"] = args.out
    return cfg.replace(**overrides) if overrides else cfg


def _add_config_flags(p: argparse.ArgumentParser, with_run_flags: bool) -> None:
    p.add_argument("--preset", help="built-in preset name (see list-presets)")
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--seed", type=int, help="master seed override")
    if with_run_flags:
        p.add_argument("--replicas", type=int, help="replica count override")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for replicas (default 1)")
        p.add_argument("--plot", action="store_true",
                       help="emit coverage.svg and regret.svg per variant")
        p.add_argument("--out", help="output directory (default ./runs/<preset>)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverctl",
        description="Coverage-controller experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a preset or config")
    _add_config_flags(run_p, with_run_flags=True)
    sub.add_parser("list-presets", help="print the preset catalog")
    oracle_p = sub.add_parser("oracle", help="print benchmark values as JSON")
    _add_config_flags(oracle_p, with_run_flags=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        if args.command == "list-presets":
            for entry in preset_catalog():
                print(f"{entry['name']:20s} {entry['description']}")
            return 0
        if args.command == "oracle":
            cfg = _resolve_config(args)
            print(json.dumps(benchmark_values(cfg), indent=2, sort_keys=True, allow_nan=False))
            return 0
        cfg = _resolve_config(args)
        out_dir = Path(cfg.output_dir or Path("runs") / cfg.preset)
        cfg = cfg.replace(output_dir=str(out_dir))
        execute(cfg, out_dir, jobs=args.jobs, plot=args.plot)
        print(f"wrote artifacts to {out_dir}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InfeasibleBenchmarkError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return 3
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as err:  # a missing config file, an OUT that is a file, ...
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
