"""Command-line front end.

    coverctl run --preset NAME [--seed N] [--replicas K] [--jobs J] [--plot] [--out DIR]
    coverctl run --config FILE [overrides...]
    coverctl list-presets
    coverctl oracle --preset NAME | --config FILE

Config files are flat JSON with the documented key set; command-line flags
override file keys and the merged effective config is always written back
next to the traces. Exit codes: 2 bad config, or an output directory that is
not empty or is the working directory; 3 infeasible benchmark; 4 broken
invariant; 5 a pool worker process died (killed by a signal, such as SIGKILL
from the out-of-memory killer), which leaves the output directory as it was.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
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
    except ValueError as err:  # valid JSON Python refuses: an integer of more than 4300 digits
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}:1:1: top level must be a JSON object")
    return doc


def _resolve_config(args) -> ExperimentConfig:
    """The config a command runs: the preset or file, with the flag overrides and
    the output directory resolved (--out, else the config's, else runs/<preset>)."""
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = ExperimentConfig.from_dict(_load_config_file(args.config))
    else:
        raise ConfigError("one of --preset or --config is required")
    overrides = {key: value for key, value in (("seed", args.seed), ("replicas", args.replicas))
                 if value is not None}
    out = cfg.output_dir if args.out is None else args.out
    return cfg.replace(output_dir=str(Path(out or Path("runs") / cfg.preset)), **overrides)


def build_parser() -> argparse.ArgumentParser:
    config_p = argparse.ArgumentParser(add_help=False)
    config_p.add_argument("--preset", help="built-in preset name (see list-presets)")
    config_p.add_argument("--config", help="path to a JSON config file")
    config_p.add_argument("--seed", type=int, help="master seed override")
    parser = argparse.ArgumentParser(
        prog="coverctl",
        description="Coverage-controller experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[config_p], help="execute a preset or config")
    run_p.add_argument("--replicas", type=int, help="replica count override")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for replicas (default 1)")
    run_p.add_argument("--plot", action="store_true",
                       help="emit coverage.svg and regret.svg per variant")
    run_p.add_argument("--out", help="output directory (default ./runs/<preset>)")
    sub.add_parser("list-presets", help="print the preset catalog")
    sub.add_parser("oracle", parents=[config_p], help="print benchmark values as JSON"
                   ).set_defaults(replicas=None, out=None)
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
        cfg = _resolve_config(args)
        if args.command == "oracle":
            print(json.dumps(benchmark_values(cfg), indent=2, sort_keys=True, allow_nan=False))
            return 0
        execute(cfg, Path(cfg.output_dir), jobs=args.jobs, plot=args.plot)
        print(f"wrote artifacts to {cfg.output_dir}")
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
    except BrokenExecutor:  # the process pool's BrokenProcessPool
        print("error: a --jobs pool worker process died before its replica returned (killed, "
              f"e.g. by SIGKILL or the out-of-memory killer); {cfg.output_dir} is as it was",
              file=sys.stderr)
        return 5
    except (OSError, ValueError) as err:  # a missing config file, an OUT in use, ...
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
