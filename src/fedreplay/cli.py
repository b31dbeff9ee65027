"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .memory import dump_csv
from .runner import check_output_dir, emit_report, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedreplay",
        description="Simulate online federated class-incremental learning with replay memory.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="override the output directory (grid: one subdir per config)")
    common.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="run one experiment config")
    run.add_argument("config", help="path to the experiment config file")

    grid = sub.add_parser("grid", parents=[common], help="run every config file in a directory")
    grid.add_argument("config_dir", help="directory of experiment config files")

    dump = sub.add_parser("dump-memory", parents=[common], help="run a config and dump the final memory buffers")
    dump.add_argument("config", help="path to the experiment config file")

    return parser


def _load(path, seed_override):
    config = parse_config(path)
    if seed_override is not None:
        config.seed = seed_override
        config.validate()
    return config


def _cmd_run(args) -> int:
    config = _load(args.config, args.seed)
    out = args.out if args.out is not None else config.output_dir
    check_output_dir(out, args.force)
    result = run_experiment(config)
    emit_report(result, out, force=args.force)
    print(
        f"A={result.avg_last_accuracy:.4f} F={result.avg_last_forgetting:.4f} "
        f"rounds={len(result.round_log)} seed={result.config['seed']} out={out}"
    )
    return 0


def _cmd_grid(args) -> int:
    config_dir = Path(args.config_dir)
    files = sorted(p for p in config_dir.iterdir() if p.suffix in (".ini", ".cfg"))
    if not files:
        raise ConfigError(f"no .ini or .cfg config files in {config_dir}")
    parent = Path(args.out) if args.out is not None else Path("out")
    # every target is checked before the first run, without parsing the configs
    first_of_stem = {}
    for path in files:
        other = first_of_stem.setdefault(path.stem, path)
        if other != path:
            raise ConfigError(f"config files {other} and {path} would both write to {parent / path.stem}")
        check_output_dir(parent / path.stem, args.force)
    for path in files:
        config = _load(path, args.seed)
        result = run_experiment(config)
        emit_report(result, parent / path.stem, force=args.force)
        print(f"{path.stem}: A={result.avg_last_accuracy:.4f} F={result.avg_last_forgetting:.4f}")
    return 0


def _cmd_dump_memory(args) -> int:
    config = _load(args.config, args.seed)
    out = check_output_dir(args.out if args.out is not None else config.output_dir, args.force)
    buffers = run_experiment(config).buffers
    out.mkdir(parents=True, exist_ok=True)
    for k, buffer in enumerate(buffers):
        dump_csv(buffer, out / f"memory_{k}.csv")
    print(f"dumped {len(buffers)} memory snapshots to {out} (total stored: {sum(map(len, buffers))})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "grid":
            return _cmd_grid(args)
        return _cmd_dump_memory(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
