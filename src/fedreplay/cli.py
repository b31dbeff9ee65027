"""Command-line entry point: ``fedreplay {run,grid,dump-memory} PATH [--seed N] [--out DIR] [--force]``.

``run`` and ``dump-memory`` take one config file; ``grid`` takes a directory and
runs each ``.ini`` file in it as ``run`` would, into ``OUT/<stem>``. All
three go through one loop: parse, check the output directory, run, write, print.
Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, _parse_int, parse_config
from .memory import dump_csv
from .runner import check_output_dir, emit_report, remove_stale, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedreplay",
        description="Simulate online federated class-incremental learning with replay memory.",
    )
    commands = "run: one config; grid: each config in a directory; dump-memory: run one config, dump its memory buffers"
    parser.add_argument("command", choices=("run", "grid", "dump-memory"), help=commands)
    parser.add_argument("path", help="experiment config file (grid: directory of .ini config files)")
    parser.add_argument("--seed", default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory (grid: one subdir per config)")
    parser.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    return parser


def _runs(args) -> list[tuple]:
    """``(stem, config path, output dir)`` per run; an output dir of None means the config's ``output_dir``.

    ``grid`` checks every target before its first parse.
    """
    if args.command != "grid":
        return [(None, args.path, args.out)]
    config_dir = Path(args.path)
    try:
        files = sorted(p for p in config_dir.iterdir() if p.suffix == ".ini" and p.is_file())
    except OSError as exc:
        raise ConfigError(f"cannot read config directory: {exc}") from None
    if not files:
        raise ConfigError(f"no .ini config files in {config_dir}")
    parent = Path("out" if args.out is None else args.out)
    for path in files:
        check_output_dir(parent / path.stem, args.force)
    return [(path.stem, path, parent / path.stem) for path in files]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("invalid value for output_dir: must not be empty")
        seed = None if args.seed is None else _parse_int(args.seed, "seed")
        for stem, path, out in _runs(args):
            config = parse_config(path, seed=seed)
            out = config.output_dir if out is None else out
            target = check_output_dir(out, args.force)
            result = run_experiment(config)
            if args.command == "dump-memory":
                target.mkdir(parents=True, exist_ok=True)
                for k, buffer in enumerate(result.buffers):
                    dump_csv(buffer, target / f"memory_{k}.csv")
                remove_stale(target, "memory", len(result.buffers))
                total = sum(map(len, result.buffers))
                print(f"dumped {len(result.buffers)} memory snapshots to {target} (total stored: {total})")
                continue
            emit_report(result, out, force=args.force)
            scores = f"A={result.avg_last_accuracy:.4f} F={result.avg_last_forgetting:.4f}"
            if args.command == "grid":
                print(f"{stem}: {scores}")
            else:
                print(f"{scores} rounds={len(result.round_log)} seed={result.config['seed']} out={out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
