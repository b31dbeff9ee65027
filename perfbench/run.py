"""fedreplay benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload admission --seed 0 --seconds 55 --trace 0

The workload's configs are generated from ``--seed`` into a scratch
directory of the checkout. Operations run one after another, each in a
fresh process (``op.py``), for about ``--seconds``: a closed loop with one
caller. ``--trace 0`` reports the end-to-end metrics as medians over the run's
operations; ``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics. Each operation's outputs are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details: the
environment, every operation, the exact counts and any absent metric.
README.md beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Whole run, operations included, stays under this many seconds.
HARD_LIMIT_S = 170.0
# Set-up probes each untraced operation makes after its timed call.
SETUP_PROBES = 5
# Fewest operations per run, so every step's median has three repeats.
MIN_OPS = 3
MIN_TRACED_OPS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def _git_commit(root: Path) -> str:
    """HEAD's commit read from the checkout's .git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int, child_env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: child_env.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def _run_op(spec: dict, op_dir: Path, env: dict, deadline: float) -> dict:
    op_dir.mkdir(parents=True)
    spec = dict(spec, out_dir=str(op_dir / "out"))
    spec_path = op_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), str(spec_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return {"errors": ["operation timed out"], "trace": spec["trace"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"operation exited {proc.returncode}: {' | '.join(tail)}"], "trace": spec["trace"]}
    if proc.returncode != 0:
        result["errors"].append(f"operation process exited {proc.returncode}")
    result["trace"] = spec["trace"]
    shutil.rmtree(op_dir)
    return result


def _same(values) -> bool:
    return all(v == values[0] for v in values[1:])


def _end_to_end(ops: list[dict]) -> dict:
    """End-to-end metrics as medians over a run's operations.

    Every operation of a run draws the same batch sequence and does the
    same work between two draws, so the k-th gap is one piece of work
    timed once per operation. A step's time is the median of its repeats,
    which a burst of host load on a minority of them does not move.
    """
    good = [op for op in ops if not op["errors"]]
    if not good:
        return {}
    steps = [statistics.median(repeats) for repeats in zip(*(op["gaps_ms"] for op in good))]
    wall = statistics.median(op["wall_s"] for op in good)
    return {
        "wall_s": wall,
        "samples_per_s": good[0]["samples"] / wall,
        "setup_s": statistics.median(s for op in good for s in op["probe_setup_s"]),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p95": statistics.quantiles(steps, n=20)[-1],
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good),
    }


def _per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    good_plain = [op for op in plain if not op["errors"]]
    good = [op for op in traced if not op["errors"]]
    if not good or not good_plain:
        return {}, []
    skipped = workloads.NOT_EXERCISED[workload]
    values, absent = {}, []
    for name, (_, group) in layers.PER_LAYER.items():
        if name == "trace.overhead_share":
            continue
        measured = [op["layers"][name] for op in good if op["layers"][name] is not None]
        if len(measured) == len(good):
            values[name] = statistics.median(measured)
        elif not measured and group in skipped:
            values[name] = 0
        else:
            absent.append(name)
    if "trace.wall_s" in values:
        untraced = statistics.median(op["wall_s"] for op in good_plain)
        values["trace.overhead_share"] = values["trace.wall_s"] / untraced - 1.0
    else:
        absent.append("trace.overhead_share")
    return values, absent


def _print_human(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fedreplay" / "cli.py").is_file():
        print(f"error: no fedreplay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        entry = workloads.WORKLOADS[args.workload][0]
        config_dir = work / "configs"
        paths = workloads.write_configs(args.workload, args.seed, config_dir)
        spec = {
            "root": str(ROOT),
            "workload": args.workload,
            "entry": entry,
            "seed": args.seed,
            "config_dir": str(config_dir),
            "configs": [str(p) for p in paths],
            "probes": SETUP_PROBES,
        }
        ops = []
        last = 0.0
        while True:
            # Start another operation only if at least half of it fits in
            # the run, so runs end near --seconds on average.
            elapsed = time.perf_counter() - start
            plain = [op for op in ops if not op["trace"]]
            traced = [op for op in ops if op["trace"]]
            enough = len(plain) >= MIN_OPS and (not args.trace or len(traced) >= MIN_TRACED_OPS)
            if (enough and elapsed + last / 2 >= args.seconds) or any(op["errors"] for op in ops):
                break
            trace = bool(args.trace) and len(traced) < len(plain)
            began = time.perf_counter()
            ops.append(_run_op(dict(spec, trace=trace), work / f"op{len(ops)}", env, deadline))
            last = time.perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    plain = [op for op in ops if not op["trace"]]
    traced = [op for op in ops if op["trace"]]
    errors = sorted({e for op in ops for e in op["errors"]})
    shas = [op["outputs"] for op in ops if not op["errors"]]
    if not _same([{stem: o["summary_sha256"] for stem, o in out.items()} for out in shas]):
        errors.append("summary.json differs between operations at one seed")
    exact = [{n: op["layers"][n] for n in layers.EXACT_COUNTS} for op in traced if not op["errors"]]
    if not _same(exact):
        errors.append("exact counts differ between traced operations at one seed")
    if not _same([len(op["gaps_ms"]) for op in plain if not op["errors"]]):
        errors.append("operations drew different numbers of batches at one seed")

    if args.trace:
        values, absent = _per_layer(args.workload, plain, traced)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        values, absent = _end_to_end(plain), []
        units = END_TO_END_UNITS
    failed = sum(1 for op in ops if op["errors"])
    correct = not errors and bool(values)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed, env),
        "operations": len(ops),
        "wall_s_samples": len([op for op in plain if not op["errors"]]),
        "setup_s_samples": sum(len(op.get("probe_setup_s", [])) for op in plain if not op["errors"]),
        "absent": absent,
        "exact_counts": exact[0] if exact else {},
        "outputs": shas[0] if shas else {},
        "errors": errors,
        "ops": ops,
    }
    _print_human(values, units)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
