"""One benchmark operation, run in a fresh process.

Usage: python3 perfbench/op.py SPEC.json

The spec names the checkout root, the workload, its generated config
files, an empty output directory and whether to trace. The operation is
one call of ``fedreplay.cli.main`` (``run`` or ``grid``), timed from the
call until the outputs are written. Untraced, the only hook is a
timestamp per mini-batch drawn from ``ClientStream.next_batch``; after the
timed call a few set-up probes repeat the call and stop it at the first
draw. Traced, every layer in ``layers.replacements`` is wrapped. The
result, with the output checks, is printed as one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import layers
import spans
import workloads


class _FirstDraw(BaseException):
    """Stops a set-up probe at its first mini-batch draw.

    A BaseException, so the entry point's error handler does not turn it
    into an exit code.
    """


class StepClock:
    """Timestamp of every mini-batch draw, and the rows drawn."""

    def __init__(self, batch_type, stop_at_first=False):
        self.batch_type = batch_type
        self.stop_at_first = stop_at_first
        self.stamps: list[float] = []
        self.rows = 0

    def make(self, original):
        def next_batch(stream):
            stamp = time.perf_counter()
            item = original(stream)
            if isinstance(item, self.batch_type):
                self.stamps.append(stamp)
                self.rows += len(item)
                if self.stop_at_first:
                    raise _FirstDraw
            return item

        return next_batch


def _import_program(root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    import fedreplay.cli
    import fedreplay.runner
    import fedreplay.stream
    import fedreplay.uncertainty

    if Path(fedreplay.__file__).resolve().parent != (src / "fedreplay").resolve():
        raise RuntimeError(f"imported fedreplay from {fedreplay.__file__}, not from {src}")
    return {
        "cli": fedreplay.cli,
        "runner": fedreplay.runner,
        "stream": fedreplay.stream,
        "uncertainty": fedreplay.uncertainty,
    }


def _argv(spec: dict, out_dir: Path) -> list[str]:
    if spec["entry"] == "grid":
        return ["grid", spec["config_dir"], "--out", str(out_dir), "--force"]
    return ["run", spec["configs"][0], "--out", str(out_dir), "--force"]


def _call(fr: dict, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return fr["cli"].main(argv)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def check_outputs(spec: dict, out_dir: Path, exit_code: int) -> tuple[list[str], dict]:
    """Errors found in one operation's outputs, and what was read from them."""
    errors = []
    outputs = {}
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    for stem, sections in workloads.WORKLOADS[spec["workload"]][1].items():
        out = out_dir / stem if spec["entry"] == "grid" else out_dir
        clients = sections["experiment"]["clients"]
        names = ["summary.json", "per_client.csv", "rounds.log", *(f"acc_matrix_{k}.csv" for k in range(clients))]
        lost = [name for name in names if not (out / name).is_file()]
        if lost:
            errors.append(f"{stem}: missing {', '.join(lost)}")
            continue
        raw = (out / "summary.json").read_bytes()
        summary = json.loads(raw)
        a, f = summary["avg_last_accuracy"], summary["avg_last_forgetting"]
        rounds = len((out / "rounds.log").read_text().splitlines())
        expected = workloads.expected_rounds(sections)
        outputs[stem] = {"A": a, "F": f, "rounds": rounds, "summary_sha256": hashlib.sha256(raw).hexdigest()}
        if not 0.0 <= a <= 1.0:
            errors.append(f"{stem}: A={a} outside [0, 1]")
        if not math.isfinite(f):
            errors.append(f"{stem}: F={f} not finite")
        if rounds != expected or expected == 0:
            errors.append(f"{stem}: rounds.log has {rounds} rounds, schedule predicts {expected}")
        if summary["seed"] != spec["seed"]:
            errors.append(f"{stem}: summary seed {summary['seed']} != workload seed {spec['seed']}")
        if spec["seed"] == workloads.REFERENCE_SEED:
            ref_a, ref_f = workloads.REFERENCE[stem]
            tol = workloads.REFERENCE_TOLERANCE
            if abs(a - ref_a) > tol or abs(f - ref_f) > tol:
                errors.append(f"{stem}: A={a} F={f} not within {tol} of reference A={ref_a} F={ref_f}")
    return errors, outputs


def _untraced(spec: dict, fr: dict) -> dict:
    clock = StepClock(fr["stream"].MiniBatch)
    out_dir = Path(spec["out_dir"])
    argv = _argv(spec, out_dir)
    with spans.patched([(fr["stream"].ClientStream, "next_batch", clock.make)]) as missing:
        start = time.perf_counter()
        code = _call(fr, argv)
        wall = time.perf_counter() - start
    peak = _peak_rss_mb()
    errors, outputs = check_outputs(spec, out_dir, code)
    expected_rows = sum(workloads.samples_consumed(s) for s in workloads.WORKLOADS[spec["workload"]][1].values())
    if clock.rows != expected_rows:
        errors.append(f"drew {clock.rows} samples, the streams hold {expected_rows}")
    gaps = [1000.0 * (b - a) for a, b in zip(clock.stamps, clock.stamps[1:])]
    probes = []
    for i in range(spec["probes"]):
        probe = StepClock(fr["stream"].MiniBatch, stop_at_first=True)
        with spans.patched([(fr["stream"].ClientStream, "next_batch", probe.make)]):
            start = time.perf_counter()
            try:
                _call(fr, _argv(spec, out_dir.parent / f"probe{i}"))
            except _FirstDraw:
                pass
        if not probe.stamps:
            errors.append("set-up probe drew no mini-batch")
            break
        probes.append(probe.stamps[0] - start)
    return {
        "errors": errors + [f"hook target missing: {m}" for m in missing],
        "outputs": outputs,
        "wall_s": wall,
        "samples": clock.rows,
        "probe_setup_s": probes,
        "gaps_ms": gaps,
        "peak_rss_mb": peak,
    }


def _traced(spec: dict, fr: dict) -> dict:
    tracer = spans.Tracer()
    out_dir = Path(spec["out_dir"])
    root_name = f"cli.{spec['entry']}"
    with spans.patched(layers.replacements(tracer, fr)) as missing:
        idx = tracer.open(root_name)
        try:
            code = _call(fr, _argv(spec, out_dir))
        finally:
            tracer.close(idx)
    errors, outputs = check_outputs(spec, out_dir, code)
    sections = next(iter(workloads.WORKLOADS[spec["workload"]][1].values()))
    return {
        "errors": errors,
        "outputs": outputs,
        "missing": missing,
        "root": root_name,
        "layers": layers.derive(tracer.summary(layers.KEEP_DURATIONS), root_name, layers.flops_per_row(sections)),
    }


def main(argv) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    root = Path(spec["root"])
    fr = _import_program(root)
    result = _traced(spec, fr) if spec["trace"] else _untraced(spec, fr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
