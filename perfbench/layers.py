"""Which public functions are traced, and the per-layer metrics they give.

Each function is wrapped where its caller looks it up: the runner imports
its collaborators by name, so ``fedreplay.runner.loss_and_grad`` is the
attribute that the training loop actually calls. Layers are named after
the program's modules.
"""

from __future__ import annotations

import statistics
import weakref

# Span name that scoring gets when the call is made inside memory.update,
# which is the runner's rescoring of stored samples.
_RESCORE = {"memory.update": "uncertainty.rescore"}


def _rows(args, kwargs, result):
    return {"rows": len(args[2].labels)}


def _forward_rows(args, kwargs, result):
    return {"rows": 1 if result.ndim == 1 else result.shape[0]}


def _returned_rows(args, kwargs, result):
    return {"rows": len(result)}


def _fedavg_bytes(args, kwargs, result):
    return {"bytes": len(args[0]) * args[0][0].values.nbytes}


def _class_weighted_bytes(args, kwargs, result):
    return {"bytes": len(args[0].params) * args[0].params[0].values.nbytes}


def _eval_rows(args, kwargs, result):
    return {"rows": sum(len(labels) for _, labels in args[2])}


class _Admission:
    """Offered and admitted rows of each ``update_memory`` call.

    The buffer numbers offered samples consecutively in their ``arrival``
    field, so the rows of one call that are still stored afterwards are
    those numbered from the buffer's offer count before the call.
    """

    def __init__(self):
        self.offered = weakref.WeakKeyDictionary()

    def __call__(self, args, kwargs, result):
        buffer, batch = args[0], args[1]
        before = self.offered.get(buffer, 0)
        n = len(batch.labels)
        self.offered[buffer] = before + n
        admitted = sum(1 for s in buffer.samples() if s.arrival >= before)
        return {"rows": n, "admitted": admitted}


def replacements(tracer, fr):
    """``(owner, attr, make)`` triples for ``spans.patched``.

    ``fr`` maps short module names to the imported fedreplay modules.
    """
    batch_type = fr["stream"].MiniBatch

    def batch_rows(args, kwargs, result):
        drawn = isinstance(result, batch_type)
        return {"rows": len(result) if drawn else 0, "batches": int(drawn)}

    table = [
        (fr["cli"], "parse_config", "config.parse", None, None),
        (fr["cli"], "run_experiment", "runner.run", None, None),
        (fr["cli"], "emit_report", "runner.emit", None, None),
        (fr["runner"], "synth_gaussian_blobs", "stream.synth", _returned_rows, None),
        (fr["runner"], "partition_to_clients", "stream.partition", None, None),
        (fr["runner"], "ClientStream", "stream.build", None, None),
        (fr["stream"].ClientStream, "next_batch", "stream.next_batch", batch_rows, None),
        (fr["runner"], "init_parameters", "model.init", None, None),
        (fr["runner"], "loss_and_grad", "model.loss_and_grad", _rows, None),
        (fr["runner"], "optimizer_step", "model.optimizer_step", None, None),
        (fr["runner"], "score_sample", "uncertainty.score_new", None, _RESCORE),
        (fr["uncertainty"], "perturb_features", "uncertainty.perturb", None, None),
        (fr["uncertainty"], "forward_logits", "model.forward", _forward_rows, None),
        (fr["runner"], "update_memory", "memory.update", _Admission(), None),
        (fr["runner"], "sample_replay", "memory.replay", _returned_rows, None),
        (fr["runner"], "fedavg", "federation.aggregate", _fedavg_bytes, None),
        (fr["runner"], "class_weighted_avg", "federation.aggregate", _class_weighted_bytes, None),
        (fr["runner"], "temporal_smooth", "federation.smooth", None, None),
        (fr["runner"], "broadcast", "federation.broadcast", None, None),
        (fr["runner"], "evaluate_model", "metrics.evaluate", _eval_rows, None),
    ]
    return [
        (owner, attr, lambda fn, n=name, c=count, u=under: tracer.wrap(n, fn, count=c, under=u))
        for owner, attr, name, count, under in table
    ]


# Spans whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("model.loss_and_grad",)

# metric -> (unit, group). A workload that does not exercise a
# group reports that group's metrics as measured (zero calls give zero);
# a workload that does exercise it reports a metric whose spans did not
# fire as absent.
PER_LAYER = {
    "uncertainty.score_new_s": ("s", "scoring"),
    "uncertainty.rescore_s": ("s", "scoring"),
    "uncertainty.reduce_s": ("s", "scoring"),
    "uncertainty.perturb_s": ("s", "scoring"),
    "uncertainty.samples_scored": ("count", "scoring"),
    "uncertainty.samples_rescored": ("count", "scoring"),
    "model.forward_s": ("s", "scoring"),
    "model.forward_rows": ("count", "scoring"),
    "model.forward_flops": ("flop", "scoring"),
    "model.loss_and_grad_s": ("s", "train"),
    "model.loss_and_grad_calls": ("count", "train"),
    "model.loss_and_grad_rows": ("count", "train"),
    "model.loss_and_grad_ms_p50": ("ms", "train"),
    "model.loss_and_grad_ms_p95": ("ms", "train"),
    "model.optimizer_step_s": ("s", "train"),
    "model.init_s": ("s", "setup"),
    "memory.update_s": ("s", "memory"),
    "memory.offered": ("count", "memory"),
    "memory.admit_ratio": ("ratio", "memory"),
    "memory.rescore_per_offer": ("ratio", "scoring"),
    "memory.replay_s": ("s", "memory"),
    "memory.replay_rows": ("count", "memory"),
    "federation.rounds": ("count", "federation"),
    "federation.aggregate_s": ("s", "federation"),
    "federation.aggregate_bytes": ("B", "federation"),
    "federation.smooth_s": ("s", "federation"),
    "federation.broadcast_s": ("s", "federation"),
    "stream.synth_s": ("s", "setup"),
    "stream.partition_s": ("s", "setup"),
    "stream.build_s": ("s", "setup"),
    "stream.batches": ("count", "setup"),
    "config.parse_s": ("s", "setup"),
    "metrics.evaluate_s": ("s", "metrics"),
    "metrics.eval_rows": ("count", "metrics"),
    "runner.self_s": ("s", "runner"),
    "runner.emit_s": ("s", "runner"),
    "cli.grid_s": ("s", "grid"),
    "cli.runs": ("count", "runner"),
    "trace.wall_s": ("s", "runner"),
    "trace.overhead_share": ("ratio", "runner"),
}

# Counts that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "model.loss_and_grad_calls",
    "model.loss_and_grad_rows",
    "uncertainty.samples_scored",
    "uncertainty.samples_rescored",
    "model.forward_rows",
    "memory.offered",
    "memory.replay_rows",
    "federation.rounds",
    "stream.batches",
    "metrics.eval_rows",
    "cli.runs",
)


def flops_per_row(sections: dict) -> int:
    """Forward flops of one row: 2 per multiply-add plus one per bias add."""
    hidden = [int(h) for h in str(sections["model"]["hidden"]).split(",")]
    dims = [sections["data"]["dim"], *hidden, sections["data"]["classes"]]
    return sum(2 * a * b + b for a, b in zip(dims[:-1], dims[1:]))


def derive(summary: dict, root: str, flops: int) -> dict:
    """Per-layer values from one traced operation's span summary.

    ``root`` is the benchmark's span around the entry-point call,
    ``cli.run`` or ``cli.grid``. A value is None when none of the spans it
    is built from fired. The runner's self time is what the root and
    ``runner.run`` spans spend outside every layer span they enclose.
    """

    def field(name, key="total_s"):
        entry = summary.get(name)
        return None if entry is None else entry[key]

    def count(name, key="rows"):
        entry = summary.get(name)
        return None if entry is None else entry["counts"].get(key, 0)

    def add(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def ratio(num, den):
        return None if num is None or not den else num / den

    scored = field("uncertainty.score_new", "calls")
    rescored = field("uncertainty.rescore", "calls")
    offered = count("memory.update")
    forward_rows = count("model.forward")
    lag = summary.get("model.loss_and_grad")
    lag_ms = sorted(1000.0 * d for d in lag["durations"]) if lag else None
    wall = summary[root]["total_s"]
    return {
        "uncertainty.score_new_s": field("uncertainty.score_new"),
        "uncertainty.rescore_s": field("uncertainty.rescore"),
        "uncertainty.reduce_s": add(field("uncertainty.score_new", "self_s"), field("uncertainty.rescore", "self_s")),
        "uncertainty.perturb_s": field("uncertainty.perturb"),
        "uncertainty.samples_scored": scored,
        "uncertainty.samples_rescored": rescored,
        "model.forward_s": field("model.forward"),
        "model.forward_rows": forward_rows,
        "model.forward_flops": None if forward_rows is None else forward_rows * flops,
        "model.loss_and_grad_s": field("model.loss_and_grad"),
        "model.loss_and_grad_calls": field("model.loss_and_grad", "calls"),
        "model.loss_and_grad_rows": count("model.loss_and_grad"),
        "model.loss_and_grad_ms_p50": statistics.median(lag_ms) if lag_ms else None,
        "model.loss_and_grad_ms_p95": statistics.quantiles(lag_ms, n=20)[-1] if lag_ms and len(lag_ms) > 1 else None,
        "model.optimizer_step_s": field("model.optimizer_step"),
        "model.init_s": field("model.init"),
        "memory.update_s": field("memory.update", "self_s"),
        "memory.offered": offered,
        "memory.admit_ratio": ratio(count("memory.update", "admitted"), offered),
        "memory.rescore_per_offer": ratio(rescored, offered),
        "memory.replay_s": field("memory.replay"),
        "memory.replay_rows": count("memory.replay"),
        "federation.rounds": field("federation.smooth", "calls"),
        "federation.aggregate_s": field("federation.aggregate"),
        "federation.aggregate_bytes": count("federation.aggregate", "bytes"),
        "federation.smooth_s": field("federation.smooth"),
        "federation.broadcast_s": field("federation.broadcast"),
        "stream.synth_s": field("stream.synth"),
        "stream.partition_s": field("stream.partition"),
        "stream.build_s": field("stream.build"),
        "stream.batches": count("stream.next_batch", "batches"),
        "config.parse_s": field("config.parse"),
        "metrics.evaluate_s": field("metrics.evaluate"),
        "metrics.eval_rows": count("metrics.evaluate"),
        "runner.self_s": add(field(root, "self_s"), field("runner.run", "self_s")),
        "runner.emit_s": field("runner.emit"),
        "cli.grid_s": wall if root == "cli.grid" else None,
        "cli.runs": field("runner.run", "calls"),
        "trace.wall_s": wall,
    }
