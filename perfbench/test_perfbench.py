"""Tests of the benchmark's own machinery: spans, wrappers, counts, checks."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads

fr_cli = pytest.importorskip("fedreplay.cli")
import fedreplay.runner  # noqa: E402
import fedreplay.stream  # noqa: E402
import fedreplay.uncertainty  # noqa: E402

FR = {
    "cli": fr_cli,
    "runner": fedreplay.runner,
    "stream": fedreplay.stream,
    "uncertainty": fedreplay.uncertainty,
}

TINY = {
    "experiment": {"clients": 2, "tasks": 2, "batch_size": 5, "test_split": 0.2},
    "data": {"source": "synthetic", "classes": 4, "samples_per_class": 30, "dim": 4, "center_spread": 1.0},
    "memory": {"capacity": 16, "policy": "bottom_k", "metric": "bi"},
    "perturbation": {"count": 3, "kind": "gaussian", "sigma": 0.1},
    "federation": {"burn_in": 1, "q": 2, "aggregation": "fedavg"},
    "model": {"hidden": 8, "optimizer": "sgd", "learning_rate": 0.1},
}


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]))
    outer = tracer.open("outer")  # 0
    child = tracer.open("child")  # 1
    grandchild = tracer.open("grandchild")  # 2
    tracer.close(grandchild)  # 3
    tracer.close(child)  # 4
    second = tracer.open("child")  # 5
    tracer.close(second)  # 6
    tracer.close(outer)  # 10
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    summary = tracer.summary()
    assert summary["outer"]["total_s"] == 10.0
    assert summary["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0, "counts": {}}
    assert summary["grandchild"]["self_s"] == 1.0


def test_wrap_names_a_call_by_its_parent_and_sums_counts():
    tracer = spans.Tracer()
    score = tracer.wrap("score_new", lambda x: x, count=lambda a, k, r: {"rows": r}, under={"update": "rescore"})
    update = tracer.wrap("update", lambda: score(2) + score(3))
    score(1)
    update()
    summary = tracer.summary()
    assert summary["score_new"]["calls"] == 1
    assert summary["rescore"]["calls"] == 2
    assert summary["rescore"]["counts"] == {"rows": 5}
    assert tracer.parents == [-1, -1, 1, 1]


def test_patched_restores_every_original_even_on_error():
    module = types.ModuleType("fake")
    module.f = lambda: "original"
    original = module.f
    with pytest.raises(ValueError):
        with spans.patched([(module, "f", lambda fn: lambda: "wrapped"), (module, "gone", lambda fn: fn)]) as missing:
            assert module.f() == "wrapped"
            assert missing == ["fake.gone"]
            raise ValueError
    assert module.f is original
    assert not hasattr(module, "gone")


def test_layer_wrappers_are_all_installed_and_restored():
    before = {}
    pairs = layers.replacements(spans.Tracer(), FR)
    for owner, attr, _ in pairs:
        before[(owner, attr)] = vars(owner)[attr]
    with spans.patched(pairs) as missing:
        assert missing == []
        assert all(vars(owner)[attr] is not before[(owner, attr)] for owner, attr, _ in pairs)
    assert all(vars(owner)[attr] is before[(owner, attr)] for owner, attr, _ in pairs)


def _traced_tiny(tmp_path, name):
    config = tmp_path / f"{name}.ini"
    config.write_text(workloads.render(TINY, seed=5))
    tracer = spans.Tracer()
    with spans.patched(layers.replacements(tracer, FR)):
        idx = tracer.open("cli.run")
        code = fr_cli.main(["run", str(config), "--out", str(tmp_path / name)])
        tracer.close(idx)
    assert code == 0
    return layers.derive(tracer.summary(layers.KEEP_DURATIONS), "cli.run", layers.flops_per_row(TINY))


def test_exact_counts_repeat_and_match_the_schedule(tmp_path):
    first = _traced_tiny(tmp_path, "a")
    second = _traced_tiny(tmp_path, "b")
    assert set(first) | {"trace.overhead_share"} == set(layers.PER_LAYER)
    assert {n: first[n] for n in layers.EXACT_COUNTS} == {n: second[n] for n in layers.EXACT_COUNTS}
    assert first["federation.rounds"] == workloads.expected_rounds(TINY) > 0
    assert first["memory.offered"] == first["uncertainty.samples_scored"] == workloads.samples_consumed(TINY)
    assert first["uncertainty.samples_rescored"] > 0
    assert first["model.forward_rows"] == 3 * (first["uncertainty.samples_scored"] + first["uncertainty.samples_rescored"])
    assert first["stream.batches"] == first["model.loss_and_grad_calls"]
    rounds = (tmp_path / "a" / "rounds.log").read_text().splitlines()
    assert len(rounds) == first["federation.rounds"]


def test_metrics_that_do_not_fire_are_absent_unless_the_workload_skips_them():
    layer_values = {name: 1.0 for name in layers.PER_LAYER}
    layer_values["uncertainty.rescore_s"] = None
    layer_values["cli.grid_s"] = None
    plain = [{"errors": [], "wall_s": 1.0}]
    traced = [{"errors": [], "layers": layer_values}]
    values, absent = run._per_layer("admission", plain, traced)
    assert absent == ["uncertainty.rescore_s"]
    assert values["cli.grid_s"] == 0
    assert values["trace.overhead_share"] == 0.0


def test_end_to_end_takes_each_step_as_the_median_of_its_repeats():
    def op(wall, gaps):
        return {"errors": [], "wall_s": wall, "samples": 40, "probe_setup_s": [0.1, 0.3], "gaps_ms": gaps, "peak_rss_mb": 9.0}

    ops = [op(1.0, [10.0] * 20), op(4.0, [90.0] * 20), op(2.0, [20.0] * 19 + [30.0])]
    values = run._end_to_end(ops + [{"errors": ["failed"]}])
    assert values["wall_s"] == 2.0
    assert values["samples_per_s"] == 20.0
    assert values["setup_s"] == 0.2
    assert values["step_ms_p50"] == 20.0
    assert values["step_ms_p95"] == 29.5
    assert values["peak_rss_mb"] == 9.0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "admission", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_code_reports():
    bench = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: u for n, (u, _) in layers.PER_LAYER.items()}
