"""End-to-end runner behavior: determinism, degenerate configs, reports, CLI."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_stream import write_bin, write_csv

import fedreplay
from fedreplay.cli import main as cli_main
from fedreplay.config import ExperimentConfig
from fedreplay.federation import fedavg, temporal_smooth
from fedreplay.model import ModelConfig, OptimizerState, ParameterVector, init_parameters, optimizer_step
from fedreplay.runner import _ClientWorker, broadcast, emit_report, run_experiment


def _small_config(**overrides):
    """The golden regime at seed 3: rounds fire, and memory policies change the outcome."""
    base = dict(
        clients=2,
        tasks=3,
        batch_size=3,
        test_split=0.2,
        seed=3,
        classes=6,
        samples_per_class=30,
        dim=4,
        center_spread=2.0,
        cluster_sigma=1.0,
        memory_capacity=16,
        memory_policy="bottom_k",
        uncertainty_metric="bi",
        perturbation_count=3,
        burn_in=1,
        q=2,
        hidden_dims=(8,),
        learning_rate=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _config_text(seed=3):
    return f"""
[experiment]
clients = 2
tasks = 2
batch_size = 5
seed = {seed}

[data]
classes = 4
samples_per_class = 30
dim = 4

[memory]
capacity = 16
policy = bottom_k
metric = bi

[perturbation]
count = 3

[federation]
burn_in = 1
q = 2

[model]
hidden = 8
"""


class TestRunExperiment:
    def test_deterministic_rerun(self):
        a = run_experiment(_small_config())
        b = run_experiment(_small_config())
        assert a.avg_last_accuracy == b.avg_last_accuracy
        assert a.avg_last_forgetting == b.avg_last_forgetting
        assert a.round_log == b.round_log
        assert a.accuracy.shape == (2, 3, 3)
        assert np.array_equal(a.accuracy, b.accuracy, equal_nan=True)

    def test_zero_memory_degenerates_to_memoryless(self, monkeypatch):
        # with no memory, the admission policy cannot matter, and nothing is offered to the buffer
        offers = []
        monkeypatch.setattr(fedreplay.runner, "update_memory", lambda *args, **kwargs: offers.append(args))
        results = [
            run_experiment(_small_config(memory_capacity=0, memory_policy=policy))
            for policy in ("random", "bottom_k", "class_balanced_random")
        ]
        assert offers == []
        for r in results[1:]:
            assert r.avg_last_accuracy == results[0].avg_last_accuracy
            assert r.avg_last_forgetting == results[0].avg_last_forgetting
            assert r.round_log == results[0].round_log

    def test_single_pass_audit_raises_on_unfinished_stream(self, monkeypatch):
        from fedreplay.stream import ClientStream

        finished = ClientStream.exhausted
        monkeypatch.setattr(ClientStream, "exhausted", lambda s: s.client_id != 0 and finished(s))
        with pytest.raises(RuntimeError, match="single-pass audit failed for client 0"):
            run_experiment(_small_config())

    def test_rounds_fire_per_schedule(self):
        # 6 classes, 30/class, 3 tasks, 20% test: 48 train per task, 24 per
        # client, 8 batches per task per client. burn_in=1, q=2 -> bn in {2, 4, 6, 8}.
        result = run_experiment(_small_config())
        assert len(result.round_log) == 12
        assert result.round_log[0].startswith("round=1 task=1 bn=2 ")
        assert result.round_log[-1].startswith("round=12 task=3 bn=8 ")
        assert "checksum=" in result.round_log[0]

    def test_every_class_weighted_round_has_a_reporting_client(self, monkeypatch):
        # 5 clients deal 48 rows as 10, 10, 10, 9, 9: at bn=4 two clients are exhausted and report nothing
        reports = []
        aggregate = fedreplay.runner.class_weighted_avg
        monkeypatch.setattr(fedreplay.runner, "class_weighted_avg", lambda r: reports.append(r) or aggregate(r))
        result = run_experiment(_small_config(clients=5, q=1, aggregation="class_weighted"))
        assert len(reports) == len(result.round_log) > 0
        assert any(set() in r.class_reports for r in reports)
        assert all(any(r.class_reports) for r in reports)

    def test_burn_in_suppresses_rounds(self):
        result = run_experiment(_small_config(burn_in=100))
        assert result.round_log == []

    def test_metrics_consistent_with_matrices(self):
        from fedreplay.metrics import client_mean, last_accuracy, last_forgetting

        result = run_experiment(_small_config())
        per_client = [last_accuracy(a) for a in result.accuracy]
        assert result.avg_last_accuracy == client_mean(per_client)
        assert result.avg_last_forgetting == client_mean([last_forgetting(a) for a in result.accuracy])
        assert len(per_client) == 2
        assert result.avg_last_accuracy == pytest.approx(sum(per_client) / 2, abs=1e-15)
        # every entry on and below the diagonal is measured, none above it
        measured = np.tri(3, dtype=bool)
        assert not np.isnan(result.accuracy[:, measured]).any()
        assert np.isnan(result.accuracy[:, ~measured]).all()

    @pytest.mark.parametrize(
        "key, values",
        [
            ("memory_policy", ("bottom_k", "top_k", "random", "class_balanced_random")),
            ("aggregation", ("fedavg", "class_weighted")),
        ],
    )
    def test_variants_change_the_outcome(self, key, values):
        # at seed 3 the two aggregations give different round logs but the same A and F; at seed 2 both differ
        seed = {"memory_policy": 3, "aggregation": 2}[key]
        results = [run_experiment(_small_config(seed=seed, **{key: value})) for value in values]
        assert all(0.0 <= r.avg_last_accuracy <= 1.0 for r in results)
        assert len({(r.avg_last_accuracy, r.avg_last_forgetting) for r in results}) > 1
        assert len({tuple(r.round_log) for r in results}) == len(values)

    def test_adam_and_mask_paths_run(self):
        result = run_experiment(
            _small_config(
                optimizer="adam",
                learning_rate=0.01,
                perturbation_kind="mask",
                mask_fraction=0.25,
                reset_optimizer_on_sync=True,
            )
        )
        assert 0.0 <= result.avg_last_accuracy <= 1.0

    def test_file_dataset_source(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 20)
        path = tmp_path / "data.csv"
        write_csv(path, rng.normal(size=(80, 3)) + 5 * labels[:, None], labels)
        config = _small_config(data_source="file", data_path=str(path), data_format="csv")
        result = run_experiment(config)
        assert 0.0 <= result.avg_last_accuracy <= 1.0

    def test_file_dataset_noncontiguous_labels_remapped(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = np.repeat([10, 25, 40, 55], 20)
        path = tmp_path / "data.bin"
        write_bin(path, rng.normal(size=(80, 3)) + labels[:, None], labels)
        config = _small_config(data_source="file", data_path=str(path), data_format="bin")
        result = run_experiment(config)
        assert 0.0 <= result.avg_last_accuracy <= 1.0

    def test_imbalanced_size_descending_regime(self):
        config = _small_config(
            class_sizes=(60, 40, 30, 20, 10, 10),
            task_assignment="size_descending",
            test_split=0.25,
        )
        result = run_experiment(config)
        # larger classes stream first under the size-ordered assignment
        assert 0.0 <= result.avg_last_accuracy <= 1.0

    def test_broadcast_keeps_optimizer_state_by_default(self, monkeypatch):
        states = []

        def recording(theta_g, workers):
            broadcast(theta_g, workers)
            states.append([(w.opt.step, bool(np.any(w.opt.m != 0.0))) for w in workers])

        monkeypatch.setattr("fedreplay.runner.broadcast", recording)
        run_experiment(_small_config(optimizer="adam", learning_rate=0.01))
        # every round's broadcast left each client's step count and moments in place
        assert len(states) == 12
        for round_no, state in enumerate(states, start=1):
            assert state == [(2 * round_no, True)] * 2  # a round every second tick


class TestBroadcast:
    @staticmethod
    def _workers(reset=False, n=3):
        """``(theta, workers)``: n Adam workers that took one step away from ``theta`` and saw classes."""
        model_config = ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2, init_seed=0)
        theta = init_parameters(model_config)
        config = _small_config(optimizer="adam", learning_rate=0.01, reset_optimizer_on_sync=reset)
        workers = []
        for k in range(n):
            opt = OptimizerState.adam(0.01, len(theta))
            w = _ClientWorker(config, model_config, theta, opt, None, None, None, None, observed={k, 5})
            w.params = optimizer_step(w.params, np.ones(len(theta)), w.opt)
            workers.append(w)
        return theta, workers

    def test_overwrites_all_clients(self):
        theta, workers = self._workers()
        broadcast(theta, workers)
        for w in workers:
            assert w.params.layout == theta.layout and np.array_equal(w.params.values, theta.values)
            assert not np.shares_memory(w.params.values, theta.values)  # each client owns a copy
            assert w.observed == set()
        assert not np.shares_memory(workers[0].params.values, workers[1].params.values)

    def test_broadcasting_own_params_is_identity(self):
        _, workers = self._workers(n=1)
        before = workers[0].params
        broadcast(before, workers)
        after = workers[0].params
        assert after is not before and after.layout == before.layout and np.array_equal(after.values, before.values)

    def test_optimizer_reset_only_under_flag(self):
        theta, kept = self._workers(reset=False)
        broadcast(theta, kept)
        assert all(w.opt.step == 1 and np.any(w.opt.m != 0.0) for w in kept)

        theta, cleared = self._workers(reset=True)
        broadcast(theta, cleared)
        assert all(w.opt.step == 0 and np.all(w.opt.m == 0.0) and np.all(w.opt.v == 0.0) for w in cleared)


class TestEmitReport:
    def test_outputs_and_recomputation_oracle(self, tmp_path):
        config = _small_config()
        result = run_experiment(config)
        out = tmp_path / "run"
        emit_report(result, out)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == config.seed
        assert summary["config"]["federation"]["q"] == config.q

        per_client = (out / "per_client.csv").read_text().strip().splitlines()
        assert per_client[0] == "client,last_accuracy,last_forgetting"
        assert len(per_client) == 1 + config.clients

        # recompute A from the emitted matrices alone
        per_client_means = []
        for k in range(config.clients):
            rows = (out / f"acc_matrix_{k}.csv").read_text().strip().splitlines()[1:]
            final = [
                float(acc)
                for t, i, acc in (line.split(",") for line in rows)
                if int(t) == config.tasks
            ]
            assert len(final) == config.tasks
            per_client_means.append(math.fsum(final) / config.tasks)
        recomputed = math.fsum(per_client_means) / config.clients
        assert abs(recomputed - summary["avg_last_accuracy"]) < 1e-12

        log_lines = (out / "rounds.log").read_text().strip().splitlines()
        assert len([l for l in log_lines if l]) == len(result.round_log)

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        result = run_experiment(_small_config())
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("existing")
        with pytest.raises(FileExistsError):
            emit_report(result, out)
        emit_report(result, out, force=True)
        assert (out / "summary.json").exists()

    def test_summary_bytes_identical_across_reruns(self, tmp_path):
        emit_report(run_experiment(_small_config()), tmp_path / "a")
        emit_report(run_experiment(_small_config()), tmp_path / "b")
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        result = run_experiment(_small_config())
        out = tmp_path / "run"
        emit_report(result, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("fedreplay.runner.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            emit_report(result, out, force=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text())
        code = cli_main(["run", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/summary.json").exists()
        assert "A=" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.ini"
        config_path.write_text("[experiment]\nclients = 0\n")
        assert cli_main(["run", str(config_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text())
        out = tmp_path / "out"
        out.mkdir()
        (out / "block.txt").write_text("x")
        assert cli_main(["run", str(config_path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_client_partition_exit_code(self, tmp_path, capsys):
        # 2 classes x 3 samples per task, 1 held out: 5 training examples for 7 clients.
        text = _config_text().replace("clients = 2", "clients = 7").replace("samples_per_class = 30", "samples_per_class = 3")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: invalid value for clients: task 1 has only 5 training examples\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_dataset_feature_exit_code(self, tmp_path, capsys, fmt):
        features = np.random.default_rng(0).normal(size=(40, 4))
        features[7, 2] = np.nan
        labels = np.repeat(np.arange(4), 10)
        data = tmp_path / f"data.{fmt}"
        (write_csv if fmt == "csv" else write_bin)(data, features, labels)
        text = _config_text().replace("[data]", f"[data]\nsource = file\npath = {data}\nformat = {fmt}")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {data}: row 8 has a non-finite feature\n"
        assert not (tmp_path / "out").exists()

    def test_csv_label_beyond_int64_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,1.0\n1,2.0\n0,3.0\n100000000000000000000000,4.0\n")
        text = _config_text().replace("[data]", f"[data]\nsource = file\npath = {data}\nformat = csv")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: malformed row 4: label 100000000000000000000000 is outside the int64 range\n"
        )
        assert not (tmp_path / "out").exists()

    def test_csv_number_with_separator_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,1.0\n1_0,4_0.5\n0,3.0\n")
        text = _config_text().replace("[data]", f"[data]\nsource = file\npath = {data}\nformat = csv")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {data}: malformed row 2: '1_0' is not an ASCII int\n"
        assert not (tmp_path / "out").exists()

    def test_file_data_with_fewer_classes_than_tasks(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_csv(data, np.random.default_rng(0).normal(size=(40, 4)), np.repeat([0, 1], 20))
        text = _config_text().replace("tasks = 2", "tasks = 3")
        text = text.replace("[data]", f"[data]\nsource = file\npath = {data}\nformat = csv")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: invalid value for tasks: must not exceed the class count\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_file_data_with_one_class(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_csv(data, np.random.default_rng(0).normal(size=(40, 4)), np.zeros(40, dtype=int))
        text = _config_text().replace("[data]", f"[data]\nsource = file\npath = {data}\nformat = csv")
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: invalid value for tasks: must not exceed the class count\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text(seed=3))
        assert cli_main(["run", str(config_path), "--seed", "9", "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o/summary.json").read_text())
        assert summary["seed"] == 9

    def test_dump_memory(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text())
        code = cli_main(["dump-memory", str(config_path), "--out", str(tmp_path / "mem")])
        assert code == 0
        assert (tmp_path / "mem/memory_0.csv").exists()
        assert (tmp_path / "mem/memory_1.csv").exists()

    def test_grid(self, tmp_path, capsys):
        grid_dir = tmp_path / "grid"
        grid_dir.mkdir()
        (grid_dir / "a.ini").write_text(_config_text())
        (grid_dir / "b.ini").write_text(_config_text().replace("policy = bottom_k", "policy = random"))
        code = cli_main(["grid", str(grid_dir), "--out", str(tmp_path / "gout")])
        assert code == 0
        assert (tmp_path / "gout/a/summary.json").exists()
        assert (tmp_path / "gout/b/summary.json").exists()
        out = capsys.readouterr().out
        assert "a:" in out and "b:" in out


class TestCliChecksBeforeRunning:
    """Refusals that need no experiment are made before the first run, creating nothing."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fedreplay.cli, "run_experiment", lambda config: calls.append(config))
        return calls

    def _non_empty(self, path):
        path.mkdir(parents=True)
        (path / "block.txt").write_text("x")
        return path

    @pytest.mark.parametrize("command", ["run", "dump-memory"])
    def test_non_empty_output_dir(self, tmp_path, capsys, runs, command):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text())
        out = self._non_empty(tmp_path / "out")
        assert cli_main([command, str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output directory {out} is not empty (pass --force to overwrite)\n"
        assert runs == []
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["exp.ini", "out", "out/block.txt"]

    def test_grid_non_empty_output_dir_after_the_first(self, tmp_path, capsys, runs):
        grid_dir = tmp_path / "grid"
        grid_dir.mkdir()
        (grid_dir / "a.ini").write_text(_config_text())
        (grid_dir / "b.ini").write_text(_config_text())
        blocked = self._non_empty(tmp_path / "gout" / "b")
        assert cli_main(["grid", str(grid_dir), "--out", str(tmp_path / "gout")]) == 2
        assert capsys.readouterr().err == f"error: output directory {blocked} is not empty (pass --force to overwrite)\n"
        assert runs == []
        assert sorted(p.name for p in (tmp_path / "gout").iterdir()) == ["b"]

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("command", ["run", "grid", "dump-memory"])
    def test_output_path_is_a_file(self, tmp_path, capsys, runs, command, force):
        grid_dir = tmp_path / "grid"
        grid_dir.mkdir()
        (grid_dir / "exp.ini").write_text(_config_text())
        out = tmp_path / "afile"
        out.write_text("keep")
        target = grid_dir if command == "grid" else grid_dir / "exp.ini"
        assert cli_main([command, str(target), "--out", str(out)] + ["--force"] * force) == 2
        if command == "grid":
            expected = f"error: output path {out / 'exp'} lies under {out}, which is not a directory\n"
        else:
            expected = f"error: output path {out} is not a directory\n"
        assert capsys.readouterr().err == expected
        assert runs == []
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("force", [False, True])
    def test_output_path_under_a_file(self, tmp_path, capsys, runs, force):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text())
        blocker = tmp_path / "afile"
        blocker.write_text("keep")
        out = blocker / "sub" / "run"
        assert cli_main(["run", str(config_path), "--out", str(out)] + ["--force"] * force) == 2
        assert capsys.readouterr().err == f"error: output path {out} lies under {blocker}, which is not a directory\n"
        assert runs == []
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize(
        "section, key", [("data", "center_spread"), ("data", "cluster_sigma"), ("perturbation", "sigma")]
    )
    def test_overflowing_data_scale(self, tmp_path, capsys, runs, section, key):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(_config_text().replace(f"[{section}]", f"[{section}]\n{key} = 1e300"))
        assert cli_main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: invalid value for {key}: must be <= 1e100\n"
        assert runs == []
        assert not (tmp_path / "out").exists()


class TestDivergence:
    """A diverging run stops with exit 2 and names the client, the task and the batch counter or evaluation."""

    def _run(self, tmp_path, capsys, text):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        with np.errstate(all="ignore"):
            code = cli_main(["run", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err

    def _diverging_text(self, policy):
        text = _config_text().replace("policy = bottom_k", f"policy = {policy}")
        return text + "learning_rate = 1e200\n"

    def _evaluation_overflow_text(self):
        """``configs/er.ini`` at a step size whose parameters stay finite but overflow held-out logits."""
        text = (Path(__file__).parents[1] / "configs" / "er.ini").read_text()
        text = text.replace("samples_per_class = 400", "samples_per_class = 60")
        return text.replace("learning_rate = 0.1", "learning_rate = 1e20")

    def test_nonfinite_loss(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self._diverging_text("random"))
        assert re.search(r"client \d+ diverged on task \d+ at bn=\d+: training loss is nan", err)

    def test_nonfinite_logits_in_scoring(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self._diverging_text("bottom_k"))
        assert re.search(r"client \d+ diverged on task \d+ at bn=\d+: logit set entries must be finite", err)

    def test_nonfinite_logits_at_evaluation(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self._evaluation_overflow_text())
        assert err == "error: client 0 diverged on task 4 at evaluation: held-out logits are not all finite\n"

    @pytest.mark.parametrize("policy", ["random", "bottom_k", "evaluation"])
    def test_stderr_holds_the_error_line_alone(self, tmp_path, capfd, policy):
        # A child process, so numpy's warnings would reach stderr unfiltered.
        config_path = tmp_path / "exp.ini"
        text = self._evaluation_overflow_text() if policy == "evaluation" else self._diverging_text(policy)
        config_path.write_text(text)
        src = str(Path(fedreplay.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "fedreplay.cli", "run", str(config_path), "--out", str(tmp_path / "out")]
        assert subprocess.run(argv, env=env).returncode == 2
        err = capfd.readouterr().err
        assert re.fullmatch(r"error: client \d+ diverged on task \d+ at (bn=\d+|evaluation): [^\n]+\n", err), err

    def test_nonfinite_parameters(self, tmp_path, capsys, monkeypatch):
        from fedreplay.model import ParameterVector

        monkeypatch.setattr(
            "fedreplay.runner.optimizer_step",
            lambda params, grad, state: ParameterVector(np.full(len(params), np.inf), params.layout),
        )
        err = self._run(tmp_path, capsys, _config_text())
        assert "client 0 diverged on task 1 at bn=1: updated parameters are not all finite" in err

    def test_exact_sum_overflow(self, tmp_path, capsys, monkeypatch):
        # Scoring sums with math.fsum, whose partial sums can leave the float range.
        def overflowing(params, config, batch):
            return math.fsum([1e308, 1e308, -1e308])

        monkeypatch.setattr("fedreplay.runner.loss_and_grad", overflowing)
        err = self._run(tmp_path, capsys, _config_text())
        assert "client 0 diverged on task 1 at bn=1: intermediate overflow in fsum" in err

    @staticmethod
    def _huge(theta):
        return ParameterVector(np.full(len(theta), 1e308), theta.layout)

    def test_client_mean_overflow_names_the_round(self, tmp_path, capsys, monkeypatch):
        """Two clients at 1e308 sum to inf: the first round (task 1, bn=2) diverges."""
        monkeypatch.setattr("fedreplay.runner.fedavg", lambda params: fedavg([self._huge(p) for p in params]))
        err = self._run(tmp_path, capsys, _config_text())
        assert err == "error: round 1 diverged on task 1 at bn=2: global parameters are not all finite\n"

    def test_smoothing_overflow_names_the_round(self, tmp_path, capsys, monkeypatch):
        """The midpoint of two vectors at 1e308 overflows at the second round (task 1, bn=4), not at a client's tick."""

        def smooth(new, prev):
            return temporal_smooth(new, None) if prev is None else temporal_smooth(self._huge(new), self._huge(prev))

        monkeypatch.setattr("fedreplay.runner.temporal_smooth", smooth)
        err = self._run(tmp_path, capsys, _config_text())
        assert err == "error: round 2 diverged on task 1 at bn=4: global parameters are not all finite\n"
