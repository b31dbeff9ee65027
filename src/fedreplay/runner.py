"""Experiment orchestration: the lockstep multi-client training loop.

All clients advance one mini-batch per global tick. A client trains on
the incoming batch joined with a replay draw of past-task rows from its
memory (one gradient step per tick); on the first task the memory holds
no such rows, so the draw is empty. After training, the batch is scored
under the updated model and offered to the memory. When retention
compares a class that the offer touches (it is over quota), the memory
has the runner score that class's stored rows under the same parameters:
it draws their perturbed copies then, one compared class at a time in
ascending order, so copies are drawn only for rows that are scored.
Every scoring, of a new batch or of a stored class, forwards the copies
of all its rows as one block and then reduces each row's logits with one
``score_sample`` call.

Once the shared per-task batch counter passes the burn-in and hits a
multiple of q, client parameters are aggregated, smoothed against the
previous global parameters ``theta_g``, and broadcast; a schedule under
which no task reaches such a counter is refused once the tasks are dealt,
as a config error naming ``burn_in``. The loop owns
``theta_g`` and the round log (one line per round); each client owns the
rest, and trains on its own loss alone, so ``theta_g`` reaches a client
only through the broadcast. At every task boundary each client is
evaluated on the held-out split of all tasks seen so far, into one
(clients, T, T) accuracy array; non-finite held-out logits stop the run
as divergence, as non-finite training values and a round's non-finite
global parameters do.

Randomness is fanned out from the master seed into named sub-streams, and
clients tick in a fixed order, so reruns are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import seeds, uncertainty
from .config import ConfigError, ExperimentConfig
from .federation import RoundReport, class_weighted_avg, fedavg, should_communicate, temporal_smooth
from .memory import SCORED_POLICIES, MemoryBuffer, sample_replay, update_memory
from .metrics import client_mean, evaluate_model, last_accuracy, last_forgetting
from .model import ModelConfig, OptimizerState, ParameterVector, init_parameters, loss_and_grad, optimizer_step
from .stream import ClientStream, MiniBatch, partition_to_clients
from .stream import assign_classes_to_tasks, load_vector_dataset, synth_gaussian_blobs
from .uncertainty import PerturbationSpec, score_sample


@dataclass
class RunResult:
    avg_last_accuracy: float
    avg_last_forgetting: float
    accuracy: np.ndarray  # (clients, T, T); NaN above each diagonal
    round_log: list[str]
    config: dict  # the echo of the config keys the run read, seed included
    buffers: list[MemoryBuffer]  # each client's final memory, in client order


@dataclass
class _ClientWorker:
    """Client-local state: parameters, optimizer, memory, stream, rngs."""

    cfg: ExperimentConfig
    model_config: ModelConfig
    params: ParameterVector
    opt: OptimizerState
    stream: ClientStream
    buffer: MemoryBuffer
    pert_spec: PerturbationSpec
    replay_rng: np.random.Generator
    observed: set[int] = field(default_factory=set)

    def _fresh(self, rows) -> np.ndarray:
        """The uncertainty of each row of ``rows`` (n, d) under the current model.

        Draws the rows' copies, forwards them as one block, then scores each row from its logits.
        """
        copies = uncertainty.perturb_features(rows, self.pert_spec)
        logits = uncertainty.copy_logits(self.params, self.model_config, copies)
        return np.array([score_sample(z, self.cfg.uncertainty_metric) for z in logits])

    def tick(self, bn: int) -> bool:
        """Consume batch ``bn`` of the task; False once the task is exhausted.

        Raises ``RuntimeError`` naming the client, task and ``bn`` when training
        diverges: a non-finite loss or update, a loss sum that overflows, or
        non-finite logits met in scoring (a stored sample's fresh score is
        computed, so can fail, at an offer that compares its class). Those
        checks name the failure, so numpy's overflow and invalid-value
        warnings on the way are silenced.
        """
        batch = self.stream.next_batch()
        if batch is None:
            return False
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                self._train_and_offer(batch)
        except (FloatingPointError, OverflowError) as exc:
            raise RuntimeError(
                f"client {self.stream.client_id} diverged on task {batch.task_id} at bn={bn}: {exc}"
            ) from exc
        return True

    def _train_and_offer(self, batch: MiniBatch) -> None:
        train_batch = batch
        replay = sample_replay(self.buffer, self.cfg.batch_size, batch.task_id, self.replay_rng)
        if len(replay):
            train_batch = MiniBatch(
                features=np.vstack([batch.features, self.buffer.features[replay]]),
                labels=np.concatenate([batch.labels, self.buffer.labels[replay]]),
                task_id=batch.task_id,
            )

        loss, grad = loss_and_grad(self.params, self.model_config, train_batch)
        if not math.isfinite(loss):
            raise FloatingPointError(f"training loss is {loss}")
        self.params = optimizer_step(self.params, grad, self.opt)
        if not np.all(np.isfinite(self.params.values)):
            raise FloatingPointError("updated parameters are not all finite")
        self.observed.update(batch.labels.tolist())

        if self.buffer.capacity > 0:
            if self.cfg.memory_policy in SCORED_POLICIES:
                update_memory(self.buffer, batch, self._fresh(batch.features), rescore=self._fresh)
            else:
                update_memory(self.buffer, batch, np.zeros(len(batch)))


def broadcast(theta_g: ParameterVector, workers) -> None:
    """Start the next round: each worker gets a copy of ``theta_g``, clears ``observed``, maybe resets ``opt``."""
    for w in workers:
        w.params = theta_g.copy()
        w.observed.clear()
        if w.cfg.reset_optimizer_on_sync:
            w.opt.reset()


def _build_dataset(config: ExperimentConfig):
    """``(features, labels, num_classes)``, labels remapped to 0..num_classes-1 by ascending original id."""
    if config.data_source == "synthetic":
        features, labels = synth_gaussian_blobs(
            config.classes,
            config.samples_per_class,
            config.dim,
            config.center_spread,
            config.cluster_sigma,
            seeds.substream(config.seed, seeds.DATA),
        )
    else:
        features, labels = load_vector_dataset(config.data_path)
        if not labels.size:
            raise RuntimeError(f"dataset {config.data_path} is empty")
        # validate() checks synthetic data; a file's dimension (and, below, its classes) is known only now
        config.check_copies(features.shape[1])
    class_ids, labels = np.unique(labels, return_inverse=True)
    if config.tasks > len(class_ids):  # validate() holds tasks >= 2, so this refuses a one-class file too
        raise ConfigError("invalid value for tasks: must not exceed the class count")
    return features, labels, len(class_ids)


def _split_task(indices, config: ExperimentConfig, task_id: int):
    """``(test, parts)`` of one task's ``indices``: one seeded permutation's head is held out, its rest dealt out."""
    n = len(indices)
    if n < 2:
        raise ConfigError(f"invalid value for tasks: task {task_id} has {n} example, too few for a train/test split")
    perm = seeds.substream(config.seed, seeds.TEST_SPLIT, task_id).permutation(n)
    n_test = max(1, min(int(round(config.test_split * n)), n - 1))
    if n - n_test < config.clients:
        raise ConfigError(f"invalid value for clients: task {task_id} has only {n - n_test} training examples")
    return indices[perm[:n_test]], partition_to_clients(indices[perm[n_test:]], config.clients)


def _check_schedule(config: ExperimentConfig, longest: int) -> None:
    """Refuse a schedule under which no round fires; ``longest`` is the most rows one client gets in one task."""
    batches = -(-longest // config.batch_size)
    if not any(should_communicate(bn, config.burn_in, config.q) for bn in range(1, batches + 1)):
        raise ConfigError(
            f"invalid value for burn_in: no round fires: a task runs at most {batches} batches, "
            f"and a round needs a batch past burn_in = {config.burn_in} that is a multiple of q = {config.q}"
        )


def _checksum(params) -> str:
    return hashlib.sha256(params.values.tobytes()).hexdigest()[:16]


def _format_reports(reports) -> str:
    parts = []
    for k, classes in enumerate(reports):
        inner = ",".join(str(c) for c in sorted(classes))
        parts.append(f"{k}:{{{inner}}}")
    return "[" + ";".join(parts) + "]"


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute the full stream for every client and compute the metrics."""
    seed = config.seed

    features, labels, num_classes = _build_dataset(config)
    class_sizes = dict(enumerate(np.bincount(labels).tolist()))
    tasks = assign_classes_to_tasks(
        class_sizes, config.tasks, config.task_assignment, seeds.substream(seed, seeds.TASK_ASSIGNMENT)
    )

    test_sets = []
    per_client_tasks = [[] for _ in range(config.clients)]
    for spec in tasks:
        task_rows = np.flatnonzero(np.isin(labels, list(spec.classes)))
        test, parts = _split_task(task_rows, config, spec.task_id)
        test_sets.append((features[test], labels[test]))
        for k, part in enumerate(parts):
            per_client_tasks[k].append((spec.task_id, part))
    _check_schedule(config, max(len(part) for parts in per_client_tasks for _, part in parts))

    model_config = ModelConfig(
        input_dim=features.shape[1],
        hidden_dims=config.hidden_dims,
        num_classes=num_classes,
        init_seed=seeds.derive_seed(seed, seeds.MODEL_INIT),
    )
    theta0 = init_parameters(model_config)

    workers = []
    for k in range(config.clients):
        stream = ClientStream(k, features, labels, per_client_tasks[k], config.batch_size)
        if config.optimizer == "sgd":
            opt = OptimizerState.sgd(config.learning_rate)
        else:
            opt = OptimizerState.adam(config.learning_rate, len(theta0))
        buffer = MemoryBuffer(
            config.memory_capacity, config.memory_policy, seeds.substream(seed, seeds.MEMORY_POLICY, k)
        )
        pert_spec = PerturbationSpec(
            count=config.perturbation_count,
            kind=config.perturbation_kind,
            sigma=config.noise_sigma,
            mask_fraction=config.mask_fraction,
            rng=seeds.substream(seed, seeds.PERTURBATION, k),
        )
        workers.append(
            _ClientWorker(
                config,
                model_config,
                theta0,
                opt,
                stream,
                buffer,
                pert_spec,
                seeds.substream(seed, seeds.REPLAY, k),
            )
        )

    theta_g = theta0
    accuracy = np.full((config.clients, config.tasks, config.tasks), np.nan)
    round_log: list[str] = []

    for t_idx, spec in enumerate(tasks):
        ticked = [True] * config.clients
        for bn in itertools.count(1):
            # a client whose task is exhausted sits out the rest of the task
            ticked = [t and w.tick(bn) for t, w in zip(ticked, workers)]
            if not any(ticked):
                break
            if should_communicate(bn, config.burn_in, config.q):
                report = RoundReport(
                    params=[w.params for w in workers],
                    class_reports=[set(w.observed) for w in workers],
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    if config.aggregation == "class_weighted":
                        theta_new = class_weighted_avg(report)
                    else:
                        theta_new = fedavg(report.params)
                    theta_g = temporal_smooth(theta_new, theta_g if round_log else None)
                if not np.all(np.isfinite(theta_g.values)):
                    raise RuntimeError(
                        f"round {len(round_log) + 1} diverged on task {spec.task_id} at bn={bn}: "
                        "global parameters are not all finite"
                    )
                broadcast(theta_g, workers)
                round_log.append(
                    f"round={len(round_log) + 1} task={spec.task_id} bn={bn} "
                    f"reports={_format_reports(report.class_reports)} checksum={_checksum(theta_g)}"
                )
        for k, w in enumerate(workers):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    accuracy[k, t_idx, : t_idx + 1] = evaluate_model(w.params, model_config, test_sets[: t_idx + 1])
            except FloatingPointError as exc:
                raise RuntimeError(f"client {k} diverged on task {spec.task_id} at evaluation: {exc}") from exc

    for w in workers:
        counts_arr = w.stream.consumption_counts()
        if not w.stream.exhausted() or not np.all(counts_arr == 1):
            raise RuntimeError(
                f"single-pass audit failed for client {w.stream.client_id}: "
                f"{int(np.count_nonzero(counts_arr != 1))} examples not consumed exactly once"
            )

    echo = config.echo()
    if config.data_source == "file":  # the file, not the config, gives these
        echo["data"].update(classes=num_classes, dim=model_config.input_dim)
    return RunResult(
        avg_last_accuracy=client_mean([last_accuracy(a) for a in accuracy]),
        avg_last_forgetting=client_mean([last_forgetting(a) for a in accuracy]),
        accuracy=accuracy,
        round_log=round_log,
        config=echo,
        buffers=[w.buffer for w in workers],
    )


def check_output_dir(out_dir, force: bool) -> Path:
    """``out_dir`` as a path; refuse a file at or above it, or a non-empty dir unless ``force``. Creates nothing."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        where = "" if existing == out else f"lies under {existing}, which "
        raise NotADirectoryError(f"output path {out} {where}is not a directory")
    if not force and out.exists() and any(out.iterdir()):
        raise FileExistsError(f"output directory {out} is not empty (pass --force to overwrite)")
    return out


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def remove_stale(out: Path, prefix: str, count: int) -> None:
    """Remove the ``<prefix>_*.csv`` files in ``out`` that a run of ``count`` clients did not write."""
    for path in set(out.glob(f"{prefix}_*.csv")) - {out / f"{prefix}_{k}.csv" for k in range(count)}:
        path.unlink()


def emit_report(result: RunResult, out_dir, force: bool = False) -> None:
    """Write summary.json, per_client.csv, acc_matrix_<k>.csv and rounds.log; remove any other acc_matrix_*.csv.

    Each file appears whole or not at all: it is written to a temp file in
    ``out_dir`` and renamed into place.
    """
    out = check_output_dir(out_dir, force)
    out.mkdir(parents=True, exist_ok=True)

    summary = {
        "avg_last_accuracy": result.avg_last_accuracy,
        "avg_last_forgetting": result.avg_last_forgetting,
        "seed": result.config["seed"],
        "config": result.config,
    }
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2) + "\n")

    lines = ["client,last_accuracy,last_forgetting"]
    for k, client in enumerate(result.accuracy):
        lines.append(f"{k},{last_accuracy(client)!r},{last_forgetting(client)!r}")
    _write_atomic(out / "per_client.csv", "\n".join(lines) + "\n")

    # .tolist() gives Python floats, whose repr is the plain number
    for k, matrix in enumerate(result.accuracy.tolist()):
        rows = ["after_task,on_task,accuracy"]
        for t, row in enumerate(matrix, start=1):
            rows.extend(f"{t},{i},{acc!r}" for i, acc in enumerate(row[:t], start=1))
        _write_atomic(out / f"acc_matrix_{k}.csv", "\n".join(rows) + "\n")
    remove_stale(out, "acc_matrix", len(result.accuracy))

    _write_atomic(out / "rounds.log", "\n".join(result.round_log) + ("\n" if result.round_log else ""))
