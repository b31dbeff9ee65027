"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import dataclasses
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from fedreplay import runner, seeds
from fedreplay.config import ExperimentConfig, parse_config
from fedreplay.federation import RoundReport, class_weighted_avg, fedavg
from fedreplay.memory import MemoryBuffer, class_quota, sample_replay, update_memory
from fedreplay.metrics import client_mean, last_accuracy, last_forgetting
from fedreplay.model import (
    ModelConfig,
    ParameterVector,
    init_parameters,
    loss_and_grad,
)
from fedreplay.runner import emit_report, run_experiment
from fedreplay.stream import ClientStream, MiniBatch
from fedreplay.uncertainty import (
    METRICS,
    _SCORERS,
    PerturbationSpec,
    copy_logits,
    perturb_features,
    score_sample,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ----------------------------------------------------------------------
# criterion 7/8/9 share the desk-scale comparative runs
# ----------------------------------------------------------------------

SEEDS = (0, 1, 2, 3, 4)


def _comparative_config(name: str, seed: int) -> ExperimentConfig:
    policy, capacity = {
        "baseline": ("random", 0),
        "er": ("random", 100),
        "bi_bottom": ("bottom_k", 100),
    }[name]
    return ExperimentConfig(
        clients=5,
        tasks=4,
        batch_size=10,
        test_split=0.2,
        seed=seed,
        classes=8,
        samples_per_class=400,
        dim=16,
        center_spread=3.0,
        cluster_sigma=1.0,
        memory_capacity=capacity,
        memory_policy=policy,
        uncertainty_metric="bi",
        perturbation_count=12,
        noise_sigma=0.1,
        burn_in=30,
        q=5,
        aggregation="fedavg",
        hidden_dims=(64,),
        optimizer="sgd",
        learning_rate=0.1,
    )


@pytest.fixture(scope="module")
def comparative_runs():
    start = time.perf_counter()
    results = {}
    for name in ("baseline", "er", "bi_bottom"):
        for seed in SEEDS:
            results[(name, seed)] = run_experiment(_comparative_config(name, seed))
    return results, time.perf_counter() - start


def test_criterion_1_bi_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    max_err = 0.0
    max_shift_err = 0.0
    min_value = math.inf
    for _ in range(1000):
        p = int(rng.integers(1, 17))
        c = int(rng.integers(2, 21))
        z = rng.uniform(-50.0, 50.0, size=(p, c))
        got = score_sample(z, "bi")
        naive = float(np.mean(np.log(np.sum(np.exp(z), axis=1))) - np.log(np.sum(np.exp(z.mean(axis=0)))))
        max_err = max(max_err, abs(got - naive))
        min_value = min(min_value, got)
        shifted = z + rng.uniform(-20.0, 20.0, size=(p, 1))
        max_shift_err = max(max_shift_err, abs(score_sample(shifted, "bi") - got))
    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-9 and min_value >= 0.0 and max_shift_err <= 1e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        f"naive-eval err {max_err:.2e}, min value {min_value:.2e}, "
        f"shift err {max_shift_err:.2e}, {elapsed:.2f}s",
    )
    assert max_err <= 1e-9
    assert min_value >= 0.0
    assert max_shift_err <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_score_oracles():
    rng = np.random.default_rng(202)

    def oracle_lc(p):
        return 1.0 - sum(sorted(row, reverse=True)[0] for row in p) / len(p)

    def oracle_rc(p):
        tops = [sorted(row, reverse=True)[:2] for row in p]
        return sum(b / a for a, b in tops) / len(p)

    def oracle_en(p):
        return -sum(sum(x * math.log(x) for x in row if x > 0.0) for row in p) / len(p)

    max_err = 0.0
    ranges_ok = True
    for _ in range(1000):
        p_count = int(rng.integers(1, 13))
        c = int(rng.integers(2, 15))
        probs = rng.dirichlet(np.full(c, rng.uniform(0.3, 3.0)), size=p_count)
        rows = probs.tolist()
        values = {metric: scorer(probs) for metric, scorer in _SCORERS.items()}
        max_err = max(
            max_err,
            abs(values["lc"] - oracle_lc(rows)),
            abs(values["rc"] - oracle_rc(rows)),
            abs(values["en"] - oracle_en(rows)),
        )
        ranges_ok = ranges_ok and 0.0 <= values["lc"] <= 1.0 and 0.0 <= values["rc"] <= 1.0
        ranges_ok = ranges_ok and 0.0 <= values["en"] <= math.log(c) + 1e-12
    ok = max_err <= 1e-12 and ranges_ok
    _report(2, ok, f"direct-formula err {max_err:.2e}, ranges {'ok' if ranges_ok else 'violated'}")
    assert max_err <= 1e-12
    assert ranges_ok


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        input_dim = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 8))
        num_classes = int(rng.integers(2, 5))
        config = ModelConfig(
            input_dim=input_dim,
            hidden_dims=(hidden,),
            num_classes=num_classes,
            init_seed=int(rng.integers(0, 2**31)),
        )
        params = init_parameters(config)
        assert len(params) <= 200
        n = int(rng.integers(2, 7))
        batch = MiniBatch(
            features=rng.normal(size=(n, input_dim)),
            labels=rng.integers(0, num_classes, size=n),
            task_id=1,
        )
        _, analytic = loss_and_grad(params, config, batch)
        numeric = np.zeros(len(params))
        for j in range(len(params)):
            bumped = params.values.copy()
            bumped[j] += h
            up, _ = loss_and_grad(ParameterVector(bumped, params.layout), config, batch)
            bumped[j] -= 2 * h
            down, _ = loss_and_grad(ParameterVector(bumped, params.layout), config, batch)
            numeric[j] = (up - down) / (2 * h)
        scale = np.maximum.reduce([np.ones_like(analytic), np.abs(analytic), np.abs(numeric)])
        worst = max(worst, float((np.abs(analytic - numeric) / scale).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(3, ok, f"max relative error {worst:.2e} over 50 models, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


def _offer(buffer, rng, history, arrival):
    n = int(rng.integers(1, 6))
    labels = rng.integers(0, 8, size=n)
    scores = rng.normal(size=n)
    if n > 1 and rng.random() < 0.25:
        scores[1] = scores[0]  # exercise tie-breaking
    task = int(rng.integers(1, 5))
    batch = MiniBatch(features=rng.normal(size=(n, 3)), labels=labels, task_id=task)
    update_memory(buffer, batch, scores)
    for label, score in zip(labels, scores):
        history.setdefault(int(label), []).append((float(score), arrival))
        arrival += 1
    return arrival


def _oracle_content(history, capacity, policy):
    quota = class_quota(capacity, set(history))
    expected = {}
    for c, offered in history.items():
        if policy == "bottom_k":
            expected[c] = sorted(sorted(offered)[: quota[c]])
        else:
            expected[c] = sorted(sorted(offered, key=lambda t: (-t[0], t[1]))[: quota[c]])
    return expected


def test_criterion_4_memory_invariants():
    steps = 10_000
    capacity = 30
    balance_ok = True
    capacity_ok = True
    exclusion_ok = True
    oracle_ok = True

    for policy in ("bottom_k", "top_k"):
        rng = np.random.default_rng(404 if policy == "bottom_k" else 405)
        buffer = MemoryBuffer(capacity, policy, np.random.default_rng(0))
        history = {}
        arrival = 0
        offered_per_class = {}
        for step in range(steps):
            arrival = _offer(buffer, rng, history, arrival)
            for c, offered in history.items():
                offered_per_class[c] = len(offered)
            capacity_ok = capacity_ok and len(buffer) <= capacity
            quota = class_quota(capacity, set(history))
            saturated = [
                int(np.count_nonzero(buffer.labels == c))
                for c in history
                if offered_per_class[c] >= quota[c]
            ]
            if len(saturated) >= 2:
                balance_ok = balance_ok and max(saturated) - min(saturated) <= 1
            if step % 7 == 0 and len(buffer):
                current = int(rng.integers(1, 5))
                replay = sample_replay(buffer, 10, current_task=current, rng=rng)
                exclusion_ok = exclusion_ok and bool(np.all(buffer.task_ids[replay] != current))
                exclusion_ok = exclusion_ok and len(set(replay.tolist())) == len(replay)
                eligible = int(np.count_nonzero(buffer.task_ids != current))
                exclusion_ok = exclusion_ok and len(replay) == min(10, eligible)
            if step % 2000 == 1999:
                expected = _oracle_content(history, capacity, policy)
                got = {
                    c: sorted(zip(buffer.scores[buffer.labels == c].tolist(), buffer.arrivals[buffer.labels == c].tolist()))
                    for c in history
                }
                oracle_ok = oracle_ok and all(got[c] == expected[c] for c in history)

    # replay uniformity: 100 eligible samples, draws of 10, 10^4 trials
    buffer = MemoryBuffer(200, "bottom_k", np.random.default_rng(0))
    batch = MiniBatch(
        features=np.zeros((100, 2)),
        labels=np.array([0] * 50 + [1] * 50),
        task_id=1,
    )
    update_memory(buffer, batch, np.arange(100, dtype=float))
    rng = np.random.default_rng(406)
    trials = 10_000
    hits = np.zeros(100)
    for _ in range(trials):
        np.add.at(hits, buffer.arrivals[sample_replay(buffer, 10, current_task=2, rng=rng)], 1)
    se = math.sqrt(0.1 * 0.9 / trials)
    uniform_ok = bool(np.all(np.abs(hits / trials - 0.1) <= 3 * se))

    ok = capacity_ok and balance_ok and oracle_ok and exclusion_ok and uniform_ok
    _report(
        4,
        ok,
        f"capacity {capacity_ok}, balance {balance_ok}, sort-oracle {oracle_ok}, "
        f"exclusion {exclusion_ok}, uniformity {uniform_ok}",
    )
    assert capacity_ok and balance_ok and oracle_ok and exclusion_ok and uniform_ok


def test_criterion_5_metrics_oracle():
    def build(entries):
        a = np.full((3, 3), np.nan)
        for (t, i), acc in entries.items():
            a[t - 1, i - 1] = acc
        return a

    c1 = build({(1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9, (3, 1): 0.5, (3, 2): 0.7, (3, 3): 1.0})
    c2 = build({(1, 1): 0.6, (2, 1): 0.7, (2, 2): 0.8, (3, 1): 0.4, (3, 2): 0.9, (3, 3): 0.5})
    a = client_mean([last_accuracy(c) for c in (c1, c2)])
    f = client_mean([last_forgetting(c) for c in (c1, c2)])
    # manual: A = ((0.5+0.7+1.0)/3 + (0.4+0.9+0.5)/3) / 2 = 2/3
    #         F = ((0.3+0.2)/2 + (0.3-0.1)/2) / 2 = 0.175
    a_err = abs(a - 2.0 / 3.0)
    f_err = abs(f - 0.175)
    ok = a_err <= 1e-12 and f_err <= 1e-12
    _report(5, ok, f"A err {a_err:.2e}, F err {f_err:.2e}")
    assert a_err <= 1e-12
    assert f_err <= 1e-12


def test_criterion_6_aggregation_reduction():
    rng = np.random.default_rng(606)
    all_equal = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 40))
        layout = (((dim,), 0),)
        vecs = [ParameterVector(rng.normal(size=dim), layout) for _ in range(k)]
        classes = set(int(c) for c in rng.integers(0, 12, size=int(rng.integers(1, 5))))
        report = RoundReport(params=vecs, class_reports=[set(classes) for _ in range(k)])
        weighted, plain = class_weighted_avg(report), fedavg(vecs)
        all_equal = all_equal and weighted.layout == plain.layout and np.array_equal(weighted.values, plain.values)
    _report(6, all_equal, "class-weighted equals plain average bit-for-bit on 100 trials")
    assert all_equal


def test_criterion_7_comparative_experiment(comparative_runs):
    results, elapsed = comparative_runs

    def med(name, field):
        return statistics.median(getattr(results[(name, s)], field) for s in SEEDS)

    base_a = med("baseline", "avg_last_accuracy")
    base_f = med("baseline", "avg_last_forgetting")
    er_f = med("er", "avg_last_forgetting")
    bi_a = med("bi_bottom", "avg_last_accuracy")
    bi_f = med("bi_bottom", "avg_last_forgetting")

    forgetting_ok = bi_f <= 0.6 * base_f
    accuracy_ok = bi_a >= base_a
    er_ok = bi_f <= er_f
    runtime_ok = elapsed < 300.0
    ok = forgetting_ok and accuracy_ok and er_ok and runtime_ok
    _report(
        7,
        ok,
        f"median F: baseline {base_f:.4f}, ER {er_f:.4f}, BI/bottom {bi_f:.4f}; "
        f"median A: baseline {base_a:.4f}, BI/bottom {bi_a:.4f}; {elapsed:.0f}s",
    )
    assert forgetting_ok, f"BI forgetting {bi_f} exceeds 0.6 * baseline {base_f}"
    assert accuracy_ok, f"BI accuracy {bi_a} below baseline {base_a}"
    assert er_ok, f"BI forgetting {bi_f} exceeds ER forgetting {er_f}"
    assert runtime_ok, f"comparative runs took {elapsed:.0f}s"


def test_criterion_8_determinism(comparative_runs, tmp_path):
    results, _ = comparative_runs
    identical = True
    for name in ("baseline", "bi_bottom"):
        reference = tmp_path / f"{name}_ref"
        emit_report(results[(name, 0)], reference)
        repeat_dir = tmp_path / f"{name}_repeat"
        emit_report(run_experiment(_comparative_config(name, 0)), repeat_dir)
        ref_bytes = (reference / "summary.json").read_bytes()
        identical = identical and ref_bytes == (repeat_dir / "summary.json").read_bytes()
        # sanity: the summary is not vacuous
        assert json.loads(ref_bytes)["config"]["federation"]["q"] == 5
    _report(8, identical, "summary.json bit-identical across serial reruns")
    assert identical


def test_criterion_9_single_pass_audit(monkeypatch):
    # every comparative run above passed the audit, or it would have raised;
    # here client 1's stream reports one example skipped, then one repeated
    tally = ClientStream.consumption_counts
    config = ExperimentConfig(
        clients=2, tasks=2, batch_size=5, classes=4, samples_per_class=20, dim=4, hidden_dims=(8,), perturbation_count=2
    )
    raised = []
    for fault in (0, 2):

        def counts(stream, fault=fault):
            tallied = tally(stream)
            if stream.client_id == 1:
                tallied[0] = fault
            return tallied

        monkeypatch.setattr(ClientStream, "consumption_counts", counts)
        with pytest.raises(RuntimeError, match="single-pass audit failed for client 1") as err:
            run_experiment(config)
        raised.append(str(err.value))
    _report(9, len(raised) == 2, f"audit raised on a skip and on a repeat: {raised[0]}")


# ----------------------------------------------------------------------
# criteria 10 and 11 share runs in a regime where rounds fire:
# configs/bi_bottom.ini with 10 classes, 5 tasks, center_spread 1.0,
# capacity 30, burn_in 2 and q 3, at seeds 0-4
# ----------------------------------------------------------------------

# row -> (policy, capacity)
REGIME_ROWS = {
    "no memory": ("random", 0),
    "ER": ("random", 30),
    "class-balanced random": ("class_balanced_random", 30),
    "bottom-k BI": ("bottom_k", 30),
    "top-k BI": ("top_k", 30),
}


def _regime_config(row: str, seed: int) -> ExperimentConfig:
    policy, capacity = REGIME_ROWS[row]
    base = parse_config(Path(__file__).resolve().parent.parent / "configs" / "bi_bottom.ini")
    return dataclasses.replace(
        base,
        seed=seed,
        classes=10,
        tasks=5,
        center_spread=1.0,
        memory_capacity=capacity,
        memory_policy=policy,
        burn_in=2,
        q=3,
    )


@pytest.fixture(scope="module")
def regime_runs():
    """Each (row, seed)'s result and client 0's final evaluation inputs, with the seconds taken."""
    start = time.perf_counter()
    evaluate = runner.evaluate_model
    results, final = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        for row in REGIME_ROWS:
            for seed in SEEDS:
                evaluated = []

                def keep(params, model_config, test_sets, evaluated=evaluated):
                    evaluated.append((params, model_config, test_sets))
                    return evaluate(params, model_config, test_sets)

                patch.setattr(runner, "evaluate_model", keep)
                config = _regime_config(row, seed)
                results[(row, seed)] = run_experiment(config)
                # Client 0's evaluation after the last task is the first one over every task's held-out rows.
                final[(row, seed)] = next(e for e in evaluated if len(e[2]) == config.tasks)
    return results, final, time.perf_counter() - start


# ----------------------------------------------------------------------
# criterion 10: replay policies ranked where rounds fire
# ----------------------------------------------------------------------

# The orderings asserted at every seed, as (metric, better row, worse row),
# with the smallest per-seed gap measured over seeds 0-4 at 51a6e9f, rounded
# down. Later re-baselines that kept every ordering kept these floors too.
_ORDERINGS = (
    ("avg_last_accuracy", "bottom-k BI", "ER", 0.055),
    ("avg_last_accuracy", "ER", "no memory", 0.074),
    ("avg_last_forgetting", "bottom-k BI", "ER", 0.137),
    ("avg_last_forgetting", "ER", "no memory", 0.101),
)
# Orderings that do not hold in this regime; printed, not asserted.
_UNHELD = (
    ("avg_last_forgetting", "bottom-k BI", "top-k BI"),
    ("avg_last_forgetting", "bottom-k BI", "class-balanced random"),
)


def _margin(metric: str, better: float, worse: float) -> float:
    """How far ``better`` beats ``worse``: by higher accuracy, or by lower forgetting."""
    return better - worse if metric == "avg_last_accuracy" else worse - better


def test_criterion_10_policies_ranked_where_rounds_fire(regime_runs):
    results, _, elapsed = regime_runs

    def value(row, seed, metric):
        return getattr(results[(row, seed)], metric)

    def med(row, metric):
        return statistics.median(value(row, s, metric) for s in SEEDS)

    def seed_gaps(metric, better, worse):
        return [_margin(metric, value(better, s, metric), value(worse, s, metric)) for s in SEEDS]

    def median_gap(metric, better, worse):
        return _margin(metric, med(better, metric), med(worse, metric))

    rounds_ok = all(len(r.round_log) == 20 for r in results.values())
    orderings_ok = all(
        min(seed_gaps(m, b, w)) > 0.0 and median_gap(m, b, w) > floor / 2 for m, b, w, floor in _ORDERINGS
    )
    table = "; ".join(
        f"{row} A {med(row, 'avg_last_accuracy'):.3f} F {med(row, 'avg_last_forgetting'):.3f}" for row in REGIME_ROWS
    )
    _report(10, rounds_ok and orderings_ok, f"medians: {table}; {len(results)} runs, {elapsed:.1f}s")
    for metric, better, worse in _UNHELD:
        if median_gap(metric, better, worse) <= 0.0:
            print(
                f"[acceptance] criterion 10: does not hold: {metric} of {better} {med(better, metric):.3f} "
                f"against {worse} {med(worse, metric):.3f}"
            )
    assert rounds_ok, {key: len(r.round_log) for key, r in results.items()}
    for metric, better, worse, floor in _ORDERINGS:
        assert min(seed_gaps(metric, better, worse)) > 0.0, (metric, better, worse, seed_gaps(metric, better, worse))
        assert median_gap(metric, better, worse) > floor / 2, (metric, better, worse, median_gap(metric, better, worse))


# ----------------------------------------------------------------------
# criterion 11: every score tracks closeness to the known Bayes boundary
# ----------------------------------------------------------------------

# Spearman rho floors per metric. Over seeds 0-4 client 0's final model
# read bi 0.36-0.53, lc 0.59-0.65, rc 0.56-0.63 and en 0.56-0.63; each
# floor is that minimum less the seed range, rounded down to 0.05.
_RHO_FLOORS = {"bi": 0.15, "lc": 0.5, "rc": 0.45, "en": 0.45}


def _ranks(x):
    """Ranks from 0, ties sharing their mean rank."""
    ranks = np.empty(len(x))
    ranks[np.argsort(x, kind="stable")] = np.arange(len(x))
    _, tie, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.bincount(tie, weights=ranks) / counts)[tie]


def _spearman(a, b) -> float:
    return float(np.corrcoef(_ranks(a), _ranks(b))[0, 1])


def _boundary_closeness(config, features):
    """Minus the log-likelihood margin between each row's two likeliest classes.

    Synthetic classes are equal-sized isotropic Gaussians of one sigma, so
    that margin is the Bayes log-odds; their centers are the first draw of
    the ``DATA`` substream.
    """
    centers = seeds.substream(config.seed, seeds.DATA).normal(
        0.0, config.center_spread, size=(config.classes, config.dim)
    )
    loglik = -((features[:, None, :] - centers) ** 2).sum(axis=2) / (2.0 * config.cluster_sigma**2)
    second, first = np.sort(loglik, axis=1)[:, -2:].T
    return second - first


def test_criterion_11_scores_track_the_bayes_boundary(regime_runs):
    _, final, _ = regime_runs
    start = time.perf_counter()
    rho = {m: [] for m in METRICS}
    control = {m: [] for m in METRICS}
    for seed in SEEDS:
        config = _regime_config("bottom-k BI", seed)
        params, model_config, test_sets = final[("bottom-k BI", seed)]
        features = np.concatenate([f for f, _ in test_sets])
        assert len(features) == 800
        closeness = _boundary_closeness(config, features)
        shuffled = closeness[np.random.default_rng(seed).permutation(len(closeness))]
        spec = PerturbationSpec(12, "gaussian", config.noise_sigma, rng=np.random.default_rng(seed))
        logits = copy_logits(params, model_config, perturb_features(features, spec))
        for metric in METRICS:
            scores = [score_sample(z, metric) for z in logits]
            rho[metric].append(_spearman(scores, closeness))
            control[metric].append(_spearman(scores, shuffled))
    elapsed = time.perf_counter() - start

    floors_ok = all(min(rho[m]) > _RHO_FLOORS[m] for m in METRICS)
    control_ok = all(abs(r) < 0.1 for m in METRICS for r in control[m])
    ok = floors_ok and control_ok
    detail = ", ".join(f"{m} {min(rho[m]):.2f}-{max(rho[m]):.2f}" for m in METRICS)
    worst = max(abs(r) for m in METRICS for r in control[m])
    _report(11, ok, f"Spearman rho over seeds {detail}; shuffled |rho| <= {worst:.3f}; {elapsed:.1f}s")
    for metric in METRICS:
        assert min(rho[metric]) > _RHO_FLOORS[metric], (metric, rho[metric])
        assert all(abs(r) < 0.1 for r in control[metric]), (metric, control[metric])
