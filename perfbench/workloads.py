"""The benchmark's workloads: generated configs, schedule oracle, references.

Every config is written from the tables below with the workload seed in
``[experiment] seed``, so the program receives only generated inputs. The
shapes are chosen so that rounds fire and A/F do not saturate; README.md
beside this file says why each workload exists and why a third one,
``federated``, was left out.
"""

from __future__ import annotations

import math
from pathlib import Path

# The shipped comparison grid's shape (configs/*.ini), shared by every row.
_BASE = {
    "experiment": {"clients": 5, "tasks": 4, "batch_size": 10, "test_split": 0.2},
    "data": {
        "source": "synthetic",
        "classes": 8,
        "samples_per_class": 400,
        "dim": 16,
        "center_spread": 1.0,
        "cluster_sigma": 1.0,
    },
    "memory": {"capacity": 100, "policy": "bottom_k", "metric": "bi"},
    "perturbation": {"count": 12, "kind": "gaussian", "sigma": 0.1},
    "federation": {"burn_in": 2, "q": 3, "aggregation": "fedavg"},
    "model": {"hidden": 64, "optimizer": "sgd", "learning_rate": 0.1},
}

# The [memory] section of each grid row swept by the `sweep` workload.
_SWEEP_ROWS = {
    "fedavg_m0": {"capacity": 0, "policy": "random"},
    "er": {"capacity": 100, "policy": "random"},
    "cbr": {"capacity": 100, "policy": "class_balanced_random"},
    "bi_bottom": {"capacity": 100, "policy": "bottom_k", "metric": "bi"},
    "lc_top": {"capacity": 100, "policy": "top_k", "metric": "lc"},
    "en_bottom": {"capacity": 100, "policy": "bottom_k", "metric": "en"},
}


def _merge(overrides: dict) -> dict:
    out = {section: dict(values) for section, values in _BASE.items()}
    for section, values in overrides.items():
        if section == "memory":
            out[section] = dict(values)
        else:
            out[section].update(values)
    return out


# name -> (entry point, {config stem: sections})
WORKLOADS = {
    "admission": ("run", {"admission": _merge({})}),
    "sweep": (
        "grid",
        {
            stem: _merge({"data": {"samples_per_class": 200}, "memory": memory})
            for stem, memory in _SWEEP_ROWS.items()
        },
    ),
}

# Per-layer metric groups (layers.PER_LAYER) a workload leaves unused by
# design; their metrics read zero there instead of being reported absent.
NOT_EXERCISED = {
    "admission": {"grid"},
    "sweep": set(),
}

# A and F at seed 0 for every config, with the tolerance they must meet.
# Serial reruns are bit-identical today; the tolerance leaves room for a
# declared rounding-level rebaseline (for example batched scoring).
REFERENCE_SEED = 0
REFERENCE_TOLERANCE = 0.05
REFERENCE = {
    "admission": (0.9253, 0.0383),
    "fedavg_m0": (0.8269, 0.1650),
    "er": (0.8325, -0.0783),
    "cbr": (0.8256, -0.0608),
    "bi_bottom": (0.8156, -0.0475),
    "lc_top": (0.8181, -0.0592),
    "en_bottom": (0.8231, -0.0500),
}


def render(sections: dict, seed: int) -> str:
    """INI text of one config, with ``seed`` written into [experiment]."""
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        if section == "experiment":
            lines.append(f"seed = {seed}")
        lines.append("")
    return "\n".join(lines)


def write_configs(workload: str, seed: int, config_dir: Path) -> list[Path]:
    """Write the workload's configs into ``config_dir``; returns their paths."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, sections in WORKLOADS[workload][1].items():
        path = config_dir / f"{stem}.ini"
        path.write_text(render(sections, seed))
        paths.append(path)
    return sorted(paths)


def _train_sizes(sections: dict) -> list[int]:
    """Training examples per task, derived from the config alone.

    Mirrors the documented data flow: classes are chunked evenly into
    tasks, earlier tasks one class larger, and each task holds out
    round(test_split * n) examples, at least one and at most n - 1.
    """
    exp, data = sections["experiment"], sections["data"]
    base, rem = divmod(data["classes"], exp["tasks"])
    sizes = []
    for t in range(exp["tasks"]):
        n = (base + (1 if t < rem else 0)) * data["samples_per_class"]
        sizes.append(n - max(1, min(int(round(exp["test_split"] * n)), n - 1)))
    return sizes


def expected_rounds(sections: dict) -> int:
    """Rounds the schedule fires, derived from the config alone.

    Each task's training examples are dealt round-robin to the clients, and
    the per-task batch counter runs to the largest client's batch count.
    """
    exp, fed = sections["experiment"], sections["federation"]
    rounds = 0
    for train in _train_sizes(sections):
        batches = math.ceil(math.ceil(train / exp["clients"]) / exp["batch_size"])
        rounds += sum(1 for bn in range(1, batches + 1) if bn > fed["burn_in"] and bn % fed["q"] == 0)
    return rounds


def samples_consumed(sections: dict) -> int:
    """Client-stream samples one run draws: every training example once."""
    return sum(_train_sizes(sections))
