"""Named random sub-streams derived from one master seed.

Every source of randomness in an experiment (data synthesis, task
assignment, each task's row order, perturbations, replay draws, ...) gets
its own generator derived from the master seed plus a fixed integer tag
path. Streams are independent of each other, which is what makes reruns
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# Tag constants for the experiment sub-streams. Values are part of the
# reproducibility contract: changing them changes every seeded run. Tags 4 and
# 6 seeded a client deal and a batch order of their own; do not reuse them.
DATA = 1
TASK_ASSIGNMENT = 2
TEST_SPLIT = 3  # one permutation per task: holds out the test rows, deals the rest and orders their batches
MODEL_INIT = 5
PERTURBATION = 7
REPLAY = 8
MEMORY_POLICY = 9


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the sub-stream identified by ``path``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse a sub-stream identity into a single 64-bit seed."""
    ss = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(ss.generate_state(1, np.uint64)[0])
