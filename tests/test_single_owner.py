"""Facts with one owner upstream are not checked again downstream, yet still fail loudly.

Each case hands a module a value its owner never lets through: the
config (``tasks >= 2``, ``clients >= 1``, a known ``format``), the
``MiniBatch`` constructor (no empty batch), the runner (labels remapped to
``0..C-1``, a test split of at least one row, a round only in a tick where
some client trained), ``RoundReport`` (one class report per client),
``update_memory`` (classes added before their quota is taken) and the
``sgd``/``adam`` constructors (moments in pairs). The module does not
check it, and the call raises rather than returning a quiet wrong value.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fedreplay.federation import RoundReport, class_weighted_avg, fedavg
from fedreplay.memory import MemoryBuffer, class_quota, update_memory
from fedreplay.metrics import client_mean, evaluate_model, last_forgetting
from fedreplay.model import ModelConfig, OptimizerState, ParameterVector, init_parameters, loss_and_grad, optimizer_step
from fedreplay.stream import MiniBatch, load_vector_dataset

_CONFIG = ModelConfig(input_dim=2, hidden_dims=(3,), num_classes=2, init_seed=1)
_PARAMS = init_parameters(_CONFIG)


def _csv_read_as(tmp_path, fmt):
    path = tmp_path / "data.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    return load_vector_dataset(path, fmt)


def _adam_without_v():
    state = OptimizerState(0.01, m=np.zeros(3))
    return optimizer_step(ParameterVector(np.zeros(3), (((1, 3), 0),)), np.ones(3), state)


def _negative_label_offer():
    buffer = MemoryBuffer(4, "bottom_k", np.random.default_rng(0))
    return update_memory(buffer, MiniBatch(np.zeros((1, 2)), np.array([-1]), task_id=1), [0.0])


# (case, owner that guarantees the fact, call on tmp_path, exception raised without a check)
CASES = [
    ("last_forgetting one task", "config tasks >= 2", lambda _: last_forgetting(np.full((1, 1), 0.5)), ValueError),
    ("client_mean no clients", "config clients >= 1", lambda _: client_mean([]), ZeroDivisionError),
    (
        "evaluate_model empty test set",
        "runner._split_task keeps n_test >= 1",
        lambda _: evaluate_model(init_parameters(_CONFIG), _CONFIG, [(np.zeros((0, 2)), np.zeros(0, dtype=int))]),
        ZeroDivisionError,
    ),
    ("RoundReport no clients", "config clients >= 1", lambda _: RoundReport(params=[], class_reports=[]), IndexError),
    (
        "class_weighted_avg no class reports",
        "RoundReport requires one class report per client",
        lambda _: class_weighted_avg(SimpleNamespace(params=[_PARAMS], class_reports=[])),
        IndexError,
    ),
    (
        "class_weighted_avg no reporting client",
        "the runner fires a round only in a tick where some client trained",
        lambda _: class_weighted_avg(RoundReport(params=[_PARAMS, _PARAMS], class_reports=[set(), set()])),
        IndexError,
    ),
    ("fedavg no clients", "config clients >= 1", lambda _: fedavg([]), IndexError),
    (
        "loss_and_grad empty batch",
        "MiniBatch refuses an empty batch",
        lambda _: loss_and_grad(
            init_parameters(_CONFIG), _CONFIG, SimpleNamespace(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        ),
        ValueError,
    ),
    ("OptimizerState m without v", "the sgd/adam constructors", lambda _: _adam_without_v(), TypeError),
    ("class_quota no classes", "update_memory adds the batch's classes first", lambda _: class_quota(4, set()), ZeroDivisionError),
    ("update_memory negative label", "the runner remaps labels to 0..C-1", lambda _: _negative_label_offer(), ValueError),
    ("load_vector_dataset unknown fmt", "config format in DATASET_FORMATS", lambda tmp: _csv_read_as(tmp, "parquet"), ValueError),
]


@pytest.mark.parametrize("case, owner, call, error", CASES, ids=[c[0] for c in CASES])
def test_unchecked_case_raises_instead_of_returning(tmp_path, case, owner, call, error):
    with pytest.raises(error):
        returned = call(tmp_path)
        pytest.fail(f"{case} returned {returned!r}; its owner is {owner}")
