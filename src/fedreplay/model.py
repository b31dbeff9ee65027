"""Feed-forward classifier on a flat float64 parameter vector.

The network is a plain MLP (ReLU hidden layers, linear output head) whose
weights live in one flat array with an explicit layout, so exchanging
parameters between clients and server is an array copy.

Forward passes are stacked but stay per-row exact: a (P, d) block is run as
P vector-matrix products (``x[:, None, :] @ w``, one BLAS gemv per row), so
each row gets the same bits as when it is computed alone. One routine
computes every activation, so scoring, training and evaluation all take
their logits from the same per-row path.

``loss_and_grad`` first sorts the batch's rows by their bytes, so any order
of the same rows gives the same bits. The loss adds the sorted rows' losses
in that order, and the gradient sums over the sorted rows with one matrix
product per layer (BLAS gemm); neither is exactly rounded, and a batch of
every row twice can differ from the batch in the last bits.

A ``ParameterVector`` is frozen, and its per-layer (weight, bias) views
are built on first use and cached with it. Every optimizer step and every
broadcast (the runner owns the round's vectors) makes a new vector, so the
views are built once per step and reused by all the forward passes that
score samples under those parameters, and by ``loss_and_grad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# ((shape, offset), ...) alternating weight matrices and bias vectors.
Layout = tuple[tuple[tuple[int, ...], int], ...]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and seed of the classifier."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64,)
    num_classes: int = 2
    init_seed: int = 0

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)


def layout_of(config: ModelConfig) -> Layout:
    """Flat layout for ``config``: per layer, weight (in, out) then bias (out,)."""
    layout = []
    offset = 0
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        layout.append(((fan_in, fan_out), offset))
        offset += fan_in * fan_out
        layout.append(((fan_out,), offset))
        offset += fan_out
    return tuple(layout)


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat model weights plus the layout needed to interpret them.

    Frozen: an optimizer step, an average or a broadcast makes a new
    vector, so the per-layer views built from ``values`` on first use stay
    valid for the vector's lifetime and are shared by every forward pass
    and gradient taken at these parameters.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        expected = sum(math.prod(shape) for shape, _ in self.layout)
        if values.ndim != 1 or values.size != expected:
            raise ValueError(f"parameter vector has {values.size} values, layout expects {expected}")

    def __len__(self) -> int:
        return self.values.size

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layout)

    @cached_property
    def layer_views(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(weight, bias) views into ``values``, one pair per layer, built once."""
        views = []
        flat = self.values
        for i in range(0, len(self.layout), 2):
            (w_shape, w_off), (b_shape, b_off) = self.layout[i], self.layout[i + 1]
            w = flat[w_off : w_off + w_shape[0] * w_shape[1]].reshape(w_shape)
            b = flat[b_off : b_off + b_shape[0]]
            views.append((w, b))
        return tuple(views)


def init_parameters(config: ModelConfig) -> ParameterVector:
    """Glorot-style uniform init: W ~ U(-s, s), s = sqrt(6/(fan_in+fan_out)); biases 0."""
    rng = np.random.default_rng(config.init_seed)
    layout = layout_of(config)
    pieces = []
    dims = config.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        pieces.append(rng.uniform(-s, s, size=fan_in * fan_out))
        pieces.append(np.zeros(fan_out))
    return ParameterVector(np.concatenate(pieces), layout)


def _activations(layers, x: np.ndarray) -> list[np.ndarray]:
    """``[x, relu_1, ..., logits]``: the input, each hidden layer's ReLU output and the logits."""
    acts = [x]
    for i, (w, b) in enumerate(layers, start=1):
        a = acts[-1] @ w
        a += b
        if i < len(layers):
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def forward_logits(params: ParameterVector, config: ModelConfig, features) -> np.ndarray:
    """Logits, no softmax, for one input (d,) or a block of P inputs (P, d).

    A block's rows are forwarded as stacked vector-matrix products, so row i
    of the result is bit-identical to ``forward_logits`` of row i alone.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape == (config.input_dim,):
        return _activations(params.layer_views, x)[-1]
    if x.ndim == 2 and x.shape[1] == config.input_dim:
        return _activations(params.layer_views, np.ascontiguousarray(x)[:, None, :])[-1][:, 0, :]
    raise ValueError(f"expected features of shape ({config.input_dim},) or (P, {config.input_dim}), got {x.shape}")


def loss_and_grad(params: ParameterVector, config: ModelConfig, batch):
    """Mean cross-entropy and its gradient over ``batch``.

    ``batch`` needs ``features`` (n, input_dim) and integer ``labels`` (n,).
    The rows are put in one canonical order first, so the result does not
    depend on the order they came in (equal rows are interchangeable).
    """
    feats = np.ascontiguousarray(batch.features, dtype=np.float64)
    labels = np.asarray(batch.labels)
    n = labels.size
    if feats.shape != (n, config.input_dim):
        raise ValueError(f"expected features of shape ({n}, {config.input_dim}), got {feats.shape}")
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ValueError(f"labels must lie in [0, {config.num_classes})")
    # Sort by the bytes of each row's (features, label): a void view compares them as strings.
    keys = np.column_stack((feats, labels.astype(np.int64).view(np.float64)))
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1] * 8)))[:, 0])
    feats, labels = feats[order], labels[order]

    layers = params.layer_views
    # (n, 1, k) activations: each sample is its own (1, k) @ (k, k') gemv.
    acts = [a[:, 0, :] for a in _activations(layers, feats[:, None, :])]
    logits = acts.pop()

    rows = np.arange(n)
    m = logits.max(axis=1)
    ex = np.exp(logits - m[:, None])
    se = ex.sum(axis=1)
    losses = m + np.log(se) - logits[rows, labels]

    dz = ex / se[:, None]
    dz[rows, labels] -= 1.0

    grad = np.empty(params.values.size)
    for li in range(len(layers) - 1, -1, -1):
        (w_shape, w_off), (_, b_off) = params.layout[2 * li], params.layout[2 * li + 1]
        dw = grad[w_off : w_off + w_shape[0] * w_shape[1]].reshape(w_shape)
        np.matmul(acts[li].T, dz, out=dw)
        np.add.reduce(dz, axis=0, out=grad[b_off : b_off + w_shape[1]])
        if li:
            # ReLU' from the output: relu(z) > 0 exactly where z > 0, NaN included.
            dz = (dz @ layers[li][0].T) * (acts[li] > 0.0)

    loss = float(np.add.reduce(losses)) / n
    grad /= n
    return loss, grad


@dataclass
class OptimizerState:
    """SGD state, or Adam state when the moment arrays ``m`` and ``v`` are set."""

    learning_rate: float
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be >= 0")

    @classmethod
    def sgd(cls, learning_rate: float) -> "OptimizerState":
        return cls(learning_rate)

    @classmethod
    def adam(cls, learning_rate: float, size: int) -> "OptimizerState":
        return cls(learning_rate, m=np.zeros(size), v=np.zeros(size))

    def reset(self) -> None:
        """Zero accumulated moments and the step counter (no-op for SGD)."""
        if self.m is not None:
            self.m[:] = 0.0
            self.v[:] = 0.0
            self.step = 0


def optimizer_step(params: ParameterVector, grad, state: OptimizerState) -> ParameterVector:
    """One optimizer update; returns new parameters, advances ``state``."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ValueError("gradient length does not match parameter vector")
    if state.m is None:
        new = params.values - state.learning_rate * g
    else:
        state.step += 1
        state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
        state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
        v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
        new = params.values - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ParameterVector(new, params.layout)
