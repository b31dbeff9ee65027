"""Feed-forward classifier on a flat float64 parameter vector.

The network is a plain MLP (ReLU hidden layers, linear output head) whose
weights live in one flat array with an explicit layout, so exchanging
parameters between clients and server is an array copy. The batch loss is
summed by ``math.fsum`` and the gradient by ``exact.fsum_columns``, both
exactly rounded, which makes them bit-identical under any reordering or
duplication of the batch samples.

Per-row work is stacked but stays per-row exact: a (P, d) block is run as
P vector-matrix products (``x[:, None, :] @ w``, one BLAS gemv per row),
and the backward pass stacks matrix-vector products and forms outer
products by broadcasting. Each row therefore gets the same bits as when it
is computed alone. ``forward_batch`` is a single matrix product instead,
which is faster but may differ from the per-row result in the last bits.

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

from .exact import fsum_columns

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

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims entries must be >= 1")

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

    def values_equal(self, other: "ParameterVector") -> bool:
        return self.layout == other.layout and np.array_equal(self.values, other.values)

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


def _forward(layers, a: np.ndarray) -> np.ndarray:
    for w, b in layers[:-1]:
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
    w, b = layers[-1]
    a = a @ w
    a += b
    return a


def forward_logits(params: ParameterVector, config: ModelConfig, features) -> np.ndarray:
    """Logits, no softmax, for one input (d,) or a block of P inputs (P, d).

    A block's rows are forwarded as stacked vector-matrix products, so row i
    of the result is bit-identical to ``forward_logits`` of row i alone.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape == (config.input_dim,):
        return _forward(params.layer_views, x)
    if x.ndim == 2 and x.shape[1] == config.input_dim:
        return _forward(params.layer_views, np.ascontiguousarray(x)[:, None, :])[:, 0, :]
    raise ValueError(f"expected features of shape ({config.input_dim},) or (P, {config.input_dim}), got {x.shape}")


def forward_batch(params: ParameterVector, config: ModelConfig, features) -> np.ndarray:
    """Logits for a batch of inputs, shape (n, num_classes), as one matrix product."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"expected features of shape (n, {config.input_dim}), got {x.shape}")
    return _forward(params.layer_views, x)


def loss_and_grad(params: ParameterVector, config: ModelConfig, batch):
    """Mean cross-entropy and its gradient over ``batch``.

    ``batch`` needs ``features`` (n, input_dim) and integer ``labels`` (n,).
    Every sample's forward and backward pass is a stack of per-sample
    mat-vec products, so its contribution does not depend on the others;
    contributions are reduced with exactly rounded summation so the result
    does not depend on sample order.
    """
    feats = np.ascontiguousarray(batch.features, dtype=np.float64)
    labels = np.asarray(batch.labels)
    n = labels.size
    if n == 0:
        raise ValueError("empty batch")
    if feats.shape != (n, config.input_dim):
        raise ValueError(f"expected features of shape ({n}, {config.input_dim}), got {feats.shape}")
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ValueError(f"labels must lie in [0, {config.num_classes})")

    layers = params.layer_views
    # (n, 1, k) activations: each sample is its own (1, k) @ (k, k') gemv.
    acts = [feats[:, None, :]]
    pre = []
    for w, b in layers[:-1]:
        z = acts[-1] @ w + b
        pre.append(z[:, 0, :])
        acts.append(np.maximum(z, 0.0))
    w_out, b_out = layers[-1]
    logits = (acts[-1] @ w_out + b_out)[:, 0, :]

    rows = np.arange(n)
    m = logits.max(axis=1)
    ex = np.exp(logits - m[:, None])
    se = ex.sum(axis=1)
    # math.log per sample, as in scalar code: np.log need not round the same.
    log_se = np.array([math.log(s) for s in se.tolist()])
    losses = m + log_se - logits[rows, labels]

    dz = ex / se[:, None]
    dz[rows, labels] -= 1.0

    contribs = np.empty((n, params.values.size))
    for li in range(len(layers) - 1, -1, -1):
        (w_shape, w_off), (_, b_off) = params.layout[2 * li], params.layout[2 * li + 1]
        # Outer products by broadcasting, written straight into the rows.
        dw = contribs[:, w_off : w_off + w_shape[0] * w_shape[1]].reshape(n, *w_shape)
        np.multiply(acts[li][:, 0, :, None], dz[:, None, :], out=dw)
        contribs[:, b_off : b_off + w_shape[1]] = dz
        if li:
            upstream = (layers[li][0] @ dz[:, :, None])[:, :, 0]
            dz = upstream * (pre[li - 1] > 0.0)

    loss = math.fsum(losses.tolist()) / n
    grad = fsum_columns(contribs)
    grad /= n
    return loss, grad


def fedprox_augment(grad, params, global_params, mu: float) -> np.ndarray:
    """Add the proximal-term gradient mu * (theta - theta_g) to ``grad``."""
    g = np.asarray(grad, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    gp = np.asarray(global_params, dtype=np.float64)
    if not (g.shape == p.shape == gp.shape):
        raise ValueError("grad, params and global_params must have the same length")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return g + mu * (p - gp)


@dataclass
class OptimizerState:
    """SGD or Adam state; Adam moment arrays exist iff kind == 'adam'."""

    kind: str
    learning_rate: float
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.kind == "adam" and (self.m is None or self.v is None):
            raise ValueError("adam state requires moment arrays")
        if self.kind == "sgd" and (self.m is not None or self.v is not None):
            raise ValueError("sgd state must not carry moment arrays")
        if self.step < 0:
            raise ValueError("step must be >= 0")

    @classmethod
    def sgd(cls, learning_rate: float) -> "OptimizerState":
        return cls(kind="sgd", learning_rate=learning_rate)

    @classmethod
    def adam(cls, learning_rate: float, size: int) -> "OptimizerState":
        return cls(kind="adam", learning_rate=learning_rate, m=np.zeros(size), v=np.zeros(size))

    def reset(self) -> None:
        """Zero accumulated moments and the step counter (no-op for SGD)."""
        if self.kind == "adam":
            self.m[:] = 0.0
            self.v[:] = 0.0
            self.step = 0


def optimizer_step(params: ParameterVector, grad, state: OptimizerState) -> ParameterVector:
    """One optimizer update; returns new parameters, advances ``state``."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ValueError("gradient length does not match parameter vector")
    if state.kind == "sgd":
        new = params.values - state.learning_rate * g
    else:
        state.step += 1
        state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
        state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
        v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
        new = params.values - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ParameterVector(new, params.layout)
