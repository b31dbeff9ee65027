"""Uncertainty scores over perturbed predictions of a single sample.

Drawing the perturbed copies, forwarding them and scoring them are
separate steps. ``perturb_features`` draws the P copies of every row of
an (n, d) block in one call; ``copy_logits`` forwards all n x P copies
as one (n * P, d) block, checks the block's logits for finiteness once and
returns them as (n, P, C); ``score_sample`` scores one sample from its
(P, C) logit set. The block forward is per-row exact (see
``model``), so each sample's logits are the same bits as when its copies
are forwarded alone.

The variance-style score is the Bregman information (mean log-sum-exp of
the P logit rows minus log-sum-exp of the mean row); the confidence-style
scores (least confidence, ratio, entropy) act on row-wise softmax
probabilities. Each metric has one implementation, and ``score_sample``
is the one way in; it checks nothing, because its logits were checked
with their block. Every reduction works on one sample's set with array
operations, while sums over the P axis and over a row use exactly
rounded summation (``math.fsum`` on Python lists), so scores are
invariant to the order of the perturbed copies. The copies are drawn
from the generator that the caller must pass to ``PerturbationSpec``; a
block draw leaves it where one draw per row, in row order, would.

Each reduction works on about 12 x 8 logits, so its cost is mostly the
fixed cost of each numpy call, and the code keeps their number low: BI
appends the mean row to the logit rows and takes all P + 1 log-sum-exps
in one max/exp pass. Exponentials stay ``np.exp`` and logarithms
``math.log``: ``math.exp`` and ``np.log`` differ from them in the last
bit on some inputs, which would change the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ParameterVector, forward_logits

METRICS = ("bi", "lc", "rc", "en")

PERTURBATION_KINDS = ("gaussian", "mask")

# Negative values above this are floating-point noise on a quantity that is
# nonnegative by Jensen's inequality; they are clamped to zero.
_BI_CLAMP = -1e-12


def _lse_rows(z: np.ndarray) -> list[float]:
    """Per-row max(z) + log(fsum(exp(z - max(z)))) of a finite 2-D array."""
    m = z.max(axis=1)
    shifted = np.exp(z - m[:, None]).tolist()
    return [mi + math.log(math.fsum(row)) for mi, row in zip(m.tolist(), shifted)]


def _bi(z: np.ndarray) -> float:
    """Bregman information of a finite (P, C) logit set: the variance of its rows in logit space.

    mean_i LSE(z_i) - LSE(mean_i z_i) over the P rows. Zero exactly when
    all rows coincide (Jensen equality); tiny negative rounding residue is
    clamped to zero. The mean row, each entry the per-column ``math.fsum``
    divided by P, is appended to the P rows, and all P + 1 log-sum-exps
    come from one max/exp pass over that block.
    """
    if (z == z[0]).all():
        return 0.0
    p = z.shape[0]
    rows = np.empty((p + 1, z.shape[1]))
    rows[:p] = z
    rows[p] = [math.fsum(col) / p for col in z.T.tolist()]
    *lse, lse_mean = _lse_rows(rows)
    bi = math.fsum(lse) / p - lse_mean
    if _BI_CLAMP <= bi < 0.0:
        return 0.0
    return bi


def _top_two(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and second-largest entry of each row."""
    top2 = np.partition(p, -2, axis=1)
    return top2[:, -1], top2[:, -2]


def _lc(p: np.ndarray) -> float:
    return 1.0 - math.fsum(p.max(axis=1).tolist()) / p.shape[0]


def _rc(p: np.ndarray) -> float:
    # A probability row sums to 1, so its top entry is positive.
    first, second = _top_two(p)
    return math.fsum((second / first).tolist()) / p.shape[0]


def _en(p: np.ndarray) -> float:
    # log(1) = 0 stands in for log(0), so zero entries add exact zeros.
    terms = p * np.log(np.where(p > 0.0, p, 1.0))
    return math.fsum([-math.fsum(row) for row in terms.tolist()]) / p.shape[0]


# The confidence scores, each a mean over the P softmax rows: lc is 1 - the
# top-class probability, rc the runner-up's ratio to the top class and en
# the Shannon entropy with 0 * log 0 = 0.
_SCORERS = {"lc": _lc, "rc": _rc, "en": _en}


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class PerturbationSpec:
    """How to generate the P perturbed copies of an input.

    ``gaussian`` adds N(0, sigma^2) noise per dimension; ``mask`` zeroes a
    fraction of coordinates chosen independently per copy. The caller must
    pass the generator, so determinism across calls is the caller's contract.
    """

    count: int
    kind: str = "gaussian"
    sigma: float = 0.1
    mask_fraction: float = 0.0
    rng: np.random.Generator = field(kw_only=True)


def perturb_features(x, spec: PerturbationSpec) -> np.ndarray:
    """The ``spec.count`` perturbed copies of each row of ``x``: (d,) gives (P, d), (n, d) gives (n, P, d).

    The gaussian kind is one ``normal`` draw for the whole block, which
    gives the values of one (P, d) draw per row in row order; the mask kind
    makes one ``choice`` per copy, row by row.
    """
    base = np.asarray(x, dtype=np.float64)[..., None, :]
    *rows, _, d = base.shape
    if spec.kind == "gaussian":
        return base + spec.rng.normal(0.0, spec.sigma, size=(*rows, spec.count, d))
    copies = np.repeat(base, spec.count, axis=-2)
    k = int(round(spec.mask_fraction * d))
    if k > 0:
        for copy in copies.reshape(-1, d):
            copy[spec.rng.choice(d, size=k, replace=False)] = 0.0
    return copies


def copy_logits(params: ParameterVector, config: ModelConfig, copies: np.ndarray) -> np.ndarray:
    """(n, P, C) logits of the (n, P, d) perturbed copies, forwarded as one (n * P, d) block.

    Raises ``FloatingPointError`` if any entry of the block is inf or NaN.
    """
    n, p, d = copies.shape
    logits = forward_logits(params, config, copies.reshape(n * p, d))
    if not np.isfinite(logits).all():
        raise FloatingPointError("logit set entries must be finite")
    return logits.reshape(n, p, config.num_classes)


def score_sample(logits: np.ndarray, metric: str) -> float:
    """Uncertainty of one sample from its finite (P, C) logit set, one row of ``copy_logits``."""
    if metric == "bi":
        return _bi(logits)
    return _SCORERS[metric](softmax_rows(logits))
