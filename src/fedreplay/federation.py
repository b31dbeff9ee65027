"""Communication scheduling and parameter aggregation.

Clients join communication rounds only after a per-task burn-in and then
every q-th batch. Aggregation is either a plain coordinate mean or a
class-weighted mean that first averages the clients reporting each class
and then averages the per-class models, so every class present in the
round contributes equally. Freshly aggregated parameters are smoothed
with the previous round's global parameters.

These functions hold no round state: the runner owns the global
parameters and the round log, and its ``broadcast`` hands each client a
copy of the smoothed vector.

Each mean adds every coordinate's values in ascending order, as the training
gradient adds its rows in one canonical order, so both averages are invariant
to client order (and class order) bit for bit, and identical class reports
collapse exactly. The sums are not exactly rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterVector

AGGREGATIONS = ("fedavg", "class_weighted")


@dataclass
class RoundReport:
    """Per-client parameters and the class ids each observed since the last round."""

    params: list[ParameterVector]
    class_reports: list[set[int]]

    def __post_init__(self):
        if len(self.class_reports) != len(self.params):
            raise ValueError("one class report per client required")
        _check_layouts(self.params)


def _check_layouts(params: list[ParameterVector]) -> None:
    first = params[0]
    for p in params[1:]:
        if p.layout != first.layout:
            raise ValueError("parameter vectors do not share one layout")


def should_communicate(bn: int, burn_in: int, q: int) -> bool:
    """True once the per-task batch counter passed burn-in and hits a q multiple."""
    return bn > burn_in and bn % q == 0


def _sorted_mean(vectors: list[np.ndarray]) -> np.ndarray:
    """Coordinate mean of ``vectors``, each coordinate's values added in ascending order."""
    stack = np.stack(vectors)
    stack.sort(axis=0)
    out = np.add.reduce(stack, axis=0)
    out /= len(vectors)
    return out


def fedavg(params: list[ParameterVector]) -> ParameterVector:
    """Coordinate-wise mean of the client parameter vectors."""
    _check_layouts(params)
    return ParameterVector(_sorted_mean([p.values for p in params]), params[0].layout)


def class_weighted_avg(report: RoundReport) -> ParameterVector:
    """Average per-class aggregated models so each reported class counts once.

    Clients that report no classes are excluded; at least one client must
    report a class, as every client that trained since the last round does.
    Identical (non-empty) reports make every per-class model coincide, so
    that case returns the shared client mean directly: the reduction to the
    plain average holds bit for bit, although a mean of equal sorted-order
    sums need not give back their bits.
    """
    active = [(p, s) for p, s in zip(report.params, report.class_reports) if s]
    first = active[0][1]
    if all(s == first for _, s in active[1:]):
        return fedavg([p for p, _ in active])
    classes = sorted(set().union(*(s for _, s in active)))
    class_models = [
        _sorted_mean([p.values for p, s in active if c in s]) for c in classes
    ]
    return ParameterVector(_sorted_mean(class_models), report.params[0].layout)


def temporal_smooth(theta_new: ParameterVector, theta_prev: ParameterVector | None) -> ParameterVector:
    """Midpoint of the new and previous global parameters; pass-through when there is no previous."""
    if theta_prev is None:
        return theta_new
    if theta_new.layout != theta_prev.layout:
        raise ValueError("parameter vectors do not share one layout")
    return ParameterVector((theta_new.values + theta_prev.values) / 2.0, theta_new.layout)
