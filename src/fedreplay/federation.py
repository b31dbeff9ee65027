"""Communication scheduling and parameter aggregation.

Clients join communication rounds only after a per-task burn-in and then
every q-th batch. Aggregation is either a plain (optionally weighted)
coordinate mean or a class-weighted mean that first averages the clients
reporting each class and then averages the per-class models, so every
class present in the round contributes equally. Freshly aggregated
parameters are smoothed with the previous round's global parameters.

Coordinate sums go through ``exact.fsum_columns`` and are exactly rounded,
so both averages are invariant to client order (and class order) bit for
bit, and identical class reports collapse exactly to the plain average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import fsum_columns
from .model import ParameterVector

AGGREGATIONS = ("fedavg", "class_weighted", "fedprox")


@dataclass(frozen=True)
class CommSchedule:
    burn_in: int
    q: int

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.q < 1:
            raise ValueError("q must be >= 1")


@dataclass
class GlobalState:
    """The global parameters of the last round plus the round counter."""

    theta_g: ParameterVector
    round: int = 0


@dataclass
class RoundReport:
    """Per-client parameters and the class ids each observed since the last round."""

    params: list[ParameterVector]
    class_reports: list[set[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.params:
            raise ValueError("round report needs at least one client")
        if self.class_reports and len(self.class_reports) != len(self.params):
            raise ValueError("one class report per client required")
        _check_layouts(self.params)


def _check_layouts(params: list[ParameterVector]) -> None:
    first = params[0]
    for p in params[1:]:
        if p.layout != first.layout:
            raise ValueError("parameter vectors do not share one layout")


def should_communicate(bn: int, schedule: CommSchedule) -> bool:
    """True once the per-task batch counter passed burn-in and hits a q multiple."""
    if bn < 0:
        raise ValueError("bn must be >= 0")
    return bn > schedule.burn_in and bn % schedule.q == 0


def _exact_mean(vectors: list[np.ndarray], weights=None) -> np.ndarray:
    stacked = np.stack(vectors)
    if weights is None:
        total = float(len(vectors))
    else:
        stacked = stacked * np.asarray(weights, dtype=np.float64)[:, None]
        total = math.fsum(weights)
    out = fsum_columns(stacked)
    out /= total
    return out


def fedavg(params: list[ParameterVector], weights=None) -> ParameterVector:
    """Coordinate-wise (weighted) mean of the client parameter vectors."""
    if not params:
        raise ValueError("fedavg needs at least one parameter vector")
    _check_layouts(params)
    if weights is not None:
        weights = [float(w) for w in weights]
        if len(weights) != len(params):
            raise ValueError("one weight per parameter vector required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if math.fsum(weights) <= 0:
            raise ValueError("weights must not sum to zero")
    return ParameterVector(_exact_mean([p.values for p in params], weights), params[0].layout)


def class_weighted_avg(report: RoundReport) -> ParameterVector:
    """Average per-class aggregated models so each reported class counts once.

    Clients that report no classes are excluded; with no classes reported
    at all the result falls back to a plain average over every client.
    Identical (non-empty) reports make every per-class model coincide, so
    that case returns the shared client mean directly, which is also what
    makes the reduction to the plain average exact.
    """
    if not report.class_reports:
        raise ValueError("class_weighted_avg needs class reports")
    active = [(p, s) for p, s in zip(report.params, report.class_reports) if s]
    if not active:
        return fedavg(report.params)
    first = active[0][1]
    if all(s == first for _, s in active[1:]):
        return fedavg([p for p, _ in active])
    classes = sorted(set().union(*(s for _, s in active)))
    class_models = [
        _exact_mean([p.values for p, s in active if c in s]) for c in classes
    ]
    return ParameterVector(_exact_mean(class_models), report.params[0].layout)


def temporal_smooth(theta_new: ParameterVector, state: GlobalState) -> ParameterVector:
    """Midpoint of the new and previous global parameters; pass-through on round 0."""
    if state.round == 0:
        return theta_new
    if theta_new.layout != state.theta_g.layout:
        raise ValueError("parameter vectors do not share one layout")
    return ParameterVector(
        (theta_new.values + state.theta_g.values) / 2.0, theta_new.layout
    )


def broadcast(theta_g: ParameterVector, clients) -> None:
    """Overwrite every client's local parameters with a copy of ``theta_g``."""
    for client in clients:
        if client.params.layout != theta_g.layout:
            raise ValueError("parameter vectors do not share one layout")
        client.params = theta_g.copy()
