"""Cluster extraction: turn CP components into concrete trip subsets.

A component does not partition the trips; it assigns weights. Following the
top-N reading, a cluster is the set of trips whose hour is among the
component's top-N time weights and whose dropoff tract is among its top-N
dropoff weights. Pickup tracts are deliberately unconstrained: the question
is where people go, not where they come from. Clusters may overlap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import TransitionCounts, TripRows, transition_counts
from .tensor import FactorSet


@dataclass(frozen=True)
class ClusterSpec:
    component: int
    top_hours: frozenset[int]
    top_dropoffs: frozenset[int]
    n: int

    def __post_init__(self):
        if len(self.top_hours) > self.n or len(self.top_dropoffs) > self.n:
            raise ValueError("selection sets exceed n")


def top_indices(column: Sequence[float], n: int) -> list[int]:
    """Indices of the n largest weights, descending; ties go to the lower index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = np.asarray(column, dtype=float)
    if weights.size == 0:
        raise ValueError("empty weight vector")
    return np.lexsort((np.arange(weights.size), -weights))[:n].tolist()


def cluster_spec(f: FactorSet, component: int, n: int) -> ClusterSpec:
    """Top-n hours and dropoff tracts of one component's factor columns."""
    if not 0 <= component < f.r:
        raise IndexError(f"component {component} out of range for r={f.r}")
    hours, dropoffs = (top_indices(m[:, component], n) for m in (f.time, f.dropoff))
    return ClusterSpec(component=component, top_hours=frozenset(hours),
                       top_dropoffs=frozenset(dropoffs), n=n)


def select_cluster_trips(trips: TripRows, spec: ClusterSpec) -> np.ndarray:
    """Trip rows whose hour and dropoff tract both fall in the spec's top sets, in order."""
    rows = np.asarray(trips, dtype=np.int64).reshape(-1, 3)
    keep = np.isin(rows[:, 0], list(spec.top_hours)) & np.isin(rows[:, 2], list(spec.top_dropoffs))
    return rows[keep]


def cluster_counts(trips: TripRows, f: FactorSet, component: int,
                   n: int, size: int) -> TransitionCounts:
    """Transition counts restricted to one component's cluster."""
    return transition_counts(select_cluster_trips(trips, cluster_spec(f, component, n)), size)


def write_membership(path, f: FactorSet, component: int, n: int) -> None:
    """Export one component's selected hours and dropoff tracts with weights."""
    if not 0 <= component < f.r:
        raise IndexError(f"component {component} out of range for r={f.r}")
    rows = [[kind, i, repr(float(m[i, component]))]
            for kind, m in (("hour", f.time), ("dropoff", f.dropoff))
            for i in top_indices(m[:, component], n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "weight"])
        writer.writerows(rows)
