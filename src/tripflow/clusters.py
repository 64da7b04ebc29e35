"""Cluster extraction: turn CP components into concrete trip subsets.

A component does not partition the trips; it assigns weights. Following the
top-N reading, a cluster is the set of trips whose hour is among the
component's top-N time weights and whose dropoff tract is among its top-N
dropoff weights. Pickup tracts are deliberately unconstrained: the question
is where people go, not where they come from. Clusters may overlap.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .files import write_csv
from .ingest import TransitionCounts, transition_counts, trip_rows
from .tensor import FactorSet


def top_indices(column: Sequence[float], n: int) -> list[int]:
    """Indices of the n largest weights, descending; ties go to the lower index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = np.asarray(column, dtype=float)
    if weights.size == 0:
        raise ValueError("empty weight vector")
    return np.lexsort((np.arange(weights.size), -weights))[:n].tolist()


def cluster_selection(f: FactorSet, component: int, n: int) -> tuple[list[int], list[int]]:
    """Top-n hours and top-n dropoff tracts of one component's factor columns, in rank order."""
    if not 0 <= component < f.r:
        raise IndexError(f"component {component} out of range for r={f.r}")
    return top_indices(f.time[:, component], n), top_indices(f.dropoff[:, component], n)


def cluster_counts(trips: Iterable[Sequence[int]], hours: Sequence[int], dropoffs: Sequence[int],
                   size: int) -> TransitionCounts:
    """Transition counts of the trips whose hour and dropoff tract are both selected."""
    rows = trip_rows(trips, size)
    keep = np.isin(rows[:, 0], hours) & np.isin(rows[:, 2], dropoffs)
    return transition_counts(rows[keep], size)


def write_membership(path, f: FactorSet, component: int, hours: Sequence[int],
                     dropoffs: Sequence[int]) -> None:
    """Export a cluster_selection's hours and dropoff tracts with their component weights."""
    write_csv(path, ["kind", "index", "weight"],
              [["hour", i, repr(float(f.time[i, component]))] for i in hours]
              + [["dropoff", i, repr(float(f.dropoff[i, component]))] for i in dropoffs])
