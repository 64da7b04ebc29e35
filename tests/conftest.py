import math
from itertools import permutations
from typing import Optional, Sequence

import numpy as np
import pytest

from tripflow.geo import EARTH_RADIUS_KM, GeoPoint, StateSpace, Tract
from tripflow.hypotheses import CatalogConfig
from tripflow.synth import GridSpec, PropertyRecipe, generate_state_space
from tripflow.tensor import FactorSet, MobilityTensor


def make_space(distances, properties=None) -> StateSpace:
    """State space with an explicit distance matrix and throwaway geometry.

    Lets tests pin exact distances (collinear layouts, dist == 1 everywhere)
    without reverse-engineering coordinates.
    """
    distances = np.asarray(distances, dtype=float)
    n = distances.shape[0]
    tracts = tuple(
        Tract(id=f"T{i}", index=i, centroid=GeoPoint(0.0, i * 0.01), area=1.0,
              properties=dict(properties[i]) if properties else {})
        for i in range(n)
    )
    return StateSpace(tracts=tracts, distances=distances)


@pytest.fixture(scope="session")
def grid_space() -> StateSpace:
    """20-tract grid carrying every property the default catalog needs."""
    recipe = PropertyRecipe(keys=CatalogConfig().required_keys())
    return generate_state_space(GridSpec(rows=4, cols=5), recipe, seed=3)


@pytest.fixture(scope="session")
def city_space() -> StateSpace:
    """288-tract grid covering the default landmark coordinates.

    The sigma=0.01 landmark kernels underflow to all-zero unless some tract
    centroid sits within a couple hundred meters of each landmark, so
    default-catalog tests need this layout.
    """
    grid = GridSpec(rows=24, cols=12, origin=GeoPoint(40.738, -73.998), spacing_km=0.25)
    recipe = PropertyRecipe(keys=CatalogConfig().required_keys())
    return generate_state_space(grid, recipe, seed=42)


def planted_rank3() -> tuple[MobilityTensor, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """24x20x20 rank-3 tensor with disjoint supports and exact integer counts."""
    time_profile = np.array([3, 1, 2, 4, 2, 1, 3, 2], dtype=float)
    pickup_profile = np.array([2, 1, 3, 1, 2, 1], dtype=float)
    dropoff_profile = np.array([1, 3, 2, 1, 1, 2], dtype=float)
    generators = []
    dense = np.zeros((24, 20, 20))
    for c in range(3):
        t = np.zeros(24)
        p = np.zeros(20)
        d = np.zeros(20)
        t[c * 8:(c + 1) * 8] = time_profile
        p[c * 6:(c + 1) * 6] = pickup_profile
        d[c * 6:(c + 1) * 6] = dropoff_profile
        generators.append((t, p, d))
        dense += t[:, None, None] * p[None, :, None] * d[None, None, :]
    entries = np.argwhere(dense)
    return MobilityTensor(dims=(24, 20, 20), entries=entries,
                          values=dense[tuple(entries.T)]), generators


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0


def best_match_min_cosine(f: FactorSet, generators) -> float:
    """Best bipartite component matching, scored by its worst per-mode cosine."""
    best = -1.0
    for perm in permutations(range(len(generators))):
        worst = min(
            min(cosine(f.time[:, c], generators[g][0]),
                cosine(f.pickup[:, c], generators[g][1]),
                cosine(f.dropoff[:, c], generators[g][2]))
            for c, g in enumerate(perm))
        best = max(best, worst)
    return best


# --- scalar haversine: the ``math`` formula that ``geo.haversine_km`` replaced, kept as its oracle


def scalar_haversine(a: GeoPoint, b: GeoPoint) -> float:
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


# --- scalar point location: the per-point loop that ``geo.locate`` replaced, kept as its oracle


def _on_segment(px, py, x1, y1, x2, y2, eps=1e-12):
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > eps:
        return False
    return (min(x1, x2) - eps <= px <= max(x1, x2) + eps
            and min(y1, y2) - eps <= py <= max(y1, y2) + eps)


def point_in_polygon(p: GeoPoint, ring: Sequence[GeoPoint]) -> bool:
    """Even-odd containment test in planar (lon, lat) space; boundary is inside."""
    px, py = p.lon, p.lat
    inside = False
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        x1, y1, x2, y2 = a.lon, a.lat, b.lon, b.lat
        if _on_segment(px, py, x1, y1, x2, y2):
            return True
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def scalar_locate(p: GeoPoint, space: StateSpace) -> Optional[int]:
    """Lowest-index ring containing ``p`` (None if none), or the nearest centroid."""
    if any(t.polygon is not None for t in space.tracts):
        for t in space.tracts:
            if t.polygon is not None and point_in_polygon(p, t.polygon):
                return t.index
        return None
    best, best_d = 0, math.inf
    for t in space.tracts:
        d = scalar_haversine(p, t.centroid)
        if d < best_d:
            best, best_d = t.index, d
    return best


# --- O(S^3) mask loops: the per-origin bodies that the sorted opportunity kernel replaced,
# kept as its oracle. Each returns the belief matrix with its diagonal zeroed.


def loop_rank_distance(space: StateSpace, w, unweighted: bool = False) -> np.ndarray:
    weights = np.ones(len(space)) if unweighted else np.asarray(w.w, dtype=float)
    n = len(space)
    q = np.zeros((n, n))
    for i in range(n):
        row_d = space.distances[i]
        closer = row_d[None, :] < row_d[:, None]  # [j, u]: u strictly closer than j
        closer[:, i] = False
        rank = closer @ weights
        q[i] = 1.0 / np.maximum(rank, 1.0)
    np.fill_diagonal(q, 0.0)
    return q


def loop_intervening_opportunities(space: StateSpace, w, eps: float,
                                   unweighted: bool = False) -> np.ndarray:
    weights = np.ones(len(space)) if unweighted else np.asarray(w.w, dtype=float)
    n = len(space)
    q = np.zeros((n, n))
    for i in range(n):
        row_d = space.distances[i]
        gap = row_d[None, :] - row_d[:, None]  # [j, u]: dist(i,u) - dist(i,j)
        at_distance = np.abs(gap) <= eps
        closer = gap < -eps
        at_distance[:, i] = False
        closer[:, i] = False
        numerator = at_distance @ weights
        denominator = closer @ weights
        q[i] = numerator / np.maximum(denominator, 1.0)
    np.fill_diagonal(q, 0.0)
    return q
