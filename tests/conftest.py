from itertools import permutations

import numpy as np
import pytest

from tripflow.geo import GeoPoint, StateSpace, Tract
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
