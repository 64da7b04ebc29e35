import math
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path
from typing import Optional, Sequence

import mpmath
import numpy as np
import pytest

from tripflow.geo import EARTH_RADIUS_KM, MIN_DISTANCE_KM, GeoPoint, StateSpace, Tract
from tripflow.hypotheses import CatalogConfig
from tripflow.ingest import Trip
from tripflow.synth import GridSpec, PropertyRecipe, _categorical, _hours, generate_state_space
from tripflow.tensor import UPDATE_FLOOR, FactorSet, MobilityTensor, _normalize_columns


def make_space(distances, properties=None) -> StateSpace:
    """State space with an explicit distance matrix, throwaway geometry and property columns.

    Lets tests pin exact distances (collinear layouts, dist == 1 everywhere)
    without reverse-engineering coordinates. The matrix must keep the
    invariants of a derived one: square, zero on the diagonal, symmetric, and
    at least ``MIN_DISTANCE_KM`` off the diagonal.
    """
    distances = np.array(distances, dtype=float)
    n = len(distances)
    assert distances.shape == (n, n)
    assert not np.diagonal(distances).any()
    assert np.array_equal(distances, distances.T)
    assert (distances[~np.eye(n, dtype=bool)] >= MIN_DISTANCE_KM).all()
    distances.setflags(write=False)
    tracts = tuple(Tract(id=f"T{i}", centroid=GeoPoint(0.0, i * 0.01), area=1.0)
                   for i in range(n))
    columns = {key: np.array(column, dtype=float) for key, column in (properties or {}).items()}
    space = StateSpace(tracts=tracts, properties=columns)
    space.__dict__["distances"] = distances  # pinned: the cached property never computes
    return space


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


def fresh_python(*args: str, env: dict) -> str:
    """Standard output of a new interpreter, run with `args`, that imports `src/`'s tripflow."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
        for index, t in enumerate(space.tracts):
            if t.polygon is not None and point_in_polygon(p, t.polygon):
                return index
        return None
    best, best_d = 0, math.inf
    for index, t in enumerate(space.tracts):
        d = scalar_haversine(p, t.centroid)
        if d < best_d:
            best, best_d = index, d
    return best


# --- O(S^3) mask loops: the per-origin bodies that the sorted opportunity kernel replaced,
# kept as its oracle. Each returns the belief matrix with its diagonal zeroed.


def loop_rank_distance(space: StateSpace, w) -> np.ndarray:
    weights = np.asarray(w.w, dtype=float)
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


def loop_intervening_opportunities(space: StateSpace, w, eps: float) -> np.ndarray:
    weights = np.asarray(w.w, dtype=float)
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


# --- per-pickup mask sampling: the bodies that ``synth``'s grouped inverse-CDF sampling and
# its array rows replaced, kept as their oracles


def mask_from_hypothesis(q, start_weights, count, seed, hour_weights=None) -> np.ndarray:
    """``generate_from_hypothesis``'s draws as (count, 3) rows, one full-length mask a pickup."""
    starts = np.asarray(start_weights, dtype=float)
    rows = q.q / np.maximum(q.q.sum(axis=1, keepdims=True), np.finfo(float).tiny)
    reachable = np.flatnonzero(starts > 0)
    dead = [int(i) for i in reachable if q.q[i].sum() == 0]
    if dead:
        raise ValueError(f"start tracts {dead} have all-zero belief rows")

    rng = np.random.default_rng(seed)
    pickups = _categorical(rng, starts, count)
    hours = np.zeros(count, dtype=int) if hour_weights is None else _hours(rng, hour_weights, count)
    uniforms = rng.random(count)
    dropoffs = np.empty(count, dtype=np.int64)
    for i in np.unique(pickups):  # only rows that occur: a dead row's CDF would be 0/0
        cdf = rows[i].cumsum()
        cdf /= cdf[-1]
        picked = pickups == i
        dropoffs[picked] = cdf.searchsorted(uniforms[picked], side="right")
    return np.column_stack((hours, pickups, dropoffs))


def per_cluster_trips(clusters, seed) -> list[Trip]:
    """``generate_trips``' draws, one ``Trip`` list extended per cluster."""
    rng = np.random.default_rng(seed)
    trips: list[Trip] = []
    for cluster in clusters:
        hours = _hours(rng, cluster.hour_weights, cluster.trip_count)
        pickups = _categorical(rng, cluster.pickup_weights, cluster.trip_count)
        dropoffs = _categorical(rng, cluster.dropoff_weights, cluster.trip_count)
        trips.extend(Trip(*row) for row in np.column_stack((hours, pickups, dropoffs)).tolist())
    return trips


# --- NTF kernels: the bodies that ``tensor._mttkrp``, ``tensor._error_from_slices`` and the
# update's Gram product replaced, kept as their oracles


def addat_mttkrp(coords, vals, factors, mode, dims):
    """MTTKRP scattered row by row into a zero matrix with ``np.add.at``."""
    a, b = (m for m in range(3) if m != mode)
    contrib = vals[:, None] * factors[a][coords[a]] * factors[b][coords[b]]
    out = np.zeros((dims[mode], factors[0].shape[1]))
    np.add.at(out, coords[mode], contrib)
    return out


def dense_slice_error(coords, vals, dims, factors, scale) -> float:
    """Frobenius error from each hour's entries scattered into a zero slice, minus the model."""
    hours, pickups, dropoffs = coords
    tfac, pfac, dfac = factors
    boundaries = np.searchsorted(hours, np.arange(dims[0] + 1))
    err2 = 0.0
    for h in range(dims[0]):
        weights = scale * tfac[h]
        model = (pfac * weights) @ dfac.T
        lo, hi = boundaries[h], boundaries[h + 1]
        if hi > lo:
            slice_dense = np.zeros((dims[1], dims[2]))
            slice_dense[pickups[lo:hi], dropoffs[lo:hi]] = vals[lo:hi]
            err2 += float(((slice_dense - model) ** 2).sum())
        else:
            err2 += float((model ** 2).sum())
    return float(np.sqrt(max(err2, 0.0)))


def oracle_decompose(x: MobilityTensor, r: int, opts) -> tuple[list, np.ndarray, list[float]]:
    """``ntf_decompose``'s sweeps with the oracle kernels and the update's Gram product built
    from a ones matrix; returns the factors, the scale and the error trace."""
    *coords, vals = x.coords()
    rng = np.random.default_rng(opts.seed)
    factors, scale = [], np.ones(r)
    for dim in x.dims:
        normalized, norms = _normalize_columns(1.0 - rng.random((dim, r)))
        factors.append(normalized)
        scale *= norms
    errors = [dense_slice_error(coords, vals, x.dims, factors, scale)]
    grams = [f.T @ f for f in factors]
    for _ in range(opts.max_iters):
        for mode in range(3):
            scaled = factors[mode] * scale
            numerator = addat_mttkrp(coords, vals, factors, mode, x.dims)
            gram = np.ones((r, r))
            for m in range(3):
                if m != mode:
                    gram *= grams[m]
            scaled *= numerator / np.maximum(scaled @ gram, UPDATE_FLOOR)
            factors[mode], scale = _normalize_columns(scaled)
            grams[mode] = factors[mode].T @ factors[mode]
        errors.append(dense_slice_error(coords, vals, x.dims, factors, scale))
        if abs(errors[-2] - errors[-1]) <= opts.rel_tol * x.frobenius_norm():
            break
    return factors, scale, errors


def dense_log_evidence(counts: np.ndarray, alpha: np.ndarray) -> float:
    """The log evidence with its cell term evaluated on every cell, zero counts included."""
    from scipy.special import gammaln

    row_alpha = alpha.sum(axis=1)
    value = (gammaln(row_alpha) - gammaln(row_alpha + counts.sum(axis=1))
             + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=1))
    return float(value.sum())


def exact_log_evidence(counts: np.ndarray, alpha: np.ndarray) -> mpmath.mpf:
    """The log evidence of the double-precision prior, at 40 significant digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for row_alpha, row_counts in zip(alpha.tolist(), counts.tolist()):
            a_sum = mpmath.fsum(row_alpha)  # each double is exact in mpf
            total += mpmath.loggamma(a_sum) - mpmath.loggamma(a_sum + sum(row_counts))
            total += mpmath.fsum(mpmath.loggamma(mpmath.mpf(a) + n) - mpmath.loggamma(a)
                                 for a, n in zip(row_alpha, row_counts) if n)
        return +total
