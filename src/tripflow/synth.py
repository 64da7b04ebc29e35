"""Deterministic synthetic cities and trips with planted spatio-temporal structure.

Fixtures from this module are the ground truth for recovery tests: a planted
cluster mirrors one rank-1 tensor component (independent hour, pickup, and
dropoff draws), and trips can be generated directly from a belief matrix so
the true generating law is a known catalog hypothesis.

All sampling uses numpy's default_rng (PCG64), which is seedable and stable
across platforms; identical (spec, seed) inputs reproduce identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping, Optional, Sequence

import numpy as np

from .geo import GeoPoint, HOURS_PER_WEEK, StateSpace, Tract, write_tracts
from .hypotheses import CatalogConfig, HypothesisMatrix, WeightVector, build_mass, build_uniform
from .ingest import TRIPS_HEADER, Trip

KM_PER_DEGREE_LAT = 111.32
BASE_MONDAY = datetime(2013, 1, 7)  # a Monday, so hour-of-week 0 maps to 00:xx


@dataclass(frozen=True)
class GridSpec:
    """Regular grid of square tracts; index = row * cols + col, row 0 southmost."""

    rows: int
    cols: int
    origin: GeoPoint = GeoPoint(40.700, -74.010)
    spacing_km: float = 0.25

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid must be at least 2x2")


@dataclass(frozen=True)
class PropertyRecipe:
    """How tract indicators are generated.

    Each key gets an independent uniform draw in [low, high); ``overrides``
    then pins (key, tract index) cells to fixed values, which is how mass is
    concentrated in a chosen part of town.
    """

    keys: tuple[str, ...]
    low: float = 1.0
    high: float = 100.0
    overrides: Mapping[str, Mapping[int, float]] = field(default_factory=dict)


def generate_state_space(grid: GridSpec, recipe: PropertyRecipe, seed: int) -> StateSpace:
    """Lay out the tract grid and draw its indicator table deterministically."""
    rng = np.random.default_rng(seed)
    dlat = grid.spacing_km / KM_PER_DEGREE_LAT
    dlon = grid.spacing_km / (KM_PER_DEGREE_LAT * math.cos(math.radians(grid.origin.lat)))
    n = grid.rows * grid.cols
    table = {key: rng.uniform(recipe.low, recipe.high, size=n) for key in recipe.keys}
    for key, cells in recipe.overrides.items():
        for index, value in cells.items():
            table[key][index] = value

    tracts = []
    for row in range(grid.rows):
        for col in range(grid.cols):
            index = row * grid.cols + col
            south, west = grid.origin.lat + row * dlat, grid.origin.lon + col * dlon
            north, east = south + dlat, west + dlon
            props = {key: float(table[key][index]) for key in recipe.keys}
            props.setdefault("tract_area", grid.spacing_km ** 2)
            tracts.append(Tract(
                id=f"T{index:04d}",
                index=index,
                centroid=GeoPoint(south + dlat / 2.0, west + dlon / 2.0),
                area=grid.spacing_km ** 2,
                polygon=(GeoPoint(south, west), GeoPoint(south, east),
                         GeoPoint(north, east), GeoPoint(north, west)),
                properties=props,
            ))
    return StateSpace.from_tracts(tracts)


@dataclass(frozen=True)
class PlantedCluster:
    """One rank-1 pattern: hour, pickup, and dropoff profiles plus a trip budget."""

    hour_weights: Mapping[int, float]
    pickup_weights: np.ndarray
    dropoff_weights: np.ndarray
    trip_count: int


def _categorical(rng: np.random.Generator, weights: np.ndarray, size: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weight vector has zero sum")
    return rng.choice(len(weights), size=size, p=weights / total)


def _hours(rng: np.random.Generator, hour_weights: Mapping[int, float], size: int) -> np.ndarray:
    hour_items = sorted(hour_weights.items())
    hour_values = np.array([h for h, _ in hour_items])
    return hour_values[_categorical(rng, [w for _, w in hour_items], size)]


def generate_trips(clusters: Sequence[PlantedCluster], space: StateSpace,
                   seed: int) -> list[Trip]:
    """Sample each planted cluster's trips independently per axis, in order."""
    rng = np.random.default_rng(seed)
    trips: list[Trip] = []
    for cluster in clusters:
        hours = _hours(rng, cluster.hour_weights, cluster.trip_count)
        pickups = _categorical(rng, cluster.pickup_weights, cluster.trip_count)
        dropoffs = _categorical(rng, cluster.dropoff_weights, cluster.trip_count)
        trips.extend(Trip(*row) for row in np.column_stack((hours, pickups, dropoffs)).tolist())
    return trips


def generate_from_hypothesis(q: HypothesisMatrix, start_weights: Sequence[float],
                             count: int, seed: int,
                             hour_weights: Optional[Mapping[int, float]] = None) -> list[Trip]:
    """Sample trips whose true generating law is the given belief matrix.

    Pickups follow ``start_weights``; each dropoff follows the row-normalized
    belief row of its pickup. Hours are fixed to 0 unless ``hour_weights``
    is supplied. Dropoffs take one uniform each and the inverse CDF of their
    pickup's row: the draws ``rng.choice(size, p=row)`` makes, trip by trip.
    """
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
    return [Trip(*row) for row in np.column_stack((hours, pickups, dropoffs)).tolist()]


def hour_to_datetime(hour: int) -> datetime:
    """Place an hour-of-week slot on a concrete calendar week, at half past."""
    return BASE_MONDAY + timedelta(days=hour // 24, hours=hour % 24, minutes=30)


def write_trips_file(path, trips: Sequence[Trip], space: StateSpace) -> None:
    """Serialize trips in the raw record format that ingestion consumes.

    Endpoints are written as tract centroids, so cleaning locates every ride
    back to its original tract; odometer distance and duration are derived
    from the centroid distance and clamped positive.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIPS_HEADER)
        for t in trips:
            a = space.tracts[t.pickup_tract].centroid
            b = space.tracts[t.dropoff_tract].centroid
            km = float(space.distances[t.pickup_tract, t.dropoff_tract])
            writer.writerow([
                hour_to_datetime(t.hour).isoformat(),
                repr(a.lat), repr(a.lon), repr(b.lat), repr(b.lon),
                repr(max(km * 0.621371, 0.01)),
                int(60 + 120 * km),
                1,
            ])


# --- shipped demo fixture ------------------------------------------------------

DEMO_GRID = GridSpec(rows=4, cols=5, origin=GeoPoint(40.700, -74.010), spacing_km=0.25)
DEMO_HOTSPOT_TRACTS = (0, 1, 5, 6)  # south-west corner of the grid
DEMO_PLANTED_HOURS = (118, 119, 120, 121, 122, 142, 143, 144, 145, 146)  # weekend nights
DEMO_PLANTED_TRIPS = 20_000
DEMO_BACKGROUND_TRIPS = 30_000


def demo_recipe(config: CatalogConfig = CatalogConfig()) -> PropertyRecipe:
    """Indicator recipe for the demo city: nightlife mass piled on one corner."""
    overrides = {
        "venues_nightlife": {i: 300.0 + 20.0 * n for n, i in enumerate(DEMO_HOTSPOT_TRACTS)},
    }
    return PropertyRecipe(keys=config.required_keys(), low=1.0, high=100.0,
                          overrides=overrides)


def demo_landmarks(space: StateSpace) -> tuple[tuple[str, GeoPoint], ...]:
    """Three in-grid landmark points for the demo catalog configuration."""
    picks = (("harbor", 0), ("market", len(space) // 2), ("uptown", len(space) - 1))
    return tuple((name, space.tracts[i].centroid) for name, i in picks)


def build_demo_fixture(seed: int = 42) -> tuple[StateSpace, list[Trip], dict]:
    """The shipped synthetic city: one planted weekend-night nightlife cluster.

    20,000 trips head toward high-nightlife tracts on weekend nights under a
    gravitational-target law; 30,000 background trips are uniform over hours
    and tracts. Returns the state space, the trips, and a manifest describing
    the planted structure for downstream oracles.
    """
    config = CatalogConfig()
    space = generate_state_space(DEMO_GRID, demo_recipe(config), seed)
    nightlife = WeightVector(name="venues_nightlife",
                             w=space.property_vector("venues_nightlife"))
    law = build_mass(space, nightlife, "gravitational_target")
    uniform_starts = np.ones(len(space))
    planted = generate_from_hypothesis(
        law, uniform_starts, DEMO_PLANTED_TRIPS, seed + 1,
        hour_weights={h: 1.0 for h in DEMO_PLANTED_HOURS})
    background = generate_from_hypothesis(
        build_uniform(len(space)), uniform_starts, DEMO_BACKGROUND_TRIPS, seed + 2,
        hour_weights={h: 1.0 for h in range(HOURS_PER_WEEK)})
    manifest = {
        "seed": seed,
        "planted_hours": list(DEMO_PLANTED_HOURS),
        "hotspot_tracts": list(DEMO_HOTSPOT_TRACTS),
        "planted_hypothesis": law.name,
        "planted_trips": DEMO_PLANTED_TRIPS,
        "background_trips": DEMO_BACKGROUND_TRIPS,
    }
    return space, planted + background, manifest


def write_demo_fixture(directory, seed: int = 42) -> dict:
    """Write the demo city to disk: tracts, trips, manifest, and a config file."""
    config = CatalogConfig()
    space, trips, manifest = build_demo_fixture(seed)
    write_tracts(directory / "tracts.csv", space, list(config.required_keys()))
    write_trips_file(directory / "trips.csv", trips, space)
    with open(directory / "demo_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    landmarks = demo_landmarks(space)
    with open(directory / "demo.cfg", "w", encoding="utf-8") as fh:
        fh.write("[paths]\n")
        fh.write(f"tracts = {directory / 'tracts.csv'}\n")
        fh.write(f"trips = {directory / 'trips.csv'}\n")
        fh.write(f"output_dir = {directory / 'out'}\n")
        fh.write("\n[pipeline]\n")
        fh.write(f"seed = {seed}\n")
        fh.write("r = 2\n")  # planted pattern + background
        fh.write("n = 10\n")
        fh.write("\n[catalog]\n")
        fh.write("landmarks = " + "; ".join(
            f"{name} {p.lat!r} {p.lon!r}" for name, p in landmarks) + "\n")
    return manifest
