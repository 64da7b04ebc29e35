"""Workload definitions: how each fixture is generated and which stages are timed.

Every fixture is written through the public ``tripflow.synth``, ``tripflow.geo``
and ``tripflow.ingest`` writers; the timed program only ever sees the files.
Sizes are chosen so that one repetition takes about 5-14 s on a 2-core
machine, which leaves room for three set-ups and at least four repetitions
in a 55 s run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tripflow.evidence import DEFAULT_K_GRID
from tripflow.geo import HOURS_PER_WEEK, GeoPoint, StateSpace, write_tracts
from tripflow.hypotheses import CatalogConfig, WeightVector, build_mass
from tripflow.ingest import write_clean_trips
from tripflow.synth import GridSpec, PlantedCluster, PropertyRecipe, \
    DEMO_GRID, generate_from_hypothesis, generate_state_space, generate_trips, \
    write_demo_fixture

SUBCOMMAND_STAGES = ("factorize", "extract-clusters", "build-hypotheses", "rank")
ALL_STAGES = ("ingest",) + SUBCOMMAND_STAGES

# Hour-of-week sets of the planted clusters; disjoint, ten hours each.
WEEKEND_NIGHTS = (118, 119, 120, 121, 122, 142, 143, 144, 145, 146)
WEEKDAY_MORNINGS = tuple(24 * day + h for day in range(5) for h in (8, 9))
WEEKDAY_LUNCH = tuple(24 * day + h for day in range(5) for h in (12, 13))

# Grid shared by city and metro: the tests' city_space origin and spacing,
# which puts a tract centroid near each default landmark.
CITY_ORIGIN = GeoPoint(40.738, -73.998)
# Venue count of each hotspot tract; against ~50 elsewhere it puts most of a
# planted law's mass on its hotspot block, so the clusters separate in a few sweeps.
HOTSPOT_MASS = 5000.0


@dataclass(frozen=True)
class Planted:
    """One planted cluster: a gravitational-target law on a venue column."""

    venue_key: str
    hours: tuple[int, ...]
    hotspots: tuple[int, ...]
    trips: int


@dataclass(frozen=True)
class Workload:
    stages: tuple[str, ...]  # ("pipeline",) or the timed subcommands, in order
    grid: GridSpec | None = None
    planted: tuple[Planted, ...] = ()
    background_trips: int = 0
    r: int = 2
    k_grid: tuple[float, ...] | None = None
    max_iters: int = 60

    @property
    def process_stages(self) -> tuple[tuple[str, ...], ...]:
        """The stages each timed process runs; ``pipeline`` runs all of them in one."""
        if self.stages == ("pipeline",):
            return (ALL_STAGES,)
        return tuple((stage,) for stage in self.stages)

    @property
    def k_values(self) -> tuple[float, ...]:
        return self.k_grid if self.k_grid is not None else DEFAULT_K_GRID

    @property
    def planted_laws(self) -> tuple[str, ...]:
        if self.grid is None:
            return ("gravitational_target_venues_nightlife",)
        return tuple(f"gravitational_target_{p.venue_key}" for p in self.planted)

    @property
    def planted_hours(self) -> tuple[int, ...] | None:
        """Top hours the demo's winning cluster must have; None where not checked."""
        return WEEKEND_NIGHTS if self.grid is None else None


def _hotspot_block(grid: GridSpec, row: int, col: int) -> tuple[int, ...]:
    """A 2x2 block of tract indices with its south-west corner at (row, col)."""
    return tuple((row + dr) * grid.cols + col + dc for dr in (0, 1) for dc in (0, 1))


CITY_GRID = GridSpec(rows=24, cols=12, origin=CITY_ORIGIN, spacing_km=0.25)
METRO_GRID = GridSpec(rows=25, cols=16, origin=CITY_ORIGIN, spacing_km=0.25)

WORKLOADS = {
    "demo": Workload(stages=("pipeline",)),
    "city": Workload(
        stages=SUBCOMMAND_STAGES,
        grid=CITY_GRID,
        planted=(
            Planted("venues_nightlife", WEEKEND_NIGHTS, _hotspot_block(CITY_GRID, 4, 9), 15_000),
            Planted("venues_work", WEEKDAY_MORNINGS, _hotspot_block(CITY_GRID, 19, 2), 15_000),
            Planted("venues_food", WEEKDAY_LUNCH, _hotspot_block(CITY_GRID, 13, 7), 15_000),
        ),
        background_trips=30_000,
        r=4,
        k_grid=(10.0, 100.0),
        max_iters=10,
    ),
    "metro": Workload(
        stages=SUBCOMMAND_STAGES,
        grid=METRO_GRID,
        planted=(
            Planted("venues_nightlife", WEEKEND_NIGHTS, _hotspot_block(METRO_GRID, 5, 11), 15_000),
            Planted("venues_work", WEEKDAY_MORNINGS, _hotspot_block(METRO_GRID, 18, 3), 15_000),
        ),
        background_trips=20_000,
        r=2,
        k_grid=(10.0,),
        max_iters=10,
    ),
}


@dataclass(frozen=True)
class Fixture:
    config: Path
    output_dir: Path
    tracts: int


def _write_config(path: Path, w: Workload, seed: int, tracts: Path, trips: Path,
                  output_dir: Path, catalog_lines: str = "") -> None:
    lines = ["[paths]", f"tracts = {tracts}", f"trips = {trips}", f"output_dir = {output_dir}",
             "", "[pipeline]", f"seed = {seed}", f"r = {w.r}",
             # exactly max_iters sweeps on every seed: no early convergence stop
             f"max_iters = {w.max_iters}", "rel_tol = 1e-12"]
    if w.k_grid is not None:
        lines.append("k_grid = " + " ".join(f"{k:g}" for k in w.k_grid))
    path.write_text("\n".join(lines) + "\n" + catalog_lines, encoding="utf-8")


def _setup_demo(w: Workload, directory: Path, seed: int) -> Fixture:
    write_demo_fixture(directory, seed=seed)
    # Keep the shipped config's catalog section; fix the sweep count, because
    # the demo's convergence-based sweep count varies several-fold with the seed.
    shipped = (directory / "demo.cfg").read_text(encoding="utf-8")
    catalog = shipped[shipped.index("[catalog]"):]
    out = directory / "out"
    _write_config(directory / "bench.cfg", w, seed, directory / "tracts.csv",
                  directory / "trips.csv", out, "\n" + catalog)
    return Fixture(directory / "bench.cfg", out, DEMO_GRID.rows * DEMO_GRID.cols)


def _setup_grid(w: Workload, directory: Path, seed: int) -> Fixture:
    config = CatalogConfig()
    overrides = {p.venue_key: {i: HOTSPOT_MASS + 20.0 * n for n, i in enumerate(p.hotspots)}
                 for p in w.planted}
    recipe = PropertyRecipe(keys=config.required_keys(), overrides=overrides)
    space: StateSpace = generate_state_space(w.grid, recipe, seed)
    starts = np.ones(len(space))
    trips = []
    for offset, p in enumerate(w.planted, start=1):
        law = build_mass(space, WeightVector(p.venue_key, space.property_vector(p.venue_key)),
                         "gravitational_target")
        trips += generate_from_hypothesis(law, starts, p.trips, seed + offset,
                                          hour_weights={h: 1.0 for h in p.hours})
    # Uniform background, sampled per axis; same-tract rides are dropped as
    # ingest would drop them, so the file looks like real cleaned output.
    background = PlantedCluster(hour_weights={h: 1.0 for h in range(HOURS_PER_WEEK)},
                                pickup_weights=starts, dropoff_weights=starts,
                                trip_count=w.background_trips)
    trips += [t for t in generate_trips([background], space, seed + len(w.planted) + 1)
              if t.pickup_tract != t.dropoff_tract]
    out = directory / "out"
    out.mkdir(parents=True, exist_ok=True)
    write_tracts(directory / "tracts.csv", space, list(config.required_keys()))
    write_clean_trips(out / "trips_clean.csv", trips)
    _write_config(directory / "bench.cfg", w, seed, directory / "tracts.csv",
                  directory / "trips.csv", out)
    return Fixture(directory / "bench.cfg", out, len(space))


def setup(w: Workload, directory: Path, seed: int) -> Fixture:
    """Write the workload's fixture for ``seed`` into an empty ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    return (_setup_demo if w.grid is None else _setup_grid)(w, directory, seed)

