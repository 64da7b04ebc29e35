import csv
import hashlib

import numpy as np
import pytest

from tripflow import files, synth
from tripflow.cli import main
from tripflow.geo import hour_of_week, load_tracts
from tripflow.hypotheses import HypothesisMatrix, WeightVector, build_mass, build_uniform
from tripflow.ingest import TRIPS_HEADER, Trip, clean_trips, load_raw_trips
from tripflow.synth import (
    DEMO_PLANTED_HOURS,
    GridSpec,
    PlantedCluster,
    PropertyRecipe,
    build_demo_fixture,
    generate_from_hypothesis,
    generate_state_space,
    generate_trips,
    hour_to_datetime,
    write_demo_fixture,
    write_trips_file,
)
from tripflow.geo import write_tracts

from conftest import mask_from_hypothesis, per_cluster_trips


class TestStateSpaceGeneration:
    def test_grid_dimensions(self):
        space = generate_state_space(GridSpec(rows=4, cols=5),
                                     PropertyRecipe(keys=("venues_all",)), seed=1)
        assert len(space) == 20
        assert [t.id for t in space.tracts] == [f"T{i:04d}" for i in range(20)]

    def test_same_seed_identical(self):
        recipe = PropertyRecipe(keys=("venues_all", "checkins"))
        a = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=9)
        b = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=9)
        assert a.properties.keys() == b.properties.keys()
        for key in a.properties:
            np.testing.assert_array_equal(a.properties[key], b.properties[key])
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_distinct_seeds_differ(self):
        recipe = PropertyRecipe(keys=("venues_all",))
        a = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=1)
        b = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=2)
        assert not np.array_equal(a.properties["venues_all"], b.properties["venues_all"])

    def test_positive_pairwise_distances(self):
        space = generate_state_space(GridSpec(rows=4, cols=5),
                                     PropertyRecipe(keys=()), seed=1)
        off = ~np.eye(len(space), dtype=bool)
        assert (space.distances[off] > 0).all()

    def test_overrides_applied(self):
        recipe = PropertyRecipe(keys=("venues_nightlife",),
                                overrides={"venues_nightlife": {3: 777.0}})
        space = generate_state_space(GridSpec(rows=2, cols=2), recipe, seed=1)
        assert space.properties["venues_nightlife"][3] == 777.0

    @pytest.mark.parametrize("index", [-1, 4, 5, True])
    def test_override_outside_the_grid_rejected(self, index):
        recipe = PropertyRecipe(keys=("venues_nightlife",),
                                overrides={"venues_nightlife": {0: 5.0, index: 777.0}})
        with pytest.raises(ValueError, match=rf"'venues_nightlife' index {index} .* 0\.\.3"):
            generate_state_space(GridSpec(rows=2, cols=2), recipe, seed=1)

    def test_override_of_an_unknown_key_rejected(self):
        recipe = PropertyRecipe(keys=("venues_nightlife",), overrides={"checkins": {0: 5.0}})
        with pytest.raises(ValueError, match=r"override 'checkins' is not one of the recipe's "
                                             r"keys \('venues_nightlife',\)"):
            generate_state_space(GridSpec(rows=2, cols=2), recipe, seed=1)

    def test_degenerate_grid(self):
        with pytest.raises(ValueError):
            GridSpec(rows=1, cols=5)


class TestGenerateTrips:
    def test_support_containment_and_count(self, grid_space):
        cluster = PlantedCluster(hour_weights={118: 2.0, 119: 1.0},
                                 pickup_weights=np.ones(20),
                                 dropoff_weights=np.ones(20), trip_count=1000)
        trips = generate_trips([cluster], grid_space, seed=4)
        assert len(trips) == 1000
        assert {t.hour for t in trips} <= {118, 119}

    def test_disjoint_clusters_partition_by_hour(self, grid_space):
        early = PlantedCluster(hour_weights={10: 1.0}, pickup_weights=np.ones(20),
                               dropoff_weights=np.ones(20), trip_count=500)
        late = PlantedCluster(hour_weights={150: 1.0}, pickup_weights=np.ones(20),
                              dropoff_weights=np.ones(20), trip_count=500)
        trips = generate_trips([early, late], grid_space, seed=4)
        assert len(trips) == 1000
        assert all(t.hour == 10 for t in trips[:500])
        assert all(t.hour == 150 for t in trips[500:])

    def test_empirical_dropoffs_converge(self, grid_space):
        rng = np.random.default_rng(11)
        weights = rng.random(20)
        weights /= weights.sum()
        cluster = PlantedCluster(hour_weights={0: 1.0}, pickup_weights=np.ones(20),
                                 dropoff_weights=weights, trip_count=10_000)
        trips = generate_trips([cluster], grid_space, seed=5)
        freq = np.bincount([t.dropoff_tract for t in trips], minlength=20) / len(trips)
        assert 0.5 * np.abs(freq - weights).sum() <= 0.05

    def test_deterministic(self, grid_space):
        cluster = PlantedCluster(hour_weights={7: 1.0}, pickup_weights=np.ones(20),
                                 dropoff_weights=np.ones(20), trip_count=64)
        assert generate_trips([cluster], grid_space, seed=8) == \
            generate_trips([cluster], grid_space, seed=8)

    def test_zero_sum_weights(self, grid_space):
        cluster = PlantedCluster(hour_weights={7: 1.0}, pickup_weights=np.zeros(20),
                                 dropoff_weights=np.ones(20), trip_count=10)
        with pytest.raises(ValueError):
            generate_trips([cluster], grid_space, seed=8)


def per_trip_from_hypothesis(q, start_weights, count, seed, hour_weights=None):
    """Reference sampler: one ``rng.choice`` per dropoff, trip by trip."""
    starts = np.asarray(start_weights, dtype=float)
    rows = q.q / np.maximum(q.q.sum(axis=1, keepdims=True), np.finfo(float).tiny)
    rng = np.random.default_rng(seed)
    pickups = rng.choice(len(starts), size=count, p=starts / starts.sum())
    hours = np.zeros(count, dtype=int)
    if hour_weights is not None:
        items = sorted(hour_weights.items())
        probs = np.array([w for _, w in items])
        hours = np.array([h for h, _ in items])[rng.choice(len(items), size=count,
                                                           p=probs / probs.sum())]
    return [Trip(int(hours[i]), int(pickups[i]), int(rng.choice(len(rows), p=rows[pickups[i]])))
            for i in range(count)]


class TestGenerateFromHypothesis:
    @pytest.mark.parametrize("hour_weights", [None, {h: 1.0 + h % 7 for h in range(0, 168, 5)}])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_draws_as_per_trip_choice(self, hour_weights, seed):
        rng = np.random.default_rng(100 + seed)
        q = rng.random((30, 30)) ** 4
        np.fill_diagonal(q, 0.0)
        q[7] = 0.0  # unreachable all-zero row
        starts = rng.random(30)
        starts[7] = 0.0
        h = HypothesisMatrix("random", q)
        trips = generate_from_hypothesis(h, starts, 3000, seed, hour_weights=hour_weights)
        assert trips == per_trip_from_hypothesis(h, starts, 3000, seed, hour_weights)
        assert all(type(v) is int for v in trips[0])

    def test_uniform_law_spreads_over_non_self_targets(self):
        q = build_uniform(6)
        trips = generate_from_hypothesis(q, np.ones(6), 6000, seed=2)
        assert len(trips) == 6000
        assert all(t.pickup_tract != t.dropoff_tract for t in trips)
        freq = np.bincount([t.dropoff_tract for t in trips], minlength=6) / 6000
        assert np.abs(freq - 1 / 6).max() < 0.03

    def test_hour_defaults_to_zero(self):
        trips = generate_from_hypothesis(build_uniform(4), np.ones(4), 10, seed=1)
        assert {t.hour for t in trips} == {0}

    def test_hour_weights_respected(self):
        trips = generate_from_hypothesis(build_uniform(4), np.ones(4), 200, seed=1,
                                         hour_weights={100: 1.0, 101: 1.0})
        assert {t.hour for t in trips} <= {100, 101}

    def test_deterministic(self):
        q = build_uniform(5)
        assert generate_from_hypothesis(q, np.ones(5), 50, seed=3) == \
            generate_from_hypothesis(q, np.ones(5), 50, seed=3)

    def test_count_zero(self):
        assert generate_from_hypothesis(build_uniform(4), np.ones(4), 0, seed=1) == []

    def test_unreachable_zero_row_rejected(self):
        q = np.ones((3, 3)) - np.eye(3)
        q[1] = 0.0
        from tripflow.hypotheses import HypothesisMatrix
        h = HypothesisMatrix("partial", q)
        with pytest.raises(ValueError, match="all-zero"):
            generate_from_hypothesis(h, np.ones(3), 5, seed=1)
        # fine when the dead row is unreachable
        trips = generate_from_hypothesis(h, np.array([1.0, 0.0, 1.0]), 20, seed=1)
        assert all(t.pickup_tract != 1 for t in trips)


def random_law(size: int, seed: int) -> tuple[HypothesisMatrix, np.ndarray]:
    """A skewed random law with a dead row, and start weights that are zero there and elsewhere."""
    rng = np.random.default_rng(100 + seed)
    q = rng.random((size, size)) ** 4
    np.fill_diagonal(q, 0.0)
    q[7] = 0.0  # unreachable all-zero row
    starts = rng.random(size)
    starts[7] = starts[::3] = 0.0
    return HypothesisMatrix("random", q), starts


SOME_HOURS = {h: 1.0 + h % 7 for h in range(0, 168, 5)}


class TestMaskOracle:
    """Both samplers and the demo fixture draw the rows of the per-pickup mask sampler."""

    @pytest.mark.parametrize("size", [20, 288])
    @pytest.mark.parametrize("count", [0, 1, 20_000])
    @pytest.mark.parametrize("hour_weights", [None, SOME_HOURS], ids=["hour_0", "hours"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_from_hypothesis(self, size, count, hour_weights, seed):
        q, starts = random_law(size, seed)
        expected = mask_from_hypothesis(q, starts, count, seed, hour_weights)
        trips = generate_from_hypothesis(q, starts, count, seed, hour_weights=hour_weights)
        assert trips == list(map(Trip._make, expected.tolist()))
        assert all(type(v) is int for trip in trips[:1] for v in trip)

    @pytest.mark.parametrize("size", [20, 288])
    @pytest.mark.parametrize("case", ["dead_row", "zero_starts"])
    def test_refusals(self, size, case):
        q, starts = random_law(size, 1)
        if case == "dead_row":
            starts[7] = 1.0
        else:
            starts[:] = 0.0
        with pytest.raises(ValueError) as expected:
            mask_from_hypothesis(q, starts, 10, 1)
        with pytest.raises(ValueError) as got:
            generate_from_hypothesis(q, starts, 10, 1)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("space_name", ["grid_space", "city_space"])
    @pytest.mark.parametrize("count", [0, 1, 20_000])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_per_axis(self, request, space_name, count, seed):
        space = request.getfixturevalue(space_name)
        _, starts = random_law(len(space), seed)
        clusters = [PlantedCluster(hour_weights=SOME_HOURS, pickup_weights=starts,
                                   dropoff_weights=starts[::-1], trip_count=count),
                    PlantedCluster(hour_weights={3: 1.0}, pickup_weights=np.ones(len(space)),
                                   dropoff_weights=starts, trip_count=count // 2)]
        assert generate_trips(clusters, space, seed) == per_cluster_trips(clusters, seed)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_demo_fixture(self, seed):
        space, trips, manifest = build_demo_fixture(seed=seed)
        law = build_mass(space, WeightVector("venues_nightlife",
                                             space.property_vector("venues_nightlife")),
                         "gravitational_target")
        starts = np.ones(len(space))
        expected = np.concatenate((
            mask_from_hypothesis(law, starts, manifest["planted_trips"], seed + 1,
                                 {h: 1.0 for h in DEMO_PLANTED_HOURS}),
            mask_from_hypothesis(build_uniform(len(space)), starts,
                                 manifest["background_trips"], seed + 2,
                                 {h: 1.0 for h in range(168)})))
        assert trips.dtype == np.int64 and trips.shape == (50_000, 3)
        np.testing.assert_array_equal(trips, expected)


def test_hour_to_datetime_roundtrip():
    for hour in range(168):
        assert hour_of_week(hour_to_datetime(hour)) == hour


def test_trips_file_roundtrip(tmp_path, grid_space):
    cluster = PlantedCluster(hour_weights={57: 1.0, 120: 1.0},
                             pickup_weights=np.ones(20),
                             dropoff_weights=np.ones(20), trip_count=300)
    trips = generate_trips([cluster], grid_space, seed=14)
    keys = sorted(grid_space.properties)
    write_tracts(tmp_path / "tracts.csv", grid_space, keys)
    write_trips_file(tmp_path / "trips.csv", trips, grid_space)

    space = load_tracts(tmp_path / "tracts.csv")
    records, malformed = load_raw_trips(tmp_path / "trips.csv")
    assert malformed == 0
    cleaned, tally = clean_trips(records, space, exclude_self_loops=False)
    assert tally == {}
    assert [Trip(*row) for row in cleaned.tolist()] == trips


def per_row_trips_file(path, trips, space):
    """Reference writer: one ``isoformat`` and five ``repr`` calls per row, through csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIPS_HEADER)
        for t in trips:
            a = space.tracts[t.pickup_tract].centroid
            b = space.tracts[t.dropoff_tract].centroid
            km = float(space.distances[t.pickup_tract, t.dropoff_tract])
            writer.writerow([hour_to_datetime(t.hour).isoformat(),
                             repr(a.lat), repr(a.lon), repr(b.lat), repr(b.lon),
                             repr(max(km * 0.621371, 0.01)), int(60 + 120 * km), 1])


@pytest.mark.parametrize("seed", [1, 42])
def test_trips_file_bytes_equal_per_row_writer(tmp_path, monkeypatch, seed):
    space, rows, _ = build_demo_fixture(seed=seed)
    trips = list(map(Trip._make, rows.tolist()))
    chunk_rows = files._CHUNK_BYTES // 120  # a row is below 120 bytes
    assert len(rows) > 3 * chunk_rows
    forms = {"array": (rows, trips), "trips": (trips, trips), "empty": (rows[:0], []),
             "list_of_lists": (rows[:100].tolist(), trips[:100])}
    for name, (given, reference) in forms.items():
        write_trips_file(tmp_path / f"{name}.csv", given, space)
        per_row_trips_file(tmp_path / f"{name}_reference.csv", reference, space)
    monkeypatch.setattr(files, "_CHUNK_BYTES", 1000)  # about ten rows a chunk
    for name, count in (("chunks", 1001), ("one_chunk", 9), ("row_a_chunk", 1)):
        write_trips_file(tmp_path / f"{name}.csv", rows[:count], space)
        per_row_trips_file(tmp_path / f"{name}_reference.csv", trips[:count], space)
    for name in (*forms, "chunks", "one_chunk", "row_a_chunk"):
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_reference.csv").read_bytes()), name
    assert (tmp_path / "empty.csv").read_text() == ",".join(TRIPS_HEADER) + "\n"


@pytest.mark.parametrize("row", [(-1, -2, 3), (0, 3, -1), (168, 0, 1), (0, 20, 1)])
def test_trips_file_refuses_rows_outside_the_week_or_space(tmp_path, grid_space, row):
    with pytest.raises(IndexError, match="out of range"):
        write_trips_file(tmp_path / "trips.csv", [Trip(9, 3, 7), row], grid_space)
    assert list(tmp_path.iterdir()) == []


def test_demo_fixture_bytes_are_pinned(tmp_path):
    """The seed-42 demo files: every comparison of two commits' benchmarks reads these bytes."""
    write_demo_fixture(tmp_path, seed=42)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("tracts.csv", "trips.csv", "demo_manifest.json")}
    assert digests == {
        "tracts.csv": "5e383ede6107b73f3ba10ce68edba0ae914ba9f35d5239ca69c5ce1cd0a7ea1d",
        "trips.csv": "4e875829a32e54e71e434bc5c54096e60d5f283d83fda093d60a8d05d7f6cad7",
        "demo_manifest.json": "13dac6ef5204d952f2bf7d047cf7c9255ba8cb9186f1605041b2e9dff3de1f39",
    }


class TestDemoFixture:
    def test_manifest_and_shape(self):
        space, trips, manifest = build_demo_fixture(seed=42)
        assert len(space) == 20
        assert len(trips) == manifest["planted_trips"] + manifest["background_trips"]
        assert set(trips[:manifest["planted_trips"], 0].tolist()) == set(manifest["planted_hours"])

    def test_hotspots_carry_the_nightlife_mass(self):
        space, _, manifest = build_demo_fixture(seed=42)
        nightlife = space.property_vector("venues_nightlife")
        hot = manifest["hotspot_tracts"]
        cold = [i for i in range(20) if i not in hot]
        assert nightlife[hot].min() > nightlife[cold].max()

    def test_write_fixture_files(self, tmp_path):
        write_demo_fixture(tmp_path, seed=42)
        for name in ("tracts.csv", "trips.csv", "demo_manifest.json", "demo.cfg"):
            assert (tmp_path / name).is_file()

    def test_failed_rewrite_leaves_no_config(self, tmp_path, monkeypatch, capsys):
        write_demo_fixture(tmp_path, seed=1)

        def disk_full(*args):
            raise OSError("disk full")

        monkeypatch.setattr(synth, "write_trips_file", disk_full)
        with pytest.raises(OSError, match="disk full"):
            write_demo_fixture(tmp_path, seed=2)
        assert not (tmp_path / "demo.cfg").exists()  # seed 2's tracts beside seed 1's trips
        assert main(["ingest", "--config", str(tmp_path / "demo.cfg")]) == 2
        assert "config file not found" in capsys.readouterr().err
