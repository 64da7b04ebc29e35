import numpy as np
import pytest

from tripflow.geo import hour_of_week, load_tracts
from tripflow.hypotheses import HypothesisMatrix, build_uniform
from tripflow.ingest import Trip, clean_trips, load_raw_trips
from tripflow.synth import (
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


class TestStateSpaceGeneration:
    def test_grid_dimensions(self):
        space = generate_state_space(GridSpec(rows=4, cols=5),
                                     PropertyRecipe(keys=("venues_all",)), seed=1)
        assert len(space) == 20
        assert [t.index for t in space.tracts] == list(range(20))

    def test_same_seed_identical(self):
        recipe = PropertyRecipe(keys=("venues_all", "checkins"))
        a = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=9)
        b = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=9)
        assert [t.properties for t in a.tracts] == [t.properties for t in b.tracts]
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_distinct_seeds_differ(self):
        recipe = PropertyRecipe(keys=("venues_all",))
        a = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=1)
        b = generate_state_space(GridSpec(rows=3, cols=3), recipe, seed=2)
        assert [t.properties for t in a.tracts] != [t.properties for t in b.tracts]

    def test_positive_pairwise_distances(self):
        space = generate_state_space(GridSpec(rows=4, cols=5),
                                     PropertyRecipe(keys=()), seed=1)
        off = ~np.eye(len(space), dtype=bool)
        assert (space.distances[off] > 0).all()

    def test_overrides_applied(self):
        recipe = PropertyRecipe(keys=("venues_nightlife",),
                                overrides={"venues_nightlife": {3: 777.0}})
        space = generate_state_space(GridSpec(rows=2, cols=2), recipe, seed=1)
        assert space.tracts[3].properties["venues_nightlife"] == 777.0

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


def test_hour_to_datetime_roundtrip():
    for hour in range(168):
        assert hour_of_week(hour_to_datetime(hour)) == hour


def test_trips_file_roundtrip(tmp_path, grid_space):
    cluster = PlantedCluster(hour_weights={57: 1.0, 120: 1.0},
                             pickup_weights=np.ones(20),
                             dropoff_weights=np.ones(20), trip_count=300)
    trips = generate_trips([cluster], grid_space, seed=14)
    keys = sorted(grid_space.tracts[0].properties)
    write_tracts(tmp_path / "tracts.csv", grid_space, keys)
    write_trips_file(tmp_path / "trips.csv", trips, grid_space)

    space = load_tracts(tmp_path / "tracts.csv")
    records, malformed = load_raw_trips(tmp_path / "trips.csv")
    assert malformed == 0
    cleaned, tally = clean_trips(records, space, exclude_self_loops=False)
    assert tally == {}
    assert cleaned == trips


class TestDemoFixture:
    def test_manifest_and_shape(self):
        space, trips, manifest = build_demo_fixture(seed=42)
        assert len(space) == 20
        assert len(trips) == manifest["planted_trips"] + manifest["background_trips"]
        planted = trips[:manifest["planted_trips"]]
        assert {t.hour for t in planted} == set(manifest["planted_hours"])

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
