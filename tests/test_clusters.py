import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripflow.clusters import cluster_counts, cluster_selection, top_indices, write_membership
from tripflow.ingest import Trip, transition_counts
from tripflow.synth import PlantedCluster, generate_trips
from tripflow.tensor import NtfOptions, build_tensor, ntf_decompose


class TestTopIndices:
    def test_basic(self):
        assert top_indices([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        assert top_indices([0.4, 0.4, 0.1], 1) == [0]

    def test_saturation(self):
        assert top_indices([0.1, 0.9, 0.5], 10) == [1, 2, 0]

    def test_zero_weight_tail(self):
        assert top_indices([0.0, 0.7, 0.0], 2) == [1, 0]

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            top_indices([], 1)
        with pytest.raises(ValueError):
            top_indices([0.5], 0)

    def test_signed_zeros_tie(self):
        assert top_indices([-0.0, 0.0, -0.0, 0.0], 3) == [0, 1, 2]

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(allow_nan=False),
                    min_size=1, max_size=40),
           st.integers(1, 50))
    def test_matches_sorted_oracle(self, weights, n):
        w = np.asarray(weights, dtype=float)
        assert top_indices(weights, n) == sorted(range(w.size), key=lambda i: (-w[i], i))[:n]


class TestSelect:
    def test_hour_and_dropoff_must_match(self):
        trip = Trip(9, 3, 7)
        kept = cluster_counts([trip], [9], [7], 20)
        assert kept.counts[3, 7] == kept.total == 1
        assert cluster_counts([trip], [9], [8], 20).total == 0
        assert cluster_counts([trip], [10], [7], 20).total == 0

    def test_pickup_never_matters(self):
        trips = [Trip(9, p, 7) for p in range(20)]
        counts = cluster_counts(trips, [9], [7], 20)
        np.testing.assert_array_equal(counts.counts, transition_counts(trips, 20).counts)


def random_factors(r, seed):
    rng = np.random.default_rng(seed)
    x = build_tensor([Trip(int(rng.integers(0, 168)), int(rng.integers(0, 20)),
                           int(rng.integers(0, 20))) for _ in range(400)], 20)
    f, _ = ntf_decompose(x, r, NtfOptions(seed=seed, max_iters=15))
    return f


class TestClusterCounts:
    def test_no_filtering_equals_full_counts(self):
        rng = np.random.default_rng(8)
        trips = [Trip(int(rng.integers(0, 168)), int(rng.integers(0, 20)),
                      int(rng.integers(0, 20))) for _ in range(300)]
        f = random_factors(2, 8)
        full = transition_counts(trips, 20)
        unfiltered = cluster_counts(trips, *cluster_selection(f, 0, max(168, 20)), 20)
        np.testing.assert_array_equal(unfiltered.counts, full.counts)

    def test_empty_trips(self):
        f = random_factors(1, 3)
        assert cluster_counts([], *cluster_selection(f, 0, 10), 20).total == 0

    def test_planted_concentration(self, grid_space):
        hotspots = (0, 1, 5, 6)
        dropoff_weights = np.full(20, 0.002)
        dropoff_weights[list(hotspots)] = 0.992 / 4
        planted = PlantedCluster(
            hour_weights={h: 1.0 for h in (118, 119, 120, 121, 122)},
            pickup_weights=np.ones(20),
            dropoff_weights=dropoff_weights / dropoff_weights.sum(),
            trip_count=8000)
        trips = generate_trips([planted], grid_space, seed=6)
        f, _ = ntf_decompose(build_tensor(trips, 20), 1, NtfOptions(seed=42))
        counts = cluster_counts(trips, *cluster_selection(f, 0, 10), 20)
        hotspot_mass = counts.counts[:, list(hotspots)].sum() / counts.counts.sum()
        assert hotspot_mass >= 0.90

    def test_monotone_in_n(self):
        rng = np.random.default_rng(21)
        trips = [Trip(int(rng.integers(0, 168)), int(rng.integers(0, 20)),
                      int(rng.integers(0, 20))) for _ in range(500)]
        f = random_factors(2, 21)
        previous = 0
        for n in (1, 3, 5, 10, 20, 168):
            total = cluster_counts(trips, *cluster_selection(f, 1, n), 20).total
            assert total >= previous
            previous = total

    def test_cluster_counts_bounded_by_full(self):
        rng = np.random.default_rng(13)
        trips = [Trip(int(rng.integers(0, 168)), int(rng.integers(0, 20)),
                      int(rng.integers(0, 20))) for _ in range(500)]
        f = random_factors(2, 13)
        full = transition_counts(trips, 20)
        sub = cluster_counts(trips, *cluster_selection(f, 0, 5), 20)
        assert (sub.counts <= full.counts).all()

    def test_component_out_of_range(self):
        f = random_factors(1, 4)
        with pytest.raises(IndexError):
            cluster_selection(f, 1, 10)


def test_spec_sets_are_top_n():
    f = random_factors(2, 17)
    hours, dropoffs = cluster_selection(f, 1, 7)
    assert hours == top_indices(f.time[:, 1], 7)
    assert dropoffs == top_indices(f.dropoff[:, 1], 7)
    assert len(set(hours)) == len(set(dropoffs)) == 7


def test_membership_export(tmp_path):
    f = random_factors(2, 30)
    path = tmp_path / "membership.csv"
    write_membership(path, f, 0, *cluster_selection(f, 0, 6))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    hours = [int(r["index"]) for r in rows if r["kind"] == "hour"]
    dropoffs = [int(r["index"]) for r in rows if r["kind"] == "dropoff"]
    assert hours == top_indices(f.time[:, 0], 6)
    assert dropoffs == top_indices(f.dropoff[:, 0], 6)
    for r in rows:
        matrix = f.time if r["kind"] == "hour" else f.dropoff
        assert float(r["weight"]) == matrix[int(r["index"]), 0]


@pytest.mark.parametrize("component", [-1, 2])
def test_membership_component_out_of_range(tmp_path, component):
    path = tmp_path / "membership.csv"
    f = random_factors(2, 30)
    with pytest.raises(IndexError, match="out of range for r=2"):
        write_membership(path, f, component, *cluster_selection(f, component, 6))
    assert not path.exists()
