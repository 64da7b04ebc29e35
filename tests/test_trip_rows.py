"""Trip rows through transition_counts, build_tensor and cluster_counts, against Counter."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripflow.clusters import cluster_counts, cluster_selection
from tripflow.geo import HOURS_PER_WEEK
from tripflow.ingest import Trip, transition_counts, trip_rows
from tripflow.tensor import FactorSet, MobilityTensor, build_tensor


@st.composite
def sized_trips(draw):
    size = draw(st.integers(1, 6))
    tract = st.integers(0, size - 1)
    rows = draw(st.lists(st.tuples(st.integers(0, HOURS_PER_WEEK - 1), tract, tract),
                         max_size=80))
    return size, [Trip(*row) for row in rows]


def pair_matrix(pairs: Counter, size: int) -> np.ndarray:
    expected = np.zeros((size, size), dtype=np.int64)
    for (p, d), count in pairs.items():
        expected[p, d] = count
    return expected


def random_factor_set(size: int, seed: int) -> FactorSet:
    rng = np.random.default_rng(seed)
    modes = [rng.random((dim, 2)) for dim in (HOURS_PER_WEEK, size, size)]
    time, pickup, dropoff = (m / m.sum(axis=0) for m in modes)
    return FactorSet(time=time, pickup=pickup, dropoff=dropoff, scale=np.ones(2))


@settings(max_examples=60, deadline=None)
@given(sized_trips())
def test_transition_counts_match_counter(case):
    size, trips = case
    expected = pair_matrix(Counter((t.pickup_tract, t.dropoff_tract) for t in trips), size)
    for rows in (trips, np.array(trips, dtype=np.int64).reshape(-1, 3)):
        counts = transition_counts(rows, size)
        np.testing.assert_array_equal(counts.counts, expected)
        assert counts.total == len(trips)


@settings(max_examples=60, deadline=None)
@given(sized_trips())
def test_build_tensor_matches_counter(case):
    size, trips = case
    cells = Counter(trips)
    x = build_tensor(trips, size)
    assert x.dims == (HOURS_PER_WEEK, size, size)
    assert x.entries.tolist() == [list(cell) for cell in sorted(cells)]
    assert x.values.tolist() == [float(cells[cell]) for cell in sorted(cells)]


@settings(max_examples=60, deadline=None)
@given(sized_trips(), st.integers(0, 1), st.integers(1, 12), st.integers(0, 2**16))
def test_cluster_counts_match_counter(case, component, n, seed):
    size, trips = case
    f = random_factor_set(size, seed)
    hours, dropoffs = cluster_selection(f, component, n)
    pairs = Counter((t.pickup_tract, t.dropoff_tract) for t in trips
                    if t.hour in hours and t.dropoff_tract in dropoffs)
    counts = cluster_counts(trips, hours, dropoffs, size)
    np.testing.assert_array_equal(counts.counts, pair_matrix(pairs, size))
    assert counts.total == sum(pairs.values())


@pytest.mark.parametrize("bad", [np.zeros((2, 6), dtype=np.int64), [(1, 2, 3, 4)] * 3,
                                 np.zeros(3, dtype=np.int64), np.zeros((1, 1, 3), dtype=np.int64)])
def test_rows_not_three_wide_rejected(bad):
    shape = str(np.shape(bad))
    for consume in (lambda: trip_rows(bad, 5), lambda: build_tensor(bad, 5),
                    lambda: transition_counts(bad, 5),
                    lambda: cluster_counts(bad, [0, 1], [0, 1], 5)):
        with pytest.raises(ValueError, match=re.escape(shape)):
            consume()


def test_ragged_rows_rejected_by_their_widths():
    # built from the widths: numpy 1.x warns, not raises, on the shape of ragged rows
    with pytest.raises(ValueError, match=re.escape("got rows of 2, 3, 4 values")):
        trip_rows([Trip(9, 3, 7), (1, 2), (3, 4, 5, 6)], 20)


def test_any_iterable_of_rows_gives_the_same_rows():
    rows = np.array([[9, 3, 7], [120, 0, 19], [167, 19, 0]], dtype=np.int64)
    for trips in (rows, rows.tolist(), [Trip(*row) for row in rows.tolist()],
                  (Trip(*row) for row in rows.tolist()), map(tuple, rows.tolist())):
        got = trip_rows(trips, 20)
        assert got.dtype == np.int64 and got.tolist() == rows.tolist()


@pytest.mark.parametrize("empty", [[], (), np.empty((0, 3), dtype=np.int64)])
def test_empty_trips_give_zero_rows(empty):
    assert trip_rows(empty, 5).shape == (0, 3)
    assert len(build_tensor(empty, 5).values) == 0
    assert transition_counts(empty, 5).total == cluster_counts(empty, [0], [0], 5).total == 0


class TestMobilityTensorInvariants:
    @pytest.mark.parametrize("entries", [
        [[4, 0, 0]],              # hour out of bounds
        [[0, 0, 3]],              # dropoff out of bounds
        [[0, -1, 0]],             # negative pickup
        [[0, 1, 0], [0, 0, 2]],   # unsorted
        [[1, 2, 0], [1, 2, 0]],   # duplicated
    ])
    def test_rejects_bad_coordinates(self, entries):
        with pytest.raises(ValueError):
            MobilityTensor(dims=(4, 3, 3), entries=np.array(entries, dtype=np.intp),
                           values=np.ones(len(entries)))

    @pytest.mark.parametrize("values", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [1.0]])
    def test_rejects_bad_values(self, values):
        with pytest.raises(ValueError):
            MobilityTensor(dims=(4, 3, 3), entries=np.array([[0, 0, 1], [3, 2, 2]], dtype=np.intp),
                           values=np.array(values))

    def test_accepts_sorted_unique_coordinates(self):
        x = MobilityTensor(dims=(4, 3, 3), entries=np.array([[0, 0, 1], [0, 1, 0], [3, 2, 2]],
                                                            dtype=np.intp),
                           values=np.array([1.0, 2.5, 4.0]))
        hours, pickups, dropoffs, values = x.coords()
        assert hours.tolist() == [0, 0, 3] and pickups.tolist() == [0, 1, 2]
        assert dropoffs.tolist() == [1, 0, 2] and values.tolist() == [1.0, 2.5, 4.0]
