from datetime import datetime

import numpy as np
import pytest

from tripflow.geo import GeoPoint
from tripflow.ingest import (
    TRIPS_HEADER,
    RawTripRecord,
    Trip,
    clean_trips,
    load_raw_trips,
    load_clean_trips,
    transition_counts,
    write_clean_trips,
)

MONDAY = datetime(2013, 1, 7, 9, 0)


def record(pickup, dropoff, distance=1.0, secs=600.0, passengers=1, when=MONDAY):
    return RawTripRecord(pickup_datetime=when, pickup=pickup, dropoff=dropoff,
                         trip_distance=distance, trip_time_in_secs=secs,
                         passenger_count=passengers)


@pytest.fixture()
def centroids(grid_space):
    return [t.centroid for t in grid_space.tracts]


def test_filter_fixture(grid_space, centroids):
    # 10 records: 2 bad distance, 1 bad passenger count, 1 outside the grid
    records = [record(centroids[0], centroids[1]) for _ in range(6)]
    records.insert(1, record(centroids[0], centroids[1], distance=0.0))
    records.insert(3, record(centroids[0], centroids[1], distance=-2.0))
    records.insert(5, record(centroids[0], centroids[1], passengers=0))
    records.insert(7, record(GeoPoint(10.0, 10.0), centroids[1]))
    trips, tally = clean_trips(records, grid_space)
    assert len(trips) == 6
    assert tally == {"distance": 2, "passengers": 1, "out_of_area": 1}
    assert len(trips) + sum(tally.values()) == len(records)


def test_accepted_trip_fields(grid_space, centroids):
    wednesday = datetime(2013, 1, 9, 9, 0)
    trips, tally = clean_trips([record(centroids[3], centroids[7], when=wednesday)],
                               grid_space)
    assert tally == {}
    assert trips == [Trip(hour=57, pickup_tract=3, dropoff_tract=7)]


def test_self_loop_flag(grid_space, centroids):
    records = [record(centroids[4], centroids[4])]
    trips, tally = clean_trips(records, grid_space, exclude_self_loops=True)
    assert trips == [] and tally == {"self_loop": 1}
    trips, tally = clean_trips(records, grid_space, exclude_self_loops=False)
    assert len(trips) == 1 and tally == {}
    assert trips[0].pickup_tract == trips[0].dropoff_tract == 4


def test_empty_input(grid_space):
    assert clean_trips([], grid_space) == ([], {})


def test_bad_time_filter(grid_space, centroids):
    trips, tally = clean_trips([record(centroids[0], centroids[1], secs=0.0)], grid_space)
    assert trips == [] and tally == {"time": 1}


def test_malformed_record_tallied(grid_space, centroids):
    class Broken:
        trip_distance = 1.0
        trip_time_in_secs = 1.0
        passenger_count = 1
        pickup = None
        dropoff = None
        pickup_datetime = MONDAY

    trips, tally = clean_trips([Broken(), record(centroids[0], centroids[1])], grid_space)
    assert len(trips) == 1
    assert tally == {"malformed": 1}


def test_unrelated_error_propagates(grid_space, centroids, monkeypatch):
    def broken_locate(point, space):
        raise RuntimeError("locate is broken")

    monkeypatch.setattr("tripflow.ingest.locate", broken_locate)
    with pytest.raises(RuntimeError, match="locate is broken"):
        clean_trips([record(centroids[0], centroids[1])], grid_space)


def test_conservation_fuzz(grid_space, centroids):
    rng = np.random.default_rng(99)
    records = []
    for _ in range(1000):
        kind = rng.integers(0, 6)
        distance = -1.0 if kind == 1 else float(rng.uniform(0.1, 5.0))
        secs = 0.0 if kind == 2 else 600.0
        passengers = 0 if kind == 3 else 1
        pickup = GeoPoint(60.0, 60.0) if kind == 4 else centroids[rng.integers(0, 20)]
        dropoff = centroids[rng.integers(0, 20)]
        records.append(record(pickup, dropoff, distance=distance, secs=secs,
                              passengers=passengers))
    trips, tally = clean_trips(records, grid_space)
    assert len(trips) + sum(tally.values()) == 1000


def test_order_preserved(grid_space, centroids):
    records = [record(centroids[i], centroids[(i + 3) % 20]) for i in range(10)]
    trips, _ = clean_trips(records, grid_space)
    assert [t.pickup_tract for t in trips] == list(range(10))


class TestTransitionCounts:
    def test_counting(self):
        trips = [Trip(0, 0, 1), Trip(0, 0, 1), Trip(0, 2, 0)]
        tc = transition_counts(trips, 3)
        assert tc.counts[0, 1] == 2
        assert tc.counts[2, 0] == 1
        assert tc.total == 3

    def test_empty(self):
        tc = transition_counts([], 3)
        assert tc.total == 0 and not tc.counts.any()

    def test_total_equals_length(self):
        rng = np.random.default_rng(5)
        trips = [Trip(0, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                 for _ in range(137)]
        assert transition_counts(trips, 4).total == 137

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            transition_counts([Trip(0, 0, 5)], 3)


class TestTripFiles:
    def test_clean_trips_roundtrip(self, tmp_path):
        trips = [Trip(9, 3, 7), Trip(120, 0, 19)]
        path = tmp_path / "clean.csv"
        write_clean_trips(path, trips)
        assert [Trip(*row) for row in load_clean_trips(path).tolist()] == trips

    def test_raw_loader_counts_malformed(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            "pickup_datetime,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,"
            "trip_distance,trip_time_in_secs,passenger_count\n"
            "2013-01-07T09:00:00,0.0,0.0,0.0,0.1,1.0,600,1\n"
            "not-a-date,0.0,0.0,0.0,0.1,1.0,600,1\n"
            "2013-01-07T09:00:00,0.0,junk,0.0,0.1,1.0,600,1\n",
            encoding="utf-8")
        records, malformed = load_raw_trips(path)
        assert len(records) == 1
        assert malformed == 2

    def test_raw_loader_tallies_short_and_out_of_range_rows(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            ",".join(TRIPS_HEADER) + "\n"
            "2013-01-07T09:00:00,0.0,0.0,0.0,0.1,1.0,600,1\n"
            "2013-01-07T09:00:00,0.0,0.0,0.0,0.1,1.0,600\n"
            "2013-01-07T09:00:00,95.0,0.0,0.0,0.1,1.0,600,1\n",
            encoding="utf-8")
        records, malformed = load_raw_trips(path)
        assert len(records) == 1
        assert malformed == 2

    def test_raw_loader_unrelated_error_propagates(self, tmp_path, monkeypatch):
        def broken_point(lat, lon):
            raise RuntimeError("GeoPoint is broken")

        path = tmp_path / "trips.csv"
        path.write_text(",".join(TRIPS_HEADER) + "\n"
                        "2013-01-07T09:00:00,0.0,0.0,0.0,0.1,1.0,600,1\n", encoding="utf-8")
        monkeypatch.setattr("tripflow.ingest.GeoPoint", broken_point)
        with pytest.raises(RuntimeError, match="GeoPoint is broken"):
            load_raw_trips(path)

    def test_clean_loader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text("hour,pickup,dropoff\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cleaned-trips"):
            load_clean_trips(path)

    def test_clean_loader_header_only(self, tmp_path):
        path = tmp_path / "clean.csv"
        write_clean_trips(path, [])
        assert load_clean_trips(path).shape == (0, 3)

    def test_raw_loader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_raw_trips(path)
