import ast
import csv
import math
import re
import warnings
from collections import Counter
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripflow import ingest
from tripflow.files import write_csv, write_json
from tripflow.geo import GeoPoint, hour_of_week, write_tracts
from tripflow.ingest import (
    RAW_TRIP,
    TRIPS_HEADER,
    TransitionCounts,
    Trip,
    clean_trips,
    load_raw_trips,
    load_clean_trips,
    transition_counts,
    write_clean_trips,
)
from tripflow.synth import GridSpec, PropertyRecipe, generate_state_space, write_trips_file

from conftest import scalar_locate

MONDAY = datetime(2013, 1, 7, 9, 0)


def record(pickup, dropoff, distance=1.0, secs=600.0, passengers=1, when=MONDAY):
    """One ``RAW_TRIP`` row."""
    return (hour_of_week(when), pickup.lat, pickup.lon, dropoff.lat, dropoff.lon,
            distance, secs, passengers)


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
    assert [Trip(*row) for row in trips.tolist()] == [Trip(hour=57, pickup_tract=3,
                                                           dropoff_tract=7)]


def test_self_loop_flag(grid_space, centroids):
    records = [record(centroids[4], centroids[4])]
    trips, tally = clean_trips(records, grid_space, exclude_self_loops=True)
    assert trips.tolist() == [] and tally == {"self_loop": 1}
    trips, tally = clean_trips(records, grid_space, exclude_self_loops=False)
    assert len(trips) == 1 and tally == {}
    trip = Trip(*trips[0].tolist())
    assert trip.pickup_tract == trip.dropoff_tract == 4


def test_empty_input(grid_space):
    trips, tally = clean_trips([], grid_space)
    assert (trips.tolist(), tally) == ([], {})


def test_bad_time_filter(grid_space, centroids):
    trips, tally = clean_trips([record(centroids[0], centroids[1], secs=0.0)], grid_space)
    assert trips.tolist() == [] and tally == {"time": 1}


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
    assert [Trip(*row).pickup_tract for row in trips.tolist()] == list(range(10))


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

    @pytest.mark.parametrize("counts, message", [
        ([[0, -1], [1, 0]], "negative transition count"),
    ], ids=["negative"])
    def test_checks(self, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransitionCounts(counts=np.array(counts, dtype=np.int64))

    def test_stack_total_is_its_cell_sum(self):
        stack = np.arange(48, dtype=np.int64).reshape(3, 4, 4) * 2**28
        assert TransitionCounts(counts=stack.copy()).total == int(stack.sum()) > 2**32
        stack[2, 1, 3] = -1
        with pytest.raises(ValueError, match="^negative transition count$"):
            TransitionCounts(counts=stack)


def _disk_full_midway():
    for i in range(50_000):  # several buffers' worth reach the disk first
        yield Trip(i % 168, 1, 2)
    raise OSError("disk full")


class TestTripFiles:
    def test_clean_trips_roundtrip(self, tmp_path):
        trips = [Trip(9, 3, 7), Trip(120, 0, 19)]
        path = tmp_path / "clean.csv"
        write_clean_trips(path, trips)
        assert [Trip(*row) for row in load_clean_trips(path).tolist()] == trips

    def test_clean_trips_input_forms(self, tmp_path):
        rows = np.array([[9, 3, 7], [120, 0, 19], [0, 10, 9], [167, 19, 0]], dtype=np.int64)
        forms = {"array": rows, "trips": [Trip(*row) for row in rows.tolist()],
                 "generator": (Trip(*row) for row in rows.tolist())}
        for name, trips in forms.items():
            write_clean_trips(tmp_path / name, trips)
        expected = b"hour,pickup_tract,dropoff_tract\r\n9,3,7\r\n120,0,19\r\n0,10,9\r\n167,19,0\r\n"
        assert {(tmp_path / name).read_bytes() for name in forms} == {expected}

    @pytest.mark.parametrize("trips", [
        [Trip(9, 3, 7), (1, 2), (3, 4, 5, 6)],  # six values in all: must not read as two rows
        [(1, 2, 3, 4)] * 3,
        np.zeros((2, 4), dtype=np.int64),
        np.zeros(3, dtype=np.int64),
    ], ids=["short_then_long", "four_wide", "array_four_wide", "vector"])
    def test_clean_trips_rows_not_three_wide(self, tmp_path, trips):
        with pytest.raises(ValueError):
            write_clean_trips(tmp_path / "clean.csv", trips)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write, payload, error", [
        (write_clean_trips, _disk_full_midway, "disk full"),
        (lambda path, rows: write_csv(path, Trip._fields, rows), _disk_full_midway, "disk full"),
        (write_json, lambda: [[i % 168, 1, 2] for i in range(50_000)] + [object()],
         "not JSON serializable"),
        # one tract row per trip row, so the tracts run out of disk where the trips do
        (lambda path, rows: write_tracts(
            path, SimpleNamespace(tracts=(DIRTY_SPACE.tracts[0] for _ in rows)), []),
         _disk_full_midway, "disk full"),
        (lambda path, rows: write_trips_file(path, rows, DIRTY_SPACE), _disk_full_midway,
         "disk full"),
    ], ids=["write_clean_trips", "write_csv", "write_json", "write_tracts", "write_trips_file"])
    def test_written_whole_or_not_at_all(self, tmp_path, write, payload, error):
        path = tmp_path / "artifact"
        write(path, [Trip(9, 3, 7)])
        before = path.read_bytes()
        with pytest.raises((OSError, TypeError), match=error):
            write(path, payload())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

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
        def broken_hour(t):
            raise RuntimeError("hour_of_week is broken")

        path = tmp_path / "trips.csv"
        path.write_text(",".join(TRIPS_HEADER) + "\n"
                        "2013-01-07T09:00:00,0.0,0.0,0.0,0.1,1.0,600,1\n", encoding="utf-8")
        monkeypatch.setattr("tripflow.ingest.hour_of_week", broken_hour)
        with pytest.raises(RuntimeError, match="hour_of_week is broken"):
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

    def test_raw_loader_rejects_a_header_csv_refuses(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("x" * (csv.field_size_limit() + 1), encoding="utf-8")  # one field, too long
        message = f"{path}: expected header {','.join(TRIPS_HEADER)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_raw_trips(path)


# --- the per-record loader and cleaner that the RAW_TRIP path replaced, kept as its oracle


def per_record_ingest(path, space, exclude_self_loops=True):
    """Rows, tally and input count as the per-record loader, cleaner and CLI produced them."""
    records, malformed = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error:  # a field over csv's size limit, or a NUL on Python 3.10
                malformed += 1
                continue
            try:
                records.append((datetime.fromisoformat(row[0]),
                                GeoPoint(float(row[1]), float(row[2])),
                                GeoPoint(float(row[3]), float(row[4])),
                                float(row[5]), float(row[6]), int(row[7])))
            except (IndexError, ValueError):
                malformed += 1
    trips, tally = [], Counter()
    for when, pickup, dropoff, distance, secs, passengers in records:
        if not math.isfinite(distance) or distance <= 0:
            tally["distance"] += 1
        elif not math.isfinite(secs) or secs <= 0:
            tally["time"] += 1
        elif passengers <= 0:
            tally["passengers"] += 1
        else:
            a, b = scalar_locate(pickup, space), scalar_locate(dropoff, space)
            if a is None or b is None:
                tally["out_of_area"] += 1
            elif exclude_self_loops and a == b:
                tally["self_loop"] += 1
            else:
                trips.append([hour_of_week(when), a, b])
    if malformed:
        tally["malformed"] += malformed
    return trips, dict(tally), len(records) + malformed


def columnar_ingest(path, space, exclude_self_loops=True):
    raw, malformed = load_raw_trips(path)
    trips, tally = clean_trips(raw, space, exclude_self_loops=exclude_self_loops)
    if malformed:
        tally["malformed"] = malformed
    return trips.tolist(), tally, len(raw) + malformed


DIRTY_SPACE = generate_state_space(GridSpec(rows=4, cols=5), PropertyRecipe(keys=()), seed=0)
# Each menu starts with its clean values; the rest are the noise a raw file carries.
DIRTY_MENUS = {
    "when": ["2013-01-07T09:00:00", "2013-01-09", "2013-01-12T23:59:59+05:00", "not-a-date",
             "", "2013-02-30T00:00:00"],
    "end": [(repr(t.centroid.lat), repr(t.centroid.lon)) for t in DIRTY_SPACE.tracts[:3]]
           + [(repr(p.lat), repr(p.lon)) for p in DIRTY_SPACE.tracts[6].polygon]
           + [("10.0", "10.0"), ("95.0", "0.0"), ("40.7", "-181"), ("nan", "-74.0"),
              ("40.7", "inf"), ("-inf", "0"), ("junk", "0"), ("", ""), ("1e400", "0")],
    "distance": ["1.5", "0.0001", "0", "-2", "nan", "inf", "junk", "1_0.5"],
    "secs": ["600", "1e3", "0", "-1", "nan", "-inf", "x"],
    "passengers": ["1", "+2", " 4 ", "99999999999999999999", "0", "-3",
                   "-99999999999999999999", "1.0", ""],
    "length": [8, 8, 8, 8, 8, 9, 7, 3],  # 9: an extra column, 7 and 3: short rows
}


def dirty_row(when, pickup, dropoff, distance, secs, passengers, length):
    return ([when, *pickup, *dropoff, distance, secs, passengers] + ["extra"])[:length]


def write_raw(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIPS_HEADER)
        writer.writerows(rows)


class TestPerRecordOracle:
    """``load_raw_trips`` + ``clean_trips`` against the per-record path: same rows, same tally."""

    @given(st.lists(st.builds(dirty_row, *(st.sampled_from(DIRTY_MENUS[key]) for key in (
               "when", "end", "end", "distance", "secs", "passengers", "length"))),
               max_size=40),
           st.booleans())
    def test_dirty_rows(self, tmp_path_factory, rows, exclude_self_loops):
        path = tmp_path_factory.getbasetemp() / "dirty_rows.csv"
        write_raw(path, rows)
        assert (columnar_ingest(path, DIRTY_SPACE, exclude_self_loops)
                == per_record_ingest(path, DIRTY_SPACE, exclude_self_loops))

    def test_dirty_file(self, tmp_path):
        rng = np.random.default_rng(11)

        def pick(key, clean=1):  # one of the first ``clean`` values three times in four
            menu = DIRTY_MENUS[key]
            return menu[rng.integers(clean if rng.random() < 0.75 else len(menu))]

        rows = [dirty_row(pick("when"), pick("end", 7), pick("end", 7), pick("distance"),
                          pick("secs"), pick("passengers"), pick("length"))
                for _ in range(3000)]
        write_raw(tmp_path / "trips.csv", rows)
        trips, tally, total = columnar_ingest(tmp_path / "trips.csv", DIRTY_SPACE)
        assert (trips, tally, total) == per_record_ingest(tmp_path / "trips.csv", DIRTY_SPACE)
        assert total == 3000 and len(trips) > 500
        assert set(tally) == {"malformed", "distance", "time", "passengers", "out_of_area",
                              "self_loop"}


def _line(stamp="2013-01-07T09:00:00"):
    """One raw-trips line, without its line end, of a ride from tract 0 to tract 1."""
    a, b = (t.centroid for t in DIRTY_SPACE.tracts[:2])
    return ",".join([stamp, repr(a.lat), repr(a.lon), repr(b.lat), repr(b.lon), "1.0", "600", "1"])


CLEAN = _line()
HUGE_DISTANCE = "1." + "0" * csv.field_size_limit()  # 1.0 in a field too long for csv
# Each file is the header, then these lines; a clean line on each side of the odd one.
EDGE_FILES = {
    **{f"stamp_{key}": f"{CLEAN}\n{_line(stamp)}\n{CLEAN}\n" for key, stamp in [
        ("year_0000", "0000-01-07T09:00:00"), ("hour_24", "2013-01-07T24:00:00"),
        ("second_60", "2013-01-07T09:00:60"), ("feb_29_2013", "2013-02-29T09:00:00"),
        ("feb_29_2012", "2012-02-29T09:00:00"), ("lowercase_t", "2013-01-07t09:00:00"),
        ("space", "2013-01-07 09:00:00"), ("z", "2013-01-07T09:00:00Z"),
        ("offset", "2013-01-07T09:00:00+05:00"), ("fraction", "2013-01-07T09:00:00.250000"),
        ("nul", "2013-01-07T09:00:00\0")]},
    "blank_line": f"{CLEAN}\n\n{CLEAN}\n",
    "hash_line": f"{CLEAN}\n#{CLEAN}\n{CLEAN}\n",
    "quoted_comma": f'{CLEAN}\n"{CLEAN[:19]}"{CLEAN[19:-1]}"1,0"\n"{CLEAN[:19]}"{CLEAN[19:]}\n',
    "quoted_newline": f'{CLEAN}\n{CLEAN[:-1]}"1\n"\n{CLEAN}\n',
    "lone_cr": f"{CLEAN}\r{CLEAN}\r{CLEAN}\n",
    "no_final_newline": f"{CLEAN}\n{CLEAN}",
    "lf": f"{CLEAN}\n{CLEAN}\n",
    "crlf": f"{CLEAN}\r\n{CLEAN}\r\n",
    "ninth_column": f"{CLEAN}\n{CLEAN},extra\n{CLEAN}\n",
    "file_separator": f"{CLEAN}\n{CLEAN}\x1c\n{CLEAN}\n",  # space to loadtxt, not to int()
    "no_break_space": f"{CLEAN}\n{CLEAN}\xa0\n{CLEAN}\n",  # space to both
    "huge_field": f"{CLEAN}\n{CLEAN.replace(',1.0,', f',{HUGE_DISTANCE},')}\n",
}


class TestChunkedParse:
    """``load_raw_trips``' column-wise chunks against the per-record path and its fallback."""

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    @pytest.mark.parametrize("name", EDGE_FILES)
    def test_edge_cases(self, tmp_path, monkeypatch, name, chunk):
        if chunk is not None:
            monkeypatch.setattr("tripflow.ingest.CHUNK_LINES", chunk)
        path = tmp_path / "trips.csv"
        path.write_bytes((",".join(TRIPS_HEADER) + "\n" + EDGE_FILES[name]).encode("utf-8"))
        try:
            expected = per_record_ingest(path, DIRTY_SPACE)
        except Exception as error:  # e.g. the csv module's own error on an older Python
            with pytest.raises(type(error)) as raised:
                columnar_ingest(path, DIRTY_SPACE)
            assert str(raised.value) == str(error)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert columnar_ingest(path, DIRTY_SPACE) == expected
            assert caught == []  # e.g. loadtxt's "input contained no data" on a blank line

    def test_header_only(self, tmp_path):
        write_raw(tmp_path / "trips.csv", [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            raw, malformed = load_raw_trips(tmp_path / "trips.csv")
        assert raw.dtype == RAW_TRIP and raw.shape == (0,) and malformed == 0
        assert caught == []

    def test_fast_and_fallback_chunks_mix(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tripflow.ingest.CHUNK_LINES", 16)
        per_row = []

        def counted(rows, parse_rows=ingest._parse_rows):
            rows = list(rows)
            per_row.append(len(rows))
            return parse_rows(rows)

        monkeypatch.setattr("tripflow.ingest._parse_rows", counted)
        rng = np.random.default_rng(7)

        def pick(key, clean):
            menu = DIRTY_MENUS[key]
            return menu[rng.integers(clean)]

        dirty = {37, 38, 130, 131, 132, 250, *range(400, 432)}
        rows = [dirty_row(*(pick(key, len(DIRTY_MENUS[key]) if i in dirty else clean)
                            for key, clean in (("when", 1), ("end", 7), ("end", 7),
                                               ("distance", 1), ("secs", 1),
                                               ("passengers", 1), ("length", 1))))
                for i in range(480)]
        rows[37][0] = "not-a-date"  # one chunk is refused whatever the draws
        write_raw(tmp_path / "trips.csv", rows)
        result = columnar_ingest(tmp_path / "trips.csv", DIRTY_SPACE)
        assert result == per_record_ingest(tmp_path / "trips.csv", DIRTY_SPACE)
        assert set(per_row) == {16}  # each refused chunk was parsed row by row, whole
        assert 0 < sum(per_row) <= len(rows) // 4  # most rows took the column-wise parse
        assert result[1]["malformed"] >= 1 and len(result[0]) > 300


@pytest.mark.parametrize("before", [CLEAN, f'"{CLEAN[:19]}"{CLEAN[19:]}'],
                         ids=["chunk", "quoted"])  # a quote sends the rest of the file to csv
def test_row_csv_refuses_is_malformed(tmp_path, before):
    huge = CLEAN.replace(",1.0,", f",{HUGE_DISTANCE},")
    header = ",".join(TRIPS_HEADER)
    (tmp_path / "huge.csv").write_text(f"{header}\n{before}\n{huge}\n{CLEAN}\n", encoding="utf-8")
    (tmp_path / "clean.csv").write_text(f"{header}\n{CLEAN}\n{CLEAN}\n", encoding="utf-8")
    raw, malformed = load_raw_trips(tmp_path / "huge.csv")
    clean, none = load_raw_trips(tmp_path / "clean.csv")
    assert malformed == 1 and none == 0
    assert raw.dtype == RAW_TRIP and raw.tobytes() == clean.tobytes()


@pytest.mark.parametrize("before", [CLEAN, f'"{CLEAN[:19]}"{CLEAN[19:]}'],
                         ids=["chunk", "quoted"])
def test_bad_utf8_past_the_first_chunk_raises(tmp_path, monkeypatch, before):
    monkeypatch.setattr("tripflow.ingest.CHUNK_LINES", 1)  # after a quote, csv reads the file
    text = f"{','.join(TRIPS_HEADER)}\n{before}\n" + f"{CLEAN}\n" * 400  # past the 8 KB read
    (tmp_path / "trips.csv").write_bytes(text.encode() + b"\xff\xfe\n" + f"{CLEAN}\n".encode())
    with pytest.raises(UnicodeDecodeError):
        load_raw_trips(tmp_path / "trips.csv")
    with pytest.raises(UnicodeDecodeError):
        per_record_ingest(tmp_path / "trips.csv", DIRTY_SPACE)


def test_huge_passenger_counts_keep_their_sign(tmp_path):
    centroids = [t.centroid for t in DIRTY_SPACE.tracts]
    rows = [["2013-01-07T09:00:00", repr(centroids[0].lat), repr(centroids[0].lon),
             repr(centroids[1].lat), repr(centroids[1].lon), "1.0", "600", passengers]
            for passengers in ("99999999999999999999", "-99999999999999999999")]
    write_raw(tmp_path / "trips.csv", rows)
    raw, malformed = load_raw_trips(tmp_path / "trips.csv")
    assert raw.dtype == RAW_TRIP and len(raw) == 2 and malformed == 0
    trips, tally = clean_trips(raw, DIRTY_SPACE)
    assert trips.tolist() == [[9, 0, 1]]
    assert tally == {"passengers": 1}


SRC = Path(__file__).resolve().parents[1] / "src" / "tripflow"


def _file_writes(module: str, tree: ast.Module):
    """(module, function, target) of each raw file write in the functions of ``tree``.

    A raw write is a write-mode open, a path-taking np.savetxt, an os.replace or a
    ``.write_text``/``.write_bytes`` call. A savetxt into the handle of a
    ``with replaced(...) as fh`` block takes no path.
    """
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        handles = {item.optional_vars.id for node in ast.walk(func) if isinstance(node, ast.With)
                   for item in node.items if isinstance(item.optional_vars, ast.Name)
                   and ast.unparse(item.context_expr).startswith("replaced(")}
        for call in (node for node in ast.walk(func) if isinstance(node, ast.Call)):
            name, target = ast.unparse(call.func), ast.unparse(call.args[0]) if call.args else ""
            modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
            if name.endswith((".write_text", ".write_bytes")):
                yield module, func.name, name.rsplit(".", 1)[0]
            elif (name == "open" and any(set(ast.literal_eval(m)) & set("wax+") for m in modes)
                    or name == "np.savetxt" and target not in handles or name == "os.replace"):
                yield module, func.name, target


@pytest.mark.parametrize("source, flagged", [
    ("def f(p):\n    open(p, 'w')\n", True),
    ("def f(p):\n    open(p, mode='a')\n", True),
    ("def f(p):\n    open(p)\n", False),
    ("def f(p, x):\n    np.savetxt(p, x)\n", True),
    ("def f(p, x):\n    with replaced(p) as fh:\n        np.savetxt(fh, x)\n", False),
    ("def f(p, q):\n    os.replace(p, q)\n", True),
    ("def f(p):\n    p.write_text('x')\n", True),
    ("def f(d):\n    (d / 'a').write_bytes(b'x')\n", True),
])
def test_file_write_walker(source, flagged):
    assert bool(list(_file_writes("m", ast.parse(source)))) is flagged


def test_every_artifact_written_through_replaced():
    writes = {w for path in sorted(SRC.glob("*.py"))
              for w in _file_writes(path.stem, ast.parse(path.read_text(encoding="utf-8")))}
    assert writes == {("files", "replaced", "partial")}  # its open and os.replace, no other
