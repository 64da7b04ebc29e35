"""Trip ingestion: raw record parsing, cleaning filters, transition counting."""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .geo import HOURS_PER_WEEK, GeoPoint, StateSpace, hour_of_week, locate

# Rejection reasons, in the order the filters are applied; a record is
# tallied under the first reason it violates.
REJECT_MALFORMED = "malformed"
REJECT_DISTANCE = "distance"
REJECT_TIME = "time"
REJECT_PASSENGERS = "passengers"
REJECT_OUT_OF_AREA = "out_of_area"
REJECT_SELF_LOOP = "self_loop"


@dataclass(frozen=True)
class RawTripRecord:
    pickup_datetime: datetime
    pickup: GeoPoint
    dropoff: GeoPoint
    trip_distance: float
    trip_time_in_secs: float
    passenger_count: int


class Trip(NamedTuple):
    """A cleaned ride: hour-of-week and pickup/dropoff tract indices; one trip row."""

    hour: int
    pickup_tract: int
    dropoff_tract: int


TripRows = Union[Sequence[Trip], np.ndarray]


def trip_rows(trips: TripRows, size: int) -> np.ndarray:
    """The trips as an (m, 3) int64 array, every hour in the week and tract below ``size``."""
    rows = np.asarray(trips, dtype=np.int64).reshape(-1, 3)
    outside = ((rows < 0) | (rows >= (HOURS_PER_WEEK, size, size))).any(axis=1)
    if outside.any():
        raise IndexError(f"trip row {tuple(rows[np.argmax(outside)].tolist())} out of range "
                         f"for {HOURS_PER_WEEK} hours and size {size}")
    return rows


@dataclass(frozen=True)
class TransitionCounts:
    counts: np.ndarray
    total: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("total does not match entry sum")
        if (self.counts < 0).any():
            raise ValueError("negative transition count")
        self.counts.setflags(write=False)


def clean_trips(
    records: Iterable[RawTripRecord],
    space: StateSpace,
    exclude_self_loops: bool = True,
) -> tuple[list[Trip], dict[str, int]]:
    """Apply the cleaning filters and map endpoints to tracts.

    Drops records with non-positive odometer distance, duration, or passenger
    count, records whose endpoints locate outside the state space, and (when
    ``exclude_self_loops``) rides that start and end in the same tract.
    Returns surviving trips in input order plus a per-reason rejection tally;
    ``len(trips) + sum(tally.values())`` always equals the input length.
    Records whose fields are missing or of the wrong type are tallied as
    malformed; any other error propagates.
    """
    if not space.tracts:
        raise ValueError("empty state space")
    trips: list[Trip] = []
    tally: Counter[str] = Counter()
    for rec in records:
        try:
            if not math.isfinite(rec.trip_distance) or rec.trip_distance <= 0:
                tally[REJECT_DISTANCE] += 1
            elif not math.isfinite(rec.trip_time_in_secs) or rec.trip_time_in_secs <= 0:
                tally[REJECT_TIME] += 1
            elif rec.passenger_count <= 0:
                tally[REJECT_PASSENGERS] += 1
            else:
                pickup, dropoff = locate(rec.pickup, space), locate(rec.dropoff, space)
                if pickup is None or dropoff is None:
                    tally[REJECT_OUT_OF_AREA] += 1
                elif exclude_self_loops and pickup == dropoff:
                    tally[REJECT_SELF_LOOP] += 1
                else:
                    trips.append(Trip(hour_of_week(rec.pickup_datetime), pickup, dropoff))
        except (AttributeError, TypeError, ValueError):
            tally[REJECT_MALFORMED] += 1
    return trips, tally


def transition_counts(trips: TripRows, size: int) -> TransitionCounts:
    """Count pickup-to-dropoff transitions into a |S| x |S| integer matrix."""
    rows = trip_rows(trips, size)
    counts = np.bincount(rows[:, 1] * size + rows[:, 2], minlength=size * size)
    return TransitionCounts(counts=counts.reshape(size, size), total=len(rows))


TRIPS_HEADER = [
    "pickup_datetime", "pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon",
    "trip_distance", "trip_time_in_secs", "passenger_count",
]


def load_raw_trips(path) -> tuple[list[RawTripRecord], int]:
    """Read a trips CSV; returns parsed records plus a malformed-row count.

    Rows that fail to parse (bad timestamp, non-numeric fields, wrong column
    count) are counted, never fatal: large trip files always contain noise.
    """
    records: list[RawTripRecord] = []
    malformed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRIPS_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRIPS_HEADER)}")
        for row in reader:
            try:
                records.append(RawTripRecord(
                    pickup_datetime=datetime.fromisoformat(row[0]),
                    pickup=GeoPoint(float(row[1]), float(row[2])),
                    dropoff=GeoPoint(float(row[3]), float(row[4])),
                    trip_distance=float(row[5]),
                    trip_time_in_secs=float(row[6]),
                    passenger_count=int(row[7]),
                ))
            except (IndexError, ValueError):
                malformed += 1
    return records, malformed


def write_clean_trips(path, trips: Iterable[Trip]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(Trip._fields)
        writer.writerows(trips)


def load_clean_trips(path) -> np.ndarray:
    """Read a cleaned-trips file as an (m, 3) int64 array of trip rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(Trip._fields):
            raise ValueError(f"{path}: not a cleaned-trips file")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file holds zero trips
            return np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2, usecols=(0, 1, 2))
