"""Trip ingestion: raw record parsing, cleaning filters, transition counting."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, islice
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .files import write_int_rows
from .geo import HOURS_PER_WEEK, StateSpace, hour_of_week, locate

# Rejection reasons, in the order the filters are applied; a record is
# tallied under the first reason it violates.
REJECT_MALFORMED = "malformed"
REJECT_DISTANCE = "distance"
REJECT_TIME = "time"
REJECT_PASSENGERS = "passengers"
REJECT_OUT_OF_AREA = "out_of_area"
REJECT_SELF_LOOP = "self_loop"


TRIPS_HEADER = [
    "pickup_datetime", "pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon",
    "trip_distance", "trip_time_in_secs", "passenger_count",
]
# One parsed raw-trip row: the trips file's columns, the timestamp reduced to its hour-of-week.
RAW_TRIP = np.dtype([("hour", np.int64), *((name, float) for name in TRIPS_HEADER[1:7]),
                     ("passenger_count", np.int64)])
# Raw trips are read in chunks of CHUNK_LINES lines, a few MB of text, columns and rows at
# once; longer chunks parse no faster. A chunk that cannot be parsed by column is parsed
# row by row.
CHUNK_LINES = 1 << 12
# The columns as the chunk parse reads them: the timestamp as bytes, one more than its
# 19-character form so that a longer one shows, and every other column as in RAW_TRIP.
_COLUMNS = np.dtype([("pickup_datetime", "S20"), *RAW_TRIP.descr[1:]])
_STAMP = np.frombuffer(b"0000-00-00T00:00:00\0", dtype=np.uint8)  # "0" stands for any digit
_DIGITS = _STAMP == ord("0")
# A NUL ends a bytes timestamp early, and csv on Python 3.10 refuses it. loadtxt strips
# \x1c-\x1f around a number as whitespace, float() and int() refuse them.
_UNSAFE = "\0\x1c\x1d\x1e\x1f"


class Trip(NamedTuple):
    """A cleaned ride: hour-of-week and pickup/dropoff tract indices; one trip row."""

    hour: int
    pickup_tract: int
    dropoff_tract: int


TripRows = Union[Sequence[Trip], np.ndarray]


def trip_rows(trips: TripRows, size: int) -> np.ndarray:
    """The trips as an (m, 3) int64 array, every hour in the week and tract below ``size``."""
    rows = np.asarray(trips, dtype=np.int64)
    if rows.shape == (0,):  # an empty sequence
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"trip rows must be (m, 3), got shape {rows.shape}")
    outside = ((rows < 0) | (rows >= (HOURS_PER_WEEK, size, size))).any(axis=1)
    if outside.any():
        raise IndexError(f"trip row {tuple(rows[np.argmax(outside)].tolist())} out of range "
                         f"for {HOURS_PER_WEEK} hours and size {size}")
    return rows


@dataclass(frozen=True)
class TransitionCounts:
    counts: np.ndarray

    def __post_init__(self):
        if (self.counts < 0).any():
            raise ValueError("negative transition count")
        self.counts.setflags(write=False)

    @property
    def total(self) -> int:
        """The number of trips counted: the sum of every cell."""
        return int(self.counts.sum())


def clean_trips(
    raw: np.ndarray,
    space: StateSpace,
    exclude_self_loops: bool = True,
) -> tuple[np.ndarray, dict[str, int]]:
    """Apply the cleaning filters to ``RAW_TRIP`` rows and map endpoints to tracts.

    Drops rows with a non-positive or non-finite odometer distance or duration,
    a non-positive passenger count, an endpoint outside the state space, and
    (when ``exclude_self_loops``) rides that start and end in the same tract.
    Returns the surviving trips in input order as (m, 3) int64 trip rows, plus
    a tally of the reasons that occurred, each row under the first it violates:
    ``len(rows) + sum(tally.values())`` always equals the input length.
    """
    if not space.tracts:
        raise ValueError("empty state space")
    raw = np.asarray(raw, dtype=RAW_TRIP)
    ends = np.column_stack([raw[name] for name in TRIPS_HEADER[1:5]])  # (lat, lon) twice
    tracts = locate(ends.reshape(-1, 2), space).reshape(-1, 2)
    distance, secs = raw["trip_distance"], raw["trip_time_in_secs"]
    filters = (
        (REJECT_DISTANCE, ~(np.isfinite(distance) & (distance > 0))),
        (REJECT_TIME, ~(np.isfinite(secs) & (secs > 0))),
        (REJECT_PASSENGERS, raw["passenger_count"] <= 0),
        (REJECT_OUT_OF_AREA, (tracts < 0).any(axis=1)),
        (REJECT_SELF_LOOP, (tracts[:, 0] == tracts[:, 1]) & exclude_self_loops),
    )
    keep = np.ones(len(raw), dtype=bool)
    tally: dict[str, int] = {}
    for reason, rejected in filters:
        hits = int(np.count_nonzero(keep & rejected))
        if hits:
            tally[reason] = hits
        keep &= ~rejected
    return np.column_stack((raw["hour"], tracts))[keep], tally


def transition_counts(trips: TripRows, size: int) -> TransitionCounts:
    """Count pickup-to-dropoff transitions into a |S| x |S| integer matrix."""
    rows = trip_rows(trips, size)
    counts = np.bincount(rows[:, 1] * size + rows[:, 2], minlength=size * size)
    return TransitionCounts(counts=counts.reshape(size, size))


def _parse_rows(rows: Iterable[list[str]]) -> tuple[np.ndarray, int]:
    """Parse CSV rows one by one: the rows that parse as ``RAW_TRIP``, plus the count that do not.

    A row the csv reader refuses (a field over ``csv.field_size_limit()``, or a NUL on Python
    3.10) counts as malformed too, and the reader goes on at the next line.
    The exact reference of the columnar parse, and its fallback.
    """
    parsed, malformed, rows = [], 0, iter(rows)
    while True:
        try:
            row = next(rows)  # a read error, such as bad UTF-8, is the file's fault: it propagates
        except StopIteration:
            break
        except csv.Error:
            malformed += 1
            continue
        try:
            parsed.append((hour_of_week(datetime.fromisoformat(row[0])), *map(float, row[1:7]),
                           min(max(int(row[7]), -2**63), 2**63 - 1)))  # only its sign is used
        except (IndexError, ValueError):
            malformed += 1
    return np.array(parsed, dtype=RAW_TRIP), malformed


def _parse_columns(lines: list[str]) -> Optional[np.ndarray]:
    """Parse quote-free lines column by column as ``RAW_TRIP`` rows.

    Returns None unless every row provably gets what ``_parse_rows`` gives it:
    one row per line, every field read without error or warning, and every
    timestamp in the form ``YYYY-MM-DDTHH:MM:SS`` with a valid date, which
    ``datetime.fromisoformat`` reads the same way on every Python from 3.10.
    """
    text = "".join(lines)
    # csv refuses a field longer than its limit, so a line that long is left to csv
    if any(c in text for c in _UNSAFE) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data" for blank lines
            columns = np.loadtxt(lines, delimiter=",", dtype=_COLUMNS, comments=None, ndmin=1)
    except (ValueError, Warning):  # e.g. too few fields, "1_0.5" or an int64 overflow
        return None
    if len(columns) != len(lines):  # loadtxt skips a blank line; csv reads it as a short row
        return None
    stamps = columns["pickup_datetime"]
    chars = np.ascontiguousarray(stamps).view(np.uint8).reshape(-1, _STAMP.size)
    digits = chars[:, _DIGITS] - np.uint8(ord("0"))  # a non-digit wraps above 9
    if ((chars[:, ~_DIGITS] != _STAMP[~_DIGITS]).any() or (digits > 9).any()
            or (digits[:, :4] == 0).all(axis=1).any()):  # year 0000, which datetime64 takes
        return None
    try:
        when = stamps.astype("datetime64[s]")
    except ValueError:  # a field out of range, such as a day the month does not have
        return None
    raw = np.empty(len(columns), dtype=RAW_TRIP)
    raw["hour"] = hour_of_week(when)
    for name in TRIPS_HEADER[1:]:
        raw[name] = columns[name]
    return raw


def load_raw_trips(path) -> tuple[np.ndarray, int]:
    """Read a trips CSV; returns its rows as a ``RAW_TRIP`` array plus a malformed-row count.

    Rows that fail to parse (bad timestamp, non-numeric fields, too few
    columns) or carry a non-finite or out-of-range coordinate are counted,
    never fatal: large trip files always contain noise.

    The file is read ``CHUNK_LINES`` lines at a time and each chunk parsed
    column by column wherever that gives exactly what ``_parse_rows`` gives.
    From the first chunk holding a quote on, the rest of the file is read by
    ``csv`` and parsed row by row, since a quoted field may hold a line break.
    """
    parts, malformed = [np.empty(0, dtype=RAW_TRIP)], 0
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error:  # e.g. a field over csv.field_size_limit(): no trips header either
            header = None
        if header != TRIPS_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRIPS_HEADER)}")
        while lines := list(islice(fh, CHUNK_LINES)):
            if '"' in "".join(lines):
                raw, bad = _parse_rows(csv.reader(chain(lines, fh)))
            elif (raw := _parse_columns(lines)) is not None:
                bad = 0
            else:
                raw, bad = _parse_rows(csv.reader(lines))
            ends = np.column_stack([raw[name] for name in TRIPS_HEADER[1:5]])
            valid = (np.abs(ends) <= (90.0, 180.0, 90.0, 180.0)).all(axis=1)  # NaN fails
            parts.append(raw[valid])
            malformed += bad + int(np.count_nonzero(~valid))
    return np.concatenate(parts), malformed


def write_clean_trips(path, trips: Union[np.ndarray, Iterable[Trip]]) -> None:
    """Write the cleaned-trips file, whole or not at all, from (m, 3) trip rows or ``Trip``s."""
    if not isinstance(trips, np.ndarray):
        trips = list(trips)
        if {*map(len, trips)} - {3}:  # a row of another length would shift every later row
            raise ValueError("every trip row must have 3 values")
        trips = np.fromiter(chain.from_iterable(trips), dtype=np.int64).reshape(-1, 3)
    if trips.ndim != 2 or trips.shape[1] != 3:
        raise ValueError(f"trip rows must be (m, 3), got shape {trips.shape}")
    write_int_rows(path, trips, Trip._fields)


def load_clean_trips(path) -> np.ndarray:
    """Read a cleaned-trips file as an (m, 3) int64 array of trip rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(Trip._fields):
            raise ValueError(f"{path}: not a cleaned-trips file")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file holds zero trips
            return np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2, usecols=(0, 1, 2))
