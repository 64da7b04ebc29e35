"""Discrete geographic state space: tracts, distances, point location, hour-of-week.

A city is modeled as a fixed, ordered set of tracts. Every downstream stage
(trip cleaning, tensor building, hypothesis matrices) addresses tracts by
their dense integer index, so the ordering established here is load-bearing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .files import write_csv

EARTH_RADIUS_KM = 6371.0088
MIN_DISTANCE_KM = 1e-6  # floor for distinct tracts with coincident centroids
HOURS_PER_WEEK = 168


class InvalidCoordinateError(ValueError):
    """Raised for non-finite or out-of-range latitude/longitude."""


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        for name, value, limit in (("lat", self.lat, 90.0), ("lon", self.lon, 180.0)):
            if not -limit <= value <= limit:  # NaN fails too
                raise InvalidCoordinateError(
                    f"{name} must be finite and within [-{limit:g}, {limit:g}], got {value!r}")


@dataclass(frozen=True)
class Tract:
    """One discrete state's geometry: identifier, centroid, area, optional ring."""

    id: str
    centroid: GeoPoint
    area: float
    polygon: Optional[tuple[GeoPoint, ...]] = None

    def __post_init__(self):
        if self.area <= 0 or not math.isfinite(self.area):
            raise ValueError(f"area must be finite and > 0, got {self.area!r}")
        if self.polygon is not None and len(self.polygon) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(self.polygon)}")


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle km on a sphere of radius 6371.0088 km, elementwise over broadcast arrays."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon2, lon1))
    # float_power and math.asin call the C library's pow and asin, so each distance has the
    # bits of the scalar ``math`` formula; numpy's ``** 2`` and arcsine round differently.
    h = (np.float_power(np.sin(dphi / 2.0), 2)
         + np.cos(phi1) * np.cos(phi2) * np.float_power(np.sin(dlam / 2.0), 2))
    s = np.minimum(1.0, np.sqrt(h))
    arc = np.fromiter(map(math.asin, s.ravel().tolist()), dtype=float, count=s.size)
    return 2.0 * EARTH_RADIUS_KM * arc.reshape(s.shape)


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """``haversine_km`` between two points."""
    return float(haversine_km(a.lat, a.lon, b.lat, b.lon))


def hour_of_week(t: datetime | np.ndarray) -> int | np.ndarray:
    """Map a local timestamp to its hour-of-week slot, 0 = Monday 00:00-00:59.

    A ``datetime64`` array maps elementwise to an int64 array.
    """
    if isinstance(t, np.ndarray):  # 1970-01-01 00:00, hour 0 of the epoch, was a Thursday
        return (t.astype("datetime64[h]").astype(np.int64) + 72) % HOURS_PER_WEEK
    return 24 * t.weekday() + t.hour


_EDGE_EPS = 1e-12  # boundary tolerance, in degrees


def _in_ring(lat: np.ndarray, lon: np.ndarray, ring: list[tuple[float, float]]) -> np.ndarray:
    """Even-odd containment of each point in planar (lon, lat) space; boundary is inside."""
    inside, on_edge = np.zeros((2, len(lat)), dtype=bool)
    for (y1, x1), (y2, x2) in zip(ring, ring[1:] + ring[:1]):
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        on_edge |= ((np.abs(cross) <= _EDGE_EPS)
                    & (min(x1, x2) - _EDGE_EPS <= lon) & (lon <= max(x1, x2) + _EDGE_EPS)
                    & (min(y1, y2) - _EDGE_EPS <= lat) & (lat <= max(y1, y2) + _EDGE_EPS))
        if y1 != y2:  # a horizontal edge never straddles the ray
            x_cross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
            inside ^= ((y1 > lat) != (y2 > lat)) & (lon < x_cross)
    return inside | on_edge


@dataclass(frozen=True)
class StateSpace:
    """Ordered tract set with its indicator table and centroid-to-centroid distances.

    A tract's index is its place in ``tracts``. ``properties`` maps each indicator
    name to one read-only column of non-negative reals in that order.
    """

    tracts: tuple[Tract, ...]
    properties: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.tracts)
        for key, column in self.properties.items():
            ok = np.isfinite(column) & (column >= 0)
            if column.shape != (n,) or not ok.all():
                where = f"tract {self.tracts[int(ok.argmin())].id!r}: " if ok.shape == (n,) else ""
                raise ValueError(f"{where}property {key!r} must hold one finite value >= 0 "
                                 "per tract")
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tracts)

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only haversine km between centroids, computed on first read.

        Symmetric, zero on the diagonal, and floored at ``MIN_DISTANCE_KM``
        off-diagonal so the inverse-distance hypothesis formulas stay finite even
        for coincident centroids.
        """
        n = len(self.tracts)
        lat, lon = np.array([(t.centroid.lat, t.centroid.lon) for t in self.tracts]).reshape(-1, 2).T
        i, j = np.triu_indices(n, 1)
        dist = np.zeros((n, n))
        dist[i, j] = dist[j, i] = np.maximum(haversine_km(lat[i], lon[i], lat[j], lon[j]),
                                             MIN_DISTANCE_KM)
        dist.setflags(write=False)
        return dist

    @classmethod
    def from_tracts(cls, tracts: Iterable[Tract],
                    properties: Optional[Mapping[str, Sequence[float]]] = None) -> "StateSpace":
        """The space of ``tracts`` in their order; ``tract_area`` is their areas unless given."""
        tracts = tuple(tracts)
        table = {key: np.array(column, dtype=float) for key, column in (properties or {}).items()}
        table.setdefault("tract_area", np.array([t.area for t in tracts], dtype=float))
        return cls(tracts=tracts, properties=table)

    def property_vector(self, key: str) -> np.ndarray:
        """Per-tract values of one named indicator, in index order (read-only)."""
        if key not in self.properties:
            raise KeyError(f"no property {key!r}")
        return self.properties[key]


def locate(points, space: StateSpace) -> np.ndarray:
    """Tract index of each (lat, lon) row of ``points``, as an int64 array.

    With polygon geometry present, a point maps to the lowest-index tract whose
    ring contains it (boundary counts as inside), or to -1 if no ring does. In
    a polygon-free space it maps to the nearest centroid, ties to the lowest index.
    """
    if not space.tracts:
        raise ValueError("empty state space")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    lat, lon = points.T
    if not any(t.polygon is not None for t in space.tracts):
        best, best_d = np.zeros(len(points), dtype=np.int64), np.full(len(points), math.inf)
        for index, t in enumerate(space.tracts):
            d = haversine_km(lat, lon, t.centroid.lat, t.centroid.lon)
            closer = d < best_d
            best[closer], best_d[closer] = index, d[closer]
        return best
    found = np.full(len(points), -1, dtype=np.int64)
    by_lat = np.argsort(lat, kind="stable")
    sorted_lat = lat[by_lat]
    for index, t in enumerate(space.tracts):  # a point keeps its first, lowest-index hit
        if t.polygon is not None:
            # Outside the ring's bounding box widened by the tolerance, a point is on
            # no edge and crosses an even number of them.
            ring = [(p.lat, p.lon) for p in t.polygon]
            lo, hi = np.min(ring, axis=0) - _EDGE_EPS, np.max(ring, axis=0) + _EDGE_EPS
            band = by_lat[sorted_lat.searchsorted(lo[0]):sorted_lat.searchsorted(hi[0], "right")]
            near = band[(found[band] < 0) & (lon[band] >= lo[1]) & (lon[band] <= hi[1])]
            found[near[_in_ring(lat[near], lon[near], ring)]] = index
    return found


def _parse_polygon(text: str) -> Optional[tuple[GeoPoint, ...]]:
    if not text.strip():
        return None
    return tuple(GeoPoint(float(lat), float(lon)) for lat, lon in map(str.split, text.split(";")))


def _cell(path, row: dict, key: str, parse=float):
    """``parse`` of one tracts-file cell; a failure is named by path, tract and column."""
    try:
        return parse(row[key])
    except ValueError as exc:
        raise ValueError(f"{path}: tract {row['tract_id']!r}, column {key!r}: {exc}") from None


def load_tracts(path) -> StateSpace:
    """Read a tracts CSV into a StateSpace.

    Expected header: ``tract_id, lat, lon, area_sqkm, polygon`` followed by
    zero or more numeric property columns whose names become property keys;
    columns with an empty name are ignored. The polygon cell may be empty;
    when present it is semicolon-separated ``lat lon`` pairs. A repeated
    header name, a repeated ``tract_id``, a row with more fields than the
    header, a missing, empty or non-numeric cell and a value that breaks a
    rule of GeoPoint, Tract or StateSpace are rejected by name.
    """
    reserved = ("tract_id", "lat", "lon", "area_sqkm", "polygon")
    tracts: dict[str, Tract] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or reader.fieldnames[:5] != list(reserved):
            raise ValueError(f"{path}: expected header starting with {', '.join(reserved)}")
        names = [c for c in reader.fieldnames if c]
        repeated = [c for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise ValueError(f"{path}: repeated column name {repeated[0]!r} in header")
        columns: dict[str, list[float]] = {key: [] for key in names[5:]}
        for row in reader:
            tract_id = row["tract_id"]
            if None in row:  # DictReader files the fields past the header's under None
                width = len(reader.fieldnames)
                raise ValueError(f"{path}: tract {tract_id!r}: {width + len(row[None])} fields, "
                                 f"header has {width}")
            if tract_id in tracts:
                raise ValueError(f"{path}: duplicate tract_id {tract_id!r}")
            for key, column in columns.items():
                column.append(_cell(path, row, key))
            # checked column by column (0.0 stands in for lon), so a broken rule names its column
            lat = _cell(path, row, "lat", lambda text: GeoPoint(float(text), 0.0).lat)
            point = _cell(path, row, "lon", lambda text: GeoPoint(lat, float(text)))
            area = _cell(path, row, "area_sqkm",
                         lambda text: Tract(tract_id, point, float(text)).area)
            tracts[tract_id] = _cell(path, row, "polygon", lambda text: Tract(
                tract_id, point, area, _parse_polygon(text)))
    if not tracts:
        raise ValueError(f"{path}: no tracts")
    try:
        return StateSpace.from_tracts(tracts.values(), columns)
    except ValueError as exc:  # a property value that breaks its rule, named by tract and key
        raise ValueError(f"{path}: {exc}") from None


def write_tracts(path, space: StateSpace, property_keys: Sequence[str]) -> None:
    """Write a StateSpace back to the tracts CSV format, whole or not at all."""
    columns = [space.property_vector(key).tolist() for key in property_keys]
    write_csv(path, ["tract_id", "lat", "lon", "area_sqkm", "polygon", *property_keys],
              ([t.id, repr(t.centroid.lat), repr(t.centroid.lon), repr(t.area),
                ";".join(f"{p.lat!r} {p.lon!r}" for p in t.polygon) if t.polygon else "",
                *(repr(column[i]) for column in columns)] for i, t in enumerate(space.tracts)))
