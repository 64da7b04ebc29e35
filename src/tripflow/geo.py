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
from typing import Optional, Sequence

import numpy as np

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
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidCoordinateError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0):
            raise InvalidCoordinateError(f"coordinates out of range ({self.lat}, {self.lon})")


@dataclass(frozen=True)
class Tract:
    """One discrete state: identifier, centroid, area, optional ring, indicators.

    ``properties`` maps indicator names (venue counts, check-ins, census
    figures) to non-negative reals; hypothesis builders look weights up here.
    """

    id: str
    index: int
    centroid: GeoPoint
    area: float
    polygon: Optional[tuple[GeoPoint, ...]] = None
    properties: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.area <= 0 or not math.isfinite(self.area):
            raise ValueError(f"tract {self.id!r}: area must be finite and > 0")
        if self.polygon is not None and len(self.polygon) < 3:
            raise ValueError(f"tract {self.id!r}: polygon needs >= 3 vertices")
        for key, value in self.properties.items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"tract {self.id!r}: property {key!r} must be finite and >= 0")


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


def hour_of_week(t: datetime) -> int:
    """Map a local timestamp to its hour-of-week slot, 0 = Monday 00:00-00:59."""
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
    """Ordered tract set with a precomputed centroid-to-centroid distance matrix.

    ``distances`` is symmetric, zero on the diagonal, and floored at
    ``MIN_DISTANCE_KM`` off-diagonal so the inverse-distance hypothesis
    formulas stay finite even for coincident centroids.
    """

    tracts: tuple[Tract, ...]
    distances: np.ndarray

    def __post_init__(self):
        if [t.index for t in self.tracts] != list(range(len(self.tracts))):
            raise ValueError("tracts must be ordered by index 0..|S|-1")
        n = len(self.tracts)
        if self.distances.shape != (n, n):
            raise ValueError("distance matrix shape does not match tract count")
        if n:
            if np.diagonal(self.distances).any():
                raise ValueError("distance diagonal must be zero")
            if not np.array_equal(self.distances, self.distances.T):
                raise ValueError("distance matrix must be symmetric")
            off = ~np.eye(n, dtype=bool)
            if n > 1 and (self.distances[off] < MIN_DISTANCE_KM).any():
                raise ValueError(f"off-diagonal distances must be >= {MIN_DISTANCE_KM} km")
        self.distances.setflags(write=False)

    def __len__(self) -> int:
        return len(self.tracts)

    @classmethod
    def from_tracts(cls, tracts: Sequence[Tract]) -> "StateSpace":
        ordered = tuple(sorted(tracts, key=lambda t: t.index))
        n = len(ordered)
        lat, lon = np.array([(t.centroid.lat, t.centroid.lon) for t in ordered]).reshape(-1, 2).T
        i, j = np.triu_indices(n, 1)
        dist = np.zeros((n, n))
        dist[i, j] = dist[j, i] = np.maximum(haversine_km(lat[i], lon[i], lat[j], lon[j]),
                                             MIN_DISTANCE_KM)
        return cls(tracts=ordered, distances=dist)

    def property_vector(self, key: str) -> np.ndarray:
        """Per-tract values of one named indicator, in index order."""
        values = np.empty(len(self.tracts))
        for t in self.tracts:
            if key not in t.properties:
                raise KeyError(f"tract {t.id!r} has no property {key!r}")
            values[t.index] = t.properties[key]
        return values


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
        for t in space.tracts:
            d = haversine_km(lat, lon, t.centroid.lat, t.centroid.lon)
            closer = d < best_d
            best[closer], best_d[closer] = t.index, d[closer]
        return best
    found = np.full(len(points), -1, dtype=np.int64)
    by_lat = np.argsort(lat, kind="stable")
    sorted_lat = lat[by_lat]
    for t in space.tracts:  # index order: a point keeps its first, lowest-index hit
        if t.polygon is not None:
            # Outside the ring's bounding box widened by the tolerance, a point is on
            # no edge and crosses an even number of them.
            ring = [(p.lat, p.lon) for p in t.polygon]
            lo, hi = np.min(ring, axis=0) - _EDGE_EPS, np.max(ring, axis=0) + _EDGE_EPS
            band = by_lat[sorted_lat.searchsorted(lo[0]):sorted_lat.searchsorted(hi[0], "right")]
            near = band[(found[band] < 0) & (lon[band] >= lo[1]) & (lon[band] <= hi[1])]
            found[near[_in_ring(lat[near], lon[near], ring)]] = t.index
    return found


def _parse_polygon(text: str) -> Optional[tuple[GeoPoint, ...]]:
    text = text.strip()
    if not text:
        return None
    points = []
    for pair in text.split(";"):
        lat_s, lon_s = pair.strip().split()
        points.append(GeoPoint(float(lat_s), float(lon_s)))
    return tuple(points)


def load_tracts(path) -> StateSpace:
    """Read a tracts CSV into a StateSpace.

    Expected header: ``tract_id, lat, lon, area_sqkm, polygon`` followed by
    zero or more numeric property columns whose names become property keys.
    The polygon cell may be empty; when present it is semicolon-separated
    ``lat lon`` pairs. A ``tract_area`` property mirroring ``area_sqkm`` is
    injected when the file does not carry one, so area can serve as a weight.
    A repeated ``tract_id`` is rejected.
    """
    reserved = ("tract_id", "lat", "lon", "area_sqkm", "polygon")
    tracts = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[:5] != list(reserved):
            raise ValueError(f"{path}: expected header starting with {', '.join(reserved)}")
        property_keys = [c for c in reader.fieldnames[5:] if c]
        for index, row in enumerate(reader):
            if row["tract_id"] in seen:
                raise ValueError(f"{path}: duplicate tract_id {row['tract_id']!r}")
            seen.add(row["tract_id"])
            props = {key: float(row[key]) for key in property_keys}
            area = float(row["area_sqkm"])
            props.setdefault("tract_area", area)
            tracts.append(Tract(
                id=row["tract_id"],
                index=index,
                centroid=GeoPoint(float(row["lat"]), float(row["lon"])),
                area=area,
                polygon=_parse_polygon(row.get("polygon") or ""),
                properties=props,
            ))
    if not tracts:
        raise ValueError(f"{path}: no tracts")
    return StateSpace.from_tracts(tracts)


def write_tracts(path, space: StateSpace, property_keys: Sequence[str]) -> None:
    """Write a StateSpace back to the tracts CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tract_id", "lat", "lon", "area_sqkm", "polygon", *property_keys])
        for t in space.tracts:
            ring = ";".join(f"{p.lat!r} {p.lon!r}" for p in t.polygon) if t.polygon else ""
            writer.writerow([
                t.id, repr(t.centroid.lat), repr(t.centroid.lon), repr(t.area), ring,
                *(repr(t.properties[k]) for k in property_keys),
            ])
