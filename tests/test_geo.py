import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripflow.geo import (
    GeoPoint,
    InvalidCoordinateError,
    MIN_DISTANCE_KM,
    StateSpace,
    Tract,
    haversine_distance,
    hour_of_week,
    load_tracts,
    locate,
    point_in_polygon,
    write_tracts,
)

FLATIRON = GeoPoint(40.74111, -73.98972)
TIMES_SQUARE = GeoPoint(40.75773, -73.98570)

coords = st.tuples(st.floats(-90, 90), st.floats(-180, 180)).map(lambda t: GeoPoint(*t))


class TestHaversine:
    def test_identity(self):
        assert haversine_distance(FLATIRON, FLATIRON) == 0.0

    def test_known_pair(self):
        # 1.8788319532 km frozen from two independent high-precision
        # great-circle evaluations (law of cosines and atan2 arc formulas)
        d = haversine_distance(FLATIRON, TIMES_SQUARE)
        assert d == pytest.approx(1.8788319532, abs=1e-6)

    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert haversine_distance(a, b) == haversine_distance(b, a)

    @given(coords, coords)
    def test_non_negative(self, a, b):
        assert haversine_distance(a, b) >= 0.0

    def test_invalid_coordinates(self):
        with pytest.raises(InvalidCoordinateError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(InvalidCoordinateError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(InvalidCoordinateError):
            GeoPoint(0.0, float("inf"))


class TestHourOfWeek:
    def test_monday_first_slot(self):
        assert hour_of_week(datetime(2013, 1, 7, 0, 30)) == 0

    def test_sunday_last_slot(self):
        assert hour_of_week(datetime(2013, 1, 13, 23, 59)) == 167

    def test_wednesday_morning(self):
        assert hour_of_week(datetime(2013, 1, 9, 9, 0)) == 57

    @given(st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 1, 1)))
    def test_total(self, t):
        assert 0 <= hour_of_week(t) < 168


def square(south, west, size=0.1):
    return (GeoPoint(south, west), GeoPoint(south, west + size),
            GeoPoint(south + size, west + size), GeoPoint(south + size, west))


def tract(i, lat, lon, polygon=None):
    return Tract(id=f"T{i}", index=i, centroid=GeoPoint(lat, lon), area=1.0, polygon=polygon)


class TestLocate:
    def test_inside_polygon(self):
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.25, square(0.0, 0.2)),
        ])
        assert locate(GeoPoint(0.05, 0.25), space) == 1

    def test_nearest_centroid_fallback(self):
        space = StateSpace.from_tracts([tract(i, 0.0, i * 0.1) for i in range(8)])
        assert locate(GeoPoint(0.01, 0.51), space) == 5

    def test_outside_all_polygons(self):
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.25, square(0.0, 0.2)),
        ])
        assert locate(GeoPoint(5.0, 5.0), space) is None

    def test_boundary_counts_as_inside(self):
        space = StateSpace.from_tracts([tract(0, 0.05, 0.05, square(0.0, 0.0))])
        assert locate(GeoPoint(0.0, 0.05), space) == 0  # on the south edge
        assert locate(GeoPoint(0.0, 0.0), space) == 0   # on a vertex

    def test_shared_boundary_lowest_index_wins(self):
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.15, square(0.0, 0.1)),
        ])
        assert locate(GeoPoint(0.05, 0.1), space) == 0

    def test_mixed_space_point_outside_polygon_is_none(self):
        # one tract has no polygon: no centroid fallback once any ring exists
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.25),
        ])
        assert locate(GeoPoint(0.05, 0.25), space) is None

    def test_deterministic(self):
        space = StateSpace.from_tracts([tract(i, 0.0, i * 0.1) for i in range(5)])
        p = GeoPoint(0.02, 0.19)
        assert locate(p, space) == locate(p, space)


def test_point_in_polygon_concave():
    # L-shaped ring: the notch is outside under the even-odd rule
    ring = (GeoPoint(0, 0), GeoPoint(0, 3), GeoPoint(1, 3), GeoPoint(1, 1),
            GeoPoint(2, 1), GeoPoint(2, 0))
    assert point_in_polygon(GeoPoint(0.5, 2.0), ring)
    assert point_in_polygon(GeoPoint(1.5, 0.5), ring)
    assert not point_in_polygon(GeoPoint(1.5, 2.0), ring)


class TestStateSpace:
    def test_distance_matrix_invariants(self):
        space = StateSpace.from_tracts([tract(i, 0.0, i * 0.03) for i in range(6)])
        d = space.distances
        assert np.array_equal(d, d.T)
        assert not np.diagonal(d).any()
        off = ~np.eye(6, dtype=bool)
        assert (d[off] >= MIN_DISTANCE_KM).all()

    def test_coincident_centroids_clamped(self):
        space = StateSpace.from_tracts([tract(0, 0.0, 0.0), tract(1, 0.0, 0.0)])
        assert space.distances[0, 1] == MIN_DISTANCE_KM

    def test_tracts_must_be_ordered(self):
        with pytest.raises(ValueError):
            StateSpace(tracts=(tract(1, 0.0, 0.0), tract(0, 0.0, 0.1)),
                       distances=np.zeros((2, 2)))

    def test_property_vector_missing_key(self):
        space = StateSpace.from_tracts([tract(0, 0.0, 0.0), tract(1, 0.0, 0.1)])
        with pytest.raises(KeyError):
            space.property_vector("venues_all")


class TestTractValidation:
    def test_rejects_bad_area(self):
        with pytest.raises(ValueError):
            Tract(id="x", index=0, centroid=GeoPoint(0, 0), area=0.0)

    def test_rejects_negative_property(self):
        with pytest.raises(ValueError):
            Tract(id="x", index=0, centroid=GeoPoint(0, 0), area=1.0,
                  properties={"venues_all": -1.0})

    def test_rejects_short_polygon(self):
        with pytest.raises(ValueError):
            Tract(id="x", index=0, centroid=GeoPoint(0, 0), area=1.0,
                  polygon=(GeoPoint(0, 0), GeoPoint(0, 1)))


class TestTractsFile:
    def test_roundtrip(self, tmp_path, grid_space):
        keys = sorted(grid_space.tracts[0].properties)
        path = tmp_path / "tracts.csv"
        write_tracts(path, grid_space, keys)
        loaded = load_tracts(path)
        assert len(loaded) == len(grid_space)
        for a, b in zip(loaded.tracts, grid_space.tracts):
            assert a.id == b.id and a.index == b.index
            assert a.centroid == b.centroid
            assert a.properties == b.properties
            assert a.polygon == b.polygon
        np.testing.assert_array_equal(loaded.distances, grid_space.distances)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,lon\nx,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_tracts(path)

    def test_rejects_duplicate_tract_id(self, tmp_path):
        path = tmp_path / "tracts.csv"
        path.write_text(
            "tract_id,lat,lon,area_sqkm,polygon\n"
            "a,0.0,0.0,1.0,\n"
            "b,0.0,0.1,1.0,\n"
            "a,0.0,0.2,1.0,\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate tract_id 'a'"):
            load_tracts(path)

    def test_injects_tract_area_property(self, tmp_path):
        path = tmp_path / "tracts.csv"
        path.write_text(
            "tract_id,lat,lon,area_sqkm,polygon,venues_all\n"
            "a,0.0,0.0,2.5,,7\n"
            "b,0.0,0.1,1.5,,3\n",
            encoding="utf-8")
        space = load_tracts(path)
        assert space.property_vector("tract_area").tolist() == [2.5, 1.5]
