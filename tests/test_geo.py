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
    haversine_km,
    hour_of_week,
    load_tracts,
    locate,
    write_tracts,
)

from conftest import point_in_polygon, scalar_haversine, scalar_locate

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

    @pytest.mark.parametrize("center, spread", [((0.0, 0.0), (90.0, 180.0)),
                                                ((40.7, -74.0), (0.5, 0.5))])
    def test_array_form_has_the_same_bits(self, center, spread):
        rng = np.random.default_rng(7)
        lat1, lat2 = center[0] + rng.uniform(-spread[0], spread[0], (2, 20000))
        lon1, lon2 = center[1] + rng.uniform(-spread[1], spread[1], (2, 20000))
        pairs = [(GeoPoint(*a), GeoPoint(*b)) for a, b in
                 zip(zip(lat1.tolist(), lon1.tolist()), zip(lat2.tolist(), lon2.tolist()))]
        expected = [scalar_haversine(a, b) for a, b in pairs]
        assert haversine_km(lat1, lon1, lat2, lon2).tolist() == expected
        assert [haversine_distance(a, b) for a, b in pairs[:2000]] == expected[:2000]

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
        assert locate([(0.05, 0.25)], space)[0] == 1

    def test_nearest_centroid_fallback(self):
        space = StateSpace.from_tracts([tract(i, 0.0, i * 0.1) for i in range(8)])
        assert locate([(0.01, 0.51)], space)[0] == 5

    def test_outside_all_polygons(self):
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.25, square(0.0, 0.2)),
        ])
        assert locate([(5.0, 5.0)], space)[0] == -1

    def test_boundary_counts_as_inside(self):
        space = StateSpace.from_tracts([tract(0, 0.05, 0.05, square(0.0, 0.0))])
        assert locate([(0.0, 0.05)], space)[0] == 0  # on the south edge
        assert locate([(0.0, 0.0)], space)[0] == 0   # on a vertex

    def test_shared_boundary_lowest_index_wins(self):
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.15, square(0.0, 0.1)),
        ])
        assert locate([(0.05, 0.1)], space)[0] == 0

    def test_mixed_space_point_outside_polygon_is_none(self):
        # one tract has no polygon: no centroid fallback once any ring exists
        space = StateSpace.from_tracts([
            tract(0, 0.05, 0.05, square(0.0, 0.0)),
            tract(1, 0.05, 0.25),
        ])
        assert locate([(0.05, 0.25)], space)[0] == -1

    def test_deterministic(self):
        space = StateSpace.from_tracts([tract(i, 0.0, i * 0.1) for i in range(5)])
        p = [(0.02, 0.19)]
        assert locate(p, space)[0] == locate(p, space)[0]


def test_point_in_polygon_concave():
    # L-shaped ring: the notch is outside under the even-odd rule
    ring = (GeoPoint(0, 0), GeoPoint(0, 3), GeoPoint(1, 3), GeoPoint(1, 1),
            GeoPoint(2, 1), GeoPoint(2, 0))
    assert point_in_polygon(GeoPoint(0.5, 2.0), ring)
    assert point_in_polygon(GeoPoint(1.5, 0.5), ring)
    assert not point_in_polygon(GeoPoint(1.5, 2.0), ring)
    space = StateSpace.from_tracts([tract(0, 0.5, 0.5, ring)])
    assert locate([(0.5, 2.0), (1.5, 0.5), (1.5, 2.0)], space).tolist() == [0, 0, -1]


def scalar_locations(points, space):
    """The scalar oracle over each (lat, lon) point, with -1 for no tract."""
    found = (scalar_locate(GeoPoint(lat, lon), space) for lat, lon in points)
    return [-1 if index is None else index for index in found]


def ring_points(space):
    """Every ring vertex, its copy half the 1e-12 edge tolerance south-west, and edge midpoint."""
    points = []
    for t in space.tracts:
        ring = t.polygon or ()
        for a, b in zip(ring, ring[1:] + ring[:1]):
            points += [(a.lat, a.lon), (a.lat - 5e-13, a.lon - 5e-13),
                       ((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)]
    return points


# Rings on a coarse lattice, at the equator or in Manhattan, so vertices, edges
# and overlaps coincide exactly or only up to rounding.
ORIGINS = ((0.0, 0.0), (40.7, -74.01))
STEPS = (0.25, 0.0023)


@st.composite
def lattice_spaces(draw, rings: bool):
    """Up to six tracts; with ``rings``, a random lattice ring for at least one."""
    (lat0, lon0), step = draw(st.sampled_from(ORIGINS)), draw(st.sampled_from(STEPS))
    vertex = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda ij: GeoPoint(lat0 + ij[0] * step, lon0 + ij[1] * step))
    n = draw(st.integers(1, 6))
    centroids = draw(st.lists(vertex, min_size=n, max_size=n))
    polygons = [None] * n
    if rings:
        polygons = draw(st.lists(st.one_of(st.none(), st.lists(vertex, min_size=3, max_size=6)
                                           .map(tuple)), min_size=n, max_size=n)
                        .filter(lambda ps: any(ring is not None for ring in ps)))
    space = StateSpace.from_tracts([
        Tract(id=f"T{i}", index=i, centroid=c, area=1.0, polygon=ring)
        for i, (c, ring) in enumerate(zip(centroids, polygons))])
    lattice = st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(
        lambda ij: (lat0 + ij[0] * step / 2, lon0 + ij[1] * step / 2))
    anywhere = st.tuples(st.floats(lat0 - step, lat0 + 9 * step),
                         st.floats(lon0 - step, lon0 + 9 * step))
    points = draw(st.lists(st.one_of(lattice, anywhere), max_size=40))
    return space, points + ring_points(space) + [(c.lat, c.lon) for c in centroids]


class TestLocateOracle:
    """``locate`` against the per-point scalar loop, point for point."""

    @given(lattice_spaces(rings=True))
    def test_rings_vertices_edges_overlaps_and_mixed(self, case):
        space, points = case
        assert locate(points, space).tolist() == scalar_locations(points, space)

    @given(lattice_spaces(rings=False))
    def test_nearest_centroid(self, case):
        space, points = case
        assert locate(points, space).tolist() == scalar_locations(points, space)

    def test_grid_shared_edges(self, grid_space):
        corners = [(p.lat, p.lon) for t in grid_space.tracts for p in t.polygon]
        lat = [lat for lat, _ in corners]
        lon = [lon for _, lon in corners]
        rng = np.random.default_rng(4)
        points = np.column_stack((rng.uniform(min(lat) - 1e-3, max(lat) + 1e-3, 2000),
                                  rng.uniform(min(lon) - 1e-3, max(lon) + 1e-3, 2000)))
        points = points.tolist() + ring_points(grid_space)
        found = locate(points, grid_space)
        assert found.dtype == np.int64
        assert found.tolist() == scalar_locations(points, grid_space)
        assert (found >= 0).any() and (found == -1).any()

    @pytest.mark.parametrize("lons", [(0.2, 0.0), (0.0, 0.2)])
    def test_centroid_tie_goes_to_lowest_index(self, lons):
        space = StateSpace.from_tracts([tract(0, 0.0, lons[0]), tract(1, 0.0, lons[1])])
        points = [(1.0, 0.1), (-0.5, 0.1)]
        for lat, lon in points:  # a true tie: the same distance to both centroids
            p = GeoPoint(lat, lon)
            assert haversine_distance(p, space.tracts[0].centroid) == \
                haversine_distance(p, space.tracts[1].centroid)
        assert locate(points, space).tolist() == scalar_locations(points, space) == [0, 0]

    def test_coincident_centroids_tie_to_lowest_index(self):
        space = StateSpace.from_tracts([tract(0, 0.0, 0.0), tract(1, 0.0, 0.1),
                                        tract(2, 0.0, 0.1)])
        points = [(0.01, 0.11), (0.0, 0.1)]
        assert locate(points, space).tolist() == scalar_locations(points, space) == [1, 1]

    def test_empty_points(self, grid_space):
        assert locate(np.empty((0, 2)), grid_space).tolist() == []


def scalar_distances(tracts):
    """The pairwise haversine loop that ``StateSpace.from_tracts`` replaced."""
    n = len(tracts)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = max(scalar_haversine(tracts[i].centroid, tracts[j].centroid), MIN_DISTANCE_KM)
            dist[i, j] = dist[j, i] = d
    return dist


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

    @pytest.mark.parametrize("name", ["grid_space", "city_space"])
    def test_distances_equal_scalar_loop(self, name, request):
        space = request.getfixturevalue(name)
        assert np.array_equal(space.distances, scalar_distances(space.tracts))

    @given(st.lists(coords, min_size=1, max_size=12))
    def test_distances_equal_scalar_loop_anywhere(self, centroids):
        space = StateSpace.from_tracts([Tract(id=f"T{i}", index=i, centroid=c, area=1.0)
                                        for i, c in enumerate(centroids)])
        assert np.array_equal(space.distances, scalar_distances(space.tracts))

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
