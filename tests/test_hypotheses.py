import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripflow.geo import GeoPoint, haversine_distance
from tripflow.hypotheses import (
    DEFAULT_LANDMARKS,
    DEFAULT_SIGMA_GRID,
    CatalogConfig,
    CatalogConfigError,
    FeatureVectors,
    HypothesisMatrix,
    WeightVector,
    build_catalog,
    build_cosine_similarity,
    build_gaussian,
    build_intervening_opportunities,
    build_inverse_distance,
    build_mass,
    build_rank_distance,
    build_uniform,
)

from tripflow.synth import DEMO_GRID, demo_recipe, generate_state_space

from conftest import loop_intervening_opportunities, loop_rank_distance, make_space


def plain_kernel(dist: np.ndarray, sigma: float) -> np.ndarray:
    """The Gaussian kernel evaluated directly, diagonal zeroed; underflows far from sigma."""
    q = 1.0 / (sigma * math.sqrt(2.0 * math.pi)) * np.exp(-dist ** 2 / (2.0 * sigma ** 2))
    np.fill_diagonal(q, 0.0)
    return q


class TestUniform:
    def test_three_states(self):
        q = build_uniform(3).q
        np.testing.assert_array_equal(q, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    @pytest.mark.parametrize("size", [2, 5, 40])
    def test_zero_diagonal_and_equal_off_diagonal(self, size):
        q = build_uniform(size).q
        assert not np.diagonal(q).any()
        off = q[~np.eye(size, dtype=bool)]
        assert (off == off[0]).all()

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_uniform(1)


class TestInverseDistance:
    def test_formula(self):
        space = make_space([[0, 2.0], [2.0, 0]])
        assert build_inverse_distance(space).q[0, 1] == 0.5

    def test_nearer_target_larger_belief(self):
        space = make_space([[0, 1.0, 3.0], [1.0, 0, 2.0], [3.0, 2.0, 0]])
        q = build_inverse_distance(space).q
        assert q[0, 1] > q[0, 2]

    def test_symmetric(self):
        space = make_space([[0, 1.0, 3.0], [1.0, 0, 2.0], [3.0, 2.0, 0]])
        q = build_inverse_distance(space).q
        np.testing.assert_array_equal(q, q.T)


class TestGaussian:
    def test_proximity_peaks_at_nearest_distinct_tract(self):
        space = make_space([[0, 0.5, 2.0], [0.5, 0, 1.0], [2.0, 1.0, 0]])
        q = build_gaussian(space, sigma=1.0).q
        assert q[0, 0] == 0.0
        assert q[0].argmax() == 1
        # value matches the kernel at the stored distance
        expected = (1 / np.sqrt(2 * np.pi)) * np.exp(-0.25 / 2)
        assert q[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_centroid_rows_identical(self, grid_space):
        q = build_gaussian(grid_space, sigma=1.0,
                           center=grid_space.tracts[3].centroid).q
        n = len(grid_space)
        for i in range(1, n):
            keep = (np.arange(n) != i) & (np.arange(n) != 0)  # skip both diagonals
            np.testing.assert_array_equal(q[i][keep], q[0][keep])
        assert q[~np.eye(n, dtype=bool)].any()

    def test_bad_sigma(self, grid_space):
        with pytest.raises(ValueError):
            build_gaussian(grid_space, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0])
    def test_nan_or_infinite_sigma_rejected(self, grid_space, sigma):
        for center in (None, GeoPoint(40.75, -73.99)):
            with pytest.raises(ValueError, match=r"sigma must be finite and > 0, got"):
                build_gaussian(grid_space, sigma, center)

    def test_underflowing_rows_peak_at_nearest_target(self):
        # At sigma 0.01 km both off-diagonal entries of row 0 underflow; rows 1
        # and 2 keep their kernel values.
        space = make_space([[0, 1.0, 2.0], [1.0, 0, 0.3], [2.0, 0.3, 0]])
        plain = plain_kernel(space.distances, 0.01)
        q = build_gaussian(space, sigma=0.01).q
        assert not plain[0].any() and plain[1:].any(axis=1).all()
        assert q[0].argmax() == 1 and q[0, 0] == 0.0
        np.testing.assert_array_equal(q[1:], plain[1:])

    def test_bits_unchanged_where_nothing_underflows(self, city_space):
        n = len(city_space)
        for sigma in DEFAULT_SIGMA_GRID:
            kernels = {None: city_space.distances}
            for _, point in DEFAULT_LANDMARKS:
                row = [haversine_distance(point, t.centroid) for t in city_space.tracts]
                kernels[point] = np.tile(row, (n, 1))
            for center, dist in kernels.items():
                expected = plain_kernel(dist, sigma)
                assert expected.any(axis=1).all()
                np.testing.assert_array_equal(build_gaussian(city_space, sigma, center).q,
                                              expected)


class TestMass:
    def test_density_rows(self):
        space = make_space(np.ones((3, 3)) - np.eye(3))
        q = build_mass(space, WeightVector("w", np.array([2.0, 0.0, 5.0])), "density").q
        np.testing.assert_array_equal(q, [[0, 0, 5], [2, 0, 5], [2, 0, 0]])

    def test_gravitational_target_linear_in_column(self):
        space = make_space([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        w1 = build_mass(space, WeightVector("w", np.array([1.0, 2.0, 3.0])),
                        "gravitational_target").q
        w2 = build_mass(space, WeightVector("w", np.array([1.0, 4.0, 3.0])),
                        "gravitational_target").q
        np.testing.assert_allclose(w2[:, 1], 2.0 * w1[:, 1])
        np.testing.assert_array_equal(w2[:, 2], w1[:, 2])

    def test_gravitational_mass_zero_weight_rows(self):
        space = make_space([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        q = build_mass(space, WeightVector("w", np.array([0.0, 2.0, 3.0])),
                       "gravitational_mass").q
        assert not q[0].any()

    def test_variants_coincide_with_uniform_when_degenerate(self):
        # dist == 1 everywhere and unit weights collapse every variant
        space = make_space(np.ones((4, 4)) - np.eye(4))
        w = WeightVector("w", np.ones(4))
        uniform = build_uniform(4).q
        for variant in ("density", "popularity", "gravitational_target",
                        "gravitational_mass"):
            np.testing.assert_array_equal(build_mass(space, w, variant).q, uniform)

    def test_length_mismatch(self, grid_space):
        with pytest.raises(ValueError):
            build_mass(grid_space, WeightVector("w", np.ones(3)), "density")

    def test_unknown_variant(self, grid_space):
        w = WeightVector("w", np.ones(len(grid_space)))
        with pytest.raises(ValueError):
            build_mass(grid_space, w, "radiation")


class TestRankDistance:
    def test_collinear_example(self):
        space = make_space([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        q = build_rank_distance(space, WeightVector("w", np.ones(3))).q
        assert q[0, 1] == 1.0  # nothing closer: empty-sum clamp
        assert q[0, 2] == 1.0  # only tract 1 closer, weight 1
        assert q[0, 0] == 0.0

    def test_inverse_of_closer_mass(self):
        space = make_space([[0, 1.0, 2.0, 3.0], [1.0, 0, 1.0, 2.0],
                            [2.0, 1.0, 0, 1.0], [3.0, 2.0, 1.0, 0]])
        w = np.array([5.0, 4.0, 2.0, 1.0])
        q = build_rank_distance(space, WeightVector("w", w)).q
        assert q[0, 2] == 1.0 / 4.0          # tract 1 closer, mass 4
        assert q[0, 3] == 1.0 / (4.0 + 2.0)  # tracts 1 and 2 closer

    def test_adding_closer_mass_never_increases(self):
        space = make_space([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        before = build_rank_distance(space, WeightVector("w", np.array([1.0, 1.0, 1.0]))).q
        after = build_rank_distance(space, WeightVector("w", np.array([1.0, 5.0, 1.0]))).q
        assert after[0, 2] <= before[0, 2]


class TestInterveningOpportunities:
    def test_three_tract_example(self):
        space = make_space([[0, 1.0, 3.0], [1.0, 0, 2.0], [3.0, 2.0, 0]])
        w = WeightVector("w", np.array([0.0, 2.0, 4.0]))
        q = build_intervening_opportunities(space, w, eps=0.0).q
        assert q[0, 2] == 4.0 / 2.0

    def test_no_closer_mass_clamps_denominator(self):
        space = make_space([[0, 1.0, 3.0], [1.0, 0, 2.0], [3.0, 2.0, 0]])
        w = WeightVector("w", np.array([0.0, 2.0, 4.0]))
        q = build_intervening_opportunities(space, w, eps=0.0).q
        assert q[0, 1] == 2.0  # numerator w[1], denominator clamped to 1

    def test_distinct_distances_numerator_is_target_weight(self):
        space = make_space([[0, 1.0, 2.5, 4.0], [1.0, 0, 1.5, 3.0],
                            [2.5, 1.5, 0, 1.5], [4.0, 3.0, 1.5, 0]])
        w = np.array([3.0, 5.0, 7.0, 11.0])
        q = build_intervening_opportunities(space, WeightVector("w", w), eps=0.0).q
        for j in (1, 2, 3):
            numerator = q[0, j] * max((w[1:j] if j > 1 else np.zeros(0)).sum(), 1.0)
            assert numerator == pytest.approx(w[j])

    def test_negative_eps(self, grid_space):
        w = WeightVector("w", np.ones(len(grid_space)))
        with pytest.raises(ValueError):
            build_intervening_opportunities(grid_space, w, eps=-1.0)


@st.composite
def integer_spaces(draw):
    """Small symmetric spaces with integer distances (so exact ties occur) and integer weights."""
    size = draw(st.integers(2, 7))
    upper = draw(st.lists(st.integers(1, 4), min_size=size * (size - 1) // 2,
                          max_size=size * (size - 1) // 2))
    dist = np.zeros((size, size))
    dist[np.triu_indices(size, 1)] = upper
    weights = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    return make_space(dist + dist.T), WeightVector("w", np.array(weights, dtype=float))


class TestOpportunityKernel:
    """Both sorted-kernel families against the O(S^3) mask loops kept in conftest."""

    @settings(max_examples=200, deadline=None)
    @given(integer_spaces(), st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.booleans())
    def test_exact_on_integer_distances(self, drawn, eps, unweighted):
        space, w = drawn
        assert (build_rank_distance(space, w, unweighted=unweighted).q
                == loop_rank_distance(space, w, unweighted)).all()
        expected = loop_intervening_opportunities(space, w, eps, unweighted)
        if not expected.any():
            with pytest.raises(ValueError, match="all zero"):
                build_intervening_opportunities(space, w, eps, unweighted=unweighted)
        else:
            assert (build_intervening_opportunities(space, w, eps, unweighted=unweighted).q
                    == expected).all()

    @pytest.mark.parametrize("unweighted", [False, True])
    def test_city_within_bound(self, city_space, unweighted):
        # cum[hi] - cum[lo] cancels: measured up to 3.4e-13 relative on this space
        w = WeightVector("venues_all", city_space.property_vector("venues_all"))
        pairs = [(build_rank_distance(city_space, w, unweighted=unweighted).q,
                  loop_rank_distance(city_space, w, unweighted)),
                 (build_intervening_opportunities(city_space, w, 1e-9, unweighted=unweighted).q,
                  loop_intervening_opportunities(city_space, w, 1e-9, unweighted))]
        for got, expected in pairs:
            assert ((got != 0) == (expected != 0)).all()
            nonzero = expected != 0
            assert (np.abs(got - expected)[nonzero] / expected[nonzero]).max() <= 1e-11


class TestCosine:
    def test_identical_vectors(self):
        features = FeatureVectors("f", np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 4.0]]))
        q = build_cosine_similarity(features).q
        assert q[0, 1] == pytest.approx(1.0)
        assert q[0, 2] == pytest.approx(1.0)
        assert q[0, 0] == 0.0

    def test_orthogonal_vectors(self):
        features = FeatureVectors("f", np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        q = build_cosine_similarity(features).q
        assert q[0, 1] == 0.0

    def test_zero_vector_row_and_column(self):
        features = FeatureVectors("f", np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]]))
        q = build_cosine_similarity(features).q
        assert not q[0].any()
        assert not q[:, 0].any()


class TestHypothesisMatrixInvariants:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            HypothesisMatrix("bad", np.ones((3, 3)))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            HypothesisMatrix("bad", np.zeros((3, 3)))

    def test_rejects_negative_and_non_finite(self):
        q = np.ones((3, 3)) - np.eye(3)
        q[0, 1] = -1.0
        with pytest.raises(ValueError):
            HypothesisMatrix("bad", q)
        q[0, 1] = np.inf
        with pytest.raises(ValueError):
            HypothesisMatrix("bad", q)


class TestCatalog:
    def test_default_catalog_is_70(self, city_space):
        catalog = build_catalog(city_space)
        assert len(catalog) == 70

    def test_default_landmarks_far_from_demo_grid(self):
        # No demo-grid centroid lies within 0.38 km of a default landmark, so the
        # sigma 0.01 landmark kernels would underflow to all zero if evaluated directly.
        space = generate_state_space(DEMO_GRID, demo_recipe(), 42)
        catalog = {h.name: h.q for h in build_catalog(space, CatalogConfig())}
        assert len(catalog) == 70
        for landmark, point in DEFAULT_LANDMARKS:
            nearest = int(np.argmin([haversine_distance(point, t.centroid)
                                     for t in space.tracts]))
            others = np.arange(len(space)) != nearest
            for sigma in DEFAULT_SIGMA_GRID:
                q = catalog[f"centroid_{landmark}_sigma_{sigma:g}"]
                assert (q[others].argmax(axis=1) == nearest).all()

    def test_zero_diagonals_everywhere(self, city_space):
        for h in build_catalog(city_space):
            assert not np.diagonal(h.q).any()

    def test_names_unique(self, city_space):
        names = [h.name for h in build_catalog(city_space)]
        assert len(set(names)) == len(names)

    def test_missing_property_names_key(self, city_space):
        config = CatalogConfig(checkins_key="no_such_column")
        with pytest.raises(CatalogConfigError, match="no_such_column"):
            build_catalog(city_space, config)

    def test_gravitational_pair_equal_after_row_normalization(self, grid_space):
        w = WeightVector("venues_all", grid_space.property_vector("venues_all"))
        target = build_mass(grid_space, w, "gravitational_target").q
        mass = build_mass(grid_space, w, "gravitational_mass").q
        target_rows = target / target.sum(axis=1, keepdims=True)
        mass_rows = mass / mass.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(target_rows, mass_rows, atol=1e-12)

    def test_required_keys_deduplicated(self):
        keys = CatalogConfig().required_keys()
        assert len(keys) == len(set(keys))
        assert "venues_nightlife" in keys and "pct_white" in keys
