"""Belief matrices over tract transitions.

Each hypothesis is a non-negative matrix q where q[i, j] expresses relative
belief in moving from tract i to tract j. Ten families are supported:
uniform, inverse distance, Gaussian proximity/landmark kernels, destination
mass (density or popularity), gravitational attraction (target-only and
origin-times-target), rank distance, intervening opportunities, and feature
cosine similarity. Diagonals are always zeroed: same-tract hops carry no
mobility information and are excluded from the data side as well.

Only relative row shape matters downstream; the prior elicitation row-
normalizes every matrix, so any row scaling is neutral by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence

import numpy as np

from .geo import GeoPoint, StateSpace, haversine_km


class CatalogConfigError(ValueError):
    """Raised when the catalog configuration references unavailable data."""


@dataclass(frozen=True)
class HypothesisMatrix:
    name: str
    q: np.ndarray

    def __post_init__(self):
        if self.q.ndim != 2 or self.q.shape[0] != self.q.shape[1]:
            raise ValueError(f"{self.name}: belief matrix must be square")
        if np.diagonal(self.q).any():
            raise ValueError(f"{self.name}: diagonal must be zero")
        if not np.isfinite(self.q).all() or (self.q < 0).any():
            raise ValueError(f"{self.name}: entries must be finite and >= 0")
        if not self.q.any():
            raise ValueError(f"{self.name}: belief matrix is all zero")
        self.q.setflags(write=False)


@dataclass(frozen=True)
class WeightVector:
    """A per-tract mass term drawn from one tract property."""

    name: str
    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 1:
            raise ValueError(f"{self.name}: weights must be a vector")
        if not np.isfinite(self.w).all() or (self.w < 0).any():
            raise ValueError(f"{self.name}: weights must be finite and >= 0")


@dataclass(frozen=True)
class FeatureVectors:
    """One feature vector per tract, all sharing a dimension (e.g. venue mix)."""

    name: str
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError(f"{self.name}: expected an |S| x d matrix with d >= 1")
        if not np.isfinite(self.vectors).all() or (self.vectors < 0).any():
            raise ValueError(f"{self.name}: features must be finite and >= 0")


def _finish(name: str, q: np.ndarray) -> HypothesisMatrix:
    np.fill_diagonal(q, 0.0)
    return HypothesisMatrix(name=name, q=q)


def _check_weights(space: StateSpace, w: WeightVector) -> np.ndarray:
    if len(w.w) != len(space):
        raise ValueError(f"{w.name}: weight length {len(w.w)} != |S| = {len(space)}")
    return np.asarray(w.w, dtype=float)


def build_uniform(size: int) -> HypothesisMatrix:
    """Every distinct tract equally likely next."""
    if size < 2:
        raise ValueError("uniform hypothesis needs |S| >= 2")
    return _finish("uniform", np.ones((size, size)))


def build_inverse_distance(space: StateSpace) -> HypothesisMatrix:
    """Belief decays as 1/distance; nearer targets are more plausible."""
    with np.errstate(divide="ignore"):  # _finish zeroes the diagonal's 1/0
        return _finish("inverse_distance", 1.0 / space.distances)


def build_gaussian(space: StateSpace, sigma: float,
                   center: Optional[GeoPoint] = None,
                   name: Optional[str] = None) -> HypothesisMatrix:
    """Gaussian distance kernel with standard deviation ``sigma`` km.

    Without ``center`` (proximity mode), belief in j from i follows a
    Gaussian in dist(i, j). With a fixed landmark ``center``, belief in j
    follows a Gaussian in the landmark-to-j distance and every row is
    identical. The diagonal is zeroed in both modes. A row whose off-diagonal
    entries all underflow (no target within about 38.6 sigma) is evaluated
    relative to its largest off-diagonal exponent; rows are normalized downstream.
    """
    if not 0 < sigma < math.inf:  # written so that NaN fails too
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    if center is None:
        dist, default_name = space.distances, f"proximity_sigma_{sigma:g}"
    else:
        lat, lon = np.array([(t.centroid.lat, t.centroid.lon) for t in space.tracts]).T
        dist, default_name = haversine_km(center.lat, center.lon, lat, lon), f"centroid_sigma_{sigma:g}"
    exponent = -dist ** 2 / (2.0 * sigma ** 2)
    coef = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    q = coef * np.exp(exponent)
    if center is not None:  # the landmark's row, evaluated once, is every row
        exponent, q = np.tile(exponent, (len(space), 1)), np.tile(q, (len(space), 1))
    np.fill_diagonal(exponent, -np.inf)
    np.fill_diagonal(q, 0.0)
    peak = exponent.max(axis=1, keepdims=True)
    underflow = ~q.any(axis=1) & np.isfinite(peak[:, 0])
    q[underflow] = coef * np.exp(exponent[underflow] - peak[underflow])
    return _finish(name or default_name, q)


def build_mass(space: StateSpace, w: WeightVector, variant: str) -> HypothesisMatrix:
    """Destination-mass families.

    density / popularity: belief proportional to the target's mass alone.
    gravitational_target: target mass over distance.
    gravitational_mass: origin times target mass over distance.
    """
    weights = _check_weights(space, w)
    with np.errstate(divide="ignore", invalid="ignore"):  # _finish zeroes the diagonal's w/0
        if variant in ("density", "popularity"):
            q = np.tile(weights, (len(space), 1))
        elif variant == "gravitational_target":
            q = weights[None, :] / space.distances
        elif variant == "gravitational_mass":
            q = np.outer(weights, weights) / space.distances
        else:
            raise ValueError(f"unknown mass variant {variant!r}")
    return _finish(f"{variant}_{w.name}", q)


def _opportunities(space: StateSpace, w: WeightVector, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Weight of tracts u != i with d(i, u) < d(i, j) - eps (closer[i, j]) and with d(i, u)
    in [d(i, j) - eps, d(i, j) + eps] (tied[i, j]); one sorted prefix sum per origin i."""
    weights = _check_weights(space, w)
    closer, tied = np.empty((2, len(space), len(space)))
    for i, row_d in enumerate(space.distances):
        order = np.argsort(row_d, kind="stable")
        sorted_d = row_d[order]
        cum = np.concatenate(([0.0], np.cumsum(np.where(order == i, 0.0, weights[order]))))
        lo = np.searchsorted(sorted_d, row_d - eps, side="left")
        hi = np.searchsorted(sorted_d, row_d + eps, side="right")
        closer[i], tied[i] = cum[lo], cum[hi] - cum[lo]
    return closer, tied


def build_rank_distance(space: StateSpace, w: WeightVector) -> HypothesisMatrix:
    """Belief inversely proportional to the mass lying closer than the target.

    rank(i, j) sums the weights of tracts u != i strictly closer to i than j
    is; empty sums clamp to 1 so the nearest target keeps belief 1.
    """
    closer, _ = _opportunities(space, w, 0.0)
    return _finish(f"rank_distance_{w.name}", 1.0 / np.maximum(closer, 1.0))


def build_intervening_opportunities(space: StateSpace, w: WeightVector,
                                    eps: float) -> HypothesisMatrix:
    """Opportunities at the target's distance over opportunities in between.

    The numerator sums weights of tracts u != i whose distance from i matches
    dist(i, j) within ``eps`` km; the denominator sums weights strictly closer
    than dist(i, j) - eps, clamped to 1. Continuous distances almost never tie
    exactly, hence the tolerance, which must be finite and >= 0.
    """
    if not 0 <= eps < math.inf:  # written so that NaN fails too
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    closer, tied = _opportunities(space, w, eps)
    return _finish(f"intervening_opportunities_{w.name}", tied / np.maximum(closer, 1.0))


def build_cosine_similarity(features: FeatureVectors) -> HypothesisMatrix:
    """Belief from the cosine of origin and target feature vectors.

    Zero-norm feature vectors contribute zero belief; the downstream prior
    smoothing keeps such rows proper.
    """
    v = np.asarray(features.vectors, dtype=float)
    norms = np.linalg.norm(v, axis=1)
    q = v @ v.T
    safe = np.where(norms > 0, norms, 1.0)
    q /= np.outer(safe, safe)
    q[norms == 0, :] = 0.0
    q[:, norms == 0] = 0.0
    return _finish(f"cosine_{features.name}", q)


# --- default catalog ----------------------------------------------------------

DEFAULT_SIGMA_GRID = (0.01, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)

DEFAULT_LANDMARKS = (
    ("manhattan_center", GeoPoint(40.79090, -73.96640)),
    ("flatiron", GeoPoint(40.74111, -73.98972)),
    ("times_square", GeoPoint(40.75773, -73.98570)),
)


@dataclass(frozen=True)
class CatalogConfig:
    """Parameters of the default hypothesis catalog.

    The defaults build exactly 70 hypotheses: 1 uniform, 29 distance-based
    (inverse distance, plus proximity and one kernel per landmark over the
    sigma grid), 17 venue-derived, and 23 census-derived. The landmarks and
    the sigma grid are settings; the property columns the catalog reads and
    the intervening-opportunities tolerance (km) are fixed.
    """

    landmarks: tuple[tuple[str, GeoPoint], ...] = DEFAULT_LANDMARKS
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID

    all_venues_key: ClassVar[str] = "venues_all"
    checkins_key: ClassVar[str] = "checkins"
    venue_category_keys: ClassVar[tuple[str, ...]] = (
        "venues_arts", "venues_education", "venues_food", "venues_nightlife",
        "venues_outdoors", "venues_work", "venues_residence", "venues_shop",
        "venues_travel", "venues_church",
    )
    census_indicator_keys: ClassVar[tuple[str, ...]] = (
        "population", "tract_area",
        "pct_white", "pct_black", "pct_labor_force", "pct_unemployed",
        "pct_below_poverty", "pct_above_poverty",
        "libraries", "art_galleries", "theaters", "museums",
        "wifi_hotspots", "places_of_interest",
        "residential_zoning", "commercial_zoning", "manufacturing_zoning",
        "park_properties", "historic_districts", "empower_zones",
    )
    race_keys: ClassVar[tuple[str, ...]] = (
        "pct_white", "pct_black", "pct_american_indian", "pct_asian",
        "pct_pacific_islander", "pct_other_race", "pct_two_races",
    )
    poverty_keys: ClassVar[tuple[str, ...]] = ("pct_below_poverty", "pct_above_poverty")
    employment_keys: ClassVar[tuple[str, ...]] = ("pct_employed", "pct_unemployed",
                                                  "pct_labor_force")
    io_eps: ClassVar[float] = 1e-9

    def required_keys(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for key in ((self.all_venues_key, self.checkins_key)
                    + self.venue_category_keys + self.census_indicator_keys
                    + self.race_keys + self.poverty_keys + self.employment_keys):
            seen.setdefault(key)
        return tuple(seen)


def _weight(space: StateSpace, key: str) -> WeightVector:
    try:
        return WeightVector(name=key, w=space.property_vector(key))
    except KeyError as exc:
        raise CatalogConfigError(f"catalog requires property {key!r}: {exc}") from exc


def _features(space: StateSpace, name: str, keys: Sequence[str]) -> FeatureVectors:
    columns = [_weight(space, key).w for key in keys]
    return FeatureVectors(name=name, vectors=np.column_stack(columns))


def _hypotheses(space: StateSpace, config: CatalogConfig) -> Iterator[HypothesisMatrix]:
    """Build the catalog's matrices one at a time, in catalog order."""
    yield build_uniform(len(space))

    yield build_inverse_distance(space)
    for sigma in config.sigma_grid:
        yield build_gaussian(space, sigma)
    for landmark_name, point in config.landmarks:
        for sigma in config.sigma_grid:
            yield build_gaussian(space, sigma, center=point,
                                 name=f"centroid_{landmark_name}_sigma_{sigma:g}")

    all_venues = _weight(space, config.all_venues_key)
    checkins = _weight(space, config.checkins_key)
    yield build_mass(space, all_venues, "density")
    yield build_mass(space, checkins, "popularity")
    yield build_mass(space, all_venues, "gravitational_mass")
    yield build_mass(space, all_venues, "gravitational_target")
    yield build_rank_distance(space, all_venues)
    yield build_intervening_opportunities(space, all_venues, eps=config.io_eps)
    for key in config.venue_category_keys:
        yield build_mass(space, _weight(space, key), "gravitational_target")
    yield build_cosine_similarity(_features(space, "venue_categories", config.venue_category_keys))

    for key in config.census_indicator_keys:
        yield build_mass(space, _weight(space, key), "gravitational_target")
    yield build_cosine_similarity(_features(space, "race", config.race_keys))
    yield build_cosine_similarity(_features(space, "poverty", config.poverty_keys))
    yield build_cosine_similarity(_features(space, "employment", config.employment_keys))


def iter_catalog(space: StateSpace,
                 config: CatalogConfig = CatalogConfig()) -> Iterator[HypothesisMatrix]:
    """Yield the hypothesis catalog for one state space, one matrix at a time.

    Names are deterministic and unique. A missing tract property raises
    CatalogConfigError naming its key, and a name that arrives a second time
    raises it naming that name. The generator keeps no matrix but the last
    one it yielded, so a consumer that drops each matrix holds at most two:
    that one and the next.
    """
    names: set[str] = set()
    for h in _hypotheses(space, config):
        if h.name in names:
            raise CatalogConfigError(f"duplicate hypothesis name in catalog: {h.name!r}")
        names.add(h.name)
        yield h


def build_catalog(space: StateSpace, config: CatalogConfig = CatalogConfig()) -> list[HypothesisMatrix]:
    """Materialize the full hypothesis catalog for one state space, in ``iter_catalog`` order."""
    return list(iter_catalog(space, config))
