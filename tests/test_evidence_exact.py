"""The evidence scorer and the dense formula against a 40-digit mpmath reference.

The dense formula sums lnGamma terms in double precision, so the error of its
total is set by the size of the terms it sums, not by the total: where the
row and cell terms cancel to a small value, its relative error grows. The
scorer sums log rising factorials instead, and pairs each row's lead cell with
the row's own rising factorial, so that only the other cells' terms can
cancel. Measured on 1,000 instances drawn as below (|S| 2..12, k in
{0, 0.5, 1, 10, 100}): the largest error of the dense formula was 2.1e-16
times the summed magnitude of its lnGamma terms and 4.6e-11 times the exact
value, at an |S| = 2, k = 100 instance whose evidence, -0.005, is what is left
of terms near 6 (seed 69 below). The scorer's largest errors, over these and
the large k below, were 2.1e-16 times the summed terms and 1.1e-15 times the
exact value.

At large k (the same draws, k in {1e3, 1e4, 1e5}) the lnGamma terms grow
with k|S| while the evidence need not, so only the term bound stays tight for
the dense formula: within 1.9e-16 times the summed terms, and within 3.2e-5
times the exact value; the latter at the seed-69 instance at k = 1e5, whose
evidence is -5.0e-6.

Large counts take the scorer's Stirling tail (counts above T = 16): cells up
to 1e6 trips and rows up to 1e7, and the `city` workload's first cluster.
"""

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from tripflow.cli import main
from tripflow.config import load_config
from tripflow.evidence import PriorMatrix, elicit_prior, k_sweep, log_evidence
from tripflow.geo import load_tracts
from tripflow.hypotheses import HypothesisMatrix, build_catalog
from tripflow.ingest import TransitionCounts

from conftest import dense_log_evidence, exact_log_evidence

TERM_BOUND = 1e-15  # times the summed |lnGamma| terms; measured max 2.1e-16 (dense)
EXACT_BOUND = 1e-10  # times |exact value|; measured max 4.6e-11 (the dense formula)
KS = (0.0, 0.5, 1.0, 10.0, 100.0)
LARGE_KS = (1e3, 1e4, 1e5)
LARGE_K_EXACT_BOUND = 1e-4  # times |exact value| at LARGE_KS; measured max 3.2e-5 (dense)
SCORER_TERMS = 1e-15  # the scorer, times the summed |lnGamma| terms; measured max 2.1e-16
SCORER_EXACT = 1e-14  # the scorer, times |exact value| at every k; measured max 1.1e-15
LARGE_COUNT_BOUND = 1e-14  # times |exact value|, rows and sets of large counts; measured 1.6e-15
BAYES_FACTOR_BOUND = 1e-12  # times |exact log Bayes factor| on city; measured 5.6e-14


def counts_of(counts: np.ndarray) -> TransitionCounts:
    return TransitionCounts(counts=counts)


def instance(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and row-normalized beliefs over 2..12 states, with all-zero belief rows."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 13))
    q = rng.random((size, size)) * (rng.random((size, size)) < 0.6)
    np.fill_diagonal(q, 0.0)
    q[rng.random(size) < 0.2] = 0.0
    counts = rng.integers(0, 60, (size, size)) * (rng.random((size, size)) < 0.5)
    sums = q.sum(axis=1, keepdims=True)
    return counts, np.divide(q, sums, out=np.zeros_like(q), where=sums > 0)


def assert_within_bounds_of_exact(seed: int, ks, exact_bound: float) -> None:
    """The dense formula within TERM_BOUND and ``exact_bound``, the scorer within its bounds."""
    counts, beliefs = instance(seed)
    seen = counts != 0
    for k in ks:
        alpha = 1.0 + k * len(counts) * beliefs
        row_alpha, row_counts = alpha.sum(axis=1), counts.sum(axis=1)
        exact = exact_log_evidence(counts, alpha)
        terms = sum(float(np.abs(gammaln(x)).sum()) for x in
                    (row_alpha, row_alpha + row_counts, alpha[seen], alpha[seen] + counts[seen]))
        for value, term_bound, bound in (
                (log_evidence(counts_of(counts), PriorMatrix(alpha=alpha)), SCORER_TERMS,
                 SCORER_EXACT),
                (dense_log_evidence(counts, alpha), TERM_BOUND, exact_bound)):
            error = abs(mpmath.mpf(value) - exact)
            assert error <= term_bound * terms, (k, value, exact)
            assert error <= bound * abs(exact), (k, value, exact)


@pytest.mark.parametrize("seed", range(0, 100, 3))
def test_scorer_and_dense_formula_within_bound_of_exact(seed):
    assert_within_bounds_of_exact(seed, KS, EXACT_BOUND)


@pytest.mark.parametrize("seed", range(0, 100, 3))
def test_scorer_and_dense_formula_within_bound_of_exact_at_large_k(seed):
    assert_within_bounds_of_exact(seed, LARGE_KS, LARGE_K_EXACT_BOUND)


def large_instance(seed: int) -> tuple[np.ndarray, HypothesisMatrix]:
    """12 states with counts on both sides of T: a row of 1e7 trips over ten cells of 1e6,
    a row of 1e6 trips in its one believed cell, a zero belief row with trips, small counts."""
    rng = np.random.default_rng(seed)
    size = 12
    q = rng.random((size, size)) * (rng.random((size, size)) < 0.7)
    np.fill_diagonal(q, 0.0)
    q[3] = 0.0
    q[4] = 0.0
    q[4, 5] = 1.0
    counts = np.zeros((size, size), dtype=np.int64)
    counts[0, 1:11] = 10**6
    counts[1] = rng.integers(0, 17, size)
    counts[2] = rng.integers(17, 2000, size) * (rng.random(size) < 0.6)
    counts[3, [2, 7]] = (10**5, 3)
    counts[4, 5] = 10**6
    counts[5, 6] = 5
    counts[6] = (10 ** rng.uniform(0, 6, size)).astype(np.int64)
    return counts, HypothesisMatrix("h", q)


@pytest.mark.parametrize("k", [0.0, 10.0, 1e5])
@pytest.mark.parametrize("seed", range(3))
def test_large_counts_within_bound_of_exact(seed, k):
    counts, h = large_instance(seed)
    prior = elicit_prior(h, k)
    for row in [None, *range(7)]:  # the whole set, then each row alone
        one = counts if row is None else np.eye(len(counts), dtype=np.int64)[row, :, None] * counts
        exact = exact_log_evidence(one, prior.alpha)
        for value in (log_evidence(counts_of(one), prior),
                      k_sweep(counts_of(one), [h], (k,))[0].log_evidence):
            assert abs(mpmath.mpf(value) - exact) <= LARGE_COUNT_BOUND * abs(exact), (row, value)


@pytest.fixture(scope="module")
def city_cluster(tmp_path_factory):
    """The `city` workload's seed-1 fixture through extract-clusters: cluster_0's count set."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from bench.workloads import WORKLOADS, setup
    finally:
        sys.path.pop(0)
    fixture = setup(WORKLOADS["city"], tmp_path_factory.mktemp("city"), 1)
    for stage in ("factorize", "extract-clusters"):
        assert main([stage, "--config", str(fixture.config)]) == 0
    cfg = load_config(fixture.config)
    counts = np.loadtxt(fixture.output_dir / "cluster_0_counts.csv", dtype=np.int64,
                        delimiter=",")
    return counts, build_catalog(load_tracts(cfg.tracts), cfg.catalog)


@pytest.mark.parametrize("k", [10.0, 100.0])
def test_city_log_bayes_factors_within_bound_of_exact(city_cluster, k):
    counts, catalog = city_cluster
    by_name = {h.name: h for h in catalog}
    scores = {r.hypothesis: r.log_evidence for r in k_sweep(counts_of(counts), catalog, (k,))}
    assert max(scores, key=scores.get) == "gravitational_target_venues_work"
    uniform = exact_log_evidence(counts, elicit_prior(by_name["uniform"], k).alpha)
    for name in ("gravitational_target_venues_work", "centroid_manhattan_center_sigma_2",
                 "inverse_distance"):
        exact = exact_log_evidence(counts, elicit_prior(by_name[name], k).alpha) - uniform
        value = scores[name] - scores["uniform"]
        assert abs(value - exact) <= BAYES_FACTOR_BOUND * abs(exact), (name, value, exact)
