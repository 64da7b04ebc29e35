"""The evidence scorer and the dense formula against a 40-digit mpmath reference.

Both sum lnGamma terms in double precision, so the error of a total is set by
the size of the terms it sums, not by the total: where the row and cell terms
cancel to a small value, the relative error of the total grows. Measured on
1,000 instances drawn as below (|S| 2..12, k in {0, 0.5, 1, 10, 100}): the
largest error was 3.6e-16 (scorer) and 2.1e-16 (dense) times the summed
magnitude of the lnGamma terms, and 4.6e-11 times the exact value, at an
|S| = 2, k = 100 instance whose evidence, -0.005, is what is left of terms
near 6 (seed 69 below).

At large k (the same draws, k in {1e3, 1e4, 1e5}) the lnGamma terms grow
with k|S| while the evidence need not, so only the term bound stays tight.
Measured on 1,000 instances: the scorer and the dense formula each stayed
within 1.9e-16 times the summed terms, and within 3.2e-5 times the exact
value; the latter at the seed-69 instance at k = 1e5, whose evidence is
-5.0e-6.
"""

import mpmath
import numpy as np
import pytest

from tripflow.evidence import _log_evidence

from conftest import dense_log_evidence

TERM_BOUND = 1e-15  # times the summed |lnGamma| terms; measured max 3.6e-16
EXACT_BOUND = 1e-10  # times |exact value|; measured max 4.6e-11
KS = (0.0, 0.5, 1.0, 10.0, 100.0)
LARGE_KS = (1e3, 1e4, 1e5)
LARGE_K_EXACT_BOUND = 1e-4  # times |exact value| at LARGE_KS; measured max 3.2e-5


def exact_log_evidence(counts: np.ndarray, alpha: np.ndarray) -> mpmath.mpf:
    """The log evidence of the double-precision prior, at 40 significant digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for row_alpha, row_counts in zip(alpha.tolist(), counts.tolist()):
            a_sum = mpmath.fsum(row_alpha)  # each double is exact in mpf
            total += mpmath.loggamma(a_sum) - mpmath.loggamma(a_sum + sum(row_counts))
            total += mpmath.fsum(mpmath.loggamma(mpmath.mpf(a) + n) - mpmath.loggamma(a)
                                 for a, n in zip(row_alpha, row_counts) if n)
        return +total


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
    """The scorer and the dense formula at each k, within TERM_BOUND and ``exact_bound``."""
    from scipy.special import gammaln

    counts, beliefs = instance(seed)
    seen = counts != 0
    for k in ks:
        alpha = 1.0 + k * len(counts) * beliefs
        row_alpha, row_counts = alpha.sum(axis=1), counts.sum(axis=1)
        exact = exact_log_evidence(counts, alpha)
        terms = sum(float(np.abs(gammaln(x)).sum()) for x in
                    (row_alpha, row_alpha + row_counts, alpha[seen], alpha[seen] + counts[seen]))
        for value in (_log_evidence(row_alpha, row_counts, alpha[seen], counts[seen]),
                      dense_log_evidence(counts, alpha)):
            error = abs(mpmath.mpf(value) - exact)
            assert error <= TERM_BOUND * terms, (k, value, exact)
            assert error <= exact_bound * abs(exact), (k, value, exact)


@pytest.mark.parametrize("seed", range(0, 100, 3))
def test_scorer_and_dense_formula_within_bound_of_exact(seed):
    assert_within_bounds_of_exact(seed, KS, EXACT_BOUND)


@pytest.mark.parametrize("seed", range(0, 100, 3))
def test_scorer_and_dense_formula_within_bound_of_exact_at_large_k(seed):
    assert_within_bounds_of_exact(seed, LARGE_KS, LARGE_K_EXACT_BOUND)
