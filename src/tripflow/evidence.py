"""Bayesian ranking of belief matrices against observed transitions.

Every hypothesis matrix is turned into a Dirichlet prior over each origin
row, and hypotheses are compared by the marginal likelihood of the observed
transition counts under that prior (first-order Markov, integrating out the
transition probabilities). Its log is two sums: lnG(A) - lnG(A + N) over the
origin rows (A a prior row's sum, N the row's trip count) and lnG(a + n) - lnG(a)
over the observed cells. One scorer, `_log_evidence`, takes those four vectors
for `log_evidence` (any prior) and `k_sweep` (the catalog at each k).

Elicitation rule: each belief row is L1-normalized to q' and the prior row is
alpha = 1 + k * |S| * q'. The +1 floor keeps every prior proper, k = 0
recovers the flat prior for every hypothesis, and larger k concentrates
pseudo-counts on believed transitions. Because of the row normalization,
scaling any belief row by a positive constant changes nothing downstream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hypotheses import HypothesisMatrix
from .ingest import TransitionCounts

DEFAULT_K_GRID = (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)


@dataclass(frozen=True)
class PriorMatrix:
    """Dirichlet pseudo-count rows elicited from one belief matrix."""

    alpha: np.ndarray
    k: float

    def __post_init__(self):
        if (self.alpha < 1.0).any() or not np.isfinite(self.alpha).all():
            raise ValueError("prior entries must be finite and >= 1")
        self.alpha.setflags(write=False)


@dataclass(frozen=True)
class EvidenceResult:
    hypothesis: str
    k: float
    log_evidence: float
    rank: int


def _row_normalized(q: np.ndarray) -> np.ndarray:
    row_sums = q.sum(axis=1, keepdims=True)
    return np.divide(q, row_sums, out=np.zeros_like(q), where=row_sums > 0)


def _check_k(k: float, size: int) -> None:
    if not (k >= 0 and math.isfinite(k * size)):
        raise ValueError(f"k must be finite and >= 0 with k * |S| finite, got k={k!r}")


def elicit_prior(q: HypothesisMatrix, k: float) -> PriorMatrix:
    """Elicit Dirichlet pseudo-counts from a belief matrix at concentration k.

    Rows are L1-normalized first; all-zero belief rows elicit the flat row so
    the prior stays proper. k = 0 yields alpha identically 1.
    """
    _check_k(k, q.q.shape[0])
    return PriorMatrix(alpha=1.0 + k * q.q.shape[0] * _row_normalized(q.q), k=k)


def _log_evidence(row_alpha: np.ndarray, row_counts: np.ndarray,
                  cell_alpha: np.ndarray, cell_counts: np.ndarray) -> float:
    """Sum over rows of lnG(A) - lnG(A + N), plus sum over observed cells of lnG(a+n) - lnG(a)."""
    from scipy.special import gammaln  # imported here: only ranking pays its import time

    return float((gammaln(row_alpha) - gammaln(row_alpha + row_counts)).sum()
                 + (gammaln(cell_alpha + cell_counts) - gammaln(cell_alpha)).sum())


def log_evidence(n: TransitionCounts, a: PriorMatrix) -> float:
    """Log marginal likelihood of the transition counts under a Dirichlet prior."""
    if n.counts.shape != a.alpha.shape:
        raise ValueError(f"count shape {n.counts.shape} != prior shape {a.alpha.shape}")
    seen = n.counts != 0  # a cell with n = 0 adds lnG(a) - lnG(a) = 0
    return _log_evidence(a.alpha.sum(axis=1), n.counts.sum(axis=1), a.alpha[seen], n.counts[seen])


def rank_hypotheses(n: TransitionCounts, catalog: Sequence[HypothesisMatrix],
                    k: float) -> list[EvidenceResult]:
    """Score the catalog at one concentration and rank by log evidence."""
    return k_sweep(n, catalog, (k,))


def k_sweep(n: TransitionCounts, catalog: Sequence[HypothesisMatrix],
            ks: Sequence[float] = DEFAULT_K_GRID) -> list[EvidenceResult]:
    """Rankings 1..H per k, descending in evidence, ties by name; concatenated in k order."""
    if not ks:
        raise ValueError("empty k grid")
    if not catalog:
        raise ValueError("empty hypothesis catalog")
    counts, size = n.counts, len(n.counts)
    for k in ks:
        _check_k(k, size)
    for h in catalog:
        if h.q.shape != counts.shape:
            raise ValueError(f"{h.name}: belief shape {h.q.shape} != count shape {counts.shape}")
    observed = np.flatnonzero(counts)
    totals, cell_counts = counts.sum(axis=1), counts.take(observed)
    scored: list[list[tuple[str, float]]] = [[] for _ in ks]
    for h in catalog:  # alpha as in elicit_prior: its row sums, and its cells where n > 0
        beliefs = _row_normalized(h.q)
        cells = beliefs.take(observed)
        for k, at_k in zip(ks, scored):
            at_k.append((h.name, _log_evidence((1.0 + k * size * beliefs).sum(axis=1), totals,
                                               1.0 + k * size * cells, cell_counts)))
    return [EvidenceResult(name, k, value, rank) for k, at_k in zip(ks, scored)
            for rank, (name, value) in enumerate(sorted(at_k, key=lambda s: (-s[1], s[0])), 1)]


def write_rankings(path, rows: Iterable[tuple[str, EvidenceResult]]) -> None:
    """Write (cluster label, result) pairs as the ranking table.

    Columns: cluster, hypothesis, k, log_evidence, rank; sorted by
    (cluster, k, rank).
    """
    ordered = sorted(rows, key=lambda item: (item[0], item[1].k, item[1].rank))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "hypothesis", "k", "log_evidence", "rank"])
        writer.writerows([cluster, res.hypothesis, repr(float(res.k)),
                          repr(float(res.log_evidence)), res.rank] for cluster, res in ordered)
