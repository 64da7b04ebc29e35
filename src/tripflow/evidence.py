"""Bayesian ranking of belief matrices against observed transitions.

Every hypothesis matrix is turned into a Dirichlet prior over each origin
row, and hypotheses are compared by the marginal likelihood of the observed
transition counts under that prior (first-order Markov, integrating out the
transition probabilities). Larger log evidence means the hypothesis explains
the trails better; ranking the catalog at a fixed concentration k yields the
plausibility ordering.

Elicitation rule: each belief row is L1-normalized to q' and the prior row is
alpha = 1 + k * |S| * q'. The +1 floor keeps every prior proper, k = 0
recovers the flat prior for every hypothesis, and larger k concentrates
pseudo-counts on believed transitions. Because of the row normalization,
scaling any belief row by a positive constant changes nothing downstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hypotheses import HypothesisMatrix
from .ingest import TransitionCounts

DEFAULT_K_GRID = (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)
HEADLINE_K = 10.0


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


def elicit_prior(q: HypothesisMatrix, k: float) -> PriorMatrix:
    """Elicit Dirichlet pseudo-counts from a belief matrix at concentration k.

    Rows are L1-normalized first; all-zero belief rows elicit the flat row so
    the prior stays proper. k = 0 yields alpha identically 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    row_sums = q.q.sum(axis=1, keepdims=True)
    normalized = np.divide(q.q, row_sums, out=np.zeros_like(q.q), where=row_sums > 0)
    size = q.q.shape[0]
    return PriorMatrix(alpha=1.0 + k * size * normalized, k=k)


def log_evidence(n: TransitionCounts, a: PriorMatrix) -> float:
    """Log marginal likelihood of the transition counts under a Dirichlet prior.

    Per origin row: lnG(sum a) - lnG(sum a + sum n) + sum_j [lnG(a+n) - lnG(a)],
    summed over rows. Zero counts give exactly 0; any observed transition makes
    the value negative.
    """
    from scipy.special import gammaln  # imported here: only ranking pays its import time

    counts = n.counts
    alpha = a.alpha
    if counts.shape != alpha.shape:
        raise ValueError(f"count shape {counts.shape} != prior shape {alpha.shape}")
    row_alpha = alpha.sum(axis=1)
    row_total = counts.sum(axis=1)
    value = (gammaln(row_alpha) - gammaln(row_alpha + row_total)
             + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=1))
    return float(value.sum())


def rank_hypotheses(n: TransitionCounts, catalog: Sequence[HypothesisMatrix],
                    k: float) -> list[EvidenceResult]:
    """Score the catalog at one concentration and rank by log evidence.

    Ranks are 1..H, descending in evidence; exact ties order lexicographically
    by hypothesis name so results are deterministic.
    """
    if not catalog:
        raise ValueError("empty hypothesis catalog")
    scored = [(h.name, log_evidence(n, elicit_prior(h, k))) for h in catalog]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [EvidenceResult(hypothesis=name, k=k, log_evidence=value, rank=i + 1)
            for i, (name, value) in enumerate(scored)]


def k_sweep(n: TransitionCounts, catalog: Sequence[HypothesisMatrix],
            ks: Sequence[float] = DEFAULT_K_GRID) -> list[EvidenceResult]:
    """Rankings across a grid of concentrations, concatenated in k order."""
    if not ks:
        raise ValueError("empty k grid")
    results: list[EvidenceResult] = []
    for k in ks:
        results.extend(rank_hypotheses(n, catalog, k))
    return results


def write_rankings(path, rows: Iterable[tuple[str, EvidenceResult]]) -> None:
    """Write (cluster label, result) pairs as the ranking table.

    Columns: cluster, hypothesis, k, log_evidence, rank; sorted by
    (cluster, k, rank).
    """
    ordered = sorted(rows, key=lambda item: (item[0], item[1].k, item[1].rank))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "hypothesis", "k", "log_evidence", "rank"])
        for cluster, res in ordered:
            writer.writerow([cluster, res.hypothesis, repr(float(res.k)),
                             repr(float(res.log_evidence)), res.rank])
