"""Bayesian ranking of belief matrices against observed transitions.

Every hypothesis matrix is turned into a Dirichlet prior over each origin
row, and hypotheses are compared by the marginal likelihood of the observed
transition counts under that prior (first-order Markov, integrating out the
transition probabilities). Its log is two sums: lnG(A) - lnG(A + N) over the
origin rows (A a prior row's sum, N the row's trip count) and lnG(a + n) - lnG(a)
over the observed cells.

Counts are integers, so each of those differences is a log rising factorial,
lnG(x + n) - lnG(x) = sum over i < n of ln(x + i), and this module evaluates
them with numpy alone. A count n <= T (`_DIRECT`, 16) is summed term by term.
Above T the difference is the log1p form of the Stirling series,
lnG(y + m) - lnG(y) = (y - 1/2) log1p(m/y) + m (ln(y + m) - 1) plus the
series' z^-1..z^-7 terms at y + m less those at y, taken from y = x when
x >= T, and otherwise from y = x + T after the first T terms, as the log of
their product. So the cost of a score grows with the observed cells and rows,
not with the trips. T = 16 is the smallest T at which the largest error
against a 40-digit mpmath reference, over x from 1 to 3e7 and n up to 1e7, is
at the rounding level (3e-16 relative; 2e-15 at T = 12, 1e-13 at T = 8).

Summed apart, the row and cell terms can cancel nearly all their digits: a row
whose trips all fall where its belief is whole scores close to 0 against
terms of size N ln A. So each row's rising factorial is split at its lead cell,
the cell with the most trips: lnG(A + n) - lnG(A) goes with the lead cell's
lnG(a + n) - lnG(a), as one sum of terms ln((a + i) / (A + i)), each <= 0,
and lnG(A + N) - lnG(A + n) with the other cells. Only the other cells' digits
can then cancel, and scores sit within about 1e-15 of the 40-digit reference.

Elicitation rule: each belief row is L1-normalized to q' and the prior row is
alpha = 1 + k * |S| * q'. The +1 floor keeps every prior proper, k = 0
recovers the flat prior for every hypothesis, and larger k concentrates
pseudo-counts on believed transitions. Because of the row normalization,
scaling any belief row by a positive constant changes nothing downstream.
In exact arithmetic an elicited row sums to |S| (1 + k), or to |S| for an
all-zero belief row, so `k_sweep` takes the row terms at those two sums once
per (count set, k) and each hypothesis picks per row by its zero rows.
`log_evidence` takes the prior's own row sums, so at k = 0 the two agree bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .files import write_csv
from .hypotheses import HypothesisMatrix
from .ingest import TransitionCounts

DEFAULT_K_GRID = (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)
_DIRECT = 16  # T: counts up to T are summed term by term (see the module docstring)
_BLOCK = 2**14  # tail entries `_rising_tail` takes on at a time, so its temporaries stay in cache


@dataclass(frozen=True)
class PriorMatrix:
    """Dirichlet pseudo-count rows elicited from one belief matrix."""

    alpha: np.ndarray

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


def _elicited(k: float | np.ndarray, size: int, beliefs: np.ndarray) -> np.ndarray:
    alpha = k * size * beliefs  # the one home of the elicitation rule's arithmetic
    alpha += 1.0
    return alpha


def elicit_prior(q: HypothesisMatrix, k: float) -> PriorMatrix:
    """Elicit Dirichlet pseudo-counts from a belief matrix at concentration k.

    Rows are L1-normalized first; all-zero belief rows elicit the flat row so
    the prior stays proper. k = 0 yields alpha identically 1.
    """
    _check_k(k, q.q.shape[0])
    return PriorMatrix(alpha=_elicited(k, q.q.shape[0], _row_normalized(q.q)))


class _Counts(NamedTuple):
    """An integer count vector laid out once for the scorers below."""

    n: np.ndarray
    entry: np.ndarray  # the entry of each term of a count n <= T ...
    offset: np.ndarray  # ... and its i, as a float
    tail: np.ndarray  # the entries whose count is above T ...
    tail_n: np.ndarray  # ... and their counts, as floats


def _counts(n: np.ndarray) -> _Counts:
    direct = np.where(n <= _DIRECT, n, 0)
    entry = np.repeat(np.arange(n.size), direct)
    offset = np.arange(entry.size) - np.repeat(np.cumsum(direct) - direct, direct)
    tail = np.flatnonzero(n > _DIRECT)
    return _Counts(n, entry, offset.astype(float), tail, n.take(tail).astype(float))


def _series(z: np.ndarray) -> np.ndarray:
    """lnG(z) - (z - 1/2) ln z + z - ln sqrt(2 pi), to the z^-7 term of the Stirling series."""
    r = np.divide(1.0, z)
    r2 = r * r
    s = r2 / 1680
    np.subtract(1 / 1260, s, out=s)
    s *= r2
    np.subtract(1 / 360, s, out=s)
    s *= r2
    np.subtract(1 / 12, s, out=s)
    s *= r
    return s


def _past_head(y: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where y < T the series cannot start: there y and m step past the first T terms, in
    place. Returns those entries and their y before the step."""
    small = np.flatnonzero(y < _DIRECT)
    first = y.take(small)
    y[small] = first + _DIRECT
    m[small] -= _DIRECT
    return small, first


def _rising_tail(x: np.ndarray, n: _Counts) -> np.ndarray:
    """lnG(x + n) - lnG(x) at the tail entries, n > T, in the log1p form of the Stirling series.

    Where x < T the first T terms come first, as the log of their product. Heavy cells make this
    the costly loop at large trip counts, so it runs a block at a time, mostly in place.
    """
    out = np.empty(n.tail.size)
    for lo in range(0, n.tail.size, _BLOCK):
        y, m = x.take(n.tail[lo:lo + _BLOCK]), n.tail_n[lo:lo + _BLOCK].copy()
        small, first = _past_head(y, m)
        u = first * (first + (_DIRECT - 1))  # (y + i)(y + T-1-i) = u + i(T-1-i)
        product = u.copy()  # < (2T)^T, so it cannot overflow
        for i in range(1, _DIRECT // 2):
            product *= u + i * (_DIRECT - 1 - i)
        z = y + m
        value = np.divide(m, y)
        np.log1p(value, out=value)
        value *= y - 0.5
        log_z = np.log(z)
        log_z -= 1.0
        m *= log_z
        value += m
        value += _series(z)
        value -= _series(y)
        value[small] += np.log(product)
        out[lo:lo + value.size] = value
    return out


def _block_sums(values: np.ndarray, blocks: int) -> np.ndarray:
    """Sums of ``blocks`` equal runs of ``values``, one run per copy of a stacked count set."""
    return values.reshape(blocks, -1).sum(axis=1)


def _log_rising(x: np.ndarray, n: _Counts, blocks: int = 0) -> np.ndarray:
    """lnG(x + n) - lnG(x) for x >= 1 and integer counts n >= 0: per entry, or the sums of
    ``blocks`` copies of a count set when ``blocks`` is given."""
    terms = x.take(n.entry)
    terms += n.offset
    np.log(terms, out=terms)
    tail = _rising_tail(x, n)
    if blocks:  # each copy's terms, and its tail entries, are equal runs of the two
        return _block_sums(terms, blocks) + _block_sums(tail, blocks)
    out = np.bincount(n.entry, weights=terms, minlength=n.n.size)
    out = out.astype(float, copy=False)  # bincount of no terms is an int64 array
    out[n.tail] = tail
    return out


def _log_rising_ratios(a: np.ndarray, gap: np.ndarray, n: _Counts, blocks: int) -> np.ndarray:
    """Block sums of lnG(a + n) - lnG(a) - lnG(b + n) + lnG(b), b = a + gap >= a >= 1.

    Every term ln((a + i) / (b + i)) = -log1p(gap / (a + i)) is <= 0, so nothing cancels. Above
    T the Stirling forms of the two rising factorials are subtracted term by term, in log1p form.
    """
    y, d, m = a.take(n.tail), gap.take(n.tail), n.tail_n.copy()
    small, first = _past_head(y, m)
    head = -np.log1p(d.take(small)[:, None] / (first[:, None] + np.arange(_DIRECT))).sum(axis=1)
    z = y + d
    tail = ((y - 0.5) * np.log1p(d / (z + m) * (m / y)) - m * np.log1p(d / (y + m))
            - d * np.log1p(m / z) + (_series(y + m) - _series(y) - (_series(z + m) - _series(z))))
    tail[small] += head
    terms = -np.log1p(gap.take(n.entry) / (a.take(n.entry) + n.offset))
    return _block_sums(terms, blocks) + _block_sums(tail, blocks)


class _CountSet(NamedTuple):
    """A count set's observed cells in ``blocks`` stacked copies, one per k of a sweep: each
    row's lead cell, the cell with its most trips, and the other cells."""

    blocks: int
    lead: np.ndarray  # flat indices of the lead cells in one count set ...
    lead_row: np.ndarray  # ... and their rows in the stacked rows, one per row with trips
    lead_n: _Counts
    rest: np.ndarray  # flat indices of the other observed cells in one count set
    rest_n: _Counts
    row_lead: np.ndarray  # each row's lead count, as a float (0 for a row without trips)
    rows: _Counts  # each row's trips outside its lead cell


def _count_set(counts: np.ndarray, blocks: int = 1) -> _CountSet:
    busy = np.flatnonzero(counts.any(axis=1))
    lead = busy * counts.shape[1] + counts.argmax(axis=1).take(busy)
    rest = np.setdiff1d(np.flatnonzero(counts), lead, assume_unique=True)
    row_lead = np.zeros(counts.shape[0], dtype=counts.dtype)
    row_lead[busy] = counts.take(lead)

    stacked_busy = (np.arange(blocks)[:, None] * counts.shape[0] + busy).ravel()
    return _CountSet(blocks, lead, stacked_busy, _counts(np.tile(counts.take(lead), blocks)),
                     rest, _counts(np.tile(counts.take(rest), blocks)),
                     np.tile(row_lead, blocks).astype(float),
                     _counts(np.tile(counts.sum(axis=1) - row_lead, blocks)))


def _log_evidence(s: _CountSet, lead_alpha: np.ndarray, rest_alpha: np.ndarray,
                  row_alpha: np.ndarray, row_terms: np.ndarray) -> np.ndarray:
    """The log evidence of each copy of a count set, from the prior at its lead and other
    observed cells, each row's prior sum A, and ``row_terms``, each row's
    lnG(A + N) - lnG(A + n) for its lead count n. The rest of the row term,
    lnG(A + n) - lnG(A), is paired with the lead cell's lnG(a + n) - lnG(a) in
    `_log_rising_ratios`, with gap A - a.
    """
    gap = row_alpha.take(s.lead_row) - lead_alpha
    return (_log_rising_ratios(lead_alpha, gap, s.lead_n, s.blocks)
            + _log_rising(rest_alpha, s.rest_n, s.blocks) - _block_sums(row_terms, s.blocks))


def log_evidence(n: TransitionCounts, a: PriorMatrix) -> float:
    """Log marginal likelihood of the transition counts under a Dirichlet prior."""
    if n.counts.shape != a.alpha.shape:
        raise ValueError(f"count shape {n.counts.shape} != prior shape {a.alpha.shape}")
    s = _count_set(n.counts)  # a cell with n = 0 adds lnG(a) - lnG(a) = 0
    row_alpha = a.alpha.sum(axis=1)
    return float(_log_evidence(s, a.alpha.take(s.lead), a.alpha.take(s.rest), row_alpha,
                               _log_rising(row_alpha + s.row_lead, s.rows))[0])


def rank_hypotheses(n: TransitionCounts, catalog: Iterable[HypothesisMatrix],
                    k: float) -> list[EvidenceResult]:
    """Score the catalog at one concentration and rank by log evidence."""
    return k_sweep(n, catalog, (k,))


def _check_shape(h: HypothesisMatrix, shape: tuple[int, ...]) -> HypothesisMatrix:
    if h.q.shape != shape:
        raise ValueError(f"{h.name}: belief shape {h.q.shape} != count shape {shape}")
    return h


def k_sweep(n: TransitionCounts, catalog: Iterable[HypothesisMatrix],
            ks: Sequence[float] = DEFAULT_K_GRID) -> list[EvidenceResult]:
    """Rankings 1..H per k, descending in evidence, ties by name; concatenated in k order.

    ``n.counts`` is one |S| x |S| count set or a stack of C of them, shaped
    (C, |S|, |S|); a stack returns, bit for bit, the concatenation of the
    sweeps of its count sets. The catalog is read once, so it may be a stream:
    each belief matrix is row-normalized once, scored against every count set
    and dropped. The k values are checked before any scoring; so is every
    shape of a Sequence catalog, and each streamed hypothesis before its own.
    """
    if not ks:
        raise ValueError("empty k grid")
    stack = n.counts[None] if n.counts.ndim == 2 else n.counts
    shape, size = stack.shape[1:], stack.shape[-1]
    for k in ks:
        _check_k(k, size)
    if isinstance(catalog, Sequence):
        for h in catalog:
            _check_shape(h, shape)
    scored: list[list[list[tuple[str, float]]]] = [[[] for _ in ks] for _ in stack]
    # each count set is laid out once per k, so that one call scores a hypothesis at every k
    units = [_count_set(counts, len(ks)) for counts in stack]
    at_k = np.asarray(ks, dtype=float)[:, None]  # each copy's k, against one set's cells
    # each row's sum in exact arithmetic: |S| (1 + k) for a non-zero belief row, |S| for a zero one
    full = np.repeat([size + k * size for k in ks], size)
    empty = np.full(len(ks) * size, float(size))
    rows: list[tuple[np.ndarray, ...]] = []
    hypotheses = 0
    for h in catalog:  # alpha as in elicit_prior at the observed cells
        beliefs = _row_normalized(_check_shape(h, shape).q)
        if not rows:  # once the first hypothesis has passed its check
            rows = [tuple(_log_rising(sums + s.row_lead, s.rows) for sums in (full, empty))
                    for s in units]
        believed = np.tile(beliefs.any(axis=1), len(ks))
        for s, (at_full, at_empty), out in zip(units, rows, scored):
            values = _log_evidence(s, _elicited(at_k, size, beliefs.take(s.lead)).ravel(),
                                   _elicited(at_k, size, beliefs.take(s.rest)).ravel(),
                                   np.where(believed, full, empty),
                                   np.where(believed, at_full, at_empty))
            for value, at in zip(values.tolist(), out):
                at.append((h.name, value))
        hypotheses += 1
    if not hypotheses:
        raise ValueError("empty hypothesis catalog")
    return [EvidenceResult(name, k, value, rank) for at_set in scored for k, at_k in zip(ks, at_set)
            for rank, (name, value) in enumerate(sorted(at_k, key=lambda s: (-s[1], s[0])), 1)]


def write_rankings(path, rows: Iterable[tuple[str, EvidenceResult]]) -> None:
    """Write (cluster label, result) pairs as the ranking table.

    Columns: cluster, hypothesis, k, log_evidence, rank; sorted by
    (cluster, k, rank).
    """
    ordered = sorted(rows, key=lambda item: (item[0], item[1].k, item[1].rank))
    write_csv(path, ["cluster", "hypothesis", "k", "log_evidence", "rank"],
              ([cluster, res.hypothesis, repr(float(res.k)), repr(float(res.log_evidence)),
                res.rank] for cluster, res in ordered))
