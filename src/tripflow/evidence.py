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
per k, for every count set, and each hypothesis picks per row by its zero rows.
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
_BLOCK = 2**14  # tail values per `_rising_tail` block, _BLOCK // K columns, so they stay in cache


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


def _row_sums(q: np.ndarray) -> np.ndarray:
    """Each belief row's sum, or inf where it is 0: q / sums is then 0, as where a sum overflows."""
    sums = q.sum(axis=1)
    return np.where(sums > 0, sums, math.inf)


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
    return PriorMatrix(alpha=_elicited(k, q.q.shape[0], q.q / _row_sums(q.q)[:, None]))


class _Counts(NamedTuple):
    """An integer count vector laid out once for the scorers below, one count set after another."""

    n: np.ndarray
    entry: np.ndarray  # the entry of each term of a count n <= T ...
    offset: np.ndarray  # ... and its i, as a float
    tail: np.ndarray  # the entries whose count is above T ...
    tail_n: np.ndarray  # ... and their counts, as floats
    entry_cuts: list[int]  # where each count set's terms start in ``entry``, and the end ...
    tail_cuts: list[int]  # ... and where its entries start in ``tail``, and the end


def _counts(n: np.ndarray, cuts: np.ndarray) -> _Counts:
    """Lay out the counts ``n`` of count sets that start at the entries ``cuts``, then n.size."""
    direct = np.where(n <= _DIRECT, n, 0)
    entry = np.repeat(np.arange(n.size), direct)
    offset = np.arange(entry.size) - np.repeat(np.cumsum(direct) - direct, direct)
    tail = np.flatnonzero(n > _DIRECT)
    return _Counts(n, entry, offset.astype(float), tail, n.take(tail).astype(float),
                   *(np.searchsorted(at, cuts).tolist() for at in (entry, tail)))


def _by_set(values: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Each count set's column sum, (K, C), over its own slice: the bits of the set alone."""
    return np.stack([values[:, lo:hi].sum(axis=1) for lo, hi in zip(cuts, cuts[1:])], axis=1)


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
    place. Returns where it did so, as a mask, and the y there before the step."""
    small = y < _DIRECT
    first = y[small]
    y[small] = first + _DIRECT
    m[small] -= _DIRECT
    return small, first


def _rising_tail(x: np.ndarray, n: _Counts) -> np.ndarray:
    """lnG(x + n) - lnG(x) at the tail entries, n > T, in the log1p form of the Stirling series;
    one row per row of the priors ``x``.

    Where x < T the first T terms come first, as the log of their product. Heavy cells make this
    the costly loop at large trip counts, so it runs ``_BLOCK`` values at a time, mostly in place.
    """
    out = np.empty((len(x), n.tail.size))
    step = max(1, _BLOCK // len(x))
    for lo in range(0, n.tail.size, step):
        y = x.take(n.tail[lo:lo + step], axis=1)
        m = np.empty_like(y)  # the counts on every row of y
        m[:] = n.tail_n[lo:lo + step]
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
        out[:, lo:lo + step] = value
    return out


def _log_rising(x: np.ndarray, n: _Counts, per_entry: bool = False) -> np.ndarray:
    """lnG(x + n) - lnG(x) for priors x >= 1, one row per k, and integer counts n >= 0: each
    row's sum per count set, (K, C), or each entry when ``per_entry`` is set."""
    terms = x.take(n.entry, axis=1)
    terms += n.offset
    np.log(terms, out=terms)
    tail = _rising_tail(x, n)
    if not per_entry:
        return _by_set(terms, n.entry_cuts) + _by_set(tail, n.tail_cuts)
    out = np.array([np.bincount(n.entry, weights=row, minlength=n.n.size) for row in terms],
                   dtype=float)  # bincount of no terms is an int64 array
    out[:, n.tail] = tail
    return out


def _log_rising_ratios(a: np.ndarray, gap: np.ndarray, n: _Counts) -> np.ndarray:
    """Row sums per set, (K, C), of lnG(a + n) - lnG(a) - lnG(b + n) + lnG(b), b = a + gap >= a.

    Every term ln((a + i) / (b + i)) = -log1p(gap / (a + i)) is <= 0, so nothing cancels. Above
    T the Stirling forms of the two rising factorials are subtracted term by term, in log1p form.
    """
    y, d = a.take(n.tail, axis=1), gap.take(n.tail, axis=1)
    m = np.empty_like(y)
    m[:] = n.tail_n
    small, first = _past_head(y, m)
    head = -np.log1p(d[small][:, None] / (first[:, None] + np.arange(_DIRECT))).sum(axis=1)
    z = y + d
    tail = ((y - 0.5) * np.log1p(d / (z + m) * (m / y)) - m * np.log1p(d / (y + m))
            - d * np.log1p(m / z) + (_series(y + m) - _series(y) - (_series(z + m) - _series(z))))
    tail[small] += head
    terms = -np.log1p(gap.take(n.entry, axis=1) / (a.take(n.entry, axis=1) + n.offset))
    return _by_set(terms, n.entry_cuts) + _by_set(tail, n.tail_cuts)


class _CountSet(NamedTuple):
    """The observed cells of a stack of count sets, one set after another: each row's lead
    cell, the cell with its most trips, and the other cells."""

    lead: np.ndarray  # flat indices of the lead cells in their |S| x |S| set ...
    busy: np.ndarray  # ... and their rows, one per row with trips
    lead_n: _Counts
    rest: np.ndarray  # flat indices of the other observed cells in their set
    rest_n: _Counts
    row_lead: np.ndarray  # each row's lead count, as a float (0 for a row without trips)
    rows: _Counts  # each row's trips outside its lead cell


def _count_set(stack: np.ndarray) -> _CountSet:  # a (C, |S|, |S|) stack
    size = stack.shape[-1]
    by_row = stack.reshape(-1, size)
    row_lead = by_row.max(axis=1)  # each row's lead count
    busy = np.flatnonzero(row_lead)
    lead = busy * size + by_row.argmax(axis=1).take(busy)  # flat indices in the stack
    rest = np.setdiff1d(np.flatnonzero(stack), lead, assume_unique=True)
    cuts = np.arange(len(stack) + 1) * size  # where each set's rows start, and the end
    return _CountSet(lead % size**2, busy % size,
                     _counts(stack.take(lead), np.searchsorted(busy, cuts)), rest % size**2,
                     _counts(stack.take(rest), np.searchsorted(rest, cuts * size)),
                     row_lead.astype(float), _counts(by_row.sum(axis=1) - row_lead, cuts))


def _log_evidence(s: _CountSet, lead_alpha: np.ndarray, rest_alpha: np.ndarray,
                  row_alpha: np.ndarray, row_terms: np.ndarray) -> np.ndarray:
    """The log evidence of each count set under K priors, (K, C), from (K, cells) arrays, one
    row per prior: the prior at the lead and other observed cells, each origin row's prior sum
    A, and ``row_terms``, each set's origin rows' lnG(A + N) - lnG(A + n) for the lead count n.
    The rest of the row term, lnG(A + n) - lnG(A), is paired with the lead cell's
    lnG(a + n) - lnG(a) in `_log_rising_ratios`, with gap A - a.
    """
    gap = row_alpha.take(s.busy, axis=1) - lead_alpha
    return (_log_rising_ratios(lead_alpha, gap, s.lead_n) + _log_rising(rest_alpha, s.rest_n)
            - row_terms.reshape(len(row_terms), -1, row_alpha.shape[1]).sum(axis=2))


def log_evidence(n: TransitionCounts, a: PriorMatrix) -> float:
    """Log marginal likelihood of the transition counts under a Dirichlet prior."""
    if n.counts.shape != a.alpha.shape:
        raise ValueError(f"count shape {n.counts.shape} != prior shape {a.alpha.shape}")
    s = _count_set(n.counts[None])  # a cell with n = 0 adds lnG(a) - lnG(a) = 0
    row_alpha = a.alpha.sum(axis=1)[None]  # the one-row case of k_sweep's (K, cells) priors
    row_terms = _log_rising(row_alpha + s.row_lead, s.rows, per_entry=True)
    return float(_log_evidence(s, a.alpha.take(s.lead)[None], a.alpha.take(s.rest)[None],
                               row_alpha, row_terms)[0, 0])


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
    each belief matrix is normalized at the observed cells alone, scored against
    every count set at once and dropped. The k values are checked before any
    scoring; so is every shape of a Sequence catalog, and each streamed
    hypothesis before its own.
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
    s = _count_set(stack)
    rest_rows = s.rest // size
    at_k = np.asarray(ks, dtype=float)[:, None]  # one row per k, against the sets' cells
    # each row's sum in exact arithmetic: |S| (1 + k) for a non-zero belief row, |S| for a zero one
    full, empty = size + at_k * size, np.full_like(at_k, size)
    names, scores = [], []  # each hypothesis' name and (K, C) scores
    for h in catalog:  # alpha as in elicit_prior at the observed cells
        q = _check_shape(h, shape).q
        if not names:  # once the first hypothesis has passed its check
            at_full, at_empty = (_log_rising(total + s.row_lead, s.rows, per_entry=True)
                                 for total in (full, empty))
        sums = _row_sums(q)
        believed = np.isfinite(sums)
        scores.append(_log_evidence(s, _elicited(at_k, size, q.take(s.lead) / sums.take(s.busy)),
                                    _elicited(at_k, size, q.take(s.rest) / sums.take(rest_rows)),
                                    np.where(believed, full, empty),
                                    np.where(np.tile(believed, len(stack)), at_full, at_empty)))
        names.append(h.name)
    if not names:
        raise ValueError("empty hypothesis catalog")
    return [EvidenceResult(name, k, value, rank)
            for at_set in np.transpose(scores, (2, 1, 0)).tolist() for k, at in zip(ks, at_set)
            for rank, (name, value) in enumerate(
                sorted(zip(names, at), key=lambda s: (-s[1], s[0])), 1)]


def write_rankings(path, rows: Iterable[tuple[str, EvidenceResult]]) -> None:
    """Write (cluster label, result) pairs as the ranking table.

    Columns: cluster, hypothesis, k, log_evidence, rank; sorted by
    (cluster, k, rank).
    """
    ordered = sorted(rows, key=lambda item: (item[0], item[1].k, item[1].rank))
    write_csv(path, ["cluster", "hypothesis", "k", "log_evidence", "rank"],
              ([cluster, res.hypothesis, repr(float(res.k)), repr(float(res.log_evidence)),
                res.rank] for cluster, res in ordered))
