import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripflow import evidence
from tripflow.evidence import (
    DEFAULT_K_GRID,
    PriorMatrix,
    elicit_prior,
    k_sweep,
    log_evidence,
    rank_hypotheses,
)
from tripflow.hypotheses import (
    HypothesisMatrix,
    WeightVector,
    build_catalog,
    build_inverse_distance,
    build_mass,
    build_uniform,
)
from tripflow.ingest import TransitionCounts
from tripflow.synth import generate_from_hypothesis
from tripflow.ingest import transition_counts

from conftest import dense_log_evidence, exact_log_evidence, fresh_python


def counts_of(matrix) -> TransitionCounts:
    counts = np.asarray(matrix, dtype=np.int64)
    return TransitionCounts(counts=counts)


def assert_close(value: float, dense: float) -> None:
    """Within 1e-12 relative of the dense formula: same terms, another summation order."""
    assert abs(value - dense) <= 1e-12 * abs(dense), (value, dense)


def assert_near_oracle(value: float, counts: np.ndarray, alpha: np.ndarray) -> None:
    """Within 1e-12 relative of the dense formula, or, where that formula is itself off by more
    than 1e-12 of the 40-digit reference (its lnG(A) - lnG(A + N) cancels digits at large
    alpha), within 1e-12 relative of that reference."""
    dense = dense_log_evidence(counts, alpha)
    if abs(value - dense) <= 1e-12 * abs(dense):
        return
    exact = exact_log_evidence(counts, alpha)
    assert abs(dense - exact) > 1e-12 * abs(exact), (value, dense, exact)
    assert abs(value - exact) <= 1e-12 * abs(exact), (value, dense, exact)


def polya_log_evidence(counts: np.ndarray, alpha: np.ndarray) -> float:
    """Sequential predictive oracle: one transition at a time, urn-style."""
    total = 0.0
    n = counts.shape[0]
    for i in range(n):
        seen = np.zeros(n)
        row = alpha[i].astype(float)
        for j in range(n):
            for _ in range(int(counts[i, j])):
                total += math.log((row[j] + seen[j]) / (row.sum() + seen.sum()))
                seen[j] += 1
    return total


class TestElicit:
    def test_k_zero_gives_flat_prior(self):
        q = build_uniform(4)
        assert (elicit_prior(q, 0.0).alpha == 1.0).all()

    def test_row_arithmetic(self):
        q = HypothesisMatrix("x", np.array([[0.0, 0.5, 0.5],
                                            [1.0, 0.0, 1.0],
                                            [1.0, 1.0, 0.0]]))
        alpha = elicit_prior(q, 2.0).alpha
        np.testing.assert_array_equal(alpha[0], [1.0, 4.0, 4.0])

    def test_row_scale_invariant(self):
        base = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        scaled = base.copy()
        scaled[0] *= 10.0
        a1 = elicit_prior(HypothesisMatrix("a", base), 2.0).alpha
        a2 = elicit_prior(HypothesisMatrix("b", scaled), 2.0).alpha
        np.testing.assert_array_equal(a1, a2)

    def test_zero_rows_elicit_flat_row(self):
        q = HypothesisMatrix("x", np.array([[0.0, 0.0, 0.0],
                                            [1.0, 0.0, 1.0],
                                            [1.0, 1.0, 0.0]]))
        alpha = elicit_prior(q, 5.0).alpha
        np.testing.assert_array_equal(alpha[0], [1.0, 1.0, 1.0])
        assert alpha[1].sum() == pytest.approx(3 + 5 * 3)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            elicit_prior(build_uniform(3), -1.0)

    @pytest.mark.parametrize("alpha", [[[1.0, 0.5]], [[1.0, np.inf]], [[np.nan, 1.0]]],
                             ids=["below_one", "infinite", "nan"])
    def test_prior_checks(self, alpha):
        with pytest.raises(ValueError, match="^prior entries must be finite and >= 1$"):
            PriorMatrix(alpha=np.array(alpha))


class TestLogEvidence:
    def test_closed_form_fixture(self):
        # 2 states, two observed 0->1 transitions, flat prior: G(2)/G(4)*G(3)/G(1) = 1/3
        n = counts_of([[0, 2], [0, 0]])
        prior = PriorMatrix(alpha=np.ones((2, 2)))
        assert log_evidence(n, prior) == pytest.approx(math.log(1 / 3), abs=1e-9)

    def test_zero_counts_give_zero(self):
        n = counts_of(np.zeros((3, 3)))
        for k in (0.0, 1.0, 10.0):
            assert log_evidence(n, elicit_prior(build_uniform(3), k)) == 0.0

    def test_negative_for_positive_counts(self):
        n = counts_of([[0, 3], [1, 0]])
        assert log_evidence(n, PriorMatrix(alpha=np.ones((2, 2)) * 2.0)) < 0.0

    def test_row_additivity(self):
        full = counts_of([[0, 3], [4, 0]])
        first = counts_of([[0, 3], [0, 0]])
        second = counts_of([[0, 0], [4, 0]])
        prior = PriorMatrix(alpha=1.0 + np.array([[0.0, 2.0], [3.0, 1.0]]))
        lhs = log_evidence(full, prior)
        rhs = log_evidence(first, prior) + log_evidence(second, prior)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_evidence(counts_of(np.zeros((2, 2))), PriorMatrix(alpha=np.ones((3, 3))))

    def test_polya_oracle_agreement(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            s = int(rng.integers(2, 5))
            counts = np.zeros((s, s), dtype=np.int64)
            for _ in range(int(rng.integers(0, 21))):
                counts[rng.integers(0, s), rng.integers(0, s)] += 1
            alpha = 1.0 + 5.0 * rng.random((s, s))
            lhs = log_evidence(counts_of(counts), PriorMatrix(alpha=alpha))
            assert lhs == pytest.approx(polya_log_evidence(counts, alpha), abs=1e-9)

    def test_agrees_with_dense_formula(self):
        rng = np.random.default_rng(2015)
        for _ in range(300):
            s = int(rng.integers(1, 61))
            density = rng.choice([0.0, 0.02, 0.3, 1.0])
            counts = rng.integers(0, 50, size=(s, s)) * (rng.random((s, s)) < density)
            counts[rng.random(s) < 0.2] = 0  # all-zero rows
            alpha = 1.0 + 10.0 ** rng.uniform(-3.0, 8.0) * rng.random((s, s))
            alpha[rng.random((s, s)) < 0.1] = 1.0
            alpha = np.minimum(alpha, 1e8)
            value = log_evidence(counts_of(counts), PriorMatrix(alpha=alpha))
            assert_near_oracle(value, counts, alpha)

    def test_extra_transition_favors_stronger_belief(self):
        # at two zero-diagonal states the only way beliefs in 0 -> 1 can
        # differ is a committed row versus an all-zero (flat-prior) row
        strong = HypothesisMatrix("strong", np.array([[0.0, 2.0], [1.0, 0.0]]))
        agnostic = HypothesisMatrix("agnostic", np.array([[0.0, 0.0], [1.0, 0.0]]))
        base = np.array([[0, 4], [3, 0]], dtype=np.int64)
        more = base.copy()
        more[0, 1] += 1

        def gap(counts):
            n = counts_of(counts)
            return (log_evidence(n, elicit_prior(strong, 10.0))
                    - log_evidence(n, elicit_prior(agnostic, 10.0)))

        assert gap(more) > gap(base)


class TestRanking:
    def test_k_zero_all_tied_name_order(self, grid_space):
        w = WeightVector("venues_all", grid_space.property_vector("venues_all"))
        catalog = [build_uniform(len(grid_space)), build_inverse_distance(grid_space),
                   build_mass(grid_space, w, "density")]
        n = counts_of(np.ones((len(grid_space), len(grid_space)), dtype=np.int64)
                      - np.eye(len(grid_space), dtype=np.int64))
        results = rank_hypotheses(n, catalog, 0.0)
        values = [r.log_evidence for r in results]
        assert max(values) - min(values) < 1e-9
        assert [r.hypothesis for r in results] == sorted(h.name for h in catalog)
        assert [r.rank for r in results] == [1, 2, 3]

    def test_true_hypothesis_recovered(self, grid_space):
        w = WeightVector("venues_all", grid_space.property_vector("venues_all"))
        q_true = build_mass(grid_space, w, "gravitational_target")
        trips = generate_from_hypothesis(q_true, np.ones(len(grid_space)), 5000, seed=9)
        n = transition_counts(trips, len(grid_space))
        catalog = [q_true, build_uniform(len(grid_space)), build_inverse_distance(grid_space)]
        results = rank_hypotheses(n, catalog, 10.0)
        assert results[0].hypothesis == q_true.name
        assert results[0].rank == 1

    def test_gravitational_pair_equal_evidence(self, grid_space):
        w = WeightVector("venues_all", grid_space.property_vector("venues_all"))
        target = build_mass(grid_space, w, "gravitational_target")
        mass = build_mass(grid_space, w, "gravitational_mass")
        trips = generate_from_hypothesis(target, np.ones(len(grid_space)), 3000, seed=12)
        n = transition_counts(trips, len(grid_space))
        lhs = log_evidence(n, elicit_prior(target, 10.0))
        rhs = log_evidence(n, elicit_prior(mass, 10.0))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_empty_catalog(self):
        with pytest.raises(ValueError):
            rank_hypotheses(counts_of(np.zeros((2, 2))), [], 1.0)

    def test_ranks_are_permutation(self, grid_space):
        w = WeightVector("checkins", grid_space.property_vector("checkins"))
        catalog = [build_uniform(len(grid_space)), build_inverse_distance(grid_space),
                   build_mass(grid_space, w, "popularity")]
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 5, size=(len(grid_space), len(grid_space)))
        np.fill_diagonal(counts, 0)
        results = rank_hypotheses(counts_of(counts), catalog, 10.0)
        assert sorted(r.rank for r in results) == [1, 2, 3]
        values = [r.log_evidence for r in results]
        assert values == sorted(values, reverse=True)


class TestKSweep:
    def test_row_count(self, grid_space):
        catalog = [build_uniform(len(grid_space)), build_inverse_distance(grid_space)]
        n = counts_of(np.eye(len(grid_space), k=1, dtype=np.int64))
        results = k_sweep(n, catalog, (0.0, 10.0, 50.0))
        assert len(results) == 3 * len(catalog)

    def test_single_k_matches_rank_hypotheses(self, grid_space):
        catalog = [build_uniform(len(grid_space)), build_inverse_distance(grid_space)]
        n = counts_of(np.eye(len(grid_space), k=1, dtype=np.int64))
        assert k_sweep(n, catalog, (10.0,)) == rank_hypotheses(n, catalog, 10.0)

    def test_default_grid(self):
        assert DEFAULT_K_GRID == (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)

    def test_city_scores_equal_dense_formula(self, city_space):
        catalog = build_catalog(city_space)
        w = WeightVector("venues_all", city_space.property_vector("venues_all"))
        law = build_mass(city_space, w, "gravitational_target")
        trips = generate_from_hypothesis(law, np.ones(len(city_space)), 20_000, seed=5)
        n = transition_counts(trips, len(city_space))
        by_name = {h.name: h for h in catalog}
        ks = (0.0, 10.0, 100.0)
        results = k_sweep(n, catalog, ks)
        assert len(results) == len(ks) * len(catalog) == 210
        for r in results:
            alpha = elicit_prior(by_name[r.hypothesis], r.k).alpha
            assert_close(r.log_evidence, dense_log_evidence(n.counts, alpha))

    def test_each_k_scores_as_a_sweep_of_its_own(self, city_space):
        size = len(city_space)
        w = WeightVector("venues_all", city_space.property_vector("venues_all"))
        law = build_mass(city_space, w, "gravitational_target")
        partial = law.q.copy()
        partial[::7] = 0.0  # all-zero belief rows where trips start
        catalog = [build_uniform(size), build_inverse_distance(city_space), law,
                   HypothesisMatrix("partial", partial)]
        rng = np.random.default_rng(17)
        n = counts_of(rng.multinomial(1_000_000, (law.q / law.q.sum()).ravel()).reshape(size, -1))
        ks = DEFAULT_K_GRID + (1e4,)
        # more cells above T, besides the lead cells, than one block holds: the tail runs in
        # several blocks of columns in the sweep and in each one-k sweep
        assert (n.counts > evidence._DIRECT).sum() > evidence._BLOCK + size
        assert k_sweep(n, catalog, ks) == [r for k in ks for r in k_sweep(n, catalog, (k,))]

    def test_scorer_sees_row_sums_and_observed_cells_only(self, monkeypatch, grid_space):
        calls = []

        def spy(*args):
            calls.append(args)
            return scorer(*args)

        scorer = evidence._log_evidence
        monkeypatch.setattr(evidence, "_log_evidence", spy)
        size = len(grid_space)
        counts = np.zeros((size, size), dtype=np.int64)
        counts[0, 1], counts[2, 5], counts[2, 7] = 3, 1, 4  # row 2 leads with 4 trips at column 7
        n = counts_of(counts)
        partial = build_inverse_distance(grid_space).q.copy()
        partial[2] = 0.0  # an all-zero belief row where trips start
        catalog = [build_uniform(size), build_inverse_distance(grid_space),
                   HypothesisMatrix("partial", partial)]
        ks = (0.0, 10.0)
        k_sweep(n, catalog, ks)
        log_evidence(n, elicit_prior(catalog[-1], 10.0))
        # one call per hypothesis, scoring the count set under a prior row per k; then log_evidence
        assert [len(call[1]) for call in calls] == [len(ks)] * len(catalog) + [1]
        lead, rest = [1, 2 * size + 7], [2 * size + 5]
        for (s, lead_alpha, rest_alpha, row_alpha, row_terms), h, sweep in \
                zip(calls, catalog + catalog[-1:], [ks] * len(catalog) + [None]):
            priors = [elicit_prior(h, k) for k in sweep or (10.0,)]
            np.testing.assert_array_equal(s.lead, lead)
            np.testing.assert_array_equal(s.busy, [0, 2])
            np.testing.assert_array_equal(s.lead_n.n, [3, 4])
            np.testing.assert_array_equal(s.rest, rest)
            np.testing.assert_array_equal(s.rest_n.n, [1])
            row_lead, outside_lead = np.zeros(size), np.zeros(size, dtype=np.int64)
            row_lead[[0, 2]], outside_lead[2] = (3, 4), 1
            np.testing.assert_array_equal(s.row_lead, row_lead)
            np.testing.assert_array_equal(s.rows.n, outside_lead)
            for alpha, at in ((lead_alpha, lead), (rest_alpha, rest)):  # (K, cells): a row per k
                assert alpha.shape == (len(priors), len(at))
                np.testing.assert_array_equal(alpha,
                                              [[p.alpha.flat[i] for i in at] for p in priors])
            if sweep:  # each row's sum in exact arithmetic, picked by the zero rows
                expected = [np.where(h.q.any(axis=1), size * (1 + k), size) for k in sweep]
            else:  # log_evidence: the prior's own row sums
                expected = [priors[0].alpha.sum(axis=1)]
            assert row_alpha.shape == row_terms.shape == (len(priors), size)
            np.testing.assert_array_equal(row_alpha, expected)
            np.testing.assert_array_equal(
                row_terms, evidence._log_rising(row_alpha + s.row_lead, s.rows, per_entry=True))
        assert calls[2][3][1, 2] == size != calls[1][3][1, 2]  # "partial"'s zero row at k = 10

    def test_stack_is_scored_once_per_hypothesis(self, monkeypatch, grid_space):
        calls = []

        def spy(*args):
            calls.append((args, scorer(*args)))
            return calls[-1][1]

        scorer = evidence._log_evidence
        monkeypatch.setattr(evidence, "_log_evidence", spy)
        size = len(grid_space)
        rng = np.random.default_rng(11)
        stack = rng.integers(0, 40, size=(3, size, size)) * (rng.random((3, size, size)) < 0.3)
        stack[1] = 0  # an empty count set between two others
        catalog = [build_uniform(size), build_inverse_distance(grid_space)]
        ks = (0.0, 1.0, 10.0)
        results = k_sweep(counts_of(stack), catalog, ks)
        assert len(calls) == len(catalog)  # every count set in one call per hypothesis
        for (s, lead_alpha, rest_alpha, row_alpha, row_terms), values in calls:
            assert lead_alpha.shape == (len(ks), s.lead.size)  # (K, cells): a row per k
            assert rest_alpha.shape == (len(ks), s.rest.size)
            assert s.lead.size + s.rest.size == np.count_nonzero(stack)
            assert row_alpha.shape == (len(ks), size)
            assert row_terms.shape == (len(ks), len(stack) * size)
            assert values.shape == (len(ks), len(stack))  # (K, C)
        by_set = {(i // (len(ks) * len(catalog)), r.k, r.hypothesis): r.log_evidence
                  for i, r in enumerate(results)}
        for (_, values), h in zip(calls, catalog):
            assert values.tolist() == [[by_set[c, k, h.name] for c in range(len(stack))]
                                       for k in ks]

    def test_set_sums_have_the_bits_of_each_set_alone(self):
        rng = np.random.default_rng(5)
        values = rng.random((3, 500)) * 10.0 ** rng.integers(-8, 8, size=(3, 500))
        cuts = [0, 0, 37, 38, 290, 500]  # an empty set, a set of one and longer ones
        sums = evidence._by_set(values, cuts)
        assert sums.shape == (3, len(cuts) - 1)
        for c, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            assert sums[:, c].tolist() == values[:, lo:hi].copy().sum(axis=1).tolist()

    def test_overflowing_belief_row_is_a_zero_row(self, grid_space):
        # q / inf is 0, as the sum of a belief row that overflows: the row elicits the flat prior
        size = len(grid_space)
        q = build_inverse_distance(grid_space).q.copy()
        q[3] = 1e308
        q[3, 3] = 0.0
        zero = q.copy()
        zero[3] = 0.0
        catalog = [HypothesisMatrix("overflow", q), HypothesisMatrix("zero", zero)]
        rng = np.random.default_rng(2)
        n = counts_of(rng.integers(0, 5, size=(size, size)))
        with np.errstate(over="ignore"):
            results = k_sweep(n, catalog, (1.0, 10.0))
            priors = [elicit_prior(h, 10.0).alpha for h in catalog]
        by_k = {}
        for r in results:
            by_k.setdefault(r.k, set()).add(r.log_evidence)
        assert all(len(scores) == 1 for scores in by_k.values())  # an exact tie at every k
        np.testing.assert_array_equal(priors[0], priors[1])

    def test_empty_grid(self, grid_space):
        with pytest.raises(ValueError):
            k_sweep(counts_of(np.zeros((2, 2))), [build_uniform(2)], ())

    @pytest.mark.parametrize("k", [-1.0, -1e-300, math.nan, math.inf, -math.inf, 1e308])
    @pytest.mark.parametrize("sweep", [
        lambda n, catalog, k: k_sweep(n, catalog, (10.0, k)),
        lambda n, catalog, k: rank_hypotheses(n, catalog, k),
        lambda n, catalog, k: elicit_prior(catalog[0], k)], ids=["k_sweep", "rank", "elicit"])
    def test_bad_k_rejected_before_scoring(self, monkeypatch, sweep, k):
        # 1e308 is finite, but k * |S| overflows the prior
        forbid_scoring(monkeypatch)
        with pytest.raises(ValueError, match=r"k must be finite and >= 0 .*got k="):
            sweep(counts_of([[0, 1], [1, 0]]), [build_uniform(2)], k)

    def test_belief_shape_mismatch_rejected_before_scoring(self, monkeypatch):
        forbid_scoring(monkeypatch)
        catalog = [build_uniform(3), replace(build_uniform(2), name="small")]
        message = re.escape("small: belief shape (2, 2) != count shape (3, 3)")
        with pytest.raises(ValueError, match=message):
            k_sweep(counts_of(np.ones((3, 3))), catalog, (0.0, 10.0))
        with pytest.raises(ValueError, match=message):
            rank_hypotheses(counts_of(np.ones((3, 3))), catalog, 10.0)


def unreachable(*args):
    raise AssertionError("scored before the inputs were checked")


def forbid_scoring(monkeypatch):
    for scorer in ("_log_evidence", "_log_rising", "_log_rising_ratios"):
        monkeypatch.setattr(evidence, scorer, unreachable)


@st.composite
def sweep_cases(draw):
    """A catalog, a k grid holding 0 and count sets (one all zero) over 2..30 states."""
    size = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    catalog = []
    for name in draw(st.permutations([f"h{i}" for i in range(draw(st.integers(1, 5)))])):
        if catalog and draw(st.booleans()):  # the same beliefs again: an exact tie
            catalog.append(HypothesisMatrix(name, catalog[-1].q.copy()))
            continue
        q = rng.random((size, size)) * (rng.random((size, size)) < draw(st.sampled_from([0.1, 1.0])))
        q[rng.random(size) < 0.3] = 0.0  # all-zero rows
        np.fill_diagonal(q, 0.0)
        q[0, 1] = q[0, 1] or 1.0
        catalog.append(HypothesisMatrix(name, q))
    ks = (0.0,) + tuple(draw(st.lists(st.floats(1e-3, 1e6), max_size=3, unique=True)))
    count_sets = [counts_of(np.zeros((size, size), dtype=np.int64))]
    for _ in range(draw(st.integers(1, 3))):
        density = draw(st.sampled_from([0.02, 0.3, 1.0]))
        counts = rng.integers(0, 30, size=(size, size)) * (rng.random((size, size)) < density)
        counts[rng.random(size) < 0.3] = 0  # all-zero rows
        count_sets.append(counts_of(counts))
    return catalog, ks, count_sets


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_sweep_matches_per_prior_oracle(case):
    catalog, ks, count_sets = case
    for n in count_sets:
        results = k_sweep(n, catalog, ks)
        assert len(results) == len(ks) * len(catalog)
        for j, k in enumerate(ks):
            block = results[j * len(catalog):(j + 1) * len(catalog)]
            assert [(r.k, r.rank) for r in block] == [(k, i) for i in range(1, len(block) + 1)]
            assert [(-r.log_evidence, r.hypothesis) for r in block] == \
                sorted((-r.log_evidence, r.hypothesis) for r in block)
            scores = {r.hypothesis: r.log_evidence for r in block}
            assert sorted(scores) == sorted(h.name for h in catalog)
            for h in catalog:
                prior = elicit_prior(h, k)
                assert_near_oracle(scores[h.name], n.counts, prior.alpha)
                assert_near_oracle(log_evidence(n, prior), n.counts, prior.alpha)
            for a, b in zip(catalog, catalog[1:]):
                if np.array_equal(a.q, b.q):  # the same beliefs tie exactly
                    assert scores[a.name] == scores[b.name]
            if k == 0.0:  # the flat prior: every hypothesis scores the log_evidence bits
                flat = log_evidence(n, elicit_prior(catalog[0], 0.0))
                assert set(scores.values()) == {flat}


@st.composite
def stack_cases(draw):
    """A sweep case with 1 to 4 of its count sets, all-zero and repeated ones included."""
    catalog, ks, count_sets = draw(sweep_cases())
    chosen = draw(st.lists(st.integers(0, len(count_sets) - 1), min_size=1, max_size=4))
    return catalog, ks, [count_sets[i] for i in chosen]


@settings(max_examples=60, deadline=None)
@given(stack_cases())
def test_stack_sweep_is_concatenated_set_sweeps(case):
    # the batch law: a (C, |S|, |S|) stack scores, bit for bit, as its C count sets one by one
    catalog, ks, count_sets = case
    stack = np.stack([n.counts for n in count_sets])
    n = TransitionCounts(counts=stack)
    expected = [r for one in count_sets for r in k_sweep(one, catalog, ks)]
    assert k_sweep(n, catalog, ks) == expected
    assert k_sweep(n, iter(catalog), ks) == expected  # a stream scores as the list


class TestStreamedCatalog:
    def test_wrong_shape_in_stream_raised_before_it_is_scored(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return scorer(*args)

        scorer = evidence._log_evidence
        monkeypatch.setattr(evidence, "_log_evidence", spy)
        stream = iter([build_uniform(3), replace(build_uniform(2), name="small"),
                       replace(build_uniform(3), name="late")])
        message = re.escape("small: belief shape (2, 2) != count shape (3, 3)")
        with pytest.raises(ValueError, match=message):
            k_sweep(counts_of(np.ones((3, 3))), stream, (0.0, 10.0))
        assert [len(call[1]) for call in calls] == [2]  # the first hypothesis at both k only
        forbid_scoring(monkeypatch)
        with pytest.raises(ValueError, match="small: belief shape"):
            k_sweep(counts_of(np.ones((3, 3))), iter([replace(build_uniform(2), name="small")]),
                    (10.0,))

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="empty hypothesis catalog"):
            k_sweep(counts_of(np.ones((2, 2))), iter([]), (10.0,))

    def test_bad_k_rejected_before_the_stream_is_read(self):
        def stream():
            raise AssertionError("catalog read before the k values were checked")
            yield

        with pytest.raises(ValueError, match="k must be finite"):
            k_sweep(counts_of(np.ones((2, 2))), stream(), (10.0, -1.0))


def test_cli_import_leaves_scipy_special_unloaded():
    # Only ranking needs gammaln; every other stage process skips its import time.
    out = fresh_python("-c", "import sys, tripflow.cli; print('scipy.special' in sys.modules)",
                       env=dict(os.environ))
    assert out.strip() == "False"


# Prints the variable, then the thread count of each bundled OpenBLAS that is found.
_BLAS_THREADS = """
import tripflow.cli, scipy.special
import ctypes, os, pathlib, numpy, scipy
print(os.environ["OPENBLAS_NUM_THREADS"])
for module, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                       (scipy, "scipy_openblas_get_num_threads")):
    libs = pathlib.Path(module.__file__).parent.parent / (module.__name__ + ".libs")
    for lib in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), symbol)
        get.restype = ctypes.c_int
        print(get())
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_stage_processes_run_one_blas_thread_unless_set(preset, expected):
    # Every BLAS product is small, so a second thread only spins; a user's own setting wins.
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    variable, *threads = fresh_python("-c", _BLAS_THREADS, env=env).split()
    assert variable == expected
    assert threads == [expected] * len(threads)
