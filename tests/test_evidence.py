import math
import os
import re
import subprocess
import sys
from pathlib import Path

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


def counts_of(matrix) -> TransitionCounts:
    counts = np.asarray(matrix, dtype=np.int64)
    return TransitionCounts(counts=counts, total=int(counts.sum()))


def dense_log_evidence(counts: np.ndarray, alpha: np.ndarray) -> float:
    """The cell term evaluated on every cell, zero counts included."""
    from scipy.special import gammaln

    row_alpha = alpha.sum(axis=1)
    value = (gammaln(row_alpha) - gammaln(row_alpha + counts.sum(axis=1))
             + (gammaln(alpha + counts) - gammaln(alpha)).sum(axis=1))
    return float(value.sum())


def assert_close(value: float, dense: float) -> None:
    """Within 1e-12 relative of the dense formula: same terms, another summation order."""
    assert abs(value - dense) <= 1e-12 * abs(dense), (value, dense)


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


class TestLogEvidence:
    def test_closed_form_fixture(self):
        # 2 states, two observed 0->1 transitions, flat prior: G(2)/G(4)*G(3)/G(1) = 1/3
        n = counts_of([[0, 2], [0, 0]])
        prior = PriorMatrix(alpha=np.ones((2, 2)), k=0.0)
        assert log_evidence(n, prior) == pytest.approx(math.log(1 / 3), abs=1e-9)

    def test_zero_counts_give_zero(self):
        n = counts_of(np.zeros((3, 3)))
        for k in (0.0, 1.0, 10.0):
            assert log_evidence(n, elicit_prior(build_uniform(3), k)) == 0.0

    def test_negative_for_positive_counts(self):
        n = counts_of([[0, 3], [1, 0]])
        assert log_evidence(n, PriorMatrix(alpha=np.ones((2, 2)) * 2.0, k=1.0)) < 0.0

    def test_row_additivity(self):
        full = counts_of([[0, 3], [4, 0]])
        first = counts_of([[0, 3], [0, 0]])
        second = counts_of([[0, 0], [4, 0]])
        prior = PriorMatrix(alpha=1.0 + np.array([[0.0, 2.0], [3.0, 1.0]]), k=1.0)
        lhs = log_evidence(full, prior)
        rhs = log_evidence(first, prior) + log_evidence(second, prior)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_evidence(counts_of(np.zeros((2, 2))), PriorMatrix(alpha=np.ones((3, 3)), k=0.0))

    def test_polya_oracle_agreement(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            s = int(rng.integers(2, 5))
            counts = np.zeros((s, s), dtype=np.int64)
            for _ in range(int(rng.integers(0, 21))):
                counts[rng.integers(0, s), rng.integers(0, s)] += 1
            alpha = 1.0 + 5.0 * rng.random((s, s))
            lhs = log_evidence(counts_of(counts), PriorMatrix(alpha=alpha, k=1.0))
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
            value = log_evidence(counts_of(counts), PriorMatrix(alpha=alpha, k=1.0))
            assert_close(value, dense_log_evidence(counts, alpha))

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

    def test_scorer_sees_row_sums_and_observed_cells_only(self, monkeypatch, grid_space):
        calls = []

        def spy(*arrays):
            calls.append(arrays)
            return scorer(*arrays)

        scorer = evidence._log_evidence
        monkeypatch.setattr(evidence, "_log_evidence", spy)
        size = len(grid_space)
        counts = np.zeros((size, size), dtype=np.int64)
        counts[0, 1], counts[2, 5], counts[2, 7] = 3, 1, 4
        n = counts_of(counts)
        catalog = [build_uniform(size), build_inverse_distance(grid_space)]
        ks = (0.0, 10.0)
        k_sweep(n, catalog, ks)
        priors = [elicit_prior(h, k) for h in catalog for k in ks]  # the sweep's call order
        log_evidence(n, priors[-1])
        assert len(calls) == len(priors) + 1
        for (row_alpha, row_counts, cell_alpha, cell_counts), prior in \
                zip(calls, priors + priors[-1:]):
            assert [a.shape for a in (row_alpha, row_counts, cell_alpha, cell_counts)] == \
                [(size,), (size,), (3,), (3,)]
            np.testing.assert_array_equal(row_alpha, prior.alpha.sum(axis=1))
            np.testing.assert_array_equal(row_counts, counts.sum(axis=1))
            np.testing.assert_array_equal(cell_alpha, prior.alpha[counts > 0])
            np.testing.assert_array_equal(cell_counts, [3, 1, 4])

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
        monkeypatch.setattr(evidence, "_log_evidence", unreachable)
        with pytest.raises(ValueError, match=r"k must be finite and >= 0 .*got k="):
            sweep(counts_of([[0, 1], [1, 0]]), [build_uniform(2)], k)

    def test_belief_shape_mismatch_rejected_before_scoring(self, monkeypatch):
        monkeypatch.setattr(evidence, "_log_evidence", unreachable)
        catalog = [build_uniform(3), build_uniform(2, name="small")]
        message = re.escape("small: belief shape (2, 2) != count shape (3, 3)")
        with pytest.raises(ValueError, match=message):
            k_sweep(counts_of(np.ones((3, 3))), catalog, (0.0, 10.0))
        with pytest.raises(ValueError, match=message):
            rank_hypotheses(counts_of(np.ones((3, 3))), catalog, 10.0)


def unreachable(*args):
    raise AssertionError("scored before the inputs were checked")


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
                assert_close(scores[h.name], dense_log_evidence(n.counts, prior.alpha))
                assert_close(log_evidence(n, prior), dense_log_evidence(n.counts, prior.alpha))
            for a, b in zip(catalog, catalog[1:]):
                if np.array_equal(a.q, b.q):  # the same beliefs tie exactly
                    assert scores[a.name] == scores[b.name]
            if k == 0.0:  # the flat prior: every hypothesis scores the log_evidence bits
                flat = log_evidence(n, elicit_prior(catalog[0], 0.0))
                assert set(scores.values()) == {flat}


def test_cli_import_leaves_scipy_special_unloaded():
    # Only ranking needs gammaln; every other stage process skips its import time.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "import sys, tripflow.cli; "
                           "print('scipy.special' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
