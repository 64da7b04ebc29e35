"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criteria are property-based plus planted-structure recovery; tolerances are
pinned here and not configurable.
"""

import csv
import json
import math
import time
from datetime import datetime

import numpy as np
import pytest

from tripflow.cli import run_pipeline
from tripflow.config import load_config
from tripflow.evidence import PriorMatrix, elicit_prior, log_evidence, rank_hypotheses
from tripflow.geo import GeoPoint, hour_of_week
from tripflow.hypotheses import CatalogConfig, HypothesisMatrix, WeightVector, \
    build_catalog, build_mass
from tripflow.ingest import TransitionCounts, clean_trips
from tripflow.synth import write_demo_fixture
from tripflow.tensor import NtfOptions, ntf_decompose

from conftest import best_match_min_cosine, planted_rank3


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")


def _counts(matrix) -> TransitionCounts:
    counts = np.asarray(matrix, dtype=np.int64)
    return TransitionCounts(counts=counts)


def _polya(counts: np.ndarray, alpha: np.ndarray) -> float:
    total = 0.0
    for i in range(counts.shape[0]):
        seen = np.zeros(counts.shape[0])
        row = alpha[i].astype(float)
        for j in range(counts.shape[0]):
            for _ in range(int(counts[i, j])):
                total += math.log((row[j] + seen[j]) / (row.sum() + seen.sum()))
                seen[j] += 1
    return total


def _random_counts(size: int, seed: int, mean: float = 0.1) -> TransitionCounts:
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean, size=(size, size)).astype(np.int64)
    np.fill_diagonal(counts, 0)
    return TransitionCounts(counts=counts)


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """Shipped fixture generated once; the pipeline executed twice on it."""
    root = tmp_path_factory.mktemp("acceptance_demo")
    write_demo_fixture(root, seed=42)
    elapsed = {}
    for label in ("out_a", "out_b"):
        cfg = load_config(root / "demo.cfg", output_dir=root / label)
        start = time.perf_counter()
        run_pipeline(cfg)
        elapsed[label] = time.perf_counter() - start
    return root, elapsed


def test_criterion_1_evidence_polya_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 5))
        counts = np.zeros((size, size), dtype=np.int64)
        for _ in range(int(rng.integers(0, 21))):
            counts[rng.integers(0, size), rng.integers(0, size)] += 1
        alpha = 1.0 + 5.0 * rng.random((size, size))
        value = log_evidence(_counts(counts), PriorMatrix(alpha=alpha))
        worst = max(worst, abs(value - _polya(counts, alpha)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "evidence-matches-polya-oracle", ok)
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_closed_form_fixture():
    value = log_evidence(_counts([[0, 2], [0, 0]]),
                         PriorMatrix(alpha=np.ones((2, 2))))
    ok = abs(value - math.log(1 / 3)) <= 1e-9
    _report(2, "closed-form-two-state-fixture", ok)
    assert value == pytest.approx(math.log(1 / 3), abs=1e-9)


def test_criterion_3_k_zero_degeneracy(city_space):
    catalog = build_catalog(city_space)
    counts = _random_counts(len(city_space), seed=1234)
    values = [log_evidence(counts, elicit_prior(h, 0.0)) for h in catalog]
    spread = max(values) - min(values)
    ok = len(catalog) == 70 and spread < 1e-9
    _report(3, "k0-catalog-degeneracy", ok)
    assert len(catalog) == 70
    assert spread < 1e-9


def test_criterion_4_row_scaling_invariance(city_space):
    catalog = build_catalog(city_space)
    counts = _random_counts(len(city_space), seed=1234)
    rng = np.random.default_rng(777)
    baseline = [(r.hypothesis, r.rank) for r in rank_hypotheses(counts, catalog, 10.0)]

    name_to_index = {h.name: i for i, h in enumerate(catalog)}
    chosen = set(rng.choice(len(catalog), size=10, replace=False).tolist())
    # include the gravitational twins: the pair with the closest evidences
    chosen.add(name_to_index["gravitational_target_venues_all"])
    chosen.add(name_to_index["gravitational_mass_venues_all"])

    modified = list(catalog)
    worst_alpha_change = 0.0
    for index in sorted(chosen):
        q = catalog[index].q.copy()
        for row in rng.choice(len(city_space), size=3, replace=False):
            q[row] *= float(rng.uniform(1e-9, 1000.0))
        scaled = HypothesisMatrix(catalog[index].name, q)
        for k in (1.0, 10.0, 100.0):
            change = np.abs(elicit_prior(scaled, k).alpha
                            - elicit_prior(catalog[index], k).alpha).max()
            worst_alpha_change = max(worst_alpha_change, change)
        modified[index] = scaled

    rescored = [(r.hypothesis, r.rank) for r in rank_hypotheses(counts, modified, 10.0)]
    ok = worst_alpha_change <= 1e-9 and rescored == baseline
    _report(4, "row-scaling-invariance", ok)
    assert worst_alpha_change <= 1e-9
    assert rescored == baseline


def test_criterion_5_gravitational_equivalence(city_space, grid_space):
    worst = 0.0
    for space, seed in ((city_space, 51), (grid_space, 52), (grid_space, 53)):
        w = WeightVector("venues_all", space.property_vector("venues_all"))
        target = build_mass(space, w, "gravitational_target")
        mass = build_mass(space, w, "gravitational_mass")
        counts = _random_counts(len(space), seed=seed, mean=1.0)
        for k in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0):
            diff = abs(log_evidence(counts, elicit_prior(target, k))
                       - log_evidence(counts, elicit_prior(mass, k)))
            worst = max(worst, diff)
    ok = worst <= 1e-9
    _report(5, "gravitational-target-mass-equivalence", ok)
    assert worst <= 1e-9


def test_criterion_6_ntf_planted_recovery():
    tensor, generators = planted_rank3()
    start = time.perf_counter()
    factors, trace = ntf_decompose(tensor, 3, NtfOptions(seed=42))
    elapsed = time.perf_counter() - start
    match = best_match_min_cosine(factors, generators)
    errors = np.asarray(trace.errors)
    monotone = bool((np.diff(errors) <= 1e-12).all())
    ok = match >= 0.95 and monotone and elapsed < 10.0
    _report(6, "ntf-planted-rank3-recovery", ok)
    assert match >= 0.95
    assert monotone
    assert elapsed < 10.0


def _planted_cluster_label(out_dir, planted_hours) -> str:
    overlaps = {}
    for path in sorted(out_dir.glob("cluster_*_membership.csv")):
        component = int(path.name.split("_")[1])
        with open(path) as fh:
            hours = {int(row["index"]) for row in csv.DictReader(fh)
                     if row["kind"] == "hour"}
        overlaps[component] = len(hours & set(planted_hours))
    best = max(sorted(overlaps), key=lambda c: overlaps[c])
    return f"cluster_{best}"


def test_criterion_7_end_to_end_planted_pattern(demo_run):
    root, elapsed = demo_run
    manifest = json.loads((root / "demo_manifest.json").read_text())
    out = root / "out_a"
    label = _planted_cluster_label(out, manifest["planted_hours"])

    ranks_at_10 = {}
    uniform_ranks = []
    with open(out / "rankings.csv") as fh:
        for row in csv.DictReader(fh):
            if row["cluster"] != label:
                continue
            if row["hypothesis"] == "uniform":
                uniform_ranks.append(int(row["rank"]))
            if float(row["k"]) == 10.0:
                ranks_at_10[row["hypothesis"]] = int(row["rank"])

    planted_rank = ranks_at_10[manifest["planted_hypothesis"]]
    uniform_rank_at_10 = ranks_at_10["uniform"]
    ok = (planted_rank == 1 and uniform_rank_at_10 > planted_rank
          and all(r > 1 for r in uniform_ranks) and elapsed["out_a"] < 60.0)
    _report(7, "end-to-end-planted-pattern-recovery", ok)
    assert planted_rank == 1
    assert uniform_rank_at_10 > planted_rank
    assert all(r > 1 for r in uniform_ranks), "uniform must never rank 1 in the planted cluster"
    assert elapsed["out_a"] < 60.0


def test_criterion_8_catalog_cardinality(city_space):
    catalog = build_catalog(city_space, CatalogConfig())
    diagonals_zero = all(not np.diagonal(h.q).any() for h in catalog)
    ok = len(catalog) == 70 and diagonals_zero
    _report(8, "default-catalog-has-70-hypotheses", ok)
    assert len(catalog) == 70
    assert diagonals_zero


def test_criterion_9_cleaning_conservation(grid_space):
    centroids = [t.centroid for t in grid_space.tracts]
    when = datetime(2013, 1, 7, 9, 0)

    def record(pickup, dropoff, distance=1.0, secs=600.0, passengers=1):
        """One ``RAW_TRIP`` row."""
        return (hour_of_week(when), pickup.lat, pickup.lon, dropoff.lat, dropoff.lon,
                distance, secs, passengers)

    fixture = [record(centroids[0], centroids[1]) for _ in range(6)]
    fixture.insert(1, record(centroids[0], centroids[1], distance=0.0))
    fixture.insert(3, record(centroids[2], centroids[3], distance=-1.0))
    fixture.insert(5, record(centroids[0], centroids[1], passengers=0))
    fixture.insert(7, record(GeoPoint(10.0, 10.0), centroids[1]))
    trips, tally = clean_trips(fixture, grid_space)
    fixture_ok = (len(trips) == 6
                  and tally == {"distance": 2, "passengers": 1, "out_of_area": 1})

    rng = np.random.default_rng(99)
    fuzzed = []
    for _ in range(1000):
        kind = rng.integers(0, 7)
        fuzzed.append(record(
            GeoPoint(60.0, 60.0) if kind == 4 else centroids[rng.integers(0, 20)],
            centroids[rng.integers(0, 20)],
            distance=-1.0 if kind == 1 else float(rng.uniform(0.1, 5.0)),
            secs=0.0 if kind == 2 else 600.0,
            passengers=0 if kind == 3 else 1))
    accepted, fuzz_tally = clean_trips(fuzzed, grid_space)
    conserved = len(accepted) + sum(fuzz_tally.values()) == 1000

    ok = fixture_ok and conserved
    _report(9, "cleaning-conservation", ok)
    assert fixture_ok
    assert conserved


def test_criterion_10_pipeline_determinism(demo_run):
    root, _ = demo_run
    out_a, out_b = root / "out_a", root / "out_b"
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names_a)
    _report(10, "pipeline-byte-determinism", identical)
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
