"""Output checks for one repetition of a workload, and the output digest."""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

HYPOTHESES = 70
HEADLINE_K = 10.0


def expected_artifacts(r: int, ingest: bool) -> list[str]:
    names = ["trips_clean.csv", "factors_time.csv", "factors_pickup.csv",
             "factors_dropoff.csv", "factors_scale.csv", "factors_meta.json",
             "catalog_manifest.csv", "rankings.csv"]
    names += [f"cluster_{c}_{kind}.csv" for c in range(r) for kind in ("membership", "counts")]
    if ingest:
        names.append("ingest_summary.json")
    return names


def check_outputs(out: Path, r: int, k_count: int, planted_laws, ingest: bool,
                  planted_hours=None) -> list[str]:
    """Problems found in one output directory; an empty list means it passed.

    Checks the artifact set, the size and shape of ``rankings.csv`` (every
    (cluster, k) holds ranks 1..70 once, every log evidence is finite), and
    that each planted law ranks first at k = 10 in some cluster. With
    ``planted_hours`` that cluster's top hours must also be the planted hours.
    """
    missing = [n for n in expected_artifacts(r, ingest) if not (out / n).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    with open(out / "rankings.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected_rows = (r + 1) * k_count * HYPOTHESES
    if len(rows) != expected_rows:
        problems.append(f"rankings.csv has {len(rows)} rows, expected {expected_rows}")
    ranks = defaultdict(list)
    winners = defaultdict(set)
    for row in rows:
        k = float(row["k"])
        ranks[(row["cluster"], k)].append(int(row["rank"]))
        if not math.isfinite(float(row["log_evidence"])):
            problems.append(f"non-finite log evidence: {row}")
            break
        if row["rank"] == "1" and k == HEADLINE_K and row["cluster"] != "overall":
            winners[row["hypothesis"]].add(row["cluster"])
    bad = [key for key, got in ranks.items() if sorted(got) != list(range(1, HYPOTHESES + 1))]
    if bad:
        problems.append(f"(cluster, k) groups without ranks 1..{HYPOTHESES}: {bad[:3]}")
    for law in planted_laws:
        clusters = winners.get(law, set())
        if planted_hours is not None:
            clusters = {c for c in clusters
                        if _top_hours(out / f"{c}_membership.csv") == set(planted_hours)}
        if not clusters:
            problems.append(f"planted law {law} ranks first at k={HEADLINE_K:g} in no cluster"
                            + (" with the planted hours" if planted_hours else ""))
    return problems


def _top_hours(path: Path) -> set[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(row["index"]) for row in csv.DictReader(fh) if row["kind"] == "hour"}


def digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
