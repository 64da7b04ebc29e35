"""Command-line pipeline: ingest, factorize, extract-clusters, build-hypotheses, rank.

Each stage reads and writes plain text files in the configured output
directory, so every intermediate artifact is independently inspectable and
re-running any stage with identical inputs and seed reproduces its outputs
byte for byte. ``pipeline`` chains all stages; ``synth`` writes the shipped
synthetic fixture for end-to-end runs without real data.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .clusters import cluster_counts, cluster_selection, write_membership
from .config import ConfigError, PipelineConfig, load_config
from .evidence import k_sweep, write_rankings
from .geo import HOURS_PER_WEEK, StateSpace, load_tracts
from .hypotheses import build_catalog
from .ingest import REJECT_MALFORMED, TransitionCounts, clean_trips, load_clean_trips, \
    load_raw_trips, transition_counts, write_clean_trips
from .synth import write_demo_fixture
from .tensor import build_tensor, load_factors, ntf_decompose, save_factors


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _require(cfg: PipelineConfig, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"missing required path(s): {', '.join(missing)} "
                          f"(set via config [paths], environment, or flags)")


def _input_file(path: Path, what: str) -> Path:
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path)


def _ensure_output_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _open_stage(cfg: PipelineConfig, *inputs: str) -> tuple[StateSpace, Path]:
    """Check the paths a stage needs, load the tracts and create the output directory."""
    _require(cfg, "tracts", *inputs, "output_dir")
    return load_tracts(_input_file(cfg.tracts, "tracts file")), _ensure_output_dir(cfg)


def _load_cleaned_trips(out: Path) -> np.ndarray:
    return load_clean_trips(_input_file(out / "trips_clean.csv", "cleaned trips file"))


def run_ingest(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "trips")
    raw, malformed = load_raw_trips(_input_file(cfg.trips, "trips file"))
    trips, tally = clean_trips(raw, space, exclude_self_loops=cfg.exclude_self_loops)
    if malformed:
        tally[REJECT_MALFORMED] = malformed
    write_clean_trips(out / "trips_clean.csv", trips.tolist())
    summary = {"accepted": len(trips), "rejected": tally,
               "input_records": len(raw) + malformed}
    with open(out / "ingest_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run_factorize(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg)
    tensor = build_tensor(_load_cleaned_trips(out), len(space))
    factors, trace = ntf_decompose(tensor, cfg.r, cfg.ntf_options())
    save_factors(out, factors, seed=cfg.seed, trace=trace)
    return {"r": cfg.r, "iterations": trace.iterations,
            "final_error": trace.errors[-1], "converged": trace.converged}


def run_extract_clusters(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg)
    trips = _load_cleaned_trips(out)
    _input_file(out / "factors_meta.json", "factor files")
    factors = load_factors(out)
    for stale in [*out.glob("cluster_*"), out / "overall_counts.csv"]:  # earlier runs', any r
        stale.unlink(missing_ok=True)
    rows = (len(factors.time), len(factors.pickup), len(factors.dropoff))
    if rows != (HOURS_PER_WEEK, len(space), len(space)):
        raise ValueError(f"factor rows (time, pickup, dropoff) {rows} do not fit the state "
                         f"space {(HOURS_PER_WEEK, len(space), len(space))}; re-run factorize")
    overall = transition_counts(trips, len(space))
    np.savetxt(out / "overall_counts.csv", overall.counts, fmt="%d", delimiter=",")
    sizes = {}
    for c in range(factors.r):
        hours, dropoffs = cluster_selection(factors, c, cfg.n)
        write_membership(out / f"cluster_{c}_membership.csv", factors, c, hours, dropoffs)
        counts = cluster_counts(trips, hours, dropoffs, len(space))
        np.savetxt(out / f"cluster_{c}_counts.csv", counts.counts, fmt="%d", delimiter=",")
        sizes[f"cluster_{c}"] = counts.total
    return {"clusters": sizes, "n": cfg.n}


def run_build_hypotheses(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg)
    catalog = build_catalog(space, cfg.catalog)
    with open(out / "catalog_manifest.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hypothesis", "states", "nonzeros"])
        writer.writerows([h.name, h.q.shape[0], np.count_nonzero(h.q)] for h in catalog)
    return {"hypotheses": len(catalog)}


def _load_counts_file(path: Path, size: int) -> TransitionCounts:
    counts = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
    if counts.shape != (size, size):
        raise ValueError(f"{path}: expected a {size}x{size} matrix, got {counts.shape}")
    return TransitionCounts(counts=counts, total=int(counts.sum()))


def run_rank(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg)
    count_files = [out / "overall_counts.csv", *sorted(out.glob("cluster_*_counts.csv"))]
    if not count_files[0].is_file() or len(count_files) < 2:
        raise FileNotFoundError(f"count sets missing in {out}; run extract-clusters first")
    catalog = build_catalog(space, cfg.catalog)
    count_sets = [(path.name.removesuffix("_counts.csv"), _load_counts_file(path, len(space)))
                  for path in count_files]
    write_rankings(out / "rankings.csv", [(label, result) for label, counts in count_sets
                                          for result in k_sweep(counts, catalog, cfg.k_grid)])
    return {"count_sets": [label for label, _ in count_sets],
            "k_grid": list(cfg.k_grid), "hypotheses": len(catalog)}


_STAGES = {"ingest": run_ingest, "factorize": run_factorize,
           "extract-clusters": run_extract_clusters,
           "build-hypotheses": run_build_hypotheses, "rank": run_rank}


def _synth(cfg: PipelineConfig) -> dict:
    _require(cfg, "output_dir")
    return write_demo_fixture(_ensure_output_dir(cfg), seed=cfg.seed)


def _run(name: str, stage, cfg: PipelineConfig):
    """Run one stage; any failure other than a configuration error becomes StageError(name)."""
    try:
        return stage(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(cfg: PipelineConfig) -> dict:
    return {name: _run(name, stage, cfg) for name, stage in _STAGES.items()}


def _add_common(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()
    parser.add_argument("--config", type=Path, help="INI config file")
    parser.add_argument("--tracts", type=Path, help="tracts CSV path")
    parser.add_argument("--trips", type=Path, help="raw trips CSV path")
    parser.add_argument("--output-dir", type=Path, help="stage artifact directory")
    parser.add_argument("--seed", type=int, help=f"random seed (default {defaults.seed})")
    parser.add_argument("--r", type=int, help=f"number of components (default {defaults.r})")
    parser.add_argument("--n", type=int, help=f"top-N selection size (default {defaults.n})")
    parser.add_argument("--k", type=float, action="append",
                        help="concentration value; repeat for a grid (default "
                             + ",".join(f"{k:g}" for k in defaults.k_grid) + ")")
    parser.add_argument("--include-self-loops", action="store_true",
                        help="keep rides that start and end in the same tract")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripflow",
        description="Discover spatio-temporal mobility clusters in trip data and "
                    "characterize them by Bayesian hypothesis ranking.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ingest": "clean raw trips and map endpoints to tracts",
        "factorize": "decompose the trip tensor into components",
        "extract-clusters": "count transitions overall and per component's top-N hours/dropoffs",
        "build-hypotheses": "materialize the hypothesis catalog manifest",
        "rank": "rank hypotheses by log evidence per cluster and overall",
        "synth": "write the deterministic synthetic demo fixture",
        "pipeline": "run all stages in order",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text, description=text)
        _add_common(cmd)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, tracts=args.tracts, trips=args.trips,
                          output_dir=args.output_dir, seed=args.seed, r=args.r, n=args.n,
                          k_grid=tuple(args.k) if args.k else None,
                          exclude_self_loops=False if args.include_self_loops else None)
        if args.command == "pipeline":
            for name in run_pipeline(cfg):
                print(f"{name}: ok")
        elif args.command == "synth":
            manifest = _run("synth", _synth, cfg)
            print(f"synth: wrote fixture to {Path(cfg.output_dir)} "
                  f"({manifest['planted_trips'] + manifest['background_trips']} trips)")
        else:
            result = _run(args.command, _STAGES[args.command], cfg)
            print(f"{args.command}: {json.dumps(result, sort_keys=True)}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
