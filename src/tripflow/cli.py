"""Command-line pipeline: ingest, factorize, extract-clusters, build-hypotheses, rank.

Each stage reads and writes plain text files in the configured output
directory, so every intermediate artifact is independently inspectable and
re-running any stage with identical inputs and seed reproduces its outputs
byte for byte. ``pipeline`` chains all stages; ``synth`` writes the shipped
synthetic fixture for end-to-end runs without real data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .clusters import cluster_counts, cluster_selection, write_membership
from .config import ConfigError, PipelineConfig, load_config
from .evidence import k_sweep, write_rankings
from .files import write_csv, write_int_rows, write_json
from .geo import HOURS_PER_WEEK, StateSpace, load_tracts
from .hypotheses import build_catalog, iter_catalog
from .ingest import REJECT_MALFORMED, TransitionCounts, clean_trips, load_clean_trips, \
    load_raw_trips, transition_counts, write_clean_trips
from .tensor import build_tensor, load_factors, ntf_decompose, save_factors


class StageError(RuntimeError):
    """A stage failed; its ``__cause__`` is why."""


def _require(cfg: PipelineConfig, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"missing required path(s): {', '.join(missing)} "
                          f"(set via config [paths], environment, or flags)")


def _open_stage(cfg: PipelineConfig, name: str, *paths: str) -> tuple[StateSpace, Path]:
    """Check every input of stage ``name``, then delete its mark and its readers', direct or not."""
    _require(cfg, "tracts", *paths, "output_dir")
    for path in ("tracts", *paths):
        if not Path(getattr(cfg, path)).is_file():
            raise FileNotFoundError(f"{path} file not found: {getattr(cfg, path)}")
    space, out = load_tracts(cfg.tracts), Path(cfg.output_dir)
    for producer in _STAGES[name].reads:
        if not (mark := out / _STAGES[producer].mark).is_file():
            raise FileNotFoundError(f"{mark} not found; run {producer} first")
    out.mkdir(parents=True, exist_ok=True)
    voided = {name}
    for later, stage in _STAGES.items():  # in pipeline order: a reader follows what it reads
        if later == name or voided.intersection(stage.reads):
            voided.add(later)
            (out / stage.mark).unlink(missing_ok=True)
    return space, out


def run_ingest(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "ingest", "trips")
    raw, malformed = load_raw_trips(cfg.trips)
    trips, tally = clean_trips(raw, space, exclude_self_loops=cfg.exclude_self_loops)
    if malformed:
        tally[REJECT_MALFORMED] = malformed
    summary = {"accepted": len(trips), "rejected": tally,
               "input_records": len(raw) + malformed}
    write_json(out / "ingest_summary.json", summary)
    write_clean_trips(out / "trips_clean.csv", trips)  # last: the stage's mark
    return summary


def run_factorize(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "factorize")
    tensor = build_tensor(load_clean_trips(out / "trips_clean.csv"), len(space))
    factors, trace = ntf_decompose(tensor, cfg.r, cfg.ntf_options())
    save_factors(out, factors, seed=cfg.seed, trace=trace)
    return {"r": cfg.r, "iterations": trace.iterations,
            "final_error": trace.errors[-1], "converged": trace.converged}


def run_extract_clusters(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "extract-clusters")
    trips = load_clean_trips(out / "trips_clean.csv")
    factors = load_factors(out)
    for stale in out.glob("cluster_*"):  # earlier runs', any r
        stale.unlink(missing_ok=True)
    rows = (len(factors.time), len(factors.pickup), len(factors.dropoff))
    if rows != (HOURS_PER_WEEK, len(space), len(space)):
        raise ValueError(f"factor rows (time, pickup, dropoff) {rows} do not fit the state "
                         f"space {(HOURS_PER_WEEK, len(space), len(space))}; re-run factorize")
    sizes = {}
    for c in range(factors.r):
        hours, dropoffs = cluster_selection(factors, c, cfg.n)
        write_membership(out / f"cluster_{c}_membership.csv", factors, c, hours, dropoffs)
        counts = cluster_counts(trips, hours, dropoffs, len(space))
        write_int_rows(out / f"cluster_{c}_counts.csv", counts.counts, lineterminator="\n")
        sizes[f"cluster_{c}"] = counts.total
    overall = transition_counts(trips, len(space))  # written last: the stage's mark
    write_int_rows(out / "overall_counts.csv", overall.counts, lineterminator="\n")
    return {"clusters": sizes, "n": cfg.n}


def run_build_hypotheses(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "build-hypotheses")
    catalog = build_catalog(space, cfg.catalog)
    write_csv(out / "catalog_manifest.csv", ["hypothesis", "states", "nonzeros"],
              ([h.name, h.q.shape[0], np.count_nonzero(h.q)] for h in catalog),
              lineterminator="\n")
    return {"hypotheses": len(catalog)}


def run_rank(cfg: PipelineConfig) -> dict:
    space, out = _open_stage(cfg, "rank")
    count_files = [out / "overall_counts.csv", *sorted(out.glob("cluster_*_counts.csv"))]
    stack = np.empty((len(count_files), len(space), len(space)), dtype=np.int64)
    for path, counts in zip(count_files, stack):  # one count set per slice, loaded in place
        try:
            loaded = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
            if loaded.shape != counts.shape:
                raise ValueError(f"expected a {len(space)}x{len(space)} matrix, got {loaded.shape}")
            TransitionCounts(counts=loaded)  # negative counts fail here
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        counts[...] = loaded
    results = k_sweep(TransitionCounts(counts=stack), iter_catalog(space, cfg.catalog), cfg.k_grid)
    labels = [path.name.removesuffix("_counts.csv") for path in count_files]
    block = len(results) // len(labels)  # one block of len(k_grid) rankings per count set
    write_rankings(out / "rankings.csv", [(label, result) for i, label in enumerate(labels)
                                          for result in results[i * block:(i + 1) * block]])
    return {"count_sets": labels, "k_grid": list(cfg.k_grid),
            "hypotheses": block // len(cfg.k_grid)}


class Stage(NamedTuple):
    """A stage runs once the marks it reads exist; it first deletes its mark and its readers'."""

    run: Callable[[PipelineConfig], dict]
    help: str
    reads: tuple[str, ...]  # the stages whose outputs it reads
    mark: str  # the file it writes last: its outputs are whole once the mark exists


_STAGES = {  # in pipeline order
    "ingest": Stage(run_ingest, "clean raw trips and map endpoints to tracts", (),
                    "trips_clean.csv"),
    "factorize": Stage(run_factorize, "decompose the trip tensor into components",
                       ("ingest",), "factors_meta.json"),
    "extract-clusters": Stage(
        run_extract_clusters, "count transitions overall and per component's top-N hours/dropoffs",
        ("ingest", "factorize"), "overall_counts.csv"),
    "build-hypotheses": Stage(run_build_hypotheses, "materialize the hypothesis catalog manifest",
                              (), "catalog_manifest.csv"),
    "rank": Stage(run_rank, "rank hypotheses by log evidence per cluster and overall",
                  ("extract-clusters",), "rankings.csv"),
}


def _synth(cfg: PipelineConfig) -> dict:
    from .synth import write_demo_fixture  # here, so that no stage process loads fixture code

    _require(cfg, "output_dir")
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    return write_demo_fixture(Path(cfg.output_dir), seed=cfg.seed)


def _run(name: str, stage, cfg: PipelineConfig):
    """Run one stage; any failure other than a configuration error becomes a StageError."""
    try:
        return stage(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(f"stage {name!r} failed: {exc}") from exc


def run_pipeline(cfg: PipelineConfig) -> dict:
    return {name: _run(name, stage.run, cfg) for name, stage in _STAGES.items()}


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
    for name, text in [*((name, stage.help) for name, stage in _STAGES.items()),
                       ("synth", "write the deterministic synthetic demo fixture"),
                       ("pipeline", "run all stages in order")]:
        _add_common(sub.add_parser(name, help=text, description=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, tracts=args.tracts, trips=args.trips,
                          output_dir=args.output_dir, seed=args.seed, r=args.r, n=args.n,
                          k_grid=tuple(args.k) if args.k else None,
                          exclude_self_loops=False if args.include_self_loops else None)
        if args.command == "synth":
            manifest = _run("synth", _synth, cfg)
            print(f"synth: wrote fixture to {Path(cfg.output_dir)} "
                  f"({manifest['planted_trips'] + manifest['background_trips']} trips)")
        else:
            results = run_pipeline(cfg) if args.command == "pipeline" else \
                {args.command: _run(args.command, _STAGES[args.command].run, cfg)}
            for name, result in results.items():
                print(f"{name}: {json.dumps(result, sort_keys=True)}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
