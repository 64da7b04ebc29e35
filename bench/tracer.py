"""In-process stage runner that records spans around tripflow's public functions.

Run as a child of ``run.py``; it is never imported by the untraced runs.

    python3 bench/tracer.py stages <config> <spans.json> <stage> [<stage> ...]
    python3 bench/tracer.py probe  <config> <probe.json>

``stages`` wraps the functions as bound in ``tripflow.cli`` (plus
``tripflow.ingest.locate``, which ``clean_trips`` calls per endpoint), runs
the named CLI stage functions in order in this process, as ``pipeline``
does, and writes the spans and counters when it ends. After each stage it
records the process's peak RSS so far as ``cli.<stage>_peak_rss_mb``.
``probe`` times single calls that the pipeline itself does not make in
isolation: ``reconstruction_error`` on the stored factors, and one
builder per hypothesis family. A wrap or probe target that no longer exists
is listed under ``absent`` instead of failing the run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tripflow.cli as cli  # noqa: E402
import tripflow.ingest as ingest  # noqa: E402
from tripflow.config import load_config  # noqa: E402


class Tracer:
    """Spans kept in flat arrays (name id, start, end, parent) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper; ``counter`` sees the result."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                try:
                    counter(args, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.absent.append(f"{name}:counters")  # the result changed shape
            return result

        setattr(module, attr, wrapper)

    def dump(self, path: Path) -> None:
        spans = [[self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                 for i in range(len(self.start))]
        data = {"spans": spans, "counters": self.counters,
                "absent": sorted(set(self.absent))}
        path.write_text(json.dumps(data), encoding="utf-8")


def install(t: Tracer) -> None:
    """Wrap every public function the CLI stages call, with its counters."""

    def located(args, result):
        t.count("geo.locate_hits", result is not None)

    def raw(args, result):
        records, malformed = result
        t.count("ingest.records", len(records) + malformed)
        t.count("ingest.malformed", malformed)

    def cleaned(args, result):
        t.count("ingest.accepted", len(result[0]))

    def tensor(args, result):
        t.count("tensor.nnz", len(result.entries))

    def decomposed(args, result):
        t.count("tensor.sweeps", result[1].iterations)
        t.count("tensor.converged", bool(result[1].converged))

    def clustered(args, result):
        t.count("clusters.cluster_trips", result.total)

    def catalog(args, result):
        t.counters["hypotheses.catalog_bytes"] = float(sum(h.q.nbytes for h in result))

    def swept(args, result):
        t.count("evidence.scores", len(result))
        t.count("evidence.count_nnz", int(np.count_nonzero(args[0].counts)))

    t.wrap(ingest, "locate", "geo.locate", located)
    t.wrap(cli, "load_tracts", "geo.load_tracts")
    t.wrap(cli, "load_raw_trips", "ingest.load_raw_trips", raw)
    t.wrap(cli, "clean_trips", "ingest.clean_trips", cleaned)
    t.wrap(cli, "write_clean_trips", "ingest.write_clean_trips")
    t.wrap(cli, "load_clean_trips", "ingest.load_clean_trips")
    t.wrap(cli, "transition_counts", "ingest.transition_counts")
    t.wrap(cli, "build_tensor", "tensor.build_tensor", tensor)
    t.wrap(cli, "ntf_decompose", "tensor.ntf_decompose", decomposed)
    t.wrap(cli, "save_factors", "tensor.save_factors")
    t.wrap(cli, "load_factors", "tensor.load_factors")
    t.wrap(cli, "cluster_counts", "clusters.cluster_counts", clustered)
    t.wrap(cli, "write_membership", "clusters.write_membership")
    t.wrap(cli, "build_catalog", "hypotheses.build_catalog", catalog)
    t.wrap(cli, "k_sweep", "evidence.k_sweep", swept)
    t.wrap(cli, "write_rankings", "evidence.write_rankings")


def run_stages(config: Path, out: Path, stages: list[str]) -> int:
    t = Tracer()
    install(t)
    cfg = load_config(config)
    for stage in stages:
        key = stage.replace("-", "_")
        entry = getattr(cli, "run_" + key, None)
        if entry is None:
            print(f"tracer: tripflow.cli has no stage {stage!r}", file=sys.stderr)
            return 1
        t.span("cli." + key, entry, cfg)
        t.counters[f"cli.{key}_peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t.dump(out)
    return 0


def _probe(t: Tracer, name: str, module, attr: str, *args) -> None:
    """Time one call of ``module.attr(*args)``; a missing target is listed as absent."""
    fn = getattr(module, attr, None)
    if fn is None:
        t.absent.append(name)
    else:
        t.span(name, fn, *args)


def run_probe(config: Path, out: Path) -> int:
    import tripflow.hypotheses as hyp
    import tripflow.tensor as tensor

    t = Tracer()
    cfg = load_config(config)
    space = cli.load_tracts(cfg.tracts)
    out_dir = Path(cfg.output_dir)
    trips = cli.load_clean_trips(out_dir / "trips_clean.csv")
    x = cli.build_tensor(trips, len(space))
    factors = cli.load_factors(out_dir)
    catalog = cfg.catalog_config()
    venues = hyp.WeightVector(catalog.all_venues_key,
                              space.property_vector(catalog.all_venues_key))
    categories = hyp.FeatureVectors("venue_categories", np.column_stack(
        [space.property_vector(k) for k in catalog.venue_category_keys]))
    _probe(t, "tensor.reconstruction_error", tensor, "reconstruction_error", x, factors)
    families = {
        "uniform": ("build_uniform", len(space)),
        "inverse_distance": ("build_inverse_distance", space),
        "gaussian": ("build_gaussian", space, 1.0),
        "mass": ("build_mass", space, venues, "gravitational_target"),
        "rank_distance": ("build_rank_distance", space, venues),
        "intervening_opportunities": ("build_intervening_opportunities", space, venues,
                                      catalog.io_eps),
        "cosine": ("build_cosine_similarity", categories),
    }
    for family, (attr, *args) in families.items():
        _probe(t, f"hypotheses.family.{family}", hyp, attr, *args)
    t.dump(out)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["stages"] and len(argv) >= 4:
        return run_stages(Path(argv[1]), Path(argv[2]), argv[3:])
    if argv[:1] == ["probe"] and len(argv) == 3:
        return run_probe(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
