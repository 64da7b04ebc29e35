#!/usr/bin/env python3
"""tripflow pipeline benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload demo|city|metro|all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout's root; the program is imported from ``src/``. A run
repeats the workload's timed commands, one process after the other,
checking their outputs, at least twice and then while another repetition is
expected to end within ``--seconds``; the first three repetitions are each
preceded by generating the workload's fixture from ``--seed`` (timed as
``setup_s``). ``--trace 1`` sets up once and alternates untraced repetitions
with traced ones (``tracer.py``), reporting per-layer metrics. The last line
of standard output is the JSON result; the lines before it print each metric
by name with its unit, the sample counts and quartiles, and the run's
environment and output digests. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 150.0  # a run stops starting repetitions, and kills a stuck child, past this
SETUPS = 3  # timed set-ups per untraced run, one before each of the first repetitions
MIN_REPS = 2  # untraced repetitions per run, even past --seconds

# The bounded end-to-end metrics of BENCHMARK.json. wall_s and trips_per_s
# are printed too, but host steal moves them by more than any bound (README.md).
END_TO_END = (("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PRINTED = (("wall_s", "s"), ("trips_per_s", "1/s"), *END_TO_END)

STAGE_KEYS = ("ingest", "factorize", "extract_clusters", "build_hypotheses", "rank")
FAMILIES = ("uniform", "inverse_distance", "gaussian", "mass", "rank_distance",
            "intervening_opportunities", "cosine")
PER_LAYER = (
    *((f"cli.{s}_s", "s") for s in STAGE_KEYS),
    *((f"cli.{s}_peak_rss_mb", "MB") for s in STAGE_KEYS),
    ("cli.startup_s", "s"), ("cli.self_s", "s"), ("cli.cpu_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("geo.load_tracts_s", "s"), ("geo.load_tracts_calls", "count"), ("geo.locate_s", "s"),
    ("geo.locate_calls", "count"), ("geo.locate_hit_ratio", "ratio"),
    ("ingest.load_raw_trips_s", "s"), ("ingest.records", "count"),
    ("ingest.malformed", "count"), ("ingest.clean_trips_s", "s"),
    ("ingest.accepted", "count"), ("ingest.accept_ratio", "ratio"),
    ("ingest.write_clean_trips_s", "s"), ("ingest.load_clean_trips_s", "s"),
    ("ingest.load_clean_trips_calls", "count"), ("ingest.transition_counts_s", "s"),
    ("tensor.build_tensor_s", "s"), ("tensor.nnz", "count"), ("tensor.ntf_decompose_s", "s"),
    ("tensor.sweeps", "count"), ("tensor.sweep_s", "s"), ("tensor.converged", "count"),
    ("tensor.reconstruction_error_s", "s"), ("tensor.save_factors_s", "s"),
    ("tensor.load_factors_s", "s"),
    ("clusters.cluster_counts_s", "s"), ("clusters.cluster_trips", "count"),
    ("clusters.write_membership_s", "s"),
    ("hypotheses.build_catalog_s", "s"), ("hypotheses.build_catalog_calls", "count"),
    ("hypotheses.catalog_bytes", "bytes"),
    *((f"hypotheses.family_s.{f}", "s") for f in FAMILIES),
    ("evidence.k_sweep_s", "s"), ("evidence.count_sets", "count"),
    ("evidence.scores", "count"), ("evidence.count_nnz", "count"),
    ("evidence.write_rankings_s", "s"),
    ("trace.overhead_s", "s"),
)
# Spans whose self time is reported as "<name>_s", and whose call count as "<name>_calls".
SELF_TIMED = ("geo.load_tracts", "geo.locate", "ingest.load_raw_trips", "ingest.clean_trips",
              "ingest.write_clean_trips", "ingest.load_clean_trips", "ingest.transition_counts",
              "tensor.build_tensor", "tensor.ntf_decompose", "tensor.save_factors",
              "tensor.load_factors", "tensor.reconstruction_error", "clusters.cluster_counts",
              "clusters.write_membership", "hypotheses.build_catalog", "evidence.k_sweep",
              "evidence.write_rankings")
# Counters and ratios, each with the span whose wrapper produces it.
COUNTERS = {"ingest.records": "ingest.load_raw_trips", "ingest.malformed": "ingest.load_raw_trips",
            "ingest.accepted": "ingest.clean_trips", "tensor.nnz": "tensor.build_tensor",
            "tensor.sweeps": "tensor.ntf_decompose", "tensor.converged": "tensor.ntf_decompose",
            "clusters.cluster_trips": "clusters.cluster_counts",
            "hypotheses.catalog_bytes": "hypotheses.build_catalog",
            "evidence.scores": "evidence.k_sweep", "evidence.count_nnz": "evidence.k_sweep"}
SOURCES = {**COUNTERS, "geo.locate_hit_ratio": "geo.locate",
           "ingest.accept_ratio": "ingest.clean_trips", "tensor.sweep_s": "tensor.ntf_decompose",
           "evidence.count_sets": "evidence.k_sweep",
           **{f"hypotheses.family_s.{f}": f"hypotheses.family.{f}" for f in FAMILIES}}


@dataclass
class Child:
    returncode: int
    began: float
    ended: float
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Rep:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    problems: list[str]
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)


class Runner:
    """Runs one workload's commands as child processes in a private work directory."""

    def __init__(self, workload, work: Path, deadline: float):
        self.w = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.fixture = None
        self.reference = None  # digest of the first repetition's outputs

    def child(self, cmd: list[str]) -> Child:
        with open(self.work / "child.log", "ab") as log:
            began = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - began, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, began, ended, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime)

    def clear_outputs(self) -> None:
        out = self.fixture.output_dir
        if not out.exists():
            return
        for path in out.iterdir():
            if path.name == "trips_clean.csv" and self.w.grid is not None:
                continue  # the fixture's input, written by set-up
            shutil.rmtree(path) if path.is_dir() else path.unlink()

    def finish(self, rep: Rep) -> Rep:
        """Check the outputs and compare their digest with the first repetition's."""
        if rep.problems:
            return rep
        out = self.fixture.output_dir
        rep.problems = check.check_outputs(
            out, self.w.r, len(self.w.k_values), self.w.planted_laws, ingest=self.w.grid is None,
            planted_hours=self.w.planted_hours)
        rep.digest = check.digest(out)
        if self.reference is None:
            self.reference = rep.digest
        elif rep.digest != self.reference:
            rep.problems.append(f"outputs differ from the first repetition's ({rep.digest[:12]})")
        return rep

    def _failed(self, cmd: list[str], c: Child) -> str:
        log = (self.work / "child.log").read_text(errors="replace").strip().splitlines()
        return f"{' '.join(cmd[1:4])} exited {c.returncode}: {' | '.join(log[-3:])}"

    def untraced(self) -> Rep:
        self.clear_outputs()
        (self.work / "child.log").unlink(missing_ok=True)
        children, problems = [], []
        for stage in self.w.stages:
            cmd = [sys.executable, "-m", "tripflow.cli", stage, "--config", str(self.fixture.config)]
            c = self.child(cmd)
            children.append(c)
            if c.returncode != 0:
                problems.append(self._failed(cmd, c))
                break
        rep = Rep(children[-1].ended - children[0].began, max(c.peak_rss_mb for c in children),
                  sum(c.cpu_s for c in children), problems)
        return self.finish(rep)

    def traced(self) -> Rep:
        self.clear_outputs()
        (self.work / "child.log").unlink(missing_ok=True)
        layers = {f"cli.{s}{suffix}": 0.0 for s in STAGE_KEYS for suffix in ("_s", "_peak_rss_mb")}
        spans, counters, absent, problems, children = [], {}, set(), [], []
        startup = 0.0
        for group in self.w.process_stages:
            dump = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), "stages",
                   str(self.fixture.config), str(dump), *group]
            c = self.child(cmd)
            children.append(c)
            if c.returncode != 0:
                problems.append(self._failed(cmd, c))
                break
            data = json.loads(dump.read_text())
            staged = 0.0
            for name, start, end, parent in data["spans"]:
                if parent == -1 and name.startswith("cli."):
                    layers[f"{name}_s"] = end - start
                    staged += end - start
            startup += c.ended - c.began - staged
            spans.append(data["spans"])
            absent.update(data["absent"])
            for name, value in data["counters"].items():
                if name.startswith("cli."):
                    layers[name] = value
                elif name == "hypotheses.catalog_bytes":
                    counters[name] = max(counters.get(name, 0.0), value)
                else:
                    counters[name] = counters.get(name, 0.0) + value
        rep = Rep(children[-1].ended - children[0].began, max(c.peak_rss_mb for c in children),
                  sum(c.cpu_s for c in children), problems)
        self.finish(rep)
        if rep.problems:
            return rep
        probe = self.work / "probe.json"
        c = self.child([sys.executable, str(BENCH / "tracer.py"), "probe",
                        str(self.fixture.config), str(probe)])
        if c.returncode == 0:
            data = json.loads(probe.read_text())
            spans.append(data["spans"])
            absent.update(data["absent"])
        else:  # a refactor broke the probe's own set-up: its metrics are absent
            absent.update(["tensor.reconstruction_error"]
                          + [f"hypotheses.family.{f}" for f in FAMILIES])
        layers.update(derive_layers(spans, counters))
        layers["cli.startup_s"] = startup
        for key in list(layers):  # a target that no longer exists is absent, not zero
            source = SOURCES.get(key, key.removesuffix("_s").removesuffix("_calls"))
            if source in absent or (key in SOURCES and f"{source}:counters" in absent):
                del layers[key]
        rep.layers, rep.absent = layers, absent
        return rep


def derive_layers(span_sets: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Self times, call counts and ratios from the spans of every traced process."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for spans in span_sets:
        own = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), value in zip(spans, own):
            self_s[name] = self_s.get(name, 0.0) + value
            calls[name] = calls.get(name, 0) + 1
    layers = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    layers.update({f"hypotheses.family_s.{f}": self_s.get(f"hypotheses.family.{f}", 0.0)
                   for f in FAMILIES})
    layers["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for name in ("geo.load_tracts", "geo.locate", "ingest.load_clean_trips",
                 "hypotheses.build_catalog"):
        layers[f"{name}_calls"] = calls.get(name, 0)
    layers["evidence.count_sets"] = calls.get("evidence.k_sweep", 0)
    layers.update({name: counters.get(name, 0.0) for name in COUNTERS})
    locates = calls.get("geo.locate", 0)
    layers["geo.locate_hit_ratio"] = counters.get("geo.locate_hits", 0.0) / locates if locates else 0.0
    records = counters.get("ingest.records", 0.0)
    layers["ingest.accept_ratio"] = counters.get("ingest.accepted", 0.0) / records if records else 0.0
    sweeps = counters.get("tensor.sweeps", 0.0)
    layers["tensor.sweep_s"] = layers["tensor.ntf_decompose_s"] / sweeps if sweeps else 0.0
    return layers


def steal_ticks() -> int | None:
    """Host steal time (USER_HZ ticks) from /proc/stat; read-only."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def steal_s(before: int | None, after: int | None) -> float | None:
    """Host steal between two readings, in seconds summed over the CPUs."""
    if before is None or after is None:
        return None
    return (after - before) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """OpenBLAS thread count as numpy's bundled library reports it, if it is found."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def count_nnz(trips_clean: Path) -> int:
    import numpy as np
    rows = np.loadtxt(trips_clean, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    return int(np.unique(rows[:, 0] * 10**12 + rows[:, 1] * 10**6 + rows[:, 2]).size)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    w = workloads.WORKLOADS[name]
    started = time.perf_counter()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(w, work, started + RUN_LIMIT_S)
    try:
        setup_cpu, setup_wall, setup_digests = [], [], set()
        setups = 1 if smoke or trace else SETUPS
        plain: list[Rep] = []
        traced: list[Rep] = []
        rounds: list[float] = []  # each round: a set-up, if any, and a repetition or traced pair
        rep_steal: list[float | None] = []
        min_rounds = 1 if smoke or trace else MIN_REPS
        steal0 = steal_ticks()
        # Start another round only while it is expected to end within --seconds.
        while len(rounds) < min_rounds or (
                time.perf_counter() - started + statistics.median(rounds) <= seconds
                and time.perf_counter() < started + RUN_LIMIT_S):
            t0 = time.perf_counter()
            if len(setup_cpu) < setups:
                # The first rounds each set up afresh, so that the set-ups
                # sample the host's speed across the run rather than in one
                # burst; every set-up of a run must write the same bytes.
                shutil.rmtree(work / "fixture", ignore_errors=True)
                c0 = time.process_time()
                runner.fixture = workloads.setup(w, work / "fixture", seed)
                setup_cpu.append(time.process_time() - c0)
                setup_wall.append(time.perf_counter() - t0)
                setup_digests.add(check.digest(work / "fixture"))
            ticks = steal_ticks()
            plain.append(runner.untraced())
            rep_steal.append(steal_s(ticks, steal_ticks()))
            if trace:
                traced.append(runner.traced())
            rounds.append(time.perf_counter() - t0)
        steal1 = steal_ticks()

        reps = plain + traced
        good = [r for r in plain if not r.problems]
        trips_file = runner.fixture.output_dir / "trips_clean.csv"
        trips = sum(1 for _ in open(trips_file, encoding="utf-8")) - 1 if trips_file.is_file() else 0
        failed = sum(1 for r in reps if r.problems) + (len(setup_digests) > 1)
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": len(reps), "failed": failed,
            "correct": failed == 0 and bool(good),
            "problems": sorted({p for r in reps for p in r.problems})
            + (["set-up is not deterministic"] if len(setup_digests) > 1 else []),
            "sizes": {"tracts": runner.fixture.tracts, "trips": trips,
                      "nnz": count_nnz(trips_file) if trips_file.is_file() else 0},
            "setup_digest": sorted(setup_digests)[0],
            "output_digests": sorted({r.digest for r in reps if r.digest}),
            "steal_s": steal_s(steal0, steal1),
            "rep_steal_s": rep_steal,
            "env": environment(),
        }
        samples = {
            "wall_s": [r.wall_s for r in plain],
            "trips_per_s": [trips / r.wall_s for r in plain],
            "cpu_s": [r.cpu_s for r in plain],
            "peak_rss_mb": [r.peak_rss_mb for r in plain],
            "setup_s": setup_cpu,
        }
        values = {key: statistics.median(v) for key, v in samples.items()}
        values["trips_per_s"] = trips / values["wall_s"]
        if trace:
            samples = {key: [r.layers[key] for r in traced if key in r.layers]
                       for key, _ in PER_LAYER}
            samples["cli.cpu_s"] = [r.cpu_s for r in plain]
            samples["cli.artifact_bytes"] = [float(check.tree_bytes(runner.fixture.output_dir))]
            walls = [r.wall_s for r in traced]
            untraced_wall = statistics.median([r.wall_s for r in plain])
            samples["trace.overhead_s"] = [statistics.median(walls) - untraced_wall] if walls else []
            result["absent"] = sorted({a for r in traced for a in r.absent})
            if samples["cli.startup_s"]:  # stage spans plus start-up vs the untraced wall
                spans = sum(statistics.median(samples[f"cli.{s}_s"]) for s in STAGE_KEYS)
                result["accounting"] = {
                    "stage_spans_plus_startup_s": spans + statistics.median(samples["cli.startup_s"]),
                    "untraced_wall_s": untraced_wall,
                    "overhead_s": samples["trace.overhead_s"][0]}
            values = {key: statistics.median(v) for key, v in samples.items() if v}
        result["values"], result["samples"] = values, samples
        result["wall_samples"] = [round(r.wall_s, 4) for r in reps]
        result["cpu_samples"] = [round(r.cpu_s, 4) for r in plain]
        result["setup_samples"] = [round(t, 4) for t in setup_cpu]
        result["setup_wall_samples"] = [round(t, 4) for t in setup_wall]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict, spec, kept) -> dict:
    """Print each metric of ``spec`` by name and unit; return those of ``kept``."""
    name = result["workload"]
    metrics = {}
    for metric, unit in spec:
        if metric not in result["values"]:
            print(f"{name} {metric:34s} absent")
            continue
        value = result["values"][metric]
        samples = result["samples"][metric]
        q1, median, q3 = quartiles(samples)
        if (metric, unit) in kept:
            metrics[metric] = {"value": value, "unit": unit}
        print(f"{name} {metric:34s} {value:14.6g} {unit:6s} (samples n={len(samples)}; "
              f"q1={q1:.6g} median={median:.6g} q3={q3:.6g})")
    attempted = result["attempted"]
    print(f"{name} {'failed_frac':34s} {result['failed'] / attempted:14.6g} {'ratio':6s} "
          f"n={attempted}")
    for problem in result["problems"]:
        print(f"{name} problem: {problem}")
    detail = {k: v for k, v in result.items() if k != "samples"}
    print(f"{name} detail {json.dumps(detail, sort_keys=True)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="demo, city, metro or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one repetition, for a quick check")
    args = parser.parse_args(argv)
    if not (SRC / "tripflow" / "cli.py").is_file():
        print(f"run.py: the tripflow sources are missing: {SRC / 'tripflow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    spec, kept = (PER_LAYER, PER_LAYER) if args.trace else (PRINTED, END_TO_END)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        result = run_workload(name, args.seed, 0.0 if args.smoke else args.seconds,
                              bool(args.trace), args.smoke)
        got = report(result, spec, kept)
        metrics.update(got if len(names) == 1 else {f"{name}.{k}": v for k, v in got.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
