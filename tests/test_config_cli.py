import csv
import json
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import tripflow.clusters
from tripflow.cli import main, run_build_hypotheses, run_pipeline
from tripflow.config import ConfigError, PipelineConfig, load_config
from tripflow.geo import GeoPoint, load_tracts, write_tracts
from tripflow.hypotheses import (CatalogConfig, WeightVector, build_catalog,
                                 build_intervening_opportunities, build_uniform)
from tripflow.ingest import load_clean_trips, transition_counts
from tripflow.synth import demo_landmarks, generate_from_hypothesis, write_trips_file
from tripflow.tensor import FactorSet, save_factors

from tripflow.geo import HOURS_PER_WEEK


class TestDefaults:
    def test_baked_in_defaults(self):
        cfg = PipelineConfig()
        assert cfg.r == 7
        assert cfg.n == 10
        assert cfg.k_grid == (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)
        assert cfg.sigma_grid == (0.01, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert cfg.seed == 42
        assert cfg.exclude_self_loops is True
        assert cfg.max_iters == 500 and cfg.rel_tol == 1e-6 and cfg.epsilon == 1e-12


class TestConfigFile:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[paths]\ntracts = a.csv\ntrips = b.csv\noutput_dir = out\n"
            "[pipeline]\nr = 3\nn = 4\nk_grid = 0 10\nseed = 7\n"
            "exclude_self_loops = false\n"
            "[catalog]\nio_eps = 0.001\nlandmarks = spot 40.7 -74.0\n",
            encoding="utf-8")
        cfg = load_config(path)
        assert cfg.r == 3 and cfg.n == 4 and cfg.seed == 7
        assert cfg.k_grid == (0.0, 10.0)
        assert cfg.exclude_self_loops is False
        assert cfg.catalog.io_eps == 0.001
        assert cfg.catalog.landmarks[0][0] == "spot"
        assert str(cfg.tracts) == "a.csv"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nr = many\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_landmark_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[catalog]\nlandmarks = lonely 40.7\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="landmark"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_env_overrides_paths(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("[paths]\ntracts = file.csv\n", encoding="utf-8")
        monkeypatch.setenv("TRIPFLOW_TRACTS", "/elsewhere/tracts.csv")
        cfg = load_config(path)
        assert str(cfg.tracts) == "/elsewhere/tracts.csv"

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nseed = 1\n", encoding="utf-8")
        assert load_config(path, seed=2).seed == 2

    def test_validation(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nr = 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="r must"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ("[pipeline]\nk_grid =\n", "k_grid"),
        ("[pipeline]\nk_grid = 0 10 10\n", "k_grid"),
        ("[pipeline]\nsigma_grid = 1 1\n", "sigma_grid"),
        ("[catalog]\nsigma_grid = 2, 0.5, 2\n", "sigma_grid"),
        ("[pipeline]\nk_grid = 1 nan\n", "k values"),
        ("[catalog]\nsigma_grid = nan\n", "sigma values"),
        ("[pipeline]\nk_grid = 1 inf\n", "k values"),
        ("[catalog]\nsigma_grid = inf\n", "sigma values"),
        ("[pipeline]\nsigma_grid = 1 1.0000001\n", "sigma_grid repeats the label"),
    ])
    def test_bad_grid_rejected(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_bad_interpolation_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("[paths]\noutput_dir = out%1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[paths\]"):
            load_config(path)
        assert main(["synth", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_repeated_override_grid_rejected(self):
        with pytest.raises(ConfigError, match="k_grid"):
            load_config(k_grid=(10.0, 10.0))
        with pytest.raises(ConfigError, match="sigma_grid"):
            load_config(sigma_grid=(1.0, 1.0))

    @pytest.mark.parametrize("text, overrides, expected", [
        ("[pipeline]\nsigma_grid = 1 2\n[catalog]\nsigma_grid = 3\n", {}, (1.0, 2.0)),
        ("[pipeline]\nsigma_grid = 1 2\n", {}, (1.0, 2.0)),
        ("[catalog]\nsigma_grid = 3 4\n", {}, (3.0, 4.0)),
        ("[pipeline]\nsigma_grid = 1 2\n[catalog]\nsigma_grid = 3\n",
         {"sigma_grid": (5.0,)}, (5.0,)),
    ])
    def test_sigma_grid_precedence(self, tmp_path, text, overrides, expected):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_config(path, **overrides)
        assert cfg.sigma_grid == cfg.catalog.sigma_grid == cfg.catalog_config().sigma_grid \
            == expected

    def test_every_key_parsed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[paths]\ntracts = t.csv\ntrips = u.csv\noutput_dir = o\n"
            "[pipeline]\nr = 3\nn = 4\nk_grid = 0, 2\nsigma_grid = 1 2\nseed = 9\n"
            "max_iters = 7\nrel_tol = 0.5\nepsilon = 1e-3\nexclude_self_loops = off\n"
            "[catalog]\nlandmarks = a 1 2; b 3 4\nsigma_grid = 5\nall_venues_key = v\n"
            "checkins_key = c\nvenue_category_keys = a, b\ncensus_indicator_keys = c d\n"
            "race_keys = e\npoverty_keys = f\nemployment_keys = g\nio_eps = 0.1\n"
            "unweighted_opportunities = yes\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg == PipelineConfig(
            tracts=Path("t.csv"), trips=Path("u.csv"), output_dir=Path("o"), r=3, n=4,
            k_grid=(0.0, 2.0), seed=9, max_iters=7, rel_tol=0.5, epsilon=1e-3,
            exclude_self_loops=False,
            catalog=CatalogConfig(
                landmarks=(("a", GeoPoint(1.0, 2.0)), ("b", GeoPoint(3.0, 4.0))),
                sigma_grid=(1.0, 2.0), all_venues_key="v", checkins_key="c",
                venue_category_keys=("a", "b"), census_indicator_keys=("c", "d"),
                race_keys=("e",), poverty_keys=("f",), employment_keys=("g",),
                io_eps=0.1, unweighted_opportunities=True))
        for obj, default in ((cfg, PipelineConfig()), (cfg.catalog, CatalogConfig())):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name


@pytest.fixture(scope="module")
def mini_fixture(tmp_path_factory, grid_space):
    """Small end-to-end fixture: 20 tracts, 2000 uniform trips, local landmarks."""
    root = tmp_path_factory.mktemp("mini")
    keys = sorted(grid_space.tracts[0].properties)
    write_tracts(root / "tracts.csv", grid_space, keys)
    trips = generate_from_hypothesis(
        build_uniform(len(grid_space)), np.ones(len(grid_space)), 2000, seed=5,
        hour_weights={h: 1.0 for h in range(HOURS_PER_WEEK)})
    write_trips_file(root / "trips.csv", trips, grid_space)
    landmarks = "; ".join(f"{name} {p.lat!r} {p.lon!r}"
                          for name, p in demo_landmarks(grid_space))
    (root / "mini.cfg").write_text(
        f"[paths]\ntracts = {root / 'tracts.csv'}\ntrips = {root / 'trips.csv'}\n"
        f"output_dir = {root / 'out'}\n"
        "[pipeline]\nr = 2\nn = 10\nseed = 42\n"
        f"[catalog]\nlandmarks = {landmarks}\n",
        encoding="utf-8")
    return root


class TestCli:
    def test_pipeline_end_to_end(self, mini_fixture, capsys):
        code = main(["pipeline", "--config", str(mini_fixture / "mini.cfg")])
        assert code == 0
        out = mini_fixture / "out"
        for name in ("trips_clean.csv", "ingest_summary.json", "factors_meta.json",
                     "overall_counts.csv", "cluster_0_membership.csv", "cluster_1_counts.csv",
                     "catalog_manifest.csv", "rankings.csv"):
            assert (out / name).is_file(), name
        assert "rank: ok" in capsys.readouterr().out

    def test_catalog_manifest_lists_70(self, mini_fixture):
        with open(mini_fixture / "out" / "catalog_manifest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 70

    def test_catalog_manifest_round_trips_names(self, mini_copy, tmp_path):
        default = (mini_copy.parent / "out" / "catalog_manifest.csv").read_text(encoding="utf-8")
        space = load_tracts(mini_copy.parent / "tracts.csv")
        cfg = load_config(mini_copy)
        assert default == "hypothesis,states,nonzeros\n" + "".join(  # plain names: plain rows
            f"{h.name},{len(space)},{np.count_nonzero(h.q)}\n"
            for h in build_catalog(space, cfg.catalog))
        cfg = replace(cfg, output_dir=tmp_path / "named", catalog=replace(
            cfg.catalog, landmarks=(("a,b", GeoPoint(40.75, -73.99)), *cfg.catalog.landmarks)))
        run_build_hypotheses(cfg)
        with open(tmp_path / "named" / "catalog_manifest.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["hypothesis", "states", "nonzeros"]
        assert [row[0] for row in rows[1:]] == [h.name for h in build_catalog(space, cfg.catalog)]
        assert {len(row) for row in rows} == {3}
        assert "centroid_a,b_sigma_1" in {row[0] for row in rows}

    def test_rank_k0_all_tied(self, mini_fixture):
        code = main(["rank", "--config", str(mini_fixture / "mini.cfg"), "--k", "0"])
        assert code == 0
        values = {}
        with open(mini_fixture / "out" / "rankings.csv") as fh:
            for row in csv.DictReader(fh):
                assert float(row["k"]) == 0.0
                values.setdefault(row["cluster"], []).append(float(row["log_evidence"]))
        for cluster, evs in values.items():
            assert len(evs) == 70
            assert max(evs) - min(evs) < 1e-9

    def test_factorize_deterministic(self, mini_fixture):
        out = mini_fixture / "out"
        main(["factorize", "--config", str(mini_fixture / "mini.cfg"), "--seed", "42"])
        first = {p.name: p.read_bytes() for p in out.glob("factors_*")}
        main(["factorize", "--config", str(mini_fixture / "mini.cfg"), "--seed", "42"])
        second = {p.name: p.read_bytes() for p in out.glob("factors_*")}
        assert first == second

    def test_ingest_summary_conserves(self, mini_fixture):
        summary = json.loads((mini_fixture / "out" / "ingest_summary.json").read_text())
        assert summary["accepted"] + sum(summary["rejected"].values()) == \
            summary["input_records"]

    def test_missing_input_file_fails_with_stage(self, tmp_path, capsys):
        code = main(["ingest", "--tracts", str(tmp_path / "absent.csv"),
                     "--trips", str(tmp_path / "absent2.csv"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ingest" in err and "not found" in err

    def test_missing_paths_config_error(self, capsys):
        code = main(["factorize"])
        assert code == 2
        assert "missing required path" in capsys.readouterr().err

    def test_bad_config_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[pipeline]\nwat = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "wat" in capsys.readouterr().err

    def test_rank_before_extract_fails(self, tmp_path, grid_space, capsys):
        keys = sorted(grid_space.tracts[0].properties)
        write_tracts(tmp_path / "tracts.csv", grid_space, keys)
        trips = generate_from_hypothesis(build_uniform(20), np.ones(20), 50, seed=1)
        write_trips_file(tmp_path / "trips.csv", trips, grid_space)
        landmarks = "; ".join(f"{n} {p.lat!r} {p.lon!r}"
                              for n, p in demo_landmarks(grid_space))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"[paths]\ntracts = {tmp_path / 'tracts.csv'}\n"
            f"trips = {tmp_path / 'trips.csv'}\noutput_dir = {tmp_path / 'out'}\n"
            f"[catalog]\nlandmarks = {landmarks}\n", encoding="utf-8")
        assert main(["ingest", "--config", str(cfg)]) == 0
        code = main(["rank", "--config", str(cfg)])
        assert code == 1
        assert "extract-clusters" in capsys.readouterr().err

    def test_synth_subcommand(self, tmp_path):
        code = main(["synth", "--output-dir", str(tmp_path / "fix"), "--seed", "42"])
        assert code == 0
        for name in ("tracts.csv", "trips.csv", "demo.cfg", "demo_manifest.json"):
            assert (tmp_path / "fix" / name).is_file()

    @pytest.mark.parametrize("args, text, key", [
        (["--k", "10", "--k", "10"], "", "k_grid"),
        ([], "[pipeline]\nk_grid =\n", "k_grid"),
        ([], "[catalog]\nsigma_grid = 1 1\n", "sigma_grid"),
        (["--k", "inf"], "", "k values"),
        ([], "[pipeline]\nseed = -1\n", "seed must be >= 0"),
        ([], "[pipeline]\nmax_iters = 0\n", "max_iters must be >= 1"),
        ([], "[pipeline]\nrel_tol = nan\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nrel_tol = inf\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nrel_tol = -1\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nepsilon = nan\n", "epsilon must be finite and > 0"),
        ([], "[pipeline]\nepsilon = -1\n", "epsilon must be finite and > 0"),
        ([], "[pipeline]\nepsilon = 0\n", "epsilon must be finite and > 0"),
        ([], "[catalog]\nsigma_grid = 1 1.0000001\n", "sigma_grid repeats the label(s) 1"),
        ([], "[catalog]\nlandmarks = a 40.7 -74.0; b 40.8 -74.0; a 40.9 -74.0\n",
         "landmarks repeats the name(s) a"),
    ])
    def test_bad_grid_fails_before_any_stage(self, mini_fixture, tmp_path, capsys,
                                             args, text, key):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"[paths]\ntracts = {mini_fixture / 'tracts.csv'}\n"
                       f"trips = {mini_fixture / 'trips.csv'}\noutput_dir = {tmp_path / 'out'}\n"
                       + text, encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg), *args]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_rel_tol_is_valid(self):
        assert load_config(rel_tol=0.0).rel_tol == 0.0

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_io_eps_fails_before_any_stage(self, mini_fixture, grid_space, tmp_path,
                                               capsys, value):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(f"[paths]\ntracts = {mini_fixture / 'tracts.csv'}\n"
                       f"trips = {mini_fixture / 'trips.csv'}\noutput_dir = {tmp_path / 'out'}\n"
                       f"[catalog]\nio_eps = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="io_eps"):
            load_config(cfg)
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert "io_eps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        w = WeightVector("w", np.ones(len(grid_space)))
        with pytest.raises(ValueError, match="eps"):
            build_intervening_opportunities(grid_space, w, float(value))

    def test_synth_config_loads_from_a_percent_path(self, tmp_path):
        root = tmp_path / "a%b"
        assert main(["synth", "--output-dir", str(root)]) == 0
        cfg = load_config(root / "demo.cfg")
        assert (cfg.tracts, cfg.trips, cfg.output_dir) == \
            (root / "tracts.csv", root / "trips.csv", root / "out")
        assert main(["ingest", "--config", str(root / "demo.cfg")]) == 0

    def test_pipeline_stage_error_names_stage(self, tmp_path, grid_space, capsys):
        # trips file is unreadable garbage: ingest is the failing stage
        keys = sorted(grid_space.tracts[0].properties)
        write_tracts(tmp_path / "tracts.csv", grid_space, keys)
        (tmp_path / "trips.csv").write_text("nope\n", encoding="utf-8")
        code = main(["pipeline", "--tracts", str(tmp_path / "tracts.csv"),
                     "--trips", str(tmp_path / "trips.csv"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "'ingest'" in capsys.readouterr().err


@pytest.fixture
def mini_copy(mini_fixture, tmp_path):
    """Config of a private copy of the mini fixture with every pipeline artifact in place."""
    root = shutil.copytree(mini_fixture, tmp_path / "mini")
    cfg = root / "mini.cfg"
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(str(mini_fixture), str(root)),
                   encoding="utf-8")
    if not (root / "out" / "rankings.csv").is_file():
        assert main(["pipeline", "--config", str(cfg)]) == 0
    return cfg


class TestCountSets:
    """extract-clusters writes every count set; rank reads the tracts and count sets only."""

    def test_overall_counts_are_all_cleaned_trips(self, mini_copy):
        out = mini_copy.parent / "out"
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 0
        expected = transition_counts(load_clean_trips(out / "trips_clean.csv"), 20).counts
        overall = np.loadtxt(out / "overall_counts.csv", dtype=np.int64, delimiter=",")
        np.testing.assert_array_equal(overall, expected)

    def test_rank_reads_no_trips(self, mini_copy):
        out = mini_copy.parent / "out"
        assert main(["rank", "--config", str(mini_copy)]) == 0
        with_trips = (out / "rankings.csv").read_bytes()
        (out / "trips_clean.csv").unlink()
        assert main(["rank", "--config", str(mini_copy)]) == 0
        assert (out / "rankings.csv").read_bytes() == with_trips

    def test_rank_without_overall_counts_fails(self, mini_copy, capsys):
        (mini_copy.parent / "out" / "overall_counts.csv").unlink()
        assert main(["rank", "--config", str(mini_copy)]) == 1
        assert "extract-clusters" in capsys.readouterr().err

    def test_each_factor_column_ranked_once(self, mini_copy, monkeypatch):
        calls = []

        def counting(column, n):
            calls.append(n)
            return original(column, n)

        original = tripflow.clusters.top_indices
        monkeypatch.setattr(tripflow.clusters, "top_indices", counting)
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 0
        assert len(calls) == 2 * 2  # time and dropoff column of each of r = 2 components

    def test_factors_of_another_state_space_rejected(self, mini_copy, capsys):
        out = mini_copy.parent / "out"
        rng = np.random.default_rng(3)
        time, pickup, dropoff = (m / m.sum(axis=0) for m in
                                 (rng.random((dim, 2)) for dim in (HOURS_PER_WEEK, 5, 5)))
        save_factors(out, FactorSet(r=2, time=time, pickup=pickup, dropoff=dropoff,
                                    scale=np.ones(2)), seed=1)
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 1
        err = capsys.readouterr().err
        assert "(168, 5, 5)" in err and "(168, 20, 20)" in err
        assert list(out.glob("cluster_*")) == [] and not (out / "overall_counts.csv").exists()
        assert main(["rank", "--config", str(mini_copy)]) == 1


class TestBenchTracer:
    """The benchmark's tracer wraps names bound in tripflow.cli; keep them reachable."""

    WRAPPED = ("geo.locate", "geo.load_tracts", "ingest.load_raw_trips", "ingest.clean_trips",
               "ingest.write_clean_trips", "ingest.load_clean_trips",
               "ingest.transition_counts", "tensor.build_tensor", "tensor.ntf_decompose",
               "tensor.save_factors", "tensor.load_factors", "clusters.cluster_counts",
               "clusters.write_membership", "hypotheses.build_catalog", "evidence.k_sweep",
               "evidence.write_rankings")
    STAGES = ("ingest", "factorize", "extract-clusters", "build-hypotheses", "rank")

    def test_stages_and_probe_trace_every_wrapped_call(self, mini_fixture, tmp_path):
        tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        for name in ("tracts.csv", "trips.csv"):
            (tmp_path / name).write_bytes((mini_fixture / name).read_bytes())
        cfg = tmp_path / "mini.cfg"
        cfg.write_text((mini_fixture / "mini.cfg").read_text(encoding="utf-8")
                       .replace(str(mini_fixture), str(tmp_path)), encoding="utf-8")
        runs = {"stages": [str(tmp_path / "spans.json"), *self.STAGES],
                "probe": [str(tmp_path / "probe.json")]}
        traced = {}
        for mode, rest in runs.items():
            done = subprocess.run([sys.executable, str(tracer), mode, str(cfg), *rest],
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            traced[mode] = json.loads(Path(rest[0]).read_text(encoding="utf-8"))
            assert traced[mode]["absent"] == []
        names = {span[0] for span in traced["stages"]["spans"]}
        expected = {f"cli.{s.replace('-', '_')}" for s in self.STAGES} | set(self.WRAPPED)
        assert expected - names == set()
        assert "tensor.reconstruction_error" in {span[0] for span in traced["probe"]["spans"]}
