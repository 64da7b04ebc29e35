import builtins
import configparser
import csv
import io
import json
import os
import shutil
import weakref
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import tripflow.cli
import tripflow.clusters
import tripflow.files
import tripflow.geo
import tripflow.tensor
from tripflow.cli import main, run_build_hypotheses, run_pipeline, run_rank
from tripflow.config import _SECTIONS, ConfigError, PipelineConfig, load_config
from tripflow.evidence import k_sweep, write_rankings
from tripflow.geo import GeoPoint, load_tracts, write_tracts
from tripflow.hypotheses import CatalogConfig, CatalogConfigError, build_catalog, build_uniform
from tripflow.ingest import (TransitionCounts, load_clean_trips, transition_counts,
                             write_clean_trips)
from tripflow.synth import demo_landmarks, generate_from_hypothesis, write_trips_file
from tripflow.tensor import DecompositionTrace, FactorSet, save_factors

from tripflow.geo import HOURS_PER_WEEK

from conftest import fresh_python


class TestDefaults:
    def test_baked_in_defaults(self):
        cfg = PipelineConfig()
        assert cfg.r == 7
        assert cfg.n == 10
        assert cfg.k_grid == (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)
        assert cfg.seed == 42
        assert cfg.max_iters == 500 and cfg.rel_tol == 1e-6


class TestConfigFile:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[paths]\ntracts = a.csv\ntrips = b.csv\noutput_dir = out\n"
            "[pipeline]\nr = 3\nn = 4\nk_grid = 0 10\nseed = 7\n"
            "[catalog]\nlandmarks = spot 40.7 -74.0\n",
            encoding="utf-8")
        cfg = load_config(path)
        assert cfg.r == 3 and cfg.n == 4 and cfg.seed == 7
        assert cfg.k_grid == (0.0, 10.0)
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
        ("[catalog]\nsigma_grid = 1 1\n", "sigma_grid"),
        ("[catalog]\nsigma_grid = 2, 0.5, 2\n", "sigma_grid"),
        ("[pipeline]\nk_grid = 1 nan\n", "k values"),
        ("[pipeline]\nk_grid = 1 inf\n", "k values"),
        ("[catalog]\nsigma_grid = 1 1.0000001\n", "sigma_grid"),
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
        with pytest.raises(ConfigError, match="landmarks repeats"):
            load_config(catalog=CatalogConfig(landmarks=(("a", GeoPoint(1.0, 2.0)),) * 2))

    @pytest.mark.parametrize("text, overrides, expected", [
        ("[pipeline]\nlandmarks = a 1 2\n[catalog]\nlandmarks = b 3 4\n", {},
         r"unknown key\(s\) in \[pipeline\]: landmarks"),
        ("[pipeline]\nlandmarks = a 1 2\n", {}, r"unknown key\(s\) in \[pipeline\]: landmarks"),
        ("[catalog]\nlandmarks = b 3 4\n", {}, (("b", GeoPoint(3.0, 4.0)),)),
        ("[catalog]\nlandmarks = d 7 8\n",
         {"catalog": CatalogConfig(landmarks=(("c", GeoPoint(5.0, 6.0)),))},
         (("c", GeoPoint(5.0, 6.0)),)),
    ])
    def test_landmarks_precedence(self, tmp_path, text, overrides, expected):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        if isinstance(expected, str):
            with pytest.raises(ConfigError, match=expected):
                load_config(path, **overrides)
            return
        cfg = load_config(path, **overrides)
        assert cfg.catalog.landmarks == cfg.catalog_config().landmarks == expected

    def test_landmarks_has_one_home(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nlandmarks = a 1 2\n[catalog]\nlandmarks = b 3 4\n",
                        encoding="utf-8")
        assert not hasattr(load_config(), "landmarks")
        assert main(["synth", "--config", str(path), "--output-dir", str(tmp_path / "fix")]) == 2
        assert "landmarks" in capsys.readouterr().err and not (tmp_path / "fix").exists()
        with pytest.raises(ConfigError, match="unknown config override 'landmarks'"):
            load_config(landmarks=(("c", GeoPoint(5.0, 6.0)),))

    @pytest.mark.parametrize("section, key, value", [
        ("pipeline", "epsilon", "1e-12"), ("catalog", "unweighted_opportunities", "false"),
        ("pipeline", "exclude_self_loops", "false"), ("catalog", "sigma_grid", "0.5")])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        cfg = load_config()
        assert not any(hasattr(obj, key) for obj in (cfg, cfg.catalog, cfg.ntf_options()))
        assert main(["synth", "--config", str(path), "--output-dir", str(tmp_path / "fix")]) == 2
        assert f"unknown key(s) in [{section}]: {key}" in capsys.readouterr().err
        assert not (tmp_path / "fix").exists()

    def test_readme_block_loads_as_the_defaults(self, tmp_path, monkeypatch):
        for key in _SECTIONS["paths"]:
            monkeypatch.delenv(f"TRIPFLOW_{key.upper()}", raising=False)
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration file", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        assert load_config(path) == replace(PipelineConfig(), tracts=Path("tracts.csv"),
                                            trips=Path("trips.csv"), output_dir=Path("out"))
        parser = configparser.ConfigParser()
        parser.read_string(block)
        assert {name: set(parser[name]) for name in parser.sections()} == \
            {name: set(keys) for name, keys in _SECTIONS.items()}

    def test_every_key_parsed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[paths]\ntracts = t.csv\ntrips = u.csv\noutput_dir = o\n"
            "[pipeline]\nr = 3\nn = 4\nk_grid = 0, 2\nseed = 9\n"
            "max_iters = 7\nrel_tol = 0.5\n"
            "[catalog]\nlandmarks = a 1 2; b 3 4\n",
            encoding="utf-8")
        cfg = load_config(path)
        assert cfg == PipelineConfig(
            tracts=Path("t.csv"), trips=Path("u.csv"), output_dir=Path("o"), r=3, n=4,
            k_grid=(0.0, 2.0), seed=9, max_iters=7, rel_tol=0.5,
            catalog=CatalogConfig(
                landmarks=(("a", GeoPoint(1.0, 2.0)), ("b", GeoPoint(3.0, 4.0)))))
        for obj, default in ((cfg, PipelineConfig()), (cfg.catalog, CatalogConfig())):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name


@pytest.fixture(scope="module")
def mini_fixture(tmp_path_factory, grid_space):
    """Small end-to-end fixture: 20 tracts, 2000 uniform trips, local landmarks."""
    root = tmp_path_factory.mktemp("mini")
    keys = sorted(grid_space.properties)
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
                     "factors_trace.csv", "overall_counts.csv", "cluster_0_membership.csv",
                     "cluster_1_counts.csv", "catalog_manifest.csv", "rankings.csv"):
            assert (out / name).is_file(), name
        assert "rank: {" in [line[:7] for line in capsys.readouterr().out.splitlines()]

    def test_catalog_manifest_lists_70(self, mini_copy):
        with open(mini_copy.parent / "out" / "catalog_manifest.csv") as fh:
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

    def test_rank_k0_all_tied(self, mini_copy):
        code = main(["rank", "--config", str(mini_copy), "--k", "0"])
        assert code == 0
        values = {}
        with open(mini_copy.parent / "out" / "rankings.csv") as fh:
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

    def test_ingest_summary_conserves(self, mini_copy):
        summary = json.loads((mini_copy.parent / "out" / "ingest_summary.json").read_text())
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
        keys = sorted(grid_space.properties)
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
        ([], "[catalog]\nsigma_grid = 1 1\n", "unknown key(s) in [catalog]: sigma_grid"),
        (["--k", "inf"], "", "k values"),
        ([], "[pipeline]\nseed = -1\n", "seed must be >= 0"),
        ([], "[pipeline]\nmax_iters = 0\n", "max_iters must be >= 1"),
        ([], "[pipeline]\nrel_tol = nan\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nrel_tol = inf\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nrel_tol = -1\n", "rel_tol must be finite and >= 0"),
        ([], "[pipeline]\nepsilon = nan\n", "unknown key(s) in [pipeline]: epsilon"),
        ([], "[pipeline]\nepsilon = -1\n", "unknown key(s) in [pipeline]: epsilon"),
        ([], "[pipeline]\nepsilon = 0\n", "unknown key(s) in [pipeline]: epsilon"),
        ([], "[catalog]\nsigma_grid = 1 1.0000001\n", "unknown key(s) in [catalog]: sigma_grid"),
        ([], "[catalog]\nlandmarks = a 40.7 -74.0; b 40.8 -74.0; a 40.9 -74.0\n",
         "landmarks repeats the name(s) a"),
        ([], "[catalog]\nvenue_category_keys = venues_all venues_food\n",
         "unknown key(s) in [catalog]: venue_category_keys"),
        ([], "[catalog]\ncensus_indicator_keys = income income\n",
         "unknown key(s) in [catalog]: census_indicator_keys"),
        ([], "[catalog]\nall_venues_key = venues_all\n",
         "unknown key(s) in [catalog]: all_venues_key"),
        ([], "[catalog]\ncheckins_key = checkins\n", "unknown key(s) in [catalog]: checkins_key"),
        ([], "[catalog]\nrace_keys = pct_white pct_black\n",
         "unknown key(s) in [catalog]: race_keys"),
        ([], "[catalog]\npoverty_keys = pct_below_poverty pct_above_poverty\n",
         "unknown key(s) in [catalog]: poverty_keys"),
        ([], "[catalog]\nemployment_keys = pct_employed\n",
         "unknown key(s) in [catalog]: employment_keys"),
        ([], "[catalog]\nio_eps = 1e-9\n", "unknown key(s) in [catalog]: io_eps"),
        ([], "[pipeline]\nexclude_self_loops = false\n",
         "unknown key(s) in [pipeline]: exclude_self_loops"),
        ([], "[catalog]\nsigma_grid = 0.5\n", "unknown key(s) in [catalog]: sigma_grid"),
        ([], "[DEFAULT]\nr = 3\n", "unknown key(s) in [DEFAULT]: r"),
        ([], "[pipeline]\nr = 3\n[DEFAULT]\nseed = 5\n", "unknown key(s) in [DEFAULT]: seed"),
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

    def test_removed_flag_exits_2(self, mini_fixture, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--include-self-loops", "--config", str(mini_fixture / "mini.cfg"),
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2 and "--include-self-loops" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_rel_tol_is_valid(self):
        assert load_config(rel_tol=0.0).rel_tol == 0.0

    def test_synth_config_loads_from_a_percent_path(self, tmp_path):
        root = tmp_path / "a%b"
        assert main(["synth", "--output-dir", str(root)]) == 0
        cfg = load_config(root / "demo.cfg")
        assert (cfg.tracts, cfg.trips, cfg.output_dir) == \
            (root / "tracts.csv", root / "trips.csv", root / "out")
        assert main(["ingest", "--config", str(root / "demo.cfg")]) == 0

    def test_pipeline_stage_error_names_stage(self, tmp_path, grid_space, capsys):
        # trips file is unreadable garbage: ingest is the failing stage
        keys = sorted(grid_space.properties)
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

    def test_count_files_are_savetxt_bytes(self, mini_copy, monkeypatch):
        """Count files keep the bytes np.savetxt(fmt="%d") wrote, counts above 2^31 included."""
        counts = np.zeros((20, 20), dtype=np.int64)
        counts[0, 1], counts[3, 4], counts[19, 0] = 7, 12345, 2**31 + 5

        def made(*args):
            return TransitionCounts(counts=counts.copy())

        monkeypatch.setattr(tripflow.cli, "cluster_counts", made)
        monkeypatch.setattr(tripflow.cli, "transition_counts", made)
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 0
        expected = io.StringIO()
        np.savetxt(expected, counts, fmt="%d", delimiter=",")
        out = mini_copy.parent / "out"
        paths = [out / "overall_counts.csv", *out.glob("cluster_*_counts.csv")]
        assert len(paths) == 1 + load_config(mini_copy).r
        for path in paths:
            assert path.read_bytes() == expected.getvalue().encode("ascii")

    def test_rank_reads_no_trips(self, mini_copy):
        out = mini_copy.parent / "out"
        assert main(["rank", "--config", str(mini_copy)]) == 0
        with_trips = (out / "rankings.csv").read_bytes()
        (out / "trips_clean.csv").unlink()
        assert main(["rank", "--config", str(mini_copy)]) == 0
        assert (out / "rankings.csv").read_bytes() == with_trips

    def test_rank_process_loads_no_scipy(self, mini_copy):
        # rank scores with numpy alone, so its process never pays scipy's import
        script = ("import sys\nfrom tripflow.cli import main\n"
                  f"code = main(['rank', '--config', {str(mini_copy)!r}])\n"
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = fresh_python("-c", script, env=dict(os.environ))
        assert out.splitlines()[-1] == "0 []"
        assert (mini_copy.parent / "out" / "rankings.csv").is_file()

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

    @pytest.mark.parametrize("cell, text", [
        ("-1", "negative transition count"),
        ("1.5", "could not convert string '1.5' to int64 at row 0, column 2."),
    ], ids=["negative", "fraction"])
    def test_bad_count_cell_names_the_file(self, mini_copy, capsys, cell, text):
        path = mini_copy.parent / "out" / "cluster_1_counts.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        first = rows[0].split(",")
        rows[0] = ",".join([first[0], cell, *first[2:]])
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["rank", "--config", str(mini_copy)]) == 1
        assert f"stage 'rank' failed: {path}: {text}" in capsys.readouterr().err

    def test_factors_of_another_state_space_rejected(self, mini_copy, capsys):
        out = mini_copy.parent / "out"
        rng = np.random.default_rng(3)
        time, pickup, dropoff = (m / m.sum(axis=0) for m in
                                 (rng.random((dim, 2)) for dim in (HOURS_PER_WEEK, 5, 5)))
        save_factors(out, FactorSet(time=time, pickup=pickup, dropoff=dropoff, scale=np.ones(2)),
                     seed=1, trace=DecompositionTrace(errors=[1.0]))
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 1
        err = capsys.readouterr().err
        assert "(168, 5, 5)" in err and "(168, 20, 20)" in err
        assert list(out.glob("cluster_*")) == [] and not (out / "overall_counts.csv").exists()
        assert main(["rank", "--config", str(mini_copy)]) == 1


class TestInterruptedStages:
    """A stage that fails midway leaves no artifact set that the next stage accepts."""

    def test_factorize_failing_on_dropoff_factors(self, mini_copy, monkeypatch, capsys):
        out = mini_copy.parent / "out"
        before = (out / "factors_dropoff.csv").read_bytes()

        def failing_open(file, mode="r", *args, **kwargs):
            if "w" in mode and "factors_dropoff.csv" in Path(file).name:
                raise OSError("disk full")
            return real_open(file, mode, *args, **kwargs)

        real_open = builtins.open  # failing at the open keeps the earlier file: a mixed set
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", failing_open)
            assert main(["factorize", "--config", str(mini_copy), "--seed", "7"]) == 1
        assert (out / "factors_dropoff.csv").read_bytes() == before
        assert list(out.glob(".*.tmp")) == []
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 1
        assert "run factorize first" in capsys.readouterr().err

    def test_extract_clusters_failing_on_second_component(self, mini_copy, monkeypatch, capsys):
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return counted(*args)

        counted = tripflow.cli.cluster_counts
        monkeypatch.setattr(tripflow.cli, "cluster_counts", failing)
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 1
        assert (mini_copy.parent / "out" / "cluster_0_counts.csv").is_file()
        assert main(["rank", "--config", str(mini_copy)]) == 1
        assert "run extract-clusters first" in capsys.readouterr().err

    def test_every_write_failing_in_turn(self, mini_copy, monkeypatch, capsys):
        # Rerun over the seed-42 outputs with fewer trips and another seed, which change
        # every file but the catalog manifest, failing the n-th write. Each later stage must
        # refuse to run for want of a producer's mark, or write what an uninterrupted rerun
        # writes.
        out, fewer = mini_copy.parent / "out", mini_copy.parent / "fewer.csv"
        lines = load_config(mini_copy).trips.read_text(encoding="utf-8").splitlines(True)
        fewer.write_text("".join(lines[:1500]), encoding="utf-8")
        new = ["--config", str(mini_copy), "--trips", str(fewer), "--seed", "7"]
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        writes, fail_at, real = [], [0], tripflow.files.replaced

        @contextmanager
        def replaced(path):
            writes.append(Path(path).name)
            with real(path) as fh:
                if len(writes) == fail_at[0]:
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(tripflow.files, "replaced", replaced)
        stages, written_by = list(tripflow.cli._STAGES), []
        for stage in stages:
            count = len(writes)
            assert main([stage, *new]) == 0
            written_by += [stage] * (len(writes) - count)
        clean, clean_writes = {p.name: p.read_bytes() for p in out.iterdir()}, list(writes)
        assert writes[0] == "ingest_summary.json" and writes[-1] == "rankings.csv"
        assert {name for name in old if old[name] != clean[name]} == set(old) - {
            "catalog_manifest.csv"}
        for n, failed in enumerate(written_by, start=1):
            shutil.rmtree(out)
            out.mkdir()
            for name, data in old.items():
                (out / name).write_bytes(data)
            writes.clear()
            fail_at[0] = n
            assert main(["pipeline", *new]) == 1, n
            assert f"stage {failed!r} failed: disk full" in capsys.readouterr().err
            assert list(out.glob(".*.tmp")) == []
            for stage in stages[stages.index(failed) + 1:]:
                count = len(writes)
                code, err = main([stage, *new]), capsys.readouterr().err
                if code == 0:
                    assert writes[count:] == [name for name, by in zip(clean_writes, written_by)
                                              if by == stage]
                    for name in writes[count:]:
                        assert (out / name).read_bytes() == clean[name], (n, stage, name)
                else:
                    assert code == 1 and any(f"run {producer} first" in err
                                             for producer in tripflow.cli._STAGES[stage].reads), \
                        (n, stage, err)


class TestStageMarks:
    """A stage runs on the marks of the stages it reads; a rerun deletes its readers' marks."""

    def test_factorize_rerun_voids_the_count_sets(self, mini_copy, capsys):
        out = mini_copy.parent / "out"
        assert main(["factorize", "--config", str(mini_copy), "--seed", "5"]) == 0
        assert not (out / "overall_counts.csv").exists() and not (out / "rankings.csv").exists()
        assert main(["rank", "--config", str(mini_copy)]) == 1
        assert "run extract-clusters first" in capsys.readouterr().err

    def test_ingest_rerun_voids_the_factors(self, mini_copy, capsys):
        assert main(["ingest", "--config", str(mini_copy)]) == 0
        assert main(["extract-clusters", "--config", str(mini_copy)]) == 1
        assert "run factorize first" in capsys.readouterr().err

    def test_missing_input_deletes_nothing(self, mini_copy, capsys):
        out = mini_copy.parent / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        load_config(mini_copy).trips.unlink()
        assert main(["ingest", "--config", str(mini_copy)]) == 1
        assert "trips file not found" in capsys.readouterr().err
        assert {"trips_clean.csv", "factors_meta.json", "rankings.csv"} <= before.keys()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_build_hypotheses_rerun_keeps_the_rankings(self, mini_copy):
        rankings = mini_copy.parent / "out" / "rankings.csv"
        before = rankings.read_bytes()
        assert main(["build-hypotheses", "--config", str(mini_copy)]) == 0
        assert rankings.read_bytes() == before

    def test_cleaned_trips_alone_run_factorize_through_rank(self, mini_copy, tmp_path):
        # the benchmark's city fixture: trips_clean.csv and no raw trips or ingest summary
        full, out = mini_copy.parent / "out", tmp_path / "out"
        out.mkdir()
        shutil.copy(full / "trips_clean.csv", out)
        cfg = tmp_path / "cleaned.cfg"
        cfg.write_text(mini_copy.read_text(encoding="utf-8")
                       .replace(str(full), str(out))
                       .replace(str(mini_copy.parent / "trips.csv"), str(tmp_path / "absent.csv")),
                       encoding="utf-8")
        for stage in ("factorize", "extract-clusters", "build-hypotheses", "rank"):
            assert main([stage, "--config", str(cfg)]) == 0, stage
        expected = {p.name: p.read_bytes() for p in full.iterdir() if p.name != "ingest_summary.json"}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def test_stages_that_read_no_distance_never_derive_them(mini_fixture, tmp_path, monkeypatch):
    """ingest, factorize and extract-clusters locate by polygon and count trips only."""
    def refuse(*args):
        raise AssertionError("a distance was computed")

    written = {}
    for side in ("plain", "refusing"):
        if side == "refusing":
            monkeypatch.setattr(tripflow.geo, "haversine_km", refuse)
        out = tmp_path / side
        for stage in ("ingest", "factorize", "extract-clusters"):
            code = main([stage, "--config", str(mini_fixture / "mini.cfg"), "--output-dir", str(out)])
            assert code == 0, (side, stage)
        written[side] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "overall_counts.csv" in written["plain"]
    assert written["refusing"] == written["plain"]


class TestStreamedRank:
    """rank scores one stream of the catalog against the stack of every count set."""

    def test_rankings_equal_per_set_sweeps_of_the_built_catalog(self, mini_copy, tmp_path):
        out = mini_copy.parent / "out"
        cfg = load_config(mini_copy)
        run_rank(cfg)
        catalog = build_catalog(load_tracts(cfg.tracts), cfg.catalog)
        rows = []
        for path in [out / "overall_counts.csv", *sorted(out.glob("cluster_*_counts.csv"))]:
            counts = np.loadtxt(path, dtype=np.int64, delimiter=",")
            n = TransitionCounts(counts=counts)
            rows += [(path.name.removesuffix("_counts.csv"), r)
                     for r in k_sweep(n, catalog, cfg.k_grid)]
        write_rankings(tmp_path / "per_set.csv", rows)
        assert (out / "rankings.csv").read_bytes() == (tmp_path / "per_set.csv").read_bytes()

    def test_at_most_two_hypotheses_alive(self, mini_copy, monkeypatch):
        live, most, seen = [0], [0], [0]

        def dropped():
            live[0] -= 1

        def tracked(space, config):
            for h in stream(space, config):
                weakref.finalize(h, dropped)
                live[0] += 1
                seen[0] += 1
                most[0] = max(most[0], live[0])
                yield h

        def unused(*args):
            raise AssertionError("rank built the catalog as a list")

        stream = tripflow.cli.iter_catalog
        monkeypatch.setattr(tripflow.cli, "iter_catalog", tracked)
        monkeypatch.setattr(tripflow.cli, "build_catalog", unused)
        assert run_rank(load_config(mini_copy))["hypotheses"] == 70
        assert seen[0] == 70 and most[0] <= 2

    def test_duplicate_streamed_name_fails_safe(self, mini_copy):
        out = mini_copy.parent / "out"
        (out / "rankings.csv").unlink()
        cfg = load_config(mini_copy)  # load_config rejects the repeat; run_rank must too
        name, _ = landmark = cfg.catalog.landmarks[0]
        cfg = replace(cfg, catalog=CatalogConfig(landmarks=(landmark, landmark)))
        with pytest.raises(CatalogConfigError, match=f"'centroid_{name}_sigma_0.01'"):
            run_rank(cfg)
        assert not (out / "rankings.csv").exists()


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


def artifacts_at_one_and_two_blas_threads(space, tmp_path, trips, stages, r) -> dict:
    """Every file ``stages`` writes from ``trips``, run at one and at two OpenBLAS threads."""
    write_tracts(tmp_path / "tracts.csv", space, sorted(space.properties))
    artifacts = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        out.mkdir()
        write_clean_trips(out / "trips_clean.csv", trips)
        cfg = tmp_path / f"threads{threads}.cfg"
        cfg.write_text(f"[paths]\ntracts = {tmp_path / 'tracts.csv'}\noutput_dir = {out}\n"
                       f"[pipeline]\nr = {r}\nmax_iters = 5\nrel_tol = 1e-12\n", encoding="utf-8")
        fresh_python("-c", stages, str(cfg), env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        artifacts[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    return artifacts


def test_blas_thread_count_leaves_artifacts_unchanged(city_space, tmp_path):
    # At r=7 on 288 tracts OpenBLAS splits each hour's (S, r) @ (r, S) product over its
    # threads; the factors, the error and the catalog must not depend on how many it has.
    rng = np.random.default_rng(11)
    trips = np.column_stack([rng.integers(0, HOURS_PER_WEEK, 4000),
                             rng.integers(0, len(city_space), (4000, 2))]).tolist()
    stages = ("import sys; from tripflow.cli import main; "
              "sys.exit(main(['factorize', '--config', sys.argv[1]]) "
              "or main(['build-hypotheses', '--config', sys.argv[1]]))")
    artifacts = artifacts_at_one_and_two_blas_threads(city_space, tmp_path, trips, stages, r=7)
    assert {"factors_meta.json", "catalog_manifest.csv"} <= artifacts["1"].keys()
    assert artifacts["1"] == artifacts["2"]


def test_blas_thread_count_leaves_dense_factors_unchanged(city_space, tmp_path):
    # Above the fill crossover the sweep runs on a dense copy: OpenBLAS splits the
    # (168, S^2) @ (S^2, r) time-mode product and the (r, 168) @ (168, S^2) partial over
    # its threads, and the factor files must not depend on how many it has.
    rng = np.random.default_rng(12)
    trips = np.column_stack([rng.integers(0, HOURS_PER_WEEK, 400_000),
                             rng.integers(0, len(city_space), (400_000, 2))])
    dims = (HOURS_PER_WEEK, len(city_space), len(city_space))
    nnz = len(np.unique(np.ravel_multi_index(trips.T, dims)))
    assert nnz > tripflow.tensor.DENSE_FILL * np.prod(dims)
    stages = ("import sys; from tripflow.cli import main; "
              "sys.exit(main(['factorize', '--config', sys.argv[1]]))")
    artifacts = artifacts_at_one_and_two_blas_threads(city_space, tmp_path, trips.tolist(),
                                                      stages, r=7)
    assert {"factors_meta.json", "factors_time.csv", "factors_trace.csv"} <= artifacts["1"].keys()
    assert artifacts["1"] == artifacts["2"]


def test_imports_load_no_more_than_they_use():
    # the package root only pins BLAS, and no stage process compiles the fixture code
    script = ("import sys, tripflow\n"
              "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tripflow.')))\n"
              "import tripflow.cli\n"
              "print('tripflow.synth' in sys.modules)\n")
    assert fresh_python("-c", script, env=dict(os.environ)).splitlines() == ["[]", "False"]
