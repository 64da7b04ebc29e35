import csv
import re

import numpy as np
import pytest

from tripflow import tensor
from tripflow.ingest import Trip
from tripflow.tensor import (
    FactorSet,
    MobilityTensor,
    NtfOptions,
    build_tensor,
    load_factors,
    ntf_decompose,
    reconstruction_error,
    save_factors,
)

from conftest import (addat_mttkrp, best_match_min_cosine, cosine, dense_slice_error,
                      oracle_decompose, planted_rank3)


@pytest.fixture
def sparse_path(monkeypatch):
    """Keep ``ntf_decompose`` on the sparse kernel, whose sweeps the oracles copy bit for bit."""
    monkeypatch.setattr(tensor, "DENSE_FILL", 1.0)  # no tensor is more than full


def as_dict(x: MobilityTensor) -> dict[tuple[int, int, int], float]:
    return dict(zip(map(tuple, x.entries.tolist()), x.values.tolist()))


class TestBuildTensor:
    def test_single_trip(self):
        x = build_tensor([Trip(9, 3, 7)], 10)
        assert as_dict(x) == {(9, 3, 7): 1.0}
        assert x.dims == (168, 10, 10)

    def test_duplicates_accumulate(self):
        x = build_tensor([Trip(9, 3, 7), Trip(9, 3, 7)], 10)
        assert as_dict(x)[(9, 3, 7)] == 2.0

    def test_entry_sum_conservation(self):
        rng = np.random.default_rng(1)
        trips = [Trip(int(rng.integers(0, 168)), int(rng.integers(0, 5)),
                      int(rng.integers(0, 5))) for _ in range(512)]
        assert build_tensor(trips, 5).values.sum() == 512

    def test_bounds(self):
        with pytest.raises(IndexError):
            build_tensor([Trip(168, 0, 0)], 5)
        with pytest.raises(IndexError):
            build_tensor([Trip(0, 5, 0)], 5)


def rank1_tensor():
    """Brute-force outer product of three known non-negative vectors."""
    rng = np.random.default_rng(7)
    t = rng.uniform(0.5, 2.0, 12)
    p = rng.uniform(0.5, 2.0, 8)
    d = rng.uniform(0.5, 2.0, 9)
    dense = t[:, None, None] * p[None, :, None] * d[None, None, :]
    entries = np.argwhere(dense)
    return MobilityTensor(dims=(12, 8, 9), entries=entries,
                          values=dense[tuple(entries.T)]), (t, p, d)


def exact_factor_set(t, p, d):
    scale = np.array([t.sum() * p.sum() * d.sum()])
    return FactorSet(time=(t / t.sum())[:, None], pickup=(p / p.sum())[:, None],
                     dropoff=(d / d.sum())[:, None], scale=scale)


class TestDecompose:
    def test_rank1_recovery(self):
        x, (t, p, d) = rank1_tensor()
        f, trace = ntf_decompose(x, 1)
        assert reconstruction_error(x, f) / x.frobenius_norm() < 1e-6
        assert cosine(f.time[:, 0], t) >= 0.999
        assert cosine(f.pickup[:, 0], p) >= 0.999
        assert cosine(f.dropoff[:, 0], d) >= 0.999
        assert trace.converged

    def test_fixed_seed_bit_identical(self):
        x, _ = rank1_tensor()
        f1, _ = ntf_decompose(x, 1, NtfOptions(seed=42))
        f2, _ = ntf_decompose(x, 1, NtfOptions(seed=42))
        assert np.array_equal(f1.time, f2.time)
        assert np.array_equal(f1.pickup, f2.pickup)
        assert np.array_equal(f1.dropoff, f2.dropoff)
        assert np.array_equal(f1.scale, f2.scale)

    def test_planted_three_components(self):
        x, generators = planted_rank3()
        f, trace = ntf_decompose(x, 3, NtfOptions(seed=42))
        assert best_match_min_cosine(f, generators) >= 0.95
        errors = np.asarray(trace.errors)
        assert (np.diff(errors) <= 1e-12).all()

    def test_trace_monotone_and_bounded_by_init(self):
        x, _ = rank1_tensor()
        _, trace = ntf_decompose(x, 2, NtfOptions(seed=11, max_iters=50, rel_tol=0.0))
        errors = np.asarray(trace.errors)
        assert (np.diff(errors) <= 1e-12).all()
        assert errors[-1] <= errors[0]

    def test_all_zero_tensor_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ntf_decompose(MobilityTensor(dims=(4, 4, 4), entries=np.empty((0, 3), dtype=np.intp),
                                         values=np.empty(0)), 1)

    def test_overcomplete_flagged(self):
        x, _ = rank1_tensor()
        _, trace = ntf_decompose(x, 9, NtfOptions(seed=1, max_iters=5))
        assert trace.overcomplete

    def test_bad_arguments(self):
        x, _ = rank1_tensor()
        with pytest.raises(ValueError):
            ntf_decompose(x, 0)
        with pytest.raises(ValueError):
            ntf_decompose(x, 1, NtfOptions(max_iters=0))

    def test_scale_identity_on_exact_fit(self):
        x, _ = rank1_tensor()
        f, _ = ntf_decompose(x, 1)
        # L1-normalized columns make the reconstruction mass equal sum(scale)
        assert f.scale.sum() == pytest.approx(x.values.sum(), rel=1e-9)

    def test_factor_invariants(self):
        x, _ = rank1_tensor()
        f, _ = ntf_decompose(x, 2, NtfOptions(seed=3, max_iters=20))
        for m in f.factors():
            assert (m >= 0).all() and np.isfinite(m).all()
            np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)
        assert f.r == len(f.scale) == 2

    @pytest.mark.usefixtures("sparse_path")
    @pytest.mark.parametrize("opts, converged", [
        (NtfOptions(seed=42, max_iters=500), True),
        (NtfOptions(seed=42, max_iters=4, rel_tol=0.0), False),
    ], ids=["rel_tol", "max_iters"])
    def test_iterations_count_the_sweeps(self, monkeypatch, opts, converged):
        """One MTTKRP per mode per sweep, plus the initial error's: iterations counts sweeps."""
        x, _ = planted_rank3()
        calls = []
        mttkrp = tensor._mttkrp
        monkeypatch.setattr(tensor, "_mttkrp", lambda *args: calls.append(1) or mttkrp(*args))
        _, trace = ntf_decompose(x, 3, opts)
        assert trace.iterations == len(trace.errors) - 1 and len(calls) == 1 + 3 * trace.iterations
        assert trace.converged is converged
        assert (trace.iterations < opts.max_iters) is converged


@pytest.mark.parametrize("field, value, message", [
    ("time", np.full((4, 2), 0.25), "time factor has 2 columns, expected r=1"),
    ("pickup", np.array([[1.5], [-0.5]]), "pickup factor entries must be finite and >= 0"),
    ("pickup", np.array([[np.nan], [1.0]]), "pickup factor entries must be finite and >= 0"),
    ("dropoff", np.array([[0.5], [0.6], [0.0]]), "dropoff factor columns are not L1-normalized"),
    ("scale", np.array([-1.0]), "scale must be a non-negative r-vector"),
    ("scale", np.ones((1, 1)), "scale must be a non-negative r-vector"),
    ("scale", np.ones(2), "time factor has 1 columns, expected r=2"),
], ids=["column_count", "negative_entry", "nan_entry", "not_l1", "negative_scale",
        "scale_shape", "scale_length"])
def test_factor_set_checks(field, value, message):
    parts = {"time": np.full((4, 1), 0.25), "pickup": np.full((2, 1), 0.5),
             "dropoff": np.array([[0.5], [0.5], [0.0]]), "scale": np.ones(1)}
    assert FactorSet(**parts).r == 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FactorSet(**(parts | {field: value}))


class TestReconstructionError:
    def test_exact_fit_is_zero(self):
        x, (t, p, d) = rank1_tensor()
        assert reconstruction_error(x, exact_factor_set(t, p, d)) < 1e-9

    def test_zero_reconstruction_gives_tensor_norm(self):
        x, _ = rank1_tensor()
        zero = FactorSet(time=np.full((12, 1), 1 / 12), pickup=np.full((8, 1), 1 / 8),
                         dropoff=np.full((9, 1), 1 / 9), scale=np.zeros(1))
        assert reconstruction_error(x, zero) == pytest.approx(x.frobenius_norm(), rel=1e-12)

    def test_shape_mismatch(self):
        x, _ = rank1_tensor()
        bad = FactorSet(time=np.full((5, 1), 0.2), pickup=np.full((8, 1), 1 / 8),
                        dropoff=np.full((9, 1), 1 / 9), scale=np.ones(1))
        with pytest.raises(ValueError):
            reconstruction_error(x, bad)


def test_save_load_roundtrip(tmp_path):
    x, _ = rank1_tensor()
    f, trace = ntf_decompose(x, 2, NtfOptions(seed=5, max_iters=30))
    save_factors(tmp_path, f, seed=5, trace=trace)
    loaded = load_factors(tmp_path)
    assert loaded.r == f.r
    assert np.array_equal(loaded.time, f.time)
    assert np.array_equal(loaded.pickup, f.pickup)
    assert np.array_equal(loaded.dropoff, f.dropoff)
    assert np.array_equal(loaded.scale, f.scale)


def test_trace_written_before_meta_sidecar(tmp_path, monkeypatch):
    """``factors_trace.csv`` holds every sweep's error, bit for bit, and belongs to the set."""
    x, _ = rank1_tensor()
    f, trace = ntf_decompose(x, 2, NtfOptions(seed=5, max_iters=30))
    save_factors(tmp_path, f, seed=5, trace=trace)
    with open(tmp_path / "factors_trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep", "error"]
    assert [int(s) for s, _ in rows[1:]] == list(range(trace.iterations + 1))
    assert [float(e) for _, e in rows[1:]] == trace.errors

    def interrupted(path, data):
        raise OSError("disk full")

    monkeypatch.setattr(tensor, "write_json", interrupted)
    with pytest.raises(OSError, match="disk full"):
        save_factors(tmp_path, f, seed=5, trace=trace)
    assert (tmp_path / "factors_trace.csv").is_file()
    assert not (tmp_path / "factors_meta.json").exists()


def test_load_without_meta_sidecar_fails(tmp_path):
    """Mode and scale files without the sidecar ``save_factors`` writes last are no factor set."""
    x, _ = rank1_tensor()
    f, trace = ntf_decompose(x, 2, NtfOptions(seed=5, max_iters=30))
    save_factors(tmp_path, f, seed=5, trace=trace)
    (tmp_path / "factors_meta.json").unlink()
    with pytest.raises(FileNotFoundError, match="factor files not found: .*factors_meta.json"):
        load_factors(tmp_path)


def random_coo(dims, nnz, r, seed):
    """Random sorted unique COO tensor with positive values, random factors and scale.

    Unless ``nnz`` fills the tensor, hour 0 has no entries.
    """
    rng = np.random.default_rng(seed)
    cells = np.prod(dims)
    first = 0 if nnz == cells else dims[1] * dims[2]
    flat = np.sort(rng.choice(np.arange(first, cells), size=nnz, replace=False))
    x = MobilityTensor(dims=dims, entries=np.column_stack(np.unravel_index(flat, dims)),
                       values=rng.uniform(0.1, 5.0, nnz))
    factors = [rng.random((dim, r)) for dim in dims]
    return x, factors, rng.uniform(0.5, 50.0, r)


# (dims, nnz, r, seed); every case but ((3, 2, 2), 12, 2, 4), which fills its tensor, leaves
# hour 0 without entries.
KERNEL_CASES = [((4, 3, 3), 1, 1, 0), ((6, 4, 5), 10, 1, 1), ((6, 4, 5), 30, 3, 2),
                ((168, 5, 5), 200, 4, 3), ((3, 2, 2), 12, 2, 4),
                ((168, 30, 30), 3000, 3, 5), ((3, 260, 260), 800, 2, 6)]


# The identity's error lies within about 3e-14 * |X| of the slice error, and within
# 2.5e-12 of it relatively, at err^2 >= 1e-4 |X|^2; the bounds leave a margin over that.
TRACE_TOL = 1e-12
IDENTITY_RTOL = 1e-11


def assert_trace_near(errors, oracle_errors, x):
    """Each sweep's error is within TRACE_TOL * |X| of the oracle's slice error."""
    assert len(errors) == len(oracle_errors)
    deviation = np.abs(np.subtract(errors, oracle_errors))
    assert (deviation <= TRACE_TOL * x.frobenius_norm()).all(), deviation.max()


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("dims, nnz, r, seed", KERNEL_CASES)
    def test_mttkrp(self, dims, nnz, r, seed):
        x, factors, _ = random_coo(dims, nnz, r, seed)
        *coords, vals = x.coords()
        for mode in range(3):
            got = tensor._mttkrp(coords, vals, factors, mode, dims)
            assert got.shape == (dims[mode], r)
            assert np.array_equal(got, addat_mttkrp(coords, vals, factors, mode, dims))

    @pytest.mark.parametrize("dims, nnz, r, seed", KERNEL_CASES)
    def test_error_from_slices(self, dims, nnz, r, seed):
        x, factors, scale = random_coo(dims, nnz, r, seed)
        *coords, vals = x.coords()
        assert (0 in coords[0]) == (nnz == np.prod(dims))
        assert tensor._error_from_slices(coords, vals, dims, factors, scale) == \
            dense_slice_error(coords, vals, dims, factors, scale)

    @pytest.mark.parametrize("dims, nnz, r, seed", KERNEL_CASES)
    def test_kernels_on_contiguous_coords(self, dims, nnz, r, seed):
        """The contiguous coordinate columns ``ntf_decompose`` passes give the oracles' bits."""
        x, factors, scale = random_coo(dims, nnz, r, seed)
        *views, vals = x.coords()
        coords = x.entries.T.copy()
        assert views[0].strides == (3 * views[0].itemsize,) and coords[0].flags.c_contiguous
        for mode in range(3):
            assert np.array_equal(tensor._mttkrp(coords, vals, factors, mode, dims),
                                  addat_mttkrp(views, vals, factors, mode, dims))
        assert tensor._error_from_slices(coords, vals, dims, factors, scale) == \
            dense_slice_error(views, vals, dims, factors, scale)

    @pytest.mark.parametrize("dims, nnz, r, seed", KERNEL_CASES)
    def test_error_from_gram(self, dims, nnz, r, seed, monkeypatch):
        """The fit identity, from the dropoff MTTKRP and the Grams, gives the slice error."""
        x, factors, scale = random_coo(dims, nnz, r, seed)
        coords, vals = x.entries.T.copy(), x.values
        monkeypatch.setattr(tensor, "_error_from_slices", None)  # far from a fit: no fallback
        got = tensor._error_from_gram(coords, vals, dims, factors, scale,
                                      [f.T @ f for f in factors], vals @ vals,
                                      tensor._mttkrp(coords, vals, factors, 2, dims))
        assert got == pytest.approx(dense_slice_error(coords, vals, dims, factors, scale),
                                    rel=IDENTITY_RTOL, abs=0)

    @pytest.mark.parametrize("size", [288, 1200])
    def test_decompose_takes_no_slices(self, size, monkeypatch):
        """Away from an exact fit no sweep builds a dense slice: a count of calls."""
        rng = np.random.default_rng(size)
        x = build_tensor(np.column_stack([rng.integers(0, 168, 30_000),
                                          rng.integers(0, size, (30_000, 2))]), size)
        calls = []
        monkeypatch.setattr(tensor, "_error_from_slices", lambda *args: calls.append(args) or
                            dense_slice_error(*args))
        _, trace = ntf_decompose(x, 7, NtfOptions(seed=1, max_iters=3, rel_tol=0.0))
        assert len(trace.errors) == 4 and len(calls) == 0

    @pytest.mark.parametrize("r, opts", [(1, NtfOptions()),
                                         (2, NtfOptions(seed=11, max_iters=500, rel_tol=0.0))],
                             ids=["exact_rank", "crosses_floor"])
    def test_converged_trace_from_slices(self, r, opts, monkeypatch):
        """Once err^2 < _IDENTITY_FLOOR * |X|^2 each entry is the slice error, bit for bit."""
        x, _ = rank1_tensor()
        sliced, slices = [], tensor._error_from_slices

        def spy(*args):
            sliced.append(slices(*args))
            assert sliced[-1] == dense_slice_error(*args)
            return sliced[-1]

        monkeypatch.setattr(tensor, "_error_from_slices", spy)
        f, trace = ntf_decompose(x, r, opts)
        near = np.square(trace.errors) < tensor._IDENTITY_FLOOR * (x.values @ x.values)
        assert 0 < len(sliced) < len(trace.errors)
        assert near.tolist() == [False] * (len(near) - len(sliced)) + [True] * len(sliced)
        assert trace.errors[-len(sliced):] == sliced
        assert trace.errors[-1] == reconstruction_error(x, f)

    def test_decompose_matches_oracle_at_city_size(self, city_space):
        """288 tracts: the slice error evaluates one hour per block, as on the ``city`` bench."""
        rng = np.random.default_rng(11)
        trips = np.column_stack([rng.integers(0, 168, 20_000),
                                 rng.integers(0, len(city_space), (20_000, 2))])
        x = build_tensor(trips, len(city_space))
        opts = NtfOptions(seed=3, max_iters=3, rel_tol=1e-12)
        f, trace = ntf_decompose(x, 4, opts)
        factors, scale, errors = oracle_decompose(x, 4, opts)
        for mine, theirs in zip((*f.factors(), f.scale), (*factors, scale)):
            assert np.array_equal(mine, theirs)
        assert trace.iterations == len(errors) - 1 == 3
        assert_trace_near(trace.errors, errors, x)

    @pytest.mark.usefixtures("sparse_path")
    def test_decompose_with_oracle_kernels(self, monkeypatch):
        x, _ = planted_rank3()
        opts = NtfOptions(seed=42, max_iters=60)
        f, trace = ntf_decompose(x, 3, opts)
        calls = []
        for name, oracle in (("_mttkrp", addat_mttkrp), ("_error_from_slices", dense_slice_error)):
            monkeypatch.setattr(tensor, name,
                                lambda *args, oracle=oracle: calls.append(oracle) or oracle(*args))
        g, oracle_trace = ntf_decompose(x, 3, opts)
        assert set(calls) == {addat_mttkrp, dense_slice_error}
        for mine, theirs in zip((*f.factors(), f.scale), (*g.factors(), g.scale)):
            assert np.array_equal(mine, theirs)
        assert trace.errors == oracle_trace.errors and trace.iterations == oracle_trace.iterations

    @pytest.mark.usefixtures("sparse_path")
    @pytest.mark.parametrize("case", ["planted", "random"])
    def test_decompose_matches_oracle_sweeps(self, case):
        x = planted_rank3()[0] if case == "planted" else random_coo((168, 6, 6), 300, 1, 5)[0]
        opts = NtfOptions(seed=7, max_iters=40)
        f, trace = ntf_decompose(x, 3, opts)
        factors, scale, errors = oracle_decompose(x, 3, opts)
        for mine, theirs in zip((*f.factors(), f.scale), (*factors, scale)):
            assert np.array_equal(mine, theirs)
        assert trace.iterations == len(errors) - 1
        assert_trace_near(trace.errors, errors, x)


# A dense MTTKRP sums the same non-negative terms as ``_mttkrp`` in another order, so each
# entry lies within a few ulps of it. Dense and sparse decompositions keep their factors and
# scale within FACTOR_TOL of each matrix's largest entry (at most 1.7e-15 measured on the
# rank-1 and planted rank-3 fits) and their error traces within TRACE_TOL * |X|.
DENSE_RTOL = 1e-13
FACTOR_TOL = 1e-12


def city_tensor(trips: int, seed: int) -> MobilityTensor:
    """Uniform random trips over 288 tracts: above the crossover from about 360k trips."""
    rng = np.random.default_rng(seed)
    return build_tensor(np.column_stack([rng.integers(0, 168, trips),
                                         rng.integers(0, 288, (trips, 2))]), 288)


def kernel_calls(monkeypatch, x, r, opts):
    """Decompose ``x``, recording each sparse MTTKRP's mode and each dense copy made."""
    sparse, dense = [], []
    mttkrp, dense_kernel = tensor._mttkrp, tensor._DenseMttkrp
    monkeypatch.setattr(tensor, "_mttkrp", lambda *args: sparse.append(args[3]) or mttkrp(*args))
    monkeypatch.setattr(tensor, "_DenseMttkrp", lambda x: dense.append(x) or dense_kernel(x))
    _, trace = ntf_decompose(x, r, opts)
    return sparse, dense, trace


class TestDenseSweep:
    @staticmethod
    def assert_matches_sparse(x, factors):
        """Each mode in sweep order, the pickup and dropoff modes sharing one time partial."""
        coords = x.entries.T.copy()

        def sparse(fs, mode):
            return tensor._mttkrp(coords, x.values, fs, mode, x.dims)

        kernel = tensor._DenseMttkrp(x)
        for mode in range(3):
            got = kernel(factors, mode)
            assert got.shape == (x.dims[mode], factors[0].shape[1])
            np.testing.assert_allclose(got, sparse(factors, mode), rtol=DENSE_RTOL, atol=0)
        partial = kernel.partial
        kernel(factors, 1)
        assert kernel.partial is partial  # formed once per time factor
        moved = [factors[0][::-1].copy(), *factors[1:]]
        np.testing.assert_allclose(kernel(moved, 2), sparse(moved, 2), rtol=DENSE_RTOL, atol=0)
        assert kernel.partial is not partial

    @pytest.mark.parametrize("dims, nnz, r, seed", KERNEL_CASES)
    def test_mttkrp_matches_sparse(self, dims, nnz, r, seed):
        x, factors, _ = random_coo(dims, nnz, r, seed)
        self.assert_matches_sparse(x, factors)

    def test_mttkrp_matches_sparse_at_city_size(self):
        x = city_tensor(500_000, 8)
        assert len(x.values) > tensor.DENSE_FILL * np.prod(x.dims)
        rng = np.random.default_rng(9)
        self.assert_matches_sparse(x, [rng.random((dim, 7)) for dim in x.dims])

    @pytest.mark.parametrize("case", ["planted", "rank1"])
    def test_decompositions_agree(self, case, monkeypatch):
        """The same sweeps to ``rel_tol`` on either path, to within rounding."""
        x, r = (planted_rank3()[0], 3) if case == "planted" else (rank1_tensor()[0], 1)
        runs = []
        for fill in (0.0, 1.0):  # every tensor, then none, takes the dense path
            monkeypatch.setattr(tensor, "DENSE_FILL", fill)
            runs.append(ntf_decompose(x, r, NtfOptions(seed=42)))
        (dense, dense_trace), (sparse, sparse_trace) = runs
        assert dense_trace.converged and sparse_trace.converged
        assert dense_trace.iterations == sparse_trace.iterations
        for mine, theirs in zip((*dense.factors(), dense.scale), (*sparse.factors(), sparse.scale)):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=FACTOR_TOL * theirs.max())
        assert_trace_near(dense_trace.errors, sparse_trace.errors, x)

    def test_below_the_crossover_every_mode_is_sparse(self, monkeypatch):
        x, _, _ = random_coo((168, 30, 30), 3000, 3, 5)
        assert len(x.values) < tensor.DENSE_FILL * np.prod(x.dims)
        sparse, dense, trace = kernel_calls(monkeypatch, x, 3, NtfOptions(max_iters=5))
        assert sparse == [2] + [0, 1, 2] * trace.iterations and dense == []

    def test_at_the_crossover_the_sweep_stays_sparse(self, monkeypatch):
        x, _ = planted_rank3()
        fill = len(x.values) / np.prod(x.dims)
        monkeypatch.setattr(tensor, "DENSE_FILL", fill)  # dense only strictly above it
        sparse, dense, trace = kernel_calls(monkeypatch, x, 3, NtfOptions(max_iters=5))
        assert sparse == [2] + [0, 1, 2] * trace.iterations and dense == []
        monkeypatch.setattr(tensor, "DENSE_FILL", fill * (1 - 1e-9))
        sparse, dense, _ = kernel_calls(monkeypatch, x, 3, NtfOptions(max_iters=5))
        assert sparse == [] and dense == [x]

    def test_over_the_budget_the_sweep_stays_sparse(self, monkeypatch):
        x, _ = rank1_tensor()  # full: above any crossover
        copy_bytes = 8 * np.prod(x.dims)
        monkeypatch.setattr(tensor, "DENSE_BYTES", copy_bytes - 1)
        sparse, dense, trace = kernel_calls(monkeypatch, x, 2, NtfOptions(max_iters=5))
        assert sparse == [2] + [0, 1, 2] * trace.iterations and dense == []
        monkeypatch.setattr(tensor, "DENSE_BYTES", copy_bytes)
        sparse, dense, _ = kernel_calls(monkeypatch, x, 2, NtfOptions(max_iters=5))
        assert sparse == [] and dense == [x]
