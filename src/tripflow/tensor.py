"""Three-way trip tensor and non-negative CP decomposition.

The tensor axes are hour-of-week x pickup tract x dropoff tract. The
decomposition approximates it as a sum of r rank-1 components under a
squared-Frobenius objective, using per-mode multiplicative updates; each
component is one spatio-temporal mobility cluster.

Storage is sparse (coordinate list, the COO layout of Bader & Kolda 2007):
real trip tensors are mostly empty and synthetic test fixtures stay instant.
The decomposition's kernel follows the fill: its MTTKRPs sum over the
nonzeros while the tensor is sparser than ``DENSE_FILL``, and run as matrix
products on one dense copy above it, as long as the copy fits
``DENSE_BYTES``. It takes each sweep's error from the CP fit identity
err^2 = |X|^2 - 2<X, M> + s'(G_t * G_p * G_d)s, out of products its update
already holds. Dense model slices, one hour at a time, are built only by
``reconstruction_error`` and where a fit is close enough for the identity to
cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .files import write_csv, write_json
from .geo import HOURS_PER_WEEK
from .ingest import TripRows, trip_rows


@dataclass(frozen=True)
class MobilityTensor:
    """Sparse non-negative tensor in coordinate form; absent entries are zero.

    ``entries`` is an (nnz, 3) integer array of (hour, pickup, dropoff)
    coordinates, strictly increasing in C (row-major) order, so each entry is
    unique; ``values`` holds the matching positive values.
    """

    dims: tuple[int, int, int]
    entries: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (len(self.values), 3) or self.values.ndim != 1:
            raise ValueError(f"entries {self.entries.shape} and values {self.values.shape} "
                             f"are not (nnz, 3) and (nnz,)")
        # ravel_multi_index raises ValueError for a coordinate outside dims.
        if (np.diff(np.ravel_multi_index(self.entries.T, self.dims)) <= 0).any():
            raise ValueError("entries must be strictly increasing in C order "
                             "(sorted, without duplicates)")
        if not (self.values > 0).all():
            raise ValueError("entry values must be positive")
        self.entries.setflags(write=False)
        self.values.setflags(write=False)

    def frobenius_norm(self) -> float:
        return float(np.sqrt(self.values @ self.values))

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate arrays (hours, pickups, dropoffs, values) in C order."""
        return self.entries[:, 0], self.entries[:, 1], self.entries[:, 2], self.values


def build_tensor(trips: TripRows, size: int) -> MobilityTensor:
    """Accumulate trips into the hour x pickup x dropoff count tensor."""
    dims = (HOURS_PER_WEEK, size, size)
    cells, counts = np.unique(np.ravel_multi_index(trip_rows(trips, size).T, dims),
                              return_counts=True)
    return MobilityTensor(dims=dims, entries=np.column_stack(np.unravel_index(cells, dims)),
                          values=counts.astype(np.float64))


@dataclass(frozen=True)
class FactorSet:
    """Rank-r non-negative CP factors, one matrix per mode.

    Columns carry unit L1 norm; all magnitude lives in ``scale`` so component
    weights are directly comparable. A collapsed component keeps a uniform
    column with zero scale.
    """

    time: np.ndarray
    pickup: np.ndarray
    dropoff: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.scale.ndim != 1 or (self.scale < 0).any():
            raise ValueError("scale must be a non-negative r-vector")
        for name, m in (("time", self.time), ("pickup", self.pickup), ("dropoff", self.dropoff)):
            if m.shape[1] != self.r:
                raise ValueError(f"{name} factor has {m.shape[1]} columns, expected r={self.r}")
            if not np.isfinite(m).all() or (m < 0).any():
                raise ValueError(f"{name} factor entries must be finite and >= 0")
            colsums = m.sum(axis=0)
            if np.abs(colsums - 1.0).max() > 1e-9:
                raise ValueError(f"{name} factor columns are not L1-normalized")
            m.setflags(write=False)
        self.scale.setflags(write=False)

    @property
    def r(self) -> int:
        """The number of components: one per scale entry."""
        return len(self.scale)

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.time, self.pickup, self.dropoff


@dataclass(frozen=True)
class NtfOptions:
    seed: int = 42
    max_iters: int = 500
    rel_tol: float = 1e-6


@dataclass
class DecompositionTrace:
    """Objective history; errors[0] is the error of the random initialization.

    Each entry is the Frobenius error, from the CP fit identity or, near an exact
    fit, from the dense slices; the two agree to about 1e-12 relative, so the
    history is non-increasing to within that rounding.
    """

    errors: list[float] = field(default_factory=list)
    converged: bool = False
    overcomplete: bool = False

    @property
    def iterations(self) -> int:
        """The number of sweeps run: one error per sweep after the initial one."""
        return len(self.errors) - 1


def _mttkrp(coords, vals, factors, mode, dims):
    """Matricized-tensor-times-Khatri-Rao product for one mode: a ``bincount`` per component."""
    a, b = (m for m in range(3) if m != mode)
    return np.column_stack([
        np.bincount(coords[mode], weights=vals * fa.take(coords[a]) * fb.take(coords[b]),
                    minlength=dims[mode])
        for fa, fb in zip(factors[a].T, factors[b].T)])


# The sweep's kernel follows the fill nnz / cells. A sweep's three MTTKRPs cost about
# 11 ns per nonzero and component on the sparse path, and 0.2-0.25 ns per cell and
# component on the dense one at any fill (2-vCPU Xeon VM, one OpenBLAS thread, r = 4 and
# 7, 100 and 288 tracts): the two cross between 1.9% and 2.5% fill, and on 20 tracts the
# dense one is faster from 1% up. The dense copy costs 8 bytes a cell; 2^28 bytes admits
# 288 tracts (111 MB) and keeps 1,200 (1.9 GB) sparse.
DENSE_FILL = 1 / 40
DENSE_BYTES = 2**28


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: row i * len(b) + j is a[i] * b[j]."""
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


class _DenseMttkrp:
    """Every mode's MTTKRP from one dense ``(hours, pickups * dropoffs)`` copy of the tensor.

    The time mode is one matrix product with the Khatri-Rao product of the pickup
    and dropoff factors. The pickup and dropoff modes both contract the partial
    time' X, shaped (r, pickups, dropoffs), which depends on the time factor
    alone; it is formed once per time factor and shared between the two (Phan,
    Tichavsky & Cichocki, IEEE TSP 2013; Kolda & Bader, SIAM Rev. 2009).
    """

    def __init__(self, x: MobilityTensor):
        dense = np.zeros(x.dims)
        dense[tuple(x.entries.T)] = x.values
        self.matrix = dense.reshape(x.dims[0], -1)
        self.time = self.partial = None

    def __call__(self, factors, mode):
        time, pickup, dropoff = factors
        if mode == 0:
            return self.matrix @ _khatri_rao(pickup, dropoff)
        if self.time is not time:  # each update replaces the factor array, so identity suffices
            self.time = time
            self.partial = (time.T @ self.matrix).reshape(-1, len(pickup), len(dropoff))
        if mode == 1:
            return np.einsum("jpd,dj->pj", self.partial, dropoff)
        return np.einsum("jpd,pj->dj", self.partial, pickup)


def _normalize_columns(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a non-negative matrix into L1-unit columns and their norms.

    Collapsed (all-zero) columns become uniform so the unit-norm invariant
    holds; their norm is zero, so the reconstruction is unaffected.
    """
    norms = scaled.sum(axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    normalized = scaled / safe
    dead = norms == 0
    if dead.any():
        normalized[:, dead] = 1.0 / scaled.shape[0]
    return normalized, norms


UPDATE_FLOOR = 1e-12  # floor of the multiplicative update's denominator: no division by 0
# Below this fraction of |X|^2 the identity's err^2 has cancelled to a relative error of
# about eps / 1e-4 = 2e-12, so the error comes from the slices instead.
_IDENTITY_FLOOR = 1e-4


def _error_from_slices(coords, vals, dims, factors, scale) -> float:
    """Exact Frobenius reconstruction error, accumulated hour slice by hour slice.

    Each hour's dense model slice, minus that hour's entries in place, is the
    residual; its squared sum is cancellation-free, so the error keeps its
    relative precision however close the fit.
    """
    hours, pickups, dropoffs = coords  # sorted by hour and unique, as MobilityTensor keeps them
    tfac, pfac, dfac = factors
    boundaries = np.searchsorted(hours, np.arange(dims[0] + 1))
    err2 = 0.0
    for h in range(dims[0]):
        residual = (pfac * (scale * tfac[h])) @ dfac.T
        lo, hi = boundaries[h], boundaries[h + 1]
        residual[pickups[lo:hi], dropoffs[lo:hi]] -= vals[lo:hi]
        np.square(residual, out=residual)
        err2 += float(residual.sum())  # in hour order: builtin sum() compensates on 3.12+
    return float(np.sqrt(max(err2, 0.0)))


def _error_from_gram(coords, vals, dims, factors, scale, grams, norm2, dropoff_mttkrp) -> float:
    """Frobenius reconstruction error from the CP fit identity (Bader & Kolda, SISC 2007).

    err^2 = |X|^2 - 2<X, M> + |M|^2, with |X|^2 = ``norm2``, <X, M> from the
    dropoff-mode MTTKRP of the time and pickup factors, and |M|^2 =
    s'(G_t * G_p * G_d)s from the factor Grams ``grams``. Where err^2 falls
    below ``_IDENTITY_FLOOR`` * |X|^2 the difference has lost too many digits
    to cancellation, and the error comes from ``_error_from_slices`` instead.
    """
    inner = ((dropoff_mttkrp * factors[2]) @ scale).sum()
    err2 = norm2 - 2.0 * inner + scale @ (grams[0] * grams[1] * grams[2]) @ scale
    if err2 < _IDENTITY_FLOOR * norm2:
        return _error_from_slices(coords, vals, dims, factors, scale)
    return float(np.sqrt(err2))


def reconstruction_error(x: MobilityTensor, f: FactorSet) -> float:
    """Frobenius norm of the difference between the tensor and its CP model."""
    if (x.dims[0], x.dims[1], x.dims[2]) != (f.time.shape[0], f.pickup.shape[0], f.dropoff.shape[0]):
        raise ValueError(f"tensor dims {x.dims} do not match factor shapes")
    return _error_from_slices(x.coords()[:3], x.values, x.dims,
                              (f.time, f.pickup, f.dropoff), f.scale)


def ntf_decompose(x: MobilityTensor, r: int,
                  opts: NtfOptions = NtfOptions()) -> tuple[FactorSet, DecompositionTrace]:
    """Rank-r non-negative CP decomposition by multiplicative updates.

    Each sweep updates one mode at a time: the scale vector is absorbed into
    the mode being updated, the factor is rescaled by the ratio of the sparse
    MTTKRP to the Gram-matrix denominator (floored at ``UPDATE_FLOOR``), and
    the columns are L1-renormalized with the magnitude swept back into scale.
    Per-mode updates never increase the squared-Frobenius objective, so the
    recorded error trace is non-increasing to within rounding. Deterministic
    for a fixed seed.

    The MTTKRP kernel is chosen once, from the fill nnz / cells: above
    ``DENSE_FILL``, and if a float64 copy of every cell fits ``DENSE_BYTES``,
    each sweep runs on that dense copy (``_DenseMttkrp``: one matrix product for
    the time mode, one time partial shared by the pickup and dropoff modes);
    otherwise each mode is the sparse ``_mttkrp``. The two sum the same terms
    in another order, so their factors agree to rounding, not bit for bit.

    Each recorded error comes from the CP fit identity (``_error_from_gram``),
    whose inner product is the sweep's last, dropoff-mode MTTKRP taken with the
    updated factors and scale, so no error costs a pass over dense slices.
    Near an exact fit, where the identity cancels, the error is the slice
    evaluator's, bit for bit what ``reconstruction_error`` returns.

    Stops when the relative error change drops below ``opts.rel_tol`` or
    after ``opts.max_iters`` sweeps. r above min(dims) is allowed but flagged
    as over-complete in the trace.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if opts.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if len(x.values) == 0:
        raise ValueError("degenerate input: tensor has no nonzero entries")

    dims, vals = x.dims, x.values
    cells = dims[0] * dims[1] * dims[2]
    dense = len(vals) > DENSE_FILL * cells and 8 * cells <= DENSE_BYTES
    coords = x.coords()[:3] if dense else x.entries.T.copy()  # contiguous for sparse gathers
    mttkrp = _DenseMttkrp(x) if dense else \
        (lambda factors, mode: _mttkrp(coords, vals, factors, mode, dims))

    rng = np.random.default_rng(opts.seed)
    factors = []
    scale = np.ones(r)
    for dim in dims:
        raw = 1.0 - rng.random((dim, r))  # uniform in (0, 1]
        normalized, norms = _normalize_columns(raw)
        factors.append(normalized)
        scale *= norms

    trace = DecompositionTrace(overcomplete=r > min(dims))
    norm2 = vals @ vals
    norm_x = x.frobenius_norm()
    grams = [f.T @ f for f in factors]
    trace.errors.append(_error_from_gram(coords, vals, dims, factors, scale, grams, norm2,
                                         mttkrp(factors, 2)))

    for _ in range(opts.max_iters):
        for mode in range(3):
            scaled = factors[mode] * scale
            numerator = mttkrp(factors, mode)
            a, b = (m for m in range(3) if m != mode)
            denominator = scaled @ (grams[a] * grams[b])
            scaled *= numerator / np.maximum(denominator, UPDATE_FLOOR)
            factors[mode], scale = _normalize_columns(scaled)
            grams[mode] = factors[mode].T @ factors[mode]

        # numerator: the dropoff mode's MTTKRP, of this sweep's time and pickup factors
        err = _error_from_gram(coords, vals, dims, factors, scale, grams, norm2, numerator)
        trace.errors.append(err)
        prev = trace.errors[-2]
        if abs(prev - err) <= opts.rel_tol * norm_x:  # change in relative error
            trace.converged = True
            break

    return FactorSet(*factors, scale=scale), trace


# --- serialization -----------------------------------------------------------

_MODE_FILES = {"time": "factors_time.csv", "pickup": "factors_pickup.csv",
               "dropoff": "factors_dropoff.csv"}


def save_factors(directory, f: FactorSet, *, seed: int, trace: DecompositionTrace) -> None:
    """Write each mode's CSV, the scale, the error trace, then the sidecar marking the set whole."""
    (directory / "factors_meta.json").unlink(missing_ok=True)
    for mode, filename in _MODE_FILES.items():
        write_csv(directory / filename, ["index", *(f"c{c}" for c in range(f.r))],
                  ([i, *map(repr, row)] for i, row in enumerate(getattr(f, mode).tolist())))
    write_csv(directory / "factors_scale.csv", ["component", "scale"],
              ([c, repr(s)] for c, s in enumerate(f.scale.tolist())))
    write_csv(directory / "factors_trace.csv", ["sweep", "error"],
              enumerate(map(repr, trace.errors)))  # sweep 0: the random initialization
    write_json(directory / "factors_meta.json", {
        "r": f.r, "seed": seed, "iterations": trace.iterations, "final_error": trace.errors[-1],
        "converged": trace.converged, "overcomplete": trace.overcomplete})


def load_factors(directory) -> FactorSet:
    if not (directory / "factors_meta.json").is_file():  # written last: the set is whole
        raise FileNotFoundError(f"factor files not found: {directory / 'factors_meta.json'}")
    matrices = {mode: np.loadtxt(directory / filename, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
                for mode, filename in _MODE_FILES.items()}
    scale = np.loadtxt(directory / "factors_scale.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    return FactorSet(time=matrices["time"], pickup=matrices["pickup"],
                     dropoff=matrices["dropoff"], scale=scale)
