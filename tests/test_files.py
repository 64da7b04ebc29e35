"""write_int_rows against its oracle, csv.writer on the same rows as Python lists."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripflow import files
from tripflow.files import write_int_rows

TERMINATORS = ["\r\n", "\n"]


def csv_bytes(rows: np.ndarray, header=None, lineterminator: str = "\r\n") -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator=lineterminator)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows.tolist())
    return fh.getvalue().encode()


@st.composite
def int_matrices(draw):
    """Non-negative int64 matrices, 0 to 30 rows of 1 to 5 columns, values near digit edges."""
    shape = (draw(st.integers(0, 30)), draw(st.integers(1, 5)))
    edges = st.sampled_from([0, 1, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1])
    values = draw(st.lists(st.one_of(edges, st.integers(0, 2**63 - 1), st.integers(0, 200)),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(values, dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.sampled_from(TERMINATORS), st.sampled_from([None, ["a", "b,c"]]),
       st.sampled_from([1, 5, 64, files._CHUNK_BYTES]))
def test_bytes_are_csv_writers(tmp_path_factory, rows, lineterminator, header, chunk):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    with mock.patch.object(files, "_CHUNK_BYTES", chunk):  # chunks down to one row each
        write_int_rows(path, rows, header, lineterminator)
    assert path.read_bytes() == csv_bytes(rows, header, lineterminator)


@pytest.mark.parametrize("lineterminator", TERMINATORS)
@pytest.mark.parametrize("rows", [
    np.array([[0, 9, 10, 2**63 - 1]]),
    np.array([[0], [9], [10], [2**63 - 1]]),  # one column
    np.zeros((0, 3), dtype=np.int64),  # zero rows
    np.zeros((4, 2), dtype=np.int64),
], ids=["edges", "one_column", "zero_rows", "zeros"])
def test_edge_values(tmp_path, rows, lineterminator):
    path = tmp_path / "rows.csv"
    write_int_rows(path, rows, lineterminator=lineterminator)
    assert path.read_bytes() == csv_bytes(rows, lineterminator=lineterminator)
    write_int_rows(path, rows, ["x"] * rows.shape[1], lineterminator)
    assert path.read_bytes() == csv_bytes(rows, ["x"] * rows.shape[1], lineterminator)


def test_rows_across_chunks(tmp_path):
    rows = np.arange(3 * 150_000, dtype=np.int64).reshape(-1, 3) % 1000
    # 3 fields of 3 digits and a comma or "\r\n": over 15 bytes a row, so three chunks or more
    assert len(rows) * 15 > 2 * files._CHUNK_BYTES
    path = tmp_path / "rows.csv"
    write_int_rows(path, rows, ["a", "b", "c"])
    assert path.read_bytes() == csv_bytes(rows, ["a", "b", "c"])


@pytest.mark.parametrize("rows", [np.array([[1, -1]]), np.array([[1, 2], [3, -2**63]]),
                                  np.arange(3), np.zeros((2, 0), dtype=np.int64)],
                         ids=["negative", "int64_min", "vector", "no_columns"])
def test_bad_rows_raise_and_leave_the_file(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_int_rows(path, np.array([[1, 2]]))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="expected a matrix of integers >= 0"):
        write_int_rows(path, rows)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_failure_after_some_chunks_leaves_the_file(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    write_int_rows(path, np.array([[1, 2]]))
    before = path.read_bytes()
    compress, calls = np.compress, []

    def disk_full_at_third_chunk(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("disk full")
        return compress(*args)

    monkeypatch.setattr(files, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(files.np, "compress", disk_full_at_third_chunk)
    with pytest.raises(OSError, match="disk full"):
        write_int_rows(path, np.arange(3000).reshape(-1, 3))  # two chunks written first
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
