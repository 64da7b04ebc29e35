"""The one write path: every file tripflow writes replaces its target whole or not at all."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

_CHUNK_BYTES = 1 << 20  # `write_int_rows` formats about this much text at a time


@contextmanager
def replaced(path) -> Iterator[TextIO]:
    """Open a temporary file beside ``path`` that replaces it only when the block completes.

    The one write path for every file tripflow writes: on any error the temporary
    file is removed and an earlier ``path`` stays as it was, never truncated.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_csv(path, header: Sequence, rows: Iterable[Sequence],
              lineterminator: str = "\r\n") -> None:
    """Write a header row and the rows as CSV, whole or not at all."""
    with replaced(path) as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def write_int_rows(path, rows: np.ndarray, header: Optional[Sequence] = None,
                   lineterminator: str = "\r\n") -> None:
    """Write integers >= 0 with the bytes that ``csv.writer`` writes for ``rows.tolist()``,
    after a ``header`` row when given; whole or not at all."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or not rows.shape[1] or (rows < 0).any():
        raise ValueError(f"expected a matrix of integers >= 0, got shape {rows.shape}")
    digits, end = len(str(rows.max(initial=0))), list(lineterminator.encode())
    step = max(1, _CHUNK_BYTES // (rows.shape[1] * (digits + len(end))))  # rows a chunk
    with replaced(path) as fh:
        if header is not None:
            csv.writer(fh, lineterminator=lineterminator).writerow(header)
        for lo in range(0, len(rows), step):  # int32 divides faster than int64
            left = rows[lo:lo + step].astype(np.int32 if digits < 10 else np.int64)
            text = np.zeros((*left.shape, digits + len(end)), dtype=np.uint8)  # a field a value
            text[:, :-1, digits], text[:, -1, digits:] = ord(","), end
            for place in range(digits - 1, -1, -1):  # left: each value less the places written
                rest = left // 10
                text[..., place] = (left - rest * 10 + ord("0")).astype(np.uint8) * (left > 0)
                left = rest  # a place with nothing left stays NUL, no leading zero ...
            text[..., digits - 1] |= ord("0")  # ... but a 0 keeps its one digit
            fh.write(np.compress(text.ravel() > 0, text.ravel()).tobytes().decode())


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON, keys sorted, with a final newline; whole or not at all."""
    with replaced(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
