"""The one write path: every file tripflow writes replaces its target whole or not at all."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO


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


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON, keys sorted, with a final newline; whole or not at all."""
    with replaced(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
