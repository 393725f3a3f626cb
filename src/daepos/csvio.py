"""Reading and writing the package's CSV files, from paths or text streams.

Every file the package writes may start with one ``# comment`` line (the
provenance stamp), and every reader skips leading ``#`` lines.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, nullcontext


def _opened(target, mode: str):
    """``target`` itself when it is a stream, else the file at that path, opened."""
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(os.fspath(target), mode, encoding="utf-8", newline="")


def read_csv_rows(source) -> list[list[str]]:
    """The non-empty CSV rows of a path or text stream, leading ``#`` lines skipped."""
    with _opened(source, "r") as stream:
        lines = stream.read().splitlines()
    start = 0
    while start < len(lines) and lines[start].lstrip().startswith("#"):
        start += 1
    return [row for row in csv.reader(lines[start:]) if row]


@contextmanager
def csv_writer(dest, comment: str | None = None):
    """A ``csv.writer`` on a path or text stream, after a ``# comment`` line if one is given."""
    with _opened(dest, "w") as stream:
        if comment:
            stream.write(f"# {comment}\n")
        yield csv.writer(stream, lineterminator="\n")
