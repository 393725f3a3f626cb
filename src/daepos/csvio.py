"""Reading and writing the package's CSV files, from paths or text streams.

Every file the package writes may start with one ``# comment`` line (the
provenance stamp), and every reader skips leading ``#`` lines.  Rows end in
``\\n``; a cell holding ``\\r`` or ``\\n`` is quoted, and reads back intact.
"""

from __future__ import annotations

import csv
import itertools
import os
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace


def _opened(target, mode: str):
    """``target`` itself when it is a stream, else the file at that path, opened."""
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(os.fspath(target), mode, encoding="utf-8", newline="")


def _physical_lines(text: str):
    """The lines of ``text`` with their ends, broken only at ``\\r``, ``\\n`` or ``\\r\\n``.

    ``str.splitlines`` also breaks at characters such as U+2028 or ``\\x1c``,
    which a cell may hold; those pieces are joined back.
    """
    pending = ""
    for piece in text.splitlines(keepends=True):
        pending += piece
        if piece.endswith(("\n", "\r")):
            yield pending
            pending = ""
    if pending:
        yield pending


def read_csv_rows(source) -> list[list[str]]:
    """The non-empty CSV rows of a path or text stream, leading ``#`` lines skipped."""
    with _opened(source, "r") as stream:
        text = stream.read()
    lines = itertools.dropwhile(lambda line: line.lstrip().startswith("#"), _physical_lines(text))
    return [row for row in csv.reader(lines) if row]


@contextmanager
def csv_writer(dest, comment: str | None = None):
    """A ``csv.writer`` on a path or text stream, after a ``# comment`` line if one is given."""
    with _opened(dest, "w") as stream:
        if comment:
            stream.write(f"# {comment}\n")
        # a "\r\n" terminator makes the writer quote cells holding "\r" as well as "\n";
        # it writes each row in one call, and the row's "\r\n" becomes "\n" here
        rows = SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
        yield csv.writer(rows, lineterminator="\r\n")
