"""Reading and writing the package's CSV files, from paths or text streams.

Every file the package writes may start with one ``# comment`` line (the
provenance stamp), and every reader skips leading ``#`` lines.  Rows end in
``\\n``; a cell holding ``\\r`` or ``\\n`` is quoted, and reads back intact.
Files are read in chunks, one row at a time, so a reader never holds the
whole text.  A path is read as UTF-8 after an optional byte-order mark, and
written as UTF-8 without one.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

from .errors import FormatError

_CHUNK = 1 << 16  # characters per read
# a "\r\n" terminator makes the writer quote cells holding "\r" as well as "\n"
_DIALECT = {"lineterminator": "\r\n"}


def _opened(target, mode: str):
    """``target`` itself when it is a stream, else the file at that path, opened."""
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(os.fspath(target), mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="")


def _physical_lines(stream):
    """The lines of a text stream with their ends, broken only at ``\\r``, ``\\n`` or ``\\r\\n``.

    ``str.splitlines`` also breaks at characters such as U+2028 or ``\\x1c``,
    which a cell may hold; those pieces are joined back.  A line that ends a
    read without ``\\n`` waits for the next read, which may complete it or a
    ``\\r\\n`` split between the two.
    """
    line = ""
    while chunk := stream.read(_CHUNK):
        pieces = (line + chunk).splitlines(keepends=True)
        line = ""
        for piece in pieces[:-1]:
            line += piece
            if piece.endswith(("\n", "\r")):
                yield line
                line = ""
        line += pieces[-1]
        if line.endswith("\n"):
            yield line
            line = ""
    if line:
        yield line


@contextmanager
def csv_rows(source):
    """An iterator over the non-empty CSV rows of a path or text stream, leading ``#`` lines skipped.

    Text that is not UTF-8, or that ``csv`` cannot read, raises a ``FormatError`` naming the file.
    """
    with _opened(source, "r") as stream:
        lines = itertools.dropwhile(lambda line: line.lstrip().startswith("#"), _physical_lines(stream))
        yield _format_errors(filter(None, csv.reader(lines)), getattr(stream, "name", "input"))


def _format_errors(rows, name):
    try:
        yield from rows
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{name}: malformed CSV: {exc}") from None


@contextmanager
def csv_writer(dest, comment: str | None = None):
    """A ``csv.writer`` on a path or text stream, after a ``# comment`` line if one is given."""
    with line_writer(dest, comment) as write:
        # the writer writes each row in one call, and the row's "\r\n" becomes "\n" here
        yield csv.writer(SimpleNamespace(write=lambda row: write(row[:-2] + "\n")), **_DIALECT)


@contextmanager
def line_writer(dest, comment: str | None = None):
    """The ``write`` of a path or text stream, after a ``# comment`` line if one is given.

    Each call must write whole ``\n``-ended lines, their cells made by :func:`csv_cell`.
    """
    with _opened(dest, "w") as stream:
        if comment:
            stream.write(f"# {comment}\n")
        yield stream.write


def csv_cell(text: str) -> str:
    """``text`` as :func:`csv_writer` writes it in a row of two or more cells: quoted if it must be, else itself."""
    row = io.StringIO()
    csv.writer(row, **_DIALECT).writerow((text, ""))
    cell = row.getvalue()[:-3]  # less the empty cell's "," and the "\r\n"
    return text if cell == text else cell
