"""What the package's CSV writers and readers are checked against.

:func:`csv_text` is every writer's oracle: each row through ``csv.writer``,
as the writers wrote their files before they wrote one string per row.
:data:`TEXT_CELLS` and :data:`FLOATS` draw the cells that test the quoting
and the float formatting.  :class:`Trickle` is a text stream that decodes
UTF-8 bytes a few at a time, so a reader meets short reads, and text that
is not UTF-8 only after the rows before it.
"""

from __future__ import annotations

import codecs
import csv
import io

from hypothesis import strategies as st

from daepos.errors import DaeposError


def csv_text(rows, comment: str | None = None) -> str:
    """``rows`` as ``csv.writer`` writes them, each row ended by ``\\n``, after a ``# comment`` line if one is given."""
    lines = [f"# {comment}\n"] if comment else []
    for row in rows:
        line = io.StringIO()
        # a "\r\n" terminator makes the writer quote cells holding "\r" as well as "\n"
        csv.writer(line, lineterminator="\r\n").writerow(row)
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines)


# separators, quotes, line breaks, characters str.splitlines breaks at, a leading space and the empty cell
TEXT_CELLS = st.one_of(
    st.sampled_from(["", '""', " lead", ",", '"', "\r", "\n", "\r\n", "\u2028", "\x1c", "a,b", 'say "hi"', "#c"]),
    st.text(st.sampled_from(' ,"#\r\n\x1c\x85\u2028ab'), max_size=6),
)

# signed zeros, subnormals and the largest magnitudes a difference of two of them keeps finite
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(-1e300, 1e300),
)


class Trickle:
    """A text stream over UTF-8 ``data`` that decodes ``step`` bytes per read.

    Bytes that are not UTF-8 raise ``UnicodeDecodeError`` in the read that reaches them.
    """

    def __init__(self, data: bytes, step: int):
        self.data, self.step, self.pos = data, step, 0
        self.decoder = codecs.getincrementaldecoder("utf-8")()

    def read(self, size=-1):
        text = ""
        while not text and self.pos < len(self.data):  # a character split between reads waits for its last byte
            chunk = self.data[self.pos : self.pos + self.step]
            self.pos += len(chunk)
            text = self.decoder.decode(chunk, final=self.pos == len(self.data))
        return text


def whole(data: bytes):
    """A text stream over UTF-8 ``data`` that reads as a file does."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def outcome(read):
    """``("ok", read())``, or the type, message and row of the package error ``read`` raises."""
    try:
        return "ok", read()
    except DaeposError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None)
