"""Time-series container, z-normalization, the Euclidean distance primitive and series files.

TimeSeries holds the input rules: one dimension, at least one value, every
value finite (load_series_text first names the line of a non-finite one).
z_normalize returns the normalized values as a read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An ordered sequence of finite real (or integer-valued) observations."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size == 0:
            raise ValueError("empty input")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        arr = arr + 0.0  # fold -0.0 into +0.0 so equal values hash equally
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def z_normalize(series: TimeSeries) -> np.ndarray:
    """Globally z-normalize a series; returns the read-only normalized values.

    Uses the population standard deviation (divide by m, not m-1).  A
    constant series maps to all zeros rather than erroring; a constant run
    is valid input and yields a single repeated symbol downstream.

    The statistics are computed on the series divided by 2**k, with
    2**k <= max |x| < 2**(k+1).  Division by a power of two is exact, so
    wherever no intermediate value is subnormal this gives the same bits as
    computing on the raw values; it also keeps the values finite for every
    finite series, including magnitudes near 1e308 (whose squares overflow)
    and tiny spreads (whose squares underflow).
    """
    arr = series.values
    if arr.min() == arr.max():
        out = np.zeros_like(arr)
    else:
        _, exponent = np.frexp(np.abs(arr).max())
        unit = arr / math.ldexp(1.0, int(exponent) - 1)
        # |unit| reaches 1 and the series is not constant, so its std is well above 0
        out = (unit - float(unit.mean())) / float(unit.std())
    out.flags.writeable = False
    return out


def euclidean_distance(x, y) -> float:
    """Plain Euclidean distance between two equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    return float(np.sqrt(np.sum((x - y) ** 2)))


# characters per piece of text, and values per slice in dump_series_text; tests may lower it
_PIECE = 1 << 16


def _pieces(source):
    """Yield the text of source, a str or a file open for text, in pieces.

    The text is taken _PIECE characters at a time, and each piece ends right
    after the last '\n' taken so far; the rest is carried into the next
    piece.  '\n' always ends a str.splitlines() line, and '\r\n', the one
    two-character boundary, ends in it, so the pieces' lines are exactly the
    text's lines.  The last piece is the text after the last '\n', perhaps
    empty, so a text with no '\n' is one piece.
    """
    if isinstance(source, str):
        chunks = (source[begin : begin + _PIECE] for begin in range(0, len(source), _PIECE))
    else:
        chunks = iter(partial(source.read, _PIECE), "")
    held = []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            held.append(chunk[:cut])
            yield "".join(held)
            held = []
            chunk = chunk[cut:]
        held.append(chunk)
    yield "".join(held)


def load_series_text(text: str) -> TimeSeries:
    """Parse the one-number-per-line series format.

    Blank lines and lines starting with '#' are ignored.  Values may be
    integers or decimals.  A line that is not a number, or whose value is
    not finite, is reported with its 1-based line number.

    The text is parsed a piece at a time, and a piece ends only after a
    '\n', which ends a line whatever the line break before it; so no line is
    split, and only one piece's lines are held as strings at once.
    """
    parts = []
    before = 0  # lines in the pieces already parsed
    for piece in _pieces(text):
        lines = piece.splitlines()
        try:
            # the usual file: every line a bare number, parsed without a list of floats
            parts.append(np.fromiter(map(float, lines), np.float64, count=len(lines)))
        except ValueError:
            parts.append(np.fromiter((value for _, _, value in _numbered(lines, before)), np.float64))
        before += len(lines)
    arr = np.concatenate(parts)
    if not np.isfinite(arr).all():
        # only the error path pays a second pass, to find the line
        lines = (line for piece in _pieces(text) for line in piece.splitlines())
        lineno, line, _ = next(entry for entry in _numbered(lines) if not math.isfinite(entry[2]))
        raise ValueError(f"line {lineno}: not a finite number: {line!r}")
    return TimeSeries(arr)


def _numbered(lines, before=0):
    """Yield (line number, stripped line, value) per line that is not blank or a '#' comment.

    Line numbers count from before + 1.
    """
    for lineno, raw in enumerate(lines, start=before + 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                yield lineno, line, float(line)
            except ValueError:
                raise ValueError(f"line {lineno}: not a number: {line!r}") from None


def load_series_file(path) -> TimeSeries:
    # utf-8-sig skips a leading byte-order mark, as load_syscall_map does
    with open(path, "r", encoding="utf-8-sig") as fh:
        return load_series_text(fh.read())


def dump_series_text(values) -> str:
    """Render values in the series file format, integers without a decimal point.

    The values are formatted _PIECE at a time and the pieces joined, so only
    one slice's Python numbers exist at once.
    """
    arr = np.asarray(values, dtype=np.float64)
    integral = np.isfinite(arr) & (arr == np.trunc(arr))
    # what ingest writes: %d over int64s, each slice cast on its own
    cast = integral.all() and (np.abs(arr) < 2.0**63).all()
    pieces = []
    for begin in range(0, arr.size, _PIECE):
        part = slice(begin, begin + _PIECE)
        numbers = arr[part].astype(np.int64) if cast else arr[part]
        # %d prints an integral float as its integer; %r gives the shortest round-trip
        # repr.  Each format is 3 bytes, so the S3 array's bytes are the slice's template.
        template = np.where(integral[part], b"%d\n", b"%r\n").tobytes().decode("ascii")
        pieces.append(template % tuple(numbers.tolist()))
    return "".join(pieces) or "\n"
