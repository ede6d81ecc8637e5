"""Time-series container, z-normalization, the Euclidean distance primitive and series files.

TimeSeries holds the input rules: one dimension, at least one value, every
value finite (load_series_text first names the line of a non-finite one).
z_normalize returns the normalized values as a read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def load_series_text(text: str) -> TimeSeries:
    """Parse the one-number-per-line series format.

    Blank lines and lines starting with '#' are ignored.  Values may be
    integers or decimals.  A line that is not a number, or whose value is
    not finite, is reported with its 1-based line number.
    """
    lines = text.splitlines()
    try:
        # the usual file: every line a bare number, parsed without a list of floats
        arr = np.fromiter(map(float, lines), np.float64, count=len(lines))
    except ValueError:
        arr = np.fromiter((value for _, _, value in _numbered(lines)), np.float64)
    if not np.isfinite(arr).all():
        # only the error path pays a second pass, to find the line
        lineno, line, _ = next(entry for entry in _numbered(lines) if not math.isfinite(entry[2]))
        raise ValueError(f"line {lineno}: not a finite number: {line!r}")
    return TimeSeries(arr)


def _numbered(lines):
    """Yield (line number from 1, stripped line, value) per line that is not blank or a '#' comment."""
    for lineno, raw in enumerate(lines, start=1):
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
    """Render values in the series file format, integers without a decimal point."""
    arr = np.asarray(values, dtype=np.float64)
    integral = np.isfinite(arr) & (arr == np.trunc(arr))
    if integral.all() and (np.abs(arr) < 2.0**63).all():
        # what ingest writes: one C-level format over int64s
        return ("%d\n" * arr.size) % tuple(arr.astype(np.int64).tolist()) or "\n"
    # %d prints an integral float as its integer; %r gives the shortest round-trip
    # repr.  Each format is 3 bytes, so the S3 array's bytes are the whole template.
    template = np.where(integral, b"%d\n", b"%r\n").tobytes().decode("ascii")
    return template % tuple(arr.tolist())
