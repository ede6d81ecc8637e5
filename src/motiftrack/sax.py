"""Symbol-matrix construction.

A normalized series is discretized one sliding window at a time: the mean of
each length-s window is bucketed against equiprobable Gaussian breakpoints
and rendered as a single alphabet symbol.  The breakpoints are the a - 1
quantiles of N(0,1) that SAX keeps as a fixed table, here computed by the
standard library's statistics.NormalDist.  Multi-symbol words are assembled
later by the tracker engine, so there is no frame-wise PAA step here.
SymbolMatrix holds the bucket indices as letters; this module alone spells
them, bucket i as ALPHABET[i].
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_ALPHABET_CODES = np.frombuffer(ALPHABET.encode("ascii"), np.uint8)


@dataclass(frozen=True)
class SaxConfig:
    """symbol_length is the number of points per symbol window."""

    symbol_length: int
    alphabet_size: int

    def __post_init__(self):
        if self.symbol_length < 1:
            raise ValueError("symbol length must be positive")
        if self.alphabet_size < 2:
            raise ValueError("alphabet too small")
        if self.alphabet_size > len(ALPHABET):
            raise ValueError("alphabet too large (symbols render as a-z)")


def gaussian_breakpoints(alphabet_size: int) -> tuple[float, ...]:
    """The a - 1 ascending cuts carving N(0,1) into alphabet_size equal-probability areas.

    cuts[i] is the (i+1)/a quantile of the standard normal distribution, as
    statistics.NormalDist().inv_cdf gives it.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet too small")
    gaussian = NormalDist()
    return tuple(gaussian.inv_cdf(i / alphabet_size) for i in range(1, alphabet_size))


def window_symbol(window, cuts: tuple[float, ...]) -> int:
    """Bucket index of the window mean; bucket 0 is lowest.

    A mean sitting exactly on a cut goes to the higher bucket, so the index
    is the count of cuts <= mean.  The tie rule must be fixed globally:
    integer-valued data lands exactly on breakpoints after normalization.
    """
    mean = float(np.mean(np.asarray(window, dtype=np.float64)))
    return int(np.searchsorted(cuts, mean, side="right"))


@dataclass(frozen=True, eq=False)
class SymbolMatrix:
    """One symbol per sliding window; letters[i] is the bucket index of the window at point i."""

    letters: np.ndarray
    config: SaxConfig

    @property
    def symbols(self) -> str:
        """The letters spelled in ALPHABET, one character per window."""
        return _ALPHABET_CODES[self.letters].tobytes().decode("ascii")


def build_symbol_matrix(values: np.ndarray, config: SaxConfig) -> SymbolMatrix:
    """Symbolize every length-s sliding window of the normalized values.

    Produces exactly m - s + 1 letters, read-only.  Window means are
    computed per window (not via running sums) so that element-wise equal
    windows always produce bit-identical means and therefore identical
    letters.
    """
    s = config.symbol_length
    if len(values) < s:
        raise ValueError("series shorter than symbol length")
    cuts = np.asarray(gaussian_breakpoints(config.alphabet_size))
    means = np.lib.stride_tricks.sliding_window_view(values, s).mean(axis=1)
    letters = np.searchsorted(cuts, means, side="right")
    letters.flags.writeable = False
    return SymbolMatrix(letters, config)
