"""Brute-force motif finders used to validate the tracker engine.

The exact finder shares no search machinery with the engine: repeats are
located by hashing raw subsequences, not by symbol matching, so agreement
between the two is a meaningful correctness check.  reference_motifs spells
out what the engine computes in every mode, in plain loops over symbol
strings, with no vectorised code shared with the engine.  Clarity beats
speed here by design; the finders are meant for desk-size instances.
"""

from __future__ import annotations

import numpy as np

from .sax import ALPHABET, gaussian_breakpoints, window_symbol
from .series import TimeSeries, euclidean_distance, z_normalize
from .tracker import MemoryMotif, MotifSet, MtaConfig, streamline


def _enumerate_repeats(series: TimeSeries, step: int, min_separation: int) -> MotifSet:
    values = series.values
    m = len(series)
    pool: list[MemoryMotif] = []
    length = step
    while length <= m:
        groups: dict[bytes, list[int]] = {}
        for start in range(m - length + 1):
            groups.setdefault(values[start : start + length].tobytes(), []).append(start)
        any_repeat = False
        for starts in groups.values():
            if len(starts) < 2:
                continue
            any_repeat = True
            kept: list[int] = []
            for o in starts:
                if not kept or o - kept[-1] >= min_separation:
                    kept.append(o)
            if len(kept) >= 2:
                pool.append(MemoryMotif("", length, tuple(kept)))
        if not any_repeat:
            # sound prune: a repeat at L+step implies its length-L prefix repeats
            break
        length += step
    return streamline(pool)


def brute_force_exact_motifs(
    series: TimeSeries, symbol_length: int, min_separation: int | None = None
) -> MotifSet:
    """Enumerate exact repeats at every multiple of symbol_length.

    For each length L = s, 2s, 3s, ... starts are grouped by raw-subsequence
    equality; groups of two or more survive after dropping starts closer
    than min_separation to the previously kept one.  The same encapsulation
    streamlining and canonical ordering as the engine are then applied.

    min_separation defaults to the symbol length; pass 1 to keep every
    member of every group (the engine with TME off suppresses nothing).
    """
    s = symbol_length
    if s < 1:
        raise ValueError("symbol length must be positive")
    if len(series) < s:
        raise ValueError("series shorter than symbol length")
    if min_separation is None:
        min_separation = s
    return _enumerate_repeats(series, s, min_separation)


def maximal_exact_repeats(series: TimeSeries, min_separation: int = 1) -> MotifSet:
    """Diagnostic finder enumerating every length, not just multiples of s.

    Useful to quantify the engine's truncation: it can only report lengths
    that are generation multiples, losing under s points per motif end.
    """
    return _enumerate_repeats(series, 1, min_separation)


def brute_force_threshold_pairs(
    series: TimeSeries, window: int, threshold: float
) -> list[tuple[int, int, float]]:
    """All start pairs (i < j) whose z-normalized windows are within threshold.

    Quadratic in the number of windows; intended for m up to a couple of
    thousand points.  Returns (i, j, distance) triples in (i, j) order.
    """
    m = len(series)
    if window < 1:
        raise ValueError("window must be positive")
    if window > m:
        raise ValueError("window longer than series")
    norm = z_normalize(series)
    views = np.lib.stride_tricks.sliding_window_view(norm, window)
    n = views.shape[0]
    out: list[tuple[int, int, float]] = []
    for i in range(n - 1):
        dists = np.sqrt(((views[i + 1 :] - views[i]) ** 2).sum(axis=1))
        for off in np.nonzero(dists <= threshold)[0]:
            out.append((i, i + 1 + int(off), float(dists[off])))
    return out


def reference_motifs(series: TimeSeries, config: MtaConfig) -> MotifSet:
    """The engine's motif set by its definition, in plain loops.

    Symbols come from the scalar window_symbol.  At generation g, with span
    L = g*s, the word at start i is symbols[i : i+L : s]; with TME on, a word
    equal to the last kept one is dropped, at most s times in a row.  The
    kept starts are grouped by word text, and a text counts only if its
    length-(g-1) prefix formed a group at g-1 and its last symbol formed one
    at generation 1.  Each text's starts split into components: equal raw
    bytes at r = 0, single-linkage chains of euclidean_distance <= r on the
    z-normalized series at r > 0.  Components of two or more starts are
    motifs.  The search stops when no group forms; the pool is streamlined.
    """
    s, r, m = config.sax.symbol_length, config.match_threshold, len(series)
    if m < s:
        raise ValueError("series shorter than symbol length")
    raw, norm = series.values, z_normalize(series)
    cuts = gaussian_breakpoints(config.sax.alphabet_size)
    symbols = "".join(ALPHABET[window_symbol(norm[i : i + s], cuts)] for i in range(m - s + 1))
    pool: list[MemoryMotif] = []
    formed, letters = {""}, None  # texts with a group at g-1; letters with one at generation 1
    length = s

    def near(x, y):  # at the current length
        if r == 0:
            return raw[x : x + length].tobytes() == raw[y : y + length].tobytes()
        return euclidean_distance(norm[x : x + length], norm[y : y + length]) <= r

    while length <= m:
        by_text: dict[str, list[int]] = {}
        last, run = None, 0
        for i in range(m - length + 1):
            text = symbols[i : i + length : s]
            if config.tme_enabled and text == last and run < s:
                run += 1
                continue
            by_text.setdefault(text, []).append(i)
            last, run = text, 0
        grouped = set()
        for text, starts in by_text.items():
            if text[:-1] not in formed or (letters is not None and text[-1] not in letters):
                continue
            rest = list(starts)
            while rest:
                component = [rest.pop(0)]
                for x in component:  # grows while it is read
                    joined = [y for y in rest if near(x, y)]
                    component += joined
                    rest = [y for y in rest if y not in joined]
                if len(component) >= 2:
                    pool.append(MemoryMotif(text, length, tuple(sorted(component))))
                    grouped.add(text)
        if not grouped:
            break
        letters = grouped if letters is None else letters
        formed = grouped
        length += s
    return streamline(pool)
