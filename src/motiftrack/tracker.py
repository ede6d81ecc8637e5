"""Generational motif search over the symbol matrix.

The paper's Motif Tracking Algorithm grows string trackers one symbol per
generation.  Here the cycle runs on integer classes (Karp-Miller-Rosenberg
naming): at generation g each start holds a word id, equal for equal words
of g symbols (g*s points), and at r = 0 a raw-window id, equal for equal
raw values; each generation refines both by the next s-point block with one
np.unique.  The trackers are a per-start mask: the word's (g-1)-symbol
prefix was confirmed at g-1 and its last symbol at generation 1 (the
mutation template).  Words seen at least twice among the candidates,
thinned by trivial-match elimination, are confirmed against the data: at
r = 0 by equal raw-window ids, at r > 0 by single-linkage groups, windows
chained by Euclidean distances (z-normalized units) within r, for all of a
generation's words at once in shared rounds.  Confirmed repeats accumulate
in a memory pool, each with its symbol text cut from the symbol matrix, and
the pool is finally streamlined into a canonical motif set.

There is no randomness anywhere in the cycle: "mutation" enumerates the
fixed template symbols, so identical inputs always produce identical output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .sax import SaxConfig, build_symbol_matrix
from .series import TimeSeries, z_normalize
# unused here, but perfbench's tracer wraps tracker.euclidean_distance and
# reports its pair counts as missing, not 0, when the name is absent
from .series import euclidean_distance  # noqa: F401


@dataclass(frozen=True)
class MtaConfig:
    """Engine parameters: symbolization, match threshold r, and TME switch.

    A threshold of 0 demands equal raw values, the oracle's definition of an
    exact repeat; a positive threshold bounds the Euclidean distance between
    z-normalized subsequences.
    """

    sax: SaxConfig
    match_threshold: float = 0.0
    tme_enabled: bool = False

    def __post_init__(self):
        if math.isnan(self.match_threshold) or self.match_threshold < 0:
            raise ValueError("match threshold must be a non-negative number")


@dataclass(frozen=True, eq=False)
class CandidateMatrix:
    """A generation's words, one per start i <= m - g*s.

    Equal ids[i] mean equal symbol words; equal raw[i] (exact mode only)
    equal raw values.  words holds the candidate starts, ascending.
    """

    ids: np.ndarray
    raw: np.ndarray | None
    words: np.ndarray
    generation: int
    symbol_length: int

    @property
    def point_span(self) -> int:
        return self.generation * self.symbol_length


@dataclass(frozen=True)
class MemoryMotif:
    """A confirmed repeat: its symbol string, point length, and start indices."""

    text: str
    point_length: int
    occurrences: tuple[int, ...]


@dataclass(frozen=True)
class MotifSet:
    """Streamlined motifs, longest first, then by first occurrence."""

    motifs: tuple[MemoryMotif, ...]

    def __iter__(self):
        return iter(self.motifs)

    def __len__(self) -> int:
        return len(self.motifs)


def _refine(ids: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Ids of the pairs (ids[i], nxt[i]), numbered in pair order; int64 keys below m**2."""
    return np.unique(ids * (int(nxt.max(initial=0)) + 1) + nxt, return_inverse=True)[1]


def _window_ids(values: np.ndarray, s: int) -> np.ndarray:
    """Ids of every s-point window, equal iff the raw values are (TimeSeries folds -0.0)."""
    point = ids = np.unique(values, return_inverse=True)[1]
    for k in range(1, s):
        ids = _refine(ids[:-1], point[k:])
    return ids


def build_candidate_matrix(
    letters: np.ndarray,
    blocks: np.ndarray | None,
    previous: CandidateMatrix | None,
    symbol_length: int,
    tme_enabled: bool,
) -> CandidateMatrix:
    """Assemble the generation's words, optionally applying trivial-match elimination.

    The word at start i concatenates symbols i, i+s, ..., i+(g-1)s.
    Generation 1's ids are letters (every window's letter index) and blocks
    (its raw-window id, exact mode only); each later generation refines
    previous's ids by the window after each word, i + (g-1)*s.

    With TME on, a word equal to the last retained one is dropped, at most s
    times in a row: a subsequence may only eliminate windows starting inside
    itself.  So a start is kept when it begins a run of equal words or its
    offset in the run is a multiple of s + 1.
    """
    s = symbol_length
    if previous is None:
        generation, ids, raw = 1, letters, blocks
    else:
        generation = previous.generation + 1
        n, at = max(previous.ids.size - s, 0), previous.point_span
        ids = _refine(previous.ids[:n], letters[at : at + n])
        raw = None if blocks is None else _refine(previous.raw[:n], blocks[at : at + n])
    starts = np.arange(ids.size)
    if tme_enabled:
        fresh = np.ones(ids.size, dtype=bool)
        fresh[1:] = ids[1:] != ids[:-1]
        offset = starts - np.maximum.accumulate(np.where(fresh, starts, 0))
        starts = starts[offset % (s + 1) == 0]
    return CandidateMatrix(ids, raw, starts, generation, s)


def match_trackers(matrix: CandidateMatrix, trackers: np.ndarray) -> np.ndarray:
    """Count each tracker's matches: the candidates at tracked starts per word id (np.bincount)."""
    words = matrix.words[trackers[matrix.words]]
    return np.bincount(matrix.ids[words], minlength=int(matrix.ids.max(initial=-1)) + 1)


def eliminate_unmatched(counts: np.ndarray) -> np.ndarray:
    """Keep trackers seen at least twice: the word ids with a count of two or more."""
    return np.flatnonzero(counts >= 2)


def confirm_motifs(
    matrix: CandidateMatrix, matched: np.ndarray, values: np.ndarray, threshold: float
) -> list[list[int]]:
    """Check each matched word's candidates against the underlying data.

    With raw ids (exact mode) a word's starts are grouped by raw-window id,
    the oracle's exact repeat.  Otherwise the groups are single-linkage:
    windows of values chained by Euclidean distances within the threshold,
    for all words at once in _chain_labels' shared rounds.  Returns every
    group of two or more starts, ascending, ordered by first start; one
    word can have several.
    """
    ids = matrix.ids
    starts = matrix.words[np.isin(ids[matrix.words], matched)]
    starts = starts[np.argsort(ids[starts], kind="stable")]  # by word, then start
    if matrix.raw is not None:
        labels = matrix.raw[starts]
    else:
        labels = _chain_labels(values, matrix.point_span, starts, ids[starts], threshold)
    order = np.lexsort((starts, labels))
    labels, starts = labels[order], starts[order]
    bounds = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1], True])
    return sorted(starts[bounds[k] : bounds[k + 1]].tolist() for k in np.flatnonzero(np.diff(bounds) >= 2))


# pairs per distance block, in window elements: bounds the gathered windows
# at a few hundred KB whatever the number and size of the trackers
_PAIR_BLOCK = 1 << 15


def _within(windows: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each pair of windows (a[n], b[n]) lies within the threshold.

    The distance is euclidean_distance's formula computed in place, (x - y)
    squared and summed per row, so each decision matches that function's.
    Pairs run in blocks of _PAIR_BLOCK window elements, bounding memory.
    """
    block = max(1, _PAIR_BLOCK // windows.shape[1])
    if a.size > block:
        return np.concatenate(
            [_within(windows, a[lo : lo + block], b[lo : lo + block], threshold) for lo in range(0, a.size, block)]
        )
    diff = windows[a]
    diff -= windows[b]
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=1)) <= threshold


def _chain_labels(values: np.ndarray, span: int, starts: np.ndarray, words: np.ndarray, threshold: float):
    """Single-linkage group labels of every tracker's starts, in shared rounds.

    starts holds the trackers' starts side by side, each tracker a segment
    of equal word ids in words (ascending), its starts ascending.  Round t
    takes row t of every live tracker at once: the row's distances, by
    euclidean_distance's formula, to the later starts of its own tracker
    whose group label differs from its own, so every d <= r decision is the
    one a pairwise loop makes.  The groups of the starts within the
    threshold join the row's group.  Pairs already in one group are
    skipped, since they cannot change the groups.  A tracker whose row finds
    no such pair leaves the rounds: all its later starts then share the
    row's group, so no later row of it can find one either.  Returns one
    label per start; equal labels mean one group.
    """
    # every start after the first of its tracker, and that tracker's first position
    pos = np.flatnonzero(words[1:] == words[:-1]) + 1
    base = np.searchsorted(words, words[pos])
    label = np.arange(starts.size)
    if pos.size:
        # every window of the series as a row of one strided view, no copy
        values = np.ascontiguousarray(values)
        windows = np.ndarray((values.size - span + 1, span), values.dtype, values, 0, values.strides * 2)
    t = 0
    while pos.size:
        row = base + t
        open_ = label[pos] != label[row]
        col, row = pos[open_], row[open_]
        if not col.size:
            break
        near = _within(windows, starts[col], starts[row], threshold)
        joined = label[col[near]]
        if joined.size:
            target = np.arange(label.size)
            target[joined] = label[row[near]]
            label = target[label]
        # trackers, by first position, whose row found a pair to compute
        live = np.zeros(label.size, dtype=bool)
        live[row - t] = True
        t += 1
        keep = (pos > base + t) & live[base]
        pos, base = pos[keep], base[keep]
    return label


def eliminate_unconfirmed(matrix: CandidateMatrix, groups: list[list[int]]) -> np.ndarray:
    """Keep only trackers stimulated during confirmation: a mask of the word ids with a group."""
    confirmed = np.zeros(int(matrix.ids.max(initial=-1)) + 1, dtype=bool)
    confirmed[matrix.ids[[group[0] for group in groups]]] = True
    return confirmed


def proliferate_and_mutate(matrix: CandidateMatrix, confirmed: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Extend every confirmed tracker by every template symbol; parents do not persist.

    template marks the windows whose letter was confirmed at generation 1.
    Returns the next tracker mask: start i holds one when its word was
    confirmed and its next window, i + g*s, is in the template.
    """
    n, at = max(matrix.ids.size - matrix.symbol_length, 0), matrix.point_span
    return confirmed[matrix.ids[:n]] & template[at : at + n]


def _covers(starts: list[int], length: int, occurrences, point_length: int) -> bool:
    """True when each [o, o + point_length) lies in some [b, b + length), b in sorted starts.

    The latest start at or before o gives the interval reaching furthest
    right, so one bisect per occurrence decides it.
    """
    for o in occurrences:
        i = bisect_right(starts, o)
        if not i or starts[i - 1] + length < o + point_length:
            return False
    return True


def encapsulates(big: MemoryMotif, small: MemoryMotif) -> bool:
    """True when every occurrence interval of small lies inside one of big's."""
    if big.point_length < small.point_length:
        return False
    return _covers(sorted(big.occurrences), big.point_length, small.occurrences, small.point_length)


def streamline(pool) -> MotifSet:
    """Collapse duplicates, drop encapsulated motifs, and order canonically.

    A motif is dropped iff a retained motif at least as long covers every one
    of its occurrence intervals.  Processing runs longest first (richer
    occurrence sets first among equal lengths, so a superset is always seen
    before its subsets); the survivors form the unique maximal antichain.
    Output order is descending point length, then ascending occurrences.

    An index keeps this from comparing all pairs: the retained motifs'
    starts are kept sorted per length, and a candidate is tested only
    against the retained motifs with an occurrence covering its first
    interval, each with the bisect cover check of encapsulates.
    """
    unique: dict = {}
    for mot in pool:
        unique.setdefault((mot.text, mot.point_length, mot.occurrences), mot)
    motifs = sorted(
        unique.values(),
        key=lambda mo: (-mo.point_length, -len(mo.occurrences), mo.occurrences, mo.text),
    )
    index: dict[int, tuple[list[int], list[int]]] = {}  # length -> retained starts, owners
    sorted_starts: list[list[int]] = []  # per retained motif
    retained: list[MemoryMotif] = []
    for mot in motifs:
        if _covered(index, sorted_starts, mot):
            continue
        sorted_starts.append(sorted(mot.occurrences))
        starts, owners = index.setdefault(mot.point_length, ([], []))
        for b in sorted_starts[-1]:
            at = bisect_right(starts, b)
            starts.insert(at, b)
            owners.insert(at, len(retained))
        retained.append(mot)
    retained.sort(key=lambda mo: (-mo.point_length, mo.occurrences, mo.text))
    return MotifSet(tuple(retained))


def _covered(index, sorted_starts, mot: MemoryMotif) -> bool:
    """Whether a retained motif covers mot, trying only those covering its first interval."""
    if not mot.occurrences:
        return bool(index)
    o, length = mot.occurrences[0], mot.point_length
    for big_length, (starts, owners) in index.items():
        tried = set(owners[bisect_left(starts, o + length - big_length) : bisect_right(starts, o)])
        if any(_covers(sorted_starts[k], big_length, mot.occurrences, length) for k in tried):
            return True
    return False


def run_mta(series: TimeSeries, config: MtaConfig) -> MotifSet:
    """Run the full tracking cycle on a raw series and return its motif set.

    Orchestrates: normalize, symbolize, seed one tracker per letter (every
    start), then loop candidates / match / eliminate / confirm / store /
    extend until no tracker is confirmed or no word is constructible, and
    finally streamline the pool.  The mutation template is frozen after
    generation 1.
    """
    s = config.sax.symbol_length
    m = len(series)
    if m < s:
        raise ValueError("series shorter than symbol length")
    norm = z_normalize(series)
    matrix = build_symbol_matrix(norm, config.sax)
    letters = np.frombuffer(matrix.symbols.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("a")
    # the one place exact mode is decided: raw-window ids compare raw values;
    # without them, confirmation measures z-normalized distances
    blocks = _window_ids(series.values, s) if config.match_threshold == 0 else None
    trackers = np.ones(letters.size, dtype=bool)
    candidates = template = None
    pool: list[MemoryMotif] = []
    span = s
    while span <= m:
        candidates = build_candidate_matrix(letters, blocks, candidates, s, config.tme_enabled)
        matched = eliminate_unmatched(match_trackers(candidates, trackers))
        if not matched.size:
            break
        groups = confirm_motifs(candidates, matched, norm.values, config.match_threshold)
        confirmed = eliminate_unconfirmed(candidates, groups)
        pool += [MemoryMotif(matrix.symbols[g[0] : g[0] + span : s], span, tuple(g)) for g in groups]
        if template is None:
            template = confirmed[letters]
        if not groups:
            break
        trackers = proliferate_and_mutate(candidates, confirmed, template)
        span += s
    return streamline(pool)


def quality_measure(motifs: MotifSet, min_length: int = 0) -> int:
    """Sum of point_length * occurrence count over motifs at least min_length long."""
    if min_length < 0:
        raise ValueError("min_length must be non-negative")
    return sum(
        mo.point_length * len(mo.occurrences) for mo in motifs if mo.point_length >= min_length
    )


def format_motif_report(motifs: MotifSet, min_length: int = 0) -> str:
    """Render the standard motif report: one record per motif plus a quality line."""
    lines = []
    rank = 0
    for mo in motifs:
        if mo.point_length < min_length:
            continue
        rank += 1
        starts = ",".join(str(o) for o in mo.occurrences)
        lines.append(
            f"motif {rank}: length={mo.point_length} count={len(mo.occurrences)} "
            f"starts={starts} symbols={mo.text}"
        )
    lines.append(f"quality(min_len={min_length})={quality_measure(motifs, min_length)}")
    return "\n".join(lines) + "\n"
