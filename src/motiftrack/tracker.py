"""Generational motif search over the symbol matrix.

Each generation, candidate words of g symbols (covering g*s points) are
extracted from the symbol matrix, optionally thinned by trivial-match
elimination, and matched against a population of string trackers.  Trackers
matching fewer than two words die; the rest are confirmed against the
underlying data, extended by one symbol, and the process repeats until the
population is empty.  At r = 0 confirmation groups a tracker's windows by
equal raw values; at r > 0 it forms single-linkage groups, windows chained
by Euclidean distances (z-normalized units) within r, for all of a
generation's trackers at once: round t computes, for row t of every
tracker, the distances to that tracker's later starts not yet in its group.
Confirmed repeats accumulate in a memory pool that is finally streamlined
into a canonical motif set; streamlining skips motifs that a longer pooled
motif holds at every start and tests the rest only against retained motifs
indexed by start.

There is no randomness anywhere in the cycle: "mutation" enumerates the
fixed template symbols, so identical inputs always produce identical output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from .sax import ALPHABET, SaxConfig, SymbolMatrix, build_symbol_matrix
from .series import NormalizedSeries, TimeSeries, z_normalize
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


@dataclass(frozen=True)
class Word:
    """A generation-g symbol string anchored at a 0-based series point."""

    text: str
    start: int


@dataclass(frozen=True)
class CandidateMatrix:
    words: tuple[Word, ...]
    generation: int
    symbol_length: int

    @property
    def point_span(self) -> int:
        return self.generation * self.symbol_length


class Tracker:
    """A candidate motif signature: a symbol string plus a match count."""

    __slots__ = ("text", "match_count")

    def __init__(self, text: str):
        self.text = text
        self.match_count = 0

    def __repr__(self):
        return f"Tracker({self.text!r}, match_count={self.match_count})"


@dataclass(frozen=True)
class MutationTemplate:
    """The generation-1 survivor symbols; the only symbols used to extend trackers."""

    symbols: str


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


def init_trackers(alphabet_size: int) -> list[Tracker]:
    """One single-symbol tracker per alphabet letter, all counts zero."""
    if alphabet_size < 2:
        raise ValueError("alphabet too small")
    return [Tracker(ALPHABET[k]) for k in range(alphabet_size)]


def build_candidate_matrix(
    matrix: SymbolMatrix, generation: int, tme_enabled: bool
) -> CandidateMatrix:
    """Assemble the generation's words, optionally applying trivial-match elimination.

    A generation-g word at start i concatenates symbols i, i+s, ..., i+(g-1)s
    and covers points i .. i+g*s-1.  With TME on, a word is dropped when its
    text equals the last retained word's text, but at most s consecutive
    drops are allowed: a subsequence may only eliminate windows starting
    inside itself.
    """
    if generation < 1:
        raise ValueError("generation must be positive")
    s = matrix.config.symbol_length
    m = matrix.series_length
    span = generation * s
    last_start = m - span
    if last_start < 0:
        return CandidateMatrix((), generation, s)
    syms = matrix.symbols
    words = [Word(syms[start : start + span : s], start) for start in range(last_start + 1)]
    if not tme_enabled:
        return CandidateMatrix(tuple(words), generation, s)
    retained: list[Word] = []
    last_text = None
    run = 0
    for w in words:
        if last_text is None or w.text != last_text or run >= s:
            retained.append(w)
            last_text = w.text
            run = 0
        else:
            run += 1
    return CandidateMatrix(tuple(retained), generation, s)


def match_trackers(population: list[Tracker], matrix: CandidateMatrix) -> list[Tracker]:
    """Set each tracker's match count to the number of words equal to its text."""
    counts = Counter(w.text for w in matrix.words)
    for t in population:
        if len(t.text) != matrix.generation:
            raise RuntimeError("generation skew")
        t.match_count = counts.get(t.text, 0)
    return population


def eliminate_unmatched(population: list[Tracker]) -> list[Tracker]:
    """Keep trackers seen at least twice; reset survivors' counts to zero."""
    survivors = [t for t in population if t.match_count >= 2]
    for t in survivors:
        t.match_count = 0
    return survivors


def confirm_motifs(
    survivors: list[Tracker],
    matrix: CandidateMatrix,
    data: TimeSeries | NormalizedSeries,
    threshold: float,
) -> tuple[list[MemoryMotif], list[Tracker]]:
    """Check each surviving tracker's words against the underlying data.

    At threshold 0 a tracker's starts are grouped by the bytes of the g*s
    points they cover: equality of the values in data.  The caller must
    pass the raw TimeSeries at threshold 0, as run_mta does, for this to be
    the oracle's exact repeat; normalized data would compare normalized
    bytes, which can merge distinct raw values.  At a positive threshold
    the groups are single-linkage: windows chained by Euclidean distances
    (z-normalized units in run_mta) of at most the threshold.  All
    trackers are confirmed together in shared rounds: round t takes row t
    of every tracker and computes, by euclidean_distance's formula, its
    distances to the later starts of the same tracker not yet in its
    group; the groups within the threshold join the row's group.  These
    are the pairs a loop over each tracker's starts would compute, so the
    groups are the same, in about as many rounds as the largest tracker
    has starts.  A tracker leaves the rounds when its row finds no such
    pair, and the windows are gathered in blocks of bounded size.  Each
    group of two or more words becomes one memory motif.  Distinct groups
    can share a tracker text, since different data can collide onto the
    same symbols.  A tracker is stimulated iff it has at least one such
    group.
    """
    values = data.values
    span = matrix.point_span
    by_text: dict[str, list[int]] = defaultdict(list)
    for w in matrix.words:
        by_text[w.text].append(w.start)
    starts = [by_text.get(tracker.text, []) for tracker in survivors]
    labels = None if threshold == 0 else _chain_labels(values, span, starts, threshold)
    found: list[MemoryMotif] = []
    for n, (tracker, own) in enumerate(zip(survivors, starts)):
        groups: dict = defaultdict(list)
        if threshold == 0:
            for x in own:
                groups[values[x : x + span].tobytes()].append(x)
        else:
            for x, root in zip(own, labels[n]):
                groups[root].append(x)
        confirmed = sorted((sorted(g) for g in groups.values() if len(g) >= 2), key=lambda g: g[0])
        for occ in confirmed:
            found.append(MemoryMotif(tracker.text, span, tuple(occ)))
        tracker.match_count = 1 if confirmed else 0
    return found, survivors


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


def _chain_labels(values: np.ndarray, span: int, starts: list[list[int]], threshold: float):
    """Single-linkage group labels of every tracker's starts, in shared rounds.

    The trackers' starts sit side by side in one array, each tracker a
    segment.  Round t takes row t of every live tracker at once: the row's
    distances, by euclidean_distance's formula, to the later starts of its
    own tracker whose group label differs from its own, so every d <= r
    decision is the one a pairwise loop makes.  The groups of the starts
    within the threshold join the row's group.  Pairs already in one group
    are skipped, since they cannot change the groups.  A tracker whose row
    finds no such pair leaves the rounds: all its later starts then share
    the row's group, so no later row of it can find one either.  Returns
    one list of labels per tracker; equal labels mean one group.
    """
    # every start after the first of its tracker, and that tracker's first position
    firsts, pos, base = [], [], []
    first = 0
    for own in starts:
        firsts.append(first)
        pos += range(first + 1, first + len(own))
        base += [first] * (len(own) - 1)
        first += len(own)
    flat = np.fromiter(chain.from_iterable(starts), dtype=np.intp)
    label = np.arange(flat.size)
    pos, base = np.array(pos, dtype=np.intp), np.array(base, dtype=np.intp)
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
        near = _within(windows, flat[col], flat[row], threshold)
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
    label = label.tolist()
    return [label[first : first + len(own)] for first, own in zip(firsts, starts)]


def eliminate_unconfirmed(population: list[Tracker]) -> list[Tracker]:
    """Keep only trackers stimulated during confirmation; reset counts."""
    survivors = [t for t in population if t.match_count > 0]
    for t in survivors:
        t.match_count = 0
    return survivors


def proliferate_and_mutate(
    survivors: list[Tracker], template: MutationTemplate
) -> list[Tracker]:
    """Extend every survivor by every template symbol.

    Parents do not persist: a length-g tracker can never match the next
    generation's length-(g+1) words, and its confirmed motifs are already in
    the memory pool.
    """
    if not template.symbols:
        raise RuntimeError("template empty")
    return [Tracker(t.text + sym) for t in survivors for sym in template.symbols]


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

    Two indexes keep this from comparing all pairs.  First, a motif is
    dropped outright when a strictly longer pooled motif has an occurrence
    at every one of its starts (it is not right-maximal): that motif, or
    the retained motif covering it, covers this one, so the answer is the
    same.  Such a motif must hold the candidate's last start, so only the
    longer motifs holding that start are tried.  Second, the retained
    motifs' starts are kept sorted per length, and a candidate is tested
    only against the retained motifs with an occurrence covering its first
    interval, each with the bisect cover check of encapsulates.
    """
    unique: dict = {}
    for mot in pool:
        unique.setdefault((mot.text, mot.point_length, mot.occurrences), mot)
    motifs = sorted(
        unique.values(),
        key=lambda mo: (-mo.point_length, -len(mo.occurrences), mo.occurrences, mo.text),
    )
    lasts = {max(mo.occurrences) for mo in motifs if mo.occurrences}
    holders: dict[int, list[MemoryMotif]] = defaultdict(list)  # start -> longer motifs there
    index: dict[int, tuple[list[int], list[int]]] = {}  # length -> retained starts, owners
    sorted_starts: list[list[int]] = []  # per retained motif
    retained: list[MemoryMotif] = []
    for length, same in groupby(motifs, key=lambda mo: mo.point_length):
        same = list(same)
        for mot in same:
            occ = mot.occurrences
            if occ and any(set(big.occurrences).issuperset(occ) for big in holders.get(max(occ), ())):
                continue
            if _covered(index, sorted_starts, mot):
                continue
            sorted_starts.append(sorted(occ))
            starts, owners = index.setdefault(length, ([], []))
            for b in sorted_starts[-1]:
                at = bisect_right(starts, b)
                starts.insert(at, b)
                owners.insert(at, len(retained))
            retained.append(mot)
        for mot in same:
            for b in lasts.intersection(mot.occurrences):
                holders[b].append(mot)
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

    Orchestrates: normalize, symbolize, seed one tracker per letter, then
    loop match / eliminate / confirm / store / extend until the population
    dies or no word is constructible, and finally streamline the pool.  The
    mutation template is frozen after generation 1.
    """
    s = config.sax.symbol_length
    m = len(series)
    if m < s:
        raise ValueError("series shorter than symbol length")
    norm = z_normalize(series)
    matrix = build_symbol_matrix(norm, config.sax)
    # exact repeats are equal raw values; threshold distances are z-normalized
    data = series if config.match_threshold == 0 else norm
    population = init_trackers(config.sax.alphabet_size)
    template: MutationTemplate | None = None
    pool: list[MemoryMotif] = []
    generation = 1
    while population and generation * s <= m:
        candidates = build_candidate_matrix(matrix, generation, config.tme_enabled)
        if not candidates.words:
            break
        match_trackers(population, candidates)
        population = eliminate_unmatched(population)
        if not population:
            break
        found, population = confirm_motifs(population, candidates, data, config.match_threshold)
        population = eliminate_unconfirmed(population)
        pool.extend(found)
        if generation == 1:
            template = MutationTemplate("".join(t.text for t in population))
        if not population:
            break
        population = proliferate_and_mutate(population, template)
        generation += 1
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
