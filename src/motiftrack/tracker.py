"""Generational motif search over the symbol matrix.

The paper's Motif Tracking Algorithm grows string trackers one symbol per
generation.  Here the cycle runs on integer classes (Karp-Miller-Rosenberg
naming): at generation g each start holds a word id, equal for equal words of
g symbols (g*s points), and a raw-window id, equal for equal raw values; each
generation refines both by the next s-point block with one np.unique.  The
trackers are a per-start mask: the word's (g-1)-symbol prefix was confirmed at
g-1 and its last symbol at generation 1 (the mutation template).  Words seen at
least twice among the candidates, thinned by trivial-match elimination, are
confirmed against the data: each word's starts fall into raw classes, the
oracle's exact repeats and at r = 0 the groups; at r > 0 single-linkage chains
the classes whose windows lie within r (Euclidean distance, z-normalized
units), in one pass over one representative window per class, pairs whose
mean or PAA lower bound exceeds r pruned before their distance is computed.
A generation's groups are one array of starts plus group bounds.  Each is
stored in the memory pool once the next generation is confirmed, unless a
longer group encapsulates it: covered groups, which streamlining would drop,
never enter the pool.  Only the stored groups get tuples and symbol text cut
from the symbol matrix, and the pool is finally streamlined into a canonical
motif set.

There is no randomness anywhere in the cycle: "mutation" enumerates the
fixed template symbols, so identical inputs always produce identical output.
"""

from __future__ import annotations

import math
import sys
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

    Equal ids[i] mean equal symbol words; equal raw[i] equal raw values
    (hence equal words).  words holds the candidate starts, ascending.
    """

    ids: np.ndarray
    raw: np.ndarray
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
    ids, width = np.unique(values, return_inverse=True)[1], 1
    while width < s:
        # the windows at i and i + step cover the one at i of width + step points
        step = min(width, s - width)
        ids = _refine(ids[:-step], ids[step:])
        width += step
    return ids


def build_candidate_matrix(
    letters: np.ndarray,
    blocks: np.ndarray,
    previous: CandidateMatrix | None,
    symbol_length: int,
    tme_enabled: bool,
) -> CandidateMatrix:
    """Assemble the generation's words, optionally applying trivial-match elimination.

    The word at start i concatenates symbols i, i+s, ..., i+(g-1)s.
    Generation 1's ids are letters (every window's letter index) and blocks
    (its raw-window id); each later generation refines previous's ids and
    raw ids by the window after each word, i + (g-1)*s.

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
        raw = _refine(previous.raw[:n], blocks[at : at + n])
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
    matrix: CandidateMatrix, counts: np.ndarray, values: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Confirm the matched words' candidate starts against the data: groups over them.

    counts is match_trackers' count per word id; the words counted twice or
    more are the matched ones.
    """
    ids = matrix.ids
    starts = matrix.words[counts[ids[matrix.words]] >= 2]
    return groups(values, matrix.symbol_length, matrix.point_span, starts, ids[starts], matrix.raw[starts], threshold)


def groups(
    values: np.ndarray, s: int, span: int, starts: np.ndarray, words: np.ndarray, raw: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The confirmed groups among candidate starts, each a tracker's stimulation.

    words and raw hold each start's word id and raw-window id, in any
    order; span is a multiple of s.  Starts are grouped by raw-window id,
    the oracle's exact repeat.  A positive threshold is the one difference
    between the modes: _chain_labels then joins the classes of one word
    single-linkage, span-point windows of values chained by Euclidean
    distances within it.  Returns (members, bounds): group k is
    members[bounds[k]:bounds[k + 1]], ascending, one per group of two or
    more starts, the groups ordered by first start; one word can have
    several.
    """
    labels = raw if threshold <= 0 else _chain_labels(values, s, span, starts, words, raw, threshold)
    order = np.lexsort((starts, labels))
    labels, starts = labels[order], starts[order]
    edges = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1], True])
    kept = np.flatnonzero(np.diff(edges) >= 2)
    kept = kept[np.argsort(starts[edges[kept]])]
    lo, sizes = edges[kept], edges[kept + 1] - edges[kept]
    bounds = np.zeros(kept.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return starts[np.repeat(lo - bounds[:-1], sizes) + np.arange(bounds[-1])], bounds


# pairs per block, in window elements: bounds each gather of windows at
# 128 KB whatever the number and size of the trackers
_PAIR_BLOCK = 1 << 14


def _within(windows: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each pair of windows (a[n], b[n]) lies within the threshold.

    The distance is euclidean_distance's formula computed in place, (x - y)
    squared and summed per row, so each decision matches that function's.
    """
    diff = windows[a]
    diff -= windows[b]
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=1)) <= threshold


def _chain_labels(
    values: np.ndarray, s: int, span: int, starts: np.ndarray, words: np.ndarray, raw: np.ndarray, threshold: float
) -> np.ndarray:
    """Single-linkage group labels of every tracker's starts, in one pass.

    words holds each start's tracker (word id) and raw its raw-window id,
    in any order, each raw class within one tracker.  Equal raw windows are
    bit-equal in values (z-normalizing is elementwise), so one
    representative start per class stands for all its members: their
    distances to any window are its distances, bit for bit.

    The representatives' pairs within one tracker are visited once, in
    blocks of _PAIR_BLOCK // span pairs, and two lower bounds on their
    distance prune them before it is computed (Keogh et al. 2001):
    sqrt(span) times the difference of the whole-window means, a band over
    each tracker's representatives sorted by mean, so pairs outside it are
    never generated; then sqrt(s) times the norm of the differences of the
    means of the g s-point blocks (PAA, from which SAX's MINDIST derives).
    Pruning waits until a bound exceeds r by a margin that covers its own
    and the distance's rounding, so the surviving pairs go to _within and
    every d <= r decision is still euclidean_distance's.  Pairs within r
    join components (_join); once some have, pairs already in one component
    are skipped.  Returns one label per start; equal labels mean one group.
    """
    # one position per class, whichever member the scatter keeps
    at = np.arange(raw.size)
    seen = np.empty(int(raw.max(initial=-1)) + 1, dtype=at.dtype)
    seen[raw] = at
    picked = np.flatnonzero(seen[raw] == at)
    tracker = words[picked]
    by_word = np.sort(tracker)
    if not (by_word[1:] == by_word[:-1]).any():  # no tracker has two classes
        return raw
    inverse = np.searchsorted(picked, seen[raw])  # each start's class
    values = np.ascontiguousarray(values, dtype=np.float64)
    step = values.strides[0]
    count, generation = values.size - span + 1, span // s
    # every span-point window, and the means of its g s-point blocks, as rows of strided views
    windows = np.ndarray((count, span), values.dtype, values, 0, (step, step))
    means = np.add.reduce(np.ndarray((values.size - s + 1, s), values.dtype, values, 0, (step, step)), axis=1) / s
    paa = np.ndarray((count, generation), values.dtype, means, 0, (step, s * step))
    # the margin: the means err by a few eps times the largest |value| per
    # term summed, the sums of squares by eps per term, and the floor covers
    # underflow; limit inflates r by all of it, with a factor of 2 to spare
    eps = sys.float_info.epsilon
    slack = 4 * (span + 3) * math.sqrt(span) * (eps * float(np.abs(values).max()) + math.sqrt(sys.float_info.min))
    limit = (threshold + slack) * (1 + 4 * (span + 3) * eps)
    # representatives by tracker, then whole-window mean (the mean of the block means)
    rep = starts[picked]
    mean = np.add.reduce(paa, axis=1)[rep] / generation
    order = np.lexsort((mean, tracker))
    rep, tracker, mean = rep[order], tracker[order], mean[order]
    # row i pairs representative i with the later ones of its tracker whose
    # mean lies within the band: one search on (tracker, rank of the mean)
    ranked = np.sort(mean)
    key = tracker * (rep.size + 1) + np.searchsorted(ranked, mean)
    top = tracker * (rep.size + 1) + np.searchsorted(ranked, mean + limit / math.sqrt(span), side="right")
    stop = np.searchsorted(key, top)  # one past row i's last partner
    ends = np.cumsum(stop - np.arange(1, rep.size + 1))  # pairs in rows 0..i
    shift = stop - ends  # pair p of row i pairs i with p + shift[i]
    total, block, cap = int(ends[-1]), max(1, _PAIR_BLOCK // span), limit * limit / s
    label, joined = np.arange(rep.size), False
    held_i, held_j, held = [], [], 0
    for lo in range(0, total, block):
        pair = np.arange(lo, min(lo + block, total))
        i = np.searchsorted(ends, pair, side="right")
        j = pair + shift[i]
        if joined:
            open_ = label[i] != label[j]
            i, j = i[open_], j[open_]
        a, b = rep[i], rep[j]
        if 1 < generation < span:  # at g = 1 the band is this bound, at s = 1 the distance
            bound = paa[a]
            bound -= paa[b]
            bound *= bound
            near = np.add.reduce(bound, axis=1) <= cap
            i, j, a, b = i[near], j[near], a[near], b[near]
        within = _within(windows, a, b, threshold)
        held_i.append(i[within])
        held_j.append(j[within])
        held += held_i[-1].size
        # join once a block's worth is held, bounding the held edges, and at the end
        if held >= block or (held and lo + block >= total):
            label = _join(label, np.concatenate(held_i), np.concatenate(held_j))
            held_i, held_j, held, joined = [], [], 0, True
    by_class = np.empty_like(label)
    by_class[order] = label
    return by_class[inverse]


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Labels after joining the components of each edge (a[n], b[n]).

    label maps each node to its component's least node.  Each round hooks
    the larger label of every edge across two components onto the smaller
    one, then follows the hooks to their ends by pointer jumping; a round
    merges at least one pair of components.
    """
    while True:
        x, y = label[a], label[b]
        cross = x != y
        if not cross.any():
            return label
        x, y = x[cross], y[cross]
        target = np.arange(label.size)
        target[np.maximum(x, y)] = np.minimum(x, y)
        # every hook points at a smaller label, so the jumps end at roots
        while True:
            hop = target[target]
            if np.array_equal(hop, target):
                break
            target = hop
        label = target[label]


def eliminate_unconfirmed(matrix: CandidateMatrix, found: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Keep only trackers stimulated during confirmation: a mask of the word ids with a group."""
    members, bounds = found
    confirmed = np.zeros(int(matrix.ids.max(initial=-1)) + 1, dtype=bool)
    confirmed[matrix.ids[members[bounds[:-1]]]] = True
    return confirmed


def proliferate_and_mutate(matrix: CandidateMatrix, confirmed: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Extend every confirmed tracker by every template symbol; parents do not persist.

    template marks the windows whose letter was confirmed at generation 1.
    Returns the next tracker mask: start i holds one when its word was
    confirmed and its next window, i + g*s, is in the template.
    """
    n, at = max(matrix.ids.size - matrix.symbol_length, 0), matrix.point_span
    return confirmed[matrix.ids[:n]] & template[at : at + n]


def _encapsulated(
    members: np.ndarray, bounds: np.ndarray, longer: np.ndarray, longer_bounds: np.ndarray, s: int
) -> np.ndarray:
    """Which groups the next generation's groups encapsulate: a mask over the groups.

    Both generations are given as groups returns them.  A group G of span
    points is tested against the group G' of span + s points that holds its
    first member: G' encapsulates G when every member o of G has a member b
    of G' with o - s <= b <= o, as [b, b + span + s) then holds [o, o + span).
    One search over the keys (group, start) of the longer members, which
    ascend, finds the latest b <= o in G' for every o at once: G' holds the
    first member, so the search never lands before G'.
    """
    if not longer.size:
        return np.zeros(bounds.size - 1, dtype=bool)
    base = int(max(members.max(initial=0), longer.max())) + 1  # above every start
    which = np.repeat(np.arange(longer_bounds.size - 1), np.diff(longer_bounds))
    label = np.full(base, -1)
    label[longer] = which
    host = np.repeat(label[members[bounds[:-1]]], np.diff(bounds))  # each member's G', or -1
    keys = which * base + longer
    at = np.searchsorted(keys, host * base + members, side="right") - 1
    ok = (host >= 0) & (keys[at] >= host * base + members - s)
    return np.logical_and.reduceat(ok, bounds[:-1])


def _memory(symbols: str, span: int, s: int, members: np.ndarray, bounds: np.ndarray, keep=None) -> list[MemoryMotif]:
    """The memory motifs of the groups, or of those keep marks, each with its symbol text cut from symbols."""
    sizes = np.diff(bounds)
    if keep is not None:
        members, sizes = members[np.repeat(keep, sizes)], sizes[keep]
    flat, ends = members.tolist(), np.cumsum(sizes).tolist()
    return [
        MemoryMotif(symbols[flat[lo] : flat[lo] + span : s], span, tuple(flat[lo:hi]))
        for lo, hi in zip([0] + ends[:-1], ends)
    ]


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
    """Drop encapsulated motifs and order the rest canonically.

    A motif is dropped iff a retained motif at least as long covers each of
    its occurrence intervals, as a copy covers a duplicate.  Processing runs
    longest first (richer occurrence sets first among equal lengths, so a
    superset is seen before its subsets); the survivors form the unique
    maximal antichain.  Output is longest first, then by occurrences.

    An index keeps this from comparing all pairs: the retained motifs'
    starts are kept sorted per length, and a candidate is tested only
    against the retained motifs with an occurrence covering its first
    interval, each with the bisect cover check of encapsulates.
    """
    motifs = sorted(pool, key=lambda mo: (-mo.point_length, -len(mo.occurrences), mo.occurrences, mo.text))
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

    A generation's groups are stored once the next generation is confirmed,
    except those a next-generation group encapsulates (_encapsulated):
    streamline would drop them, so covered groups never enter the pool.
    The last generation's groups are stored whole.
    """
    s = config.sax.symbol_length
    m = len(series)
    if m < s:
        raise ValueError("series shorter than symbol length")
    norm = z_normalize(series)
    matrix = build_symbol_matrix(norm, config.sax)
    letters = np.frombuffer(matrix.symbols.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("a")
    blocks = _window_ids(series.values, s)
    trackers = np.ones(letters.size, dtype=bool)
    candidates = template = None
    pool: list[MemoryMotif] = []
    held = (np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp))  # the groups not yet stored, of held_span points
    span = held_span = s
    while span <= m:
        candidates = build_candidate_matrix(letters, blocks, candidates, s, config.tme_enabled)
        counts = match_trackers(candidates, trackers)
        if not eliminate_unmatched(counts).size:
            break
        found = confirm_motifs(candidates, counts, norm.values, config.match_threshold)
        confirmed = eliminate_unconfirmed(candidates, found)
        pool += _memory(matrix.symbols, held_span, s, *held, ~_encapsulated(*held, *found, s))
        held, held_span = found, span
        if template is None:
            template = confirmed[letters]
        if found[1].size == 1:  # no group confirmed
            break
        trackers = proliferate_and_mutate(candidates, confirmed, template)
        span += s
    pool += _memory(matrix.symbols, held_span, s, *held)
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
