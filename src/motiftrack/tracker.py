"""Generational motif search over the symbol matrix.

The paper's Motif Tracking Algorithm grows string trackers one symbol per
generation.  Here the cycle runs on integer classes (Karp-Miller-Rosenberg
naming).  A generation's one length is its span, g*s points at generation g:
each start holds a word id, equal for equal words of that span, and a
raw-window id, equal for equal raw values; each generation refines both by the
next s-point block, naming the pairs with one argsort and a running count of
the sorted run starts.  Generation 1's word ids are SymbolMatrix.letters, the
SAX bucket indices.  Every step of a generation calls numpy's C functions and
array methods directly, not its Python-level wrappers, whose fixed cost
dominates on the few hundred starts of a long periodic run.  The trackers are
a per-start mask: the word's (g-1)-symbol prefix was confirmed at g-1 and its
last symbol at generation 1 (the mutation template).  Words seen at least
twice among the candidates, thinned by trivial-match elimination, are
confirmed against the data: each word's starts fall into raw classes, the
oracle's exact repeats and at r = 0 the groups; at r > 0 single-linkage chains
the classes whose windows lie within r (Euclidean distance, z-normalized
units) over one representative window per class: the pairs in a tracker's band
of window sums, each the difference of two prefix sums of the series, are
walked by diagonals and each decided by one fused product (exactly near r),
and a row retires once the rest of its band shares its component.
A generation's groups are one array of starts plus group bounds.  Each is
stored in the memory pool once the next generation is confirmed, unless any
next-generation group encapsulates it: covered groups, which streamlining
would drop, never enter the pool.  Only the stored groups become tuples, and
the pool is finally streamlined into a canonical motif set; only the motifs
that survive get their symbol text, cut once from the symbol matrix.

There is no randomness anywhere in the cycle: "mutation" enumerates the
fixed template symbols, so identical inputs always produce identical output.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .sax import SaxConfig, SymbolMatrix, build_symbol_matrix
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
    """A generation's words, one per start i <= m - span: span, g*s at generation g, is its one length.

    Equal ids[i] mean equal symbol words; equal raw[i] equal raw values
    (hence equal words).  words holds the candidate starts, ascending, and
    every id lies in range(count).
    """

    ids: np.ndarray
    raw: np.ndarray
    words: np.ndarray
    span: int
    count: int


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

    def with_text(self, matrix: SymbolMatrix) -> MotifSet:
        """The same motifs, each with its symbol text: every s-th symbol from its first start.

        A motif with no occurrences gets empty text.
        """
        s, symbols = matrix.config.symbol_length, matrix.symbols

        def text(mo: MemoryMotif) -> str:
            return symbols[mo.occurrences[0] : mo.occurrences[0] + mo.point_length : s] if mo.occurrences else ""

        return MotifSet(tuple(MemoryMotif(text(mo), mo.point_length, mo.occurrences) for mo in self.motifs))


def _name(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids of key's values, equal for equal values and numbered in ascending value order, and their number.

    One argsort, then a running count of the sorted keys' run starts
    scattered back: np.unique(key, return_inverse=True)[1] without its
    Python wrapper.
    """
    order = key.argsort()
    key = key[order]
    fresh = np.empty(key.size, dtype=bool)
    fresh[:1] = False
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    named = fresh.cumsum()
    ids = np.empty(named.size, dtype=named.dtype)
    ids[order] = named
    return ids, int(named[-1]) + 1 if named.size else 0


def _refine(ids: np.ndarray, nxt: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids of the pairs (ids[i], nxt[i]), numbered in pair order, and their number; int64 keys below m**2."""
    return _name(ids * (int(np.maximum.reduce(nxt, initial=0)) + 1) + nxt)


def _window_ids(values: np.ndarray, s: int) -> np.ndarray:
    """Ids of every s-point window, equal iff the raw values are (TimeSeries folds -0.0)."""
    ids, _ = _name(values)
    width = 1
    while width < s:
        # the windows at i and i + step cover the one at i of width + step points
        step = min(width, s - width)
        ids, _ = _refine(ids[:-step], ids[step:])
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

    The word at start i concatenates symbols i, i+s, ..., i+span-s, span
    points in all.  Generation 1's ids are letters (every window's letter
    index) and blocks (its raw-window id), its span s; each later generation
    refines previous's ids and raw ids by the window after each word, at
    i + previous.span, and spans s points more.

    With TME on, a word equal to the last retained one is dropped, at most s
    times in a row: a subsequence may only eliminate windows starting inside
    itself.  So a start is kept when it begins a run of equal words or its
    offset in the run is a multiple of s + 1.
    """
    s = symbol_length
    if previous is None:
        span, ids, raw = s, letters, blocks
        count = int(np.maximum.reduce(letters, initial=-1)) + 1
    else:
        # n is m - span + 1, at least 1: run_mta builds no word longer than m points
        n, at = previous.ids.size - s, previous.span
        span = at + s
        ids, count = _refine(previous.ids[:n], letters[at : at + n])
        raw, _ = _refine(previous.raw[:n], blocks[at : at + n])
    starts = np.arange(ids.size)
    if tme_enabled:
        fresh = np.empty(ids.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=fresh[1:])
        offset = starts - np.maximum.accumulate(starts * fresh)
        starts = starts[offset % (s + 1) == 0]
    return CandidateMatrix(ids, raw, starts, span, count)


def match_trackers(matrix: CandidateMatrix, tracked: np.ndarray) -> np.ndarray:
    """Count each tracker's matches: the tracked candidate starts per word id (np.bincount)."""
    return np.bincount(matrix.ids[tracked], minlength=matrix.count)


def eliminate_unmatched(counts: np.ndarray) -> np.ndarray:
    """Keep trackers seen at least twice: the word ids with a count of two or more; the cycle ends at none."""
    return (counts >= 2).nonzero()[0]


def confirm_motifs(
    matrix: CandidateMatrix, tracked: np.ndarray, values: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Confirm the tracked candidate starts against the data: groups over them.

    A word matched only once yields no group, as groups keeps groups of two
    or more starts, so eliminate_unmatched's count is not applied again.
    values are run_mta's z-normalized series.
    """
    return groups(values, matrix.span, tracked, matrix.ids[tracked], matrix.raw[tracked], threshold)


def groups(
    values: np.ndarray,
    span: int,
    starts: np.ndarray,
    words: np.ndarray,
    raw: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The confirmed groups among candidate starts, each a tracker's stimulation.

    words and raw hold each start's word id and raw-window id, in any
    order.  Starts are grouped by raw-window id, the oracle's exact repeat.
    A positive threshold is the one difference between the modes:
    _chain_labels then joins the classes of one word single-linkage,
    span-point windows of values chained by Euclidean distances within it.
    Returns (members, bounds): group k is members[bounds[k]:bounds[k + 1]],
    ascending, one per group of two or more starts, the groups ordered by
    first start; one word can have several.
    """
    labels = raw if threshold <= 0 else _chain_labels(values, span, starts, words, raw, threshold)
    order = np.lexsort((starts, labels))
    labels, starts = labels[order], starts[order]
    edge = np.empty(labels.size + 1, dtype=bool)  # where a run of equal labels starts or ends
    edge[0] = edge[-1] = True
    np.not_equal(labels[1:], labels[:-1], out=edge[1:-1])
    edges = edge.nonzero()[0]
    kept = (edges[1:] - edges[:-1] >= 2).nonzero()[0]
    kept = kept[starts[edges[kept]].argsort()]
    lo, sizes = edges[kept], edges[kept + 1] - edges[kept]
    bounds = np.zeros(kept.size + 1, dtype=np.intp)
    sizes.cumsum(out=bounds[1:])
    return starts[(lo - bounds[:-1]).repeat(sizes) + np.arange(bounds[-1])], bounds


# pairs per slice, in window elements: a slice takes at most _PAIR_BLOCK // span
# pairs, so each gather of windows stays within 128 KB
_PAIR_BLOCK = 1 << 14
# the representatives' windows are gathered into one array while they fit in
# this many elements (2 MB); past it they stay strided views of the series
_GATHER = 1 << 18


def _rows(array: np.ndarray, at: np.ndarray) -> np.ndarray:
    """array[at] along axis 0 by take, the faster gather, where array is contiguous (take copies any other whole)."""
    return array.take(at, axis=0) if array.flags.c_contiguous else array[at]


def _within(windows: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each pair of windows (a[n], b[n]) lies within the threshold, as euclidean_distance decides it.

    Each pair's squared distance S is one fused product of its difference
    row with itself (np.vecdot), summed in whatever order that takes.
    euclidean_distance sums the same squared differences pairwise, and
    accepts when sqrt of its sum is at most r.  Any order of summing n
    non-negative terms, each rounded once, lies within about n * eps of
    their exact sum T, so both sums lie within that of T and of each other;
    the square root and r * r round by a few eps more, and underflow adds
    at most eps * float_info.min per term, which a floor of
    (n + 3) * float_info.min covers.  So with m = 4(n + 3) eps, a margin
    twice all of it, a pair with S <= r * r * (1 - m) - floor is within r
    by euclidean_distance too and one with S > r * r * (1 + m) + floor is
    not; only a pair between the two takes that function's formula, on the
    same differences.
    """
    diff = _rows(windows, a)
    diff -= _rows(windows, b)
    total = np.vecdot(diff, diff)
    span, square = windows.shape[1], threshold * threshold
    margin, floor = 4 * (span + 3) * sys.float_info.epsilon, (span + 3) * sys.float_info.min
    low, high = square * (1 - margin) - floor, square * (1 + margin) + floor
    within = total <= low
    unsure = ~within
    if np.minimum.reduce(total, where=unsure, initial=math.inf) <= high:
        unsure &= total <= high
        exact = diff[unsure]
        exact *= exact
        within[unsure] = np.sqrt(np.add.reduce(exact, axis=1)) <= threshold
    return within


def _chain_labels(
    values: np.ndarray, span: int, starts: np.ndarray, words: np.ndarray, raw: np.ndarray, threshold: float
) -> np.ndarray:
    """Single-linkage group labels of every tracker's starts.

    words holds each start's tracker (word id) and raw its raw-window id,
    in any order, each raw class within one tracker.  Equal raw windows are
    bit-equal in values (z-normalizing is elementwise), so one
    representative start per class stands for all its members: their
    distances to any window are its distances, bit for bit.

    The representatives are sorted by tracker, then by window sum, and
    their windows gathered in that order while they fit in _GATHER
    elements; past that they stay strided views of values, indexed through
    the representatives' starts, so no generation holds more than a slice's
    windows.  One lower bound prunes pairs (Keogh et al. 2001): a pair's
    distance is at least |S_i - S_j| / sqrt(span), S being the window sums,
    so row i pairs only with rows i + 1 .. i + gap[i] - 1 of its tracker,
    the band.  Each window sum is the difference of two prefix sums of
    values, one running sum per call.  A running sum of k terms errs by at
    most about k * eps * sum|v|, so no key is off by more than about
    2m * eps * sum|v| on m values; the band's margin covers that and the
    distance's rounding, so every d <= r decision is still
    euclidean_distance's, in _within.  run_mta passes z-normalized values,
    whose squares sum to at most m, so their sum|v| is at most m.  The
    keys may differ between bit-equal windows, which sax's letters may not
    (equal windows must get equal symbols); here they decide no letter and
    no d <= r, only which pairs _within sees.

    The band is walked by diagonals: a batch takes the pairs (i, i + t) of
    every live row for the next k diagonals t, k = block // live rows but at
    least one and none past the widest band: at most block pairs, or one
    diagonal when the live rows are more.  The batch's open pairs go to
    _within in slices of block pairs.  Pairs within r are held and joined
    (_join) once a block's worth is held, and at the end; pairs already in
    one component are skipped.  A row retires when its band is spent, and
    after a join when the rest of its band is one run of rows of its own
    label, which no pair can join further; the runs' ends cost O(n) per
    join.  So once a tracker's rows share a component, as on flat data, its
    pairs stop being enumerated: the pairs paid for are about the open ones
    plus a diagonal per row.  Returns one label per start; equal labels mean
    one group.
    """
    # one position per class, whichever member the scatter keeps
    at = np.arange(raw.size)
    seen = np.empty(int(np.maximum.reduce(raw, initial=-1)) + 1, dtype=at.dtype)
    seen[raw] = at
    picked = (seen[raw] == at).nonzero()[0]
    tracker = words[picked]
    by_word = tracker.copy()
    by_word.sort()
    if not np.logical_or.reduce(by_word[1:] == by_word[:-1]):  # no tracker has two classes
        return raw
    inverse = picked.searchsorted(seen[raw])  # each start's class
    values = np.ascontiguousarray(values, dtype=np.float64)
    step = values.strides[0]
    # every span-point window as a row of a strided view, and the prefix sums of values
    windows = np.ndarray((values.size - span + 1, span), values.dtype, values, 0, (step, step))
    total = np.zeros(values.size + 1)
    values.cumsum(out=total[1:])
    # the margin: a pair's difference of sums errs by about 4m * eps * sum|v|,
    # euclidean_distance's d by about (span + 3) * eps times d, and adding
    # limit to a sum rounds by eps more; limit covers each twice
    eps = sys.float_info.epsilon
    limit = threshold * math.sqrt(span) * (1 + 4 * (span + 3) * eps)
    limit += 8 * (values.size + 2) * eps * float(np.add.reduce(np.abs(values)))
    # representatives by tracker, then window sum, their windows gathered in that order if they fit
    rep = starts[picked]
    sums = total[rep + span] - total[rep]
    order = np.lexsort((sums, tracker))
    rep, tracker, sums = rep[order], tracker[order], sums[order]
    gathered = rep.size * span <= _GATHER
    if gathered:
        windows = windows[rep]
    # row i pairs representative i with the later ones of its tracker whose
    # sum lies within the band: one search on (tracker, rank of the sum)
    n, rows = rep.size, np.arange(rep.size)
    ranked = sums.copy()
    ranked.sort()
    base = tracker * (n + 1)
    key = base + ranked.searchsorted(sums)
    top = base + ranked.searchsorted(sums + limit, side="right")
    # live rows with their band's width, narrowest first, so the spent rows
    # are always a prefix: row i's partners are i + 1 .. i + gap[i] - 1
    gap = key.searchsorted(top) - rows
    live = gap.argsort()
    gap = gap[live]
    block = max(1, _PAIR_BLOCK // span)
    label, joined, d = rows, False, 1
    held_i, held_j, held = [], [], 0
    while True:
        cut = gap.searchsorted(d, side="right")
        live, gap = live[cut:], gap[cut:]
        if not live.size:
            break
        # the next block // live rows diagonals (at least one), none past the widest band
        offsets = rows[d : min(d + max(1, block // live.size), gap[-1])]
        # the pairs (i, i + t) by diagonal t, then row: live repeated by a zero stride
        valid = np.less.outer(offsets, gap)
        i = np.ndarray(valid.shape, live.dtype, live, 0, (0, live.strides[0]))[valid]
        j = np.add.outer(offsets, live)[valid]
        d += offsets.size
        if joined:
            open_ = label[i] != label[j]
            i, j = i[open_], j[open_]
        # the open pairs in slices of block, so every gather stays within _PAIR_BLOCK
        for lo in range(0, i.size, block):
            a, b = i[lo : lo + block], j[lo : lo + block]
            x, y = (a, b) if gathered else (rep[a], rep[b])  # their rows in windows
            within = _within(windows, x, y, threshold)
            held_i.append(a[within])
            held_j.append(b[within])
            held += held_i[-1].size
        # join once a block's worth is held, bounding the held edges
        if held >= block:
            label = _join(label, np.concatenate(held_i), np.concatenate(held_j))
            held_i, held_j, held, joined = [], [], 0, True
            # retire the rows whose band from i + d on is one run of their own label
            last = np.empty(n, dtype=bool)
            np.not_equal(label[1:], label[:-1], out=last[:-1])
            last[-1] = True
            ends = last.nonzero()[0]  # the last row of each run
            x = np.minimum(live + d, n - 1)
            keep = (label[x] != label[live]) | (ends[ends.searchsorted(x)] < live + gap - 1)
            live, gap = live[keep], gap[keep]
    if held:
        label = _join(label, np.concatenate(held_i), np.concatenate(held_j))
    by_class = np.empty(n, dtype=label.dtype)
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
        if not np.logical_or.reduce(cross):
            return label
        x, y = x[cross], y[cross]
        target = np.arange(label.size)
        target[np.maximum(x, y)] = np.minimum(x, y)
        # every hook points at a smaller label, so the jumps end at roots
        while True:
            hop = target[target]
            if np.logical_and.reduce(hop == target):
                break
            target = hop
        label = target[label]


def eliminate_unconfirmed(matrix: CandidateMatrix, found: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Keep only trackers stimulated during confirmation: a mask of the word ids with a group."""
    members, bounds = found
    confirmed = np.zeros(matrix.count, dtype=bool)
    confirmed[matrix.ids[members[bounds[:-1]]]] = True
    return confirmed


def proliferate_and_mutate(matrix: CandidateMatrix, confirmed: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Extend every confirmed tracker by every template symbol; parents do not persist.

    template marks the windows whose letter was confirmed at generation 1,
    one per window, m - s + 1 in all.  Returns the next tracker mask: start
    i holds one when its word was confirmed and its next window, i + span,
    is in the template.
    """
    n, at = max(template.size - matrix.span, 0), matrix.span
    return confirmed[matrix.ids[:n]] & template[at : at + n]


def _encapsulated(
    members: np.ndarray, bounds: np.ndarray, longer: np.ndarray, longer_bounds: np.ndarray, s: int
) -> np.ndarray:
    """Which groups any of the next generation's groups encapsulates: a mask over the groups.

    Both generations are given as groups returns them.  A group G' of span
    + s points encapsulates a group G of span points when every member o of
    G has a member b of G' with o - s <= b <= o, as [b, b + span + s) then
    holds [o, o + span).  So a cover holds one of the s + 1 starts first -
    s .. first, first being G's first member, and one of last - s .. last:
    G's candidates are the groups holding those first starts that reach its
    last member, nearest first.  Each pass tests every group still uncovered
    against its nearest untried candidate, all its members at once; there
    are at most s + 1 passes, and the first tests every group in place.  One
    search over the keys (group, start) of the longer members, which
    ascend, finds the latest b <= o in G' for every o: G' holds a start at
    or before first, so the search never lands before G'.
    """
    lo = bounds[:-1]
    if not longer.size or not lo.size:
        return np.zeros(lo.size, dtype=bool)
    first, last, sizes = members[lo], members[bounds[1:] - 1], bounds[1:] - lo
    count = longer_bounds.size - 1
    # keys s + 1 apart from group to group, so the starts of no group,
    # labelled count (those before 0 too, by wrapping), come within s of no key
    base = int(np.maximum(np.maximum.reduce(last), np.maximum.reduce(longer))) + s + 1
    which = np.arange(count).repeat(longer_bounds[1:] - longer_bounds[:-1])
    label = np.empty(base, dtype=which.dtype)
    label.fill(count)
    label[longer] = which
    keys = which * base + longer

    def reach(host: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Whether each host[n] holds a start in [o[n] - s, o[n]]; host[n] is count or holds one at or before o[n]."""
        key = host * base + o
        at = keys.searchsorted(key, side="right") - 1
        key -= s
        return keys[at] >= key

    host = label[first[:, None] - np.arange(s + 1)]  # by group and shift d = 0..s
    untried = reach(host, last[:, None])  # the candidates
    # pass 1, on the whole arrays: a group with no candidate tries the group
    # of its first member, which cannot cover it
    tried = host[np.arange(lo.size), untried.argmax(axis=1)]
    untried &= host != tried[:, None]
    covered = np.logical_and.reduceat(reach(tried.repeat(sizes), members), lo)
    while True:
        todo = (np.logical_or.reduce(untried, axis=1) & ~covered).nonzero()[0]
        if not todo.size:
            return covered
        tried = host[todo, untried[todo].argmax(axis=1)]
        untried[todo] &= host[todo] != tried[:, None]
        n = sizes[todo]
        ends = n.cumsum()
        o = members[(bounds[todo] - ends + n).repeat(n) + np.arange(ends[-1])]
        covered[todo] = np.logical_and.reduceat(reach(tried.repeat(n), o), ends - n)


def _memory(span: int, members: np.ndarray, bounds: np.ndarray, keep: np.ndarray) -> list[MemoryMotif]:
    """The memory motifs of the groups that keep marks, with empty text (MotifSet.with_text cuts it)."""
    sizes = bounds[1:] - bounds[:-1]
    members, sizes = members[keep.repeat(sizes)], sizes[keep]
    flat, ends = members.tolist(), sizes.cumsum().tolist()
    return [MemoryMotif("", span, tuple(flat[lo:hi])) for lo, hi in zip([0] + ends[:-1], ends)]


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
    generation 1.  Pooled motifs carry no text; the streamlined ones get
    theirs from MotifSet.with_text.

    A generation is named by its span, the point length of its words.  Its
    groups are stored once the next one, s points longer, is confirmed,
    except those any next-generation group encapsulates (_encapsulated):
    streamline would drop them, so covered groups never enter the pool.
    The last generation's groups are stored whole.
    """
    s, m = config.sax.symbol_length, len(series)
    norm = z_normalize(series)
    matrix = build_symbol_matrix(norm, config.sax)
    letters = matrix.letters
    blocks = _window_ids(series.values, s)
    trackers = np.ones(letters.size, dtype=bool)
    candidates = template = None
    pool: list[MemoryMotif] = []
    held = (np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp))  # the groups not yet stored, span - s points long
    span = s
    while span <= m:
        candidates = build_candidate_matrix(letters, blocks, candidates, s, config.tme_enabled)
        tracked = candidates.words[trackers[candidates.words]]  # the candidate starts holding a tracker
        if not eliminate_unmatched(match_trackers(candidates, tracked)).size:
            break
        found = confirm_motifs(candidates, tracked, norm, config.match_threshold)
        confirmed = eliminate_unconfirmed(candidates, found)
        if found[1].size == 1:  # no group confirmed
            break
        pool += _memory(span - s, *held, ~_encapsulated(*held, *found, s))
        held = found
        if template is None:
            template = confirmed[letters]
        trackers = proliferate_and_mutate(candidates, confirmed, template)
        span += s
    pool += _memory(span - s, *held, np.ones(held[1].size - 1, dtype=bool))
    return streamline(pool).with_text(matrix)


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
