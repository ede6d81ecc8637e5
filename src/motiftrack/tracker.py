"""Generational motif search over the symbol matrix.

Each generation, candidate words of g symbols (covering g*s points) are
extracted from the symbol matrix, optionally thinned by trivial-match
elimination, and matched against a population of string trackers.  Trackers
matching fewer than two words die; the rest are confirmed against the
underlying data (equal raw values at r = 0, Euclidean distance within r in
z-normalized units at r > 0), extended by one symbol, and the process
repeats until the population is empty.  Confirmed repeats accumulate
in a memory pool that is finally streamlined into a canonical motif set.

There is no randomness anywhere in the cycle: "mutation" enumerates the
fixed template symbols, so identical inputs always produce identical output.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .sax import ALPHABET, SaxConfig, SymbolMatrix, build_symbol_matrix
from .series import NormalizedSeries, TimeSeries, euclidean_distance, z_normalize


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
        if self.match_threshold < 0:
            raise ValueError("match threshold must be non-negative")


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


def _find(parent: dict, x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


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
    bytes, which can merge distinct raw values.  At a positive threshold,
    every unordered pair of same-text words is compared with the Euclidean
    distance over those points (z-normalized units in run_mta), and groups
    are chains of accepted pairs.  Each group of two or more words becomes
    one memory motif.  Distinct groups can share a tracker text, since
    different data can collide onto the same symbols.  A tracker is
    stimulated iff it has at least one such group.
    """
    values = data.values
    span = matrix.point_span
    by_text: dict[str, list[int]] = defaultdict(list)
    for w in matrix.words:
        by_text[w.text].append(w.start)
    found: list[MemoryMotif] = []
    for tracker in survivors:
        starts = by_text.get(tracker.text, [])
        groups: dict = defaultdict(list)
        if threshold == 0:
            for x in starts:
                groups[values[x : x + span].tobytes()].append(x)
        else:
            parent = {x: x for x in starts}
            for i in range(len(starts)):
                x = starts[i]
                for j in range(i + 1, len(starts)):
                    y = starts[j]
                    # already chained together: the pair cannot change the groups
                    if _find(parent, x) == _find(parent, y):
                        continue
                    d = euclidean_distance(values[x : x + span], values[y : y + span])
                    if d <= threshold:
                        parent[_find(parent, y)] = _find(parent, x)
            for x in starts:
                groups[_find(parent, x)].append(x)
        confirmed = sorted((sorted(g) for g in groups.values() if len(g) >= 2), key=lambda g: g[0])
        for occ in confirmed:
            found.append(MemoryMotif(tracker.text, span, tuple(occ)))
        tracker.match_count = 1 if confirmed else 0
    return found, survivors


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


def encapsulates(big: MemoryMotif, small: MemoryMotif) -> bool:
    """True when every occurrence interval of small lies inside one of big's."""
    if big.point_length < small.point_length:
        return False
    return all(
        any(b <= o and o + small.point_length <= b + big.point_length for b in big.occurrences)
        for o in small.occurrences
    )


def streamline(pool) -> MotifSet:
    """Collapse duplicates, drop encapsulated motifs, and order canonically.

    A motif is dropped iff a retained motif at least as long covers every one
    of its occurrence intervals.  Processing runs longest first (richer
    occurrence sets first among equal lengths, so a superset is always seen
    before its subsets); the survivors form the unique maximal antichain.
    Output order is descending point length, then ascending occurrences.
    """
    unique: dict = {}
    for mot in pool:
        unique.setdefault((mot.text, mot.point_length, mot.occurrences), mot)
    motifs = sorted(
        unique.values(),
        key=lambda mo: (-mo.point_length, -len(mo.occurrences), mo.occurrences, mo.text),
    )
    retained: list[MemoryMotif] = []
    for mot in motifs:
        if any(encapsulates(keep, mot) for keep in retained):
            continue
        retained.append(mot)
    retained.sort(key=lambda mo: (-mo.point_length, mo.occurrences, mo.text))
    return MotifSet(tuple(retained))


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
