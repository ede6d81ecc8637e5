import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiftrack import (
    CandidateMatrix,
    MemoryMotif,
    MotifSet,
    MtaConfig,
    MutationTemplate,
    SaxConfig,
    SymbolMatrix,
    TimeSeries,
    Tracker,
    Word,
    build_candidate_matrix,
    build_symbol_matrix,
    confirm_motifs,
    encapsulates,
    euclidean_distance,
    eliminate_unconfirmed,
    eliminate_unmatched,
    format_motif_report,
    init_trackers,
    match_trackers,
    proliferate_and_mutate,
    quality_measure,
    run_mta,
    streamline,
    z_normalize,
)
from motiftrack.series import NormalizedSeries

from conftest import motif_signature

TABLE_MOTIFS = [
    (280, (386, 717)),
    (80, (0, 227)),
    (70, (8, 160, 235)),
    (50, (198, 262)),
    (50, (668, 950)),
    (40, (39, 191, 266, 324)),
    (40, (619, 668, 950)),
    (40, (77, 120)),
]


def matrix_of(symbols: str, s: int, a: int = 4) -> SymbolMatrix:
    return SymbolMatrix(symbols, SaxConfig(s, a), len(symbols) + s - 1)


def texts(population):
    return [t.text for t in population]


class TestInitTrackers:
    def test_two(self):
        assert texts(init_trackers(2)) == ["a", "b"]

    def test_four(self):
        assert texts(init_trackers(4)) == ["a", "b", "c", "d"]

    def test_ten(self):
        population = init_trackers(10)
        assert len(population) == 10
        assert all(len(t.text) == 1 and t.match_count == 0 for t in population)

    def test_too_small(self):
        with pytest.raises(ValueError, match="alphabet too small"):
            init_trackers(1)


class TestCandidateMatrix:
    def test_tme_cap_resets(self):
        # "aaab" with s=1: at most one consecutive elimination allowed
        cm = build_candidate_matrix(matrix_of("aaab", 1), 1, True)
        assert [(w.start, w.text) for w in cm.words] == [(0, "a"), (2, "a"), (3, "b")]

    def test_tme_keeps_alternation(self):
        cm = build_candidate_matrix(matrix_of("abab", 2), 1, True)
        assert [w.text for w in cm.words] == ["a", "b", "a", "b"]

    def test_no_tme_keeps_everything(self):
        sm = matrix_of("aaaaa", 2)  # m = 6
        for g in (1, 2, 3):
            cm = build_candidate_matrix(sm, g, False)
            assert len(cm.words) == sm.series_length - g * 2 + 1

    def test_word_texts_use_stride_s(self):
        sm = matrix_of("abcdef", 2)  # m = 7
        cm = build_candidate_matrix(sm, 2, False)
        assert [w.text for w in cm.words] == ["ac", "bd", "ce", "df"]
        cm3 = build_candidate_matrix(sm, 3, False)
        assert [w.text for w in cm3.words] == ["ace", "bdf"]

    def test_empty_when_no_word_constructible(self):
        cm = build_candidate_matrix(matrix_of("ab", 3), 2, False)  # m=4 < 6
        assert cm.words == ()

    def test_tme_invariant_fuzz(self):
        rng = random.Random(11)
        for _ in range(200):
            s = rng.randint(1, 5)
            n = rng.randint(1, 60)
            symbols = "".join(rng.choice("ab") for _ in range(n))
            sm = matrix_of(symbols, s)
            cm = build_candidate_matrix(sm, 1, True)
            full = build_candidate_matrix(sm, 1, False).words
            starts = [w.start for w in cm.words]
            assert starts[0] == 0
            by_start = {w.start: w.text for w in full}
            for prev, nxt in zip(cm.words, cm.words[1:]):
                gap = nxt.start - prev.start - 1
                assert gap <= s
                for eliminated in range(prev.start + 1, nxt.start):
                    assert by_start[eliminated] == prev.text


class TestMatching:
    def test_counts(self):
        cm = CandidateMatrix((Word("a", 0), Word("b", 1), Word("a", 2)), 1, 1)
        population = [Tracker("a"), Tracker("b"), Tracker("c")]
        match_trackers(population, cm)
        assert [t.match_count for t in population] == [2, 1, 0]

    def test_two_symbol_words(self):
        cm = CandidateMatrix((Word("ab", 0), Word("ba", 1)), 2, 1)
        population = [Tracker("ab")]
        match_trackers(population, cm)
        assert population[0].match_count == 1

    def test_generation_skew(self):
        cm = CandidateMatrix((Word("ab", 0),), 2, 1)
        with pytest.raises(RuntimeError, match="generation skew"):
            match_trackers([Tracker("a")], cm)

    def test_eliminate_unmatched(self):
        population = [Tracker("a"), Tracker("b"), Tracker("c")]
        population[0].match_count = 3
        population[1].match_count = 1
        population[2].match_count = 2
        survivors = eliminate_unmatched(population)
        assert texts(survivors) == ["a", "c"]
        assert all(t.match_count == 0 for t in survivors)

    def test_eliminate_all(self):
        population = [Tracker("a"), Tracker("b")]
        for t in population:
            t.match_count = 1
        assert eliminate_unmatched(population) == []


def normalized(values) -> NormalizedSeries:
    return NormalizedSeries(np.array(values, dtype=float), 0.0, 1.0)


class TestConfirm:
    def test_identical_pair_confirms(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 7.0]
        cm = CandidateMatrix((Word("ab", 10), Word("ab", 50)), 2, 2)
        tracker = Tracker("ab")
        found, _ = confirm_motifs([tracker], cm, normalized(vals), 0.0)
        assert motif_signature(found) == [(4, (10, 50))]
        assert found[0].text == "ab"
        assert tracker.match_count == 1

    def test_differing_pair_rejected(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 8.0]
        cm = CandidateMatrix((Word("ab", 10), Word("ab", 50)), 2, 2)
        tracker = Tracker("ab")
        found, _ = confirm_motifs([tracker], cm, normalized(vals), 0.0)
        assert found == []
        assert tracker.match_count == 0

    def test_three_way_group(self):
        # mirrors a repeat seen at three distant positions
        vals = [float(1000 + i) for i in range(1000)]
        block = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0] * 2
        for start in (387, 620, 669):
            vals[start : start + 20] = block
        cm = CandidateMatrix(
            (Word("aa", 387), Word("aa", 620), Word("aa", 669)), 2, 10
        )
        found, _ = confirm_motifs([Tracker("aa")], cm, normalized(vals), 0.0)
        assert motif_signature(found) == [(20, (387, 620, 669))]

    def test_colliding_classes_stay_separate(self):
        # same symbol text over different underlying data: two motifs result
        vals = [float(1000 + i) for i in range(80)]
        vals[0:2] = [1.0, 1.0]
        vals[10:12] = [1.0, 1.0]
        vals[20:22] = [2.0, 2.0]
        vals[30:32] = [2.0, 2.0]
        cm = CandidateMatrix(
            (Word("a", 0), Word("a", 10), Word("a", 20), Word("a", 30)), 1, 2
        )
        found, _ = confirm_motifs([Tracker("a")], cm, normalized(vals), 0.0)
        assert motif_signature(found) == [(2, (0, 10)), (2, (20, 30))]
        assert all(mo.text == "a" for mo in found)

    def test_threshold_admits_near_misses(self):
        vals = [0.0] * 40
        vals[10:12] = [1.0, 1.0]
        vals[30:32] = [1.0, 1.05]
        cm = CandidateMatrix((Word("b", 10), Word("b", 30)), 1, 2)
        found, _ = confirm_motifs([Tracker("b")], cm, normalized(vals), 0.1)
        assert motif_signature(found) == [(2, (10, 30))]

    def test_eliminate_unconfirmed(self):
        stimulated, silent = Tracker("ab"), Tracker("cd")
        stimulated.match_count = 1
        population = eliminate_unconfirmed([stimulated, silent])
        assert texts(population) == ["ab"]
        assert population[0].match_count == 0
        assert eliminate_unconfirmed([silent]) == []


def per_tracker_confirm(names, candidates, data, r):
    """One confirm_motifs call per tracker: the motifs and match counts in order."""
    found, counts = [], []
    for text in names:
        tracker = Tracker(text)
        own, _ = confirm_motifs([tracker], candidates, data, r)
        found += own
        counts.append(tracker.match_count)
    return found, counts


class TestConfirmSharedRounds:
    """One confirm_motifs call over many trackers at r > 0 equals a call per tracker."""

    def test_hand_built_trackers_of_one_two_three_and_fifty_starts(self):
        # every window is a small perturbation of one shape, so windows of
        # different trackers are within r of each other; only same-text
        # starts may join a group
        rng = np.random.default_rng(5)
        span, count = 4, 56
        vals = np.tile([0.0, 1.0, 0.0, -1.0], count) + rng.normal(0, 0.05, 4 * count)
        vals[::12] += 3.0  # some far windows, so the large tracker has several groups
        sizes = {"a": 1, "b": 2, "c": 3, "d": 50}
        starts = iter(range(0, 4 * count, 4))
        words = [Word(text, next(starts)) for text, k in sizes.items() for _ in range(k)]
        random.Random(5).shuffle(words)
        candidates = CandidateMatrix(tuple(words), 1, span)
        data = normalized(vals)
        r = 0.5
        population = [Tracker(text) for text in sizes]
        found, _ = confirm_motifs(population, candidates, data, r)
        expected, counts = per_tracker_confirm(sizes, candidates, data, r)
        assert found == expected
        assert [t.match_count for t in population] == counts == [0, 1, 1, 1]
        by_text = {text: {w.start for w in words if w.text == text} for text in sizes}
        assert all(set(mo.occurrences) <= by_text[mo.text] for mo in found)
        assert len([mo for mo in found if mo.text == "d"]) >= 2
        # the same windows under one text chain across the trackers' starts
        pooled = CandidateMatrix(tuple(Word("a", w.start) for w in words), 1, span)
        merged, _ = confirm_motifs([Tracker("a")], pooled, data, r)
        assert max(len(mo.occurrences) for mo in merged) > max(len(mo.occurrences) for mo in found)

    @pytest.mark.parametrize("tme", [False, True])
    def test_every_text_of_seeded_series(self, tme):
        sizes_seen = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            m = 200
            if seed % 3 == 0:
                vals = np.cumsum(rng.standard_normal(m))
            elif seed % 3 == 1:
                vals = np.tile(rng.standard_normal(7), m // 7 + 1)[:m] + rng.normal(0, 0.1, m)
            else:
                vals = np.where(rng.random(m) < 0.7, 0.0, rng.standard_normal(m))
            s = 1 + seed % 3
            norm = z_normalize(TimeSeries(vals))
            matrix = build_symbol_matrix(norm, SaxConfig(s, 4))
            for generation in (1, 2, 4):
                candidates = build_candidate_matrix(matrix, generation, tme)
                counted = {}
                for w in candidates.words:
                    counted[w.text] = counted.get(w.text, 0) + 1
                sizes_seen.update(counted.values())
                for r in (0.3, 1.0, 2.5):
                    population = [Tracker(text) for text in counted]
                    found, _ = confirm_motifs(population, candidates, norm, r)
                    expected, counts = per_tracker_confirm(counted, candidates, norm, r)
                    assert found == expected, (seed, generation, r)
                    assert [t.match_count for t in population] == counts
        assert {1, 2, 3} <= sizes_seen and max(sizes_seen) >= 50


class TestThresholdBoundary:
    """A pair at distance exactly r is accepted and one a float below is not.

    The spans cover the edges of numpy's unrolled and pairwise-summation
    blocks, where a sum in another order could round differently.
    """

    @pytest.mark.parametrize("span", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_distance_equal_to_r_accepted(self, span):
        rng = np.random.default_rng(span)
        starts = [0, span + 3, 2 * span + 5, 3 * span + 9, 4 * span + 11]
        vals = rng.standard_normal(5 * span + 20)
        data = normalized(vals)
        windows = [vals[x : x + span] for x in starts]
        # the closest pair is the only one within r = its distance
        r, a, b = min(
            (euclidean_distance(windows[i], windows[j]), starts[i], starts[j])
            for i in range(len(starts))
            for j in range(i + 1, len(starts))
        )
        cm = CandidateMatrix(tuple(Word("a", x) for x in starts), 1, span)
        found, _ = confirm_motifs([Tracker("a")], cm, data, r)
        assert motif_signature(found) == [(span, (a, b))]
        found, _ = confirm_motifs([Tracker("a")], cm, data, float(np.nextafter(r, 0)))
        assert found == []


class TestMtaConfig:
    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), float("nan"))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), -0.5)


class TestProliferation:
    def test_single_parent(self):
        out = proliferate_and_mutate([Tracker("a")], MutationTemplate("ab"))
        assert texts(out) == ["aa", "ab"]

    def test_cross_product(self):
        out = proliferate_and_mutate(
            [Tracker("ab"), Tracker("bb")], MutationTemplate("ab")
        )
        assert texts(out) == ["aba", "abb", "bba", "bbb"]
        assert all(t.match_count == 0 for t in out)

    def test_empty_survivors(self):
        assert proliferate_and_mutate([], MutationTemplate("ab")) == []

    def test_empty_template(self):
        with pytest.raises(RuntimeError, match="template empty"):
            proliferate_and_mutate([Tracker("a")], MutationTemplate(""))


class TestStreamline:
    def test_prefix_encapsulated(self):
        pool = [
            MemoryMotif("zzzz", 40, (386, 717)),
            MemoryMotif("z" * 28, 280, (386, 717)),
        ]
        out = streamline(pool)
        assert motif_signature(out) == [(280, (386, 717))]

    def test_partially_outside_retained(self):
        pool = [
            MemoryMotif("wwww", 40, (619, 668, 950)),
            MemoryMotif("z" * 28, 280, (386, 717)),
        ]
        out = streamline(pool)
        assert motif_signature(out) == [(280, (386, 717)), (40, (619, 668, 950))]

    def test_duplicates_collapse(self):
        motif = MemoryMotif("ab", 4, (1, 9))
        assert len(streamline([motif, motif, MemoryMotif("ab", 4, (1, 9))])) == 1

    def test_equal_length_subset_removed(self):
        pool = [
            MemoryMotif("ab", 4, (10, 50)),
            MemoryMotif("ab", 4, (10, 50, 90)),
        ]
        out = streamline(pool)
        assert motif_signature(out) == [(4, (10, 50, 90))]

    def test_canonical_ordering(self):
        pool = [
            MemoryMotif("b", 2, (30, 60)),
            MemoryMotif("aa", 4, (100, 200)),
            MemoryMotif("c", 2, (5, 90)),
        ]
        out = streamline(pool)
        assert motif_signature(out) == [(4, (100, 200)), (2, (5, 90)), (2, (30, 60))]


def reference_covers(big, small) -> bool:
    return big.point_length >= small.point_length and all(
        any(b <= o and o + small.point_length <= b + big.point_length for b in big.occurrences)
        for o in small.occurrences
    )


def reference_streamline(pool) -> list:
    """streamline by its definition, comparing every pair of motifs."""
    motifs = sorted(
        set(pool), key=lambda mo: (-mo.point_length, -len(mo.occurrences), mo.occurrences, mo.text)
    )
    retained = []
    for mot in motifs:
        if not any(reference_covers(keep, mot) for keep in retained):
            retained.append(mot)
    return sorted(retained, key=lambda mo: (-mo.point_length, mo.occurrences, mo.text))


occurrence_lists = st.lists(st.integers(0, 40), min_size=1, max_size=6)
pool_motifs = st.builds(
    MemoryMotif,
    st.sampled_from(["a", "b"]),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.one_of(occurrence_lists.map(lambda o: tuple(sorted(o))), occurrence_lists.map(tuple)),
)


@st.composite
def pools(draw):
    """Motifs plus copies, shortened subsets and shifted subsets of them."""
    pool = draw(st.lists(pool_motifs, max_size=12))
    for _ in range(draw(st.integers(0, 8)) if pool else 0):
        base = draw(st.sampled_from(pool))
        kept = draw(st.lists(st.sampled_from(base.occurrences), min_size=1, max_size=4))
        shift = draw(st.integers(0, 2))
        length = draw(st.integers(1, base.point_length))
        text = draw(st.sampled_from([base.text, "c"]))
        pool.append(MemoryMotif(text, length, tuple(sorted(o + shift for o in kept))))
    return pool + draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else pool


class TestStreamlineIndex:
    """streamline's indexes give the all-pairs answer."""

    @settings(max_examples=200)
    @given(pools())
    def test_matches_all_pairs_reference(self, pool):
        assert list(streamline(pool)) == reference_streamline(pool)

    @given(pool_motifs, pool_motifs)
    def test_encapsulates_matches_reference(self, big, small):
        unsorted = MemoryMotif(big.text, big.point_length, big.occurrences[::-1])
        assert encapsulates(big, small) == reference_covers(big, small)
        assert encapsulates(unsorted, small) == reference_covers(big, small)

    def test_near_start_that_does_not_cover_beside_one_that_does(self):
        # [8, 13) is not inside [0, 10) but is inside [3, 13)
        big = MemoryMotif("a", 10, (0, 3, 40))
        small = MemoryMotif("b", 5, (8, 44))
        assert encapsulates(big, small)
        assert encapsulates(MemoryMotif("a", 10, (40, 3, 0)), small)
        assert list(streamline([big, small])) == [big]

    def test_second_retained_motif_covers_after_first_fails(self):
        # both retained motifs cover [8, 13); only the second covers [44, 49)
        first = MemoryMotif("a", 10, (3, 100, 200))
        second = MemoryMotif("a", 10, (5, 40))
        small = MemoryMotif("b", 5, (8, 44))
        assert list(streamline([small, second, first])) == [first, second]

    def test_rejection_is_not_carried_to_the_next_candidate(self):
        # the same retained motif fails one candidate and covers the next,
        # both with the same first start
        big = MemoryMotif("a", 10, (3, 40))
        richer = MemoryMotif("b", 5, (8, 30, 60))
        covered = MemoryMotif("b", 5, (8, 44))
        pool = [covered, richer, big]
        assert list(streamline(pool)) == reference_streamline(pool) == [big, richer]

    def test_longer_motif_at_every_start_drops_shorter(self):
        longer = MemoryMotif("ab", 8, (2, 20, 31))
        pool = [MemoryMotif("a", 4, (2, 31)), MemoryMotif("a", 4, (2, 20, 31)), longer]
        assert list(streamline(pool)) == reference_streamline(pool) == [longer]

    def test_motif_without_occurrences(self):
        empty = MemoryMotif("a", 4, ())
        assert list(streamline([empty])) == [empty]
        pool = [empty, MemoryMotif("b", 6, (1, 9))]
        assert list(streamline(pool)) == reference_streamline(pool) == [pool[1]]


class TestRunMta:
    def test_planted_two_blocks(self, two_block_series):
        out = run_mta(two_block_series, MtaConfig(SaxConfig(2, 4)))
        assert motif_signature(out) == [(20, (0, 40))]

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="series shorter than symbol length"):
            run_mta(TimeSeries(np.array([1.0])), MtaConfig(SaxConfig(2, 4)))

    def test_deterministic(self, two_block_series):
        first = run_mta(two_block_series, MtaConfig(SaxConfig(2, 4)))
        second = run_mta(two_block_series, MtaConfig(SaxConfig(2, 4)))
        assert first == second

    def test_constant_series_with_tme(self):
        # degenerate input: every window identical.  With the elimination cap
        # at s=2, generation 1 retains starts 0/3/6 and generation 2 retains
        # 0/3; the length-2 motif keeps its occurrence at 6, whose interval
        # [6, 8) pokes out of the length-4 intervals, so both motifs remain.
        out = run_mta(TimeSeries(np.array([5.0] * 8)), MtaConfig(SaxConfig(2, 4), 0.0, True))
        assert [(mo.text, mo.point_length, mo.occurrences) for mo in out] == [
            ("cc", 4, (0, 3)),
            ("c", 2, (0, 3, 6)),
        ]

    def test_no_repeats_gives_empty_set(self):
        series = TimeSeries(np.arange(50, dtype=float))
        out = run_mta(series, MtaConfig(SaxConfig(2, 4)))
        assert len(out) == 0

    def test_lengths_are_generation_multiples(self):
        rng = random.Random(23)
        for _ in range(20):
            s = rng.choice([2, 3, 4])
            m = rng.randint(20, 120)
            vals = [float(rng.randrange(4)) for _ in range(m)]
            series = TimeSeries(np.array(vals))
            for mo in run_mta(series, MtaConfig(SaxConfig(s, 4))):
                assert mo.point_length % s == 0
                assert mo.point_length == len(mo.text) * s

    def test_exact_mode_occurrences_identical_underneath(self):
        rng = random.Random(29)
        for _ in range(20):
            m = rng.randint(30, 150)
            vals = [float(rng.randrange(5)) for _ in range(m)]
            series = TimeSeries(np.array(vals))
            norm = z_normalize(series).values
            for mo in run_mta(series, MtaConfig(SaxConfig(2, 4))):
                first = norm[mo.occurrences[0] : mo.occurrences[0] + mo.point_length]
                for occ in mo.occurrences[1:]:
                    assert np.array_equal(first, norm[occ : occ + mo.point_length])

    def test_planted_pairs_always_covered(self):
        # without TME, any planted exact repeat of length L must end up
        # covered by a single motif at granularity s*floor(L/s)
        rng = random.Random(31)
        for _ in range(15):
            s = rng.choice([2, 3])
            m = rng.randint(40, 160)
            vals = [float(rng.randrange(6)) for _ in range(m)]
            length = rng.randint(s, m // 3)
            src = rng.randrange(0, m - length + 1)
            clear = [p for p in range(0, m - length + 1) if abs(p - src) >= length]
            if not clear:
                continue
            dst = rng.choice(clear)
            vals[dst : dst + length] = vals[src : src + length]
            out = run_mta(TimeSeries(np.array(vals)), MtaConfig(SaxConfig(s, 4)))
            trunc = s * (length // s)

            def covers(mo, start):
                return any(
                    b <= start and start + trunc <= b + mo.point_length
                    for b in mo.occurrences
                )

            assert any(covers(mo, src) and covers(mo, dst) for mo in out), (s, src, dst, length)


class TestQualityMeasure:
    def test_reference_table(self):
        motifs = MotifSet(
            tuple(MemoryMotif("x" * (L // 10), L, occ) for L, occ in TABLE_MOTIFS)
        )
        assert quality_measure(motifs, 40) == 1490

    def test_empty(self):
        assert quality_measure(MotifSet(()), 40) == 0

    def test_single(self):
        motifs = MotifSet((MemoryMotif("abcd", 40, (1, 2, 3)),))
        assert quality_measure(motifs, 40) == 120

    def test_min_length_is_inclusive(self):
        motifs = MotifSet((MemoryMotif("abcd", 40, (0, 100)),))
        assert quality_measure(motifs, 40) == 80
        assert quality_measure(motifs, 41) == 0


class TestReport:
    def test_format(self):
        motifs = MotifSet(
            (
                MemoryMotif("abc", 60, (100, 300)),
                MemoryMotif("zz", 40, (500, 620)),
            )
        )
        assert format_motif_report(motifs, 40) == (
            "motif 1: length=60 count=2 starts=100,300 symbols=abc\n"
            "motif 2: length=40 count=2 starts=500,620 symbols=zz\n"
            "quality(min_len=40)=200\n"
        )

    def test_filters_short_motifs(self):
        motifs = MotifSet(
            (
                MemoryMotif("abc", 60, (100, 300)),
                MemoryMotif("z", 20, (1, 2)),
            )
        )
        report = format_motif_report(motifs, 40)
        assert "length=20" not in report
        assert report.endswith("quality(min_len=40)=120\n")

    def test_empty_set(self):
        assert format_motif_report(MotifSet(()), 40) == "quality(min_len=40)=0\n"
