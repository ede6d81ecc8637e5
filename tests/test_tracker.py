import random
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motiftrack.tracker as tracker_module
from motiftrack import (
    ALPHABET,
    MemoryMotif,
    MotifSet,
    MtaConfig,
    SaxConfig,
    TimeSeries,
    build_symbol_matrix,
    encapsulates,
    euclidean_distance,
    format_motif_report,
    quality_measure,
    run_mta,
    streamline,
    z_normalize,
)
from motiftrack.series import NormalizedSeries
from motiftrack.tracker import (
    CandidateMatrix,
    confirm_motifs,
    eliminate_unconfirmed,
    eliminate_unmatched,
    match_trackers,
    proliferate_and_mutate,
)

from conftest import (
    candidates_at,
    group_arrays,
    group_lists,
    hand_matrix,
    letters_of,
    motif_signature,
    window_ids,
    word_counts,
)

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


def texts(matrix, symbols: str) -> list[str]:
    """The symbol text of each candidate word."""
    span, s = matrix.point_span, matrix.symbol_length
    return [symbols[i : i + span : s] for i in matrix.words]


def assert_ids_name_texts(matrix, symbols: str) -> None:
    """Two starts share a word id iff their words have one text."""
    span, s = matrix.point_span, matrix.symbol_length
    words = [symbols[i : i + span : s] for i in range(matrix.ids.size)]
    assert matrix.ids.size == len(symbols) + s - span
    pairs = set(zip(words, matrix.ids.tolist()))
    assert len(pairs) == len(set(words)) == len(set(matrix.ids.tolist()))


def letter_series(a: int) -> TimeSeries:
    """Series whose s=1 symbols are the first a letters, then the same letters backwards."""
    gaussian = NormalDist()
    centres = np.array([gaussian.inv_cdf((i + 0.5) / a) for i in range(a)])  # the middle of each letter's bucket
    return TimeSeries(np.concatenate([centres, centres[::-1]]))


class TestInitTrackers:
    """Generation 1 seeds one tracker per letter: every start holds one."""

    @staticmethod
    def letter_motifs(a):
        series = letter_series(a)
        symbols = build_symbol_matrix(z_normalize(series), SaxConfig(1, a)).symbols
        assert symbols == ALPHABET[:a] + ALPHABET[:a][::-1]
        return list(run_mta(series, MtaConfig(SaxConfig(1, a))))

    def test_two(self):
        assert [mo.text for mo in self.letter_motifs(2)] == ["a", "b"]

    def test_four(self):
        assert [mo.text for mo in self.letter_motifs(4)] == ["a", "b", "c", "d"]

    def test_ten(self):
        motifs = self.letter_motifs(10)
        assert len(motifs) == 10
        assert sorted(mo.text for mo in motifs) == list(ALPHABET[:10])
        assert all(mo.point_length == 1 and len(mo.occurrences) == 2 for mo in motifs)


class TestCandidateMatrix:
    def test_tme_cap_resets(self):
        # "aaab" with s=1: at most one consecutive elimination allowed
        cm = candidates_at("aaab", 1, 1, tme=True)
        assert list(zip(cm.words.tolist(), texts(cm, "aaab"))) == [(0, "a"), (2, "a"), (3, "b")]

    def test_tme_keeps_alternation(self):
        cm = candidates_at("abab", 2, 1, tme=True)
        assert texts(cm, "abab") == ["a", "b", "a", "b"]

    def test_no_tme_keeps_everything(self):
        m = 6  # "aaaaa" at s=2
        for g in (1, 2, 3):
            cm = candidates_at("aaaaa", 2, g)
            assert len(cm.words) == m - g * 2 + 1

    def test_word_texts_use_stride_s(self):
        cm = candidates_at("abcdef", 2, 2)  # m = 7
        assert texts(cm, "abcdef") == ["ac", "bd", "ce", "df"]
        assert_ids_name_texts(cm, "abcdef")
        cm3 = candidates_at("abcdef", 2, 3)
        assert texts(cm3, "abcdef") == ["ace", "bdf"]
        assert_ids_name_texts(cm3, "abcdef")
        # starts 0 and 4 read "ab" at stride 2, though their points differ
        cm = candidates_at("axbyazb", 2, 2)
        assert texts(cm, "axbyazb") == ["ab", "xy", "ba", "yz", "ab"]
        assert_ids_name_texts(cm, "axbyazb")

    def test_empty_when_no_word_constructible(self):
        cm = candidates_at("ab", 3, 2)  # m=4 < 6
        assert len(cm.words) == 0

    def test_tme_invariant_fuzz(self):
        rng = random.Random(11)
        for _ in range(200):
            s = rng.randint(1, 5)
            n = rng.randint(1, 60)
            symbols = "".join(rng.choice("ab") for _ in range(n))
            g = rng.randint(1, 3)
            if g * s > n + s - 1:
                continue  # no word of g symbols fits
            cm = candidates_at(symbols, s, g, tme=True)
            full = candidates_at(symbols, s, g)
            assert_ids_name_texts(full, symbols)
            starts = cm.words.tolist()
            assert starts[0] == 0
            by_start = dict(zip(full.words.tolist(), texts(full, symbols)))
            kept = texts(cm, symbols)
            for k, (prev, nxt) in enumerate(zip(starts, starts[1:])):
                assert nxt - prev - 1 <= s
                for eliminated in range(prev + 1, nxt):
                    assert by_start[eliminated] == kept[k]


class TestMatching:
    def test_counts(self):
        # the words at starts 0-2 are tracked; "c" at start 3 is not
        cm = candidates_at("abac", 1, 1)
        counts = match_trackers(cm, np.array([True, True, True, False]))
        assert counts.tolist() == [2, 1, 0]

    def test_two_symbol_words(self):
        cm = candidates_at("aba", 1, 2)
        assert texts(cm, "aba") == ["ab", "ba"]
        assert match_trackers(cm, np.ones(2, dtype=bool)).tolist() == [1, 1]

    def test_eliminate_unmatched(self):
        assert eliminate_unmatched(np.array([3, 1, 2])).tolist() == [0, 2]

    def test_eliminate_all(self):
        assert eliminate_unmatched(np.array([1, 1])).tolist() == []


def normalized(values) -> NormalizedSeries:
    return NormalizedSeries(np.array(values, dtype=float), 0.0, 1.0)


class TestConfirm:
    def test_identical_pair_confirms(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 7.0]
        cm = hand_matrix(vals, 4, [10, 50])
        found = confirm_motifs(cm, word_counts(cm, [0]), normalized(vals).values, 0.0)
        assert group_lists(found) == [[10, 50]]
        assert eliminate_unconfirmed(cm, found).tolist() == [True]

    def test_differing_pair_rejected(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 8.0]
        cm = hand_matrix(vals, 4, [10, 50])
        found = confirm_motifs(cm, word_counts(cm, [0]), normalized(vals).values, 0.0)
        assert group_lists(found) == []
        assert eliminate_unconfirmed(cm, found).tolist() == [False]

    def test_three_way_group(self):
        # mirrors a repeat seen at three distant positions
        vals = [float(1000 + i) for i in range(1000)]
        block = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0] * 2
        for start in (387, 620, 669):
            vals[start : start + 20] = block
        cm = hand_matrix(vals, 20, [387, 620, 669])
        assert group_lists(confirm_motifs(cm, word_counts(cm, [0]), normalized(vals).values, 0.0)) == [[387, 620, 669]]

    def test_colliding_classes_stay_separate(self):
        # same symbol text over different underlying data: two motifs result
        vals = [float(1000 + i) for i in range(80)]
        vals[0:2] = [1.0, 1.0]
        vals[10:12] = [1.0, 1.0]
        vals[20:22] = [2.0, 2.0]
        vals[30:32] = [2.0, 2.0]
        cm = hand_matrix(vals, 2, [0, 10, 20, 30])
        assert group_lists(confirm_motifs(cm, word_counts(cm, [0]), normalized(vals).values, 0.0)) == [[0, 10], [20, 30]]

    def test_threshold_admits_near_misses(self):
        vals = [0.0] * 40
        vals[10:12] = [1.0, 1.0]
        vals[30:32] = [1.0, 1.05]
        cm = hand_matrix(vals, 2, [10, 30])
        assert group_lists(confirm_motifs(cm, word_counts(cm, [0]), normalized(vals).values, 0.1)) == [[10, 30]]

    def test_eliminate_unconfirmed(self):
        # words 0 and 1; only word 1 has a confirmed group
        cm = hand_matrix([0.0] * 8, 2, [0, 2, 4, 6], ids=[0, 0, 1, 0, 1, 0, 1])
        assert eliminate_unconfirmed(cm, group_arrays([[2, 4]])).tolist() == [False, True]
        assert eliminate_unconfirmed(cm, group_arrays([])).tolist() == [False, False]


def per_word_confirm(cm, matched, values, r):
    """One confirm_motifs call per word: the groups, ordered by first start, and the confirmed words."""
    found, confirmed = [], []
    for k in matched:
        own = group_lists(confirm_motifs(cm, word_counts(cm, [k]), values, r))
        found += own
        confirmed.append(bool(own))
    return sorted(found), confirmed


class TestConfirmSharedRounds:
    """One confirm_motifs call over many words at r > 0 equals a call per word."""

    def test_hand_built_trackers_of_one_two_three_and_fifty_starts(self):
        # every window is a small perturbation of one shape, so windows of
        # different words are within r of each other; only same-word
        # starts may join a group
        rng = np.random.default_rng(5)
        span, count = 4, 56
        vals = np.tile([0.0, 1.0, 0.0, -1.0], count) + rng.normal(0, 0.05, 4 * count)
        vals[::12] += 3.0  # some far windows, so the large word has several groups
        sizes = {0: 1, 1: 2, 2: 3, 3: 50}
        words = [word for word, k in sizes.items() for _ in range(k)]
        random.Random(5).shuffle(words)
        ids = np.full(vals.size - span + 1, 4)  # starts that are not candidates
        ids[0 : 4 * count : 4] = words
        cm = hand_matrix(vals, span, range(0, 4 * count, 4), ids=ids)
        r = 0.5
        counts = match_trackers(cm, np.ones(ids.size, dtype=bool))
        matched = eliminate_unmatched(counts)
        assert matched.tolist() == [1, 2, 3]
        found = confirm_motifs(cm, counts, vals, r)
        expected, confirmed = per_word_confirm(cm, matched, vals, r)
        assert group_lists(found) == expected
        assert confirmed == [True, True, True]
        assert eliminate_unconfirmed(cm, found)[:4].tolist() == [False, True, True, True]
        assert all(len({ids[x] for x in group}) == 1 for group in group_lists(found))
        assert len([group for group in group_lists(found) if ids[group[0]] == 3]) >= 2
        # the same windows under one word chain across the words' starts
        pooled = hand_matrix(vals, span, range(0, 4 * count, 4))
        merged = group_lists(confirm_motifs(pooled, word_counts(pooled, [0]), vals, r))
        assert max(len(group) for group in merged) > max(len(group) for group in group_lists(found))

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
            series = TimeSeries(vals)
            norm_values = z_normalize(series).values
            symbols = build_symbol_matrix(z_normalize(series), SaxConfig(s, 4)).symbols
            for generation in (1, 2, 4):
                cm = candidates_at(symbols, s, generation, tme, series.values)
                counts = match_trackers(cm, np.ones(cm.ids.size, dtype=bool))
                sizes_seen.update(counts[counts > 0].tolist())
                present = np.flatnonzero(counts)
                for r in (0.3, 1.0, 2.5):
                    found = confirm_motifs(cm, counts, norm_values, r)
                    expected, confirmed = per_word_confirm(cm, present, norm_values, r)
                    assert group_lists(found) == expected, (seed, generation, r)
                    assert eliminate_unconfirmed(cm, found)[present].tolist() == confirmed
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
        windows = [vals[x : x + span] for x in starts]
        # the closest pair is the only one within r = its distance
        r, a, b = min(
            (euclidean_distance(windows[i], windows[j]), starts[i], starts[j])
            for i in range(len(starts))
            for j in range(i + 1, len(starts))
        )
        cm = hand_matrix(vals, span, starts)
        counts = word_counts(cm, [0])
        assert group_lists(confirm_motifs(cm, counts, vals, r)) == [[a, b]]
        assert group_lists(confirm_motifs(cm, counts, vals, float(np.nextafter(r, 0)))) == []

    # A window x and its copy shifted by c: every block mean differs by c, so
    # the lower bounds equal the distance and only the rounding margin keeps
    # the pair from being pruned at r = d.  A long lead of non-integer values
    # gives the running sums of the series large rounding errors.

    @staticmethod
    def offset_pairs(span: int, seed: int, lead: int):
        """Series each holding x at a and x + c at b, after lead points near 3, with a, b."""
        rng = np.random.default_rng(seed)
        head = 3.0 + rng.standard_normal(lead)
        for c in 0.25 + rng.random(6):
            x = rng.standard_normal(span)
            vals = np.concatenate([head, x, rng.standard_normal(5), x + c, rng.standard_normal(3)])
            yield vals, lead, lead + span + 5

    def assert_boundary(self, cm, vals, a: int, b: int) -> None:
        span = cm.point_span
        r = euclidean_distance(vals[a : a + span], vals[b : b + span])
        counts = word_counts(cm, [0])
        assert group_lists(confirm_motifs(cm, counts, vals, r)) == [[a, b]], r
        assert group_lists(confirm_motifs(cm, counts, vals, float(np.nextafter(r, 0)))) == [], r

    @pytest.mark.parametrize("lead", [0, 20_000])
    @pytest.mark.parametrize("span", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_offset_pair_at_generation_one(self, span, lead):
        for vals, a, b in self.offset_pairs(span, span, lead):
            self.assert_boundary(hand_matrix(vals, span, [a, b]), vals, a, b)

    @pytest.mark.parametrize("lead", [0, 20_000])
    @pytest.mark.parametrize("s, generation", [(1, 2), (2, 3), (3, 4), (8, 16), (9, 14), (5, 60)])
    def test_offset_pair_at_later_generations(self, s, generation, lead):
        span = s * generation
        for vals, a, b in self.offset_pairs(span, 100 * s + generation, lead):
            n = vals.size - span + 1
            # one word over the pair; the bound then sums g block terms
            cm = CandidateMatrix(np.zeros(n, dtype=np.int64), window_ids(vals, span), np.array([a, b]), generation, s)
            self.assert_boundary(cm, vals, a, b)


class TestConfirmCost:
    """Threshold confirmation measures raw classes, not starts.

    Counting the rows _within computes, no generation exceeds the pairs of
    raw classes within each matched word, sum k(k-1)/2, on shapes whose
    words hold many starts of few classes.
    """

    M = 1500

    def shapes(self):
        rng = np.random.default_rng(7)
        period = np.random.default_rng(0).standard_normal(37)
        yield "constant", np.full(self.M, 5.0)
        yield "period-37", np.tile(period, self.M // 37 + 1)[: self.M]
        # a few 25-point shapes repeated in a random order, plus noisy copies
        shapes = np.cumsum(rng.standard_normal((4, 25)), axis=1)
        picks = rng.integers(0, 4, self.M // 25)
        tiles = shapes[picks] + np.where(rng.random((picks.size, 1)) < 0.2, rng.normal(0, 0.05, (picks.size, 25)), 0)
        yield "duplicates", tiles.ravel()

    @pytest.mark.parametrize("tme", [False, True])
    def test_distances_bounded_by_class_pairs(self, monkeypatch, tme):
        rows = []
        within, confirm = tracker_module._within, tracker_module.confirm_motifs

        def counting_within(windows, a, b, threshold):
            rows[-1][0] += a.size
            return within(windows, a, b, threshold)

        def counting_confirm(matrix, counts, values, threshold):
            starts = matrix.words[counts[matrix.ids[matrix.words]] >= 2]
            pairs = sorted(set(zip(matrix.ids[starts].tolist(), matrix.raw[starts].tolist())))
            classes = np.bincount([word for word, _ in pairs]) if pairs else np.zeros(0, dtype=np.int64)
            rows.append([0, int((classes * (classes - 1) // 2).sum())])
            return confirm(matrix, counts, values, threshold)

        monkeypatch.setattr(tracker_module, "_within", counting_within)
        monkeypatch.setattr(tracker_module, "confirm_motifs", counting_confirm)
        for name, values in self.shapes():
            rows.clear()
            run_mta(TimeSeries(values), MtaConfig(SaxConfig(10, 10), 0.5, tme))
            assert rows, name
            for generation, (computed, class_pairs) in enumerate(rows, 1):
                assert computed <= class_pairs, (name, generation, computed, class_pairs)


class TestMtaConfig:
    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), float("nan"))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), -0.5)


# every word of three letters over "abc", at s=1
DE_BRUIJN = "aaabaacabbabcacbaccbbbcbcccaa"


def children(symbols: str, generation: int, parents, template: str) -> list[str]:
    """The texts at the starts holding a tracker after proliferate_and_mutate."""
    cm = candidates_at(symbols, 1, generation)
    confirmed = np.zeros(int(cm.ids.max()) + 1, dtype=bool)
    for text in parents:
        confirmed[cm.ids[symbols.index(text)]] = True
    letters = letters_of(symbols)
    trackers = proliferate_and_mutate(cm, confirmed, np.isin(letters, letters_of(template)))
    return sorted({symbols[i : i + generation + 1] for i in np.flatnonzero(trackers)})


class TestProliferation:
    def test_single_parent(self):
        assert children(DE_BRUIJN, 1, ["a"], "ab") == ["aa", "ab"]

    def test_cross_product(self):
        assert children(DE_BRUIJN, 2, ["ab", "bb"], "ab") == ["aba", "abb", "bba", "bbb"]

    def test_empty_survivors(self):
        assert children(DE_BRUIJN, 2, [], "ab") == []


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


def disjoint_groups(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """Up to count disjoint groups of two or more starts below n, each ascending, ordered by first start."""
    free = rng.sample(range(n), n)
    found = []
    for _ in range(count):
        size = rng.randint(2, 5)
        if len(free) < size:
            break
        found.append(sorted(free[:size]))
        free = free[size:]
    return sorted(found)


class TestEncapsulatedGroups:
    """_encapsulated drops a group exactly when the longer group holding its
    first member encapsulates it, on plain (members, bounds) arrays."""

    SPAN = 6

    def expected(self, shorter, longer, s: int) -> list[bool]:
        out = []
        for group in shorter:
            host = [other for other in longer if group[0] in other]
            out.append(
                bool(host)
                and encapsulates(MemoryMotif("", self.SPAN + s, tuple(host[0])), MemoryMotif("", self.SPAN, tuple(group)))
            )
        return out

    def drops(self, shorter, longer, s: int) -> list[bool]:
        return tracker_module._encapsulated(*group_arrays(shorter), *group_arrays(longer), s).tolist()

    def test_member_s_points_later_is_covered(self):
        # b = o - s: [8, 8 + span + s) holds [10, 10 + span)
        assert self.drops([[5, 10]], [[5, 8]], 2) == [True]
        assert self.expected([[5, 10]], [[5, 8]], 2) == [True]

    def test_member_s_plus_one_points_later_is_not(self):
        # b = o - s - 1: [7, 7 + span + s) ends one point short of 10 + span
        assert self.drops([[5, 10]], [[5, 7]], 2) == [False]
        assert self.expected([[5, 10]], [[5, 7]], 2) == [False]

    def test_only_the_group_of_the_first_member_is_tried(self):
        # [[3, 9]] covers [[4, 9]], but 4 sits in the longer group [[4, 20]]
        assert self.drops([[4, 9]], [[3, 9], [4, 20]], 1) == [False]
        assert self.drops([[4, 9]], [[3, 9]], 1) == [False]
        assert self.drops([[4, 9]], [[4, 9]], 1) == [True]

    def test_member_before_every_longer_start(self):
        # the key search for 0 finds no longer start at or before it
        assert self.drops([[0, 6], [2, 9]], [[2, 8, 30]], 3) == [False, True]

    def test_no_longer_groups(self):
        assert self.drops([[1, 4], [2, 7]], [], 2) == [False, False]
        assert self.drops([], [[1, 4]], 2) == []

    def test_matches_encapsulates_on_seeded_groups(self):
        dropped = kept = 0
        for seed in range(400):
            rng = random.Random(seed)
            s, n = rng.randint(1, 4), rng.randint(4, 40)
            longer = disjoint_groups(rng, n, rng.randint(0, 5))
            # some shorter groups are longer groups moved right by up to s + 1 points
            shorter = [
                sorted({x + rng.randint(0, s + 1) if k else x for k, x in enumerate(group)})
                for group in longer
                if rng.random() < 0.6
            ]
            taken = {x for group in shorter for x in group}
            shorter += [group for group in disjoint_groups(rng, n + s, 3) if not taken & set(group)]
            shorter = sorted(group for group in shorter if len(group) >= 2)
            if len({x for group in shorter for x in group}) < sum(map(len, shorter)):
                continue  # moved members met: groups of one generation are disjoint
            found = self.drops(shorter, longer, s)
            assert found == self.expected(shorter, longer, s), (seed, shorter, longer, s)
            dropped += sum(found)
            kept += len(found) - sum(found)
        assert dropped > 100 and kept > 100


class TestPoolPrune:
    """Groups a next-generation group encapsulates never reach streamline.

    Counting the pool that run_mta passes to streamline: on constant data
    only the last generation's group is stored, and period 37 with TME
    stores fewer groups than confirmation finds.
    """

    M = 1500

    def run(self, monkeypatch, values, config):
        pools, confirmed = [], []
        streamline_, confirm = tracker_module.streamline, tracker_module.confirm_motifs

        def counting_streamline(pool):
            pools.append(len(pool))
            return streamline_(pool)

        def counting_confirm(*args):
            found = confirm(*args)
            confirmed.append(found[1].size - 1)
            return found

        monkeypatch.setattr(tracker_module, "streamline", counting_streamline)
        monkeypatch.setattr(tracker_module, "confirm_motifs", counting_confirm)
        motifs = run_mta(TimeSeries(values), config)
        return motifs, pools, sum(confirmed)

    def test_constant_data_pools_one_group(self, monkeypatch):
        motifs, pools, confirmed = self.run(monkeypatch, np.full(self.M, 5.0), MtaConfig(SaxConfig(10, 10)))
        assert pools == [1] and len(motifs) == 1
        assert confirmed == self.M // 10 - 1  # one group per span below m; at m one start is left

    def test_period_37_with_tme_pools_fewer_than_confirmed(self, monkeypatch):
        period = np.random.default_rng(0).standard_normal(37)
        values = np.tile(period, self.M // 37 + 1)[: self.M]
        motifs, pools, confirmed = self.run(monkeypatch, values, MtaConfig(SaxConfig(10, 10), 0.0, True))
        assert len(pools) == 1 and len(motifs) <= pools[0] < confirmed


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


class TestTimeBudget:
    """Shapes whose every window repeats stay fast at the paper's capture size,
    in both modes: at r > 0 equal windows share a raw class and are never measured."""

    M = 8040

    def timed(self, values, tme, r=0.0, s=10, a=10):
        begin = time.perf_counter()
        out = run_mta(TimeSeries(values), MtaConfig(SaxConfig(s, a), r, tme))
        return out, time.perf_counter() - begin

    def period_37(self):
        period = np.random.default_rng(0).standard_normal(37)
        return np.tile(period, self.M // 37 + 1)[: self.M]

    def test_constant_series(self):
        out, seconds = self.timed(np.full(self.M, 5.0), False)
        assert seconds < 15
        assert len(out) == 1

    def test_period_37_with_tme(self):
        out, seconds = self.timed(self.period_37(), True)
        assert seconds < 15
        assert len(out) == 10

    def test_constant_series_threshold(self):
        out, seconds = self.timed(np.full(self.M, 5.0), False, 0.5)
        assert seconds < 15
        assert len(out) == 1

    def test_period_37_with_tme_threshold(self):
        out, seconds = self.timed(self.period_37(), True, 0.5)
        assert seconds < 15
        assert len(out) == 10

    def test_walk_threshold(self):
        out, seconds = self.timed(np.cumsum(np.random.default_rng(0).standard_normal(self.M)), False, 0.5)
        assert seconds < 15
        assert len(out) == 1783

    def test_period_37_threshold(self):
        out, seconds = self.timed(self.period_37(), False, 0.5)
        assert seconds < 15
        assert len(out) == 10


    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_single_spike(self, r):
        values = np.zeros(self.M)
        values[self.M // 2] = 1.0
        out, seconds = self.timed(values, False, r)
        assert seconds < 15
        assert [(mo.point_length, len(mo.occurrences)) for mo in out] == [(4010, 21)]

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_symbol_length_just_below_m(self, r):
        out, seconds = self.timed(np.full(self.M, 5.0), False, r, s=self.M - 5)
        assert seconds < 15
        assert motif_signature(out) == [(self.M - 5, tuple(range(6)))]

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_period_37_alphabet_26(self, r):
        out, seconds = self.timed(self.period_37(), False, r, a=26)
        assert seconds < 15
        assert len(out) == 10


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
