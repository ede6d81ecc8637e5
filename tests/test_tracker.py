import random
import time
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motiftrack.tracker as tracker_module
from motiftrack import (
    ALPHABET,
    MemoryMotif,
    MotifSet,
    MtaConfig,
    SaxConfig,
    SymbolMatrix,
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
from motiftrack.tracker import groups

from conftest import (
    TABLE1_MOTIFS,
    group_arrays,
    group_lists,
    groups_calls,
    motif_signature,
    numpy_frames_per_generation,
    window_ids,
)


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


def hand_groups(vals, span: int, starts, r: float) -> list[list[int]]:
    """groups over hand-picked starts of one word, their raw ids numbered by window bytes."""
    vals, starts = np.asarray(vals, dtype=float), np.asarray(starts, dtype=np.intp)
    words, raw = np.zeros(starts.size, dtype=np.int64), window_ids(vals, span)[starts]
    return group_lists(groups(vals, span, starts, words, raw, r))


def first_seen(ids) -> list[int]:
    """ids renumbered by first appearance, so two namings of one partition read alike."""
    seen: dict = {}
    return [seen.setdefault(i, len(seen)) for i in np.asarray(ids).tolist()]


# ids of equal length, drawn from a few values so that pairs repeat
id_pairs = st.integers(0, 60).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 6), min_size=n, max_size=n)] * 2)
)
# zeros of both signs, subnormals, the least normal and values near the ends of the range
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, -1e300])


class TestNaming:
    """The argsort naming gives np.unique's inverse ids, and their number."""

    @settings(max_examples=300)
    @given(id_pairs)
    @example(([], []))
    @example(([4], [2]))
    @example(([3] * 9, [1] * 9))
    @example((list(range(9)), list(range(9, 0, -1))))
    @example(([0, 0, 1, 1, 2], [0, 1, 0, 1, 0]))
    def test_refine_is_unique_inverse(self, pair):
        ids, nxt = (np.array(x, dtype=np.int64) for x in pair)
        key = ids * (nxt.max(initial=0) + 1) + nxt
        named, count = tracker_module._refine(ids, nxt)
        assert named.tolist() == np.unique(key, return_inverse=True)[1].tolist()
        assert count == np.unique(key).size

    @settings(max_examples=200)
    @given(st.lists(edge_floats, min_size=1, max_size=40), st.integers(1, 8))
    @example([0.0, -0.0, 0.0, -0.0], 2)
    @example([5e-324, -5e-324, 0.0, 5e-324, -5e-324], 2)
    @example([1e300, -1e300] * 5, 3)
    @example([7.0], 1)
    def test_window_ids_match_a_per_window_reference(self, values, s):
        values = TimeSeries(np.array(values)).values  # folds -0.0 into 0.0
        s = min(s, values.size)
        assert first_seen(tracker_module._window_ids(values, s)) == window_ids(values, s).tolist()


class TestConfirm:
    def test_identical_pair_confirms(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 7.0]
        assert hand_groups(vals, 4, [10, 50], 0.0) == [[10, 50]]

    def test_differing_pair_rejected(self):
        vals = [float(i) for i in range(60)]
        vals[10:14] = [9.0, 7.0, 9.0, 7.0]
        vals[50:54] = [9.0, 7.0, 9.0, 8.0]
        assert hand_groups(vals, 4, [10, 50], 0.0) == []

    def test_three_way_group(self):
        # mirrors a repeat seen at three distant positions
        vals = [float(1000 + i) for i in range(1000)]
        block = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0] * 2
        for start in (387, 620, 669):
            vals[start : start + 20] = block
        assert hand_groups(vals, 20, [387, 620, 669], 0.0) == [[387, 620, 669]]

    def test_colliding_classes_stay_separate(self):
        # same symbol text over different underlying data: two motifs result
        vals = [float(1000 + i) for i in range(80)]
        vals[0:2] = [1.0, 1.0]
        vals[10:12] = [1.0, 1.0]
        vals[20:22] = [2.0, 2.0]
        vals[30:32] = [2.0, 2.0]
        assert hand_groups(vals, 2, [0, 10, 20, 30], 0.0) == [[0, 10], [20, 30]]

    def test_threshold_admits_near_misses(self):
        vals = [0.0] * 40
        vals[10:12] = [1.0, 1.0]
        vals[30:32] = [1.0, 1.05]
        assert hand_groups(vals, 2, [10, 30], 0.1) == [[10, 30]]


class TestConfirmSharedRounds:
    """One groups call over many words at r > 0 equals a call per word."""

    @staticmethod
    def per_word(vals, span, starts, words, raw, r) -> list[list[int]]:
        """The groups of one call per word, ordered by first start."""
        found = []
        for word in set(words.tolist()):
            own = words == word
            found += group_lists(groups(vals, span, starts[own], words[own], raw[own], r))
        return sorted(found)

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
        starts, words, r = np.arange(0, 4 * count, 4), np.array(words), 0.5
        raw = window_ids(vals, span)[starts]
        found = group_lists(groups(vals, span, starts, words, raw, r))
        assert found == self.per_word(vals, span, starts, words, raw, r)
        word_of = dict(zip(starts.tolist(), words.tolist()))
        assert all(len({word_of[x] for x in group}) == 1 for group in found)
        assert {word_of[group[0]] for group in found} == {1, 2, 3}
        assert len([group for group in found if word_of[group[0]] == 3]) >= 2
        # the same windows under one word chain across the words' starts
        merged = hand_groups(vals, span, starts, r)
        assert max(len(group) for group in merged) > max(len(group) for group in found)

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
            norm_values = z_normalize(series)
            for r in (0.3, 1.0, 2.5):
                # the matched starts of generations 1, 2 and 4 of a real run at r
                for span, starts, words, raw in groups_calls(series, MtaConfig(SaxConfig(s, 4), r, tme)):
                    if span // s not in (1, 2, 4):
                        continue
                    sizes_seen.update(np.unique(words, return_counts=True)[1].tolist())
                    found = group_lists(groups(norm_values, span, starts, words, raw, r))
                    assert found == self.per_word(norm_values, span, starts, words, raw, r), (seed, span, r)
        # a word reaches groups only with two matched starts
        assert {2, 3} <= sizes_seen and max(sizes_seen) >= 50


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
        assert hand_groups(vals, span, starts, r) == [[a, b]]
        assert hand_groups(vals, span, starts, float(np.nextafter(r, 0))) == []

    # A window x and its copy shifted by c: their sums differ by span * c, so
    # the band's lower bound equals the distance, sqrt(span) * c, and only
    # the rounding margin keeps the pair from being pruned at r = d.  A long
    # lead of non-integer values gives the prefix sums of the series large
    # rounding errors.

    @staticmethod
    def offset_pairs(span: int, seed: int, lead: int):
        """Series each holding x at a and x + c at b, after lead points near 3, with a, b."""
        rng = np.random.default_rng(seed)
        head = 3.0 + rng.standard_normal(lead)
        for c in 0.25 + rng.random(6):
            x = rng.standard_normal(span)
            vals = np.concatenate([head, x, rng.standard_normal(5), x + c, rng.standard_normal(3)])
            yield vals, lead, lead + span + 5

    @staticmethod
    def assert_boundary(vals, span: int, a: int, b: int) -> None:
        r = euclidean_distance(vals[a : a + span], vals[b : b + span])
        assert hand_groups(vals, span, [a, b], r) == [[a, b]], r
        assert hand_groups(vals, span, [a, b], float(np.nextafter(r, 0))) == [], r

    @pytest.mark.parametrize("lead", [0, 20_000])
    @pytest.mark.parametrize("span", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_offset_pair_at_generation_one(self, span, lead):
        for vals, a, b in self.offset_pairs(span, span, lead):
            self.assert_boundary(vals, span, a, b)

    @pytest.mark.parametrize("lead", [0, 20_000])
    @pytest.mark.parametrize("s, generation", [(1, 2), (2, 3), (3, 4), (8, 16), (9, 14), (5, 60)])
    def test_offset_pair_at_later_generations(self, s, generation, lead):
        span = s * generation
        for vals, a, b in self.offset_pairs(span, 100 * s + generation, lead):
            self.assert_boundary(vals, span, a, b)


class TestWithinDecision:
    """_within's fused sums decide every pair as euclidean_distance does.

    At r = d, and a float either side of it, each pair's fused sum lies
    inside the rounding margin around r * r, so the exact formula decides
    it; the spans cover the edges of numpy's unrolled and pairwise-summation
    blocks, and the scales the underflow floor.
    """

    @pytest.mark.parametrize("span", [1, 7, 8, 9, 127, 128, 129, 300])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e3]))
    def test_agrees_with_euclidean_distance_at_r_and_its_neighbours(self, span, seed, scale):
        rng = np.random.default_rng(seed)
        windows = rng.standard_normal((4, span)) * scale
        windows[3] = windows[0] + rng.standard_normal(span) * scale * 1e-9  # a near copy
        a, b = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])
        distances = [euclidean_distance(windows[x], windows[y]) for x, y in zip(a, b)]
        for d in distances:
            for r in (float(np.nextafter(d, 0)), d, float(np.nextafter(d, np.inf))):
                expected = [distance <= r for distance in distances]
                assert tracker_module._within(windows, a, b, r).tolist() == expected, (d, r)


class TestGatherBudget:
    """Representatives past _GATHER elements stay strided views of the series
    and are indexed through their starts; the motif sets are the gathered ones."""

    @pytest.mark.parametrize("s", [1, 4, 10])
    @pytest.mark.parametrize("tme", [False, True])
    def test_strided_rows_give_the_gathered_motifs(self, monkeypatch, s, tme):
        rng = np.random.default_rng(s)
        spike = rng.standard_normal(600) * 1e-3
        spike[300] = 1000
        for values in (np.cumsum(rng.standard_normal(600)), spike):
            config = MtaConfig(SaxConfig(s, 6), 0.8, tme)
            gathered = run_mta(TimeSeries(values), config)
            monkeypatch.setattr(tracker_module, "_GATHER", 0)
            strided = run_mta(TimeSeries(values), config)
            monkeypatch.undo()
            assert strided == gathered


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
        computed, within = Counter(), tracker_module._within

        def counting_within(windows, a, b, threshold):
            computed[windows.shape[1]] += a.size  # keyed by span: one generation's windows
            return within(windows, a, b, threshold)

        monkeypatch.setattr(tracker_module, "_within", counting_within)
        for name, values in self.shapes():
            computed.clear()
            calls = groups_calls(TimeSeries(values), MtaConfig(SaxConfig(10, 10), 0.5, tme))
            assert calls, name
            for span, _, words, raw in calls:
                pairs = sorted(set(zip(words.tolist(), raw.tolist())))
                classes = np.bincount([word for word, _ in pairs]) if pairs else np.zeros(0, dtype=np.int64)
                class_pairs = int((classes * (classes - 1) // 2).sum())
                assert computed[span] <= class_pairs, (name, span, computed[span], class_pairs)


class TestLabelSkip:
    """Chaining skips the pairs already in one component before _within sees them.

    Once a join has run, a batch's pairs whose rows share a label are
    dropped.  Counting the pairs _within receives on a random walk, with
    small slices so that joins run from early on, bounds the work: without
    the skip the same run sends 8,600.
    """

    def test_pairs_sent(self, monkeypatch):
        sent, within = [0], tracker_module._within

        def counting_within(windows, a, b, threshold):
            sent[0] += a.size
            return within(windows, a, b, threshold)

        monkeypatch.setattr(tracker_module, "_PAIR_BLOCK", 16)
        monkeypatch.setattr(tracker_module, "_within", counting_within)
        walk = np.cumsum(np.random.default_rng(0).standard_normal(360))
        run_mta(TimeSeries(walk), MtaConfig(SaxConfig(2, 6), 0.5, False))
        assert 0 < sent[0] <= 7228


class TestMtaConfig:
    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), float("nan"))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="match threshold must be a non-negative number"):
            MtaConfig(SaxConfig(2, 4), -0.5)


class TestWithText:
    MATRIX = SymbolMatrix(np.arange(10), SaxConfig(2, 10))

    def test_every_s_th_symbol_from_first_start(self):
        motifs = MotifSet((MemoryMotif("", 6, (1, 4)), MemoryMotif("old", 2, (0, 8))))
        assert [mo.text for mo in motifs.with_text(self.MATRIX)] == ["bdf", "a"]

    def test_motif_without_occurrences_gets_empty_text(self):
        motifs = streamline([MemoryMotif("old", 4, ())])
        assert [mo.text for mo in motifs.with_text(self.MATRIX)] == [""]


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
    """_encapsulated drops a group exactly when some longer group
    encapsulates it, on plain (members, bounds) arrays."""

    SPAN = 6

    def expected(self, shorter, longer, s: int) -> list[bool]:
        bigs = [MemoryMotif("", self.SPAN + s, tuple(other)) for other in longer]
        return [any(encapsulates(big, MemoryMotif("", self.SPAN, tuple(group))) for big in bigs) for group in shorter]

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

    def test_any_longer_group_is_tried(self):
        # [[3, 9]] covers [[4, 9]], though 4 sits in the longer group [[4, 20]]
        assert self.drops([[4, 9]], [[3, 9], [4, 20]], 1) == [True]
        assert self.drops([[4, 9]], [[3, 9]], 1) == [True]
        assert self.drops([[4, 9]], [[4, 9]], 1) == [True]
        assert self.drops([[4, 9]], [[2, 9], [4, 20]], 1) == [False]

    def test_later_candidate_covers_a_middle_member_the_nearest_misses(self):
        # [10, 30] holds the first and last members but nothing in [18, 20]
        assert self.drops([[10, 20, 30]], [[10, 30]], 2) == [False]
        assert self.drops([[10, 20, 30]], [[9, 19, 29], [10, 30]], 2) == [True]
        assert self.drops([[10, 20, 30]], [[8, 21, 28], [10, 30]], 2) == [False]

    def test_candidate_reaching_first_but_not_last_member(self):
        # [10, 17] holds the first member, but 17 < 20 - 2
        assert self.drops([[10, 20]], [[10, 17]], 2) == [False]
        assert self.drops([[10, 20]], [[9, 19], [10, 17]], 2) == [True]

    def test_members_closer_than_s_to_zero(self):
        # no longer group holds a start in [-3, 0]; the shifts below 0 must
        # not wrap round to 31 and 30, where [[28, 31]] reaches 29 and the
        # search for 0 in it would land on 30
        assert self.drops([[0, 29]], [[2, 30], [28, 31]], 3) == [False]
        assert self.expected([[0, 29]], [[2, 30], [28, 31]], 3) == [False]
        assert self.drops([[0, 2]], [[0, 1]], 5) == [True]
        assert self.drops([[1, 4]], [[3, 9]], 5) == [False]

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
            # some shorter groups are longer groups moved right by up to s + 1
            # points, after the first member or as a whole, so a cover can hold no member
            shorter = [
                sorted({x + rng.randint(0, s + 1) if k else x for k, x in enumerate(group)})
                for group in longer
                if rng.random() < 0.6
            ]
            shorter += [sorted({x + rng.randint(0, s) for x in group}) for group in longer if rng.random() < 0.3]
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

    Counting the pool that run_mta passes to streamline against the
    confirmed groups: each generation's groups that no group of the next
    generation encapsulates, plus the last generation's whole.  On constant
    data only the last generation's group is stored, and period 37 with TME
    stores fewer groups than confirmation finds.  Pooled motifs carry no
    text: only the streamlined ones get theirs.
    """

    M = 1500

    def run(self, monkeypatch, values, config):
        """Each streamline call's (pool size, motif count), the confirmed group count, and the pool they imply."""
        streamlined, streamline_ = [], tracker_module.streamline

        def counting_streamline(pool):
            assert all(mo.text == "" for mo in pool)
            out = streamline_(pool)
            streamlined.append((len(pool), len(out)))
            return out

        monkeypatch.setattr(tracker_module, "streamline", counting_streamline)
        series = TimeSeries(values)
        norm, s, r = z_normalize(series), config.sax.symbol_length, config.match_threshold
        calls = groups_calls(series, config)
        found = [(span, group_lists(groups(norm, span, *inputs, r))) for span, *inputs in calls]
        pool = len(found[-1][1])
        for (span, shorter), (_, longer) in zip(found, found[1:]):
            bigs = [MemoryMotif("", span + s, tuple(group)) for group in longer]
            for group in shorter:
                pool += not any(encapsulates(big, MemoryMotif("", span, tuple(group))) for big in bigs)
        return streamlined, sum(len(lists) for _, lists in found), pool

    def test_constant_data_pools_one_group(self, monkeypatch):
        streamlined, confirmed, pool = self.run(monkeypatch, np.full(self.M, 5.0), MtaConfig(SaxConfig(10, 10)))
        assert streamlined == [(1, 1)] and pool == 1
        assert confirmed == self.M // 10 - 1  # one group per span below m; at m one start is left

    def test_period_37_with_tme_pools_fewer_than_confirmed(self, monkeypatch):
        period = np.random.default_rng(0).standard_normal(37)
        values = np.tile(period, self.M // 37 + 1)[: self.M]
        streamlined, confirmed, pool = self.run(monkeypatch, values, MtaConfig(SaxConfig(10, 10), 0.0, True))
        # the same motifs as when every stored group had its text
        assert streamlined == [(pool, 10)] and pool < confirmed


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
            norm = z_normalize(series)
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

    def period_37(self, m=M):
        period = np.random.default_rng(0).standard_normal(37)
        return np.tile(period, m // 37 + 1)[:m]

    def test_constant_series(self):
        out, seconds = self.timed(np.full(self.M, 5.0), False)
        assert seconds < 15
        assert len(out) == 1

    def test_period_37_with_tme(self, monkeypatch):
        pools, streamline_ = [], tracker_module.streamline

        def counting_streamline(pool):
            pools.append(len(pool))
            return streamline_(pool)

        monkeypatch.setattr(tracker_module, "streamline", counting_streamline)
        out, seconds = self.timed(self.period_37(), True)
        assert seconds < 15
        assert len(out) == 10
        assert pools[0] < 2000  # covered groups never reach the pool

    def test_constant_series_m16080(self):
        out, seconds = self.timed(np.full(2 * self.M, 5.0), False)
        assert seconds < 15
        assert len(out) == 1

    def test_period_37_with_tme_m16080(self):
        out, seconds = self.timed(self.period_37(2 * self.M), True)
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

    def test_walk_threshold_r1(self):
        out, seconds = self.timed(np.cumsum(np.random.default_rng(0).standard_normal(self.M)), False, 1.0)
        assert seconds < 15
        assert len(out) == 1186

    def test_flat_noise_and_spike_threshold(self):
        # one tracker holds nearly every start, and nearly all its windows lie
        # within r of each other: chaining must pay per open pair, not per band pair
        m = 4000
        values = np.random.default_rng(0).standard_normal(m) * 1e-3
        values[m // 2] = 1000
        out, seconds = self.timed(values, False, 0.5)
        assert seconds < 15
        assert [(mo.point_length, len(mo.occurrences)) for mo in out] == [(1990, 21)]


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


class TestNumpyFrameBudget:
    """A generation calls numpy's C level: few Python-level numpy frames per generation.

    Counted, not timed.  Through np.unique, np.r_, np.diff, np.flatnonzero
    and the fromnumeric wrappers these two series entered about 75 and 84.
    """

    BUDGET = 30

    def test_period_37_with_tme(self):
        period = np.random.default_rng(0).standard_normal(37)
        per_generation, generations = numpy_frames_per_generation(
            TimeSeries(np.tile(period, 19)[:700]), MtaConfig(SaxConfig(10, 10), 0.0, True)
        )
        assert generations == 66
        assert per_generation <= self.BUDGET

    def test_syscall_like_exact(self):
        # ids from 40 calls, with three behaviours of 47, 53 and 61 calls planted three times each
        rng = np.random.default_rng(3)
        calls = rng.integers(0, 40, 1000)
        for n in (47, 53, 61):
            block = rng.integers(0, 40, n)
            for at in rng.choice(calls.size - n, 3, replace=False):
                calls[at : at + n] = block
        per_generation, generations = numpy_frames_per_generation(
            TimeSeries(calls.astype(float)), MtaConfig(SaxConfig(10, 10), 0.0, False)
        )
        assert generations == 6
        assert per_generation <= self.BUDGET


class TestQualityMeasure:
    def test_reference_table(self):
        motifs = MotifSet(
            tuple(MemoryMotif("x" * (L // 10), L, occ) for L, occ in TABLE1_MOTIFS)
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

    def test_negative_min_length_rejected(self):
        with pytest.raises(ValueError, match="min_length must be non-negative"):
            quality_measure(MotifSet(()), -1)


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
