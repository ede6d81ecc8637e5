import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiftrack import (
    MtaConfig,
    SaxConfig,
    TimeSeries,
    brute_force_exact_motifs,
    brute_force_threshold_pairs,
    build_symbol_matrix,
    maximal_exact_repeats,
    reference_motifs,
    run_mta,
    z_normalize,
)
from motiftrack.tracker import confirm_motifs, groups

from conftest import (
    candidates_at,
    corpus_instances,
    group_lists,
    hand_matrix,
    motif_signature,
    window_ids,
    word_counts,
)


class TestExactMotifs:
    def test_alternating_pair(self):
        series = TimeSeries(np.array([1.0, 2.0, 1.0, 2.0]))
        out = brute_force_exact_motifs(series, 1, 1)
        # the single-value repeats are encapsulated by the length-2 motif
        assert motif_signature(out) == [(2, (0, 2))]

    def test_all_distinct_is_empty(self):
        series = TimeSeries(np.arange(30, dtype=float))
        assert len(brute_force_exact_motifs(series, 2, 1)) == 0

    def test_planted_blocks(self, two_block_series):
        out = brute_force_exact_motifs(two_block_series, 2, 1)
        assert motif_signature(out) == [(20, (0, 40))]

    def test_min_separation_thins_constant_runs(self):
        series = TimeSeries(np.array([7.0] * 6))
        spaced = brute_force_exact_motifs(series, 2)  # defaults to s
        assert motif_signature(spaced) == [(4, (0, 2))]
        dense = brute_force_exact_motifs(series, 2, 1)
        assert motif_signature(dense) == [(4, (0, 1, 2))]

    def test_lengths_are_multiples_of_s(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 9.0, 8.0]))
        for s in (2, 3):
            for mo in brute_force_exact_motifs(series, s, 1):
                assert mo.point_length % s == 0

    def test_too_short(self):
        with pytest.raises(ValueError, match="series shorter than symbol length"):
            brute_force_exact_motifs(TimeSeries(np.array([1.0])), 2)


# magnitudes from subnormal to near the float maximum, plus values that only
# differ far below the spread of a series holding them (0 vs 1e-200 beside
# 1e6; 1e6 vs the next float beside 1e300)
WIDE_PALETTE = (
    0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e-100, 1.0, 3.0, 1e6,
    float(np.nextafter(1e6, np.inf)), 1e150, 1e300, -1e300, 1.5e300,
)


def wide_range_instances(count: int, seed: int = 20261018):
    """Small instances drawn from a few WIDE_PALETTE values, s cycling 1-4,
    half of them with an extra planted block copy."""
    rng = random.Random(seed)
    for i in range(count):
        s = i % 4 + 1
        a = (2, 4, 10)[i % 3]
        m = rng.randint(12, 90)
        pool = rng.sample(WIDE_PALETTE, rng.randint(2, 6))
        vals = [rng.choice(pool) for _ in range(m)]
        if i % 2:
            length = rng.randint(s, max(s, m // 3))
            src = rng.randrange(0, m - length + 1)
            dst = rng.randrange(0, m - length + 1)
            vals[dst : dst + length] = vals[src : src + length]
        yield i, s, a, TimeSeries(np.array(vals))


class TestEngineAgreement:
    def test_spot_instances_match_engine(self):
        for index, s, a, series in corpus_instances(count=24):
            engine = run_mta(series, MtaConfig(SaxConfig(s, a)))
            oracle = brute_force_exact_motifs(series, s, 1)
            assert motif_signature(engine) == motif_signature(oracle), f"instance {index}"

    def test_raw_values_equal_after_normalizing_stay_distinct(self):
        # z-normalized, 0 and 1e-200 are the same float beside 1e6
        series = TimeSeries(np.array([0, 1e-200, 5, 1e6, 0, 0, 7, 1e6, 3, 9, 11], dtype=float))
        oracle = brute_force_exact_motifs(series, 2, 1)
        assert motif_signature(oracle) == []
        engine = run_mta(series, MtaConfig(SaxConfig(2, 4)))
        assert motif_signature(engine) == motif_signature(oracle)

    def test_values_near_float_max(self):
        series = TimeSeries(np.array([1e308, -1e308, 3, 4, 1e308, -1e308, 5, 6, 7, 8]))
        oracle = brute_force_exact_motifs(series, 2, 1)
        assert motif_signature(oracle) == [(2, (0, 4))]
        engine = run_mta(series, MtaConfig(SaxConfig(2, 4)))
        assert motif_signature(engine) == motif_signature(oracle)

    def test_wide_dynamic_range_corpus(self):
        for index, s, a, series in wide_range_instances(count=200):
            engine = run_mta(series, MtaConfig(SaxConfig(s, a)))
            oracle = brute_force_exact_motifs(series, s, 1)
            assert motif_signature(engine) == motif_signature(oracle), f"instance {index}"

    def test_planted_fixture_matches_engine(self, planted_series):
        engine = run_mta(planted_series, MtaConfig(SaxConfig(20, 10)))
        oracle = brute_force_exact_motifs(planted_series, 20, 1)
        assert motif_signature(engine) == motif_signature(oracle)


class TestMaximalRepeats:
    def test_reports_true_length_beyond_granularity(self):
        # a 7-point repeat truncates to 6 at symbol length 2; the diagnostic
        # finder sees the full 7
        vals = [float(100 + i) for i in range(40)]
        block = [1.0, 5.0, 2.0, 5.0, 3.0, 5.0, 4.0]
        vals[3:10] = block
        vals[20:27] = block
        series = TimeSeries(np.array(vals))
        engine = run_mta(series, MtaConfig(SaxConfig(2, 4)))
        assert max(mo.point_length for mo in engine) == 6
        diag = maximal_exact_repeats(series)
        assert motif_signature(diag) == [(7, (3, 20))]

    def test_truncation_loss_below_symbol_length(self):
        vals = [float(100 + i) for i in range(60)]
        block = [float(v) for v in (9, 1, 8, 2, 7, 3, 6, 4, 5, 1, 9)]
        vals[5 : 5 + len(block)] = block
        vals[30 : 30 + len(block)] = block
        series = TimeSeries(np.array(vals))
        for s in (2, 3, 4):
            engine = run_mta(series, MtaConfig(SaxConfig(s, 4)))
            longest = max(mo.point_length for mo in engine)
            true_longest = max(mo.point_length for mo in maximal_exact_repeats(series))
            assert true_longest == len(block)
            assert 0 <= true_longest - longest < s


class TestThresholdPairs:
    def test_planted_identical_windows(self):
        vals = [float(100 + i) for i in range(40)]
        vals[5:9] = [1.0, 2.0, 3.0, 4.0]
        vals[25:29] = [1.0, 2.0, 3.0, 4.0]
        series = TimeSeries(np.array(vals))
        pairs = brute_force_threshold_pairs(series, 4, 0.0)
        assert [(i, j) for i, j, _ in pairs] == [(5, 25)]
        assert pairs[0][2] == 0.0

    def test_saturating_threshold_lists_all_pairs(self):
        series = TimeSeries(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
        window = 2
        pairs = brute_force_threshold_pairs(series, window, 1e9)
        n = len(series) - window + 1
        assert len(pairs) == math.comb(n, 2)

    def test_window_equal_to_series(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0]))
        assert brute_force_threshold_pairs(series, 3, 10.0) == []

    def test_window_longer_than_series(self):
        with pytest.raises(ValueError, match="window longer than series"):
            brute_force_threshold_pairs(TimeSeries(np.array([1.0, 2.0])), 3, 0.0)

    def test_distances_are_symmetric_euclidean(self):
        series = TimeSeries(np.array([0.0, 1.0, 0.0, 1.0, 0.0, 2.0]))
        pairs = brute_force_threshold_pairs(series, 2, 1e9)
        norm = (series.values - series.values.mean()) / series.values.std()
        for i, j, d in pairs:
            expected = float(np.sqrt(((norm[i : i + 2] - norm[j : j + 2]) ** 2).sum()))
            assert d == pytest.approx(expected)


def pair_graph_components(pairs, starts):
    """Components of two or more starts in the graph of pairs induced on starts."""
    neighbours = {x: set() for x in starts}
    for i, j, _ in pairs:
        if i in neighbours and j in neighbours:
            neighbours[i].add(j)
            neighbours[j].add(i)
    seen = set()
    components = []
    for x in sorted(starts):
        if x in seen:
            continue
        seen.add(x)
        stack, component = [x], []
        while stack:
            y = stack.pop()
            component.append(y)
            for z in neighbours[y] - seen:
                seen.add(z)
                stack.append(z)
        if len(component) >= 2:
            components.append(tuple(sorted(component)))
    return components


def threshold_instances(count: int, seed: int = 20261019):
    """Small seeded series of five shapes: few-valued integers, a random
    walk, Gaussian noise, constant runs and a repeated integer block.  The
    first, fourth and fifth have many equal windows."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(20, 120)
        shape = i % 5
        if shape == 0:
            vals = [float(rng.randrange(4)) for _ in range(m)]
        elif shape == 1:
            vals = list(np.cumsum([rng.gauss(0, 1) for _ in range(m)]))
        elif shape == 2:
            vals = [rng.gauss(0, 1) for _ in range(m)]
        elif shape == 3:
            vals = []
            while len(vals) < m:
                vals += [float(rng.randrange(5))] * rng.randint(1, 30)
            vals = vals[:m]
        else:
            block = [float(rng.randrange(10)) for _ in range(rng.randint(2, 9))]
            vals = (block * (m // len(block) + 1))[:m]
            vals[rng.randrange(m)] += 0.5
        yield i, rng.randint(1, 4), rng.randint(2, 6), TimeSeries(np.array(vals))


class TestThresholdGroupsReference:
    """At r > 0 a word's groups are the connected components of the
    brute-force pair graph on that word's candidate starts."""

    def test_groups_equal_pair_graph_components(self):
        for index, s, a, series in threshold_instances(150):
            norm = z_normalize(series)
            symbols = build_symbol_matrix(norm, SaxConfig(s, a)).symbols
            r = (0.1, 0.5, 1.0, 2.0)[index % 4]
            for generation in (1, 2, 3):
                span = generation * s
                if span > len(series):
                    break
                candidates = candidates_at(symbols, s, generation, index % 2 == 1, series.values)
                pairs = brute_force_threshold_pairs(series, span, r)
                by_word = {}
                for x in candidates.words.tolist():
                    by_word.setdefault(int(candidates.ids[x]), []).append(x)
                for word, starts in by_word.items():
                    found = confirm_motifs(candidates, word_counts(candidates, [word]), norm.values, r)
                    engine = [tuple(group) for group in group_lists(found)]
                    assert engine == pair_graph_components(pairs, starts), (index, generation, word)

    def test_chain_joins_starts_that_are_not_within_r(self):
        # windows at 0 and 20 are each within r of the one at 10 but not of
        # each other; the far pair comes first in start order
        vals = [50.0, -50.0] * 15
        vals[0:2] = [0.0, 0.0]
        vals[10:12] = [2.0, 2.0]
        vals[20:22] = [1.0, 1.0]
        series = TimeSeries(np.array(vals))
        norm = z_normalize(series)
        step = float(np.sqrt(2.0)) / norm.std_used  # distance of windows one unit apart
        r = 1.5 * step
        pairs = brute_force_threshold_pairs(series, 2, r)
        chosen = {(i, j) for i, j, _ in pairs if {i, j} <= {0, 10, 20}}
        assert chosen == {(0, 20), (10, 20)}
        candidates = hand_matrix(norm.values, 2, [0, 10, 20])
        assert group_lists(confirm_motifs(candidates, word_counts(candidates, [0]), norm.values, r)) == [[0, 10, 20]]
        assert pair_graph_components(pairs, [0, 10, 20]) == [(0, 10, 20)]


class TestGroups:
    """groups on plain arrays: candidate starts of a few words, given in a
    shuffled order, so neither the starts nor the words are sorted."""

    @staticmethod
    def instances(count: int):
        """(series, s, span, starts, words, raw) of threshold_instances' series.

        Each raw class gets one word from a few ids, as equal raw windows
        have equal symbols, so the words of different classes interleave.
        """
        for index, s, _, series in threshold_instances(count):
            rng = random.Random(index)
            span = s * rng.randint(1, 3)
            if span > len(series):
                continue
            raw = window_ids(series.values, span)
            word_of = [rng.choice((7, 3, 11)) for _ in range(int(raw.max()) + 1)]
            starts = rng.sample(range(raw.size), rng.randint(0, raw.size))
            words = [word_of[raw[x]] for x in starts]
            yield index, series, s, span, np.array(starts, dtype=np.intp), np.array(words), raw[starts]

    def test_exact_groups_are_raw_classes(self):
        for index, series, s, span, starts, words, raw in self.instances(150):
            classes = {}
            for x in sorted(starts.tolist()):
                classes.setdefault(series.values[x : x + span].tobytes(), []).append(x)
            expected = sorted(group for group in classes.values() if len(group) >= 2)
            norm = z_normalize(series).values
            assert group_lists(groups(norm, s, span, starts, words, raw, 0.0)) == expected, index

    def test_threshold_groups_are_pair_graph_components(self):
        for index, series, s, span, starts, words, raw in self.instances(150):
            r = (0.1, 0.5, 1.0, 2.0)[index % 4]
            pairs = brute_force_threshold_pairs(series, span, r)
            expected = []
            for word in set(words.tolist()):
                expected += pair_graph_components(pairs, starts[words == word].tolist())
            found = group_lists(groups(z_normalize(series).values, s, span, starts, words, raw, r))
            assert [tuple(group) for group in found] == sorted(expected), (index, r)


def few_valued_instances(count: int, seed: int = 20261020):
    """Series of two to four distinct integers at small alphabets, where TME
    and the prefix and template checks interact; r and TME cycle through
    all four modes."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(8, 90)
        distinct = rng.randint(2, 4)
        vals = [float(rng.randrange(distinct)) for _ in range(m)]
        if i % 3 == 0:
            p = rng.randint(2, 7)
            vals = (vals[:p] * (m // p + 1))[:m]
            vals[rng.randrange(m)] = float(distinct)
        s, a = rng.randint(1, 4), rng.randint(2, 4)
        r = (0.0, 0.0, 0.3, 1.0)[i % 4]
        tme = (i // 4) % 2 == 1 or i % 5 == 0
        yield i, TimeSeries(np.array(vals)), MtaConfig(SaxConfig(s, a), r, tme)


@st.composite
def reference_cases(draw):
    m = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["few", "walk", "noise"]))
    if kind == "few":
        vals = draw(st.lists(st.integers(0, draw(st.integers(1, 4))), min_size=m, max_size=m))
        values = np.array(vals, dtype=float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        values = rng.standard_normal(m)
        values = np.cumsum(values) if kind == "walk" else values
    s = draw(st.integers(1, min(m, 6)))
    a = draw(st.integers(2, 6))
    r = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0, 3.0]))
    return TimeSeries(values), MtaConfig(SaxConfig(s, a), r, draw(st.booleans()))


class TestReferenceMotifs:
    """run_mta reports what reference_motifs computes in plain loops, in every mode."""

    @settings(max_examples=150, deadline=None)
    @given(reference_cases())
    def test_matches_engine(self, case):
        series, config = case
        assert list(run_mta(series, config)) == list(reference_motifs(series, config))

    def test_few_valued_corpus(self):
        modes = set()
        for index, series, config in few_valued_instances(400):
            modes.add((config.match_threshold > 0, config.tme_enabled))
            engine = run_mta(series, config)
            assert list(engine) == list(reference_motifs(series, config)), f"instance {index}"
        assert len(modes) == 4

    @pytest.mark.parametrize(
        "s, a, values",
        [
            (4, 2, "2333220102220102321012201"),
            (3, 3, "2300022200023220000022"),
        ],
    )
    def test_template_check_binds(self, s, a, values):
        # TME at generation 1 leaves a letter without a group, yet a later
        # word ending in it has a confirmed prefix and a group of its own:
        # the mutation template must still drop it
        series = TimeSeries(np.array([float(v) for v in values]))
        config = MtaConfig(SaxConfig(s, a), 1.0, True)
        assert list(run_mta(series, config)) == list(reference_motifs(series, config))

    def test_reference_matches_exact_oracle(self):
        for index, s, a, series in corpus_instances(count=24):
            reference = reference_motifs(series, MtaConfig(SaxConfig(s, a)))
            oracle = brute_force_exact_motifs(series, s, 1)
            assert motif_signature(reference) == motif_signature(oracle), f"instance {index}"
