import math
import random

import numpy as np
import pytest

from motiftrack import (
    MtaConfig,
    SaxConfig,
    TimeSeries,
    brute_force_exact_motifs,
    brute_force_threshold_pairs,
    maximal_exact_repeats,
    run_mta,
)

from conftest import corpus_instances, motif_signature


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
