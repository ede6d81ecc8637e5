import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motiftrack import (
    SaxConfig,
    TimeSeries,
    build_symbol_matrix,
    gaussian_breakpoints,
    window_symbol,
    z_normalize,
)

from conftest import phi, phi_inv


class TestSaxConfig:
    def test_alphabet_bounds(self):
        with pytest.raises(ValueError, match="alphabet too small"):
            SaxConfig(2, 1)
        with pytest.raises(ValueError):
            SaxConfig(2, 27)
        with pytest.raises(ValueError):
            SaxConfig(0, 4)


class TestBreakpoints:
    def test_two_letters(self):
        assert gaussian_breakpoints(2) == (0.0,)

    def test_four_letters(self):
        cuts = gaussian_breakpoints(4)
        assert cuts == pytest.approx((-0.674490, 0.0, 0.674490), abs=1e-6)

    def test_three_letters(self):
        cuts = gaussian_breakpoints(3)
        assert cuts == pytest.approx((-0.430727, 0.430727), abs=1e-6)

    def test_too_small(self):
        with pytest.raises(ValueError, match="alphabet too small"):
            gaussian_breakpoints(1)

    @pytest.mark.parametrize("a", range(2, 13))
    def test_matches_independent_quantiles(self, a):
        cuts = gaussian_breakpoints(a)
        for i, cut in enumerate(cuts):
            assert abs(cut - phi_inv((i + 1) / a)) < 1e-9

    @pytest.mark.parametrize("a", range(2, 13))
    def test_symmetric_and_increasing(self, a):
        cuts = gaussian_breakpoints(a)
        assert all(x < y for x, y in zip(cuts, cuts[1:]))
        for i, cut in enumerate(cuts):
            assert abs(cut + cuts[a - 2 - i]) < 1e-9

    @pytest.mark.parametrize("a", range(2, 13))
    def test_equal_areas(self, a):
        cuts = gaussian_breakpoints(a)
        probs = [phi(cuts[0])]
        probs += [phi(hi) - phi(lo) for lo, hi in zip(cuts, cuts[1:])]
        probs.append(1.0 - phi(cuts[-1]))
        assert probs == pytest.approx([1.0 / a] * a, abs=1e-6)


class TestWindowSymbol:
    def test_below_median(self):
        assert window_symbol([-1.0, -1.0], gaussian_breakpoints(2)) == 0

    def test_above_median(self):
        assert window_symbol([0.1, 0.3], gaussian_breakpoints(2)) == 1

    def test_boundary_goes_up(self):
        assert window_symbol([0.0], gaussian_breakpoints(2)) == 1

    def test_monotone_in_window_values(self):
        cuts = gaussian_breakpoints(5)
        rng = random.Random(7)
        for _ in range(200):
            window = [rng.uniform(-3, 3) for _ in range(4)]
            bumped = [v + rng.uniform(0, 2) for v in window]
            assert window_symbol(bumped, cuts) >= window_symbol(window, cuts)


class TestSymbolMatrix:
    def test_hand_example(self):
        matrix = build_symbol_matrix(np.array([-1.0, -1.0, 1.0, 1.0]), SaxConfig(2, 2))
        assert matrix.symbols == "abb"

    def test_single_window_boundary(self):
        matrix = build_symbol_matrix(np.array([0.0, 0.0, 0.0]), SaxConfig(3, 2))
        assert matrix.symbols == "b"

    def test_window_equal_to_series(self):
        matrix = build_symbol_matrix(np.array([0.3, -0.2, 0.9, 0.1, -1.0]), SaxConfig(5, 4))
        assert len(matrix.symbols) == 1

    def test_letters_read_only(self):
        matrix = build_symbol_matrix(np.array([-1.0, -1.0, 1.0, 1.0]), SaxConfig(2, 2))
        with pytest.raises(ValueError):
            matrix.letters[0] = 1

    def test_too_short(self):
        with pytest.raises(ValueError, match="series shorter than symbol length"):
            build_symbol_matrix(np.array([1.0, 2.0]), SaxConfig(3, 4))

    @given(
        st.integers(1, 8),
        st.lists(st.integers(0, 9), min_size=8, max_size=80),
    )
    def test_length_is_m_minus_s_plus_one(self, s, raw):
        norm = z_normalize(TimeSeries(np.array(raw, dtype=float)))
        matrix = build_symbol_matrix(norm, SaxConfig(s, 4))
        assert len(matrix.symbols) == len(raw) - s + 1

    @given(
        st.integers(2, 6),
        st.lists(st.integers(0, 5), min_size=20, max_size=80),
        st.randoms(use_true_random=False),
    )
    def test_exact_repeats_share_symbols(self, s, raw, rnd):
        # plant a copy of one window at a non-overlapping start, then require
        # equal symbols
        vals = [float(v) for v in raw]
        src = rnd.randrange(0, len(vals) - s + 1)
        clear = [p for p in range(0, len(vals) - s + 1) if abs(p - src) >= s]
        dst = rnd.choice(clear) if clear else src
        vals[dst : dst + s] = vals[src : src + s]
        norm = z_normalize(TimeSeries(np.array(vals)))
        matrix = build_symbol_matrix(norm, SaxConfig(s, 4))
        assert matrix.symbols[src] == matrix.symbols[dst]

    def test_matches_scalar_window_symbol(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(5, 40)
            s = rng.randint(1, m)
            a = rng.choice([2, 4, 7, 10])
            vals = [float(rng.randint(0, 6)) for _ in range(m)]
            norm = z_normalize(TimeSeries(np.array(vals)))
            matrix = build_symbol_matrix(norm, SaxConfig(s, a))
            cuts = gaussian_breakpoints(a)
            for i in range(m - s + 1):
                expected = window_symbol(norm[i : i + s], cuts)
                assert matrix.symbols[i] == chr(ord("a") + expected)
                assert matrix.letters[i] == expected
