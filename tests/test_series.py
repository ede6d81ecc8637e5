import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiftrack import (
    TimeSeries,
    dump_series_text,
    euclidean_distance,
    load_series_file,
    load_series_text,
    z_normalize,
)


def reference_load(text):
    """The strip-first loop load_series_text replaced; returns the values list."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(f"line {lineno}: not a number: {line!r}") from None
    if not values:
        raise ValueError("empty input")
    return values


def reference_dump(values):
    """The per-numpy-scalar loop dump_series_text replaced."""
    lines = []
    for v in np.asarray(values, dtype=np.float64):
        f = float(v)
        lines.append(str(int(f)) if f.is_integer() else repr(f))
    return "\n".join(lines) + "\n"


# pieces of series-file lines: finite numbers in several spellings, blanks,
# comments, whitespace str.strip() and float() both remove, and garbage
SERIES_PIECES = [
    "1", "-2", "3.5", "1e3", "1e1_000", "9" * 310, "-0", "0.0", "1_000", "+7", "\u0663", "0x1", "1 2", "abc",
    "#", "# c 4", " ", "\t", "\xa0", "\x1f", "\u3000", "", ".", "e", "-",
]
series_like_text = st.lists(
    st.tuples(st.lists(st.sampled_from(SERIES_PIECES), max_size=3).map("".join),
              st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])),
    max_size=12,
).map(lambda rows: "".join(line + brk for line, brk in rows))

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, -2.5, 1.5e-7,
    2.0**53, 2.0**53 + 2, -(2.0**53) - 2, 2.0**63, 2.0**64 + 2**12, 1e22, 1e300,
    1.7976931348623157e308, -1.7976931348623157e308, 123456789.125, 4503599627370495.5,
]


class TestTimeSeries:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            TimeSeries(np.array([]))

    @pytest.mark.parametrize("values", [np.zeros((3, 1)), np.float64(3.0), [[1.0, 2.0]]])
    def test_not_one_dimensional_rejected(self, values):
        with pytest.raises(ValueError, match="values must be one-dimensional"):
            TimeSeries(values)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.inf]))

    def test_length(self):
        assert len(TimeSeries(np.array([1.0, 2.0, 3.0]))) == 3


class TestZNormalize:
    def test_three_points(self):
        out = z_normalize(TimeSeries(np.array([1.0, 2.0, 3.0])))
        # population std, not sample std
        assert out == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)

    def test_constant_maps_to_zeros(self):
        out = z_normalize(TimeSeries(np.array([5.0, 5.0, 5.0, 5.0])))
        assert list(out) == [0.0, 0.0, 0.0, 0.0]

    def test_single_point(self):
        out = z_normalize(TimeSeries(np.array([0.0])))
        assert list(out) == [0.0]

    def test_near_float_max_stays_finite(self):
        vals = np.array([1e308, -1e308, 3, 4, 1e308, -1e308, 5, 6, 7, 8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = z_normalize(TimeSeries(vals))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.0 > out[1]
        assert out[0] == out[4] and out[1] == out[5]

    def test_subnormal_spread_not_collapsed(self):
        for raw in ([0.0, 5e-324, 0.0, 5e-324], [0.0, 5e-324]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = z_normalize(TimeSeries(np.array(raw)))
            assert list(out) == [-1.0, 1.0] * (len(raw) // 2)

    def test_tiny_spread_keeps_precision(self):
        # the squares of a 1e-160 spread are subnormal if taken unscaled
        out = z_normalize(TimeSeries(np.array([0.0, 1e-160, 0.0, 1e-160])))
        assert list(out) == [-1.0, 1.0, -1.0, 1.0]

    def test_inexact_constant_maps_to_zeros(self):
        # the summed mean of three 0.1s is 0.10000000000000002, not 0.1
        out = z_normalize(TimeSeries(np.array([0.1, 0.1, 0.1])))
        assert list(out) == [0.0, 0.0, 0.0]

    def test_ordinary_input_keeps_direct_bits(self):
        arr = np.random.default_rng(7).normal(50.0, 20.0, 500)
        out = z_normalize(TimeSeries(arr))
        assert out.tobytes() == ((arr - arr.mean()) / arr.std()).tobytes()

    def test_read_only(self):
        out = z_normalize(TimeSeries(np.array([1.0, 2.0, 3.0])))
        with pytest.raises(ValueError):
            out[0] = 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_finite_for_every_finite_series(self, raw):
        arr = np.array(raw, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = z_normalize(TimeSeries(arr))
        assert np.all(np.isfinite(out))
        # normalization keeps the order of the points
        order = np.argsort(arr, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=60))
    def test_idempotent_on_nonconstant(self, raw):
        if len(set(raw)) < 2:
            raw = raw + [max(raw) + 1]
        once = z_normalize(TimeSeries(np.array(raw, dtype=float)))
        twice = z_normalize(TimeSeries(once))
        assert np.max(np.abs(once - twice)) < 1e-9

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=60))
    def test_preserves_equality_structure(self, raw):
        if len(set(raw)) < 2:
            raw = raw + [max(raw) + 1]
        out = z_normalize(TimeSeries(np.array(raw, dtype=float)))
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                assert (raw[i] == raw[j]) == (out[i] == out[j])


class TestEuclideanDistance:
    def test_identity(self):
        assert euclidean_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_sqrt_three(self):
        assert euclidean_distance([1, 1, 1], [2, 2, 2]) == pytest.approx(1.732051, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            euclidean_distance([1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    )
    def test_symmetric_and_nonnegative(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        d = euclidean_distance(x, y)
        assert d >= 0.0
        assert d == euclidean_distance(y, x)

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-100, 100), min_size=n, max_size=n),
                st.lists(st.floats(-100, 100), min_size=n, max_size=n),
                st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            )
        )
    )
    def test_triangle_inequality(self, xyz):
        x, y, z = xyz
        assert euclidean_distance(x, z) <= (
            euclidean_distance(x, y) + euclidean_distance(y, z) + 1e-9
        )


class TestSeriesFiles:
    def test_parses_comments_and_blanks(self):
        text = "# header\n1\n\n2.5\n  3 \n"
        series = load_series_text(text)
        assert list(series.values) == [1.0, 2.5, 3.0]

    def test_rejects_garbage_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_series_text("1\nnot-a-number\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            load_series_text("# only a comment\n")

    def test_file_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
        assert list(load_series_file(path).values) == [1.0, 2.0, 3.0]

    def test_round_trip_integers(self):
        text = dump_series_text([5.0, 3.0, 6.0])
        assert text == "5\n3\n6\n"
        assert list(load_series_text(text).values) == [5.0, 3.0, 6.0]

    def test_round_trip_decimals(self):
        values = [1.5, -2.25, 7.0]
        assert list(load_series_text(dump_series_text(values)).values) == values

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "  NaN ", "1e999"])
    def test_nonfinite_reported_with_line_number(self, bad):
        text = f"1\n# c\n\n{bad}\n3\n"
        with pytest.raises(ValueError, match=f"^line 4: not a finite number: {bad.strip()!r}$"):
            load_series_text(text)

    def test_separator_whitespace_float_keeps(self):
        # str.strip() removes \x1f, float() does not; such lines were and are values
        assert list(load_series_text("1\x1f\n\x1f2\n# c\x1f\n").values) == [1.0, 2.0]
        with pytest.raises(ValueError, match="^line 2: not a finite number: 'nan'$"):
            load_series_text("1\nnan\x1f\n")

    def test_first_nonfinite_line_reported(self):
        with pytest.raises(ValueError, match="^line 3: not a finite number: 'inf'$"):
            load_series_text("  # lead\n2\n inf\n-inf\n")

    def test_garbage_before_nonfinite_reported_as_garbage(self):
        with pytest.raises(ValueError, match="^line 3: not a number: 'x'$"):
            load_series_text("nan\n1\nx\n")

    def test_line_numbers_with_comments_blanks_and_indent(self):
        text = "# header\n\n   1\n\t# indented comment\n \xa02.5\n\n  oops \n"
        with pytest.raises(ValueError, match="^line 7: not a number: 'oops'$"):
            load_series_text(text)
        assert list(load_series_text(text[: text.index("  oops")]).values) == [1.0, 2.5]

    @settings(max_examples=300, deadline=None)
    @given(series_like_text)
    def test_load_matches_reference(self, text):
        try:
            want = reference_load(text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                load_series_text(text)
            return
        if not all(map(math.isfinite, want)):
            # "1e1_000" overflows to inf; the reference left that to TimeSeries
            with pytest.raises(ValueError, match=r"^line \d+: not a finite number: "):
                load_series_text(text)
            return
        got = load_series_text(text).values
        assert got.tobytes() == (np.array(want) + 0.0).tobytes()

    @pytest.mark.parametrize("values", [
        EDGE_FLOATS,
        [2.0**53 + 2 * k for k in range(50)],
        [],
        # %d raises on inf, so only finite integral values may take it
        [math.nan, math.inf, -math.inf, 1.0],
        # the int64 edges: a cast to int64 that wraps misprints 2**63
        [-(2.0**63), 2.0**63 - 1024, 2.0**63, 3.0],
        # syscall ids as ingest writes them
        [float(k * 37 % 400) for k in range(500)],
    ])
    def test_dump_matches_reference_on_edges(self, values):
        assert dump_series_text(values) == reference_dump(values)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_dump_matches_reference(self, values):
        assert dump_series_text(values) == reference_dump(values)

    def test_dump_accepts_integer_arrays(self):
        values = np.array([3, -4, 2**60], dtype=np.int64)
        assert dump_series_text(values) == reference_dump(values) == "3\n-4\n1152921504606846976\n"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_round_trip_bit_for_bit(self, values):
        arr = np.array(values, dtype=np.float64)
        got = load_series_text(dump_series_text(arr)).values
        # TimeSeries folds -0.0 into +0.0
        assert got.tobytes() == (arr + 0.0).tobytes()

    def test_round_trip_edges_bit_for_bit(self):
        arr = np.array(EDGE_FLOATS)
        got = load_series_text(dump_series_text(arr)).values
        assert got.tobytes() == (arr + 0.0).tobytes()
