import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiftrack import (
    PidTrace,
    SyscallMap,
    concatenate_pid_traces,
    default_syscall_map,
    encode_series,
    parse_strace_text,
)
from motiftrack.ingest import (
    bundled_syscall_map,
    load_syscall_map,
    load_syscall_map_text,
    parse_strace_file,
    pid_suffix,
)

from conftest import DATA_DIR

STRACE_DIR = DATA_DIR / "strace"


# the line prefixes a call may follow: [pid N] (strace -f to a terminal), a
# PID and whitespace (strace -f -o FILE), or whitespace alone
REFERENCE_PREFIXES = [re.compile(r"\[pid\s+\d+\]\s*"), re.compile(r"[0-9]+\s+"), re.compile(r"\s*")]
REFERENCE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(")


def reference_parse(text):
    """parse_strace_text as a per-line loop: a call is a name and '(' after one of the prefixes."""
    lines = text.splitlines()
    calls = []
    for line in lines:
        for prefix in REFERENCE_PREFIXES:
            head = prefix.match(line)
            name = head and REFERENCE_NAME.match(line, head.end())
            if name:
                calls.append(name.group()[:-1])
                break
    return calls, len(lines), len(lines) - len(calls)


def reference_encode(calls, syscall_map, strict=False):
    """The per-name loop encode_series replaced."""
    ids = []
    dropped = 0
    for pos, name in enumerate(calls):
        try:
            ids.append(syscall_map.entries[name])
        except KeyError:
            if strict:
                raise ValueError(f"unknown syscall {name!r} at position {pos}") from None
            dropped += 1
    if not ids:
        raise ValueError("empty input")
    return np.array(ids, dtype=np.float64), dropped


# every boundary str.splitlines() breaks at; '^' under re.M knows only '\n'
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
# pieces of strace-like lines: names, [pid N] and PID prefixes, '(' in heads
# and arguments, ASCII and Unicode whitespace (\xa0, \x1f, \u3000), a
# non-ASCII digit (\u0663) and noise
LINE_PIECES = [
    "read", "write", "_llseek", "open", "x9", "9x", "é", "rt_sigaction",
    "[pid 12]", "[pid  4242] ", "[pid\t7]", "[pid]", "[pid x]", "[", "]",
    "4242 ", "31020", "7\t", "\u0663 ",
    "(", ")", "((", '"a(b"', "<... read resumed>", "<unfinished ...>",
    "--- SIGCHLD {si_pid=3} ---", "+++ exited with 0 +++", "# c",
    " ", "  ", "\t", "\xa0", "\x1f", "\u3000", "=", " = 0", "3", ", ",
]
strace_like_text = st.lists(
    st.tuples(st.lists(st.sampled_from(LINE_PIECES), max_size=8).map("".join),
              st.sampled_from(LINE_BREAKS)),
    max_size=20,
).map(lambda rows: "".join(line + brk for line, brk in rows))


class TestParse:
    def test_name_before_parenthesis(self):
        calls, total, skipped = parse_strace_text('open("/etc/passwd", O_RDONLY) = 3\n')
        assert calls == ["open"]
        assert (total, skipped) == (1, 0)

    def test_signal_line_skipped(self):
        calls, total, skipped = parse_strace_text("--- SIGCHLD (Child exited) ---\n")
        assert calls == []
        assert (total, skipped) == (1, 1)

    def test_order_preserved(self):
        text = 'read(5, "abc", 3) = 3\nwrite(1, "abc", 3) = 3\n'
        calls, _, _ = parse_strace_text(text)
        assert calls == ["read", "write"]

    def test_unfinished_counts_once(self):
        text = (
            "accept(3,  <unfinished ...>\n"
            "<... accept resumed> {sa_family=AF_INET}, [16]) = 4\n"
        )
        calls, total, skipped = parse_strace_text(text)
        assert calls == ["accept"]
        assert (total, skipped) == (2, 1)

    def test_exit_markers_and_noise_skipped(self):
        text = "+++ exited with 0 +++\n\n# comment\n12345 garbage\n"
        calls, total, skipped = parse_strace_text(text)
        assert calls == []
        assert (total, skipped) == (4, 4)

    def test_pid_prefix_counts_as_call(self):
        # `strace -f` without -ff prefixes the lines of child processes
        text = (
            '[pid  4242] read(3, "x", 1) = 1\n'
            '[pid  4243] write(1, "y", 1) = 1\n'
            'open("/a", O_RDONLY) = 3\n'
        )
        calls, total, skipped = parse_strace_text(text)
        assert calls == ["read", "write", "open"]
        assert (total, skipped) == (3, 0)

    def test_file_output_pid_prefix_counts_as_call(self):
        # `strace -f -o FILE` puts the PID and spaces before every line
        text = '12345 read(3, "x", 1) = 1\n[pid  4243] write(1, "y", 1) = 1\n3101  open("/a", 0) = 3\n'
        calls, total, skipped = parse_strace_text(text)
        assert calls == ["read", "write", "open"]
        assert (total, skipped) == (3, 0)

    @pytest.mark.parametrize("line", ["12read(1) = 1", "\u0663 read(1) = 1", "12 (1) = 1", "12 9x(1) = 1", " 12 read(1)"])
    def test_pid_prefix_needs_ascii_digits_then_whitespace(self, line):
        assert parse_strace_text(line) == ([], 1, 1)

    def test_file_output_capture(self):
        # a hand-written `strace -f -o out` capture of `sh -c "ls | wc -l"`,
        # renamed out.1: both processes' calls, in the order strace wrote them
        trace, total, skipped = parse_strace_file(DATA_DIR / "strace_f" / "out.1")
        assert trace.calls == (
            "execve", "brk", "openat", "close", "pipe", "clone", "close", "wait4",
            "dup2", "execve", "write", "exit_group", "read", "exit_group",
        )
        assert (total, skipped) == (19, 5)

    def test_pid_prefixed_resumed_marker_skipped(self):
        text = (
            "[pid  4243] accept(3,  <unfinished ...>\n"
            "[pid  4243] <... accept resumed> {sa_family=AF_INET}, [16]) = 4\n"
        )
        calls, total, skipped = parse_strace_text(text)
        assert calls == ["accept"]
        assert (total, skipped) == (2, 1)

    def test_underscore_names(self):
        calls, _, _ = parse_strace_text("_llseek(3, 0, [0], SEEK_SET) = 0\n")
        assert calls == ["_llseek"]

    def test_file_requires_pid_suffix(self, tmp_path):
        path = tmp_path / "trace.notapid"
        path.write_text("open() = 1\n")
        with pytest.raises(ValueError, match="pid"):
            parse_strace_file(path)

    def test_file_rejects_non_ascii_digit_suffix(self, tmp_path):
        # "\u00b2".isdigit() is true, but int() does not parse it
        path = tmp_path / "trace.\u00b2"
        path.write_text("open() = 1\n")
        with pytest.raises(ValueError, match="must end in .<pid>"):
            parse_strace_file(path)

    def test_pid_suffix(self):
        assert pid_suffix("trace.2001") == 2001
        assert pid_suffix("dir.v2/trace.7") == 7
        for name in ("trace.\u00b2", "trace.\u0663", "trace.", "trace.1a", "trace.+1", "trace"):
            assert pid_suffix(name) is None, name

    def test_file_parses_pid(self):
        trace, total, skipped = parse_strace_file(STRACE_DIR / "trace.2001")
        assert trace.pid == 2001
        assert (total, skipped) == (11, 3)
        assert trace.calls[:3] == ("execve", "brk", "open")


class TestParseReference:
    """parse_strace_text against the per-line pattern loop it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(strace_like_text)
    def test_strace_like_lines(self, text):
        assert parse_strace_text(text) == reference_parse(text)

    @settings(deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        assert parse_strace_text(text) == reference_parse(text)

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_every_line_break(self, brk):
        text = brk.join(["read(3) = 1", "[pid 5] write(1) = 1", "--- SIGCHLD ---", "open(", ""])
        assert parse_strace_text(text) == reference_parse(text)
        assert parse_strace_text(text)[0] == ["read", "write", "open"]

    def test_equal_heads_share_one_name(self):
        calls, _, _ = parse_strace_text("read(3) = 1\nread(4) = 1\n[pid 9] read(5) = 1\n")
        assert calls == ["read"] * 3
        assert calls[0] is calls[1]

    @pytest.mark.parametrize("text, calls", [
        # a PID and whitespace before the name, as `strace -f -o FILE` writes
        ("12 x(1)\n12 x(2)\nx(3)\n", ["x", "x", "x"]),
        # heads that differ only in surrounding whitespace decide differently
        ("read (3)\nread(4)\n read(5)\nread\xa0(6)\n", ["read", "read"]),
        ("\tread(1)\nread \t(2)\nread(3)\n", ["read", "read"]),
        # digits not followed by whitespace are no PID prefix
        ("12x x(1)\n12x x(2)\nx(3)\n", ["x"]),
    ])
    def test_heads_cached_exactly(self, text, calls):
        assert parse_strace_text(text)[0] == calls
        assert parse_strace_text(text) == reference_parse(text)

    def test_golden_traces(self):
        for path in [STRACE_DIR / name for name in ("trace.2001", "trace.2002", "trace.2005")] + [
            DATA_DIR / "strace_f" / "out.1"
        ]:
            text = path.read_text(encoding="utf-8")
            assert parse_strace_text(text) == reference_parse(text)


class TestSyscallMap:
    def test_basic_entry(self):
        table = load_syscall_map_text("read 3\n")
        assert table.entries == {"read": 3}

    def test_comments_and_blanks(self):
        table = load_syscall_map_text("# table\n\nread 3\nwrite 4  # trailing\n")
        assert table.entries == {"read": 3, "write": 4}

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="line 2.*duplicate"):
            load_syscall_map_text("read 3\nread 4\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="already assigned"):
            load_syscall_map_text("read 3\nreed 3\n")

    def test_non_integer_id(self):
        with pytest.raises(ValueError, match="line 1.*not an integer"):
            load_syscall_map_text("read three\n")

    def test_negative_id(self):
        with pytest.raises(ValueError, match="negative"):
            load_syscall_map_text("read -3\n")

    def test_id_beyond_float64_integers_rejected(self):
        # 2**53 + 1 would encode as 2**53 and merge with the call above it
        table = load_syscall_map_text(f"read {2**53}\n")
        assert table.entries == {"read": 2**53}
        for big in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="line 2: id for 'write' is too large"):
                load_syscall_map_text(f"read {2**53}\nwrite {big}\n")

    def test_file_with_byte_order_mark(self, tmp_path):
        # a BOM read as text would name the first call "\ufeffread"
        path = tmp_path / "bom.map"
        path.write_bytes(b"\xef\xbb\xbfread 3\nwrite 4\n")
        assert load_syscall_map(path).entries == {"read": 3, "write": 4}

    def test_bundled_table_spot_values(self):
        table = default_syscall_map()
        spot = {"read": 3, "write": 4, "open": 5, "close": 6, "execve": 11,
                "chmod": 15, "munmap": 91, "_llseek": 140}
        for name, number in spot.items():
            assert table.entries[name] == number
        # loading at all proves name and id uniqueness

    def test_x86_64_table_has_modern_calls(self):
        table = bundled_syscall_map("linux-x86_64")
        spot = {"read": 0, "write": 1, "openat": 257, "newfstatat": 262, "getrandom": 318,
                "clone3": 435, "pread64": 17, "epoll_wait": 232}
        for name, number in spot.items():
            assert table.entries[name] == number

    def test_default_is_the_2_4_table(self):
        assert default_syscall_map() == bundled_syscall_map("linux-2.4-i386")
        assert "openat" not in default_syscall_map().entries


class TestConcatenation:
    def test_children_sorted_by_pid(self):
        parent = PidTrace(100, ("a",))
        children = [PidTrace(105, ("c",)), PidTrace(102, ("b",))]
        assert concatenate_pid_traces(parent, children) == ["a", "b", "c"]

    def test_no_children(self):
        parent = PidTrace(100, ("a", "b"))
        assert concatenate_pid_traces(parent, []) == ["a", "b"]

    def test_duplicate_pid_rejected(self):
        parent = PidTrace(100, ("a",))
        with pytest.raises(ValueError, match="duplicate pid"):
            concatenate_pid_traces(parent, [PidTrace(100, ("b",))])
        with pytest.raises(ValueError, match="duplicate pid"):
            concatenate_pid_traces(parent, [PidTrace(102, ("b",)), PidTrace(102, ("c",))])


class TestEncode:
    MAP = load_syscall_map_text("open 5\nread 3\nclose 6\n")

    def test_known_names(self):
        series, dropped = encode_series(["open", "read", "close"], self.MAP)
        assert list(series.values) == [5.0, 3.0, 6.0]
        assert dropped == 0

    def test_unknown_dropped_and_counted(self):
        series, dropped = encode_series(["open", "mystery", "close"], self.MAP)
        assert list(series.values) == [5.0, 6.0]
        assert dropped == 1

    def test_strict_raises_with_position(self):
        with pytest.raises(ValueError, match="'mystery' at position 1"):
            encode_series(["open", "mystery"], self.MAP, strict=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            encode_series([], self.MAP)

    def test_several_unknown_names(self):
        calls = ["open", "foo", "read", "bar", "foo", "close", "baz"]
        series, dropped = encode_series(calls, self.MAP)
        assert list(series.values) == [5.0, 3.0, 6.0]
        assert dropped == 4
        with pytest.raises(ValueError, match=r"^unknown syscall 'foo' at position 1$"):
            encode_series(calls, self.MAP, strict=True)
        with pytest.raises(ValueError, match=r"^unknown syscall 'bar' at position 1$"):
            encode_series(calls[2:], self.MAP, strict=True)

    def test_only_unknown_names(self):
        with pytest.raises(ValueError, match="empty input"):
            encode_series(["foo", "bar"], self.MAP)
        with pytest.raises(ValueError, match="'foo' at position 0"):
            encode_series(["foo", "bar"], self.MAP, strict=True)

    def test_id_zero_is_known(self):
        table = load_syscall_map_text("read 0\nwrite 1\n")
        series, dropped = encode_series(["read", "write", "read"], table)
        assert list(series.values) == [0.0, 1.0, 0.0]
        assert dropped == 0

    def test_negative_id_of_a_hand_built_map_is_known(self):
        # the file loader rejects negative ids; a SyscallMap built directly need not
        table = SyscallMap({"read": -1, "write": 4})
        series, dropped = encode_series(["read", "write", "open"], table)
        assert list(series.values) == [-1.0, 4.0]
        assert dropped == 1

    @given(st.lists(st.sampled_from(["open", "read", "close", "foo", "bar"]), max_size=30),
           st.booleans())
    def test_matches_reference(self, calls, strict):
        try:
            want = reference_encode(calls, self.MAP, strict)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                encode_series(calls, self.MAP, strict)
            return
        series, dropped = encode_series(calls, self.MAP, strict)
        assert series.values.tobytes() == want[0].tobytes()
        assert dropped == want[1]

    def test_counters_reconcile_on_golden_traces(self):
        table = default_syscall_map()
        traces = []
        total_lines = total_skipped = 0
        for name in ("trace.2001", "trace.2002", "trace.2005"):
            trace, lines, skipped = parse_strace_file(STRACE_DIR / name)
            traces.append(trace)
            total_lines += lines
            total_skipped += skipped
        calls = concatenate_pid_traces(traces[0], traces[1:])
        series, dropped = encode_series(calls, table)
        assert total_lines == len(series) + total_skipped + dropped
