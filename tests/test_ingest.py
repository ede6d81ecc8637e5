import numpy as np
import pytest

from motiftrack import (
    PidTrace,
    concatenate_pid_traces,
    default_syscall_map,
    encode_series,
    parse_strace_text,
)
from motiftrack.ingest import load_syscall_map_text, parse_strace_file

from conftest import DATA_DIR

STRACE_DIR = DATA_DIR / "strace"


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

    def test_file_parses_pid(self):
        trace, total, skipped = parse_strace_file(STRACE_DIR / "trace.2001")
        assert trace.pid == 2001
        assert (total, skipped) == (11, 3)
        assert trace.calls[:3] == ("execve", "brk", "open")


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

    def test_bundled_table_spot_values(self):
        table = default_syscall_map()
        spot = {"read": 3, "write": 4, "open": 5, "close": 6, "execve": 11,
                "chmod": 15, "munmap": 91, "_llseek": 140}
        for name, number in spot.items():
            assert table.entries[name] == number
        # loading at all proves name and id uniqueness


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
