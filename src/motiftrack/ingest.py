"""System-call trace ingestion: strace-style logs to an integer series.

Traces captured with ``strace -ff -o prefix`` produce one file per PID with
one call per line.  The PID prefixes that ``strace -f`` writes without
``-ff`` are accepted and ignored: ``[pid N]`` on its terminal output, and
the PID and spaces before every line of a ``-o FILE`` capture.  Parsing
keeps only the call name before the first '('; signal deliveries,
resumption markers, exit notes and other noise are skipped but counted.  An
unfinished/resumed pair counts once, at the unfinished line, which preserves
ordering by call initiation time.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from importlib.resources import files
from itertools import repeat

import numpy as np

from .series import TimeSeries, _pieces

# `strace -f` without -ff prefixes each line of a child process with [pid N],
# or, writing to a file (-o), every line with the PID and spaces ("%-5d ").
# Nothing before the final \( can match a '(', so a line's text before its
# first '(' decides the match and the name (parse_strace_text relies on this).
_CALL_LINE = re.compile(r"(?:\[pid\s+\d+\]\s*|[0-9]+\s+|\s*)([A-Za-z_][A-Za-z0-9_]*)\(")

# bundled name-to-id tables, by the name `ingest --syscall-table` takes
SYSCALL_TABLES = {
    "linux-2.4-i386": "syscalls-linux-2.4-i386.txt",
    "linux-x86_64": "syscalls-linux-x86_64.txt",
}
DEFAULT_SYSCALL_TABLE = "linux-2.4-i386"


@dataclass(frozen=True)
class SyscallMap:
    """Unique syscall names mapped to unique non-negative ids."""

    entries: dict[str, int]


@dataclass(frozen=True)
class PidTrace:
    pid: int
    calls: tuple[str, ...]


def parse_strace_text(text: str) -> tuple[list[str], int, int]:
    """Extract call names in order.

    Returns (calls, line_count, skipped_count).  skipped counts every line
    with no recognizable call initiation: blanks, '--- SIGxxx ---' signal
    lines, '<... name resumed>' markers, '+++ exited ...' lines, comments.

    A call line is decided by the text before its first '(' alone, so the
    pattern runs once per distinct head, and every call of one name shares
    one string.  The text is parsed a piece at a time, and a piece ends only
    after a '\n', which ends a line whatever the line break before it; so
    no line is split, and only one piece's lines are held at once.
    """
    return _parse_pieces(_pieces(text))


def _parse_pieces(pieces) -> tuple[list[str], int, int]:
    """parse_strace_text over the lines of pieces of one text, with one head cache."""
    calls: list[str] = []
    append = calls.append
    names: dict[str, str | None] = {}
    total = 0
    for piece in pieces:
        lines = piece.splitlines()
        total += len(lines)
        for line in lines:
            head, paren, _ = line.partition("(")
            if not paren:
                continue
            try:
                name = names[head]
            except KeyError:
                match = _CALL_LINE.match(line)
                name = names[head] = match.group(1) if match else None
            if name is not None:
                append(name)
    return calls, total, total - len(calls)


def pid_suffix(path) -> int | None:
    """The PID of a trace file named <prefix>.<pid>, or None for any other name.

    Only ASCII digits count: str.isdigit() also admits characters such as
    '\u00b2' that int() does not parse.
    """
    suffix = str(path).rsplit(".", 1)[-1]
    return int(suffix) if suffix.isascii() and suffix.isdecimal() else None


def parse_strace_file(path) -> tuple[PidTrace, int, int]:
    """Parse one per-PID trace file named <prefix>.<pid>, as parse_strace_text does its text.

    The file is read a piece at a time: each piece ends after the last '\n'
    read so far, and the rest is carried into the next, so no line is split.
    A leading byte-order mark is skipped, and bytes that are not UTF-8 read
    as U+FFFD.
    """
    pid = pid_suffix(path)
    if pid is None:
        raise ValueError(f"trace file name must end in .<pid>: {str(path)!r}")
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        calls, total, skipped = _parse_pieces(_pieces(fh))
    return PidTrace(pid, tuple(calls)), total, skipped


def load_syscall_map_text(text: str) -> SyscallMap:
    """Parse a 'name id' table, one entry per line, '#' comments allowed.

    Duplicate names and duplicate ids are both rejected: motif semantics
    depend only on id equality, and a silently shared id would merge calls.
    So are ids above 2**53, which the float64 series cannot hold apart.
    """
    entries: dict[str, int] = {}
    seen_ids: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name id', got {raw.strip()!r}")
        name, id_text = parts
        try:
            call_id = int(id_text)
        except ValueError:
            raise ValueError(f"line {lineno}: id for {name!r} is not an integer") from None
        if call_id < 0:
            raise ValueError(f"line {lineno}: id for {name!r} is negative")
        if call_id > 2**53:
            raise ValueError(f"line {lineno}: id for {name!r} is too large")
        if name in entries:
            raise ValueError(f"line {lineno}: duplicate syscall name {name!r}")
        if call_id in seen_ids:
            raise ValueError(
                f"line {lineno}: id {call_id} already assigned to {seen_ids[call_id]!r}"
            )
        entries[name] = call_id
        seen_ids[call_id] = name
    return SyscallMap(entries)


def load_syscall_map(path) -> SyscallMap:
    """Read a 'name id' table file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return load_syscall_map_text(fh.read())


def bundled_syscall_map(table: str) -> SyscallMap:
    """One of the bundled tables, by its key in SYSCALL_TABLES."""
    text = files("motiftrack").joinpath(f"data/{SYSCALL_TABLES[table]}").read_text("utf-8")
    return load_syscall_map_text(text)


def default_syscall_map() -> SyscallMap:
    """The bundled reference table (Linux 2.4 series, i386)."""
    return bundled_syscall_map(DEFAULT_SYSCALL_TABLE)


def concatenate_pid_traces(parent: PidTrace, children) -> list[str]:
    """Parent calls first, then each child's calls in ascending-PID order."""
    seen = {parent.pid}
    ordered = sorted(children, key=lambda t: t.pid)
    for child in ordered:
        if child.pid in seen:
            raise ValueError(f"duplicate pid {child.pid}")
        seen.add(child.pid)
    out = list(parent.calls)
    for child in ordered:
        out.extend(child.calls)
    return out


def encode_series(
    calls: Sequence[str], syscall_map: SyscallMap, strict: bool = False
) -> tuple[TimeSeries, int]:
    """Map call names to ids in order; returns (series, dropped_count).

    With strict=True an unknown name raises, naming the first one and its
    position; otherwise unknown names are dropped and counted.
    """
    # ids are integers, so NaN marks an unknown name whatever ids a map holds
    ids = np.fromiter(
        map(syscall_map.entries.get, calls, repeat(np.nan)), dtype=np.float64, count=len(calls)
    )
    unknown = np.isnan(ids)
    dropped = int(np.count_nonzero(unknown))
    if dropped:
        if strict:
            pos = int(np.argmax(unknown))
            raise ValueError(f"unknown syscall {calls[pos]!r} at position {pos}")
        ids = ids[~unknown]
    return TimeSeries(ids), dropped
