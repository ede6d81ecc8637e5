"""Checks of the program's outputs, made apart from the program.

Each check reads only the input the generator wrote and the output the
program produced, and returns a list of problems (empty when the output is
right).  None of them imports motiftrack: exact repeats, distances and
z-normalization are recomputed here.
"""

from __future__ import annotations

import re
from bisect import bisect_right

import numpy as np

_MOTIF = re.compile(r"^motif (\d+): length=(\d+) count=(\d+) starts=([\d,]+) symbols=([a-z]*)$")
_QUALITY = re.compile(r"^quality\(min_len=(\d+)\)=(\d+)$")
_INGEST = re.compile(r"^parsed=(\d+) skipped=(\d+) dropped=(\d+) emitted=(\d+)$")


def read_series(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=np.float64)


def parse_report(text: str) -> tuple[list[tuple[int, tuple[int, ...]]], int, int]:
    """Returns ([(length, starts)], quality, min_len) or raises ValueError."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty report")
    quality = _QUALITY.match(lines[-1])
    if quality is None:
        raise ValueError(f"bad quality line {lines[-1]!r}")
    motifs = []
    for rank, line in enumerate(lines[:-1], start=1):
        match = _MOTIF.match(line)
        if match is None:
            raise ValueError(f"bad motif line {line!r}")
        starts = tuple(int(x) for x in match.group(4).split(","))
        if int(match.group(1)) != rank or int(match.group(3)) != len(starts):
            raise ValueError(f"rank or count does not match in {line!r}")
        motifs.append((int(match.group(2)), starts))
    return motifs, int(quality.group(2)), int(quality.group(1))


def _covered(big: tuple[int, tuple[int, ...]], small: tuple[int, tuple[int, ...]]) -> bool:
    """Every occurrence interval of small lies inside one of big's."""
    big_len, big_starts = big
    small_len, small_starts = small
    for o in small_starts:
        k = bisect_right(big_starts, o) - 1
        if k < 0 or o + small_len > big_starts[k] + big_len:
            return False
    return True


def exact_repeats(values: np.ndarray, step: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every exact repeat at lengths step, 2*step, ..., none inside a longer one.

    Starts are grouped by the bytes of their raw windows; a group of two or
    more is a repeat.  A repeat is dropped when a kept repeat at least as long
    covers all its occurrence intervals, longest and most frequent first.
    Ordered by descending length, then by starts.
    """
    found = []
    length = step
    while length <= len(values):
        groups: dict[bytes, list[int]] = {}
        for start in range(len(values) - length + 1):
            groups.setdefault(values[start : start + length].tobytes(), []).append(start)
        repeats = [(length, tuple(g)) for g in groups.values() if len(g) >= 2]
        if not repeats:
            break
        found.extend(repeats)
        length += step
    found.sort(key=lambda mo: (-mo[0], -len(mo[1]), mo[1]))
    kept: list[tuple[int, tuple[int, ...]]] = []
    for mo in found:
        if not any(_covered(k, mo) for k in kept):
            kept.append(mo)
    kept.sort(key=lambda mo: (-mo[0], mo[1]))
    return kept


def _report_problems(motifs, quality, min_len, want_min_len) -> list[str]:
    problems = []
    if min_len != want_min_len:
        problems.append(f"report min_len {min_len}, asked {want_min_len}")
    if quality != sum(length * len(starts) for length, starts in motifs):
        problems.append(f"quality {quality} is not the sum of length x count")
    if any(length < min_len for length, _ in motifs):
        problems.append("a motif shorter than min_len is reported")
    if any(len(starts) < 2 for _, starts in motifs):
        problems.append("a motif with fewer than two occurrences is reported")
    return problems


def check_syscall_exact(report: str, values: np.ndarray, s: int, min_len: int, planted) -> list[str]:
    """The report equals the exact repeats at multiples of s, and covers every planted copy."""
    try:
        motifs, quality, report_min = parse_report(report)
    except ValueError as exc:
        return [str(exc)]
    problems = _report_problems(motifs, quality, report_min, min_len)
    want = [mo for mo in exact_repeats(values, s) if mo[0] >= min_len]
    if motifs != want:
        missing = [mo for mo in want if mo not in motifs][:3]
        extra = [mo for mo in motifs if mo not in want][:3]
        problems.append(f"report differs from the exact repeats: missing {missing}, extra {extra}")
    for start, length in planted:
        copy = (length // s * s, (start,))
        if not any(_covered(mo, copy) for mo in motifs):
            problems.append(f"planted behaviour at {start} (length {length}) is not reported")
    return problems


def _z_normalize(values: np.ndarray) -> np.ndarray:
    std = values.std()
    return np.zeros_like(values) if std == 0 else (values - values.mean()) / std


# slack for rounding when a distance lands on r: the check never rejects a
# pair the engine could have accepted
_DISTANCE_SLACK = 1e-9


def _connected(windows: np.ndarray, r: float) -> bool:
    """The windows form one component of the graph of pairs within r."""
    dist = np.sqrt(((windows[:, None, :] - windows[None, :, :]) ** 2).sum(axis=2))
    near = dist <= r + _DISTANCE_SLACK
    reached = np.zeros(len(windows), dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = near[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


def check_walk_threshold(report: str, values: np.ndarray, r: float, min_len: int) -> list[str]:
    """Each motif's occurrences chain within r; no motif lies inside another."""
    try:
        motifs, quality, report_min = parse_report(report)
    except ValueError as exc:
        return [str(exc)]
    problems = _report_problems(motifs, quality, report_min, min_len)
    if not motifs:
        problems.append("no motif reported")
    norm = _z_normalize(values)
    for length, starts in motifs:
        if starts[-1] + length > len(values) or list(starts) != sorted(set(starts)):
            problems.append(f"bad starts {starts} for length {length}")
            continue
        windows = np.stack([norm[o : o + length] for o in starts])
        if not _connected(windows, r):
            problems.append(f"occurrences {starts} (length {length}) are not one chain within r")
    for i, big in enumerate(motifs):
        for j, small in enumerate(motifs):
            if i != j and big[0] >= small[0] and _covered(big, small):
                problems.append(f"motif {j + 1} lies inside motif {i + 1}")
    return problems


def check_periodic_tme(report: str, values: np.ndarray, s: int, period: int, min_len: int) -> list[str]:
    """Every motif repeats exactly; the longest spans all but one period, one period apart."""
    try:
        motifs, quality, report_min = parse_report(report)
    except ValueError as exc:
        return [str(exc)]
    problems = _report_problems(motifs, quality, report_min, min_len)
    for length, starts in motifs:
        first = values[starts[0] : starts[0] + length]
        if starts[-1] + length > len(values) or any(
            not np.array_equal(values[o : o + length], first) for o in starts[1:]
        ):
            problems.append(f"occurrences {starts} (length {length}) are not equal windows")
    longest = (len(values) - period) // s * s
    if not motifs or motifs[0][0] != longest:
        problems.append(f"longest motif is not {longest} points long")
    elif not any(b - a == period for a, b in zip(motifs[0][1], motifs[0][1][1:])):
        problems.append(f"longest motif's starts {motifs[0][1]} are not one period apart")
    return problems


def check_strace_ingest(summary: str, series: np.ndarray, expected, parsed: int, skipped: int) -> list[str]:
    """The series is the written id sequence; the counts are the generator's."""
    match = _INGEST.match(summary.strip())
    if match is None:
        return [f"bad ingest summary {summary.strip()!r}"]
    problems = []
    got = tuple(int(x) for x in match.groups())
    want = (parsed, skipped, 0, len(expected))
    if got != want:
        problems.append(f"ingest counts {got}, want {want}")
    expected = np.asarray(expected, dtype=np.float64)
    if series.shape != expected.shape:
        problems.append(f"series has {len(series)} values, the calls written were {len(expected)}")
    elif not np.array_equal(series, expected):
        where = int(np.flatnonzero(series != expected)[0])
        problems.append(f"series differs from the calls written at position {where}")
    return problems
