"""The benchmark's own tests: each check passes the program's real output and
rejects a deliberately corrupted one.

    python3 -m pytest perfbench/tests -q

Run from the repository root, so that motiftrack is imported from src/.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from loop import operation  # noqa: E402

SEED = 7


def _run(name: str, tmp_path: Path):
    inputs = workloads.GENERATORS[name](SEED, tmp_path)
    stdout, series = operation(inputs.argv, inputs.load)
    return inputs, stdout, series


def _edit_starts(report: str, rank: int, edit) -> str:
    """Apply edit to the starts of motif `rank`, keeping its count and the
    quality line consistent, so that only the content of the report is wrong."""
    lines = report.splitlines()
    match = re.match(r"^(motif \d+: length=(\d+) count=)\d+( starts=)([\d,]+)( .*)$", lines[rank - 1])
    starts = edit([int(x) for x in match.group(4).split(",")])
    lines[rank - 1] = (match.group(1) + str(len(starts)) + match.group(3)
                       + ",".join(str(x) for x in starts) + match.group(5))
    motifs = [re.search(r"length=(\d+) count=(\d+)", line).groups() for line in lines[:-1]]
    quality = sum(int(length) * int(count) for length, count in motifs)
    lines[-1] = re.sub(r"=\d+$", f"={quality}", lines[-1])
    edited = "\n".join(lines) + "\n"
    assert edited != report
    return edited


def _drop_first(starts):
    return starts[1:]


def _shift_last(starts):
    return starts[:-1] + [starts[-1] + 3]


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    inputs, report, _ = _run("syscall-exact", tmp_path_factory.mktemp("exact"))
    return inputs, report, checks.read_series(inputs.meta["path"])


def _check_exact(report, values, meta):
    return checks.check_syscall_exact(report, values, meta["s"], meta["min_len"], meta["planted"])


def test_exact_accepts_program_output(exact):
    inputs, report, values = exact
    assert _check_exact(report, values, inputs.meta) == []


@pytest.mark.parametrize("edit", [_drop_first, _shift_last])
def test_exact_rejects_corrupted_starts(exact, edit):
    inputs, report, values = exact
    assert _check_exact(_edit_starts(report, 1, edit), values, inputs.meta)


def test_exact_rejects_missing_planted_copy(exact):
    inputs, _, values = exact
    # an empty report with a consistent quality line: only the content is wrong
    problems = _check_exact("quality(min_len=40)=0\n", values, inputs.meta)
    assert sum("planted" in p for p in problems) == len(inputs.meta["planted"])


def test_exact_repeats_match_a_hand_example():
    values = np.array([1, 2, 3, 4, 9, 1, 2, 3, 4, 8, 1, 2, 3, 4, 7, 2, 3], dtype=float)
    # (1, 2) and (3, 4) lie inside the length-4 repeat; (2, 3) at 15 does not
    assert checks.exact_repeats(values, 2) == [(4, (0, 5, 10)), (2, (1, 6, 11, 15))]


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    inputs, report, _ = _run("walk-threshold", tmp_path_factory.mktemp("walk"))
    return inputs, report, checks.read_series(inputs.meta["path"])


def _check_walk(report, values, meta):
    return checks.check_walk_threshold(report, values, workloads.WALK_R, meta["min_len"])


def test_walk_accepts_program_output(walk):
    inputs, report, values = walk
    assert _check_walk(report, values, inputs.meta) == []


def test_walk_rejects_corrupted_starts(walk):
    inputs, report, values = walk
    # threshold mode has no motif-level reference: a dropped occurrence shows
    # only where it leaves a motif with one occurrence (motif 3 has two)
    assert _check_walk(_edit_starts(report, 3, _drop_first), values, inputs.meta)
    shifted = _edit_starts(report, 1, lambda s: s[:-1] + [s[-1] + 137])
    assert _check_walk(shifted, values, inputs.meta)


def test_walk_rejects_motif_inside_another(walk):
    inputs, report, values = walk
    lines = report.splitlines()
    first = lines[0]
    copy = re.sub(r"^motif 1:", f"motif {len(lines)}:", first)
    quality = int(lines[-1].split("=")[-1])
    length, count = (int(x) for x in re.findall(r"length=(\d+) count=(\d+)", first)[0])
    doubled = lines[:-1] + [copy, f"quality(min_len={inputs.meta['min_len']})={quality + length * count}"]
    assert any("inside" in p for p in _check_walk("\n".join(doubled) + "\n", values, inputs.meta))


@pytest.fixture(scope="module")
def periodic(tmp_path_factory):
    inputs, report, _ = _run("periodic-tme", tmp_path_factory.mktemp("periodic"))
    return inputs, report, checks.read_series(inputs.meta["path"])


def _check_periodic(report, values, meta):
    return checks.check_periodic_tme(report, values, meta["s"], meta["period"], meta["min_len"])


def test_periodic_accepts_program_output(periodic):
    inputs, report, values = periodic
    assert _check_periodic(report, values, inputs.meta) == []


def test_periodic_rejects_corrupted_starts(periodic):
    inputs, report, values = periodic
    # with TME on, which occurrences survive is the engine's own business, so
    # a dropped occurrence shows only on the longest motif
    assert _check_periodic(_edit_starts(report, 1, _drop_first), values, inputs.meta)
    for rank in (1, 3):
        assert _check_periodic(_edit_starts(report, rank, _shift_last), values, inputs.meta)


@pytest.fixture(scope="module")
def strace(tmp_path_factory):
    return _run("strace-ingest", tmp_path_factory.mktemp("strace"))


def _check_strace(summary, series, meta):
    return checks.check_strace_ingest(summary, series, meta["expected"], meta["parsed"], meta["skipped"])


def test_strace_accepts_program_output(strace):
    inputs, summary, series = strace
    assert _check_strace(summary, series, inputs.meta) == []


def test_strace_rejects_changed_id(strace):
    inputs, summary, series = strace
    changed = series.copy()
    changed[len(changed) // 2] += 1
    assert _check_strace(summary, changed, inputs.meta)


def test_strace_rejects_dropped_or_shifted_call(strace):
    inputs, summary, series = strace
    assert _check_strace(summary, series[1:], inputs.meta)
    assert _check_strace(summary, np.roll(series, 1), inputs.meta)


def test_strace_rejects_wrong_counts(strace):
    inputs, summary, series = strace
    wrong = summary.replace("skipped=", "skipped=1")
    assert _check_strace(wrong, series, inputs.meta)
