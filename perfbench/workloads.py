"""Seeded input generators and the command line each workload runs.

Every generator takes the seed and a directory, writes the files the program
reads into that directory, and returns what the checks need to know about
them.  The same seed always gives byte-identical files.  The program sees
only the files; nothing here imports motiftrack.

The engine's cost depends on the make-up of its input far more than on its
arrangement: with fresh random content per seed, the pairs compared moved by
9% between seeds on syscall-exact and by 80% on a plain random walk.  So the
content of the three engine workloads is fixed, and the seed chooses its
arrangement; strace-ingest, whose cost follows its line count, is random
throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Names and ids from the Linux 2.4 i386 table that motiftrack bundles.  The
# benchmark writes its own copy as a syscall map, so a change of the bundled
# default table cannot change the inputs.
SYSCALLS = {
    "read": 3, "write": 4, "open": 5, "close": 6, "brk": 45, "mmap": 90,
    "munmap": 91, "fstat": 108, "stat": 106, "lstat": 107, "ioctl": 54,
    "fcntl": 55, "getpid": 20, "getuid": 24, "geteuid": 49, "access": 33,
    "lseek": 19, "select": 82, "poll": 168, "gettimeofday": 78, "time": 13,
    "dup2": 63, "pipe": 42, "fork": 2, "waitpid": 7, "execve": 11, "kill": 37,
    "rt_sigaction": 174, "rt_sigprocmask": 175, "socketcall": 102,
    "getdents": 141, "chdir": 12, "uname": 122, "mprotect": 125,
    "nanosleep": 162, "wait4": 114, "getcwd": 183, "fstat64": 197,
    "stat64": 195, "mmap2": 192,
}
NAMES = tuple(SYSCALLS)


@dataclass
class Inputs:
    """What a generator wrote: the command's arguments and the facts checks need.

    load names the series file the operation reads back after the command,
    and r the confirmation threshold the command was given.
    """

    argv: list[str]
    meta: dict = field(default_factory=dict)
    load: str | None = None
    r: float = 0.0


def _write_series(path: Path, values) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")


# --- syscall-exact --------------------------------------------------------

EXACT_S = 10
EXACT_MIN_LEN = 40
# Three process behaviours, none a multiple of s long, each planted three
# times.  Every planted copy is followed by its own random calls and then by
# the same idle loop, so every window that crosses into the next copy reads
# the same calls whatever the order.
BEHAVIOUR_LENGTHS = (47, 53, 61)
BEHAVIOUR_REPEATS = 3
IDLE_LOOP = ("select", "gettimeofday", "time", "getpid", "poll", "read", "fstat", "close", "brk")
FILLER_LENGTHS = (9, 21, 14, 5, 17, 26, 12, 8, 15)
EXACT_LENGTH = (len(IDLE_LOOP) * (1 + len(FILLER_LENGTHS)) + sum(FILLER_LENGTHS)
                + BEHAVIOUR_REPEATS * sum(BEHAVIOUR_LENGTHS))


def _calls(rng: random.Random, n: int) -> list[int]:
    return [SYSCALLS[rng.choice(NAMES)] for _ in range(n)]


def syscall_exact_series(seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Returns the series and every planted behaviour copy as (start, length)."""
    rng = random.Random("motiftrack-behaviours")
    blocks = [_calls(rng, n) for n in BEHAVIOUR_LENGTHS]
    kinds = [b for b in range(len(blocks)) for _ in range(BEHAVIOUR_REPEATS)]
    idle = [SYSCALLS[n] for n in IDLE_LOOP]
    units = [(b, _calls(rng, n) + idle) for b, n in zip(kinds, FILLER_LENGTHS)]
    random.Random(seed).shuffle(units)
    series = list(idle)
    planted = []
    for b, tail in units:
        planted.append((len(series), BEHAVIOUR_LENGTHS[b]))
        series.extend(blocks[b])
        series.extend(tail)
    return series, planted


def gen_syscall_exact(seed: int, directory: Path) -> Inputs:
    series, planted = syscall_exact_series(seed)
    path = directory / "syscall-exact.txt"
    _write_series(path, series)
    argv = ["discover", str(path), "-s", str(EXACT_S), "-a", "10", "-r", "0",
            "--no-tme", "--min-length", str(EXACT_MIN_LEN)]
    meta = {"path": str(path), "s": EXACT_S, "min_len": EXACT_MIN_LEN, "planted": planted}
    return Inputs(argv, meta)


# --- walk-threshold -------------------------------------------------------

WALK_BLOCKS = 8
WALK_BLOCK_LENGTH = 125
WALK_S = 10
WALK_R = 0.5
WALK_MIN_LEN = 10


def walk_series(seed: int) -> list[float]:
    """Eight fixed Gaussian random walks of 125 steps, in the seed's order.

    Each walk starts from a pause of s - 1 zeros, and one more pause ends
    the series, so every window of s points lies within one walk and its
    pauses, whatever the order.
    """
    rng = np.random.default_rng(20100201)
    blocks = [np.cumsum(rng.standard_normal(WALK_BLOCK_LENGTH)) for _ in range(WALK_BLOCKS)]
    random.Random(seed).shuffle(blocks)
    pause = np.zeros(WALK_S - 1)
    return [float(v) for v in np.concatenate([x for b in blocks for x in (pause, b)] + [pause])]


def gen_walk_threshold(seed: int, directory: Path) -> Inputs:
    path = directory / "walk-threshold.txt"
    _write_series(path, walk_series(seed))
    argv = ["discover", str(path), "-s", str(WALK_S), "-a", "10", "-r", str(WALK_R),
            "--no-tme", "--min-length", str(WALK_MIN_LEN)]
    return Inputs(argv, {"path": str(path), "min_len": WALK_MIN_LEN}, r=WALK_R)


# --- periodic-tme ---------------------------------------------------------

PERIODIC_LENGTH = 700
PERIOD = 37
PERIODIC_S = 10
PERIODIC_MIN_LEN = 40


def periodic_series(seed: int) -> list[int]:
    """A fixed period of 37 integers with no two rotations equal, from the seed's phase."""
    rng = random.Random("motiftrack-period")
    while True:
        period = [rng.randrange(100) for _ in range(PERIOD)]
        if len({tuple(period[k:] + period[:k]) for k in range(PERIOD)}) == PERIOD:
            break
    phase = random.Random(seed).randrange(PERIOD)
    return [period[(i + phase) % PERIOD] for i in range(PERIODIC_LENGTH)]


def gen_periodic_tme(seed: int, directory: Path) -> Inputs:
    path = directory / "periodic-tme.txt"
    _write_series(path, periodic_series(seed))
    argv = ["discover", str(path), "-s", str(PERIODIC_S), "-a", "10", "-r", "0",
            "--tme", "--min-length", str(PERIODIC_MIN_LEN)]
    meta = {"path": str(path), "s": PERIODIC_S, "period": PERIOD, "min_len": PERIODIC_MIN_LEN}
    return Inputs(argv, meta)


# --- strace-ingest --------------------------------------------------------

STRACE_PIDS = 8
LINES_PER_PID = 50_000
SIGNAL_SHARE = 0.03
UNFINISHED_SHARE = 0.03

_ARGS = (
    '3, "\\177ELF\\1\\1\\1\\0\\0\\0\\0\\0\\0\\0\\0\\0\\3\\0\\3\\0\\1\\0\\0\\0"..., {n}',
    '"/usr/lib/lib{n}.so.6", O_RDONLY',
    "{n}, 0x{h:x}, 4096",
    "NULL, {n}, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0",
    "{n}, {{st_mode=S_IFREG|0644, st_size={h}, ...}}",
    "",
)


def _call_text(rng: random.Random, name: str) -> str:
    return f"{name}(" + rng.choice(_ARGS).format(n=rng.randrange(1, 1000), h=rng.getrandbits(24))


def strace_pid_file(rng: random.Random, pid: int, lines: int) -> tuple[list[str], list[int], int]:
    """One per-PID trace in `strace -ff` form.  Returns (lines, call ids, skipped)."""
    out: list[str] = []
    ids: list[int] = []
    skipped = 0
    while len(out) < lines - 1:
        roll = rng.random()
        name = rng.choice(NAMES)
        if roll < SIGNAL_SHARE:
            out.append(f"--- SIGCHLD {{si_signo=SIGCHLD, si_code=CLD_EXITED, si_pid={pid + 1}}} ---")
            skipped += 1
        elif roll < SIGNAL_SHARE + UNFINISHED_SHARE and len(out) < lines - 2:
            out.append(_call_text(rng, name) + " <unfinished ...>")
            out.append(f"<... {name} resumed>) = {rng.randrange(64)}")
            ids.append(SYSCALLS[name])
            skipped += 1
        else:
            out.append(f"{_call_text(rng, name)}) = {rng.randrange(64)}")
            ids.append(SYSCALLS[name])
    out.append("+++ exited with 0 +++")
    return out, ids, skipped + 1


def gen_strace_ingest(seed: int, directory: Path) -> Inputs:
    rng = random.Random(seed)
    # half with four digits and half with five, so the file names do not sort
    # in PID order
    half = STRACE_PIDS // 2
    pids = sorted(rng.sample(range(1000, 10000), half) + rng.sample(range(10000, 32768), half))
    prefix = directory / "trace"
    expected: list[int] = []
    skipped = 0
    # the lowest PID is the parent; the rest follow in ascending PID order
    for pid in pids:
        lines, ids, skips = strace_pid_file(random.Random(f"{seed}-{pid}"), pid, LINES_PER_PID)
        with open(f"{prefix}.{pid}", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        expected.extend(ids)
        skipped += skips
    map_path = directory / "syscalls.txt"
    map_path.write_text("".join(f"{n} {i}\n" for n, i in SYSCALLS.items()), encoding="utf-8")
    out = directory / "series.txt"
    argv = ["ingest", str(prefix), "--syscall-map", str(map_path), "-o", str(out)]
    meta = {"parsed": STRACE_PIDS * LINES_PER_PID, "skipped": skipped, "expected": expected}
    return Inputs(argv, meta, load=str(out))


GENERATORS = {
    "syscall-exact": gen_syscall_exact,
    "walk-threshold": gen_walk_threshold,
    "periodic-tme": gen_periodic_tme,
    "strace-ingest": gen_strace_ingest,
}
