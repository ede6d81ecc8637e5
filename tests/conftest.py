import math
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import motiftrack.tracker as tracker_module
from motiftrack import MtaConfig, TimeSeries, run_mta

DATA_DIR = Path(__file__).parent / "data"

# one fixed 40-point pattern; the second planted pair uses it shifted by +10
# so the two never collide on raw values
A40 = (5, 1, 8, 3, 9, 2, 7, 4, 6, 1, 5, 9, 3, 8, 2, 6, 4, 7, 1, 9,
       5, 2, 8, 6, 3, 7, 9, 4, 1, 6, 2, 5, 7, 3, 8, 4, 9, 6, 1, 7)


def planted_fixture_values() -> np.ndarray:
    """1,000 points of strictly increasing (never repeating) filler with three
    planted motifs: a constant 60-point block at 100/300 and two distinct
    40-point patterns at 500/620 and 750/880.

    The 60-point block is constant on purpose: its truncated length-40
    fragments at symbol length 40 then collapse into a single repeat class
    instead of ~21 mutually shifted ones.
    """
    values = np.array([2000.0 + i for i in range(1000)])
    values[100:160] = 77.0
    values[300:360] = 77.0
    pattern = np.array(A40, dtype=float)
    values[500:540] = pattern
    values[620:660] = pattern
    values[750:790] = pattern + 10.0
    values[880:920] = pattern + 10.0
    return values


# what the planted fixture must yield at symbol lengths 10 and 20
PLANTED_SIGNATURE = [
    (60, (100, 300)),
    (40, (500, 620)),
    (40, (750, 880)),
]

# at symbol length 40 the constant block is seen as one 40-point class with
# every start inside either run
PLANTED_SIGNATURE_S40 = [
    (40, tuple(range(100, 121)) + tuple(range(300, 321))),
    (40, (500, 620)),
    (40, (750, 880)),
]


@pytest.fixture(scope="session")
def planted_series() -> TimeSeries:
    return TimeSeries(planted_fixture_values())


@pytest.fixture(scope="session")
def planted_series_file(tmp_path_factory) -> Path:
    from motiftrack import dump_series_text

    path = tmp_path_factory.mktemp("series") / "planted.txt"
    path.write_text(dump_series_text(planted_fixture_values()), encoding="utf-8")
    return path


def two_block_values() -> np.ndarray:
    """Two identical 20-point blocks of distinct values around 20 unique noise points."""
    block = [3, 14, 7, 1, 19, 8, 2, 17, 5, 11, 16, 4, 13, 9, 18, 6, 12, 15, 10, 20]
    noise = list(range(21, 41))
    return np.array(block + noise + block, dtype=float)


@pytest.fixture
def two_block_series() -> TimeSeries:
    return TimeSeries(two_block_values())


def motif_signature(motifs):
    """Text-free view of a motif set: (point_length, occurrences) in order."""
    return [(mo.point_length, mo.occurrences) for mo in motifs]


# Table 1 of the paper: the eight motifs of the reference capture, (point length, starts)
TABLE1_MOTIFS = [
    (280, (386, 717)),
    (80, (0, 227)),
    (70, (8, 160, 235)),
    (50, (198, 262)),
    (50, (668, 950)),
    (40, (39, 191, 266, 324)),
    (40, (619, 668, 950)),
    (40, (77, 120)),
]


def phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def phi_inv(p: float) -> float:
    """Independent standard-normal quantile via bisection on math.erf."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


CORPUS_SEED = 20260808
CORPUS_COMBOS = ((2, 4), (2, 10), (4, 4), (4, 10))


def corpus_instances(count: int = 200, seed: int = CORPUS_SEED):
    """Randomized small instances: ints from at most 8 distinct values,
    m <= 300, half of them with an extra planted block copy."""
    rng = random.Random(seed)
    for i in range(count):
        s, a = CORPUS_COMBOS[i % len(CORPUS_COMBOS)]
        m = rng.randint(30, 300)
        distinct = rng.randint(2, 8)
        vals = [float(rng.randrange(distinct)) for _ in range(m)]
        if i % 2:
            length = rng.randint(s, max(s, m // 4))
            src = rng.randrange(0, m - length + 1)
            dst = rng.randrange(0, m - length + 1)
            vals[dst : dst + length] = list(vals[src : src + length])
        yield i, s, a, TimeSeries(np.array(vals))


def window_ids(values, span: int) -> np.ndarray:
    """Ids of every span-point window of values, numbered by their bytes."""
    values = np.asarray(values, dtype=float)
    seen: dict = {}
    return np.array(
        [seen.setdefault(values[i : i + span].tobytes(), len(seen)) for i in range(values.size - span + 1)],
        dtype=np.int64,
    )


def groups_calls(series: TimeSeries, config: MtaConfig) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The (span, starts, words, raw) of each groups call one run_mta run makes, a call per generation."""
    calls, inner = [], tracker_module.groups

    def recording(values, span, starts, words, raw, threshold):
        calls.append((span, starts, words, raw))
        return inner(values, span, starts, words, raw, threshold)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracker_module, "groups", recording)
        run_mta(series, config)
    return calls


def group_lists(found) -> list[list[int]]:
    """The groups of a (members, bounds) pair, as groups returns them, as lists."""
    members, bounds = found
    flat = members.tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def group_arrays(lists) -> tuple[np.ndarray, np.ndarray]:
    """The (members, bounds) pair of groups given as lists."""
    bounds = np.cumsum([0] + [len(group) for group in lists])
    return np.array([x for group in lists for x in group], dtype=np.intp), bounds


def numpy_frames_per_generation(series: TimeSeries, config: MtaConfig) -> tuple[float, int]:
    """The Python-level numpy frames one run_mta run enters per generation, and its generations.

    Frames are the calls of functions written in numpy's Python source,
    counted with sys.setprofile; numpy's C functions, ufuncs and array
    methods enter none.  The run's one-time set-up counts too.  A generation
    is one groups call, the confirmation each generation that matches a
    word makes.
    """
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    confirm = tracker_module.groups.__code__
    frames = generations = 0

    def profile(frame, event, arg):
        nonlocal frames, generations
        if event == "call":
            if frame.f_code is confirm:
                generations += 1
            elif frame.f_code.co_filename.startswith(numpy_dir):
                frames += 1

    sys.setprofile(profile)
    try:
        run_mta(series, config)
    finally:
        sys.setprofile(None)
    return frames / max(generations, 1), generations
