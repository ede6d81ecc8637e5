import random
from pathlib import Path

import numpy as np
import pytest

from motiftrack import TimeSeries
from motiftrack.tracker import CandidateMatrix, build_candidate_matrix

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
    return TimeSeries(planted_fixture_values(), label="planted-60-40-40")


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


def letters_of(symbols: str) -> np.ndarray:
    """Letter index of each symbol, as run_mta reads a symbol matrix."""
    return np.frombuffer(symbols.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("a")


def window_ids(values, span: int) -> np.ndarray:
    """Ids of every span-point window of values, numbered by their bytes."""
    values = np.asarray(values, dtype=float)
    seen: dict = {}
    return np.array(
        [seen.setdefault(values[i : i + span].tobytes(), len(seen)) for i in range(values.size - span + 1)],
        dtype=np.int64,
    )


def candidates_at(symbols: str, s: int, generation: int, tme: bool = False, values=None):
    """Generation g's candidate matrix of a symbol string, built one generation at a time.

    Raw ids number the s-point windows of the series values by their bytes,
    as run_mta does.  Without values the letters stand in for them, which
    only serves where nothing is confirmed at r > 0: there they would join
    windows of equal text.
    """
    letters, matrix = letters_of(symbols), None
    blocks = letters if values is None else window_ids(values, s)
    for _ in range(generation):
        matrix = build_candidate_matrix(letters, blocks, matrix, s, tme)
    return matrix


def hand_matrix(values, span: int, words, ids=None):
    """A one-generation matrix of span points over hand-picked candidate starts.

    Every start shares one word unless ids gives each start's word.  Raw
    ids number the windows by their bytes, as run_mta does.
    """
    values = np.asarray(values, dtype=float)
    n = values.size - span + 1
    ids = np.zeros(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    return CandidateMatrix(ids, window_ids(values, span), np.asarray(words, dtype=np.intp), 1, span)


def word_counts(matrix, words) -> np.ndarray:
    """Counts as match_trackers gives them, kept only for the given word ids: the rest read 0."""
    counts = np.bincount(matrix.ids[matrix.words], minlength=int(matrix.ids.max(initial=-1)) + 1)
    only = np.zeros_like(counts)
    only[words] = counts[words]
    return only


def group_lists(found) -> list[list[int]]:
    """The groups of a (members, bounds) pair, as groups returns them, as lists."""
    members, bounds = found
    flat = members.tolist()
    return [flat[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def group_arrays(lists) -> tuple[np.ndarray, np.ndarray]:
    """The (members, bounds) pair of groups given as lists."""
    bounds = np.cumsum([0] + [len(group) for group in lists])
    return np.array([x for group in lists for x in group], dtype=np.intp), bounds
