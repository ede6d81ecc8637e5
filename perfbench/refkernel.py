"""The fixed reference kernel that every operation time is divided by.

A Python loop of small numpy calls on short slices, with a dict update and a
string slice per step: the same mix of work as the engine's confirmation
loop.  Timed right beside each operation, it tracks how fast this machine
runs that mix at that moment, so `op / kernel` holds steady where raw
seconds do not.

Changing this file changes the unit every `ref` figure is measured in.
Change it only in a benchmark change, never in one that claims a gain.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 30_000
_VALUES = np.random.default_rng(19_700_101).standard_normal(4096)
_TEXT = "abcdefghij" * 410


def run() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    begin = time.perf_counter()
    groups: dict[str, int] = {}
    accepted = 0
    for i in range(ITERATIONS):
        x = (i * 37) % 4000
        y = (i * 91) % 4000
        d = float(np.sqrt(np.sum((np.asarray(_VALUES[x : x + 40]) - _VALUES[y : y + 40]) ** 2)))
        key = _TEXT[x : x + 40 : 10]
        groups[key] = groups.get(key, 0) + 1
        if d <= 8.0:
            accepted += 1
    elapsed = time.perf_counter() - begin
    if accepted == 0 or not groups:
        raise RuntimeError("reference kernel did no work")
    return elapsed
