"""Write the golden corpus: seeded small series and the engine's report on each.

Run from the repository root, only when a change to the reports is intended:

    PYTHONPATH=src python tests/data/golden/make_cases.py

Each line of cases.jsonl is one case: its name, s, a, r, TME switch, the
series values and the full `discover` report at --min-length 0.  Values are
stored, not regenerated, so the corpus does not depend on the generator.
The cases cycle through five shapes (random, constant, period, walk and
wide-range), r in {0, 0.5, 1.0} and TME off and on, with s from 1 to 7 and
a from 2 to 11 drawn per case.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from motiftrack import MtaConfig, SaxConfig, TimeSeries, format_motif_report, run_mta

OUT = Path(__file__).with_name("cases.jsonl")
SEED = 20261018
COUNT = 150
SHAPES = ("random", "constant", "period", "walk", "wide")
THRESHOLDS = (0.0, 0.5, 1.0)
# short reprs keep the file small; 5e-324 and 1e-200 beside 1e6 differ far
# below the spread, and 1e150 and -1e300 overflow a variance taken directly
WIDE_PALETTE = (0, 5e-324, 1e-200, 1, 3, 1e6, 1e150, -1e300)


def plant_copy(rng: random.Random, vals: list, s: int) -> None:
    m = len(vals)
    length = rng.randint(s, max(s, m // 4))
    src = rng.randrange(0, m - length + 1)
    dst = rng.randrange(0, m - length + 1)
    vals[dst : dst + length] = vals[src : src + length]


def make_values(rng: random.Random, shape: str, m: int, s: int) -> list:
    if shape == "random":
        distinct = rng.randint(2, 8)
        vals = [rng.randrange(distinct) for _ in range(m)]
        plant_copy(rng, vals, s)
    elif shape == "constant":
        vals = [rng.choice((0, 7, 0.1, -2.5))] * m
    elif shape == "period":
        period = rng.randint(2, 40)
        pattern = [rng.randrange(10) for _ in range(period)]
        vals = [pattern[i % period] for i in range(m)]
        for _ in range(rng.randint(0, 3)):
            vals[rng.randrange(m)] = rng.randrange(10)
    elif shape == "walk":
        level, vals = 0, []
        for _ in range(m):
            level += rng.randint(-20, 20)
            vals.append(level / 10)
    else:
        pool = rng.sample(WIDE_PALETTE, rng.randint(2, 5))
        vals = [rng.choice(pool) for _ in range(m)]
        plant_copy(rng, vals, s)
    return vals


def cases():
    rng = random.Random(SEED)
    for i in range(COUNT):
        shape = SHAPES[i % 5]
        r = THRESHOLDS[(i // 5) % 3]
        tme = bool((i // 15) % 2)
        s = rng.randint(1, 7)
        a = rng.randint(2, 11)
        m = rng.randint(max(s, 12), 160)
        yield f"{i:03d}-{shape}", s, a, r, tme, make_values(rng, shape, m, s)


def main() -> None:
    lines = []
    for name, s, a, r, tme, vals in cases():
        motifs = run_mta(TimeSeries(np.array(vals, dtype=np.float64)), MtaConfig(SaxConfig(s, a), r, tme))
        case = {"name": name, "s": s, "a": a, "r": r, "tme": tme, "values": vals}
        case["report"] = format_motif_report(motifs, 0)
        lines.append(json.dumps(case, separators=(",", ":")))
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
