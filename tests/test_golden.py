import json

import numpy as np

from motiftrack import MtaConfig, SaxConfig, TimeSeries, format_motif_report, run_mta

from conftest import DATA_DIR

GOLDEN = DATA_DIR / "golden" / "cases.jsonl"


def golden_cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_corpus_covers_every_shape_threshold_and_tme():
    cases = golden_cases()
    combos = {(c["name"].split("-", 1)[1], c["r"], c["tme"]) for c in cases}
    assert len(combos) == 5 * 3 * 2
    assert {c["s"] for c in cases} == set(range(1, 8))
    assert {c["a"] for c in cases} == set(range(2, 12))


def test_run_mta_reproduces_every_report():
    mismatched = []
    for case in golden_cases():
        series = TimeSeries(np.array(case["values"], dtype=np.float64))
        config = MtaConfig(SaxConfig(case["s"], case["a"]), case["r"], case["tme"])
        if format_motif_report(run_mta(series, config), 0) != case["report"]:
            mismatched.append(case["name"])
    assert mismatched == []
