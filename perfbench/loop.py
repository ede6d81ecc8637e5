"""The timed loop of one workload, run in a process of its own.

    python3 perfbench/loop.py WORKDIR

reads WORKDIR/spec.json, which run.py writes, and writes WORKDIR/result.json
plus the first operation's outputs for the checks.  One thread repeats the
operation in a closed loop for the given number of seconds, with the
reference kernel run before the first operation and after every operation.
With tracing on, plain and traced operations alternate, so both are timed
in the same process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import refkernel
from spans import COUNTS, STAGES, Tracer

import motiftrack.cli
import motiftrack.series

MAX_ERRORS = 5


def operation(argv: list[str], load: str | None):
    """One CLI call in-process, then the read-back of its series file if any."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        motiftrack.cli.main(argv, prog_name="motiftrack", standalone_mode=False)
    series = motiftrack.series.load_series_file(load) if load else None
    return out.getvalue(), None if series is None else np.asarray(series.values)


def _digest(stdout: str, series) -> str:
    h = hashlib.sha256(stdout.encode())
    if series is not None:
        h.update(series.tobytes())
    return h.hexdigest()


def main(work: Path) -> None:
    spec = json.loads((work / "spec.json").read_text())

    def run_op():
        return operation(spec["argv"], spec["load"])

    stdout, series = run_op()
    (work / "first_stdout.txt").write_text(stdout, encoding="utf-8")
    if series is not None:
        np.save(work / "first_series.npy", series)
    first = _digest(stdout, series)

    tracer = Tracer(spec["r"]) if spec["trace"] else None
    kinds = ["plain", "traced"] if tracer else ["plain"]
    refs = [refkernel.run()]
    ops = []  # (kind, wall seconds, self seconds by metric or None)
    counts: list[dict] = []
    within: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < spec["seconds"]:
        for kind in kinds:
            gc.collect()
            attempted += 1
            try:
                if kind == "traced":
                    (stdout, series), spent, self_s = tracer.run(run_op)
                    counts.append(dict(tracer.counts))
                    within.append(tracer.pairs_within)
                else:
                    start = time.perf_counter()
                    stdout, series = run_op()
                    spent, self_s = time.perf_counter() - start, None
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{type(exc).__name__}: {exc}")
                refs.append(refkernel.run())
                continue
            refs.append(refkernel.run())
            if _digest(stdout, series) != first:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append("output differs from the first operation's")
                continue
            ops.append((kind, spent, (refs[-2] + refs[-1]) / 2, self_s))

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "ref_s": refs,
        "ops": [{"kind": k, "seconds": s, "ref": r} for k, s, r, _ in ops],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    traced = [(s, r, self_s) for k, s, r, self_s in ops if k == "traced"]
    if traced:
        layers = {}
        for metric in list(STAGES) + ["cli.self_ref"]:
            if metric in tracer.absent:
                layers[metric] = None
            else:
                layers[metric] = statistics.median(self_s.get(metric, 0.0) / r for _, r, self_s in traced)
        result["layers"] = layers
        result["counts"] = {c: None if c in tracer.absent else counts[0].get(c, 0) for c in COUNTS}
        result["counts_repeat"] = all(c == counts[0] for c in counts) and len(set(within)) == 1
        result["pairs_within"] = within[0]
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
