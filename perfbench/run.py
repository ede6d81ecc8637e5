"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S     # every workload in turn

Run from the root of a motiftrack checkout; the program is imported from its
src/ directory.  The inputs are generated from the seed into a scratch
directory under the checkout, set-up time is taken over several fresh
interpreters, the timed loop runs in a process of its own (loop.py), and the
first operation's outputs are checked here, apart from the program.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import COUNTS, STAGES
from workloads import GENERATORS

SETUP_STARTS = 3
LOOP_TIMEOUT_S = 170
_IMPORT_CLI = (
    "import time, motiftrack.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def measure_setup(env: dict, importtime: bool) -> tuple[float, float | None]:
    """Median seconds from a fresh interpreter's start to `motiftrack.cli` imported.

    With importtime, also the median cumulative import time of motiftrack.sax.
    """
    setup, sax = [], []
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(SETUP_STARTS):
        begin = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _IMPORT_CLI],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        setup.append(float(proc.stdout) - begin)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "motiftrack.sax":
                sax.append(int(fields[1]) / 1e6)
    return statistics.median(setup), statistics.median(sax) if sax else None


def check(workload: str, inputs, work: Path) -> list[str]:
    meta = inputs.meta
    stdout = (work / "first_stdout.txt").read_text(encoding="utf-8")
    if workload == "strace-ingest":
        series = np.load(work / "first_series.npy")
        return checks.check_strace_ingest(stdout, series, meta["expected"], meta["parsed"], meta["skipped"])
    values = checks.read_series(meta["path"])
    if workload == "syscall-exact":
        return checks.check_syscall_exact(stdout, values, meta["s"], meta["min_len"], meta["planted"])
    if workload == "walk-threshold":
        return checks.check_walk_threshold(stdout, values, inputs.r, meta["min_len"])
    return checks.check_periodic_tme(stdout, values, meta["s"], meta["period"], meta["min_len"])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = GENERATORS[workload](seed, work)
        setup_s, sax_import_s = measure_setup(env, importtime=trace)
        spec = {"argv": inputs.argv, "load": inputs.load, "r": inputs.r,
                "seconds": seconds, "trace": trace}
        (work / "spec.json").write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "loop.py"), str(work)],
            env=env, timeout=LOOP_TIMEOUT_S, check=True,
        )
        result = json.loads((work / "result.json").read_text())
        problems = check(workload, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = result["attempted"] if problems else result["failed"]
    for line in problems + result["errors"]:
        print(f"FAIL {workload}: {line}")
    plain = [op for op in result["ops"] if op["kind"] == "plain"]
    if not plain:
        raise SystemExit(f"{workload}: no operation succeeded")
    op_ref = statistics.median(op["seconds"] / op["ref"] for op in plain)
    op_s = statistics.median(op["seconds"] for op in plain)
    ref_s = statistics.median(result["ref_s"])
    print(f"workload={workload} seed={seed} ops={len(plain)} op_s={op_s:.4f} "
          f"ref_s={ref_s:.4f} op_ref={op_ref:.4f} setup_s={setup_s:.4f}")
    if trace:
        traced = [op for op in result["ops"] if op["kind"] == "traced"]
        layers = result.get("layers", {})
        counts = result.get("counts", {})
        pairs = counts.get("tracker.pairs_compared")
        metrics = {"sax.import_s": _metric(sax_import_s, "s")}
        metrics.update({m: _metric(layers.get(m), "ref") for m in list(STAGES) + ["cli.self_ref"]})
        metrics.update({c: _metric(counts.get(c), "count") for c in COUNTS})
        metrics["tracker.confirm_yield"] = _metric(
            None if pairs is None else (result["pairs_within"] / pairs if pairs else 0.0), "ratio")
        metrics["trace.op_ref"] = _metric(
            statistics.median(op["seconds"] / op["ref"] for op in traced) if traced else None, "ref")
        metrics["trace.untraced_op_ref"] = _metric(op_ref, "ref")
        if not result.get("counts_repeat", False):
            print(f"NOTE {workload}: traced counts differ between operations")
    else:
        metrics = {
            "op_ref": _metric(op_ref, "ref"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024, "MB"),
        }
    return {"correct": not problems, "attempted": result["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "motiftrack" / "cli.py").is_file():
        print(f"error: no motiftrack source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in GENERATORS:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
            print(json.dumps({"workload": name, **result}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
