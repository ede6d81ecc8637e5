"""Spans and counts around the calls into each module's public functions.

The tracer works from outside the program: while installed, it replaces
each traced function, in every motiftrack module that holds it, with a
wrapper that times the call and counts its work, and it puts the originals
back when removed.  A function's self time is its span minus the spans of
the traced calls made inside it.  Nothing in motiftrack knows about it.
"""

from __future__ import annotations

import importlib
import sys
import time

# per-layer metric -> the (module, function) spans whose self times it sums
STAGES = {
    "series.load_ref": [("series", "load_series_file")],
    "series.normalize_ref": [("series", "z_normalize")],
    "sax.symbolize_ref": [("sax", "build_symbol_matrix")],
    "tracker.candidates_ref": [("tracker", "build_candidate_matrix")],
    "tracker.match_ref": [("tracker", "match_trackers"), ("tracker", "eliminate_unmatched")],
    "tracker.confirm_ref": [("tracker", "confirm_motifs"), ("tracker", "eliminate_unconfirmed")],
    "tracker.extend_ref": [("tracker", "proliferate_and_mutate")],
    "tracker.streamline_ref": [("tracker", "streamline")],
    "tracker.report_ref": [("tracker", "format_motif_report")],
    "ingest.parse_ref": [("ingest", "parse_strace_file")],
    "ingest.encode_ref": [("ingest", "concatenate_pid_traces"), ("ingest", "encode_series")],
    "series.dump_ref": [("series", "dump_series_text")],
}

COUNTS = (
    "tracker.generations",
    "tracker.words",
    "tracker.trackers",
    "tracker.pairs_compared",
    "tracker.motifs_stored",
)


class Tracer:
    """Installs the wrappers for one operation at a time and keeps its figures."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self._stack: list[float] = []
        self.absent: set[str] = set()
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.pairs_within = 0
        self._wrappers: list[tuple[object, str, object, object]] = []
        for metric, spans in STAGES.items():
            for module, name in spans:
                self._plan(module, name, metric, self._span(metric, name), everywhere=True)
        # counted as tracker sees it: the name bound in tracker's namespace
        self._plan("tracker", "euclidean_distance", "tracker.pairs_compared", self._pair, everywhere=False)

    def _plan(self, module: str, name: str, metric: str, make, everywhere: bool) -> None:
        mod = importlib.import_module(f"motiftrack.{module}")
        original = getattr(mod, name, None)
        if original is None:
            self.absent.add(metric)
            return
        wrapper = make(original)
        if everywhere:
            homes = [m for key, m in sys.modules.items() if key.split(".")[0] == "motiftrack"]
        else:
            homes = [mod]
        for home in homes:
            if getattr(home, name, None) is original:
                self._wrappers.append((home, name, original, wrapper))

    def _span(self, metric: str, name: str):
        count, counted = {
            "build_candidate_matrix": (self._count_candidates, ("tracker.generations", "tracker.words")),
            "eliminate_unmatched": (self._count_trackers, ("tracker.trackers",)),
            "streamline": (self._count_pool, ("tracker.motifs_stored",)),
        }.get(name, (None, ()))

        def make(original):
            def wrapper(*args, **kwargs):
                begin = time.perf_counter()
                self._stack.append(0.0)
                try:
                    result = original(*args, **kwargs)
                finally:
                    children = self._stack.pop()
                    spent = time.perf_counter() - begin
                    self.self_s[metric] = self.self_s.get(metric, 0.0) + spent - children
                    self._stack[-1] += spent
                if count is not None:
                    try:
                        count(args, result)
                    except (AttributeError, TypeError, IndexError):
                        # the function's arguments or result changed shape
                        self.absent.update(counted)
                return result

            return wrapper

        return make

    def _pair(self, original):
        def wrapper(*args, **kwargs):
            distance = original(*args, **kwargs)
            self._add("tracker.pairs_compared", 1)
            if distance <= self.threshold:
                self.pairs_within += 1
            return distance

        return wrapper

    def _add(self, metric: str, n: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def _count_candidates(self, args, result) -> None:
        self._add("tracker.generations", 1)
        self._add("tracker.words", len(result.words))

    def _count_trackers(self, args, result) -> None:
        self._add("tracker.trackers", len(result))

    def _count_pool(self, args, result) -> None:
        self._add("tracker.motifs_stored", len(args[0]))

    def run(self, operation):
        """Run one traced operation; returns (result, wall seconds, self seconds by metric)."""
        self.self_s = {}
        self.counts = {}
        self.pairs_within = 0
        self._stack = [0.0]
        for home, name, _, wrapper in self._wrappers:
            setattr(home, name, wrapper)
        begin = time.perf_counter()
        try:
            result = operation()
        finally:
            spent = time.perf_counter() - begin
            for home, name, original, _ in self._wrappers:
                setattr(home, name, original)
        self.self_s["cli.self_ref"] = spent - self._stack.pop()
        return result, spent, dict(self.self_s)
