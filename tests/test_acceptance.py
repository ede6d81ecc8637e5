"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> (<name>): PASS`` line when its
assertions hold (visible with ``pytest -s`` or in captured output).  The
dataset-reproduction gate is conditional: without a local copy of the
reference capture it reports NOT-RUNNABLE and is skipped.
"""

import os
import random
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from motiftrack import (
    MemoryMotif,
    MotifSet,
    MtaConfig,
    SaxConfig,
    TimeSeries,
    brute_force_exact_motifs,
    build_symbol_matrix,
    gaussian_breakpoints,
    load_series_file,
    quality_measure,
    run_mta,
    z_normalize,
)
from motiftrack import encapsulates
from motiftrack.cli import main as cli_main
from motiftrack.cli import sweep_rows

from conftest import (
    DATA_DIR,
    PLANTED_SIGNATURE,
    PLANTED_SIGNATURE_S40,
    TABLE1_MOTIFS,
    corpus_instances,
    motif_signature,
    phi_inv,
)

REPORT_MIN_LENGTH = 40

# (symbol_length, tme) -> (motifs found, quality), counts at min length 40
TABLE2 = {
    (10, False): (8, 1490),
    (10, True): (6, 1230),
    (20, False): (5, 1140),
    (20, True): (4, 940),
    (40, False): (4, 960),
    (40, True): (3, 720),
}

# (alphabet, tme) -> (motifs found, quality), symbol length 20
TABLE3 = {
    (10, False): (5, 1140),
    (10, True): (4, 940),
    (8, False): (5, 1140),
    (8, True): (5, 1140),
    (6, False): (5, 1140),
    (6, True): (3, 860),
    (4, False): (5, 1140),
    (4, True): (5, 1140),
}


def announce(number: int, name: str, outcome: str = "PASS") -> None:
    print(f"ACCEPTANCE {number} ({name}): {outcome}")


def checked(number: int, name: str):
    """Decorator printing the pass/fail line for one criterion."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                raise
            except BaseException:
                announce(number, name, "FAIL")
                raise
            announce(number, name)

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus_results():
    """Engine (TME off and on) and oracle outputs for the pinned random corpus."""
    results = []
    for index, s, a, series in corpus_instances(count=200):
        config_off = MtaConfig(SaxConfig(s, a), 0.0, False)
        config_on = MtaConfig(SaxConfig(s, a), 0.0, True)
        results.append(
            {
                "index": index,
                "engine_off": run_mta(series, config_off),
                "engine_on": run_mta(series, config_on),
                "oracle": brute_force_exact_motifs(series, s, 1),
            }
        )
    return results


class TestCriterion1:
    def test_oracle_equivalence(self, corpus_results):
        @checked(1, "oracle equivalence on 200 random instances")
        def gate():
            assert len(corpus_results) >= 200
            for row in corpus_results:
                assert motif_signature(row["engine_off"]) == motif_signature(
                    row["oracle"]
                ), f"instance {row['index']}"

        gate()


class TestCriterion2:
    def test_quality_arithmetic(self):
        @checked(2, "quality measure on the reference motif table")
        def gate():
            motifs = MotifSet(
                tuple(
                    MemoryMotif("m" * (length // 10), length, occs)
                    for length, occs in TABLE1_MOTIFS
                )
            )
            assert quality_measure(motifs, 40) == 1490

        gate()


class TestCriterion3:
    def test_alphabet_invariance(self, planted_series):
        @checked(3, "alphabet invariance without TME")
        def gate():
            signatures = []
            for alphabet in (4, 6, 8, 10):
                out = run_mta(planted_series, MtaConfig(SaxConfig(20, alphabet), 0.0, False))
                signatures.append(motif_signature(out))
            assert all(sig == signatures[0] for sig in signatures)
            assert signatures[0] == PLANTED_SIGNATURE

        gate()


class TestCriterion4:
    def test_tme_monotonicity(self, planted_series, corpus_results):
        @checked(4, "TME output contained in no-TME output")
        def gate():
            def contained(on_set, off_set):
                off_plain = [MemoryMotif("", mo.point_length, mo.occurrences) for mo in off_set]
                for small in on_set:
                    probe = MemoryMotif("", small.point_length, small.occurrences)
                    assert any(encapsulates(big, probe) for big in off_plain), small

            def reported(motifs):
                return sum(1 for mo in motifs if mo.point_length >= REPORT_MIN_LENGTH)

            fixture_off = run_mta(planted_series, MtaConfig(SaxConfig(20, 10), 0.0, False))
            fixture_on = run_mta(planted_series, MtaConfig(SaxConfig(20, 10), 0.0, True))
            contained(fixture_on, fixture_off)
            assert reported(fixture_on) <= reported(fixture_off)
            for row in corpus_results:
                contained(row["engine_on"], row["engine_off"])
                assert reported(row["engine_on"]) <= reported(row["engine_off"]), row["index"]

        gate()


class TestCriterion5:
    def test_symbol_length_trend(self, planted_series):
        @checked(5, "motif count does not grow with symbol length")
        def gate():
            counts = {}
            for s in (10, 20, 40):
                out = run_mta(planted_series, MtaConfig(SaxConfig(s, 10), 0.0, False))
                counts[s] = sum(1 for mo in out if mo.point_length >= REPORT_MIN_LENGTH)
            assert counts[40] <= counts[20] <= counts[10]

        gate()


def reference_dataset_path() -> Path | None:
    env = os.environ.get("MTA_DATASET")
    candidates = [Path(env)] if env else []
    candidates.append(DATA_DIR / "MTA_scdata.dat")
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


class TestCriterion6:
    def test_reference_dataset_reproduction(self):
        path = reference_dataset_path()
        if path is None:
            announce(6, "reference capture reproduction", "NOT-RUNNABLE (dataset unavailable)")
            pytest.skip("reference dataset not retrievable; criteria 1-5 govern acceptance")

        @checked(6, "reference capture reproduction")
        def gate():
            full = load_series_file(path)
            assert len(full) == 8040
            series = TimeSeries(full.values[-1000:])
            out = run_mta(series, MtaConfig(SaxConfig(10, 10), 0.0, False))
            reported = [
                (mo.point_length, mo.occurrences)
                for mo in out
                if mo.point_length >= REPORT_MIN_LENGTH
            ]
            assert sorted(reported) == sorted(TABLE1_MOTIFS)
            rows = sweep_rows(series, (10, 20, 40), (10,), 0.0, (False, True), 40)
            for row in rows:
                expected = TABLE2[(row.symbol_length, row.tme_enabled)]
                assert (row.motif_count, row.quality) == expected, row
            rows3 = sweep_rows(series, (20,), (10, 8, 6, 4), 0.0, (False, True), 40)
            for row in rows3:
                expected = TABLE3[(row.alphabet, row.tme_enabled)]
                assert (row.motif_count, row.quality) == expected, row

        gate()


class TestCriterion7:
    def test_sax_unit_gates(self):
        @checked(7, "breakpoint accuracy and symbol-matrix properties")
        def gate():
            for a in range(2, 11):
                cuts = gaussian_breakpoints(a)
                assert len(cuts) == a - 1
                for i, cut in enumerate(cuts):
                    assert abs(cut - phi_inv((i + 1) / a)) < 1e-9
            rng = random.Random(1729)
            for _ in range(1000):
                s = rng.randint(1, 8)
                a = rng.choice((2, 4, 7, 10))
                m = rng.randint(s, s + 110)
                vals = [float(rng.randrange(6)) for _ in range(m)]
                src = rng.randrange(0, m - s + 1)
                # plant at a non-overlapping start so the source stays intact
                clear = [p for p in range(0, m - s + 1) if abs(p - src) >= s]
                dst = rng.choice(clear) if clear else src
                vals[dst : dst + s] = vals[src : src + s]
                norm = z_normalize(TimeSeries(np.array(vals)))
                matrix = build_symbol_matrix(norm, SaxConfig(s, a))
                assert len(matrix.symbols) == m - s + 1
                assert matrix.symbols[src] == matrix.symbols[dst]

        gate()


class TestCriterion8:
    def test_ingestion_golden_files(self, tmp_path):
        @checked(8, "strace ingestion golden files")
        def gate():
            strace_dir = DATA_DIR / "strace"
            for name in ("trace.2001", "trace.2002", "trace.2005"):
                shutil.copy(strace_dir / name, tmp_path / name)
            out = tmp_path / "series.txt"
            result = CliRunner().invoke(
                cli_main, ["ingest", str(tmp_path / "trace"), "-o", str(out)]
            )
            assert result.exit_code == 0, result.output
            assert result.output == "parsed=25 skipped=7 dropped=1 emitted=17\n"
            assert out.read_text() == (strace_dir / "expected_series.txt").read_text()

        gate()


class TestCriterion9:
    def test_determinism(self, planted_series_file, planted_series):
        @checked(9, "byte-stable reports and parallel/serial sweep equality")
        def gate():
            runner = CliRunner()
            args = ["discover", str(planted_series_file), "-s", "10"]
            first = runner.invoke(cli_main, args)
            second = runner.invoke(cli_main, args)
            assert first.exit_code == second.exit_code == 0
            assert first.output == second.output

            serial = sweep_rows(planted_series, (10, 20), (4, 10), 0.0, (False, True), 40, jobs=1)
            parallel = sweep_rows(planted_series, (10, 20), (4, 10), 0.0, (False, True), 40, jobs=4)

            def stable(rows):
                return [
                    (r.symbol_length, r.alphabet, r.threshold, r.tme_enabled,
                     r.motif_count, r.quality, r.error)
                    for r in rows
                ]

            assert stable(serial) == stable(parallel)

        gate()


class TestPlantedFixtureShape:
    """Not a numbered criterion: pins the fixture structure the gates rely on."""

    def test_fixture_signatures(self, planted_series):
        for s, expected in ((10, PLANTED_SIGNATURE), (20, PLANTED_SIGNATURE), (40, PLANTED_SIGNATURE_S40)):
            out = run_mta(planted_series, MtaConfig(SaxConfig(s, 10), 0.0, False))
            assert motif_signature(out) == expected, f"s={s}"
