import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from motiftrack.cli import main, sweep_rows
from motiftrack.series import load_series_file

from conftest import DATA_DIR

STRACE_DIR = DATA_DIR / "strace"
EXPECTED_SERIES = (STRACE_DIR / "expected_series.txt").read_text()
SRC_DIR = Path(__file__).parent.parent / "src"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports motiftrack from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture
def runner():
    return CliRunner()


class TestDiscover:
    def test_planted_report(self, runner, planted_series_file):
        result = runner.invoke(main, ["discover", str(planted_series_file), "-s", "20"])
        assert result.exit_code == 0
        assert result.output == (
            "motif 1: length=60 count=2 starts=100,300 symbols=aaa\n"
            "motif 2: length=40 count=2 starts=500,620 symbols=aa\n"
            "motif 3: length=40 count=2 starts=750,880 symbols=aa\n"
            "quality(min_len=40)=280\n"
        )

    def test_zero_motifs_is_success(self, runner, tmp_path):
        path = tmp_path / "ramp.txt"
        path.write_text("".join(f"{i}\n" for i in range(50)))
        result = runner.invoke(main, ["discover", str(path), "-s", "2", "-a", "4"])
        assert result.exit_code == 0
        assert result.output == "quality(min_len=40)=0\n"

    def test_symbol_length_beyond_series(self, runner, planted_series_file):
        result = runner.invoke(main, ["discover", str(planted_series_file), "-s", "2000"])
        assert result.exit_code == 2
        assert "series shorter than symbol length" in result.stderr

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["discover", str(tmp_path / "absent.txt")])
        assert result.exit_code == 2

    def test_bad_series_content(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nwat\n")
        result = runner.invoke(main, ["discover", str(path)])
        assert result.exit_code == 2

    def test_nonfinite_value_reports_line(self, runner, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1\n# c\n\nnan\n3\n")
        result = runner.invoke(main, ["discover", str(path)])
        assert result.exit_code == 2
        assert result.stderr == f"error: bad series file {path}: line 4: not a finite number: 'nan'\n"

    def test_negative_flags_rejected(self, runner, planted_series_file):
        for args in (["-r", "-1"], ["--min-length", "-5"]):
            result = runner.invoke(main, ["discover", str(planted_series_file), *args])
            assert result.exit_code == 2

    def test_nan_threshold_rejected(self, runner, planted_series_file):
        result = runner.invoke(main, ["discover", str(planted_series_file), "-r", "nan"])
        assert result.exit_code == 2
        assert "threshold must be a non-negative number" in result.stderr

    def test_output_file(self, runner, planted_series_file, tmp_path):
        report_path = tmp_path / "report.txt"
        result = runner.invoke(
            main,
            ["discover", str(planted_series_file), "-s", "20", "-o", str(report_path)],
        )
        assert result.exit_code == 0
        assert report_path.read_text().startswith("motif 1: length=60")

    def test_byte_identical_runs(self, runner, planted_series_file):
        args = ["discover", str(planted_series_file), "-s", "10"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_walk_fixture_report(self, runner):
        # a 400-point walk holding three near-copies of one stretch, chained at r > 0
        walk = DATA_DIR / "walk"
        result = runner.invoke(main, ["discover", str(walk / "walk.txt"), "-s", "4", "-a", "6", "-r", "0.5"])
        assert result.exit_code == 0
        assert result.output == (walk / "expected_report.txt").read_text()

    def test_periodic_fixture_report(self, runner):
        # period 13 with one break and one disturbed stretch: most groups are
        # encapsulated by the next generation's and never reach streamline
        periodic = DATA_DIR / "periodic"
        result = runner.invoke(main, ["discover", str(periodic / "periodic.txt"), "-s", "4", "-a", "6", "--tme"])
        assert result.exit_code == 0
        assert result.output == (periodic / "expected_report.txt").read_text()


class TestWithoutScipy:
    """The package runs on numpy and click alone."""

    def test_cli_import_loads_no_scipy(self):
        result = run_python(
            "import sys, motiftrack.cli\n"
            "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_discover_with_scipy_blocked(self, runner, planted_series_file):
        args = ["discover", str(planted_series_file), "-s", "20"]
        result = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from motiftrack.cli import main\n"
            "main(sys.argv[1:])",
            *args,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == runner.invoke(main, args).output


class TestOracleCommand:
    def test_matches_discover_on_fixture(self, runner, planted_series_file):
        discover = runner.invoke(
            main, ["discover", str(planted_series_file), "-s", "20", "--no-tme"]
        )
        oracle = runner.invoke(main, ["oracle", str(planted_series_file), "-s", "20"])
        assert oracle.exit_code == 0
        assert oracle.output == discover.output

    def test_matches_discover_on_periodic_fixture(self, runner):
        # overlapping occurrences: discover keeps them all, so the oracle must too
        path = str(DATA_DIR / "periodic" / "periodic.txt")
        args = ["-s", "4", "-a", "6", "--min-length", "0"]
        discover = runner.invoke(main, ["discover", path, *args, "--no-tme"])
        oracle = runner.invoke(main, ["oracle", path, *args, "--min-separation", "1"])
        assert discover.exit_code == oracle.exit_code == 0
        assert oracle.output == discover.output
        assert sum(line.startswith("motif ") for line in discover.output.splitlines()) == 66

    def test_all_distinct_is_empty_report(self, runner, tmp_path):
        path = tmp_path / "ramp.txt"
        path.write_text("".join(f"{i}\n" for i in range(30)))
        result = runner.invoke(main, ["oracle", str(path), "-s", "2"])
        assert result.exit_code == 0
        assert result.output == "quality(min_len=40)=0\n"


class TestIngest:
    def copy_traces(self, tmp_path, names=("trace.2001", "trace.2002", "trace.2005")):
        for name in names:
            shutil.copy(STRACE_DIR / name, tmp_path / name)
        return tmp_path / "trace"

    def test_golden_series_and_counters(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        out = tmp_path / "series.txt"
        result = runner.invoke(main, ["ingest", str(prefix), "-o", str(out)])
        assert result.exit_code == 0
        assert result.output == "parsed=25 skipped=7 dropped=1 emitted=17\n"
        assert out.read_text() == EXPECTED_SERIES

    def test_tail(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        out = tmp_path / "series.txt"
        result = runner.invoke(main, ["ingest", str(prefix), "--tail", "5", "-o", str(out)])
        assert result.exit_code == 0
        assert "emitted=5" in result.output
        assert out.read_text() == "6\n15\n4\n140\n91\n"

    def test_tail_must_be_positive(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        result = runner.invoke(
            main, ["ingest", str(prefix), "--tail", "0", "-o", str(tmp_path / "s.txt")]
        )
        assert result.exit_code == 2

    def test_tail_checked_before_reading_traces(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        (tmp_path / "trace.9").mkdir()  # unreadable as a trace file
        result = runner.invoke(
            main, ["ingest", str(prefix), "--tail", "0", "-o", str(tmp_path / "s.txt")]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--tail'" in result.stderr

    def test_strict_names_unknown_call(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        result = runner.invoke(
            main, ["ingest", str(prefix), "--strict", "-o", str(tmp_path / "s.txt")]
        )
        assert result.exit_code == 2
        assert "frobnicate" in result.stderr

    def test_no_trace_files(self, runner, tmp_path):
        result = runner.invoke(
            main, ["ingest", str(tmp_path / "nothing"), "-o", str(tmp_path / "s.txt")]
        )
        assert result.exit_code == 2
        assert "no trace files" in result.stderr

    def test_bad_map_reports_line(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        bad_map = tmp_path / "bad.map"
        bad_map.write_text("read 3\nread 4\n")
        result = runner.invoke(
            main,
            ["ingest", str(prefix), "--syscall-map", str(bad_map), "-o", str(tmp_path / "s.txt")],
        )
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    @pytest.mark.parametrize("big", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_map_id_too_large_for_series(self, runner, tmp_path, big):
        prefix = self.copy_traces(tmp_path)
        bad_map = tmp_path / "big.map"
        bad_map.write_text(f"read {2**53}\nwrite {big}\n")
        result = runner.invoke(
            main,
            ["ingest", str(prefix), "--syscall-map", str(bad_map), "-o", str(tmp_path / "s.txt")],
        )
        assert result.exit_code == 2
        assert "line 2: id for 'write' is too large" in result.stderr

    def test_file_output_capture(self, runner, tmp_path):
        # a `strace -f -o out` capture, renamed out.1: its PID-prefixed lines are calls
        shutil.copy(DATA_DIR / "strace_f" / "out.1", tmp_path / "out.1")
        out = tmp_path / "series.txt"
        result = runner.invoke(
            main, ["ingest", str(tmp_path / "out"), "--syscall-table", "linux-x86_64", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert result.output == "parsed=19 skipped=5 dropped=0 emitted=14\n"
        assert out.read_text().split() == "59 12 257 3 22 56 3 61 33 59 1 231 0 231".split()

    def test_prefix_with_glob_metacharacters(self, runner, tmp_path):
        directory = tmp_path / "run[1]"
        directory.mkdir()
        prefix = self.copy_traces(directory)
        out = tmp_path / "series.txt"
        result = runner.invoke(main, ["ingest", str(prefix), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == "parsed=25 skipped=7 dropped=1 emitted=17\n"
        assert out.read_text() == EXPECTED_SERIES

    def test_non_ascii_digit_suffix_ignored(self, runner, tmp_path):
        # "\u00b2".isdigit() is true, but it is no PID
        prefix = self.copy_traces(tmp_path)
        shutil.copy(STRACE_DIR / "trace.2001", tmp_path / "trace.\u00b2")
        out = tmp_path / "series.txt"
        result = runner.invoke(main, ["ingest", str(prefix), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text() == EXPECTED_SERIES
        (tmp_path / "lone").mkdir()
        shutil.copy(STRACE_DIR / "trace.2001", tmp_path / "lone" / "trace.\u00b2")
        result = runner.invoke(main, ["ingest", str(tmp_path / "lone" / "trace"), "-o", str(out)])
        assert result.exit_code == 2
        assert "no trace files" in result.stderr

    def test_syscall_table_x86_64(self, runner, tmp_path):
        names = ["openat", "newfstatat", "getrandom", "clone3", "pread64", "epoll_wait"]
        (tmp_path / "trace.7").write_text("".join(f"{n}(3) = 0\n" for n in names))
        out = tmp_path / "series.txt"
        args = ["ingest", str(tmp_path / "trace"), "-o", str(out)]
        result = runner.invoke(main, [*args, "--syscall-table", "linux-x86_64", "--strict"])
        assert result.exit_code == 0, result.output
        assert result.output == "parsed=6 skipped=0 dropped=0 emitted=6\n"
        assert out.read_text() == "257\n262\n318\n435\n17\n232\n"
        # the 2.4 i386 table stays the default, and knows none of them
        result = runner.invoke(main, [*args, "--strict"])
        assert result.exit_code == 2
        assert "'openat' at position 0" in result.stderr

    def test_syscall_table_and_map_exclusive(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        table = tmp_path / "tiny.map"
        table.write_text("read 3\n")
        result = runner.invoke(main, [
            "ingest", str(prefix), "--syscall-table", "linux-x86_64",
            "--syscall-map", str(table), "-o", str(tmp_path / "s.txt"),
        ])
        assert result.exit_code == 2
        assert "mutually exclusive" in result.stderr
        assert not (tmp_path / "s.txt").exists()

    def test_unknown_syscall_table_rejected(self, runner, tmp_path):
        prefix = self.copy_traces(tmp_path)
        result = runner.invoke(
            main, ["ingest", str(prefix), "--syscall-table", "linux-9", "-o", str(tmp_path / "s")]
        )
        assert result.exit_code == 2

    def test_custom_map(self, runner, tmp_path):
        path = tmp_path / "trace.7"
        path.write_text("alpha(1) = 0\nbeta(2) = 0\n")
        table = tmp_path / "tiny.map"
        table.write_text("alpha 1\nbeta 2\n")
        out = tmp_path / "series.txt"
        result = runner.invoke(
            main,
            ["ingest", str(tmp_path / "trace"), "--syscall-map", str(table), "-o", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text() == "1\n2\n"

    def test_map_with_byte_order_mark(self, runner, tmp_path):
        (tmp_path / "trace.7").write_text("read(3) = 0\nwrite(1) = 0\nread(3) = 0\n")
        table = tmp_path / "bom.map"
        table.write_bytes(b"\xef\xbb\xbfread 3\nwrite 4\n")
        out = tmp_path / "series.txt"
        result = runner.invoke(
            main,
            ["ingest", str(tmp_path / "trace"), "--syscall-map", str(table), "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert result.output == "parsed=3 skipped=0 dropped=0 emitted=3\n"
        assert out.read_text() == "3\n4\n3\n"


class TestSweep:
    def test_table_shape(self, runner, planted_series_file):
        result = runner.invoke(
            main,
            ["sweep", str(planted_series_file), "-s", "10", "-s", "20", "--tme-mode", "both"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "s\ta\tr\ttme\tmotifs\tquality\ttime_ms"
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split("\t")) == 7

    def test_cells_match_discover(self, runner, planted_series_file):
        sweep = runner.invoke(
            main, ["sweep", str(planted_series_file), "-s", "20", "--tme-mode", "off"]
        )
        row = sweep.output.splitlines()[1].split("\t")
        assert (row[4], row[5]) == ("3", "280")
        discover = runner.invoke(
            main, ["discover", str(planted_series_file), "-s", "20", "--no-tme"]
        )
        assert "quality(min_len=40)=280" in discover.output
        assert discover.output.count("motif ") == 3

    def test_failed_cell_reported_and_sweep_continues(self, runner, planted_series_file):
        result = runner.invoke(
            main,
            ["sweep", str(planted_series_file), "-s", "2000", "-s", "20", "--tme-mode", "off"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "error: series shorter than symbol length" in lines[1]
        assert lines[2].split("\t")[4] == "3"

    def test_nan_threshold_rejected(self, runner, planted_series_file):
        result = runner.invoke(main, ["sweep", str(planted_series_file), "-r", "nan"])
        assert result.exit_code == 2
        assert "threshold must be a non-negative number" in result.stderr

    def test_parallel_equals_serial(self, planted_series_file):
        series = load_series_file(planted_series_file)
        serial = sweep_rows(series, (10, 20), (4, 10), 0.0, (False, True), 40, jobs=1)
        parallel = sweep_rows(series, (10, 20), (4, 10), 0.0, (False, True), 40, jobs=4)

        def stable(rows):
            return [
                (r.symbol_length, r.alphabet, r.threshold, r.tme_enabled,
                 r.motif_count, r.quality, r.error)
                for r in rows
            ]

        assert stable(serial) == stable(parallel)


# a value outside each option's range, per command: parsed by click but out
# of range, or not a number of the option's type at all
POSITIVE = st.one_of(st.integers(max_value=0).map(str), st.sampled_from(["nan", "-nan", "1.5", "x", ""]))
NON_NEGATIVE = st.one_of(st.integers(max_value=-1).map(str), st.sampled_from(["nan", "-inf", "-0.5", "x"]))
ALPHABET_SIZE = st.one_of(st.integers(max_value=1), st.integers(min_value=27)).map(str) | st.just("nan")
THRESHOLD = st.one_of(
    st.floats(max_value=-1e-300, allow_nan=False).map(repr), st.sampled_from(["nan", "-nan", "NaN", "x"])
)
# the valid series' length: discover and oracle reject any -s beyond it
SERIES_POINTS = 150
BAD_OPTIONS = {
    "ingest": {"--tail": POSITIVE},
    "discover": {
        "-s": POSITIVE | st.integers(min_value=SERIES_POINTS + 1).map(str),
        "-a": ALPHABET_SIZE,
        "-r": THRESHOLD,
        "--min-length": NON_NEGATIVE,
    },
    "oracle": {
        "-s": POSITIVE | st.integers(min_value=SERIES_POINTS + 1).map(str),
        "-a": ALPHABET_SIZE,
        "--min-separation": POSITIVE,
        "--min-length": NON_NEGATIVE,
    },
    "sweep": {
        "-s": POSITIVE,
        "-a": ALPHABET_SIZE,
        "-r": THRESHOLD,
        "--min-length": NON_NEGATIVE,
        "--jobs": POSITIVE,
    },
}
# the least value each option range accepts
RANGE_BOUNDARIES = {
    "ingest": ["--tail", "1"],
    "discover": ["--min-length", "0"],
    "oracle": ["--min-length", "0", "--min-separation", "1"],
    "sweep": ["--min-length", "0", "--jobs", "1"],
}
BAD_SERIES = {"missing": None, "directory": None, "empty": "", "comments": "# a\n\n  # b\n",
              "nan": "1\n2\nnan\n", "inf": "1\n-inf\n", "overflow": "1e999\n",
              "garbage": "1\nwat\n", "non-utf8": b"1\n\xff\n"}


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """A valid series and trace, and the bad files and paths the error paths read."""
    root = tmp_path_factory.mktemp("errors")
    values = np.random.default_rng(3).integers(0, 5, SERIES_POINTS)
    values[100:130] = values[10:40]
    (root / "series.txt").write_text("".join(f"{v}\n" for v in values.tolist()))
    for name, text in BAD_SERIES.items():
        if isinstance(text, bytes):
            (root / f"{name}.txt").write_bytes(text)
        elif text is not None:
            (root / f"{name}.txt").write_text(text)
    (root / "directory.txt").mkdir()
    (root / "trace.7").write_text('read(3, "x", 1) = 1\nwrite(1, "x", 1) = 1\n')
    (root / "empty.7").write_text("")
    (root / "comments.7").write_text("--- SIGCHLD ---\n+++ exited with 0 +++\n")
    (root / "directory.7").mkdir()
    (root / "out").mkdir()
    return root


@st.composite
def bad_invocations(draw, root):
    """One command with valid arguments and one defect: an option out of range or a bad input."""
    command = draw(st.sampled_from(sorted(BAD_OPTIONS)))
    if command == "ingest":
        prefix, output, extra = str(root / "trace"), str(root / "ingested.txt"), []
        defect = draw(st.sampled_from(["option", "prefix", "output", "map"]))
        if defect == "prefix":
            prefix = str(root / draw(st.sampled_from(["missing", "empty", "comments", "directory", "."])))
        elif defect == "output":  # a directory, or the empty path
            output = draw(st.sampled_from([str(root / "out"), ""]))
        elif defect == "map":
            extra = ["--syscall-map", str(root / draw(st.sampled_from(["missing.map", "out", "series.txt"])))]
        argv = ["ingest", prefix, "-o", output, *extra]
    else:
        series = str(root / "series.txt")
        defect = draw(st.sampled_from(["option", "series", "output"]))
        if defect == "series":
            series = str(root / f"{draw(st.sampled_from(sorted(BAD_SERIES)))}.txt")
        argv = [command, series, "-s", "4", "-a", "4"]
        argv += ["--tme-mode", "off"] if command == "sweep" else []
        argv += ["-o", draw(st.sampled_from([str(root / "out"), ""]))] if defect == "output" else []
    if defect == "option":
        option = draw(st.sampled_from(sorted(BAD_OPTIONS[command])))
        argv += [option, draw(BAD_OPTIONS[command][option])]
    return argv


class TestErrorPaths:
    """Every bad argument or input ends a command with exit code 2 and a message."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_2_with_message(self, error_inputs, data):
        argv = data.draw(bad_invocations(error_inputs))
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2, (argv, result.output, result.exception)
        assert result.stderr.strip(), argv
        assert isinstance(result.exception, SystemExit), argv
        assert "Traceback" not in result.output, argv

    @pytest.mark.parametrize("command", ["discover", "oracle", "sweep"])
    def test_valid_arguments_succeed(self, runner, error_inputs, command):
        argv = [command, str(error_inputs / "series.txt"), "-s", "4", "-a", "4", *RANGE_BOUNDARIES[command]]
        result = runner.invoke(main, argv + (["--tme-mode", "off"] if command == "sweep" else []))
        assert result.exit_code == 0, result.output

    def test_valid_trace_succeeds(self, runner, error_inputs):
        result = runner.invoke(main, ["ingest", str(error_inputs / "trace"), "-o", str(error_inputs / "ok.txt")])
        assert result.output == "parsed=2 skipped=0 dropped=0 emitted=2\n"

    def test_tail_boundary_accepted(self, runner, error_inputs):
        argv = ["ingest", str(error_inputs / "trace"), "-o", str(error_inputs / "tail.txt"), *RANGE_BOUNDARIES["ingest"]]
        result = runner.invoke(main, argv)
        assert result.output == "parsed=2 skipped=0 dropped=0 emitted=1\n"
