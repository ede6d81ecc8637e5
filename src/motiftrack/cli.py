"""Command-line entry point: ingest traces, discover motifs, sweep, validate.

Exit codes: 0 on success (an empty motif set is a valid answer), 2 on usage
or input errors, for script composability.
"""

from __future__ import annotations

import glob
import sys
import time
from dataclasses import dataclass
from typing import NoReturn

import click

from . import ingest as ingest_mod
from .oracle import brute_force_exact_motifs
from .sax import SaxConfig, build_symbol_matrix
from .series import TimeSeries, dump_series_text, load_series_file, z_normalize
from .tracker import MtaConfig, format_motif_report, quality_measure, run_mta


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_series(path) -> TimeSeries:
    try:
        return load_series_file(path)
    except OSError as exc:
        _fail(f"cannot read series file: {exc}")
    except ValueError as exc:
        _fail(f"bad series file {path}: {exc}")


def _emit(text: str, output: str | None) -> None:
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {output}: {exc}")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(package_name="motiftrack")
def main():
    """Find unknown, variable-length repeating patterns in a time series."""


@main.command("ingest")
@click.argument("trace_prefix")
@click.option(
    "--syscall-map",
    "map_path",
    type=click.Path(),
    default=None,
    help="Name-to-id table file; replaces the bundled table.",
)
@click.option(
    "--syscall-table",
    "table",
    type=click.Choice(sorted(ingest_mod.SYSCALL_TABLES)),
    default=None,
    help=f"Bundled name-to-id table.  [default: {ingest_mod.DEFAULT_SYSCALL_TABLE}]",
)
@click.option("--tail", type=click.IntRange(min=1), default=None, help="Keep only the last N values.")
@click.option("--strict", is_flag=True, help="Fail on syscall names missing from the map.")
@click.option("--output", "-o", required=True, type=click.Path(), help="Series file to write.")
def cmd_ingest(trace_prefix, map_path, table, tail, strict, output):
    """Turn per-PID trace files <TRACE_PREFIX>.<pid> into a series file.

    The lowest PID is treated as the parent; remaining files are appended in
    ascending PID order.
    """
    if table is not None and map_path is not None:
        _fail("--syscall-table and --syscall-map are mutually exclusive")
    paths = []
    for candidate in sorted(glob.glob(f"{glob.escape(trace_prefix)}.*")):
        if ingest_mod.pid_suffix(candidate) is not None:
            paths.append(candidate)
    if not paths:
        _fail(f"no trace files found for prefix {trace_prefix!r}")
    try:
        if map_path is None:
            syscall_map = ingest_mod.bundled_syscall_map(table or ingest_mod.DEFAULT_SYSCALL_TABLE)
        else:
            syscall_map = ingest_mod.load_syscall_map(map_path)
    except (OSError, ValueError) as exc:
        _fail(f"cannot load syscall map: {exc}")

    traces = []
    parsed = skipped = 0
    try:
        for path in paths:
            trace, lines, skips = ingest_mod.parse_strace_file(path)
            traces.append(trace)
            parsed += lines
            skipped += skips
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    traces.sort(key=lambda t: t.pid)
    try:
        calls = ingest_mod.concatenate_pid_traces(traces[0], traces[1:])
        series, dropped = ingest_mod.encode_series(calls, syscall_map, strict=strict)
    except ValueError as exc:
        _fail(str(exc))
    values = series.values
    if tail is not None:
        values = values[-tail:]
    _emit(dump_series_text(values), output)
    click.echo(f"parsed={parsed} skipped={skipped} dropped={dropped} emitted={len(values)}")


def _config_or_fail(symbol_length, alphabet, threshold=0.0, tme=False, series=None) -> MtaConfig:
    """The engine config of the options, or exit 2 naming the rule they break."""
    try:
        config = MtaConfig(SaxConfig(symbol_length, alphabet), threshold, tme)
    except ValueError as exc:
        _fail(str(exc))
    if series is not None and len(series) < symbol_length:
        _fail("series shorter than symbol length")
    return config


@main.command("discover")
@click.argument("series_path", type=click.Path())
@click.option("--symbol-length", "-s", default=10, show_default=True, help="Points per symbol.")
@click.option("--alphabet", "-a", default=10, show_default=True, help="Alphabet size (2-26).")
@click.option(
    "--threshold",
    "-r",
    default=0.0,
    show_default=True,
    help=(
        "Confirmation threshold. 0 demands exact repeats: equal raw values, as the oracle "
        "defines them. Above 0, a Euclidean distance in z-normalized units."
    ),
)
@click.option("--tme/--no-tme", default=False, show_default=True, help="Trivial-match elimination.")
@click.option(
    "--min-length", type=click.IntRange(min=0), default=40, show_default=True, help="Report motifs at least this long."
)
@click.option("--output", "-o", type=click.Path(), default=None)
def cmd_discover(series_path, symbol_length, alphabet, threshold, tme, min_length, output):
    """Run the tracking engine on a series file and print the motif report."""
    series = _load_series(series_path)
    config = _config_or_fail(symbol_length, alphabet, threshold, tme, series)
    motifs = run_mta(series, config)
    _emit(format_motif_report(motifs, min_length), output)


@main.command("oracle")
@click.argument("series_path", type=click.Path())
@click.option("--symbol-length", "-s", default=10, show_default=True)
@click.option(
    "--alphabet",
    "-a",
    default=10,
    show_default=True,
    help="Used only to render motif symbols in the report.",
)
@click.option(
    "--min-separation",
    type=click.IntRange(min=1),
    default=None,
    help="Minimum distance between kept occurrences [default: symbol length]",
)
@click.option("--min-length", type=click.IntRange(min=0), default=40, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def cmd_oracle(series_path, symbol_length, alphabet, min_separation, min_length, output):
    """Brute-force exact-repeat report, for diffing against discover."""
    series = _load_series(series_path)
    sax_config = _config_or_fail(symbol_length, alphabet, series=series).sax
    motifs = brute_force_exact_motifs(series, symbol_length, min_separation)
    # the search is symbol-free; render texts only so reports diff cleanly
    matrix = build_symbol_matrix(z_normalize(series), sax_config)
    _emit(format_motif_report(motifs.with_text(matrix), min_length), output)


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: its configuration, result counts, and wall time."""

    symbol_length: int
    alphabet: int
    threshold: float
    tme_enabled: bool
    motif_count: int | None
    quality: int | None
    wall_time_ms: int
    error: str | None = None


def sweep_rows(
    series: TimeSeries,
    symbol_lengths,
    alphabets,
    threshold: float,
    tme_modes,
    min_length: int,
    jobs: int = 1,
) -> list[SweepResult]:
    """Run one engine pass per (s, a, tme) cell, in parameter order.

    Cells run one after another; jobs is accepted for compatibility only,
    since threads measured 0.64-1.0x the serial speed.  A failing
    cell yields a row carrying its error instead of aborting the sweep.
    """
    cells = [
        (s, a, tme)
        for s in symbol_lengths
        for a in alphabets
        for tme in tme_modes
    ]

    def run_cell(cell):
        s, a, tme = cell
        begin = time.perf_counter()
        try:
            config = MtaConfig(SaxConfig(s, a), threshold, tme)
            motifs = run_mta(series, config)
        except ValueError as exc:
            ms = int((time.perf_counter() - begin) * 1000)
            return SweepResult(s, a, threshold, tme, None, None, ms, str(exc))
        ms = int((time.perf_counter() - begin) * 1000)
        count = sum(1 for mo in motifs if mo.point_length >= min_length)
        return SweepResult(s, a, threshold, tme, count, quality_measure(motifs, min_length), ms)

    return [run_cell(cell) for cell in cells]


def format_sweep_table(rows) -> str:
    lines = ["s\ta\tr\ttme\tmotifs\tquality\ttime_ms"]
    for row in rows:
        tme = "on" if row.tme_enabled else "off"
        cell = f"{row.symbol_length}\t{row.alphabet}\t{row.threshold:g}\t{tme}\t"
        if row.error is not None:
            lines.append(f"{cell}error: {row.error}")
        else:
            lines.append(f"{cell}{row.motif_count}\t{row.quality}\t{row.wall_time_ms}")
    return "\n".join(lines) + "\n"


@main.command("sweep")
@click.argument("series_path", type=click.Path())
@click.option(
    "--symbol-length",
    "-s",
    "symbol_lengths",
    multiple=True,
    type=int,
    default=(10,),
    show_default=True,
    help="Repeatable.",
)
@click.option(
    "--alphabet",
    "-a",
    "alphabets",
    multiple=True,
    type=int,
    default=(10,),
    show_default=True,
    help="Repeatable.",
)
@click.option("--threshold", "-r", default=0.0, show_default=True)
@click.option(
    "--tme-mode",
    type=click.Choice(["on", "off", "both"]),
    default="both",
    show_default=True,
)
@click.option("--min-length", type=click.IntRange(min=0), default=40, show_default=True)
@click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Accepted for compatibility; cells run one after another.",
)
@click.option("--output", "-o", type=click.Path(), default=None)
def cmd_sweep(series_path, symbol_lengths, alphabets, threshold, tme_mode, min_length, jobs, output):
    """Sensitivity sweep over symbol lengths, alphabets, and TME modes.

    Wall times are informational only; every other column is deterministic.
    """
    series = _load_series(series_path)
    for s in symbol_lengths:  # a cell fails only on the data, as with a series shorter than s
        for a in alphabets:
            _config_or_fail(s, a, threshold)
    tme_modes = {"on": (True,), "off": (False,), "both": (False, True)}[tme_mode]
    rows = sweep_rows(series, symbol_lengths, alphabets, threshold, tme_modes, min_length, jobs)
    _emit(format_sweep_table(rows), output)


if __name__ == "__main__":
    main()
