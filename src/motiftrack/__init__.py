"""motiftrack: unknown, variable-length repeating-pattern discovery.

A series is z-normalized and discretized into one symbol per sliding window.
Windows are grouped into classes of equal symbol words, each class refined
by one symbol per generation; these are the paper's trackers.  Candidate
repeats are confirmed against the data: with r = 0 by equality of the raw
values, the brute-force oracle's definition of an exact repeat, and with
r > 0 by a Euclidean distance of at most r in z-normalized units.  The
oracles and an strace ingestion pipeline round out the toolkit.  The
loop's stages and the confirmation step, groups, live in motiftrack.tracker.
"""

from .ingest import (
    PidTrace,
    SyscallMap,
    concatenate_pid_traces,
    default_syscall_map,
    encode_series,
    load_syscall_map,
    parse_strace_text,
)
from .oracle import (
    brute_force_exact_motifs,
    brute_force_threshold_pairs,
    maximal_exact_repeats,
    reference_motifs,
)
from .sax import (
    ALPHABET,
    SaxConfig,
    SymbolMatrix,
    build_symbol_matrix,
    gaussian_breakpoints,
    window_symbol,
)
from .series import (
    TimeSeries,
    dump_series_text,
    euclidean_distance,
    load_series_file,
    load_series_text,
    z_normalize,
)
from .tracker import (
    MemoryMotif,
    MotifSet,
    MtaConfig,
    encapsulates,
    format_motif_report,
    quality_measure,
    run_mta,
    streamline,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "MemoryMotif",
    "MotifSet",
    "MtaConfig",
    "PidTrace",
    "SaxConfig",
    "SymbolMatrix",
    "SyscallMap",
    "TimeSeries",
    "brute_force_exact_motifs",
    "brute_force_threshold_pairs",
    "build_symbol_matrix",
    "concatenate_pid_traces",
    "default_syscall_map",
    "dump_series_text",
    "encapsulates",
    "encode_series",
    "euclidean_distance",
    "format_motif_report",
    "gaussian_breakpoints",
    "load_series_file",
    "load_series_text",
    "load_syscall_map",
    "maximal_exact_repeats",
    "parse_strace_text",
    "quality_measure",
    "reference_motifs",
    "run_mta",
    "streamline",
    "window_symbol",
    "z_normalize",
]
