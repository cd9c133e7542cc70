"""Temporal map labeling: interval-based label selection over time."""

from .model import (
    ActivitySet,
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    ParseError,
    TimeInterval,
    complexity,
    dump_instance,
    dump_solution,
    load_instance,
    load_solution,
    make_activity_set,
    objective,
)
from .validation import (
    AmMode,
    ValidationReport,
    check_model,
    check_valid,
    is_justified,
    saturate_excluding,
)
from .conflict_graph import ConflictGraph, SizeLimitExceeded, build_graph
from .solvers import (
    GMT,
    PlsParams,
    Problem,
    SolveRequest,
    SolveResult,
    Status,
    krmt,
    mwis_intervals,
    repair_selection,
    solve,
    solve_exact,
    solve_greedy,
    solve_intgraph,
    solve_pls,
)

__version__ = "0.1.0"
