"""Command-line front end and benchmark harness.

Subcommands: ``generate`` (scenario -> instance), ``solve``, ``validate``,
``graph-dump`` and ``bench``.  Exit codes: 0 success, 2 validation failure,
3 unsupported combination, 4 timeout with an incumbent solution.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .conflict_graph import SizeLimitExceeded, build_graph
from .model import (
    Instance,
    IntegrityError,
    ParseError,
    complexity,
    dump_instance,
    dump_solution,
    load_instance,
    load_solution,
)
from .scenario import extract_instance, load_scenario, synthesize_scenario
from .solvers import GMT, Problem, SolveRequest, Status, krmt, solve
from .validation import AmMode, check_model

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_TIMEOUT = 4
SIZE_LIMIT_MESSAGE = "instance exceeds the candidate-graph size limit"

ALGORITHMS = ("exact", "greedy", "pls", "intgraph")

# Stable benchmark CSV schema; changing it breaks downstream tooling, so the
# column order is pinned by a golden test.
CSV_COLUMNS = (
    "instance",
    "complexity",
    "problem",
    "mode",
    "algorithm",
    "objective",
    "reference",
    "reference_kind",
    "quality",
    "runtime_s",
    "status",
)
RATIO_COLUMNS = ("instance", "complexity", "am2_over_am1", "am3_over_am1")


def demo_scenario_text() -> str:
    """The bundled demo scenario (JSON text)."""
    return resources.files("chronolabel").joinpath("data/demo_scenario.json").read_text("utf-8")


def apply_min_activity(instance: Instance, min_activity: float) -> Instance:
    """Drop presence intervals shorter than ``min_activity`` seconds.

    Conflicts no longer contained in a surviving presence interval of both
    labels are dropped with them; labels left without presences disappear.
    """
    if min_activity <= 0:
        return instance
    presences = {}
    for lid, intervals in instance.presences.items():
        kept = tuple(iv for iv in intervals if iv.length >= min_activity)
        if kept:
            presences[lid] = kept

    def covered(lid: str, iv) -> bool:
        # a conflict lies in one presence of each label; covered if it is kept
        return instance.presence_containing(lid, iv).length >= min_activity

    return Instance(
        horizon=instance.horizon,
        labels={lid: instance.labels[lid] for lid in presences},
        presences=presences,
        conflicts=tuple(
            c for c in instance.conflicts if covered(c.a, c.interval) and covered(c.b, c.interval)
        ),
    )


# ---------------------------------------------------------------------------
# Argument plumbing


def _seconds(text: str) -> float:
    """A duration flag: a finite number of seconds, at least 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected finite seconds >= 0, got {text!r}")
    return value


def _items_of(allowed: Tuple[str, ...]):
    """A comma-separated flag of at least one item, each one of ``allowed``."""

    def parse(text: str) -> List[str]:
        items = [item for item in text.split(",") if item]
        unknown = [item for item in items if item not in allowed]
        if unknown or not items:
            raise argparse.ArgumentTypeError(
                f"expected one or more of {','.join(allowed)}, got {text!r}"
            )
        return items

    return parse


def _problem_of(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Problem:
    if args.problem == "krmt":
        if args.k is None or args.k < 1:
            parser.error("--problem krmt requires --k >= 1")
        return krmt(args.k)
    if args.k is not None:
        parser.error("--k only applies to --problem krmt")
    return GMT


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", choices=("gmt", "krmt"), default="gmt")
    sub.add_argument("--k", type=int, default=None, help="activity bound for krmt")
    sub.add_argument("--am", type=int, choices=(1, 2, 3), default=1, help="activity model")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--time-limit", type=_seconds, default=600.0, metavar="S")


def _request(args: argparse.Namespace, problem: Problem, seed: int) -> SolveRequest:
    return SolveRequest(
        problem=problem,
        mode=AmMode(args.am),
        algorithm=args.algo.upper(),
        time_limit=args.time_limit,
        seed=seed,
    )


def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ---------------------------------------------------------------------------
# generate


def cmd_generate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.seed is not None and (args.demo or args.scenario is not None):
        parser.error("--seed only applies to a synthesized scenario, not --demo or a file")
    if args.demo:
        scenario = load_scenario(demo_scenario_text())
    elif args.scenario is not None:
        scenario = load_scenario(_read(args.scenario))
    else:
        scenario = synthesize_scenario(args.seed or 0)
    if args.scenario_out:
        from .scenario import dump_scenario

        Path(args.scenario_out).write_text(dump_scenario(scenario) + "\n", "utf-8")
    instance = apply_min_activity(extract_instance(scenario), args.min_activity)
    text = dump_instance(instance)
    if args.out:
        Path(args.out).write_text(text + "\n", "utf-8")
    else:
        print(text)
    print(
        f"generated instance: {len(instance.labels)} labels, "
        f"complexity {complexity(instance)}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def cmd_solve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    problem = _problem_of(parser, args)
    instance = load_instance(_read(args.instance))
    request = _request(args, problem, args.seed)
    result = solve(instance, request)

    if result.status is Status.UNSUPPORTED:
        print(
            f"unsupported combination: {args.algo} does not handle {args.problem}",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    if result.status is Status.SIZE_ABORT:
        print(SIZE_LIMIT_MESSAGE, file=sys.stderr)
        return EXIT_UNSUPPORTED

    # never emit a solution that fails its own conformance check
    report = check_model(instance, result.phi, request.mode, k=problem.k)
    if not report.valid:
        print("internal error: solver output failed validation", file=sys.stderr)
        print(report.to_json(), file=sys.stderr)
        return EXIT_INVALID

    solution_text = dump_solution(result.phi)
    sidecar_text = result.sidecar(request)
    if args.out:
        Path(args.out).write_text(solution_text + "\n", "utf-8")
        Path(args.out + ".meta.json").write_text(sidecar_text + "\n", "utf-8")
    else:
        print(solution_text)
    print(sidecar_text, file=sys.stderr)

    if args.algo == "exact" and result.status is Status.FEASIBLE:
        return EXIT_TIMEOUT  # deadline hit; the emitted solution is an incumbent
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    problem = _problem_of(parser, args)
    instance = load_instance(_read(args.instance))
    phi = load_solution(_read(args.solution))
    report = check_model(
        instance, phi, AmMode(args.am), k=problem.k, min_duration=args.min_activity
    )
    print(report.to_json())
    return EXIT_OK if report.valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# graph-dump


def cmd_graph_dump(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    instance = load_instance(_read(args.instance))
    try:
        graph = build_graph(instance, AmMode(args.am))
    except SizeLimitExceeded:
        print(SIZE_LIMIT_MESSAGE, file=sys.stderr)
        return EXIT_UNSUPPORTED
    doc = {
        "mode": AmMode(args.am).name,
        "candidates": [
            {
                "id": v,
                "label": graph.label_ids[v],
                "presence_index": graph.presence_indices[v],
                "start": graph.starts[v],
                "end": graph.ends[v],
                "weight": graph.weights[v],
            }
            for v in range(len(graph))
        ],
        "clusters": [sorted(members) for _, members in sorted(graph.clusters.items())],
        "adjacency": [sorted(graph.neighbor_ids(v)) for v in range(len(graph))],
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", "utf-8")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _fmt(value: Optional[float], digits: int = 6) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def bench_rows(
    paths: Sequence[str],
    problem: Problem,
    modes: Sequence[int],
    algos: Sequence[str],
    *,
    seed: int = 0,
    time_limit: float = 600.0,
) -> List[dict]:
    """Run the benchmark matrix and attach exact references and quality ratios.

    Each instance file is parsed once; run ``i`` of the matrix (files sorted,
    then modes, then algorithms) is solved with the seed ``seed + i``.  The
    solvers share the instance's graphs, which are built before any solve
    is timed, so ``runtime_s`` excludes the build whatever the algorithm
    order.
    """
    rows: List[dict] = []
    graph_modes = set()  # of the graphs the solves read
    for algo in algos:
        if algo == "exact" or (algo in ("greedy", "pls") and problem.kind == "GMT"):
            graph_modes.update(map(AmMode, modes))
        elif algo == "greedy":  # KRMT greedy runs on the AM1 graph
            graph_modes.add(AmMode.AM1)
    for path in sorted(str(p) for p in paths):
        instance = load_instance(_read(path))
        size = complexity(instance)
        for mode in sorted(graph_modes, key=lambda m: m.value):
            try:
                build_graph(instance, mode)
            except SizeLimitExceeded:
                pass  # each solve reports SIZE_ABORT
        for mode in map(AmMode, modes):
            for algo in algos:
                request = SolveRequest(
                    problem=problem,
                    mode=mode,
                    algorithm=algo.upper(),
                    time_limit=time_limit,
                    seed=seed + len(rows),
                )
                result = solve(instance, request)
                status = result.status.value
                if result.status in (Status.OPTIMAL, Status.FEASIBLE):
                    if not check_model(instance, result.phi, mode, k=problem.k).valid:
                        status = "INVALID"
                rows.append(
                    {
                        "instance": Path(path).name,
                        "complexity": size,
                        "problem": problem.kind,
                        "k": problem.k,
                        "mode": mode.name,
                        "algorithm": algo,
                        "objective": result.objective,
                        "upper_bound": result.upper_bound,
                        "runtime_s": result.runtime,
                        "status": status,
                    }
                )

    # exact reference per (instance, problem, mode): the optimum when proven,
    # otherwise the best known upper bound (flagged in reference_kind)
    references: Dict[tuple, Tuple[float, str]] = {}
    for row in rows:
        if row["algorithm"] != "exact":
            continue
        key = (row["instance"], row["problem"], row["k"], row["mode"])
        if row["status"] == Status.OPTIMAL.value:
            references[key] = (row["objective"], "optimal")
        elif row["upper_bound"] is not None:
            references[key] = (row["upper_bound"], "upper_bound")
    for row in rows:
        key = (row["instance"], row["problem"], row["k"], row["mode"])
        ref = references.get(key)
        if ref is None:
            row["reference"] = None
            row["reference_kind"] = "none"
            row["quality"] = None
            continue
        value, kind = ref
        row["reference"] = value
        row["reference_kind"] = kind
        if value <= 0:
            row["quality"] = 1.0 if row["objective"] <= 0 else None
        else:
            quality = row["objective"] / value
            if kind == "optimal":
                quality = min(quality, 1.0)  # guard float noise only
            row["quality"] = quality
    return rows


def ratio_rows(rows: Sequence[dict]) -> List[dict]:
    """Per-instance AM2/AM1 and AM3/AM1 objective ratios from the exact rows."""
    exact: Dict[tuple, dict] = {}
    for row in rows:
        if row["algorithm"] == "exact":
            exact[(row["instance"], row["problem"], row["k"], row["mode"])] = row
    out = []
    for (instance, problem, k, mode), row in sorted(exact.items()):
        if mode != "AM1":
            continue
        base = row["objective"]
        entry = {
            "instance": instance,
            "complexity": row["complexity"],
            "am2_over_am1": None,
            "am3_over_am1": None,
        }
        if base > 0:
            am2 = exact.get((instance, problem, k, "AM2"))
            am3 = exact.get((instance, problem, k, "AM3"))
            if am2 is not None:
                entry["am2_over_am1"] = am2["objective"] / base
            if am3 is not None:
                entry["am3_over_am1"] = am3["objective"] / base
        out.append(entry)
    return out


def write_report_csv(rows: Sequence[dict], path: Path) -> None:
    ordered = sorted(
        rows,
        key=lambda r: (r["complexity"], r["instance"], r["problem"], r["mode"], r["algorithm"]),
    )
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in ordered:
            writer.writerow(
                [
                    row["instance"],
                    row["complexity"],
                    row["problem"] if row["k"] is None else f"{row['problem']}(k={row['k']})",
                    row["mode"],
                    row["algorithm"],
                    _fmt(row["objective"]),
                    _fmt(row["reference"]),
                    row["reference_kind"],
                    _fmt(row["quality"], 4),
                    _fmt(row["runtime_s"], 4),
                    row["status"],
                ]
            )


def write_ratio_csv(rows: Sequence[dict], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RATIO_COLUMNS)
        for row in sorted(rows, key=lambda r: (r["complexity"], r["instance"])):
            writer.writerow(
                [
                    row["instance"],
                    row["complexity"],
                    _fmt(row["am2_over_am1"], 4),
                    _fmt(row["am3_over_am1"], 4),
                ]
            )


_SERIES_COLORS = {
    "exact": "#1f6fb2",
    "greedy": "#c23b22",
    "pls": "#2c8a4b",
    "intgraph": "#7b4ba0",
}


def write_scatter_svg(
    path: Path,
    series: Dict[str, List[Tuple[float, float]]],
    title: str,
    y_label: str,
) -> None:
    """Standalone SVG scatter chart; x is the instance complexity rank."""
    width, height = 640.0, 420.0
    left, right, top, bottom = 64.0, 16.0, 36.0, 48.0
    plot_w, plot_h = width - left - right, height - top - bottom

    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points] or [0.0, 1.0]
    ys = [p[1] for p in points] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10:.1f}" text-anchor="middle">complexity rank</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<line x1="{left - 4}" y1="{py(y):.1f}" x2="{left}" y2="{py(y):.1f}" stroke="black"/>'
            f'<text x="{left - 8:.1f}" y="{py(y) + 4:.1f}" text-anchor="end">{y:.2f}</text>'
        )
    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{top + plot_h}" x2="{px(x):.1f}" y2="{top + plot_h + 4}" stroke="black"/>'
            f'<text x="{px(x):.1f}" y="{top + plot_h + 18:.1f}" text-anchor="middle">{x:.0f}</text>'
        )
    for j, (name, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS.get(name, "#555555")
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}" fill-opacity="0.7"/>')
        lx = left + plot_w - 110
        ly = top + 14 + 16 * j
        parts.append(
            f'<circle cx="{lx:.1f}" cy="{ly - 4:.1f}" r="4" fill="{color}"/>'
            f'<text x="{lx + 10:.1f}" y="{ly:.1f}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", "utf-8")


def write_bench_plots(rows: Sequence[dict], out_dir: Path) -> None:
    ranks: Dict[str, int] = {}
    order = sorted({(r["complexity"], r["instance"]) for r in rows})
    for rank, (_, name) in enumerate(order, start=1):
        ranks[name] = rank

    quality: Dict[str, List[Tuple[float, float]]] = {}
    runtime: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        x = float(ranks[row["instance"]])
        if row["quality"] is not None and row["algorithm"] != "exact":
            quality.setdefault(row["algorithm"], []).append((x, row["quality"]))
        runtime.setdefault(row["algorithm"], []).append(
            (x, math.log10(max(row["runtime_s"], 1e-5)))
        )
    write_scatter_svg(out_dir / "quality.svg", quality, "Solution quality", "objective / reference")
    write_scatter_svg(out_dir / "runtime.svg", runtime, "Runtime", "log10(seconds)")


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    instance_dir = Path(args.instances)
    paths = sorted(str(p) for p in instance_dir.glob("*.json"))
    if not paths:
        print(f"no instance files (*.json) in {instance_dir}", file=sys.stderr)
        return EXIT_INVALID
    rows = bench_rows(
        paths,
        _problem_of(parser, args),
        [int(m) for m in args.modes],
        args.algos,
        seed=args.seed,
        time_limit=args.time_limit,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(rows, out_dir / "report.csv")
    write_ratio_csv(ratio_rows(rows), out_dir / "ratios.csv")
    write_bench_plots(rows, out_dir)

    for algo in args.algos:
        qualities = [r["quality"] for r in rows if r["algorithm"] == algo and r["quality"] is not None]
        if qualities:
            print(f"{algo}: mean quality {sum(qualities) / len(qualities):.4f} over {len(qualities)} runs")
    print(f"report written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolabel", description="Temporal map labeling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="extract an instance from a scenario")
    source = p_gen.add_mutually_exclusive_group()
    source.add_argument("scenario", nargs="?", help="scenario JSON file (omit to synthesize)")
    source.add_argument("--demo", action="store_true", help="use the bundled demo scenario")
    p_gen.add_argument("--seed", type=int, help="synthesized scenario's seed (default 0)")
    p_gen.add_argument("--out", help="instance output path (default: stdout)")
    p_gen.add_argument("--scenario-out", help="also write the scenario JSON here")
    p_gen.add_argument(
        "--min-activity",
        type=_seconds,
        default=1.0,
        metavar="S",
        help="drop presence intervals shorter than S seconds (default 1.0)",
    )
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="exact")
    p_solve.add_argument("--out", help="solution output path (sidecar at <out>.meta.json)")
    _add_problem_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="check a solution against an instance")
    p_val.add_argument("instance")
    p_val.add_argument("solution")
    _add_problem_flags(p_val)
    p_val.add_argument(
        "--min-activity",
        type=_seconds,
        default=0.0,
        metavar="S",
        help="minimum activity duration to enforce (default 0)",
    )
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("graph-dump", help="dump the candidate conflict graph")
    p_dump.add_argument("instance")
    p_dump.add_argument("--am", type=int, choices=(1, 2, 3), default=1)
    p_dump.add_argument("--out", help="output path (default: stdout)")
    p_dump.set_defaults(func=cmd_graph_dump)

    p_bench = sub.add_parser("bench", help="run the benchmark matrix over a directory")
    p_bench.add_argument("instances", help="directory of instance JSON files")
    p_bench.add_argument("--out-dir", default="bench-out")
    p_bench.add_argument(
        "--algos", type=_items_of(ALGORITHMS), default="exact,greedy,pls,intgraph",
        help="comma-separated",
    )
    p_bench.add_argument(
        "--modes", type=_items_of(("1", "2", "3")), default="1,2,3",
        help="comma-separated activity models",
    )
    p_bench.add_argument("--problem", choices=("gmt", "krmt"), default="gmt")
    p_bench.add_argument("--k", type=int, default=None)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ParseError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
