"""Spans around the package's public entry points, for the traced run only.

``Tracer.install`` replaces each traced function with a timing wrapper at
the module attribute the package (or the benchmark) calls it through, and
``Tracer.uninstall`` puts the originals back.  Spans live in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

from chronolabel import cli, model, scenario, solvers, validation

SOLVE_SPANS = ("solve_exact", "solve_greedy", "solve_pls", "solve_intgraph")
# Spans that post-process the solve before them rather than start new work.
AFTER_SOLVE = ("check_model", "dump_solution")


def _extract_info(args, kwargs, result) -> dict:
    return {
        "presences": sum(len(v) for v in result.presences.values()),
        "conflicts": len(result.conflicts),
    }


def _build_info(args, kwargs, result) -> dict:
    return {"instance": args[0], "mode": args[1], "vertices": len(result), "edges": result.edge_count}


# (module, attribute, span name, info function)
TRACED = (
    (scenario, "extract_instance", "extract_instance", _extract_info),
    (cli, "apply_min_activity", "apply_min_activity", None),
    (model, "load_instance", "load_instance", None),
    (model, "dump_instance", "dump_instance", lambda a, k, r: {"bytes": len(r.encode())}),
    (model, "dump_solution", "dump_solution", None),
    (solvers, "solve_exact", "solve_exact", None),
    (solvers, "solve_greedy", "solve_greedy", None),
    (solvers, "solve_pls", "solve_pls", None),
    (solvers, "solve_intgraph", "solve_intgraph", None),
    (solvers, "build_graph", "build_graph", _build_info),
    (solvers, "repair_selection", "repair_selection", None),
    (solvers, "saturate_excluding", "saturate_excluding", None),
    (validation, "saturate_excluding", "saturate_excluding", None),
    (solvers, "mwis_intervals", "mwis_intervals", None),
    (solvers, "is_justified", "is_justified", None),
    (validation, "is_justified", "is_justified", None),
    (validation, "check_model", "check_model", lambda a, k, r: {"violations": len(r.violations)}),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, solve]``: ``parent`` indexes the
    enclosing span (-1 at top level) and ``solve`` numbers the solve the span
    belongs to (-1 outside any solve).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.info: Dict[int, dict] = {}
        self.solve_ids: List[int] = []
        self._stack: List[int] = []
        self._solve = -1
        self._saved: list = []

    def _wrap(self, fn: Callable, name: str, describe: Optional[Callable]) -> Callable:
        spans, stack, info = self.spans, self._stack, self.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            if not stack:
                if name in SOLVE_SPANS:
                    self._solve = len(self.solve_ids)
                    self.solve_ids.append(index)
                elif name not in AFTER_SOLVE:
                    self._solve = -1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._solve]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                info[index] = describe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, describe in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, describe))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def solve_build_s(self) -> List[float]:
        """Graph-build seconds per solve, indexed by solve number."""
        out = [0.0] * len(self.solve_ids)
        for name, start, end, _, solve in self.spans:
            if name == "build_graph" and solve >= 0:
                out[solve] += end - start
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Per-module figures: busy seconds, call counts and work counts."""
        busy: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_s[parent] += end - start
        self_s: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in SOLVE_SPANS:
                self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[index])

        extract = [self.info[i] for i, s in enumerate(self.spans) if s[0] == "extract_instance"]
        build_s = {1: 0.0, 2: 0.0, 3: 0.0}
        graphs: Dict[tuple, dict] = {}
        builds = 0
        violations = 0
        instance_bytes = 0
        for index, span in enumerate(self.spans):
            name = span[0]
            if name == "build_graph":
                detail = self.info[index]
                builds += 1
                build_s[detail["mode"].value] += span[2] - span[1]
                graphs.setdefault((id(detail["instance"]), detail["mode"]), detail)
            elif name == "check_model":
                violations += self.info[index]["violations"]
            elif name == "dump_instance":
                instance_bytes += self.info[index]["bytes"]

        out = {
            "scenario.extract_s": busy.get("extract_instance", 0.0),
            "scenario.extract_calls": calls.get("extract_instance", 0),
            "scenario.presences": sum(d["presences"] for d in extract),
            "scenario.conflicts": sum(d["conflicts"] for d in extract),
            "cli.apply_min_activity_s": busy.get("apply_min_activity", 0.0),
            "model.load_instance_s": busy.get("load_instance", 0.0),
            "model.dump_instance_s": busy.get("dump_instance", 0.0),
            "model.dump_solution_s": busy.get("dump_solution", 0.0),
            "model.instance_bytes": instance_bytes,
            "conflict_graph.build_s.am1": build_s[1],
            "conflict_graph.build_s.am2": build_s[2],
            "conflict_graph.build_s.am3": build_s[3],
            "conflict_graph.build_calls": builds,
            "conflict_graph.builds_per_graph": builds / len(graphs) if graphs else 0.0,
            "conflict_graph.vertices": sum(d["vertices"] for d in graphs.values()),
            "conflict_graph.edges": sum(d["edges"] for d in graphs.values()),
            "solvers.repair_s": busy.get("repair_selection", 0.0),
            "solvers.repair_calls": calls.get("repair_selection", 0),
            "solvers.mwis_s": busy.get("mwis_intervals", 0.0),
            "solvers.mwis_calls": calls.get("mwis_intervals", 0),
            "validation.check_model_s": busy.get("check_model", 0.0),
            "validation.check_model_calls": calls.get("check_model", 0),
            "validation.is_justified_s": busy.get("is_justified", 0.0),
            "validation.is_justified_calls": calls.get("is_justified", 0),
            "validation.saturate_s": busy.get("saturate_excluding", 0.0),
            "validation.violations": violations,
        }
        for name in SOLVE_SPANS:
            out[f"solvers.{name[len('solve_'):]}.self_s"] = self_s.get(name, 0.0)
        return out

