"""Checks on the benchmark's hooks into the package (perfbench/)."""

import sys
from pathlib import Path

import pytest

from chronolabel import solvers
from chronolabel.conflict_graph import build_graph
from chronolabel.validation import AmMode

from conftest import navigation_corpus
from oracle import _conflicting_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench
import tracing
import workloads


def test_traced_attributes_exist():
    # The traced run wraps each (module, attribute) by name, so a rename or
    # deletion in the package must fail here rather than in the traced run.
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_build_info_counts_match_oracle():
    # The per-layer conflict_graph.vertices/edges figures come from
    # _build_info, which reads len(graph) and graph.edge_count.
    tracer = tracing.Tracer()
    vertices = edges = 0
    tracer.install()
    try:
        for _, instance in navigation_corpus(3):
            for mode in AmMode:
                solvers.solve_greedy(instance, solvers.GMT, mode)
                graph = build_graph(instance, mode)  # the untraced original
                cliques = sum(len(m) * (len(m) - 1) // 2 for m in graph.clusters.values())
                want = cliques + len(_conflicting_pairs(instance, graph))
                info = tracing._build_info((instance, mode), {}, graph)
                assert (info["vertices"], info["edges"]) == (len(graph), want)
                vertices += len(graph)
                edges += want
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["conflict_graph.vertices"] == vertices
    assert metrics["conflict_graph.edges"] == edges


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_pass_clears_gate(workload):
    # One pass over scenario 21 alone, through every name the benchmark
    # reads from the package, so a rename fails here and not in a run.
    requests = workloads.requests(workload, workloads.nav_corpus(0, 0))
    loop = bench.run_loop(requests, 0.0)
    assert loop.passes == 1
    assert bench.gate(loop) == []
