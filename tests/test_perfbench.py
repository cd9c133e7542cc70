"""Checks on the benchmark's hooks into the package (perfbench/)."""

import importlib.util
from pathlib import Path

from chronolabel import solvers
from chronolabel.conflict_graph import build_graph
from chronolabel.validation import AmMode

from conftest import navigation_corpus
from oracle import _conflicting_pairs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_attributes_exist():
    # The traced run wraps each (module, attribute) by name, so a rename or
    # deletion in the package must fail here rather than in the traced run.
    tracing = _load_tracing()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_build_info_counts_match_oracle():
    # The per-layer conflict_graph.vertices/edges figures come from
    # _build_info, which reads len(graph) and graph.edge_count.
    tracing = _load_tracing()
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
