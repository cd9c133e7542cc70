"""The post-solve path: justification repair, ``check_model`` and
``to_activity_set``, against the references in oracle.py."""

import functools
import random
import sys
from pathlib import Path

import pytest

from chronolabel import solvers
from chronolabel.cli import apply_min_activity
from chronolabel.conflict_graph import ConflictGraph, build_graph
from chronolabel.model import TimeInterval, make_activity_set, objective
from chronolabel.scenario import extract_instance, synthesize_scenario
from chronolabel.solvers import GMT, _greedy_selection, krmt, repair_selection, solve_intgraph, solve_pls
from chronolabel.validation import AmMode, Saturation, check_model, is_justified

from oracle import (
    _activity_set_reference,
    check_model_reference,
    is_justified_reference,
    repair_reference,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SCENARIOS = range(40)  # scenario 21, the largest AM3 graph of the first 600, among them


@functools.lru_cache(maxsize=None)
def nav_scenario(seed: int):
    return apply_min_activity(extract_instance(synthesize_scenario(seed)), 1.0)


def random_maximal(graph, seed: int) -> set:
    """A maximal independent set, candidates taken in a seeded random order."""
    order = list(range(len(graph)))
    random.Random(seed).shuffle(order)
    blocked = [False] * len(graph)
    selection = set()
    for v in order:
        if not blocked[v]:
            selection.add(v)
            for u in graph.neighbor_ids(v):
                blocked[u] = True
    return selection


def selections():
    """(scenario, mode, instance, graph, selection): the greedy selection and
    a random maximal independent set of each scenario graph."""
    for seed in SCENARIOS:
        instance = nav_scenario(seed)
        for mode in AmMode:
            graph = build_graph(instance, mode)
            yield seed, mode, instance, graph, _greedy_selection(graph, None)
            yield seed, mode, instance, graph, random_maximal(graph, 3 * seed + mode.value)


def test_repair_matches_reference():
    repaired = 0
    for seed, mode, instance, graph, selection in selections():
        out = repair_selection(instance, graph, selection)
        assert out == repair_reference(instance, graph, selection), (seed, mode)
        repaired += out != selection
    assert repaired > 20  # most random sets need swaps or drops


def test_check_model_matches_reference_on_selections():
    for seed, mode, instance, graph, selection in selections():
        repaired = repair_selection(instance, graph, selection)
        for phi in (graph.to_activity_set(selection), graph.to_activity_set(repaired)):
            for checked in AmMode:
                for k in (None, 2):
                    got = check_model(instance, phi, checked, k=k, min_duration=2.0)
                    want = check_model_reference(instance, phi, checked, k=k, min_duration=2.0)
                    assert got.to_json() == want.to_json(), (seed, mode, checked, k)
        assert check_model(instance, graph.to_activity_set(repaired), mode).valid


@pytest.mark.parametrize("seed", [0, 91])
def test_checks_match_reference_on_heuristic_corpus(seed):
    # perfbench's nav-heuristic corpus: the greedy and IntGraph outputs, the
    # unrepaired greedy selections and random maximal independent sets
    for unit, (_, instance) in enumerate(workloads.nav_corpus(seed, workloads.HEURISTIC_PREFIX)):
        phis = []
        for mode in AmMode:
            graph = build_graph(instance, mode)
            for problem in (GMT, krmt(2)):
                phis.append(solve_intgraph(instance, problem, mode).phi)
            selection = _greedy_selection(graph, None)
            phis.append(graph.to_activity_set(selection))
            phis.append(graph.to_activity_set(repair_selection(instance, graph, selection)))
            phis.append(graph.to_activity_set(random_maximal(graph, unit + mode.value)))
        for phi in phis:
            for mode in AmMode:
                for k in (None, 1, 2):
                    got = check_model(instance, phi, mode, k=k)
                    want = check_model_reference(instance, phi, mode, k=k)
                    assert got.to_json() == want.to_json(), (seed, unit, mode, k)
            for lid, ivs in phi.items():
                for iv in ivs:
                    got = is_justified(instance, phi, lid, iv)
                    assert got == is_justified_reference(instance, phi, lid, iv), (seed, unit, lid, iv)


def broken_sets(instance):
    """(rule, activity set, k, min_duration) cases, each meant to break ``rule``."""
    full = {lid: list(ivs) for lid, ivs in instance.presences.items()}
    yield "R3", full, None, 0.0
    yield "K-BOUND", full, 1, 0.0
    yield "MIN-DUR", full, None, 1e9
    # a label with a long first presence that is in conflict with another
    lid = next(
        lid
        for lid in sorted(instance.presences)
        if instance.conflicts_of(lid) and instance.presences[lid][0].length > 4
    )
    p = instance.presences[lid][0]
    third = p.length / 3
    alone = {other: ivs for other, ivs in full.items() if other != lid}
    for rule, ivs in (
        ("R1", [TimeInterval(p.start, p.end + 0.5)]),
        ("R2", [TimeInterval(p.start, p.start + third), TimeInterval(p.end - third, p.end)]),
        ("AM-start", [TimeInterval(p.start + 0.37 * third, p.end)]),
        ("AM-end", [TimeInterval(p.start, p.end - 0.37 * third)]),
    ):
        yield rule, {**alone, lid: ivs}, None, 0.0
    # three activities in the first presence of every label, one of them
    # outside it when the label has a second presence
    many = {}
    for other, (p, *later) in instance.presences.items():
        step = p.length / 3
        many[other] = [TimeInterval(p.start + i * step, p.start + (i + 0.5) * step) for i in range(3)]
        many[other] += [TimeInterval(p.end, later[0].start)] if later else []
    yield "R2", many, None, 0.0
    # a zero-length activity inside a conflict with a shown label is no R3
    other, conflict = instance.conflicts_of(lid)[0]
    point = [TimeInterval(conflict.start, conflict.start)]
    yield "MIN-DUR", {lid: point, other: list(instance.presences[other])}, None, 0.5


@pytest.mark.parametrize("seed", [0, 5, 21, 33])
def test_check_model_matches_reference_on_broken_sets(seed):
    instance = nav_scenario(seed)
    for rule, raw, k, min_duration in broken_sets(instance):
        phi = make_activity_set(raw)
        hit = set()
        for mode in AmMode:
            got = check_model(instance, phi, mode, k=k, min_duration=min_duration)
            want = check_model_reference(instance, phi, mode, k=k, min_duration=min_duration)
            assert got.to_json() == want.to_json(), (rule, mode)
            hit |= {v.rule for v in got.violations}
        assert rule in hit, rule


def count_reads(monkeypatch) -> list:
    """Count ``ConflictGraph.neighbor_ids`` calls, and Saturation swaps and
    drops, from now on: [reads, swaps, drops]."""
    counts = [0, 0, 0]
    reads, swap, drop = ConflictGraph.neighbor_ids, Saturation.swap, Saturation.drop

    def counting(index, fn):
        def wrapper(*args):
            counts[index] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ConflictGraph, "neighbor_ids", counting(0, reads))
    monkeypatch.setattr(Saturation, "swap", counting(1, swap))
    monkeypatch.setattr(Saturation, "drop", counting(2, drop))
    return counts


def pls_best_set(instance, mode) -> set:
    """The best set of a seed-0 PLS run, as handed to its repair."""
    seen = []

    def recording(instance, graph, selection):
        seen.append(set(selection))
        return repair_selection(instance, graph, selection)

    original = solvers.repair_selection
    solvers.repair_selection = recording
    try:
        solve_pls(instance, GMT, mode, seed=0)
    finally:
        solvers.repair_selection = original
    return seen[0]


@pytest.mark.parametrize("source", ["greedy", "pls"])
def test_repair_reads_each_row_once(monkeypatch, source):
    # The neighbour counts are built once per repair, not once per round:
    # one neighbour-id read per selected candidate, plus one for each
    # candidate a swap moves out or in and one per drop.
    instance = nav_scenario(21)
    graph = build_graph(instance, AmMode.AM3)
    if source == "greedy":
        selection = _greedy_selection(graph, None)
    else:
        selection = pls_best_set(instance, AmMode.AM3)
    counts = count_reads(monkeypatch)
    out = repair_selection(instance, graph, selection)
    reads, swaps, drops = counts
    assert drops == len(selection) - len(out)
    assert reads <= len(selection) + 2 * swaps + drops
    if source == "greedy":
        assert drops == 1  # two rounds: the counts would be rebuilt in the second


def test_activity_set_independent_of_insertion_order():
    instance = nav_scenario(21)
    graph = build_graph(instance, AmMode.AM3)
    selection = repair_selection(instance, graph, _greedy_selection(graph, None))
    ascending, descending = set(), set()
    for v in sorted(selection):
        ascending.add(v)
    for v in sorted(selection, reverse=True):
        descending.add(v)
    churned = set(range(len(graph))) | selection
    churned -= set(range(len(graph))) - selection
    phis = [graph.to_activity_set(s) for s in (ascending, descending, churned)]
    keys = [list(phi.activities) for phi in phis]
    assert keys[0] == keys[1] == keys[2] == sorted(keys[0])
    values = [objective(instance, phi).hex() for phi in phis]
    assert values[0] == values[1] == values[2]
    # the sets above iterate in different orders
    orders = [list(_activity_set_reference(graph, s).activities) for s in (ascending, descending, churned)]
    assert len({tuple(order) for order in orders}) > 1
