import functools
import random

import pytest
from hypothesis import strategies as st

from chronolabel.cli import apply_min_activity
from chronolabel.conflict_graph import build_graph
from chronolabel.model import (
    ConflictEntry,
    Instance,
    Label,
    TimeInterval,
    complexity,
)
from chronolabel.scenario import extract_instance, synthesize_scenario
from chronolabel.validation import AmMode

NAV_COMPLEXITY = (100, 3000)


def build_i1() -> Instance:
    """Three unit-weight labels on [0,10] with a single conflict (l1,l2):[4,6]."""
    labels = {lid: Label(lid, 1.0, lid) for lid in ("l1", "l2", "l3")}
    return Instance(
        horizon=10.0,
        labels=labels,
        presences={
            "l1": (TimeInterval(0.0, 10.0),),
            "l2": (TimeInterval(0.0, 10.0),),
            "l3": (TimeInterval(2.0, 8.0),),
        },
        conflicts=(ConflictEntry("l1", "l2", TimeInterval(4.0, 6.0)),),
    )


@pytest.fixture
def i1() -> Instance:
    return build_i1()


def random_instance(
    seed: int,
    max_labels: int = 5,
    max_presences_per_label: int = 2,
    max_conflicts: int = 15,
    horizon: float = 10.0,
) -> Instance:
    """Small random instance on a 0.5-second grid (all arithmetic exact)."""
    rng = random.Random(seed)
    n_labels = rng.randint(1, max_labels)
    labels = {}
    presences = {}
    grid = int(horizon * 2)  # half-second steps

    def t(step: int) -> float:
        return step / 2.0

    for i in range(n_labels):
        lid = f"l{i}"
        labels[lid] = Label(lid, float(rng.randint(1, 5)), lid)
        intervals = []
        cursor = 0
        for _ in range(rng.randint(1, max_presences_per_label)):
            if cursor >= grid - 1:
                break
            start = rng.randint(cursor, grid - 1)
            end = rng.randint(start + 1, grid)
            intervals.append(TimeInterval(t(start), t(end)))
            cursor = end + 1
        if intervals:
            presences[lid] = tuple(intervals)

    conflicts = []
    used = {}  # pair -> list of (start_step, end_step)
    lids = sorted(presences)
    n_conflicts = rng.randint(0, max_conflicts)
    for _ in range(n_conflicts * 3):
        if len(conflicts) >= n_conflicts or len(lids) < 2:
            break
        a, b = sorted(rng.sample(lids, 2))
        pa = rng.choice(presences[a])
        pb = rng.choice(presences[b])
        lo = max(pa.start, pb.start)
        hi = min(pa.end, pb.end)
        lo_s, hi_s = int(lo * 2), int(hi * 2)
        if hi_s - lo_s < 1:
            continue
        s = rng.randint(lo_s, hi_s - 1)
        e = rng.randint(s + 1, hi_s)
        if any(s <= oe and os_ <= e for os_, oe in used.get((a, b), [])):
            continue
        used.setdefault((a, b), []).append((s, e))
        conflicts.append(ConflictEntry(a, b, TimeInterval(t(s), t(e))))

    return Instance(
        horizon=horizon,
        labels=labels,
        presences=presences,
        conflicts=tuple(sorted(conflicts, key=lambda c: (c.a, c.b, c.interval))),
    )


def navigation_corpus(size: int) -> list:
    """The first ``size`` synthetic drives, by seed, as ``(seed, instance)``.

    Presences shorter than 1 s are dropped, and only instances whose
    complexity lies in ``NAV_COMPLEXITY`` are kept.
    """
    corpus = []
    seed = 0
    while len(corpus) < size:
        instance = apply_min_activity(extract_instance(synthesize_scenario(seed)), 1.0)
        if NAV_COMPLEXITY[0] <= complexity(instance) <= NAV_COMPLEXITY[1]:
            corpus.append((seed, instance))
        seed += 1
    return corpus


@functools.lru_cache(maxsize=None)
def _corpus_graph(index: int, mode: AmMode) -> tuple:
    instance = navigation_corpus(index + 1)[index][1]
    return instance, build_graph(instance, mode)


def instance_graphs(modes=tuple(AmMode)):
    """``(instance, graph)`` of a random instance or of one of the first two
    navigation-corpus instances, in one of ``modes``."""

    def random_graph(seed: int, mode: AmMode) -> tuple:
        instance = random_instance(seed)
        return instance, build_graph(instance, mode)

    modes = st.sampled_from(modes)
    return st.one_of(
        st.builds(random_graph, st.integers(0, 10**6), modes),
        st.builds(_corpus_graph, st.integers(0, 1), modes),
    )


def count_group_nodes(monkeypatch) -> dict:
    """Count the search nodes (``_GroupSolver.solve`` calls) of every group
    solver made from now on; the returned dict maps each solver to its
    count, in the order the solvers were first used."""
    from chronolabel.solvers import _GroupSolver

    nodes: dict = {}
    solve = _GroupSolver.solve

    def counting(self, *args):
        nodes[self] = nodes.get(self, 0) + 1
        return solve(self, *args)

    monkeypatch.setattr(_GroupSolver, "solve", counting)
    return nodes
