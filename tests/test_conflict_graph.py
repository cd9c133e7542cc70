import numpy as np
import pytest
from hypothesis import given, settings

from chronolabel import conflict_graph
from chronolabel.conflict_graph import SizeLimitExceeded, build_graph
from chronolabel.cli import apply_min_activity
from chronolabel.model import ConflictEntry, Instance, Label, TimeInterval
from chronolabel.scenario import extract_instance, synthesize_scenario
from chronolabel.validation import AmMode, check_valid

from conftest import instance_graphs, navigation_corpus, random_instance
from oracle import _conflicting_pairs, build_graph_reference


def intervals_of(graph, label):
    return sorted((graph.starts[v], graph.ends[v]) for v in ids_of(graph, label))


def ids_of(graph, label, end=None):
    """The ids of the label's candidates, those ending at ``end`` if given."""
    return [
        v
        for v, lid in enumerate(graph.label_ids)
        if lid == label and end in (None, graph.ends[v])
    ]


def candidate_keys(graph) -> list:
    """(label, presence index, start, end) per candidate id."""
    return list(zip(graph.label_ids, graph.presence_indices, graph.starts, graph.ends))


class TestBuildGraph:
    def test_am1(self, i1):
        graph = build_graph(i1, AmMode.AM1)
        assert len(graph) == 3
        assert all(len(m) == 1 for m in graph.clusters.values())
        assert graph.edge_count == 1
        [c1], [c2] = ids_of(graph, "l1"), ids_of(graph, "l2")
        assert graph.neighbors(c1) == {c2}

    def test_am2(self, i1):
        graph = build_graph(i1, AmMode.AM2)
        assert len(graph) == 5
        assert intervals_of(graph, "l1") == [(0.0, 4.0), (0.0, 10.0)]
        assert intervals_of(graph, "l2") == [(0.0, 4.0), (0.0, 10.0)]
        assert intervals_of(graph, "l3") == [(2.0, 8.0)]

    def test_am3(self, i1):
        graph = build_graph(i1, AmMode.AM3)
        assert len(graph) == 7
        assert intervals_of(graph, "l2") == [(0.0, 4.0), (0.0, 10.0), (6.0, 10.0)]

    def test_candidate_ids_deterministic(self, i1):
        graph = build_graph(i1, AmMode.AM3)
        keys = candidate_keys(graph)
        assert len(keys) == len(graph)
        assert keys == sorted(keys)

    def test_clusters_are_cliques(self):
        for seed in range(20):
            instance = random_instance(seed)
            graph = build_graph(instance, AmMode.AM3)
            for members in graph.clusters.values():
                for i, u in enumerate(members):
                    for v in members[i + 1 :]:
                        assert v in graph.neighbors(u)

    def test_graph_symmetric_and_loop_free(self):
        for seed in range(20):
            graph = build_graph(random_instance(seed), AmMode.AM3)
            for u in range(len(graph)):
                assert u not in graph.neighbors(u)
                for v in graph.neighbors(u):
                    assert u in graph.neighbors(v)

    def test_candidate_interval_containment(self):
        # the solvers read the activity model off the candidates: AM1 ones
        # span their presence, AM2 ones start at it
        for seed in range(20):
            instance = random_instance(seed)
            for mode in AmMode:
                graph = build_graph(instance, mode)
                for lid, pi, start, end in candidate_keys(graph):
                    presence = instance.presences_of(lid)[pi]
                    assert presence.contains(TimeInterval(start, end))
                    assert start < end
                    if mode is AmMode.AM1:
                        assert (start, end) == (presence.start, presence.end)
                    if mode is AmMode.AM2:
                        assert start == presence.start

    def test_candidate_nesting_am1_am2_am3(self):
        for seed in range(20):
            instance = random_instance(seed)
            sets = {mode: set(candidate_keys(build_graph(instance, mode))) for mode in AmMode}
            assert sets[AmMode.AM1] <= sets[AmMode.AM2] <= sets[AmMode.AM3]

    @settings(max_examples=40, deadline=None)
    @given(instance_graph=instance_graphs())
    def test_candidates_match_columns(self, instance_graph):
        instance, graph = instance_graph
        columns = (graph.starts, graph.ends, graph.weights, graph.label_ids, graph.presence_indices)
        assert {len(column) for column in columns} == {len(graph)}
        for v, (start, end, weight, lid, pi) in enumerate(zip(*columns)):
            assert weight == TimeInterval(start, end).length * instance.labels[lid].weight
            assert graph.clusters[lid, pi] == list(graph.cluster_of[v])

    def test_size_guard(self, i1, monkeypatch):
        monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", 3)
        with pytest.raises(SizeLimitExceeded):
            build_graph(i1, AmMode.AM3)

    def test_size_guard_on_kept_graph(self, monkeypatch):
        instance = pairwise_conflicts()
        graph = build_graph(instance, AmMode.AM1)
        for limit, what in ((3, "candidates"), (5, "edges")):
            monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", limit)
            with pytest.raises(SizeLimitExceeded, match=f"more than {limit} {what}"):
                build_graph(instance, AmMode.AM1)
        monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", 6)
        assert build_graph(instance, AmMode.AM1) is graph

    def test_edge_guard(self, monkeypatch):
        # four labels in pairwise conflict: 4 candidates and 6 cross edges at AM1
        lids = ("a", "b", "c", "d")
        instance = Instance(
            horizon=10.0,
            labels={lid: Label(lid, 1.0, lid) for lid in lids},
            presences={lid: (TimeInterval(0.0, 10.0),) for lid in lids},
            conflicts=tuple(
                ConflictEntry(a, b, TimeInterval(4.0, 6.0)) for a in lids for b in lids if a < b
            ),
        )
        monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", 4)
        with pytest.raises(SizeLimitExceeded, match="edges"):
            build_graph(instance, AmMode.AM1)
        monkeypatch.setattr(conflict_graph, "SIZE_LIMIT", 6)
        assert build_graph(instance, AmMode.AM1).edge_count == 6

    def test_independent_set_passes_check_valid(self):
        for seed in range(30):
            instance = random_instance(seed)
            graph = build_graph(instance, AmMode.AM3)
            selection = []
            for v in range(len(graph)):
                if graph.neighbors(v).isdisjoint(selection):
                    selection.append(v)
            phi = graph.to_activity_set(selection)
            assert check_valid(instance, phi).valid


def pairwise_conflicts() -> Instance:
    """Four labels in pairwise conflict: 4 candidates and 6 cross edges at AM1."""
    lids = ("a", "b", "c", "d")
    return Instance(
        horizon=10.0,
        labels={lid: Label(lid, 1.0, lid) for lid in lids},
        presences={lid: (TimeInterval(0.0, 10.0),) for lid in lids},
        conflicts=tuple(
            ConflictEntry(a, b, TimeInterval(4.0, 6.0)) for a in lids for b in lids if a < b
        ),
    )


@pytest.fixture(scope="module")
def scenario_21():
    return apply_min_activity(extract_instance(synthesize_scenario(21)), 1.0)


@pytest.mark.parametrize(
    "mode, size",
    [(AmMode.AM1, (95, 94)), (AmMode.AM2, (507, 14735)), (AmMode.AM3, (3369, 738411))],
    ids=["am1", "am2", "am3"],
)
def test_scenario_21_graph_size(scenario_21, mode, size):
    # Scenario 21 has the largest AM3 graph of the synthetic drives 0-599.
    graph = build_graph(scenario_21, mode)
    assert (len(graph), graph.edge_count) == size


class TestCandidateConflict:
    def test_boundary_touch(self, i1):
        graph = build_graph(i1, AmMode.AM2)
        [c1], [c2_short], [c2_full] = (
            ids_of(graph, "l1", 10.0), ids_of(graph, "l2", 4.0), ids_of(graph, "l2", 10.0)
        )
        assert c2_short not in graph.neighbors(c1)
        assert c2_full in graph.neighbors(c1)

    def test_no_conflict_entry(self, i1):
        graph = build_graph(i1, AmMode.AM1)
        [c1], [c3] = ids_of(graph, "l1"), ids_of(graph, "l3")
        assert c3 not in graph.neighbors(c1)


def cluster_and_oracle_edges(instance, graph) -> set:
    """Undirected edges: cluster cliques plus the oracle's conflicting pairs."""
    edges = {
        frozenset((u, v))
        for members in graph.clusters.values()
        for u in members
        for v in members
        if u != v
    }
    edges.update(frozenset(p) for p in _conflicting_pairs(instance, graph))
    return edges


def graph_edges(graph) -> set:
    return {frozenset((u, v)) for u in range(len(graph)) for v in graph.neighbors(u)}


def test_edges_match_oracle():
    instances = [random_instance(seed) for seed in range(50)]
    instances += [instance for _, instance in navigation_corpus(3)]
    for instance in instances:
        for mode in AmMode:
            graph = build_graph(instance, mode)
            edges = graph_edges(graph)
            assert edges == cluster_and_oracle_edges(instance, graph)
            assert graph.edge_count == len(edges)
            for v in range(len(graph)):
                # Saturation reads the cross neighbours past the cluster mates
                ids, mates = graph.neighbor_ids(v), graph.cluster_of[v]
                assert ids[: len(mates) - 1] == [u for u in mates if u != v]
                assert len(set(ids)) == len(ids) and set(ids) == graph.neighbors(v)


def test_zero_length_presence_with_zero_length_conflict():
    # "b" is present only at t=5, where it touches "a"; it has no candidates
    instance = Instance(
        horizon=10.0,
        labels={lid: Label(lid, 1.0, lid) for lid in ("a", "b")},
        presences={"a": (TimeInterval(0.0, 10.0),), "b": (TimeInterval(5.0, 5.0),)},
        conflicts=(ConflictEntry("a", "b", TimeInterval(5.0, 5.0)),),
    )
    sizes = []
    for mode in AmMode:
        graph = build_graph(instance, mode)
        assert graph_edges(graph) == cluster_and_oracle_edges(instance, graph)
        sizes.append((len(graph), graph.edge_count))
    assert sizes == [(1, 0), (2, 1), (3, 3)]



def blocks_of(graph) -> dict:
    """The graph's boolean block per conflicting label pair, by (a, b) with a < b."""
    return {
        (a, graph.label_ids[first]): block
        for a, rows in graph._rows.items()
        for first, block in rows
        if a < graph.label_ids[first]
    }


def assert_same_graph(graph, reference):
    columns = ("starts", "ends", "weights", "label_ids", "presence_indices")
    for name in columns:
        assert getattr(graph, name) == getattr(reference, name), name
    assert list(graph.clusters.items()) == list(reference.clusters.items())
    assert graph.edge_count == reference.edge_count
    blocks, expected = blocks_of(graph), blocks_of(reference)
    assert list(blocks) == list(expected)
    for pair, block in blocks.items():
        assert block.dtype == bool and np.array_equal(block, expected[pair]), pair


def test_graph_matches_reference_builder():
    instances = [random_instance(seed) for seed in range(50)]
    instances += [instance for _, instance in navigation_corpus(3)]
    for instance in instances:
        for mode in AmMode:
            assert_same_graph(build_graph(instance, mode), build_graph_reference(instance, mode))


@pytest.mark.parametrize("mode", list(AmMode), ids=["am1", "am2", "am3"])
def test_graph_matches_reference_builder_generated(mode):
    @settings(max_examples=20, deadline=None)
    @given(instance_graph=instance_graphs(modes=(mode,)))
    def check(instance_graph):
        instance, graph = instance_graph
        assert_same_graph(graph, build_graph_reference(instance, mode))

    check()
