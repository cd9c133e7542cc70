import json
import math
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronolabel import solvers
from chronolabel.cli import apply_min_activity, main
from chronolabel.conflict_graph import ConflictGraph, build_graph
from chronolabel.model import (
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    TimeInterval,
    dump_instance,
    dump_solution,
    load_instance,
    load_solution,
    make_activity_set,
    objective,
)
from chronolabel.scenario import extract_instance, synthesize_scenario
from chronolabel.solvers import (
    GMT,
    PlsParams,
    Problem,
    Status,
    _Deadline,
    _GroupSolver,
    _GroupTimeout,
    _IgVertex,
    _PlsState,
    _greedy_selection,
    _k_sweep,
    _label_groups,
    _pls_select,
    _presence,
    _shorten,
    _slice_bound,
    _solve_group,
    _witness_requirements,
    krmt,
    mwis_intervals,
    repair_selection,
    solve_exact,
    solve_greedy,
    solve_intgraph,
    solve_pls,
)
from chronolabel.validation import AmMode, check_model

from conftest import count_group_nodes, instance_graphs, navigation_corpus, random_instance
from oracle import (
    brute_force_mwis,
    enumerate_optima,
    enumeration_search_space,
    greedy_reference,
    intgraph_reference,
    milp_gmt,
    pls_rescan,
    pls_select_reference,
    shorten_reference,
    slice_bound_reference,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# First navigation-corpus instances cross-checked against the MILP oracle;
# HiGHS needs about 12 s for their 36 GMT solves on a 2-CPU host.
MILP_NAV_INSTANCES = 12
# perfbench's nav-exact time limit, and the AM3 cap for KRMT cross-checks
NAV_TIME_LIMIT = 1.1


def nav_scenario(seed: int):
    return apply_min_activity(extract_instance(synthesize_scenario(seed)), 1.0)


def by_weight(graph):
    """Sort key: heaviest candidate first, ties by id."""
    return lambda v: (-graph.weights[v], v)


def usable_clusters(graph, requirements):
    """The clusters' candidates kept by a witness fixpoint, heaviest first,
    in cluster order; clusters left empty are dropped."""
    kept = [tuple(sorted((v for v in m if v in requirements), key=by_weight(graph)))
            for m in graph.clusters.values()]
    return [m for m in kept if m]


def slice_bound(instance, k: int) -> float:
    """Per slice between presence endpoints: length times the k largest
    weights of the labels present at its midpoint."""
    presences = [(lid, iv) for lid, ivs in instance.presences.items() for iv in ivs]
    points = sorted({p for _, iv in presences for p in (iv.start, iv.end)})
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        mid = 0.5 * (lo + hi)
        present = {lid for lid, iv in presences if iv.start < mid < iv.end}
        weights = sorted((instance.labels[lid].weight for lid in present), reverse=True)
        total += (hi - lo) * sum(weights[:k])
    return total


class TestExact:
    def test_i1_gmt_am1(self, i1):
        result = solve_exact(i1, GMT, AmMode.AM1)
        assert result.status is Status.OPTIMAL
        assert result.objective == 16.0
        assert result.upper_bound == result.objective

    def test_i1_gmt_am2(self, i1):
        result = solve_exact(i1, GMT, AmMode.AM2)
        assert result.objective == 20.0
        phi = result.phi
        assert check_model(i1, phi, AmMode.AM2).valid

    def test_i1_krmt1_am1(self, i1):
        result = solve_exact(i1, krmt(1), AmMode.AM1)
        assert result.objective == 10.0
        assert check_model(i1, result.phi, AmMode.AM1, k=1).valid

    def test_model_ordering_on_i1(self, i1):
        values = [solve_exact(i1, GMT, mode).objective for mode in AmMode]
        assert values[0] <= values[1] <= values[2]

    def test_matches_enumeration_oracle(self):
        for seed in range(25):
            instance = random_instance(seed, max_labels=4, max_conflicts=6)
            if enumeration_search_space(instance, AmMode.AM3) > 20000:
                continue
            for mode in AmMode:
                expected = enumerate_optima(instance, mode, ks=[None, 1, 2])
                for k, want in expected.items():
                    problem = GMT if k is None else krmt(k)
                    got = solve_exact(instance, problem, mode)
                    assert got.status is Status.OPTIMAL
                    assert got.objective == want, (seed, mode, k)

    def test_milp_oracle_matches_enumeration(self):
        pytest.importorskip("scipy.optimize")
        for seed in range(25):
            instance = random_instance(seed, max_labels=4, max_conflicts=6)
            if enumeration_search_space(instance, AmMode.AM3) > 20000:
                continue
            for mode in AmMode:
                want = enumerate_optima(instance, mode, ks=[None])[None]
                got, phi = milp_gmt(instance, mode)
                assert check_model(instance, phi, mode).valid
                assert got == pytest.approx(want, rel=1e-9), (seed, mode)

    def test_gmt_matches_milp_oracle_on_nav_corpus(self):
        pytest.importorskip("scipy.optimize")
        for seed, instance in navigation_corpus(MILP_NAV_INSTANCES):
            for mode in AmMode:
                want, phi = milp_gmt(instance, mode)
                assert check_model(instance, phi, mode).valid
                got = solve_exact(instance, GMT, mode, time_limit=60.0)
                assert got.status is Status.OPTIMAL, (seed, mode)
                assert got.objective == pytest.approx(want, rel=1e-9), (seed, mode)

    def test_krmt_matches_milp_oracle_on_nav_corpus(self):
        pytest.importorskip("scipy.optimize")
        am3_checked = 0
        for seed, instance in navigation_corpus(MILP_NAV_INSTANCES):
            for k in (1, 2):
                for mode in AmMode:
                    limit = NAV_TIME_LIMIT if mode is AmMode.AM3 else 60.0
                    got = solve_exact(instance, krmt(k), mode, time_limit=limit)
                    if mode is not AmMode.AM3:
                        assert got.status is Status.OPTIMAL, (seed, mode, k)
                    elif got.status is not Status.OPTIMAL:
                        continue
                    am3_checked += mode is AmMode.AM3
                    want, phi = milp_gmt(instance, mode, k=k)
                    assert check_model(instance, phi, mode, k=k).valid
                    assert got.objective == pytest.approx(want, rel=1e-9), (seed, mode, k)
        assert am3_checked >= MILP_NAV_INSTANCES

    def test_krmt_timeout_reports_slice_bound(self):
        instance = nav_scenario(2)
        result = solve_exact(instance, krmt(2), AmMode.AM3, time_limit=0.0)
        assert result.status is Status.FEASIBLE
        assert check_model(instance, result.phi, AmMode.AM3, k=2).valid
        assert result.upper_bound == pytest.approx(slice_bound(instance, 2), rel=1e-9)
        assert result.upper_bound >= result.objective
        assert result.upper_bound == pytest.approx(474.0, abs=0.05)

    def test_model_order_with_short_am3_limit(self, monkeypatch):
        builds = []

        def counting_build(instance, mode):
            builds.append(mode)
            return build_graph(instance, mode)

        monkeypatch.setattr("chronolabel.solvers.build_graph", counting_build)
        # scenario 21's GMT/AM3 search does not finish within 0.5 s
        cases = [(21, nav_scenario(21), GMT, 0.5)] + [
            (seed, instance, problem, NAV_TIME_LIMIT)
            for seed, instance in navigation_corpus(MILP_NAV_INSTANCES)
            for problem in (GMT, krmt(1), krmt(2))
        ]
        for seed, instance, problem, am3_limit in cases:
            values = []
            for mode in AmMode:
                limit = am3_limit if mode is AmMode.AM3 else 60.0
                builds.clear()
                result = solve_exact(instance, problem, mode, time_limit=limit)
                assert builds == [mode]
                assert check_model(instance, result.phi, mode, k=problem.k).valid
                if result.status is Status.FEASIBLE and problem.k is not None:
                    bound = slice_bound(instance, problem.k)
                    assert result.upper_bound == pytest.approx(bound, rel=1e-9)
                assert result.upper_bound >= result.objective * (1 - 1e-9)
                values.append(result.objective)
            # equal optima may sum their activities in another order
            tol = 1e-9 * values[0]
            assert values[0] <= values[1] + tol and values[1] <= values[2] + tol, (seed, problem)

    def test_krmt_am1_proven_within_nav_limit(self):
        instances = [(21, nav_scenario(21))] + navigation_corpus(20)
        for seed, instance in instances:
            for k in (1, 2):
                result = solve_exact(instance, krmt(k), AmMode.AM1, time_limit=NAV_TIME_LIMIT)
                assert result.status is Status.OPTIMAL, (seed, k)
                assert result.upper_bound == result.objective

    @pytest.mark.parametrize("mode", [AmMode.AM2, AmMode.AM3])
    def test_cluster_adjacency_from_full_presence_candidates(self, mode):
        for _, instance in navigation_corpus(3):
            graph = build_graph(instance, mode)
            for part in _label_groups(instance, graph):
                requirements = _witness_requirements(instance, graph, part)
                kept = usable_clusters(graph, requirements)
                solver = _GroupSolver(graph, requirements, kept, deadline=None)
                # two clusters are linked iff any of their candidates are adjacent
                expected = [
                    {
                        j
                        for j, other in enumerate(kept)
                        if j != i and any(not graph.neighbors(u).isdisjoint(other) for u in m)
                    }
                    for i, m in enumerate(kept)
                ]
                assert solver.cluster_adj == expected

    @staticmethod
    def _group_solvers(instance, mode):
        graph = build_graph(instance, mode)
        for part in _label_groups(instance, graph):
            requirements = _witness_requirements(instance, graph, part)
            kept = usable_clusters(graph, requirements)
            yield graph, kept, _GroupSolver(graph, requirements, kept, deadline=None)

    @pytest.mark.parametrize("mode", list(AmMode))
    def test_pair_bound_matches_brute_force(self, mode):
        instances = [random_instance(seed) for seed in range(25)]
        instances += [instance for _, instance in navigation_corpus(2)]
        for instance in instances:
            for graph, kept, solver in self._group_solvers(instance, mode):
                for i, j in ((i, j) for i, adj in enumerate(solver.cluster_adj) for j in adj):
                    for a in range(min(len(kept[i]), 3)):
                        for b in range(min(len(kept[j]), 3)):
                            tail_a, tail_b = kept[i][a:], kept[j][b:]
                            want = max(
                                [graph.weights[tail_a[0]], graph.weights[tail_b[0]]]
                                + [
                                    graph.weights[u] + graph.weights[v]
                                    for u in tail_a
                                    for v in tail_b
                                    if v not in graph.neighbors(u)
                                ]
                            )
                            assert solver._pair_best((tail_a[0], tail_b[0])) == want

    @pytest.mark.parametrize("mode", list(AmMode))
    def test_bound_between_optimum_and_cluster_maxima(self, mode):
        for _, instance in navigation_corpus(3):
            bound = maxima = 0.0
            for graph, kept, solver in self._group_solvers(instance, mode):
                bound += sum(solver._shares(dict(enumerate(kept))).values())
                maxima += sum(graph.weights[m[0]] for m in kept)
            result = solve_exact(instance, GMT, mode, time_limit=60.0)
            assert result.status is Status.OPTIMAL
            assert result.objective <= bound * (1 + 1e-12)
            assert bound <= maxima * (1 + 1e-12)

    def test_krmt_am3_stops_at_slice_bound(self):
        # scenario 21's KRMT optimum meets the slice bound, which proves it
        instance = nav_scenario(21)
        for k in (1, 2):
            result = solve_exact(instance, krmt(k), AmMode.AM3, time_limit=NAV_TIME_LIMIT)
            assert result.status is Status.OPTIMAL, k
            assert check_model(instance, result.phi, AmMode.AM3, k=k).valid
            assert result.objective == pytest.approx(slice_bound(instance, k), rel=1e-9)
        assert result.objective == pytest.approx(243.652, abs=1e-3)

    def test_krmt_greedy_fallback_at_slice_bound_is_optimal(self):
        # at time_limit 0 no sweep runs; scenario 21's greedy selection
        # already meets the slice bound, which proves it
        instance = nav_scenario(21)
        for mode in AmMode:
            result = solve_exact(instance, krmt(2), mode, time_limit=0.0)
            assert result.status is Status.OPTIMAL, mode
            assert result.objective == pytest.approx(result.upper_bound, rel=1e-9)
            assert result.objective == pytest.approx(243.652, abs=1e-3)

    def test_k_monotone(self):
        for seed in range(10):
            instance = random_instance(seed, max_labels=4, max_conflicts=6)
            gmt = solve_exact(instance, GMT, AmMode.AM2).objective
            prev = 0.0
            for k in (1, 2, 3):
                val = solve_exact(instance, krmt(k), AmMode.AM2).objective
                assert val >= prev
                assert val <= gmt
                prev = val

    def test_timeout_returns_feasible_with_bound(self):
        instance = random_instance(3, max_labels=5, max_conflicts=12)
        result = solve_exact(instance, GMT, AmMode.AM3, time_limit=0.0)
        assert result.status is Status.FEASIBLE
        assert result.upper_bound is not None
        assert result.upper_bound >= result.objective

    def test_slice_bound_sweep_matches_rescan(self):
        instances = [random_instance(seed) for seed in range(50)]
        instances += [instance for _, instance in navigation_corpus(3)]
        instances.append(extract_instance(synthesize_scenario(21)))  # short presences kept
        for instance in instances:
            for k in (1, 2, 3):
                assert _slice_bound(instance, k) == slice_bound_reference(instance, k)

    # Random instances lie on a half-second grid with integer weights, so
    # every objective and bound below is exact.
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_proven_gmt_values_keep_model_order(self, seed):
        instance = random_instance(seed)
        results = [solve_exact(instance, GMT, mode, time_limit=60.0) for mode in AmMode]
        assert all(result.status is Status.OPTIMAL for result in results)
        assert results[0].objective <= results[1].objective <= results[2].objective

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3), mode=st.sampled_from(AmMode))
    def test_krmt_objective_within_slice_bound(self, seed, k, mode):
        instance = random_instance(seed)
        result = solve_exact(instance, krmt(k), mode, time_limit=60.0)
        assert result.objective <= _slice_bound(instance, k)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        problem=st.sampled_from([GMT, krmt(1), krmt(2)]),
        mode=st.sampled_from(AmMode),
    )
    def test_feasible_objective_within_upper_bound(self, seed, problem, mode):
        instance = random_instance(seed)
        for limit in (0.0, 60.0):
            result = solve_exact(instance, problem, mode, time_limit=limit)
            if result.status is Status.FEASIBLE:
                assert result.objective <= result.upper_bound

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), mode=st.sampled_from([AmMode.AM2, AmMode.AM3]))
    def test_gmt_matches_enumeration_on_random_instances(self, seed, mode):
        instance = random_instance(seed, max_labels=4, max_conflicts=8)
        assume(enumeration_search_space(instance, mode) <= 5000)
        want = enumerate_optima(instance, mode, ks=[None])[None]
        got = solve_exact(instance, GMT, mode, time_limit=60.0)
        assert got.status is Status.OPTIMAL
        assert got.objective == want

    # The largest group's search: scenario 21 at AM2 (44 clusters) and corpus
    # seed 0 at AM3 (54 clusters).  A memo keyed by the chosen witnesses
    # themselves needed 3673 and 762 nodes.
    @pytest.mark.parametrize(
        "seed, mode, clusters, ceiling", [(21, AmMode.AM2, 44, 2400), (0, AmMode.AM3, 54, 480)]
    )
    def test_node_counts(self, monkeypatch, seed, mode, clusters, ceiling):
        instance = nav_scenario(seed)
        nodes = count_group_nodes(monkeypatch)
        runs = []
        for _ in range(2):
            nodes.clear()
            result = solve_exact(instance, GMT, mode, time_limit=60.0)
            assert result.status is Status.OPTIMAL
            runs.append([(len(solver.clusters), n) for solver, n in nodes.items()])
        assert runs[0] == runs[1]  # the same search on every run
        size, most = max(runs[0], key=lambda run: run[1])
        assert size == clusters
        assert most <= ceiling

    def test_memo_key_is_the_met_requirements(self):
        instance = nav_scenario(0)
        _, kept, solver = max(
            self._group_solvers(instance, AmMode.AM3), key=lambda item: len(item[2].requirements)
        )
        requirements = solver.requirements
        ties = splits = 0
        for v, reqs in list(requirements.items())[:40]:
            for _, wit in reqs:
                pool = sorted(wit)[:4]
                # the part: every cluster without a pool candidate
                busy = {solver.cluster_of[u] for u in pool}
                avail = {ci: m for ci, m in enumerate(kept) if ci not in busy}
                part = {u for m in avail.values() for u in m}
                by_met, by_key = {}, {}
                for mask in range(1 << len(pool)):
                    chosen = {u for i, u in enumerate(pool) if mask >> i & 1}
                    met = frozenset(
                        (owner, i)
                        for owner in part
                        for i, (_, w) in enumerate(requirements[owner])
                        if not w.isdisjoint(chosen)
                    )
                    solver.chosen = chosen
                    key = solver._memo_key(avail, [])
                    # one key per set of met requirements, and one set per key
                    assert by_met.setdefault(met, key) == key
                    assert by_key.setdefault(key, met) == met
                ties += len(by_met) < 1 << len(pool)
                splits += len(by_met) > 1
        solver.chosen = set()
        assert ties and splits

    def test_deadline_stops_within_one_node(self, monkeypatch):
        clock = TickClock()  # each read advances 1 ms
        monkeypatch.setattr("chronolabel.solvers.time", clock)
        instance = nav_scenario(0)
        step = clock.step

        # B&B: reads 1-20 fall before the limit, so node 21 raises
        nodes = count_group_nodes(monkeypatch)
        graph, kept, solver = max(
            self._group_solvers(instance, AmMode.AM3), key=lambda item: len(item[1])
        )
        solver.deadline = _Deadline(20.5 * step)
        with pytest.raises(_GroupTimeout):
            solver.solve(dict(enumerate(kept)), [], 0.0)
        assert nodes[solver] == 21
        # a timed-out group reports the root bound
        part = max(_label_groups(instance, graph), key=len)
        _, proven, bound = _solve_group(instance, graph, part, _Deadline(20.5 * step))
        assert not proven
        assert bound == sum(solver._shares(dict(enumerate(kept))).values())

        # the sweep reads the clock once per opening candidate and once per
        # event time, so it returns at the first read past the limit
        graph = build_graph(instance, AmMode.AM1)
        requirements = _witness_requirements(instance, graph, set(range(len(graph))))
        times = {t for v in requirements for t in (graph.starts[v], graph.ends[v])}
        reads = len(requirements) + len(times)
        start = clock.now
        assert _k_sweep(graph, requirements, 2, _Deadline(math.inf)) is not None
        assert clock.now - start == pytest.approx((1 + reads) * step)
        start = clock.now
        assert _k_sweep(graph, requirements, 2, _Deadline((reads // 2 + 0.5) * step)) is None
        assert clock.now - start == pytest.approx((1 + reads // 2 + 1) * step)

        # time_limit 0 runs no sweep
        def no_sweep(*args):
            raise AssertionError("a sweep at time_limit 0")

        monkeypatch.setattr("chronolabel.solvers._k_sweep", no_sweep)
        result = solve_exact(instance, krmt(2), AmMode.AM3, time_limit=0.0)
        assert check_model(instance, result.phi, AmMode.AM3, k=2).valid


class TestGreedy:
    def test_i1_gmt_am1(self, i1):
        result = solve_greedy(i1, GMT, AmMode.AM1)
        assert result.objective == 16.0
        assert result.phi.activities["l1"] == (TimeInterval(0.0, 10.0),)

    def test_i1_gmt_am2(self, i1):
        result = solve_greedy(i1, GMT, AmMode.AM2)
        assert result.objective == 20.0

    def test_i1_krmt1(self, i1):
        result = solve_greedy(i1, krmt(1), AmMode.AM1)
        assert result.objective == 10.0
        assert set(result.phi.activities) == {"l1"}

    def test_krmt_am2_uses_am1_solution(self, i1):
        result = solve_greedy(i1, krmt(1), AmMode.AM2)
        assert result.status is Status.FEASIBLE
        assert result.objective == 10.0
        assert check_model(i1, result.phi, AmMode.AM2, k=1).valid

    def test_outputs_model_valid(self):
        for seed in range(30):
            instance = random_instance(seed)
            for mode in AmMode:
                for problem in (GMT, krmt(1), krmt(2)):
                    result = solve_greedy(instance, problem, mode)
                    assert check_model(instance, result.phi, mode, k=problem.k).valid, (
                        seed,
                        mode,
                        problem,
                    )


    def test_one_pass_matches_repeated_heaviest_pick(self):
        instances = [random_instance(seed) for seed in range(50)]
        instances += [instance for _, instance in navigation_corpus(3)]
        for instance in instances:
            for mode in AmMode:
                graph = build_graph(instance, mode)
                for k in (None, 1, 2):
                    assert _greedy_selection(graph, k) == greedy_reference(graph, k)
                # the parts exact search starts from: the model stages and
                # the label groups within them
                presences = [_presence(instance, graph, v) for v in range(len(graph))]
                stages = [
                    {v for v, p in enumerate(presences) if graph.interval(v) == p},
                    {v for v, p in enumerate(presences) if graph.starts[v] == p.start},
                ]
                parts = stages + [group & stage for group in _label_groups(instance, graph) for stage in stages]
                for part in parts:
                    for k in (None, 2):
                        got = _greedy_selection(graph, k, within=part)
                        assert got == greedy_reference(graph, k, within=part)


    @settings(max_examples=60, deadline=None)
    @given(instance_graph=instance_graphs())
    def test_matches_reference(self, instance_graph):
        _, graph = instance_graph
        assert _greedy_selection(graph, None) == greedy_reference(graph, None)

    @settings(max_examples=40, deadline=None)
    @given(instance_graph=instance_graphs(modes=(AmMode.AM1,)), k=st.integers(1, 3))
    def test_k_bound_matches_reference(self, instance_graph, k):
        # KRMT greedy runs on the AM1 graph
        _, graph = instance_graph
        assert _greedy_selection(graph, k) == greedy_reference(graph, k)


def test_heuristics_never_derive_neighbor_sets(monkeypatch, tmp_path):
    # Scenario 21's AM3 neighbour sets take about 120 MB beside its neighbour
    # ids; the heuristics, the post-solve path and graph-dump read the ids only.
    def refuse(graph, v):
        raise AssertionError("neighbors() called")

    instance = nav_scenario(21)
    monkeypatch.setattr(ConflictGraph, "neighbors", refuse)
    path = tmp_path / "instance.json"
    path.write_text(dump_instance(instance))
    out = tmp_path / "graph.json"
    assert main(["graph-dump", str(path), "--am", "3", "--out", str(out)]) == 0
    for result in (
        solve_greedy(instance, GMT, AmMode.AM3),
        solve_pls(instance, GMT, AmMode.AM3),
    ):
        assert check_model(instance, result.phi, AmMode.AM3).valid
    graph = build_graph(instance, AmMode.AM3)
    everything = set(range(len(graph)))  # no independent set: repair rejects it
    with pytest.raises(IntegrityError):
        repair_selection(instance, graph, everything)
    repaired = repair_selection(instance, graph, _greedy_selection(graph, None))
    assert check_model(instance, graph.to_activity_set(repaired), AmMode.AM3).valid


class Reweighted:
    """A conflict graph's adjacency under other candidate weights."""

    def __init__(self, graph, weights):
        self.neighbor_ids, self.weights = graph.neighbor_ids, weights

    def __len__(self):
        return len(self.weights)


class TestPls:
    def test_i1_gmt_am1(self, i1):
        result = solve_pls(i1, GMT, AmMode.AM1, seed=42)
        assert result.objective == 16.0

    def test_i1_gmt_am2(self, i1):
        result = solve_pls(i1, GMT, AmMode.AM2, seed=7)
        assert result.objective == 20.0

    def test_krmt_unsupported(self, i1):
        result = solve_pls(i1, krmt(2), AmMode.AM1)
        assert result.status is Status.UNSUPPORTED

    def test_deterministic_per_seed(self, i1):
        instance = random_instance(11)
        a = solve_pls(instance, GMT, AmMode.AM3, seed=123)
        b = solve_pls(instance, GMT, AmMode.AM3, seed=123)
        assert a.phi == b.phi
        assert a.objective == b.objective

    def test_isolated_vertices_all_selected(self):
        instance = random_instance(5, max_conflicts=0)
        result = solve_pls(instance, GMT, AmMode.AM1, seed=1)
        total = sum(
            iv.length * instance.labels[lid].weight
            for lid, ivs in instance.presences.items()
            for iv in ivs
        )
        assert result.objective == total

    @settings(max_examples=60, deadline=None)
    @given(instance_graph=instance_graphs(), moves_seed=st.integers(0, 2**32 - 1))
    def test_bookkeeping_matches_rescan(self, instance_graph, moves_seed):
        _, graph = instance_graph
        rng = random.Random(moves_seed)
        state = _PlsState(graph)
        for _ in range(60):
            c0, c1, selected = (sorted(s) for s in (*state.pools, state.selected))
            move = rng.choice(["add", "add", "remove", "swap", "force"])
            if move == "add" and c0:
                state.add(rng.choice(c0))
            elif move == "remove" and selected:
                state.remove(rng.choice(selected))
            elif move == "swap" and c1:  # the plateau move
                assert len(state.force(rng.choice(c1))) == 1
            elif move == "force" and len(graph):
                v = rng.randrange(len(graph))
                if v not in state.selected:
                    state.force(v)
            tight, want_c0, want_c1 = pls_rescan(graph, state.selected)
            assert state.tight == tight
            assert state.pools == (want_c0, want_c1)
            assert state.weight == pytest.approx(graph.selection_weight(state.selected))

    def test_outputs_model_valid(self):
        for seed in range(20):
            instance = random_instance(seed)
            for mode in AmMode:
                result = solve_pls(instance, GMT, mode, seed=seed)
                assert check_model(instance, result.phi, mode).valid, (seed, mode)

    @settings(max_examples=200, deadline=None)
    @given(instance_graph=instance_graphs(), data=st.data())
    def test_select_matches_order_reference(self, instance_graph, data):
        _, graph = instance_graph
        n = len(graph)
        vertex = st.integers(0, max(n - 1, 0))
        # coarse weights make ties among the heaviest common
        coarse = st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n)
        state = _PlsState(Reweighted(graph, data.draw(st.one_of(st.just(graph.weights), coarse))))
        for v in data.draw(st.lists(vertex, max_size=40)) if n else ():
            if v not in state.selected:
                state.force(v)
        skip = set(data.draw(st.lists(vertex, max_size=10))) if n else set()
        penalties = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pool = data.draw(st.sampled_from([0, 1]))
        phase = data.draw(st.sampled_from(["greedy", "penalty"]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        got = _pls_select(state, pool, skip, phase, penalties, rng)
        assert got == pls_select_reference(state, pool, skip, phase, penalties, reference_rng)
        assert rng.getstate() == reference_rng.getstate()


@st.composite
def shortening_cases(draw):
    """(instance, vertex, this round's picks, all picks) for one vertex of
    label "v" against labels "a", "b" and "c" on a half-second grid.  The
    conflicts of a pair are disjoint and may have zero length; the picks are
    positive-length intervals, and this round's are some of all of them."""
    half = st.integers(0, 20).map(lambda step: step / 2)
    others = ("a", "b", "c")
    conflicts = []
    for other in others:
        points = draw(st.lists(half, max_size=6, unique=True).map(sorted))
        for start, end in zip(points[::2], points[1::2]):
            end = start if draw(st.booleans()) and draw(st.booleans()) else end
            conflicts.append(ConflictEntry("v", other, TimeInterval(start, end)))
    weights = {lid: draw(st.integers(1, 3)) for lid in ("v", *others)}
    instance = Instance(
        horizon=10.0,
        labels={lid: Label(lid, float(w)) for lid, w in weights.items()},
        presences={lid: (TimeInterval(0.0, 10.0),) for lid in weights},
        conflicts=tuple(conflicts),
    )
    positive = st.tuples(half, half).filter(lambda p: p[0] < p[1]).map(lambda p: TimeInterval(*p))
    round_chosen, all_chosen = {}, {}
    for other in others:
        for iv in draw(st.lists(positive, max_size=3)):
            all_chosen.setdefault(other, []).append(iv)
            if draw(st.booleans()):
                round_chosen.setdefault(other, []).append(iv)
    iv = draw(positive)
    return instance, _IgVertex("v", iv, iv.length * weights["v"]), round_chosen, all_chosen


class TestIntGraph:
    def test_i1_gmt_am2(self, i1):
        result = solve_intgraph(i1, GMT, AmMode.AM2)
        assert result.objective == 20.0
        assert result.phi.activities["l2"] == (TimeInterval(0.0, 4.0),)

    def test_i1_krmt1(self, i1):
        for mode in AmMode:
            result = solve_intgraph(i1, krmt(1), mode)
            assert result.objective == 10.0

    def test_disjoint_presences_single_round(self):
        instance = load_instance(
            json.dumps(
                {
                    "horizon": 10,
                    "labels": [{"id": "a", "weight": 1}, {"id": "b", "weight": 1}],
                    "presences": [
                        {"label": "a", "start": 0, "end": 3},
                        {"label": "b", "start": 4, "end": 9},
                    ],
                }
            )
        )
        result = solve_intgraph(instance, GMT, AmMode.AM1)
        assert result.objective == 8.0

    @pytest.fixture
    def overlap_without_conflict(self):
        """b overlaps a in time but never conflicts with it; c conflicts with a."""
        return load_instance(
            json.dumps(
                {
                    "horizon": 10,
                    "labels": [
                        {"id": "a", "weight": 1},
                        {"id": "b", "weight": 1},
                        {"id": "c", "weight": 1},
                    ],
                    "presences": [
                        {"label": "a", "start": 0, "end": 10},
                        {"label": "b", "start": 2, "end": 8},
                        {"label": "c", "start": 1, "end": 3},
                    ],
                    "conflicts": [{"a": "a", "b": "c", "start": 1, "end": 2}],
                }
            )
        )

    def test_am1_keeps_time_overlapping_non_conflicting(self, overlap_without_conflict):
        result = solve_intgraph(overlap_without_conflict, GMT, AmMode.AM1)
        assert result.phi.activities == {
            "a": (TimeInterval(0.0, 10.0),),
            "b": (TimeInterval(2.0, 8.0),),
        }
        assert result.objective == 16.0

    def test_krmt_k2_beats_k1(self, overlap_without_conflict):
        k1 = solve_intgraph(overlap_without_conflict, krmt(1), AmMode.AM1)
        k2 = solve_intgraph(overlap_without_conflict, krmt(2), AmMode.AM1)
        assert (k1.objective, k2.objective) == (10.0, 16.0)
        assert check_model(overlap_without_conflict, k2.phi, AmMode.AM1, k=2).valid

    def test_outputs_model_valid(self):
        for seed in range(30):
            instance = random_instance(seed)
            for mode in AmMode:
                for problem in (GMT, krmt(1), krmt(2)):
                    result = solve_intgraph(instance, problem, mode)
                    assert check_model(instance, result.phi, mode, k=problem.k).valid, (
                        seed,
                        mode,
                        problem,
                    )

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), dense=st.booleans())
    def test_random_outputs_match_piecewise_reference(self, seed, dense):
        size = dict(max_labels=8, max_presences_per_label=3, max_conflicts=40) if dense else {}
        instance = random_instance(seed, **size)
        for mode in AmMode:
            for problem in (GMT, krmt(1), krmt(2)):
                got = solve_intgraph(instance, problem, mode)
                want = intgraph_reference(instance, problem, mode)
                assert dump_solution(got.phi) == dump_solution(want), (mode, problem)
                assert got.objective == objective(instance, want), (mode, problem)

    @settings(max_examples=300, deadline=None)
    @given(case=shortening_cases())
    def test_shorten_matches_piecewise_reference(self, case):
        instance, vertex, round_chosen, all_chosen = case
        for mode in AmMode:
            got = _shorten(instance, vertex, round_chosen, all_chosen, mode)
            assert got == shorten_reference(instance, vertex, round_chosen, all_chosen, mode)

    def test_matches_all_vertex_reference(self):
        # scenarios 0-59, raw and after the 1 s minimum activity, make 1080
        # solves; the benchmark's nav-heuristic corpora of seeds 0 and 91 add
        # its own inputs
        instances = [random_instance(seed) for seed in range(50)]
        for seed in range(60):
            raw = extract_instance(synthesize_scenario(seed))
            instances += [raw, apply_min_activity(raw, 1.0)]
        for seed in (0, 91):
            instances += [i for _, i in workloads.nav_corpus(seed, workloads.HEURISTIC_PREFIX)]
        for instance in instances:
            for mode in AmMode:
                for problem in (GMT, krmt(1), krmt(2)):
                    got = solve_intgraph(instance, problem, mode)
                    want = intgraph_reference(instance, problem, mode)
                    assert dump_solution(got.phi) == dump_solution(want), (mode, problem)
                    assert got.objective == objective(instance, want), (mode, problem)

    def test_shortens_only_blocked_vertices(self, monkeypatch):
        # A round shortens a vertex only if a block of the round meets its
        # open interior, so no call hands the vertex back unchanged.
        calls = []

        def shorten(instance, vertex, iteration_chosen, all_chosen, mode):
            got = _shorten(instance, vertex, iteration_chosen, all_chosen, mode)
            calls.append(got is None or got.interval != vertex.interval)
            return got

        monkeypatch.setattr(solvers, "_shorten", shorten)
        for seed in (0, 5, 21):
            instance = nav_scenario(seed)
            for mode in AmMode:
                for problem in (GMT, krmt(2)):
                    solve_intgraph(instance, problem, mode)
        assert calls and all(calls), f"{calls.count(False)} of {len(calls)} calls kept the vertex"


class TestMwisIntervals:
    def test_empty(self):
        assert mwis_intervals([]) == []

    def test_disjoint_pair(self):
        items = [(TimeInterval(0, 2), 1.0), (TimeInterval(3, 5), 1.0)]
        assert mwis_intervals(items) == [0, 1]

    def test_shared_endpoint_counts_as_intersecting(self):
        items = [(TimeInterval(0, 2), 1.0), (TimeInterval(2, 5), 1.0)]
        assert len(mwis_intervals(items)) == 1

    def test_three_overlapping(self):
        items = [
            (TimeInterval(0, 10), 10.0),
            (TimeInterval(0, 10), 10.0),
            (TimeInterval(2, 8), 6.0),
        ]
        picked = mwis_intervals(items)
        assert picked == [0]

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(0, 10)
            items = []
            for _ in range(n):
                s = rng.randint(0, 20)
                e = rng.randint(s, 22)
                items.append((TimeInterval(float(s), float(e)), float(rng.randint(1, 100))))
            picked = mwis_intervals(items)
            got = sum(items[i][1] for i in picked)
            assert got == brute_force_mwis(items)
            # chosen intervals pairwise non-intersecting
            for i, a in enumerate(picked):
                for b in picked[i + 1 :]:
                    ia, ib = items[a][0], items[b][0]
                    assert max(ia.start, ib.start) > min(ia.end, ib.end)


@pytest.mark.parametrize(
    "solve",
    [
        lambda i1: solve_exact(i1, GMT, AmMode.AM3, time_limit=float("nan")),
        lambda i1: solve_pls(i1, GMT, AmMode.AM3, params=PlsParams(float("nan"))),
        lambda i1: solve_pls(i1, GMT, AmMode.AM3, params=PlsParams(float("inf"))),
    ],
    ids=["exact-nan", "pls-nan", "pls-inf"],
)
def test_non_finite_budgets_rejected(i1, solve):
    # a NaN deadline compares false forever, so the search would never stop
    with pytest.raises(ValueError):
        solve(i1)


@pytest.mark.parametrize("limit", [0.0, float("inf")])
def test_exact_zero_and_unbounded_limits(i1, limit):
    # 0 gives up at once with the repaired greedy selection; inf never stops early
    result = solve_exact(i1, GMT, AmMode.AM3, time_limit=limit)
    assert result.status is (Status.FEASIBLE if limit == 0 else Status.OPTIMAL)
    assert check_model(i1, result.phi, AmMode.AM3).valid


def test_reported_objective_is_emitted_objective():
    # The objective a solve reports is, bit for bit, that of the solution it
    # emits, read back as a solution file is.
    for seed in range(10):
        instance = extract_instance(synthesize_scenario(seed))
        for mode in AmMode:
            results = {
                "greedy": solve_greedy(instance, GMT, mode),
                "intgraph": solve_intgraph(instance, GMT, mode),
                "pls": solve_pls(instance, GMT, mode, seed=seed, params=PlsParams(0.02)),
                "exact": solve_exact(instance, GMT, mode, time_limit=NAV_TIME_LIMIT),
            }
            for algo, result in results.items():
                emitted = load_solution(dump_solution(result.phi))
                assert result.objective == objective(instance, emitted), (seed, mode, algo)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem("KRMT")
    with pytest.raises(ValueError):
        Problem("GMT", k=3)
    with pytest.raises(ValueError):
        Problem("XXX")


class TickClock:
    """A ``time`` stand-in for the solvers whose ``perf_counter`` moves by a
    fixed step per call, so that PLS and timed-out searches are repeatable."""

    def __init__(self):
        self.now, self.step = 0.0, 1e-3

    def perf_counter(self) -> float:
        self.now += self.step
        return self.now


SHARED_SOLVES = [
    (problem, mode, algo)
    for problem in (GMT, krmt(1), krmt(2))
    for mode in AmMode
    for algo in ("greedy", "intgraph", "exact", "pls")
    if algo != "pls" or problem is GMT
]
# the solves of one nav-heuristic instance
NAV_HEURISTIC_SOLVES = [(GMT, mode, algo) for mode in AmMode for algo in ("greedy", "intgraph", "pls")]
NAV_HEURISTIC_SOLVES += [(krmt(2), AmMode.AM1, "greedy"), (krmt(2), AmMode.AM1, "intgraph")]


def run_solve(instance, problem, mode, algo, clock=None) -> str:
    if algo == "exact":
        if clock is not None:
            clock.step = 1e-2  # about 110 deadline reads, one per search node
        result = solve_exact(instance, problem, mode, time_limit=NAV_TIME_LIMIT)
    elif algo == "pls":
        if clock is not None:
            clock.step = 1e-4  # 1000 budget reads
        result = solve_pls(instance, problem, mode, seed=7)
    else:
        result = {"greedy": solve_greedy, "intgraph": solve_intgraph}[algo](instance, problem, mode)
    return dump_solution(result.phi)


def graph_snapshot(graph) -> tuple:
    columns = (graph.starts, graph.ends, graph.weights, graph.label_ids, graph.presence_indices)
    n = range(len(graph))
    return (
        tuple(map(tuple, columns)),
        {key: tuple(ids) for key, ids in graph.clusters.items()},
        graph.edge_count,
        [frozenset(graph.neighbors(v)) for v in n],
        [tuple(graph.neighbor_ids(v)) for v in n],
        [graph.interval(v) for v in n],
    )


class TestSharedGraph:
    def test_outputs_match_fresh_instance(self, monkeypatch):
        clock = TickClock()
        monkeypatch.setattr("chronolabel.solvers.time", clock)
        instances = [instance for _, instance in navigation_corpus(2)]
        instances += [random_instance(seed) for seed in range(8)]
        for instance in instances:
            graphs = {mode: build_graph(instance, mode) for mode in AmMode}
            before = {mode: graph_snapshot(graph) for mode, graph in graphs.items()}
            for spec in SHARED_SOLVES:  # every solver runs on the kept graphs
                run_solve(instance, *spec, clock)
            for spec in SHARED_SOLVES:
                fresh = replace(instance)  # the same fields, nothing kept
                assert run_solve(instance, *spec, clock) == run_solve(fresh, *spec, clock), spec
            for mode, graph in graphs.items():
                assert build_graph(instance, mode) is graph
                assert graph_snapshot(graph) == before[mode]
                # the kept heaviest-first order is still a fresh sort's
                ids = np.arange(len(graph))
                order, rank = graph.heaviest_first()
                assert order == ids[np.lexsort((ids, -np.array(graph.weights)))].tolist()
                assert [order[i] for i in rank] == ids.tolist()

    def test_one_build_per_model(self, monkeypatch):
        from chronolabel import conflict_graph

        builds = []
        build = conflict_graph._build

        def counting_build(instance, mode):
            builds.append(mode)
            return build(instance, mode)

        monkeypatch.setattr(conflict_graph, "_build", counting_build)
        instance = navigation_corpus(1)[0][1]
        for spec in NAV_HEURISTIC_SOLVES:
            run_solve(instance, *spec)
        assert builds == list(AmMode)

    def test_time_limit_counts_the_build(self, monkeypatch):
        from chronolabel import conflict_graph

        build, sleep = conflict_graph._build, 0.3

        def slow_build(instance, mode):
            time.sleep(sleep)
            return build(instance, mode)

        def no_fixpoint(*args):
            raise AssertionError("witness fixpoint after the deadline")

        monkeypatch.setattr(conflict_graph, "_build", slow_build)
        monkeypatch.setattr("chronolabel.solvers._witness_requirements", no_fixpoint)
        instance = navigation_corpus(1)[0][1]
        started = time.perf_counter()
        result = solve_exact(instance, GMT, AmMode.AM3, time_limit=sleep / 2)
        assert time.perf_counter() - started < sleep + 0.1
        assert result.status is Status.FEASIBLE
        assert check_model(instance, result.phi, AmMode.AM3).valid
        fresh = replace(instance)
        with pytest.raises(ValueError):  # before the build
            solve_exact(fresh, GMT, AmMode.AM3, time_limit=float("nan"))
        assert "_graphs" not in fresh.__dict__
