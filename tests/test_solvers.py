import json
import random

import pytest

from chronolabel.model import TimeInterval, load_instance, make_activity_set, objective
from chronolabel.solvers import (
    GMT,
    Problem,
    Status,
    krmt,
    mwis_intervals,
    solve_exact,
    solve_greedy,
    solve_intgraph,
    solve_pls,
)
from chronolabel.validation import AmMode, check_model

from conftest import random_instance
from oracle import brute_force_mwis, enumerate_optima, enumeration_search_space


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

    def test_outputs_model_valid(self):
        for seed in range(20):
            instance = random_instance(seed)
            for mode in AmMode:
                result = solve_pls(instance, GMT, mode, seed=seed)
                assert check_model(instance, result.phi, mode).valid, (seed, mode)


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


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem("KRMT")
    with pytest.raises(ValueError):
        Problem("GMT", k=3)
    with pytest.raises(ValueError):
        Problem("XXX")
