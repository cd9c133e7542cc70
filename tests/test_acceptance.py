"""Acceptance suite: nine end-to-end criteria for the whole package.

Each test prints a one-line PASS summary with the measured figures so a CI
log shows the outcome per criterion at a glance.  The suite is heavier than
the unit tests (several minutes total); the expensive artifacts (random
suites, exact references, the navigation corpus) are computed once per
module and shared across criteria.
"""

import math
import random
import statistics
import time

import pytest

from chronolabel.cli import apply_min_activity
from chronolabel.conflict_graph import build_graph
from chronolabel.model import TimeInterval, complexity
from chronolabel.scenario import (
    build_zoom_plan,
    extract_instance,
    pose_at,
    smooth_route,
    synthesize_scenario,
)
from chronolabel.solvers import (
    GMT,
    PlsParams,
    Status,
    krmt,
    mwis_intervals,
    solve_exact,
    solve_greedy,
    solve_intgraph,
    solve_pls,
)
from chronolabel.validation import AmMode, check_model, saturate

from conftest import random_instance
from oracle import brute_force_mwis, enumerate_optima

SUITE1_SIZE = 200  # small instances (<= 10 presences, <= 15 conflicts)
SUITE2_SIZE = 500  # medium instances (<= 40 presences)
NAV_CORPUS_SIZE = 50
NAV_COMPLEXITY = (100, 3000)
KS = (None, 1, 2)

# exact-reference caps for the navigation corpus (well under the 600 s
# benchmark limit; a handful of AM3 instances legitimately time out and
# contribute their incumbent instead, see criterion 7)
AM2_CAP = 60.0
AM3_CAP = 30.0


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def suite1():
    return [(seed, random_instance(seed)) for seed in range(SUITE1_SIZE)]


@pytest.fixture(scope="module")
def suite2():
    return [(seed, random_instance(seed, max_labels=20)) for seed in range(SUITE2_SIZE)]


def exact_table(instances):
    table = {}
    for seed, instance in instances:
        for mode in AmMode:
            for k in KS:
                problem = GMT if k is None else krmt(k)
                result = solve_exact(instance, problem, mode, time_limit=60.0)
                assert result.status is Status.OPTIMAL, (seed, mode, k)
                table[(seed, mode, k)] = result.objective
    return table


@pytest.fixture(scope="module")
def suite1_exact(suite1):
    return exact_table(suite1)


@pytest.fixture(scope="module")
def suite2_exact(suite2):
    return exact_table(suite2)


@pytest.fixture(scope="module")
def nav_corpus():
    """>= 50 synthetic navigation instances with complexity in range."""
    corpus = []
    seed = 0
    while len(corpus) < NAV_CORPUS_SIZE:
        instance = apply_min_activity(extract_instance(synthesize_scenario(seed)), 1.0)
        if NAV_COMPLEXITY[0] <= complexity(instance) <= NAV_COMPLEXITY[1]:
            corpus.append((seed, instance))
        seed += 1
    return corpus


@pytest.fixture(scope="module")
def nav_am1_exact(nav_corpus):
    table = {}
    for seed, instance in nav_corpus:
        result = solve_exact(instance, GMT, AmMode.AM1, time_limit=600.0)
        assert result.status is Status.OPTIMAL, seed
        table[seed] = result.objective
    return table


@pytest.fixture(scope="module")
def nav_heuristic_runs(nav_corpus, nav_am1_exact):
    """GMT/AM1 heuristic runs on the corpus: quality ratio and runtime."""
    rows = []
    for seed, instance in nav_corpus:
        optimum = nav_am1_exact[seed]
        runs = {
            "greedy": solve_greedy(instance, GMT, AmMode.AM1),
            "pls": solve_pls(instance, GMT, AmMode.AM1, seed=seed),
            "intgraph": solve_intgraph(instance, GMT, AmMode.AM1),
        }
        for name, result in runs.items():
            assert check_model(instance, result.phi, AmMode.AM1).valid, (seed, name)
            rows.append(
                {
                    "seed": seed,
                    "algorithm": name,
                    "quality": result.objective / optimum,
                    "runtime": result.runtime,
                }
            )
    return rows


def announce(number: int, detail: str) -> None:
    print(f"\ncriterion {number}: PASS ({detail})")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_oracle_equivalence(suite1, suite1_exact):
    checked = 0
    for seed, instance in suite1:
        for mode in AmMode:
            expected = enumerate_optima(instance, mode, ks=list(KS))
            for k, want in expected.items():
                assert suite1_exact[(seed, mode, k)] == want, (seed, mode, k)
                checked += 1
    announce(1, f"{checked} exact objectives equal the enumeration oracle")


def test_criterion_2_validity_suite(suite2):
    params = PlsParams(wall_clock_budget=0.005)
    checked = 0
    for seed, instance in suite2:
        for mode in AmMode:
            for problem in (GMT, krmt(2)):
                for result in (
                    solve_exact(instance, problem, mode, time_limit=60.0),
                    solve_greedy(instance, problem, mode),
                    solve_intgraph(instance, problem, mode),
                ):
                    report = check_model(instance, result.phi, mode, k=problem.k)
                    assert report.valid, (seed, mode, problem, report.violations)
                    checked += 1
            result = solve_pls(instance, GMT, mode, seed=seed, params=params)
            assert check_model(instance, result.phi, mode).valid, (seed, mode)
            checked += 1
    announce(2, f"{checked} solver outputs, zero model violations")


def test_criterion_3_model_ordering(suite1, suite2, suite1_exact, suite2_exact):
    checked = 0
    for instances, table in ((suite1, suite1_exact), (suite2, suite2_exact)):
        for seed, _ in instances:
            for k in KS:
                am1 = table[(seed, AmMode.AM1, k)]
                am2 = table[(seed, AmMode.AM2, k)]
                am3 = table[(seed, AmMode.AM3, k)]
                assert am1 <= am2 <= am3, (seed, k)
            for mode in AmMode:
                k1 = table[(seed, mode, 1)]
                k2 = table[(seed, mode, 2)]
                gmt = table[(seed, mode, None)]
                assert k1 <= k2 <= gmt, (seed, mode)
            checked += 1
    announce(3, f"AM1<=AM2<=AM3 and k-monotonicity on {checked} instances")


def test_criterion_4_interval_mwis():
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(0, 15)
        items = []
        for _ in range(n):
            a = rng.randint(0, 40)
            b = rng.randint(a + 1, 41)
            items.append((TimeInterval(a / 2.0, b / 2.0), rng.randint(1, 9) / 2.0))
        got = sum(items[i][1] for i in mwis_intervals(items))
        assert got == brute_force_mwis(items), seed
    announce(4, "mwis_intervals equals 2^n brute force on 1000 sets")


def test_criterion_5_saturated_sets_validate(suite1, suite2):
    # Greedy and PLS outputs for GMT are saturated independent sets (their
    # repair pass preserves saturation up to justification bans) and must
    # validate under their activity model.
    params = PlsParams(wall_clock_budget=0.005)
    checked = 0
    for instances in (suite1, suite2):
        for seed, instance in instances:
            for mode in AmMode:
                for result in (
                    solve_greedy(instance, GMT, mode),
                    solve_pls(instance, GMT, mode, seed=seed, params=params),
                ):
                    assert check_model(instance, result.phi, mode).valid, (seed, mode)
                    checked += 1
                # for AM1 the repair pass is plain saturation: the output is
                # saturation-stable in weight
                graph = build_graph(instance, AmMode.AM1)
                greedy = solve_greedy(instance, GMT, AmMode.AM1)
                selection = {
                    c.id
                    for c in graph.candidates
                    if c.interval in greedy.phi.activities.get(c.label_id, ())
                }
                saturated = saturate(instance, graph, selection)
                assert graph.selection_weight(saturated) == graph.selection_weight(selection)
    announce(5, f"{checked} saturated heuristic outputs validate under their AM")


def test_criterion_6_scaled_reproduction(nav_corpus, nav_heuristic_runs):
    assert len(nav_corpus) >= 50
    for _, instance in nav_corpus:
        assert NAV_COMPLEXITY[0] <= complexity(instance) <= NAV_COMPLEXITY[1]
    means = {}
    for algo in ("pls", "greedy", "intgraph"):
        qualities = [r["quality"] for r in nav_heuristic_runs if r["algorithm"] == algo]
        means[algo] = statistics.mean(qualities)
        assert means[algo] >= 0.90, (algo, means[algo])
    assert means["pls"] >= means["greedy"] - 0.01
    announce(
        6,
        "mean GMT/AM1 quality pls {pls:.3f}, greedy {greedy:.3f}, intgraph {intgraph:.3f}".format(
            **means
        ),
    )


def test_criterion_7_am_ratio_direction(nav_corpus, nav_am1_exact):
    ratios2, ratios3 = [], []
    timeouts = 0
    for seed, instance in nav_corpus:
        am1 = nav_am1_exact[seed]
        res2 = solve_exact(instance, GMT, AmMode.AM2, time_limit=AM2_CAP)
        res3 = solve_exact(instance, GMT, AmMode.AM3, time_limit=AM3_CAP)
        timeouts += (res2.status is Status.FEASIBLE) + (res3.status is Status.FEASIBLE)
        # an optimal AM1 solution is AM2-valid and an AM2 solution AM3-valid,
        # so the best known value per model is the max over the weaker ones;
        # timed-out runs contribute their incumbent (a true lower bound)
        am2 = max(res2.objective, am1)
        am3 = max(res3.objective, am2)
        ratios2.append(am2 / am1)
        ratios3.append(am3 / am1)
    mean2, mean3 = statistics.mean(ratios2), statistics.mean(ratios3)
    assert mean2 >= 1.00
    assert mean3 >= mean2
    assert any(r > 1.00 for r in ratios2)
    assert any(r > 1.00 for r in ratios3)
    announce(
        7,
        f"mean AM2/AM1 {mean2:.3f}, mean AM3/AM1 {mean3:.3f}, "
        f"{timeouts} reference runs hit their cap (incumbents used)",
    )


def test_criterion_8_runtime_sanity(nav_heuristic_runs):
    runtimes = {
        algo: [r["runtime"] for r in nav_heuristic_runs if r["algorithm"] == algo]
        for algo in ("greedy", "pls", "intgraph")
    }
    assert statistics.median(runtimes["greedy"]) <= 0.1
    assert statistics.median(runtimes["intgraph"]) <= 0.1
    budget = PlsParams().wall_clock_budget
    assert max(runtimes["pls"]) <= budget + 0.05
    announce(
        8,
        "median greedy {:.4f}s, median intgraph {:.4f}s, max pls {:.4f}s".format(
            statistics.median(runtimes["greedy"]),
            statistics.median(runtimes["intgraph"]),
            max(runtimes["pls"]),
        ),
    )


def test_criterion_9_scenario_geometry():
    def heading_angle(h):
        return math.atan2(h[0], h[1])

    for seed in range(20):
        scenario = synthesize_scenario(seed, n_edges=8, n_pois=20, corridor=350.0)
        trajectory = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        # C1 joints
        for prev, nxt in zip(trajectory.pieces, trajectory.pieces[1:]):
            a = heading_angle(prev.heading(prev.length))
            b = heading_angle(nxt.heading(0.0))
            assert abs(math.remainder(a - b, 2 * math.pi)) < 1e-6, seed
        # zoom ramps: no rotation, straight piece
        plan = build_zoom_plan(scenario, trajectory)
        for start, end in plan.ramps:
            ts = [start + (end - start) * i / 20 for i in range(21)]
            alphas = [pose_at(trajectory, plan, t).alpha for t in ts]
            assert max(alphas) - min(alphas) < 1e-9, seed
            assert all(not trajectory._piece(t).is_arc for t in ts), seed
        # refinement stability: a 10x finer bisection tolerance moves no
        # interval endpoint by more than the coarse tolerance
        from dataclasses import replace

        coarse = extract_instance(scenario)
        fine = extract_instance(replace(scenario, eps=scenario.eps / 10))
        assert set(coarse.presences) == set(fine.presences), seed
        for lid in coarse.presences:
            a, b = coarse.presences_of(lid), fine.presences_of(lid)
            assert len(a) == len(b), (seed, lid)
            for iv_a, iv_b in zip(a, b):
                assert abs(iv_a.start - iv_b.start) < scenario.eps
                assert abs(iv_a.end - iv_b.end) < scenario.eps
    announce(9, "C1 joints, ramp straightness and refinement stability on 20 scenarios")
