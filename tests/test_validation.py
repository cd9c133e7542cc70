import random

import pytest

from chronolabel.conflict_graph import build_graph
from chronolabel.model import IntegrityError, TimeInterval, make_activity_set, objective
from chronolabel.validation import (
    AmMode,
    _k_bound_violations,
    check_model,
    check_valid,
    is_justified,
    saturate,
)

from conftest import random_instance


def phi_of(**kwargs):
    return make_activity_set({k: [TimeInterval(*iv) for iv in v] for k, v in kwargs.items()})


class TestCheckValid:
    def test_conflicting_activities(self, i1):
        report = check_valid(i1, phi_of(l1=[(0, 10)], l2=[(0, 10)]))
        assert not report.valid
        assert [v.rule for v in report.violations] == ["R3"]
        assert report.violations[0].labels == ("l1", "l2")
        assert report.violations[0].detail == (4.0, 6.0)

    def test_boundary_touch_is_not_a_conflict(self, i1):
        assert check_valid(i1, phi_of(l1=[(0, 10)], l2=[(0, 4)])).valid

    def test_activity_outside_presence(self, i1):
        report = check_valid(i1, phi_of(l3=[(1, 3)]))
        assert [v.rule for v in report.violations] == ["R1"]

    def test_two_activities_in_one_presence(self, i1):
        report = check_valid(i1, phi_of(l1=[(0, 2), (5, 7)]))
        assert [v.rule for v in report.violations] == ["R2"]

    def test_unknown_label(self, i1):
        with pytest.raises(IntegrityError):
            check_valid(i1, phi_of(zz=[(0, 1)]))

    def test_monotone_under_removal(self):
        for seed in range(30):
            instance = random_instance(seed)
            full = make_activity_set(
                {lid: list(ivs) for lid, ivs in instance.presences.items()}
            )
            if not check_valid(instance, full).valid:
                continue
            for lid in full.activities:
                reduced = {
                    k: [iv for iv in v if k != lid] for k, v in full.activities.items()
                }
                assert check_valid(instance, make_activity_set(reduced)).valid


class TestJustification:
    def test_witness_justifies_end(self, i1):
        phi = phi_of(l1=[(0, 10)], l2=[(0, 4)])
        assert is_justified(i1, phi, "l2", TimeInterval(0, 4)) == (True, True)

    def test_no_witness_no_justification(self, i1):
        phi = phi_of(l2=[(0, 4)])
        assert is_justified(i1, phi, "l2", TimeInterval(0, 4)) == (True, False)

    def test_full_presence_always_justified(self, i1):
        phi = phi_of(l3=[(2, 8)])
        assert is_justified(i1, phi, "l3", TimeInterval(2, 8)) == (True, True)

    def test_interval_not_in_phi(self, i1):
        with pytest.raises(IntegrityError):
            is_justified(i1, phi_of(l1=[(0, 10)]), "l1", TimeInterval(0, 5))

    def test_witness_active_at_boundary_counts(self, i1):
        # witness l1 active exactly up to t=4; l2 ends there
        phi = phi_of(l1=[(0, 4)], l2=[(0, 4)])
        assert is_justified(i1, phi, "l2", TimeInterval(0, 4)) == (True, True)


class TestCheckModel:
    def test_am2_valid(self, i1):
        phi = phi_of(l1=[(0, 10)], l2=[(0, 4)], l3=[(2, 8)])
        assert check_model(i1, phi, AmMode.AM2).valid

    def test_am1_rejects_partial_presence(self, i1):
        phi = phi_of(l1=[(0, 10)], l2=[(0, 4)], l3=[(2, 8)])
        report = check_model(i1, phi, AmMode.AM1)
        assert not report.valid
        assert any(v.rule == "AM-end" and v.labels == ("l2",) for v in report.violations)

    def test_k_bound(self, i1):
        phi = phi_of(l1=[(0, 10)], l2=[(0, 4)], l3=[(2, 8)])
        report = check_model(i1, phi, AmMode.AM3, k=2)
        assert not report.valid
        kb = [v for v in report.violations if v.rule == "K-BOUND"]
        assert kb and 2.0 < kb[0].detail[0] < 4.0

    def test_k_bound_sweep_matches_rescan(self):
        def rescan(phi, k):
            points = sorted(
                {
                    p
                    for ivs in phi.activities.values()
                    for iv in ivs
                    if iv.length > 0
                    for p in (iv.start, iv.end)
                }
            )
            for lo, hi in zip(points, points[1:]):
                mid = 0.5 * (lo + hi)
                count = sum(
                    1 for ivs in phi.activities.values() for iv in ivs if iv.start < mid < iv.end
                )
                if count > k:
                    return [mid]
            return []

        rng = random.Random(7)
        for _ in range(500):
            raw = {}
            for i in range(rng.randint(0, 6)):
                steps = sorted(rng.sample(range(21), 2 * rng.randint(0, 3)))
                # pairs of grid steps; a repeated step gives a zero-length activity
                raw[f"l{i}"] = [
                    TimeInterval(s / 2.0, max(s, e - rng.randint(0, 1)) / 2.0)
                    for s, e in zip(steps[::2], steps[1::2])
                ]
            phi = make_activity_set(raw)
            k = rng.randint(1, 4)
            got = [v.detail[0] for v in _k_bound_violations(phi, k)]
            assert got == rescan(phi, k), (raw, k)

    def test_k_bound_huge_k_never_violated(self):
        for seed in range(20):
            instance = random_instance(seed)
            full = make_activity_set(
                {lid: list(ivs) for lid, ivs in instance.presences.items()}
            )
            report = check_model(instance, full, AmMode.AM1, k=10**9)
            assert not any(v.rule == "K-BOUND" for v in report.violations)

    def test_min_duration(self, i1):
        phi = phi_of(l1=[(0, 10)], l2=[(0, 4)], l3=[(2, 8)])
        report = check_model(i1, phi, AmMode.AM2, min_duration=5.0)
        assert [v.rule for v in report.violations] == ["MIN-DUR"]
        assert report.violations[0].labels == ("l2",)

    def test_am3_unjustified_inner_start(self, i1):
        report = check_model(i1, phi_of(l3=[(3, 8)]), AmMode.AM3)
        assert [v.rule for v in report.violations] == ["AM-start"]

    def test_report_serializes(self, i1):
        report = check_model(i1, phi_of(l3=[(3, 8)]), AmMode.AM3)
        assert '"AM-start"' in report.to_json()


class TestSaturate:
    def test_maximum_selection_unchanged(self, i1):
        graph = build_graph(i1, AmMode.AM2)
        by_interval = {
            (c.label_id, c.interval.start, c.interval.end): c.id for c in graph.candidates
        }
        best = {
            by_interval[("l1", 0.0, 10.0)],
            by_interval[("l2", 0.0, 4.0)],
            by_interval[("l3", 2.0, 8.0)],
        }
        assert saturate(i1, graph, best) == best

    def test_swap_to_longer_candidate(self, i1):
        graph = build_graph(i1, AmMode.AM2)
        # shorten l2's candidate artificially by selecting nothing for l2, then
        # check that selecting the short l2 candidate is upgraded
        by_interval = {
            (c.label_id, c.interval.start, c.interval.end): c.id for c in graph.candidates
        }
        selection = {
            by_interval[("l1", 0.0, 10.0)],
            by_interval[("l3", 2.0, 8.0)],
        }
        # no l2 candidate selected: saturation never adds vertices
        assert saturate(i1, graph, selection) == selection

    def test_saturate_improves_weight_within_cluster(self, i1):
        graph = build_graph(i1, AmMode.AM3)
        by_interval = {
            (c.label_id, c.interval.start, c.interval.end): c.id for c in graph.candidates
        }
        # l2 active on its suffix only; l1 unselected, so the full l2 candidate fits
        selection = {by_interval[("l2", 6.0, 10.0)]}
        result = saturate(i1, graph, selection)
        assert result == {by_interval[("l2", 0.0, 10.0)]}

    def test_empty_selection_stays_empty(self, i1):
        graph = build_graph(i1, AmMode.AM2)
        assert saturate(i1, graph, set()) == set()

    def test_not_independent_rejected(self, i1):
        graph = build_graph(i1, AmMode.AM3)
        cluster = next(m for m in graph.clusters.values() if len(m) >= 2)
        with pytest.raises(IntegrityError):
            saturate(i1, graph, set(cluster[:2]))

    def test_idempotent_in_weight(self):
        for seed in range(30):
            instance = random_instance(seed)
            graph = build_graph(instance, AmMode.AM3)
            # greedy-ish independent selection by id
            selection = set()
            for v in range(len(graph)):
                if all(not graph.adjacent(v, u) for u in selection):
                    selection.add(v)
            once = saturate(instance, graph, selection)
            twice = saturate(instance, graph, once)
            assert graph.selection_weight(once) >= graph.selection_weight(selection)
            assert graph.selection_weight(twice) == graph.selection_weight(once)

    def test_saturated_am1_selection_is_model_valid(self):
        # For AM1 every candidate spans its full presence interval, so any
        # independent set (saturated or not) conforms to the model.
        for seed in range(40):
            instance = random_instance(seed)
            graph = build_graph(instance, AmMode.AM1)
            selection = set()
            for v in sorted(range(len(graph)), key=lambda v: -graph.weight(v)):
                if all(not graph.adjacent(v, u) for u in selection):
                    selection.add(v)
            saturated = saturate(instance, graph, selection)
            phi = graph.to_activity_set(saturated)
            assert check_model(instance, phi, AmMode.AM1).valid, seed

    def test_saturation_alone_does_not_imply_am3_validity(self):
        # Regression: a saturated independent set can still contain an
        # activity whose start has no active witness (the conflict providing
        # the start point outlives the witness's activity, and every longer
        # cluster-mate collides with the selection).  Solvers therefore run a
        # justification repair pass on top of saturation.
        instance = random_instance(5)
        graph = build_graph(instance, AmMode.AM3)
        selection = set()
        for v in sorted(range(len(graph)), key=lambda v: -graph.weight(v)):
            if all(not graph.adjacent(v, u) for u in selection):
                selection.add(v)
        saturated = saturate(instance, graph, selection)
        phi = graph.to_activity_set(saturated)
        report = check_model(instance, phi, AmMode.AM3)
        assert any(v.rule == "AM-start" for v in report.violations)

        from chronolabel.solvers import repair_selection

        repaired = repair_selection(instance, graph, saturated, AmMode.AM3)
        assert check_model(instance, graph.to_activity_set(repaired), AmMode.AM3).valid
