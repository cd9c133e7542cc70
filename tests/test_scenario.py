import json
import math

import pytest

from chronolabel.model import IntegrityError, ParseError
from chronolabel.scenario import (
    Poi,
    Scenario,
    ViewportPose,
    build_zoom_plan,
    dump_scenario,
    extract_instance,
    label_box_in_view,
    load_scenario,
    pixels_per_meter,
    pose_at,
    smooth_route,
    synthesize_scenario,
)
from dataclasses import replace


SCENARIO_JSON = json.dumps(
    {
        "route": [[0, 0], [0, 1000]],
        "speed_mps": [10.0],
        "pois": [{"x": 10, "y": 500, "w_px": 40, "h_px": 18, "weight": 1, "name": "Alpha"}],
    }
)


def small_scenario(seed: int) -> Scenario:
    return synthesize_scenario(seed, n_edges=6, n_pois=12, corridor=300.0)


def heading_angle(h) -> float:
    return math.atan2(h[0], h[1])


class TestSmoothRoute:
    def test_straight_two_point_route(self):
        traj = smooth_route([(0.0, 0.0), (0.0, 1000.0)], [10.0], 40.0)
        assert len(traj.pieces) == 1
        assert not traj.pieces[0].is_arc
        assert traj.duration == pytest.approx(100.0)

    def test_collinear_three_point_route_merges(self):
        traj = smooth_route([(0.0, 0.0), (0.0, 500.0), (0.0, 1000.0)], [10.0, 10.0], 40.0)
        assert len(traj.pieces) == 1
        assert traj.duration == pytest.approx(100.0)

    def test_right_angle_fillet_arithmetic(self):
        r = 20.0
        traj = smooth_route([(0.0, 0.0), (0.0, 100.0), (100.0, 100.0)], [10.0, 10.0], r)
        kinds = [p.is_arc for p in traj.pieces]
        assert kinds == [False, True, False]
        arc = traj.pieces[1]
        assert arc.length == pytest.approx(math.pi / 2 * r)
        total = sum(p.length for p in traj.pieces)
        # the corner shortens the path by 2r - (pi/2) r
        assert total == pytest.approx(200.0 - (2 * r - math.pi / 2 * r))

    def test_reversal_rejected(self):
        with pytest.raises(IntegrityError):
            smooth_route([(0.0, 0.0), (0.0, 100.0), (0.0, 0.0)], [10.0, 10.0], 10.0)

    def test_oversized_radius_clamped_to_fit(self):
        # tangent length may not exceed half of each incident edge
        traj = smooth_route([(0.0, 0.0), (0.0, 20.0), (20.0, 20.0)], [10.0, 10.0], 1000.0)
        assert any(p.is_arc for p in traj.pieces)
        assert all(p.length > 0 for p in traj.pieces)

    def test_c1_continuity_at_joints(self):
        for seed in range(20):
            scenario = small_scenario(seed)
            traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
            for prev, nxt in zip(traj.pieces, traj.pieces[1:]):
                a = heading_angle(prev.heading(prev.length))
                b = heading_angle(nxt.heading(0.0))
                jump = abs(math.remainder(a - b, 2 * math.pi))
                assert jump < 1e-6


class TestZoomAndPose:
    def test_alpha_zero_heading_north(self):
        scenario = Scenario(route=((0.0, 0.0), (0.0, 1000.0)), speeds=(10.0,), pois=())
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        plan = build_zoom_plan(scenario, traj)
        assert pose_at(traj, plan, 0.0).alpha == pytest.approx(0.0)

    def test_zoom_ramp_midpoint_interpolates(self):
        scenario = Scenario(
            route=((0.0, 0.0), (0.0, 800.0), (0.0, 1600.0)),
            speeds=(10.0, 20.0),
            pois=(),
        )
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        plan = build_zoom_plan(scenario, traj)
        assert plan.ramps, "speed change must schedule a ramp"
        start, end = plan.ramps[0]
        assert end - start == pytest.approx(scenario.zoom_ramp)
        assert float(plan.z_at(start)) == pytest.approx(1.0)
        assert float(plan.z_at(end)) == pytest.approx(0.5)
        assert float(plan.z_at((start + end) / 2)) == pytest.approx(0.75)

    def test_no_rotation_during_zoom_ramps(self):
        for seed in range(20):
            scenario = small_scenario(seed)
            traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
            plan = build_zoom_plan(scenario, traj)
            for start, end in plan.ramps:
                n = 20
                ts = [start + (end - start) * i / n for i in range(n + 1)]
                alphas = [pose_at(traj, plan, t).alpha for t in ts]
                assert max(alphas) - min(alphas) < 1e-9
                # the ramp lies on a straight piece
                assert all(not traj._piece(t).is_arc for t in ts)

    def test_pose_out_of_range(self):
        scenario = Scenario(route=((0.0, 0.0), (0.0, 100.0)), speeds=(10.0,), pois=())
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        plan = build_zoom_plan(scenario, traj)
        with pytest.raises(ValueError):
            pose_at(traj, plan, traj.duration + 1.0)


class TestLabelBox:
    def test_anchor_at_center_bottom_midpoint(self):
        poi = Poi(x=10.0, y=20.0, w_px=100.0, h_px=20.0)
        pose = ViewportPose(center=(10.0, 20.0), alpha=1.2345, zoom=1.0)
        box = label_box_in_view(pose, poi, base_ppm=1.0)
        assert box is not None
        assert (box.x0, box.y0, box.x1, box.y1) == pytest.approx((-50.0, 0.0, 50.0, 20.0))

    def test_far_anchor_absent(self):
        poi = Poi(x=1e6, y=1e6, w_px=100.0, h_px=20.0)
        pose = ViewportPose(center=(0.0, 0.0), alpha=0.0, zoom=1.0)
        assert label_box_in_view(pose, poi, base_ppm=1.0) is None

    def test_close_pois_overlap_at_high_zoom(self):
        ppm = 20.0  # 5 m apart -> 100 px apart; 100 px boxes overlap
        a = Poi(x=0.0, y=0.0, w_px=100.0, h_px=20.0)
        b = Poi(x=5.0, y=0.0, w_px=100.0, h_px=20.0)
        pose = ViewportPose(center=(2.5, 0.0), alpha=0.0, zoom=1.0)
        box_a = label_box_in_view(pose, a, base_ppm=ppm)
        box_b = label_box_in_view(pose, b, base_ppm=ppm)
        assert box_a is not None and box_b is not None
        assert box_a.intersects(box_b)


class TestExtractInstance:
    def test_zero_pois_empty_instance(self):
        scenario = Scenario(route=((0.0, 0.0), (0.0, 1000.0)), speeds=(10.0,), pois=())
        instance = extract_instance(scenario)
        assert len(instance.labels) == 0
        assert instance.conflicts == ()

    def test_single_poi_on_route_presence_at_least_60s(self):
        # the zoom rule: a fixed point takes >= 60 s to traverse the viewport
        poi = Poi(x=0.0, y=1500.0, w_px=80.0, h_px=18.0)
        scenario = Scenario(route=((0.0, 0.0), (0.0, 3000.0)), speeds=(10.0,), pois=(poi,))
        instance = extract_instance(scenario)
        intervals = instance.presences_of("p000")
        assert len(intervals) == 1
        assert intervals[0].length >= 60.0

    def test_colocated_pois_conflict_equals_presence_intersection(self):
        a = Poi(x=100.0, y=1500.0, w_px=80.0, h_px=18.0)
        b = Poi(x=100.0, y=1500.0, w_px=80.0, h_px=18.0)
        scenario = Scenario(route=((0.0, 0.0), (0.0, 3000.0)), speeds=(10.0,), pois=(a, b))
        instance = extract_instance(scenario)
        pres_a = instance.presences_of("p000")
        pres_b = instance.presences_of("p001")
        assert pres_a == pres_b
        conflicts = [c.interval for c in instance.conflicts]
        assert len(conflicts) == len(pres_a)
        for conflict, presence in zip(conflicts, pres_a):
            assert conflict.start == pytest.approx(presence.start, abs=2 * scenario.eps)
            assert conflict.end == pytest.approx(presence.end, abs=2 * scenario.eps)

    def test_refinement_stability(self):
        for seed in range(3):
            scenario = small_scenario(seed)
            coarse = extract_instance(scenario)
            fine = extract_instance(replace(scenario, eps=scenario.eps / 10))
            assert set(coarse.presences) == set(fine.presences)
            for lid in coarse.presences:
                a, b = coarse.presences_of(lid), fine.presences_of(lid)
                assert len(a) == len(b)
                for iv_a, iv_b in zip(a, b):
                    assert abs(iv_a.start - iv_b.start) < scenario.eps
                    assert abs(iv_a.end - iv_b.end) < scenario.eps

    def test_instance_invariants_hold(self):
        # Instance's constructor enforces disjoint presences and conflicts
        # contained in both labels' presences.
        for seed in range(5):
            extract_instance(small_scenario(seed))


class TestSerialization:
    def test_round_trip(self):
        scenario = small_scenario(4)
        assert load_scenario(dump_scenario(scenario)) == scenario

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("settings",), {"dt": "x"}, id="setting-string"),
            pytest.param(("settings",), [1], id="settings-list"),
            pytest.param(("settings",), {"eps": math.nan}, id="setting-nan"),
            pytest.param(("settings",), {"zoom_ramp": math.inf}, id="setting-inf"),
            pytest.param(("route", 0), [math.inf, 0], id="route-inf"),
            pytest.param(("route", 0), ["a", 0], id="route-string"),
            pytest.param(("speed_mps", 0), math.inf, id="speed-inf"),
            pytest.param(("pois", 0, "x"), -math.inf, id="poi-x-inf"),
            pytest.param(("pois", 0, "weight"), math.nan, id="poi-weight-nan"),
            pytest.param(("pois", 0, "name"), 5, id="poi-name-number"),
        ],
    )
    def test_malformed_scenario_is_parse_error(self, path, value):
        doc = json.loads(SCENARIO_JSON)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("settings", [{"dt": 0}, {"dt": -0.05}, {"eps": 0}, {"eps": -1}])
    def test_nonpositive_dt_or_eps_rejected(self, settings):
        doc = json.loads(SCENARIO_JSON)
        doc["settings"] = settings
        with pytest.raises(IntegrityError):
            load_scenario(json.dumps(doc))

    def test_synthesize_deterministic(self):
        assert synthesize_scenario(5) == synthesize_scenario(5)

    def test_pixels_per_meter_rule(self):
        # 600 px viewport height / (60 s * speed)
        assert pixels_per_meter(10.0) == pytest.approx(1.0)
        assert pixels_per_meter(20.0) == pytest.approx(0.5)
