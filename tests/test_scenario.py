import json
import math
import tracemalloc

import numpy as np
import pytest

from chronolabel.cli import demo_scenario_text
from chronolabel.model import IntegrityError, ParseError, dump_instance
from chronolabel.scenario import (
    Poi,
    Poses,
    Scenario,
    build_zoom_plan,
    dump_scenario,
    extract_instance,
    in_view,
    label_boxes,
    load_scenario,
    overlap,
    pixels_per_meter,
    smooth_route,
    synthesize_scenario,
    viewport_poses,
)
from dataclasses import replace

from oracle import extract_instance_reference, viewport_poses_reference


SCENARIO_JSON = json.dumps(
    {
        "route": [[0, 0], [0, 1000]],
        "speed_mps": [10.0],
        "pois": [{"x": 10, "y": 500, "w_px": 40, "h_px": 18, "weight": 1, "name": "Alpha"}],
    }
)


def small_scenario(seed: int) -> Scenario:
    return synthesize_scenario(seed, n_edges=6, n_pois=12, corridor=300.0)


def colocated_scenario() -> Scenario:
    """Two identical pois beside a straight route."""
    a = Poi(x=100.0, y=1500.0, w_px=80.0, h_px=18.0)
    return Scenario(route=((0.0, 0.0), (0.0, 3000.0)), speeds=(10.0,), pois=(a, a))


def piece_pose(piece, s: float):
    """(x, y, heading x, heading y) of a trajectory piece at arc length s."""
    return tuple(float(v[0]) for v in np.broadcast_arrays(*piece.pose(np.array([s]))))


def alphas(traj, plan, ts) -> np.ndarray:
    poses = viewport_poses(traj, plan, 1.0, ts)
    return np.arctan2(poses.sin_a, poses.cos_a)


def single_pose(cx: float, cy: float, alpha: float, ppm: float) -> Poses:
    return Poses(*(np.array([v]) for v in (cx, cy, math.sin(alpha), math.cos(alpha), ppm)))


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
                x0, y0, hx0, hy0 = piece_pose(prev, prev.length)
                x1, y1, hx1, hy1 = piece_pose(nxt, 0.0)
                assert math.hypot(x1 - x0, y1 - y0) < 1e-6
                jump = math.remainder(math.atan2(hx0, hy0) - math.atan2(hx1, hy1), 2 * math.pi)
                assert abs(jump) < 1e-6


class TestZoomAndPose:
    def test_alpha_zero_heading_north(self):
        scenario = Scenario(route=((0.0, 0.0), (0.0, 1000.0)), speeds=(10.0,), pois=())
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        plan = build_zoom_plan(scenario, traj)
        assert alphas(traj, plan, [0.0, traj.duration / 2]) == pytest.approx([0.0, 0.0])

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
                ramp_alphas = alphas(traj, plan, ts)
                assert ramp_alphas.max() - ramp_alphas.min() < 1e-9
                # the ramp lies on a straight piece
                assert any(
                    not p.is_arc and p.t0 <= start and end <= p.t1 for p in traj.pieces
                )

    def test_poses_at_piece_boundaries_equal_the_owning_piece(self):
        # the owning piece is the one the side="right" lookup, clipped to
        # range, picks; its own pose() must give the same bits
        kinds = set()
        for seed in range(5):
            scenario = small_scenario(seed)
            traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
            plan = build_zoom_plan(scenario, traj)
            ts = np.array(
                [0.0, traj.duration, *(t for p in traj.pieces for t in (p.t0, p.t1))]
            )
            poses = viewport_poses(traj, plan, 1.0, ts)
            owners = np.searchsorted([p.t0 for p in traj.pieces], ts, side="right") - 1
            for k, t in enumerate(ts):
                piece = traj.pieces[min(max(owners[k], 0), len(traj.pieces) - 1)]
                s = np.minimum((ts[k : k + 1] - piece.t0) * piece.speed, piece.length)
                got = tuple(float(c[k]) for c in poses[:4])
                assert got == piece_pose(piece, float(s[0])), (seed, t)
                kinds.add(piece.is_arc)
        assert kinds == {False, True}

    def test_poses_equal_per_piece_reference(self):
        for seed in range(5):
            scenario = small_scenario(seed)
            traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
            plan = build_zoom_plan(scenario, traj)
            ts = np.linspace(0.0, traj.duration, 2001)
            got = viewport_poses(traj, plan, scenario.base_ppm, ts)
            want = viewport_poses_reference(traj, plan, scenario.base_ppm, ts)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), seed

    def test_pose_out_of_range(self):
        scenario = Scenario(route=((0.0, 0.0), (0.0, 100.0)), speeds=(10.0,), pois=())
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        plan = build_zoom_plan(scenario, traj)
        viewport_poses(traj, plan, 1.0, [0.0, traj.duration])
        for t in (-1.0, traj.duration + 1.0, math.nan):
            with pytest.raises(ValueError):
                viewport_poses(traj, plan, 1.0, [5.0, t])


class TestLabelBox:
    def test_anchor_at_center_bottom_midpoint(self):
        box = label_boxes(single_pose(10.0, 20.0, 1.2345, 1.0), 10.0, 20.0, 100.0, 20.0)
        assert in_view(box).all()
        assert [float(v[0]) for v in box] == pytest.approx([-50.0, 0.0, 50.0, 20.0])

    def test_far_anchor_absent(self):
        box = label_boxes(single_pose(0.0, 0.0, 0.0, 1.0), 1e6, 1e6, 100.0, 20.0)
        assert not in_view(box).any()

    def test_box_touching_viewport_border_is_in_view(self):
        # 450 px east: the 100 px box's left edge sits on the right border
        pose = single_pose(0.0, 0.0, 0.0, 1.0)
        assert in_view(label_boxes(pose, 450.0, 0.0, 100.0, 20.0)).all()
        assert not in_view(label_boxes(pose, 450.5, 0.0, 100.0, 20.0)).any()

    def test_close_pois_overlap_at_high_zoom(self):
        # 5 m apart at 20 px/m -> 100 px apart; 100 px boxes overlap
        pose = single_pose(2.5, 0.0, 0.0, 20.0)
        box_a = label_boxes(pose, 0.0, 0.0, 100.0, 20.0)
        box_b = label_boxes(pose, 5.0, 0.0, 100.0, 20.0)
        assert overlap(box_a, box_b).all()
        # 6 m apart -> 120 px: the boxes no longer touch
        assert not overlap(box_a, label_boxes(pose, 6.0, 0.0, 100.0, 20.0)).any()

    def test_overlap_needs_both_boxes_in_view(self):
        # two colocated boxes far off-screen intersect each other but do not conflict
        pose = single_pose(0.0, 0.0, 0.0, 1.0)
        box = label_boxes(pose, 1e6, 0.0, 100.0, 20.0)
        assert not overlap(box, box).any()


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
        scenario = colocated_scenario()
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

    def test_presence_boundaries_bracket_a_flip(self):
        # each refined boundary inside (0, duration) is a switch of its own
        # poi's visibility: shown from a start on, hidden from an end on,
        # with the opposite reading eps earlier
        for seed in range(5):
            scenario = small_scenario(seed)
            traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
            plan = build_zoom_plan(scenario, traj)
            checked = 0
            for lid, intervals in extract_instance(scenario).presences.items():
                poi = scenario.pois[int(lid[1:])]
                for iv in intervals:
                    for b, shown in ((iv.start, True), (iv.end, False)):
                        if not 0 < b < traj.duration:
                            continue
                        ts = [max(b - scenario.eps, 0.0), b]
                        poses = viewport_poses(traj, plan, scenario.base_ppm, ts)
                        seen = in_view(label_boxes(poses, poi.x, poi.y, poi.w_px, poi.h_px))
                        assert seen.tolist() == [not shown, shown], (seed, lid, b)
                        checked += 1
            assert checked > 0, seed

    def test_instance_invariants_hold(self):
        # Instance's constructor enforces disjoint presences and conflicts
        # contained in both labels' presences.
        for seed in range(5):
            extract_instance(small_scenario(seed))


class TestExtractMatchesReference:
    """Extraction emits byte for byte the instance of the reference, which
    evaluates whole poi x sample grids and every prefiltered pair over the
    whole timeline (``tests/oracle.py``)."""

    def test_synthesized_scenarios(self):
        # scenario 21 is the benchmarks' reference scenario
        for seed in sorted({*range(30), 21, *range(300, 310)}):
            scenario = synthesize_scenario(seed)
            got = dump_instance(extract_instance(scenario))
            assert got == dump_instance(extract_instance_reference(scenario)), seed

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(load_scenario(demo_scenario_text()), id="demo"),
            pytest.param(
                Scenario(route=((0.0, 0.0), (0.0, 1000.0)), speeds=(10.0,), pois=()),
                id="zero-pois",
            ),
            pytest.param(colocated_scenario(), id="colocated-pois"),
        ],
    )
    def test_special_scenarios(self, scenario):
        got = dump_instance(extract_instance(scenario))
        assert got == dump_instance(extract_instance_reference(scenario))

    def test_peak_memory_below_five_grids(self):
        # a grid is one float64 per poi and sample; the whole-grid reference
        # peaks at about 7 of them on this scenario
        scenario = synthesize_scenario(0)
        traj = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
        samples = max(math.ceil(traj.duration / scenario.dt), 1) + 1
        grid = len(scenario.pois) * samples * 8
        extract_instance(scenario)  # first-call allocations are not extraction's
        tracemalloc.start()
        try:
            extract_instance(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * grid, peak / grid


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
            pytest.param(("settings",), {"viewport_px": [1920, 1080]}, id="viewport-other"),
            pytest.param(("settings",), {"viewport_px": "nonsense"}, id="viewport-string"),
            pytest.param(("settings",), {"smoothing_raduis": 40.0}, id="setting-unknown"),
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
