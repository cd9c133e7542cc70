"""Navigation scenario generation: from geometry to a labeling instance.

A scenario describes a vehicle driving a polyline route on the map plane
with per-edge speeds, a viewport that follows the vehicle (centered on it,
rotated so the driving direction points up, zoomed per speed), and a set of
points of interest with fixed-size screen-space label boxes anchored at the
bottom-midpoint above their map anchor.

Phase 1 turns this into an :class:`~chronolabel.model.Instance`: presence
intervals are the maximal time ranges during which a label's box intersects
the viewport, conflict intervals the maximal ranges during which two boxes
intersect.  State changes are detected on a uniform sampling grid and
refined by bisection.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    ParseError,
    TimeInterval,
    finite_number,
)

VIEWPORT_PX = (800.0, 600.0)
DEFAULT_SMOOTHING_RADIUS = 40.0
DEFAULT_ZOOM_RAMP = 2.0
DEFAULT_MIN_ZOOM_GAP = 5.0
DEFAULT_DT = 0.05
DEFAULT_EPS = 1e-3

# A point fixed on the map must take at least 60 s to traverse the viewport
# height (600 px), so the pixels-per-meter factor at speed v is bounded by
# 600 px / (60 s * v); equality is used.
TRAVERSAL_SECONDS = 60.0


def pixels_per_meter(speed: float) -> float:
    return VIEWPORT_PX[1] / (TRAVERSAL_SECONDS * speed)


@dataclass(frozen=True)
class Poi:
    x: float
    y: float
    w_px: float
    h_px: float
    weight: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.w_px <= 0 or self.h_px <= 0:
            raise IntegrityError(f"poi {self.name!r}: box must have positive size")
        if self.weight <= 0:
            raise IntegrityError(f"poi {self.name!r}: weight must be positive")

    @property
    def diag_px(self) -> float:
        return math.hypot(self.w_px, self.h_px)


@dataclass(frozen=True)
class Scenario:
    route: tuple  # tuple of (x, y) map-plane points, meters
    speeds: tuple  # per-edge speed limit, m/s; len == len(route) - 1
    pois: tuple  # tuple[Poi]
    smoothing_radius: float = DEFAULT_SMOOTHING_RADIUS
    zoom_ramp: float = DEFAULT_ZOOM_RAMP
    min_zoom_gap: float = DEFAULT_MIN_ZOOM_GAP
    dt: float = DEFAULT_DT
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise IntegrityError("route needs at least 2 points")
        if len(self.speeds) != len(self.route) - 1:
            raise IntegrityError(
                f"route with {len(self.route)} points needs {len(self.route) - 1} "
                f"edge speeds, got {len(self.speeds)}"
            )
        for v in self.speeds:
            if v <= 0:
                raise IntegrityError("edge speeds must be positive")
        for p, q in zip(self.route, self.route[1:]):
            if p == q:
                raise IntegrityError("consecutive route points must be distinct")
        if self.smoothing_radius < 0:
            raise IntegrityError("smoothing radius must be >= 0")
        if not (self.dt > 0 and self.eps > 0):
            raise IntegrityError("sampling step dt and tolerance eps must be positive")

    @property
    def base_ppm(self) -> float:
        """Pixels per meter at zoom 1 (the slowest speed level)."""
        return pixels_per_meter(min(self.speeds))

    def zoom_of(self, speed: float) -> float:
        """Zoom level for an edge speed: z = v_min / v, in (0, 1]."""
        return min(self.speeds) / speed


# ---------------------------------------------------------------------------
# Trajectory: alternating segments and circular arcs, C1 at joints


class _Segment:
    __slots__ = ("p0", "direction", "length", "speed", "t0", "t1")

    def __init__(self, p0, p1, speed):
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        self.length = math.hypot(dx, dy)
        self.p0 = p0
        self.direction = (dx / self.length, dy / self.length)
        self.speed = speed
        self.t0 = self.t1 = 0.0

    @property
    def is_arc(self) -> bool:
        return False

    def point(self, s: float):
        return (self.p0[0] + self.direction[0] * s, self.p0[1] + self.direction[1] * s)

    def heading(self, s: float):
        return self.direction


class _Arc:
    __slots__ = ("center", "radius", "a0", "side", "length", "speed", "t0", "t1")

    def __init__(self, center, radius, a0, side, sweep, speed):
        self.center = center
        self.radius = radius
        self.a0 = a0
        self.side = side  # +1 counter-clockwise, -1 clockwise
        self.length = radius * sweep
        self.speed = speed
        self.t0 = self.t1 = 0.0

    @property
    def is_arc(self) -> bool:
        return True

    def _angle(self, s: float) -> float:
        return self.a0 + self.side * s / self.radius

    def point(self, s: float):
        a = self._angle(s)
        return (
            self.center[0] + self.radius * math.cos(a),
            self.center[1] + self.radius * math.sin(a),
        )

    def heading(self, s: float):
        a = self._angle(s)
        return (-self.side * math.sin(a), self.side * math.cos(a))


@dataclass(frozen=True)
class Trajectory:
    pieces: tuple
    duration: float
    _starts: tuple = field(repr=False, default=())

    def point_at(self, t: float):
        return self._piece(t).point(self._offset(t))

    def heading_at(self, t: float):
        return self._piece(t).heading(self._offset(t))

    def _piece(self, t: float):
        if not (0 <= t <= self.duration):
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        i = bisect_right(self._starts, t) - 1
        return self.pieces[min(i, len(self.pieces) - 1)]

    def _offset(self, t: float) -> float:
        piece = self._piece(t)
        return min((t - piece.t0) * piece.speed, piece.length)


_COLLINEAR_EPS = 1e-12


def smooth_route(
    route: Sequence[Tuple[float, float]],
    speeds: Sequence[float],
    smoothing_radius: float,
) -> Trajectory:
    """Replace polyline corners by tangent circular arcs (C1 joints).

    Where the requested radius does not fit (tangent length over half of an
    incident edge) the largest fitting radius is used instead.  Collinear
    corners get no arc; near-reversals (turn angle ~ pi) are rejected.
    """
    points = [tuple(map(float, p)) for p in route]
    pieces: list = []
    cursor = points[0]  # current position along the smoothed path

    for i in range(1, len(points) - 1):
        a, b, c = points[i - 1], points[i], points[i + 1]
        len_in = math.hypot(b[0] - a[0], b[1] - a[1])
        len_out = math.hypot(c[0] - b[0], c[1] - b[1])
        u = ((b[0] - a[0]) / len_in, (b[1] - a[1]) / len_in)
        w = ((c[0] - b[0]) / len_out, (c[1] - b[1]) / len_out)
        cross = u[0] * w[1] - u[1] * w[0]
        dot = max(-1.0, min(1.0, u[0] * w[0] + u[1] * w[1]))
        turn = math.atan2(abs(cross), dot)  # in [0, pi]
        if turn < _COLLINEAR_EPS or abs(cross) < _COLLINEAR_EPS and dot > 0:
            # collinear: no corner, the incoming segment continues
            _append_segment(pieces, cursor, b, speeds[i - 1])
            cursor = b
            continue
        if math.pi - turn < 1e-9:
            raise IntegrityError(f"route reverses direction at point {i}")

        tan_half = math.tan(turn / 2.0)
        remaining_in = math.hypot(b[0] - cursor[0], b[1] - cursor[1])
        max_d = min(remaining_in, len_out / 2.0)
        d = min(smoothing_radius * tan_half, max_d)
        radius = d / tan_half
        if radius <= 0:
            _append_segment(pieces, cursor, b, speeds[i - 1])
            cursor = b
            continue

        p1 = (b[0] - u[0] * d, b[1] - u[1] * d)  # arc entry
        p2 = (b[0] + w[0] * d, b[1] + w[1] * d)  # arc exit
        side = 1.0 if cross > 0 else -1.0
        normal = (-side * u[1], side * u[0])  # toward the turn center
        center = (p1[0] + normal[0] * radius, p1[1] + normal[1] * radius)
        a0 = math.atan2(p1[1] - center[1], p1[0] - center[0])

        _append_segment(pieces, cursor, p1, speeds[i - 1])
        arc_speed = min(speeds[i - 1], speeds[i])
        pieces.append(_Arc(center, radius, a0, side, turn, arc_speed))
        cursor = p2

    _append_segment(pieces, cursor, points[-1], speeds[-1])
    if not pieces:
        raise IntegrityError("route degenerates to a point after smoothing")

    t = 0.0
    for piece in pieces:
        piece.t0 = t
        t += piece.length / piece.speed
        piece.t1 = t
    return Trajectory(tuple(pieces), t, tuple(p.t0 for p in pieces))


def _append_segment(pieces: list, p0, p1, speed: float) -> None:
    if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < _COLLINEAR_EPS:
        return
    last = pieces[-1] if pieces else None
    if (
        last is not None
        and not last.is_arc
        and last.speed == speed
        and abs(
            last.direction[0] * (p1[1] - p0[1]) - last.direction[1] * (p1[0] - p0[0])
        )
        < _COLLINEAR_EPS
    ):
        # merge collinear same-speed segments
        pieces[-1] = _Segment(last.p0, p1, speed)
        return
    pieces.append(_Segment(p0, p1, speed))


# ---------------------------------------------------------------------------
# Zoom plan: piecewise-linear zoom over time, ramps only on straight pieces


@dataclass(frozen=True)
class ZoomPlan:
    times: tuple  # breakpoints, increasing
    zooms: tuple  # zoom at each breakpoint; linear in between, clamped outside
    ramps: tuple  # (start, end) windows during which the zoom changes

    def z_at(self, t):
        return np.interp(t, self.times, self.zooms)


def build_zoom_plan(scenario: Scenario, trajectory: Trajectory) -> ZoomPlan:
    """Schedule zoom changes: the zoom follows each straight segment's speed
    level, interpolated linearly over ``zoom_ramp`` seconds at the segment
    start, with at least ``min_zoom_gap`` seconds between two ramps.  Arcs
    never change the zoom (the viewport does not rotate and zoom at once).
    """
    times: List[float] = [0.0]
    segments = [p for p in trajectory.pieces if not p.is_arc]
    current = scenario.zoom_of(segments[0].speed)
    zooms: List[float] = [current]
    ramps: List[Tuple[float, float]] = []
    prev_end = -math.inf
    for seg in segments:
        target = scenario.zoom_of(seg.speed)
        if target == current:
            continue
        start = max(seg.t0, prev_end + scenario.min_zoom_gap)
        end = min(start + scenario.zoom_ramp, seg.t1)
        start = min(start, end)
        times.extend((start, end))
        zooms.extend((current, target))
        if end > start:
            ramps.append((start, end))
        current = target
        prev_end = end
    times.append(trajectory.duration)
    zooms.append(current)
    return ZoomPlan(tuple(times), tuple(zooms), tuple(ramps))


# ---------------------------------------------------------------------------
# Viewport pose and screen-space label boxes


@dataclass(frozen=True)
class ViewportPose:
    center: tuple  # map-plane point
    alpha: float  # radians clockwise from north (driving direction up)
    zoom: float


def pose_at(trajectory: Trajectory, zoom_plan: ZoomPlan, t: float) -> ViewportPose:
    hx, hy = trajectory.heading_at(t)
    return ViewportPose(
        center=trajectory.point_at(t),
        alpha=math.atan2(hx, hy),
        zoom=float(zoom_plan.z_at(t)),
    )


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in viewport coordinates (origin at the center)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def intersects(self, other: "Box") -> bool:
        return (
            self.x0 <= other.x1
            and other.x0 <= self.x1
            and self.y0 <= other.y1
            and other.y0 <= self.y1
        )


def _viewport_box() -> Box:
    return Box(-VIEWPORT_PX[0] / 2, -VIEWPORT_PX[1] / 2, VIEWPORT_PX[0] / 2, VIEWPORT_PX[1] / 2)


def label_box_in_view(pose: ViewportPose, poi: Poi, base_ppm: float) -> Optional[Box]:
    """The poi's label box in viewport pixels, or None when fully off-screen.

    The box keeps its pixel size at every zoom; its bottom-midpoint sits at
    the projected anchor.  Touching the viewport border counts as visible.
    """
    ppm = base_ppm * pose.zoom
    rx = poi.x - pose.center[0]
    ry = poi.y - pose.center[1]
    sin_a, cos_a = math.sin(pose.alpha), math.cos(pose.alpha)
    xv = (rx * cos_a - ry * sin_a) * ppm
    yv = (rx * sin_a + ry * cos_a) * ppm
    box = Box(xv - poi.w_px / 2, yv, xv + poi.w_px / 2, yv + poi.h_px)
    if box.intersects(_viewport_box()):
        return box
    return None


# ---------------------------------------------------------------------------
# Event extraction


def _refine(predicate, lo: float, hi: float, eps: float) -> float:
    """Bisect the switching point of a boolean predicate inside (lo, hi].

    ``predicate(lo) != predicate(hi)`` is assumed; the returned time is
    within eps of the true switch.
    """
    want = predicate(hi)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if predicate(mid) == want:
            hi = mid
        else:
            lo = mid
    return hi


def _intervals_from_samples(
    states: np.ndarray, ts: np.ndarray, predicate, eps: float, min_len: float
) -> List[TimeInterval]:
    """Maximal true-ranges of a sampled boolean signal, boundaries bisected."""
    out: List[TimeInterval] = []
    flips = np.flatnonzero(states[1:] != states[:-1])
    boundaries = [_refine(predicate, float(ts[i]), float(ts[i + 1]), eps) for i in flips]
    edges = [float(ts[0])] + boundaries + [float(ts[-1])]
    state = bool(states[0])
    for lo, hi in zip(edges, edges[1:]):
        if state and hi - lo >= min_len:
            out.append(TimeInterval(lo, hi))
        state = not state
    return out


class _SampledPath:
    """Vectorized viewport poses on the sampling grid plus scalar lookups."""

    def __init__(self, scenario: Scenario, trajectory: Trajectory, plan: ZoomPlan):
        self.scenario = scenario
        self.trajectory = trajectory
        self.plan = plan
        dt = scenario.dt
        n = max(int(math.ceil(trajectory.duration / dt)), 1)
        ts = np.minimum(np.arange(n + 1) * dt, trajectory.duration)
        self.ts = ts
        cx = np.empty_like(ts)
        cy = np.empty_like(ts)
        hx = np.empty_like(ts)
        hy = np.empty_like(ts)
        starts = [p.t0 for p in trajectory.pieces]
        idx = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(starts) - 1)
        for k, piece in enumerate(trajectory.pieces):
            sel = idx == k
            if not np.any(sel):
                continue
            s = np.minimum((ts[sel] - piece.t0) * piece.speed, piece.length)
            if piece.is_arc:
                ang = piece.a0 + piece.side * s / piece.radius
                cx[sel] = piece.center[0] + piece.radius * np.cos(ang)
                cy[sel] = piece.center[1] + piece.radius * np.sin(ang)
                hx[sel] = -piece.side * np.sin(ang)
                hy[sel] = piece.side * np.cos(ang)
            else:
                cx[sel] = piece.p0[0] + piece.direction[0] * s
                cy[sel] = piece.p0[1] + piece.direction[1] * s
                hx[sel] = piece.direction[0]
                hy[sel] = piece.direction[1]
        self.cx, self.cy = cx, cy
        # alpha clockwise from north; rotation into view coordinates uses
        # sin(alpha) = hx, cos(alpha) = hy directly
        self.sin_a, self.cos_a = hx, hy
        self.ppm = scenario.base_ppm * plan.z_at(ts)

    def view_xy(self, poi: Poi) -> Tuple[np.ndarray, np.ndarray]:
        rx = poi.x - self.cx
        ry = poi.y - self.cy
        xv = (rx * self.cos_a - ry * self.sin_a) * self.ppm
        yv = (rx * self.sin_a + ry * self.cos_a) * self.ppm
        return xv, yv

    @staticmethod
    def _visible_xy(xv, yv, poi: Poi):
        half_w, half_h = VIEWPORT_PX[0] / 2, VIEWPORT_PX[1] / 2
        return (
            (xv + poi.w_px / 2 >= -half_w)
            & (xv - poi.w_px / 2 <= half_w)
            & (yv + poi.h_px >= -half_h)
            & (yv <= half_h)
        )

    def visible_scalar(self, poi: Poi, t: float) -> bool:
        pose = pose_at(self.trajectory, self.plan, t)
        return label_box_in_view(pose, poi, self.scenario.base_ppm) is not None

    def conflict_scalar(self, a: Poi, b: Poi, t: float) -> bool:
        pose = pose_at(self.trajectory, self.plan, t)
        box_a = label_box_in_view(pose, a, self.scenario.base_ppm)
        box_b = label_box_in_view(pose, b, self.scenario.base_ppm)
        return box_a is not None and box_b is not None and box_a.intersects(box_b)


def extract_instance(scenario: Scenario) -> Instance:
    """Presence/conflict extraction over the whole trajectory duration."""
    trajectory = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
    plan = build_zoom_plan(scenario, trajectory)
    path = _SampledPath(scenario, trajectory, plan)
    eps = scenario.eps
    min_len = 2 * eps

    label_ids = [f"p{i:03d}" for i in range(len(scenario.pois))]
    presences: Dict[str, List[TimeInterval]] = {}
    view_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, poi in enumerate(scenario.pois):
        xv, yv = path.view_xy(poi)
        vis = path._visible_xy(xv, yv, poi)
        view_cache[i] = (xv, yv, vis)
        intervals = _intervals_from_samples(
            vis, path.ts, lambda t, p=poi: path.visible_scalar(p, t), eps, min_len
        )
        if intervals:
            presences[label_ids[i]] = intervals

    # pair prefilter: anchors close enough that the boxes could ever touch,
    # measured at the smallest pixels-per-meter factor (widest view)
    min_ppm = scenario.base_ppm * min(plan.zooms)
    conflicts: List[ConflictEntry] = []
    present = [i for i in range(len(scenario.pois)) if label_ids[i] in presences]
    for ai in range(len(present)):
        i = present[ai]
        poi_i = scenario.pois[i]
        for j in present[ai + 1 :]:
            poi_j = scenario.pois[j]
            reach = (poi_i.diag_px + poi_j.diag_px) / min_ppm
            if math.hypot(poi_i.x - poi_j.x, poi_i.y - poi_j.y) > reach:
                continue
            xi, yi, vis_i = view_cache[i]
            xj, yj, vis_j = view_cache[j]
            overlap = (
                vis_i
                & vis_j
                & (np.abs(xi - xj) <= (poi_i.w_px + poi_j.w_px) / 2)
                & (yi <= yj + poi_j.h_px)
                & (yj <= yi + poi_i.h_px)
            )
            raw = _intervals_from_samples(
                overlap,
                path.ts,
                lambda t, a=poi_i, b=poi_j: path.conflict_scalar(a, b, t),
                eps,
                min_len,
            )
            clipped = _clip_to_presences(
                raw, presences[label_ids[i]], presences[label_ids[j]], min_len
            )
            conflicts.extend(
                ConflictEntry(label_ids[i], label_ids[j], iv) for iv in clipped
            )

    labels = {
        label_ids[i]: Label(
            id=label_ids[i], weight=scenario.pois[i].weight, display_name=scenario.pois[i].name
        )
        for i in range(len(scenario.pois))
        if label_ids[i] in presences
    }
    return Instance(
        horizon=trajectory.duration,
        labels=labels,
        presences={lid: tuple(sorted(ivs)) for lid, ivs in presences.items()},
        conflicts=tuple(sorted(conflicts, key=lambda e: (e.a, e.b, e.interval))),
    )


def _clip_to_presences(
    raw: List[TimeInterval],
    pres_a: List[TimeInterval],
    pres_b: List[TimeInterval],
    min_len: float,
) -> List[TimeInterval]:
    """Intersect conflict intervals with both labels' presences so that
    bisection noise can never push a conflict outside a presence interval."""
    out = []
    for iv in raw:
        for pa in pres_a:
            for pb in pres_b:
                lo = max(iv.start, pa.start, pb.start)
                hi = min(iv.end, pa.end, pb.end)
                if hi - lo >= min_len:
                    out.append(TimeInterval(lo, hi))
    return sorted(out)


# ---------------------------------------------------------------------------
# Serialization (UTF-8 JSON)

Source = Union[str, bytes, IO]


def load_scenario(source: Source) -> Scenario:
    try:
        if isinstance(source, (str, bytes)):
            doc = json.loads(source)
        else:
            doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    try:
        route = tuple(
            (finite_number(p[0], "route point"), finite_number(p[1], "route point"))
            for p in doc["route"]
        )
        speeds = tuple(finite_number(v, "edge speed") for v in doc["speed_mps"])
        pois = tuple(
            Poi(
                x=finite_number(p["x"], "poi x"),
                y=finite_number(p["y"], "poi y"),
                w_px=finite_number(p["w_px"], "poi w_px"),
                h_px=finite_number(p["h_px"], "poi h_px"),
                weight=finite_number(p.get("weight", 1.0), "poi weight"),
                name=p.get("name", ""),
            )
            for p in doc.get("pois", [])
        )
        if not all(isinstance(poi.name, str) for poi in pois):
            raise ParseError("poi name must be a string")
        settings = doc.get("settings", {})
        if not isinstance(settings, dict):
            raise ParseError("settings must be an object")
        values = {
            key: finite_number(settings.get(key, default), f"setting {key!r}")
            for key, default in (
                ("smoothing_radius", DEFAULT_SMOOTHING_RADIUS),
                ("zoom_ramp", DEFAULT_ZOOM_RAMP),
                ("min_zoom_gap", DEFAULT_MIN_ZOOM_GAP),
                ("dt", DEFAULT_DT),
                ("eps", DEFAULT_EPS),
            )
        }
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"scenario: {exc}") from exc
    return Scenario(route=route, speeds=speeds, pois=pois, **values)


def dump_scenario(scenario: Scenario) -> str:
    return json.dumps(
        {
            "route": [[x, y] for x, y in scenario.route],
            "speed_mps": list(scenario.speeds),
            "pois": [
                {
                    "x": p.x,
                    "y": p.y,
                    "w_px": p.w_px,
                    "h_px": p.h_px,
                    "weight": p.weight,
                    "name": p.name,
                }
                for p in scenario.pois
            ],
            "settings": {
                "viewport_px": list(VIEWPORT_PX),
                "smoothing_radius": scenario.smoothing_radius,
                "zoom_ramp": scenario.zoom_ramp,
                "min_zoom_gap": scenario.min_zoom_gap,
                "dt": scenario.dt,
                "eps": scenario.eps,
            },
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# Seeded synthetic scenarios (stand-in for map extracts)

_SPEED_LEVELS = (10.0, 15.0, 20.0, 25.0)  # m/s
_GLYPH_W_PX = 8.0
_LINE_H_PX = 18.0
_CONSONANTS = "bcdfghklmnprstvw"
_VOWELS = "aeiou"


def _random_name(rng: random.Random) -> str:
    n = rng.randint(2, 6)
    word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n))
    return word.capitalize()


def synthesize_scenario(
    seed: int,
    n_edges: int = 12,
    n_pois: int = 55,
    edge_length: Tuple[float, float] = (150.0, 400.0),
    corridor: float = 500.0,
) -> Scenario:
    """A random drive: a meandering route with occasional speed changes and
    POIs scattered in a corridor around it.  Deterministic per seed."""
    rng = random.Random(seed)
    heading = rng.uniform(0, 2 * math.pi)
    x, y = 0.0, 0.0
    route = [(x, y)]
    speeds = []
    speed = rng.choice(_SPEED_LEVELS)
    for _ in range(n_edges):
        length = rng.uniform(*edge_length)
        x += length * math.sin(heading)
        y += length * math.cos(heading)
        route.append((x, y))
        speeds.append(speed)
        heading += rng.uniform(-1.1, 1.1)
        if rng.random() < 0.3:
            speed = rng.choice(_SPEED_LEVELS)

    pois = []
    for _ in range(n_pois):
        edge = rng.randrange(n_edges)
        frac = rng.random()
        px = route[edge][0] + frac * (route[edge + 1][0] - route[edge][0])
        py = route[edge][1] + frac * (route[edge + 1][1] - route[edge][1])
        angle = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(0, corridor)
        name = _random_name(rng)
        pois.append(
            Poi(
                x=px + dist * math.cos(angle),
                y=py + dist * math.sin(angle),
                w_px=_GLYPH_W_PX * len(name) + 6.0,
                h_px=_LINE_H_PX,
                weight=1.0,
                name=name,
            )
        )
    return Scenario(route=tuple(route), speeds=tuple(speeds), pois=tuple(pois))
