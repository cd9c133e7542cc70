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
refined by one batched bisection; both evaluate the same vectorized
geometry (:func:`viewport_poses`, :func:`label_boxes`, :func:`in_view`,
:func:`overlap`).  The poi x sample grid is evaluated in cache-sized
chunks, one poi row each, and a pair's overlap signal only over the joint
visibility window, from the first to the last sample showing both labels.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .model import (
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    ParseError,
    Source,
    TimeInterval,
    finite_number,
    load_json,
)

VIEWPORT_PX = (800.0, 600.0)
DEFAULT_SMOOTHING_RADIUS = 40.0
DEFAULT_ZOOM_RAMP = 2.0
DEFAULT_MIN_ZOOM_GAP = 5.0
DEFAULT_DT = 0.05
DEFAULT_EPS = 1e-3
# The Scenario fields a scenario file sets, besides the fixed viewport.
SETTINGS = ("smoothing_radius", "zoom_ramp", "min_zoom_gap", "dt", "eps")

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

    def pose(self, s: np.ndarray):
        """(x, y, heading x, heading y) at the arc lengths ``s``."""
        dx, dy = self.direction
        return self.p0[0] + dx * s, self.p0[1] + dy * s, dx, dy


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

    def pose(self, s: np.ndarray):
        """(x, y, heading x, heading y) at the arc lengths ``s``."""
        a = self.a0 + self.side * s / self.radius
        return (
            self.center[0] + self.radius * np.cos(a),
            self.center[1] + self.radius * np.sin(a),
            -self.side * np.sin(a),
            self.side * np.cos(a),
        )


@dataclass(frozen=True)
class Trajectory:
    pieces: tuple
    duration: float

    @cached_property
    def table(self) -> np.ndarray:
        """Piece parameters by column: t0, speed, length, then a segment's p0,
        direction and radius 0, or an arc's center, a0, side and radius."""
        return np.array(
            [
                (p.t0, p.speed, p.length, *p.center, p.a0, p.side, p.radius)
                if p.is_arc
                else (p.t0, p.speed, p.length, *p.p0, *p.direction, 0.0)
                for p in self.pieces
            ]
        ).T.copy()


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
    return Trajectory(tuple(pieces), t)


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
# Viewport poses and screen-space label boxes, vectorized over time


class Poses(NamedTuple):
    """Viewport poses at an array of times.

    The viewport is centered on (cx, cy) and rotated by alpha, the angle
    clockwise from north of the driving direction, so that the driving
    direction points up; (sin_a, cos_a) is the unit heading.  ``ppm`` is
    pixels per meter.
    """

    cx: np.ndarray
    cy: np.ndarray
    sin_a: np.ndarray
    cos_a: np.ndarray
    ppm: np.ndarray


def viewport_poses(trajectory: Trajectory, zoom_plan: ZoomPlan, base_ppm: float, ts) -> Poses:
    """The viewport pose at each time of the 1-D array ``ts``."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (ts.min() >= 0 and ts.max() <= trajectory.duration):
        raise ValueError(f"times outside [0, {trajectory.duration}]")
    table = trajectory.table
    idx = np.searchsorted(table[0], ts, side="right") - 1
    t0, speed, length, ox, oy, u, v, radius = table[:, np.clip(idx, 0, table.shape[1] - 1)]
    s = np.minimum((ts - t0) * speed, length)
    # each sample takes its piece's formula, in the order _Segment.pose and
    # _Arc.pose evaluate it, so the poses equal theirs bit for bit
    cx, cy, hx, hy = ox + u * s, oy + v * s, u, v
    arc = radius > 0
    r, side = radius[arc], v[arc]
    a = u[arc] + side * s[arc] / r
    cos, sin = np.cos(a), np.sin(a)
    cx[arc], cy[arc] = ox[arc] + r * cos, oy[arc] + r * sin
    hx[arc], hy[arc] = -side * sin, side * cos
    return Poses(cx, cy, hx, hy, base_ppm * zoom_plan.z_at(ts))


def label_boxes(poses: Poses, x, y, w_px, h_px):
    """Label boxes (x0, y0, x1, y1) in viewport pixels, origin at the center.

    A box keeps its pixel size at every zoom; its bottom midpoint sits at the
    projected anchor (x, y).  The arguments broadcast against the poses.
    """
    rx = x - poses.cx
    ry = y - poses.cy
    xv = (rx * poses.cos_a - ry * poses.sin_a) * poses.ppm
    yv = (rx * poses.sin_a + ry * poses.cos_a) * poses.ppm
    return xv - w_px / 2, yv, xv + w_px / 2, yv + h_px


_VIEWPORT_BOX = (-VIEWPORT_PX[0] / 2, -VIEWPORT_PX[1] / 2, VIEWPORT_PX[0] / 2, VIEWPORT_PX[1] / 2)


def _intersects(a, b):
    return (a[0] <= b[2]) & (b[0] <= a[2]) & (a[1] <= b[3]) & (b[1] <= a[3])


def in_view(box):
    """The box intersects the viewport; touching its border counts."""
    return _intersects(box, _VIEWPORT_BOX)


def overlap(a, b):
    """Both boxes are in view and intersect each other."""
    return in_view(a) & in_view(b) & _intersects(a, b)


# ---------------------------------------------------------------------------
# Event extraction


def _signal_intervals(
    states: np.ndarray, ts: np.ndarray, predicate, eps: float, min_len: float
) -> List[List[TimeInterval]]:
    """Maximal true-ranges of boolean signals sampled at ``ts``, one per row.

    Every flip between two samples is bisected, all flips in one batch:
    ``predicate(rows, times)`` evaluates the signals ``rows`` at ``times``.
    Each flip keeps halving its bracket (lo, hi] while hi - lo > eps, and
    its boundary is the final hi, within eps of the true switch.
    """
    flips = np.flatnonzero(states[:, 1:] != states[:, :-1])  # 2-D np.nonzero is slow
    rows, cols = np.divmod(flips, ts.size - 1)
    lo, hi = ts[cols], ts[cols + 1]
    want = states[rows, cols + 1]
    live = np.flatnonzero(hi - lo > eps)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        same = predicate(rows[live], mid) == want[live]
        hi[live[same]] = mid[same]
        lo[live[~same]] = mid[~same]
        live = live[hi[live] - lo[live] > eps]

    cuts = np.searchsorted(rows, np.arange(len(states) + 1))
    start, end = float(ts[0]), float(ts[-1])
    out = []
    for r in range(len(states)):
        edges = [start, *hi[cuts[r] : cuts[r + 1]].tolist(), end]
        edges = edges[0 if states[r, 0] else 1 :]
        out.append(
            [TimeInterval(a, b) for a, b in zip(edges[::2], edges[1::2]) if b - a >= min_len]
        )
    return out


def extract_instance(scenario: Scenario) -> Instance:
    """Presence/conflict extraction over the whole trajectory duration."""
    trajectory = smooth_route(scenario.route, scenario.speeds, scenario.smoothing_radius)
    plan = build_zoom_plan(scenario, trajectory)
    eps = scenario.eps
    min_len = 2 * eps
    n = max(int(math.ceil(trajectory.duration / scenario.dt)), 1)
    ts = np.minimum(np.arange(n + 1) * scenario.dt, trajectory.duration)

    pois = scenario.pois
    x, y, w, h = (
        np.array([getattr(p, f) for p in pois], dtype=float) for f in ("x", "y", "w_px", "h_px")
    )

    def pose(t):
        return viewport_poses(trajectory, plan, scenario.base_ppm, t)

    def boxes(k, poses):
        return label_boxes(poses, x[k], y[k], w[k], h[k])

    # the poi x sample visibility grid, one cache-sized row at a time; each
    # poi keeps its boxes from its first to its last visible sample
    poses = pose(ts)
    visible = np.zeros((len(pois), ts.size), dtype=bool)
    starts, own = np.zeros(len(pois), dtype=int), {}
    for k in range(len(pois)):
        box = boxes(k, poses)
        visible[k] = in_view(box)
        lo = starts[k] = visible[k].argmax()
        if visible[k, lo]:
            hi = ts.size - visible[k, ::-1].argmax()
            own[k] = np.array([c[lo:hi] for c in box])
    label_ids = [f"p{i:03d}" for i in range(len(pois))]
    shown = _signal_intervals(
        visible, ts, lambda k, t: in_view(boxes(k, pose(t))), eps, min_len
    )
    presences = {label_ids[i]: ivs for i, ivs in enumerate(shown) if ivs}

    # pair prefilter: anchors close enough that the boxes could ever touch,
    # measured at the smallest pixels-per-meter factor (widest view).  Boxes
    # sit on their anchors' bottom midpoints, so they meet only while the
    # anchors are within (w_a + w_b) / 2 pixels across and max(h_a, h_b)
    # along; the slack may only admit pairs far from touching
    min_ppm = scenario.base_ppm * min(plan.zooms)
    present = np.array([i for i in range(len(pois)) if label_ids[i] in presences], dtype=int)
    a, b = (present[k] for k in np.triu_indices(len(present), 1))
    reach = np.hypot((w[a] + w[b]) / 2, np.maximum(h[a], h[b])) / min_ppm * (1 + 1e-9)
    near = np.hypot(x[a] - x[b], y[a] - y[b]) <= reach

    # a pair's signal is false wherever one label is hidden, so its boxes are
    # only compared between the first and last sample showing both
    pairs, overlaps = [], []
    for i, j in zip(a[near].tolist(), b[near].tolist()):
        signal = visible[i] & visible[j]
        lo = signal.argmax()
        if signal[lo]:
            hi = ts.size - signal[::-1].argmax()
            box_i = own[i][:, lo - starts[i] : hi - starts[i]]
            box_j = own[j][:, lo - starts[j] : hi - starts[j]]
            signal[lo:hi] &= _intersects(box_i, box_j)
            if signal[lo:hi].any():
                pairs.append((i, j))
                overlaps.append(signal)
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T

    def overlapping(k, t):
        poses = pose(t)
        return overlap(boxes(first[k], poses), boxes(second[k], poses))

    conflicts: List[ConflictEntry] = []
    raw = _signal_intervals(
        np.array(overlaps, dtype=bool).reshape(-1, ts.size), ts, overlapping, eps, min_len
    )
    for (i, j), intervals in zip(pairs, raw):
        clipped = _clip_to_presences(
            intervals, presences[label_ids[i]], presences[label_ids[j]], min_len
        )
        conflicts.extend(ConflictEntry(label_ids[i], label_ids[j], iv) for iv in clipped)

    labels = {
        label_ids[i]: Label(id=label_ids[i], weight=pois[i].weight, display_name=pois[i].name)
        for i in present
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

def load_scenario(source: Source) -> Scenario:
    doc = load_json(source)
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
        unknown = sorted(settings.keys() - {"viewport_px", *SETTINGS})
        if unknown:
            raise ParseError(f"unknown settings: {', '.join(unknown)}")
        if settings.get("viewport_px", list(VIEWPORT_PX)) != list(VIEWPORT_PX):
            raise ParseError(f"setting 'viewport_px' must be {list(VIEWPORT_PX)}")
        values = {
            key: finite_number(settings[key], f"setting {key!r}") for key in SETTINGS if key in settings
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
                **{key: getattr(scenario, key) for key in SETTINGS},
            },
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# Seeded synthetic scenarios (stand-in for map extracts)

_SPEED_LEVELS = (10.0, 15.0, 20.0, 25.0)  # m/s
_EDGE_LENGTH_M = (150.0, 400.0)  # range of a route edge's length
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
        length = rng.uniform(*_EDGE_LENGTH_M)
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
