"""Brute-force reference implementations used only by the tests."""

import bisect
import itertools
import math
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from chronolabel.conflict_graph import ConflictGraph, build_graph
from chronolabel.model import (
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    TimeInterval,
    make_activity_set,
    objective,
)
from chronolabel.scenario import (
    Poses,
    Scenario,
    Trajectory,
    ZoomPlan,
    _clip_to_presences,
    _intersects,
    build_zoom_plan,
    in_view,
    label_boxes,
    overlap,
    smooth_route,
)
from chronolabel.solvers import _IgVertex, _PlsState, mwis_intervals
from chronolabel.validation import AmMode, ValidationReport, Violation, check_model


def max_simultaneous(phi) -> int:
    intervals = [iv for _, ivs in phi.items() for iv in ivs if iv.length > 0]
    points = sorted({p for iv in intervals for p in (iv.start, iv.end)})
    worst = 0
    for lo, hi in zip(points, points[1:]):
        mid = 0.5 * (lo + hi)
        worst = max(worst, sum(1 for iv in intervals if iv.start < mid < iv.end))
    return worst


def presence_containing_reference(instance: Instance, label_id: str, iv: TimeInterval):
    """The label's first presence containing ``iv``, by a linear scan."""
    return next((p for p in instance.presences_of(label_id) if p.contains(iv)), None)


def enumeration_search_space(instance: Instance, mode: AmMode) -> int:
    graph = build_graph(instance, mode)
    space = 1
    for members in graph.clusters.values():
        space *= len(members) + 1
    return space


def enumerate_optima(instance: Instance, mode: AmMode, ks: Sequence[Optional[int]]):
    """Exhaustive optimum per k over all candidate subsets, filtered by check_model."""
    graph = build_graph(instance, mode)
    clusters = [members for members in graph.clusters.values()]
    best: Dict[Optional[int], float] = {k: 0.0 for k in ks}
    for choice in itertools.product(*[m + [None] for m in clusters]):
        selection = [c for c in choice if c is not None]
        if not selection:
            continue
        phi = graph.to_activity_set(selection)
        if not check_model(instance, phi, mode).valid:
            continue
        obj = objective(instance, phi)
        width = max_simultaneous(phi)
        for k in ks:
            if (k is None or width <= k) and obj > best[k]:
                best[k] = obj
    return best


def brute_force_mwis(items: List[Tuple[TimeInterval, float]]) -> float:
    """Max weight over all subsets of pairwise non-intersecting closed intervals."""
    n = len(items)
    best = 0.0
    for mask in range(1 << n):
        picked = [items[i][0] for i in range(n) if mask >> i & 1]
        ok = True
        for i, a in enumerate(picked):
            for b in picked[i + 1 :]:
                if max(a.start, b.start) <= min(a.end, b.end):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            w = sum(items[i][1] for i in range(n) if mask >> i & 1)
            if w > best:
                best = w
    return best


def _open_at_once(intervals) -> int:
    """Most closed intervals sharing an open stretch of time."""
    points = sorted({p for iv in intervals for p in (iv.start, iv.end)})
    return max(
        (sum(1 for iv in intervals if iv.start < 0.5 * (lo + hi) < iv.end) for lo, hi in zip(points, points[1:])),
        default=0,
    )


def greedy_reference(graph, k: Optional[int] = None, within=None) -> set:
    """Repeated heaviest pick (ties: smallest id) over ``neighbors()`` among
    the candidates ``within`` (default all): each pick drops its neighbours
    and, with ``k``, every candidate that would then make more than ``k``
    picks open at once."""
    alive = set(range(len(graph)) if within is None else within)
    selected: set = set()
    while alive:
        pick = min(alive, key=lambda v: (-graph.weights[v], v))
        selected.add(pick)
        alive -= graph.neighbors(pick) | {pick}
        if k is not None:
            picked = [graph.interval(u) for u in selected]
            alive = {v for v in alive if _open_at_once(picked + [graph.interval(v)]) <= k}
    return selected


def saturate_reference(graph, selection) -> set:
    """Best same-cluster swap (largest gain, then smallest incoming id) until
    none gains, with every test a set operation over ``neighbors()``."""
    selected, weights = set(selection), graph.weights
    while True:
        swaps = [
            (weights[v] - weights[u], u, v)
            for u in selected
            for members in [graph.clusters[graph.label_ids[u], graph.presence_indices[u]]]
            for v in members
            if weights[v] > weights[u] and graph.neighbors(v) & selected == {u}
        ]
        if not swaps:
            return selected
        _, u, v = min(swaps, key=lambda s: (-s[0], s[2]))
        selected = (selected - {u}) | {v}


def _saturate_reference(graph, selection: set) -> set:
    """Best same-cluster swap until none gains, with the selected-neighbour
    counts rebuilt from the neighbour ids on every call and every
    candidate's cluster rescanned after every swap."""
    selected = set(selection)
    crossed = [0] * len(graph)

    def mark(v: int, step: int) -> None:
        mates = graph.cluster_of[v]
        for u in graph.neighbor_ids(v):
            if u not in mates:
                crossed[u] += step

    for v in selected:
        mark(v, 1)
    weights = graph.weights
    while True:
        swaps = [
            (weights[v] - weights[u], u, v)
            for v in selected
            for u in graph.cluster_of[v]
            if weights[u] > weights[v] and not crossed[u]
        ]
        if not swaps:
            return selected
        _, incoming, outgoing = min(swaps)
        selected.remove(outgoing)
        selected.add(incoming)
        mark(outgoing, -1)
        mark(incoming, 1)


def _activity_set_reference(graph, selection):
    """The selection's activity set, labels in the selection's iteration order."""
    raw: Dict[str, list] = {}
    for v in selection:
        raw.setdefault(graph.label_ids[v], []).append(graph.interval(v))
    return make_activity_set(raw)


def repair_reference(instance: Instance, graph, selection: set) -> set:
    """Saturate from scratch, then drop the lightest candidate that
    ``is_justified_reference`` rejects on the selection's activity set, until
    none is rejected."""
    selected = set(selection)
    while True:
        selected = _saturate_reference(graph, selected)
        inner = [
            v
            for v in selected
            if graph.interval(v) != instance.presences_of(graph.label_ids[v])[graph.presence_indices[v]]
        ]
        phi = _activity_set_reference(graph, selected)
        bad = [
            v
            for v in inner
            if not all(is_justified_reference(instance, phi, graph.label_ids[v], graph.interval(v)))
        ]
        if not bad:
            return selected
        selected.discard(min(bad, key=lambda v: (graph.weights[v], v)))


def check_valid_reference(instance: Instance, phi) -> list:
    """R1-R3 violations, each rule in its own pass, presences by linear scan."""
    violations = []
    for lid in phi.activities:
        if lid not in instance.labels:
            raise IntegrityError(f"activity references unknown label {lid!r}")
    per_presence_count: dict = {}
    for lid, intervals in phi.items():
        for iv in intervals:
            p = presence_containing_reference(instance, lid, iv)
            if p is None:
                violations.append(Violation("R1", (lid,), (iv.start, iv.end)))
            else:
                key = (lid, p.start, p.end)
                per_presence_count[key] = per_presence_count.get(key, 0) + 1
    for (lid, ps, pe), count in per_presence_count.items():
        if count > 1:
            violations.append(Violation("R2", (lid,), (ps, pe)))
    for entry in instance.conflicts:
        for iv_a in phi.activities.get(entry.a, ()):
            for iv_b in phi.activities.get(entry.b, ()):
                lo = max(iv_a.start, iv_b.start)
                hi = min(iv_a.end, iv_b.end)
                if lo < hi and entry.interval.start < hi and entry.interval.end > lo:
                    detail = (max(lo, entry.interval.start), min(hi, entry.interval.end))
                    violations.append(Violation("R3", (entry.a, entry.b), detail))
    return violations


def is_justified_reference(instance: Instance, phi, label_id: str, interval: TimeInterval) -> tuple:
    """(start_ok, end_ok): an endpoint is justified at its presence's
    endpoint, or where a conflict with a label active then ends (start) or
    starts (end)."""
    if interval not in phi.activities.get(label_id, ()):
        raise IntegrityError(f"interval [{interval.start},{interval.end}] not an activity of {label_id!r}")
    presence = presence_containing_reference(instance, label_id, interval)
    if presence is None:
        raise IntegrityError(f"activity of {label_id!r} lies in no presence interval")

    def active_at(other: str, t: float) -> bool:
        return any(iv.start <= t <= iv.end for iv in phi.activities.get(other, ()))

    start_ok = interval.start == presence.start
    end_ok = interval.end == presence.end
    for other, conflict in instance.conflicts_of(label_id):
        if not start_ok and conflict.end == interval.start and active_at(other, conflict.end):
            start_ok = True
        if not end_ok and conflict.start == interval.end and active_at(other, conflict.start):
            end_ok = True
    return (start_ok, end_ok)


def check_model_reference(instance: Instance, phi, mode: AmMode, k=None, min_duration=0.0):
    """``check_model``'s report with every rule in its own pass: R1-R3, then
    the activity model per activity (presence looked up again, then the
    justification of both endpoints), then the k bound by rescanning every
    elementary slice, then minimum durations."""
    violations = check_valid_reference(instance, phi)
    for lid, intervals in phi.items():
        for iv in intervals:
            presence = presence_containing_reference(instance, lid, iv)
            if presence is None:
                continue
            if mode is AmMode.AM1:
                start_ok, end_ok = iv.start == presence.start, iv.end == presence.end
            else:
                start_ok, end_ok = is_justified_reference(instance, phi, lid, iv)
                if mode is AmMode.AM2:
                    start_ok = iv.start == presence.start
            if not start_ok:
                violations.append(Violation("AM-start", (lid,), (iv.start,)))
            if not end_ok:
                violations.append(Violation("AM-end", (lid,), (iv.end,)))
    if k is not None:
        intervals = [iv for _, ivs in phi.items() for iv in ivs if iv.length > 0]
        points = sorted({p for iv in intervals for p in (iv.start, iv.end)})
        for lo, hi in zip(points, points[1:]):
            mid = 0.5 * (lo + hi)
            if sum(1 for iv in intervals if iv.start < mid < iv.end) > k:
                violations.append(Violation("K-BOUND", (), (mid,)))
                break
    if min_duration > 0:
        for lid, intervals in phi.items():
            for iv in intervals:
                if iv.length < min_duration:
                    violations.append(Violation("MIN-DUR", (lid,), (iv.start, iv.end)))
    return ValidationReport(tuple(violations))


def pls_rescan(graph, selected) -> tuple:
    """(selected-neighbour count per vertex, C0, C1) recomputed from scratch."""
    tight = [len(graph.neighbors(v) & selected) for v in range(len(graph))]
    free = [v for v in range(len(graph)) if v not in selected]
    return tight, {v for v in free if tight[v] == 0}, {v for v in free if tight[v] == 1}


def build_graph_reference(instance: Instance, mode: AmMode) -> ConflictGraph:
    """``build_graph`` one presence and one conflicting label pair at a time.

    Per presence, the candidates are the sorted (open, close) pairs with
    open < close; per pair of labels, the block tests every candidate pair's
    open overlap (lo, hi) against each conflict of the two labels.  No size
    guard.
    """
    rows: List[tuple] = []  # (start, end, weight, label id, presence index) per id
    clusters: Dict[tuple, List[int]] = {}
    span: Dict[str, slice] = {}  # label -> its candidate ids, if it has any
    for lid in sorted(instance.presences):
        weight = instance.labels[lid].weight
        first = len(rows)
        for pi, presence in enumerate(instance.presences_of(lid)):
            opens, closes = {presence.start}, {presence.end}
            if mode is not AmMode.AM1:
                for _, iv in instance.conflicts_of(lid):
                    if presence.contains(iv):
                        closes.add(iv.start)
                        if mode is AmMode.AM3:
                            opens.add(iv.end)
            pairs = sorted((s, t) for s in opens for t in closes if s < t)
            clusters[lid, pi] = list(range(len(rows), len(rows) + len(pairs)))
            rows += [(s, t, (t - s) * weight, lid, pi) for s, t in pairs]
        if len(rows) > first:
            span[lid] = slice(first, len(rows))
    columns = tuple(map(list, zip(*rows))) or ([], [], [], [], [])

    start_at, end_at = np.array(columns[0]), np.array(columns[1])
    edge_count = sum(len(m) * (len(m) - 1) // 2 for m in clusters.values())
    blocks: Dict[Tuple[str, str], np.ndarray] = {}
    by_pair: Dict[Tuple[str, str], list] = {}
    for e in instance.conflicts:
        by_pair.setdefault(e.pair, []).append(e.interval)
    for a, b in sorted(by_pair):
        if a not in span or b not in span:
            continue
        sa, sb = span[a], span[b]
        lo = np.maximum.outer(start_at[sa], start_at[sb])
        hi = np.minimum.outer(end_at[sa], end_at[sb])
        hits = [(c.start < hi) & (c.end > lo) for c in by_pair[a, b]]
        meets = reduce(np.logical_or, hits) & (lo < hi)
        count = int(np.count_nonzero(meets))
        edge_count += count
        if count:
            blocks[a, b] = meets
    return ConflictGraph(columns, clusters, blocks, edge_count)


def _conflicting_pairs(instance: Instance, graph) -> set:
    """Candidate id pairs whose open overlap meets a conflict of their labels."""
    starts, ends = graph.starts, graph.ends
    by_label: Dict[str, list] = {}
    for v in range(len(graph)):
        by_label.setdefault(graph.label_ids[v], []).append(v)
    pairs = set()
    for entry in instance.conflicts:
        lo_c, hi_c = entry.interval.start, entry.interval.end
        near = {
            lid: [v for v in by_label.get(lid, ()) if starts[v] < hi_c and ends[v] > lo_c]
            for lid in entry.pair
        }
        for u in near[entry.a]:
            for v in near[entry.b]:
                lo = max(starts[u], starts[v])
                hi = min(ends[u], ends[v])
                if lo < hi and lo_c < hi and hi_c > lo:
                    pairs.add((u, v))
    return pairs


def milp_gmt(
    instance: Instance, mode: AmMode, time_limit: float = 60.0, k: Optional[int] = None
):
    """Optimal GMT value and activity set from a 0/1 program solved by HiGHS.

    One variable per candidate of ``build_graph``; every constraint is built
    from the instance itself: at most one candidate per presence interval, no
    two candidates whose open overlap meets a conflict, and each endpoint
    inside its presence at most the sum of the candidates that can witness
    it (a candidate of a conflict partner, whose conflict ends at that start
    or starts at that end, active at that time).  With ``k`` it solves KRMT:
    at most ``k`` candidates cover each elementary slice between consecutive
    candidate endpoints.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    graph = build_graph(instance, mode)
    starts, ends, label_ids = graph.starts, graph.ends, graph.label_ids
    n = len(graph)
    if n == 0:
        return 0.0, graph.to_activity_set([])
    ends_at: Dict[tuple, set] = {}  # (label, time) -> partners whose conflict ends then
    starts_at: Dict[tuple, set] = {}
    for entry in instance.conflicts:
        for lid, other in ((entry.a, entry.b), (entry.b, entry.a)):
            ends_at.setdefault((lid, entry.interval.end), set()).add(other)
            starts_at.setdefault((lid, entry.interval.start), set()).add(other)
    by_label: Dict[str, list] = {}
    for v in range(n):
        by_label.setdefault(label_ids[v], []).append(v)

    rows: List[List[Tuple[int, float]]] = []
    ubs: List[float] = []
    presences: Dict[tuple, List[int]] = {}
    for v in range(n):
        presences.setdefault((label_ids[v], graph.presence_indices[v]), []).append(v)
    for members in presences.values():
        rows.append([(v, 1.0) for v in members])
        ubs.append(1.0)
    for u, v in _conflicting_pairs(instance, graph):
        rows.append([(u, 1.0), (v, 1.0)])
        ubs.append(1.0)
    for v in range(n):
        presence = instance.presences_of(label_ids[v])[graph.presence_indices[v]]
        for t, inner, partners in (
            (starts[v], starts[v] != presence.start, ends_at),
            (ends[v], ends[v] != presence.end, starts_at),
        ):
            if not inner:
                continue
            witnesses = {
                u
                for other in partners.get((label_ids[v], t), ())
                for u in by_label.get(other, ())
                if starts[u] <= t <= ends[u]
            }
            rows.append([(v, 1.0)] + [(u, -1.0) for u in sorted(witnesses)])
            ubs.append(0.0)
    if k is not None:
        points = sorted({*starts, *ends})
        for lo, hi in zip(points, points[1:]):
            cover = [v for v in range(n) if starts[v] <= lo and hi <= ends[v]]
            if len(cover) > k:
                rows.append([(v, 1.0) for v in cover])
                ubs.append(float(k))

    row_idx = [r for r, row in enumerate(rows) for _ in row]
    col_idx = [v for row in rows for v, _ in row]
    values = [a for row in rows for _, a in row]
    matrix = coo_array((values, (row_idx, col_idx)), shape=(len(rows), n)).tocsr()
    weights = np.array(graph.weights)
    res = milp(
        -weights,
        constraints=LinearConstraint(matrix, -np.inf, np.array(ubs)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0, "time_limit": time_limit},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP oracle did not prove optimality: {res.message}")
    selection = [v for v in range(n) if res.x[v] > 0.5]
    phi = graph.to_activity_set(selection)
    return objective(instance, phi), phi


def slice_bound_reference(instance: Instance, k: int) -> float:
    """KRMT slice bound with every presence rescanned per elementary slice:
    slice length times the ``k`` heaviest weights present, summed in slice
    order with the weights sorted descending."""
    presences = [
        (iv, instance.labels[lid].weight) for lid, ivs in instance.presences.items() for iv in ivs
    ]
    points = sorted({p for iv, _ in presences for p in (iv.start, iv.end)})
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        weights = sorted((w for iv, w in presences if iv.start <= lo and hi <= iv.end), reverse=True)
        total += (hi - lo) * sum(weights[:k])
    return total


def _conflict_blocks(
    instance: Instance,
    vertex: _IgVertex,
    chosen_by_label: Dict[str, List[TimeInterval]],
) -> List[Tuple[float, float]]:
    """Time windows the vertex interval's interior must avoid.

    One window per (chosen activity, conflict interval) pair whose open
    overlap with the vertex could be in conflict; ``chosen_by_label`` maps a
    label id to its chosen activities.
    """
    blocks = []
    for other_id, conflict in instance.conflicts_of(vertex.label_id):
        for chosen_iv in chosen_by_label.get(other_id, ()):
            if conflict.start < chosen_iv.end and conflict.end > chosen_iv.start:
                blocks.append(
                    (max(chosen_iv.start, conflict.start), min(chosen_iv.end, conflict.end))
                )
    return blocks


def _justified_cut_points(
    instance: Instance, label_id: str, chosen: Dict[str, List[TimeInterval]]
) -> Tuple[List[float], List[float]]:
    """(valid activity starts, valid activity ends) backed by active witnesses;
    ``chosen`` maps a label id to all its chosen activities."""
    starts, ends = [], []
    for other_id, conflict in instance.conflicts_of(label_id):
        for chosen_iv in chosen.get(other_id, ()):
            if chosen_iv.start <= conflict.end <= chosen_iv.end:
                starts.append(conflict.end)
            if chosen_iv.start <= conflict.start <= chosen_iv.end:
                ends.append(conflict.start)
    return starts, ends


def shorten_reference(
    instance: Instance,
    vertex: _IgVertex,
    iteration_chosen: Dict[str, List[TimeInterval]],
    all_chosen: Dict[str, List[TimeInterval]],
    mode: AmMode,
) -> Optional[_IgVertex]:
    """IntGraph's shortening, piece by piece: blocks merged into the maximal
    block-free pieces of the vertex, each piece snapped to justified
    endpoints, the longest snapped piece kept.

    AM1 keeps the whole interval or nothing; AM2 the longest prefix; AM3 the
    longest conflict-free prefix, infix or suffix (ties: earliest).  Returns
    None when nothing justified and positive-length remains.
    """
    a, b = vertex.interval.start, vertex.interval.end
    blocks = [
        (max(lo, a), min(hi, b))
        for lo, hi in _conflict_blocks(instance, vertex, iteration_chosen)
        if hi > a and lo < b
    ]
    if not blocks:
        return vertex
    blocks.sort()
    merged: List[Tuple[float, float]] = []
    for lo, hi in blocks:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))

    # maximal sub-intervals of [a, b] whose interior avoids every block
    pieces: List[Tuple[float, float]] = []
    cursor = a
    for lo, hi in merged:
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < b:
        pieces.append((cursor, b))

    if mode is AmMode.AM1:
        pieces = [(s, t) for s, t in pieces if s == a and t == b]
    elif mode is AmMode.AM2:
        pieces = [(s, t) for s, t in pieces if s == a]

    if not pieces:
        return None

    just_starts, just_ends = _justified_cut_points(instance, vertex.label_id, all_chosen)
    adjusted: List[Tuple[float, float]] = []
    for s, t in pieces:
        if s > a:
            ok = [p for p in just_starts if s <= p < t]
            if not ok:
                continue
            s = min(ok)
        if t < b:
            ok = [p for p in just_ends if s < p <= t]
            if not ok:
                continue
            t = max(ok)
        if s < t:
            adjusted.append((s, t))
    if not adjusted:
        return None
    s, t = max(adjusted, key=lambda p: (p[1] - p[0], -p[0]))
    weight = (t - s) * instance.labels[vertex.label_id].weight
    return _IgVertex(vertex.label_id, TimeInterval(s, t), weight)


def pls_select_reference(
    state: _PlsState, pool: int, skip: set, phase: str, penalties: List[int], rng
):
    """PLS's pick with greedy ties read off a heaviest-first order of all
    vertices (ties by ascending id) and its inverse, by bisection."""
    n = len(state.weights)
    order = sorted(range(n), key=state.weights.__getitem__, reverse=True)
    rank = sorted(range(n), key=order.__getitem__)  # inverse of order
    free = state.pools[pool] - skip
    if not free:
        return None
    if phase == "penalty":
        best = min(map(penalties.__getitem__, free))
        ties = sorted(v for v in free if penalties[v] == best)
    else:  # greedy: the heaviest candidates (weighted-IS adaptation)
        weights = state.weights
        i = min(map(rank.__getitem__, free))
        j = bisect.bisect_right(order, -weights[order[i]], lo=i, key=lambda v: -weights[v])
        ties = [v for v in order[i:j] if v in free]
    return ties[rng.randrange(len(ties))]


def intgraph_reference(instance: Instance, problem, mode: AmMode):
    """IntGraph's activity set with every remaining vertex passed through
    ``shorten_reference`` in every round, whatever labels the round picked.
    Labels are in id order, so ``objective`` sums them in that order."""
    vertices = [
        _IgVertex(lid, presence, presence.length * instance.labels[lid].weight)
        for lid in sorted(instance.presences)
        for presence in instance.presences_of(lid)
        if presence.length > 0
    ]
    chosen: Dict[str, list] = {}
    rounds = 0
    while vertices and not (problem.kind == "KRMT" and rounds >= problem.k):
        rounds += 1
        items = [(v.interval, v.interval.length * instance.labels[v.label_id].weight) for v in vertices]
        picked = set(mwis_intervals(items))
        round_chosen: Dict[str, list] = {}
        for i in picked:
            for by_label in (chosen, round_chosen):
                by_label.setdefault(vertices[i].label_id, []).append(vertices[i].interval)
        shortened = [
            shorten_reference(instance, v, round_chosen, chosen, mode)
            for i, v in enumerate(vertices)
            if i not in picked
        ]
        vertices = [v for v in shortened if v is not None and v.interval.length > 0]
    return make_activity_set({lid: chosen[lid] for lid in sorted(chosen)})


def _signal_intervals_reference(
    states: np.ndarray, ts: np.ndarray, predicate, eps: float, min_len: float
) -> List[List[TimeInterval]]:
    """Maximal true-ranges of sampled boolean signals, one per row, each
    flip bisected to within eps (all flips in one batch)."""
    rows, cols = np.nonzero(states[:, 1:] != states[:, :-1])
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


def viewport_poses_reference(
    trajectory: Trajectory, zoom_plan: ZoomPlan, base_ppm: float, ts
) -> Poses:
    """The viewport pose at each time of ``ts``, one boolean mask per piece."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (ts.min() >= 0 and ts.max() <= trajectory.duration):
        raise ValueError(f"times outside [0, {trajectory.duration}]")
    pieces = trajectory.pieces
    idx = np.searchsorted([p.t0 for p in pieces], ts, side="right") - 1
    idx = np.clip(idx, 0, len(pieces) - 1)
    cx, cy, hx, hy = (np.empty_like(ts) for _ in range(4))
    for k, piece in enumerate(pieces):
        sel = idx == k
        if sel.any():
            s = np.minimum((ts[sel] - piece.t0) * piece.speed, piece.length)
            cx[sel], cy[sel], hx[sel], hy[sel] = piece.pose(s)
    return Poses(cx, cy, hx, hy, base_ppm * zoom_plan.z_at(ts))


def extract_instance_reference(scenario: Scenario) -> Instance:
    """Presence/conflict extraction over whole poi x sample grids: boxes of
    every poi at every sample, and every pair that passes the distance
    prefilter tested over the whole timeline."""
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
        return viewport_poses_reference(trajectory, plan, scenario.base_ppm, t)

    def boxes(k, poses):
        return label_boxes(poses, x[k], y[k], w[k], h[k])

    grid = boxes(np.s_[:, None], pose(ts))  # one row per poi, one column per sample
    visible = in_view(grid)
    label_ids = [f"p{i:03d}" for i in range(len(pois))]
    shown = _signal_intervals_reference(
        visible, ts, lambda k, t: in_view(boxes(k, pose(t))), eps, min_len
    )
    presences = {label_ids[i]: ivs for i, ivs in enumerate(shown) if ivs}

    # pair prefilter: anchors close enough that the boxes could ever touch,
    # measured at the smallest pixels-per-meter factor (widest view)
    min_ppm = scenario.base_ppm * min(plan.zooms)
    present = [i for i in range(len(pois)) if label_ids[i] in presences]
    row_boxes = list(zip(*grid))
    pairs, overlaps = [], []
    for ai, i in enumerate(present):
        for j in present[ai + 1 :]:
            diag_i, diag_j = (math.hypot(p.w_px, p.h_px) for p in (pois[i], pois[j]))
            reach = (diag_i + diag_j) / min_ppm
            if math.hypot(pois[i].x - pois[j].x, pois[i].y - pois[j].y) > reach:
                continue
            signal = visible[i] & visible[j] & _intersects(row_boxes[i], row_boxes[j])
            if signal.any():
                pairs.append((i, j))
                overlaps.append(signal)
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T

    def overlapping(k, t):
        poses = pose(t)
        return overlap(boxes(first[k], poses), boxes(second[k], poses))

    conflicts: List[ConflictEntry] = []
    raw = _signal_intervals_reference(
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
