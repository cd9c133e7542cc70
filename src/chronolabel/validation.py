"""Validity checks for activity sets.

Covers the three base requirements (R1 containment, R2 one activity per
presence interval, R3 no conflicting overlap), endpoint justification, the
activity models AM1/AM2/AM3, the simultaneous-activity bound and minimum
activity durations, plus the cluster-swap saturation repair used to make
heuristic independent sets model-conformant.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional

from .model import ActivitySet, Instance, IntegrityError, TimeInterval


class AmMode(enum.Enum):
    AM1 = 1
    AM2 = 2
    AM3 = 3


@dataclass(frozen=True)
class Violation:
    rule: str  # R1 | R2 | R3 | AM-start | AM-end | K-BOUND | MIN-DUR
    labels: tuple
    detail: tuple  # offending time(s): (t,) or (start, end)

    def to_json_obj(self) -> dict:
        return {"rule": self.rule, "labels": list(self.labels), "detail": list(self.detail)}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {"valid": self.valid, "violations": [v.to_json_obj() for v in self.violations]},
            indent=2,
        )


def _located(instance: Instance, phi: ActivitySet) -> list:
    """(label id, activity, its presence or None) per activity, in ``phi``
    order: each check looks every presence up once."""
    for lid in phi.activities:
        if lid not in instance.labels:
            raise IntegrityError(f"activity references unknown label {lid!r}")
    containing = instance.presence_containing
    return [(lid, iv, containing(lid, iv)) for lid, ivs in phi.items() for iv in ivs]


def _base_violations(instance: Instance, phi: ActivitySet, located: list) -> list:
    violations = []
    # R1: every activity interval lies inside a presence interval of its label.
    # R2: at most one activity interval per presence interval.  A label's
    # activities are sorted and disjoint, so those sharing a presence are
    # adjacent in ``located``.
    shared = []  # (label, presence) per presence holding several activities
    held = (None, None)  # (label, presence) of the previous activity
    for lid, iv, p in located:
        if p is None:
            violations.append(Violation("R1", (lid,), (iv.start, iv.end)))
        elif p is held[1] and lid == held[0]:
            if not shared or shared[-1] is not held:
                shared.append(held)
            continue
        held = (lid, p)
    violations += [Violation("R2", (lid,), (p.start, p.end)) for lid, p in shared]

    # R3: no two activity intervals are in conflict: the closed conflict
    # interval [cs, ce] meets the open overlap of the two activities, that
    # is, each activity's open interval is nonempty and meets [cs, ce], and
    # the two open intervals meet.
    activities = phi.activities
    for label_a, label_b, cs, ce in instance.conflict_rows():
        ivs_a = activities.get(label_a)
        ivs_b = ivs_a and activities.get(label_b)
        if not ivs_b:
            continue
        for a in ivs_a:
            if not (cs < a.end and a.start < ce and a.start < a.end):
                continue
            for b in ivs_b:
                if cs < b.end and b.start < ce and b.start < b.end and a.start < b.end and b.start < a.end:
                    detail = (max(a.start, b.start, cs), min(a.end, b.end, ce))
                    violations.append(Violation("R3", (label_a, label_b), detail))
    return violations


def check_valid(instance: Instance, phi: ActivitySet) -> ValidationReport:
    """Check the base requirements R1-R3."""
    return ValidationReport(tuple(_base_violations(instance, phi, _located(instance, phi))))


def _spans_in(phi: ActivitySet):
    """The (start, end) pairs of a label's activities in ``phi``."""
    activities = phi.activities
    return lambda label_id: ((iv.start, iv.end) for iv in activities.get(label_id, ()))


def endpoints_justified(
    instance: Instance, label_id: str, start: float, end: float, presence: TimeInterval, spans_of
) -> tuple:
    """(start_ok, end_ok) for an activity [start, end] of ``label_id`` in
    ``presence``, with ``spans_of(label id)`` giving the (start, end) pairs
    during which that label is active.

    The start is justified if the label enters the viewport there, or a
    conflict with an active witness ends exactly there; the end symmetric.
    Boundary coincidence counts: an activity [x, t] makes its label a valid
    witness at t (closed-interval convention).  The witness labels are
    read from ``Instance.witness_partners``.
    """

    def witnessed(partners: tuple, t: float) -> bool:
        return any(s <= t <= e for other in partners for s, e in spans_of(other))

    ending, starting = instance.witness_partners(label_id, start, end)
    return (start == presence.start or witnessed(ending, start), end == presence.end or witnessed(starting, end))


def is_justified(
    instance: Instance, phi: ActivitySet, label_id: str, interval: TimeInterval
) -> tuple:
    """(start_ok, end_ok) for one activity interval of ``label_id``; see
    :func:`endpoints_justified`."""
    if interval not in phi.activities.get(label_id, ()):
        raise IntegrityError(f"interval [{interval.start},{interval.end}] not an activity of {label_id!r}")
    presence = instance.presence_containing(label_id, interval)
    if presence is None:
        raise IntegrityError(
            f"activity [{interval.start},{interval.end}] of {label_id!r} lies in no presence interval"
        )
    return endpoints_justified(instance, label_id, interval.start, interval.end, presence, _spans_in(phi))


def _k_bound_violations(phi: ActivitySet, k: int) -> list:
    """One sweep over the activity endpoints in time order.

    Reports the midpoint of the first elementary slice (between consecutive
    endpoints) on which more than ``k`` activities are open; one witnessing
    time suffices.
    """
    delta: dict = {}  # endpoint -> activities opening minus closing there
    for intervals in phi.activities.values():
        for iv in intervals:
            if iv.length > 0:
                delta[iv.start] = delta.get(iv.start, 0) + 1
                delta[iv.end] = delta.get(iv.end, 0) - 1
    points = sorted(delta)
    open_count = 0
    for lo, hi in zip(points, points[1:]):
        open_count += delta[lo]
        if open_count > k:
            return [Violation("K-BOUND", (), (0.5 * (lo + hi),))]
    return []


def check_model(
    instance: Instance,
    phi: ActivitySet,
    mode: AmMode,
    k: Optional[int] = None,
    min_duration: float = 0.0,
) -> ValidationReport:
    """Full conformance check: R1-R3 plus AM, k-bound and minimum duration.

    One pass locates each activity's presence; R1/R2, the activity model and
    justification all read that one lookup.
    """
    located = _located(instance, phi)
    violations = _base_violations(instance, phi, located)
    spans_of = _spans_in(phi)
    for lid, iv, presence in located:
        if presence is None:
            continue  # already reported as R1
        start_ok, end_ok = iv.start == presence.start, iv.end == presence.end
        if mode is not AmMode.AM1 and not (start_ok and end_ok):
            # a witness may justify an inner end, and under AM3 an inner start
            justified = endpoints_justified(instance, lid, iv.start, iv.end, presence, spans_of)
            start_ok = start_ok or (mode is AmMode.AM3 and justified[0])
            end_ok = justified[1]
        if not start_ok:
            violations.append(Violation("AM-start", (lid,), (iv.start,)))
        if not end_ok:
            violations.append(Violation("AM-end", (lid,), (iv.end,)))

    if k is not None:
        violations.extend(_k_bound_violations(phi, k))

    if min_duration > 0:
        for lid, iv, _ in located:
            if iv.length < min_duration:
                violations.append(Violation("MIN-DUR", (lid,), (iv.start, iv.end)))

    return ValidationReport(tuple(violations))


class Saturation:
    """An independent set of a conflict graph, repaired in place by
    same-cluster swaps (:meth:`saturate`) and drops (:meth:`drop`).

    ``crossed[u]`` counts u's selected cross neighbours.  It is built once,
    from the neighbour ids of the selected candidates, and updated by each
    move.  ``swaps`` holds each selected candidate's best swap, (weight
    difference, incoming id), if any gains; a candidate's best swap is its
    first free cluster mate in ``by_weight`` order.  A move rescans only the
    selected candidates whose clusters hold a candidate whose count left or
    reached zero, and the one moved in.
    """

    def __init__(self, graph, selection):
        self.graph = graph
        self.selected = set(selection)
        self.crossed = crossed = [0] * len(graph)
        self.holder = {}  # first id of a cluster -> its selected candidate
        for v in self.selected:
            for u in self._cross(v):
                crossed[u] += 1
            self.holder[graph.cluster_of[v].start] = v
        if len(self.holder) < len(self.selected) or any(crossed[v] for v in self.selected):
            raise IntegrityError("selection is not independent")
        self.swaps: dict = {}
        for v in self.selected:
            self._scan(v)

    def _cross(self, v: int) -> list:
        # neighbour ids list the cluster mates first
        return self.graph.neighbor_ids(v)[len(self.graph.cluster_of[v]) - 1 :]

    def _scan(self, v: int) -> None:
        weights, crossed = self.graph.weights, self.crossed
        weight = weights[v]
        best = None
        for u in self.graph.by_weight(v):
            diff = weight - weights[u]
            # stop at the first candidate not heavier than v, or, once a free
            # one is found, at the first weight difference that differs (an
            # equal difference of another weight, by rounding, ties to the
            # smaller id)
            if diff >= 0 or (best and diff != best[0]):
                break
            if not crossed[u] and (best is None or u < best[1]):
                best = (diff, u)
        if best:
            self.swaps[v] = best
        else:
            self.swaps.pop(v, None)

    def _shift(self, v: int, step: int) -> set:
        """Add ``step`` to the counts of v's cross neighbours; returns the
        clusters, by first id, whose candidates became free or blocked."""
        crossed, cluster_of = self.crossed, self.graph.cluster_of
        flipped = set()
        for u in self._cross(v):
            count = crossed[u]
            crossed[u] = count + step
            if not count or count + step == 0:
                flipped.add(cluster_of[u].start)
        return flipped

    def _rescan(self, clusters) -> None:
        for first in clusters:
            v = self.holder.get(first)
            if v is not None:
                self._scan(v)

    def swap(self, outgoing: int, incoming: int) -> None:
        """Exchange a selected candidate for a free cluster mate."""
        self.selected.remove(outgoing)
        self.selected.add(incoming)
        del self.swaps[outgoing]
        first = self.graph.cluster_of[incoming].start
        self.holder[first] = incoming
        self._rescan(self._shift(outgoing, -1) | self._shift(incoming, 1) | {first})

    def drop(self, v: int) -> None:
        """Remove a selected candidate; its cluster stays empty."""
        self.selected.remove(v)
        self.swaps.pop(v, None)
        del self.holder[self.graph.cluster_of[v].start]
        self._rescan(self._shift(v, -1))

    def saturate(self) -> set:
        """Make the swap with the largest weight gain (ties: smallest
        incoming id) until none gains; returns the selection."""
        while self.swaps:
            (_, incoming), outgoing = min((swap, v) for v, swap in self.swaps.items())
            self.swap(outgoing, incoming)
        return self.selected


def saturate_excluding(instance, graph, selection: set) -> set:
    """Repair an independent set of a conflict graph until it is saturated.

    Repeatedly performs the same-cluster swap with the largest weight gain
    (ties: smallest incoming candidate id) until no swap strictly improves
    the total weight.  Never adds or removes vertices, only exchanges within
    clusters, so the output weight is >= the input weight, and a cluster
    with no selected candidate stays empty.  The selection's counts of
    selected neighbours are built once and kept up to date by each swap (see
    :class:`Saturation`); IntegrityError if it is not independent.
    """
    return Saturation(graph, selection).saturate()
