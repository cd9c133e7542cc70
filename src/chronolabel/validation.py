"""Validity checks for activity sets.

Covers the three base requirements (R1 containment, R2 one activity per
presence interval, R3 no conflicting overlap), endpoint justification, the
activity models AM1/AM2/AM3, the simultaneous-activity bound and minimum
activity durations, plus the cluster-swap saturation repair used to make
heuristic independent sets model-conformant.
"""

from __future__ import annotations

import bisect
import enum
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .model import ActivitySet, Instance, IntegrityError, TimeInterval

_START = attrgetter("start")


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


def _presence_containing(instance: Instance, label_id: str, iv: TimeInterval):
    # presences are sorted and disjoint: only the last one starting by iv can hold it
    presences = instance.presences_of(label_id)
    i = bisect.bisect_right(presences, iv.start, key=_START)
    return presences[i - 1] if i and iv.end <= presences[i - 1].end else None


def check_valid(instance: Instance, phi: ActivitySet) -> ValidationReport:
    """Check the base requirements R1-R3."""
    violations = []
    for lid in phi.activities:
        if lid not in instance.labels:
            raise IntegrityError(f"activity references unknown label {lid!r}")

    # R1: every activity interval lies inside a presence interval of its label.
    # R2: at most one activity interval per presence interval.
    per_presence_count: dict = {}
    for lid, intervals in phi.items():
        for iv in intervals:
            p = _presence_containing(instance, lid, iv)
            if p is None:
                violations.append(Violation("R1", (lid,), (iv.start, iv.end)))
            else:
                key = (lid, p.start, p.end)
                per_presence_count[key] = per_presence_count.get(key, 0) + 1
    for (lid, ps, pe), count in per_presence_count.items():
        if count > 1:
            violations.append(Violation("R2", (lid,), (ps, pe)))

    # R3: no two activity intervals are in conflict (conflict interval meets
    # the open overlap of the two activities).
    for entry in instance.conflicts:
        for iv_a in phi.activities.get(entry.a, ()):
            for iv_b in phi.activities.get(entry.b, ()):
                lo = max(iv_a.start, iv_b.start)
                hi = min(iv_a.end, iv_b.end)
                if lo >= hi:
                    continue
                # open overlap (lo, hi) meets closed conflict interval
                if entry.interval.start < hi and entry.interval.end > lo:
                    violations.append(
                        Violation(
                            "R3",
                            (entry.a, entry.b),
                            (max(lo, entry.interval.start), min(hi, entry.interval.end)),
                        )
                    )
    return ValidationReport(tuple(violations))


def _active_at(phi: ActivitySet, label_id: str, t: float) -> bool:
    # Boundary coincidence counts: an activity [x, t] makes the label a valid
    # witness at t (closed-interval convention).
    return any(iv.start <= t <= iv.end for iv in phi.activities.get(label_id, ()))


def is_justified(
    instance: Instance, phi: ActivitySet, label_id: str, interval: TimeInterval
) -> tuple:
    """(start_ok, end_ok) for one activity interval of ``label_id``.

    The start is justified if the label enters the viewport there, or a
    conflict with an active witness ends exactly there; the end symmetric.
    """
    if interval not in phi.activities.get(label_id, ()):
        raise IntegrityError(f"interval [{interval.start},{interval.end}] not an activity of {label_id!r}")
    presence = _presence_containing(instance, label_id, interval)
    if presence is None:
        raise IntegrityError(
            f"activity [{interval.start},{interval.end}] of {label_id!r} lies in no presence interval"
        )
    start_ok = interval.start == presence.start
    end_ok = interval.end == presence.end
    if not (start_ok and end_ok):
        for other, conflict in instance.conflicts_of(label_id):
            if not start_ok and conflict.end == interval.start and _active_at(phi, other, conflict.end):
                start_ok = True
            if not end_ok and conflict.start == interval.end and _active_at(phi, other, conflict.start):
                end_ok = True
            if start_ok and end_ok:
                break
    return (start_ok, end_ok)


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
    """Full conformance check: R1-R3 plus AM, k-bound and minimum duration."""
    base = check_valid(instance, phi)
    violations = list(base.violations)

    for lid, intervals in phi.items():
        for iv in intervals:
            presence = _presence_containing(instance, lid, iv)
            if presence is None:
                continue  # already reported as R1
            if mode is AmMode.AM1:
                if iv.start != presence.start:
                    violations.append(Violation("AM-start", (lid,), (iv.start,)))
                if iv.end != presence.end:
                    violations.append(Violation("AM-end", (lid,), (iv.end,)))
                continue
            start_ok, end_ok = is_justified(instance, phi, lid, iv)
            if mode is AmMode.AM2:
                start_ok = iv.start == presence.start
            if not start_ok:
                violations.append(Violation("AM-start", (lid,), (iv.start,)))
            if not end_ok:
                violations.append(Violation("AM-end", (lid,), (iv.end,)))

    if k is not None:
        violations.extend(_k_bound_violations(phi, k))

    if min_duration > 0:
        for lid, intervals in phi.items():
            for iv in intervals:
                if iv.length < min_duration:
                    violations.append(Violation("MIN-DUR", (lid,), (iv.start, iv.end)))

    return ValidationReport(tuple(violations))


def saturate_excluding(instance, graph, selection: set) -> set:
    """Repair an independent set of a conflict graph until it is saturated.

    Repeatedly performs the same-cluster swap with the largest weight gain
    (ties: smallest incoming candidate id) until no swap strictly improves
    the total weight.  Never adds or removes vertices, only exchanges within
    clusters, so the output weight is >= the input weight, and a cluster
    with no selected candidate stays empty.
    """
    selected = set(selection)
    crossed = np.zeros(len(graph), dtype=np.int32)  # selected cross neighbours

    def mark(v: int, step: int) -> None:
        for first, row in graph.rows(v):
            view = crossed[first : first + len(row)]
            (np.add if step > 0 else np.subtract)(view, row, out=view)

    for v in selected:
        mark(v, 1)
    clusters = [graph.cluster_of[v].start for v in selected]
    if any(crossed[v] for v in selected) or len(set(clusters)) < len(clusters):
        raise IntegrityError("selection is not independent")
    weights = graph.weights
    while True:
        # v is u's only selected cluster mate, so crossed[u] decides; the
        # largest gain first, then the smallest incoming id
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
