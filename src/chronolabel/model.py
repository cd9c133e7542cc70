"""Core data model: labels, time intervals, instances and activity sets.

An instance couples a set of weighted labels with their presence intervals
(when a label is inside the viewport) and pairwise conflict intervals (when
two labels' boxes overlap).  An activity set is a candidate solution: the
sub-intervals during which each label is actually displayed.

All intervals are closed and compared exactly (no epsilon); geometric noise
is dealt with upstream in :mod:`chronolabel.scenario`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence, Union


class ParseError(ValueError):
    """Raised when an instance/solution file is syntactically malformed."""


class IntegrityError(ValueError):
    """Raised when a file parses but violates a model invariant."""


@dataclass(frozen=True, order=True)
class TimeInterval:
    start: float
    end: float

    def __post_init__(self) -> None:
        if not (self.start <= self.end):
            raise IntegrityError(f"interval start {self.start} > end {self.end}")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, other: "TimeInterval") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersects_open(self, other: "TimeInterval") -> bool:
        """True iff the open interiors share a point.

        A degenerate interval has an empty interior, so it can only hit the
        *other* interval's interior when it sits strictly inside it.
        """
        if self.start == self.end:
            return other.start < self.start < other.end
        if other.start == other.end:
            return self.start < other.start < self.end
        return max(self.start, other.start) < min(self.end, other.end)


@dataclass(frozen=True)
class Label:
    id: str
    weight: float
    display_name: str = ""

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise IntegrityError(f"label {self.id!r}: weight must be positive")


@dataclass(frozen=True)
class ConflictEntry:
    """Undirected conflict between labels ``a`` and ``b`` over ``interval``.

    Canonical form: ``a < b`` by label id.
    """

    a: str
    b: str
    interval: TimeInterval

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise IntegrityError(f"self-conflict on label {self.a!r}")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @property
    def pair(self) -> tuple:
        return (self.a, self.b)


def _check_disjoint_sorted(intervals: Sequence[TimeInterval], what: str) -> None:
    for prev, cur in zip(intervals, intervals[1:]):
        if cur.start <= prev.end:
            raise IntegrityError(
                f"{what}: intervals [{prev.start},{prev.end}] and "
                f"[{cur.start},{cur.end}] are not disjoint"
            )


@dataclass(frozen=True)
class Instance:
    """A temporal labeling instance over the time span ``[0, horizon]``.

    Immutable after construction; safe to share across threads.
    """

    horizon: float
    labels: Mapping[str, Label]
    presences: Mapping[str, tuple]  # label id -> tuple[TimeInterval], sorted
    conflicts: tuple  # tuple[ConflictEntry]

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise IntegrityError("horizon must be positive")
        for lid, label in self.labels.items():
            if lid != label.id:
                raise IntegrityError(f"label key {lid!r} != label id {label.id!r}")
        for lid, intervals in self.presences.items():
            if lid not in self.labels:
                raise IntegrityError(f"presence references unknown label {lid!r}")
            for iv in intervals:
                if iv.start < 0 or iv.end > self.horizon:
                    raise IntegrityError(
                        f"presence of {lid!r} [{iv.start},{iv.end}] outside [0,{self.horizon}]"
                    )
            _check_disjoint_sorted(intervals, f"presences of {lid!r}")
        per_pair: dict = {}
        for entry in self.conflicts:
            for lid in entry.pair:
                if lid not in self.labels:
                    raise IntegrityError(f"conflict references unknown label {lid!r}")
            for lid in entry.pair:
                if not any(p.contains(entry.interval) for p in self.presences_of(lid)):
                    raise IntegrityError(
                        f"conflict ({entry.a},{entry.b}) [{entry.interval.start},"
                        f"{entry.interval.end}] not inside a presence of {lid!r}"
                    )
            per_pair.setdefault(entry.pair, []).append(entry.interval)
        for pair, ivs in per_pair.items():
            _check_disjoint_sorted(sorted(ivs), f"conflicts of pair {pair}")

    def presences_of(self, label_id: str) -> tuple:
        return self.presences.get(label_id, ())

    def conflicts_between(self, a: str, b: str) -> list:
        if a > b:
            a, b = b, a
        return [e.interval for e in self.conflicts if e.a == a and e.b == b]

    def conflicts_of(self, label_id: str) -> list:
        """(other label id, interval) pairs for all conflicts involving the label."""
        out = []
        for e in self.conflicts:
            if e.a == label_id:
                out.append((e.b, e.interval))
            elif e.b == label_id:
                out.append((e.a, e.interval))
        return out


@dataclass(frozen=True)
class ActivitySet:
    """A candidate solution: per label, the intervals during which it is shown."""

    activities: Mapping[str, tuple]  # label id -> tuple[TimeInterval], sorted

    def __post_init__(self) -> None:
        for lid, intervals in self.activities.items():
            _check_disjoint_sorted(intervals, f"activities of {lid!r}")

    def items(self):
        return self.activities.items()

    def total_count(self) -> int:
        return sum(len(v) for v in self.activities.values())


def make_activity_set(raw: Mapping[str, Iterable[TimeInterval]]) -> ActivitySet:
    return ActivitySet({lid: tuple(sorted(ivs)) for lid, ivs in raw.items() if ivs})


# ---------------------------------------------------------------------------
# Objective and size measure


def objective(instance: Instance, phi: ActivitySet) -> float:
    """Total weighted activity duration: sum of (end-start) * label weight."""
    total = 0.0
    for lid, intervals in phi.items():
        label = instance.labels.get(lid)
        if label is None:
            raise IntegrityError(f"activity references unknown label {lid!r}")
        total += label.weight * sum(iv.length for iv in intervals)
    return total


def complexity(instance: Instance) -> int:
    """Input size |presences| + |conflicts|."""
    return sum(len(v) for v in instance.presences.values()) + len(instance.conflicts)


# ---------------------------------------------------------------------------
# Serialization (UTF-8 JSON)

Source = Union[str, bytes, IO]


def _load_json(source: Source) -> dict:
    try:
        if isinstance(source, (str, bytes)):
            return json.loads(source)
        return json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def _num(obj: dict, key: str, where: str) -> float:
    try:
        value = obj[key]
    except KeyError:
        raise ParseError(f"{where}: missing field {key!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: field {key!r} must be a finite number")
    return number


def _text(obj: dict, key: str, where: str) -> str:
    try:
        value = obj[key]
    except KeyError:
        raise ParseError(f"{where}: missing field {key!r}")
    if not isinstance(value, str):
        raise ParseError(f"{where}: field {key!r} must be a string")
    return value


def _objects(doc: dict, key: str) -> list:
    """The list of objects under ``key`` (absent means empty)."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ParseError(f"field {key!r} must be a list of objects")
    return value


def load_instance(source: Source) -> Instance:
    """Parse an instance file. Raises ParseError / IntegrityError."""
    doc = _load_json(source)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    horizon = _num(doc, "horizon", "instance")
    labels = {}
    for i, raw in enumerate(_objects(doc, "labels")):
        lid = _text(raw, "id", f"labels[{i}]")
        if lid in labels:
            raise IntegrityError(f"duplicate label id {lid!r}")
        labels[lid] = Label(
            id=lid,
            weight=_num(raw, "weight", f"labels[{i}]"),
            display_name=raw.get("name", ""),
        )
    presences: dict = {}
    for i, raw in enumerate(_objects(doc, "presences")):
        lid = _text(raw, "label", f"presences[{i}]")
        if lid not in labels:
            raise IntegrityError(f"presence references unknown label {lid!r}")
        iv = TimeInterval(_num(raw, "start", f"presences[{i}]"), _num(raw, "end", f"presences[{i}]"))
        presences.setdefault(lid, []).append(iv)
    conflicts = []
    for i, raw in enumerate(_objects(doc, "conflicts")):
        conflicts.append(
            ConflictEntry(
                a=_text(raw, "a", f"conflicts[{i}]"),
                b=_text(raw, "b", f"conflicts[{i}]"),
                interval=TimeInterval(
                    _num(raw, "start", f"conflicts[{i}]"), _num(raw, "end", f"conflicts[{i}]")
                ),
            )
        )
    return Instance(
        horizon=horizon,
        labels=labels,
        presences={lid: tuple(sorted(ivs)) for lid, ivs in presences.items()},
        conflicts=tuple(sorted(conflicts, key=lambda e: (e.a, e.b, e.interval))),
    )


def dump_instance(instance: Instance) -> str:
    doc = {
        "horizon": instance.horizon,
        "labels": [
            {"id": l.id, "weight": l.weight, "name": l.display_name}
            for l in sorted(instance.labels.values(), key=lambda l: l.id)
        ],
        "presences": [
            {"label": lid, "start": iv.start, "end": iv.end}
            for lid in sorted(instance.presences)
            for iv in instance.presences[lid]
        ],
        "conflicts": [
            {"a": e.a, "b": e.b, "start": e.interval.start, "end": e.interval.end}
            for e in instance.conflicts
        ],
    }
    return json.dumps(doc, indent=2)


def load_solution(source: Source) -> ActivitySet:
    doc = _load_json(source)
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    raw_by_label: dict = {}
    for i, raw in enumerate(_objects(doc, "activities")):
        lid = _text(raw, "label", f"activities[{i}]")
        iv = TimeInterval(_num(raw, "start", f"activities[{i}]"), _num(raw, "end", f"activities[{i}]"))
        raw_by_label.setdefault(lid, []).append(iv)
    return make_activity_set(raw_by_label)


def dump_solution(phi: ActivitySet) -> str:
    doc = {
        "activities": [
            {"label": lid, "start": iv.start, "end": iv.end}
            for lid in sorted(phi.activities)
            for iv in phi.activities[lid]
        ]
    }
    return json.dumps(doc, indent=2)
