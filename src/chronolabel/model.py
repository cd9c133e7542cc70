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
from bisect import bisect_right
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Optional, Sequence, Union


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


@dataclass(frozen=True)
class Label:
    id: str
    weight: float
    display_name: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise IntegrityError(f"label {self.id!r}: weight must be positive and finite")


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
        starts: dict = {}
        total = 0.0  # weight times presence time, over all labels
        for lid, intervals in self.presences.items():
            if lid not in self.labels:
                raise IntegrityError(f"presence references unknown label {lid!r}")
            for iv in intervals:
                if iv.start < 0 or iv.end > self.horizon:
                    raise IntegrityError(
                        f"presence of {lid!r} [{iv.start},{iv.end}] outside [0,{self.horizon}]"
                    )
            _check_disjoint_sorted(intervals, f"presences of {lid!r}")
            starts[lid] = [iv.start for iv in intervals]
            total += self.labels[lid].weight * sum(iv.length for iv in intervals)
        # the total bounds every candidate weight, objective and bound
        if not math.isfinite(total):
            raise IntegrityError("weight times presence time overflows the float range")
        # The indexes below are not fields, so equality and repr are those of
        # the fields alone.
        object.__setattr__(self, "_starts", starts)
        per_pair: dict = {}
        per_label: dict = {}
        ending: dict = {}  # (label, t) -> the partners whose conflict with it ends at t
        starting: dict = {}  # (label, t) -> those whose conflict starts at t
        for entry in self.conflicts:
            for lid in entry.pair:
                if lid not in self.labels:
                    raise IntegrityError(f"conflict references unknown label {lid!r}")
            a, b, iv = entry.a, entry.b, entry.interval
            for lid in entry.pair:
                if self.presence_containing(lid, iv) is None:
                    raise IntegrityError(
                        f"conflict ({a},{b}) [{iv.start},{iv.end}] not inside a presence of {lid!r}"
                    )
            per_pair.setdefault(entry.pair, []).append(iv)
            for lid, other in ((a, b), (b, a)):
                per_label.setdefault(lid, []).append((other, iv))
                ending.setdefault((lid, iv.end), []).append(other)
                starting.setdefault((lid, iv.start), []).append(other)
        for pair, ivs in per_pair.items():
            _check_disjoint_sorted(sorted(ivs), f"conflicts of pair {pair}")
        object.__setattr__(self, "_by_label", {k: tuple(v) for k, v in per_label.items()})
        object.__setattr__(self, "_ending", {k: tuple(v) for k, v in ending.items()})
        object.__setattr__(self, "_starting", {k: tuple(v) for k, v in starting.items()})
        rows = tuple((e.a, e.b, e.interval.start, e.interval.end) for e in self.conflicts)
        object.__setattr__(self, "_rows", rows)

    def presences_of(self, label_id: str) -> tuple:
        return self.presences.get(label_id, ())

    def presence_containing(self, label_id: str, iv: TimeInterval) -> Optional[TimeInterval]:
        """The label's presence interval that contains ``iv``, or None.

        Presences are sorted and disjoint, so only the last one starting by
        ``iv.start`` can; it is found by bisecting the kept presence starts.
        """
        presences = self.presences.get(label_id, ())
        i = bisect_right(self._starts.get(label_id, ()), iv.start)
        return presences[i - 1] if i and iv.end <= presences[i - 1].end else None

    def conflicts_of(self, label_id: str) -> tuple:
        """(other label id, interval) pairs for all conflicts involving the label."""
        return self._by_label.get(label_id, ())

    def witness_partners(self, label_id: str, start: float, end: float) -> tuple:
        """(the labels whose conflict with ``label_id`` ends at ``start``,
        those whose conflict with it starts at ``end``), each in
        ``conflicts_of`` order: the witness labels of an activity [start, end]."""
        return self._ending.get((label_id, start), ()), self._starting.get((label_id, end), ())

    def conflict_rows(self) -> tuple:
        """(a, b, start, end) per conflict, in ``conflicts`` order."""
        return self._rows


@dataclass(frozen=True)
class ActivitySet:
    """A candidate solution: per label, the intervals during which it is shown."""

    activities: Mapping[str, tuple]  # label id -> tuple[TimeInterval], sorted

    def __post_init__(self) -> None:
        for lid, intervals in self.activities.items():
            _check_disjoint_sorted(intervals, f"activities of {lid!r}")

    def items(self):
        return self.activities.items()


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


def load_json(source: Source) -> dict:
    """Parse a JSON document; ParseError if it is malformed."""
    try:
        if isinstance(source, (str, bytes)):
            return json.loads(source)
        return json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def finite_number(value, what: str) -> float:
    """A parsed JSON value as a float; ParseError unless it is a finite number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{what} must be a finite number")
    return number


def _num(obj: dict, key: str, where: str) -> float:
    try:
        value = obj[key]
    except KeyError:
        raise ParseError(f"{where}: missing field {key!r}")
    return finite_number(value, f"{where}: field {key!r}")


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
    doc = load_json(source)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    horizon = _num(doc, "horizon", "instance")
    labels = {}
    for i, raw in enumerate(_objects(doc, "labels")):
        lid = _text(raw, "id", f"labels[{i}]")
        if lid in labels:
            raise IntegrityError(f"duplicate label id {lid!r}")
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ParseError(f"labels[{i}]: field 'name' must be a string")
        labels[lid] = Label(
            id=lid, weight=_num(raw, "weight", f"labels[{i}]"), display_name=name
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
    """The bytes of ``json.dumps(doc, indent=2)`` for the instance's document
    (horizon, then labels, presences and conflicts), written as
    :func:`dump_solution` writes its own."""
    text, number = encode_basestring_ascii, _json_number
    labels = [
        f'    {{\n      "id": {text(l.id)},\n      "weight": {number(l.weight)},\n'
        f'      "name": {text(l.display_name)}\n    }}'
        for l in sorted(instance.labels.values(), key=lambda l: l.id)
    ]
    conflicts = [
        f'    {{\n      "a": {text(a)},\n      "b": {text(b)},\n'
        f'      "start": {number(start)},\n      "end": {number(end)}\n    }}'
        for a, b, start, end in instance.conflict_rows()
    ]
    return (
        f'{{\n  "horizon": {number(instance.horizon)},\n  "labels": {_listed(labels)},\n'
        f'  "presences": {_listed(_interval_rows(instance.presences))},\n'
        f'  "conflicts": {_listed(conflicts)}\n}}'
    )


def load_solution(source: Source) -> ActivitySet:
    doc = load_json(source)
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    raw_by_label: dict = {}
    for i, raw in enumerate(_objects(doc, "activities")):
        lid = _text(raw, "label", f"activities[{i}]")
        iv = TimeInterval(_num(raw, "start", f"activities[{i}]"), _num(raw, "end", f"activities[{i}]"))
        raw_by_label.setdefault(lid, []).append(iv)
    return make_activity_set(raw_by_label)


def _json_number(x) -> str:
    # what json.dumps writes, without its encoder setup for the usual float
    return float.__repr__(x) if isinstance(x, float) and math.isfinite(x) else json.dumps(x)


def _interval_rows(by_label: Mapping[str, tuple]) -> list:
    """The indented {"label", "start", "end"} objects of a label -> intervals
    mapping, labels in sorted order."""
    rows = []
    for lid in sorted(by_label):
        label = encode_basestring_ascii(lid)
        for iv in by_label[lid]:
            rows.append(
                f'    {{\n      "label": {label},\n'
                f'      "start": {_json_number(iv.start)},\n      "end": {_json_number(iv.end)}\n    }}'
            )
    return rows


def _listed(rows: list) -> str:
    """A list of indented objects at depth one, as json.dumps writes it."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def dump_solution(phi: ActivitySet) -> str:
    """The bytes of ``json.dumps({"activities": [...]}, indent=2)``."""
    return '{\n  "activities": ' + _listed(_interval_rows(phi.activities)) + "\n}"
