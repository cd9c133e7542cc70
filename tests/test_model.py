import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolabel.model import (
    ActivitySet,
    ConflictEntry,
    Instance,
    IntegrityError,
    Label,
    ParseError,
    TimeInterval,
    complexity,
    dump_instance,
    dump_solution,
    load_instance,
    load_solution,
    make_activity_set,
    objective,
)

from chronolabel.scenario import extract_instance, synthesize_scenario

from conftest import navigation_corpus, random_instance

I1_JSON = json.dumps(
    {
        "horizon": 10,
        "labels": [
            {"id": "l1", "weight": 1, "name": "Alpha"},
            {"id": "l2", "weight": 1, "name": "Beta"},
            {"id": "l3", "weight": 1, "name": "Gamma"},
        ],
        "presences": [
            {"label": "l1", "start": 0, "end": 10},
            {"label": "l2", "start": 0, "end": 10},
            {"label": "l3", "start": 2, "end": 8},
        ],
        "conflicts": [{"a": "l1", "b": "l2", "start": 4, "end": 6}],
    }
)


def test_load_empty_instance():
    instance = load_instance('{"horizon": 1}')
    assert len(instance.labels) == 0
    assert complexity(instance) == 0


def test_load_i1_counts():
    instance = load_instance(I1_JSON)
    assert sum(len(v) for v in instance.presences.values()) == 3
    assert len(instance.conflicts) == 1
    assert complexity(instance) == 4


def test_round_trip():
    instance = load_instance(I1_JSON)
    again = load_instance(dump_instance(instance))
    assert again == instance


def test_conflict_unknown_label_rejected():
    doc = json.loads(I1_JSON)
    doc["conflicts"][0]["a"] = "nope"
    with pytest.raises(IntegrityError):
        load_instance(json.dumps(doc))


def test_conflict_outside_presence_rejected():
    doc = json.loads(I1_JSON)
    doc["conflicts"][0]["end"] = 11
    with pytest.raises(IntegrityError):
        load_instance(json.dumps(doc))


def test_overlapping_presences_rejected():
    doc = json.loads(I1_JSON)
    doc["presences"].append({"label": "l1", "start": 5, "end": 7})
    with pytest.raises(IntegrityError):
        load_instance(json.dumps(doc))


def test_self_conflict_rejected():
    doc = json.loads(I1_JSON)
    doc["conflicts"][0]["b"] = "l1"
    with pytest.raises(IntegrityError):
        load_instance(json.dumps(doc))


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_instance("{not json")


@pytest.mark.parametrize(
    "text",
    [
        '{"horizon": Infinity}',
        '{"horizon": NaN}',
        '{"horizon": 1e400}',
        pytest.param('{"horizon": 1' + "0" * 400 + "}", id="integer-beyond-float"),
        '{"horizon": 10, "labels": [{"id": "a", "weight": Infinity}]}',
        '{"horizon": 10, "labels": [{"id": "a", "weight": 1}],'
        ' "presences": [{"label": "a", "start": -Infinity, "end": 1}]}',
    ],
)
def test_non_finite_number_is_parse_error(text):
    with pytest.raises(ParseError):
        load_instance(text)


@pytest.mark.parametrize("field", ["labels", "presences", "conflicts"])
@pytest.mark.parametrize("value", [5, "x", {}, [5], [["a"]], [None]])
def test_instance_list_field_must_hold_objects(field, value):
    with pytest.raises(ParseError):
        load_instance(json.dumps({"horizon": 1, field: value}))


@pytest.mark.parametrize(
    "text",
    [
        '{"activities": 5}',
        '{"activities": [1, 2]}',
        '{"activities": [{"label": "a", "start": 0, "end": Infinity}]}',
    ],
)
def test_malformed_solution_is_parse_error(text):
    with pytest.raises(ParseError):
        load_solution(text)


@pytest.mark.parametrize("name", [5, None, ["Alpha"]])
def test_label_name_must_be_string(name):
    doc = json.loads(I1_JSON)
    doc["labels"][0]["name"] = name
    with pytest.raises(ParseError):
        load_instance(json.dumps(doc))


def test_nonpositive_weight_rejected():
    doc = json.loads(I1_JSON)
    doc["labels"][0]["weight"] = 0
    with pytest.raises(IntegrityError):
        load_instance(json.dumps(doc))


def test_objective_empty():
    instance = load_instance(I1_JSON)
    assert objective(instance, make_activity_set({})) == 0.0


def test_objective_single_label():
    instance = load_instance(
        '{"horizon": 10, "labels": [{"id": "a", "weight": 2}],'
        ' "presences": [{"label": "a", "start": 0, "end": 10}]}'
    )
    phi = make_activity_set({"a": [TimeInterval(1, 4)]})
    assert objective(instance, phi) == 6.0


def test_objective_i1_two_full_presences():
    instance = load_instance(I1_JSON)
    phi = make_activity_set({"l1": [TimeInterval(0, 10)], "l3": [TimeInterval(2, 8)]})
    assert objective(instance, phi) == 16.0


def test_objective_unknown_label():
    instance = load_instance(I1_JSON)
    with pytest.raises(IntegrityError):
        objective(instance, make_activity_set({"zz": [TimeInterval(0, 1)]}))


def test_objective_additive_over_disjoint_label_sets():
    instance = load_instance(I1_JSON)
    phi_a = make_activity_set({"l1": [TimeInterval(0, 3)]})
    phi_b = make_activity_set({"l3": [TimeInterval(2, 5)]})
    merged = make_activity_set({"l1": [TimeInterval(0, 3)], "l3": [TimeInterval(2, 5)]})
    assert objective(instance, merged) == objective(instance, phi_a) + objective(instance, phi_b)


def test_complexity_counts():
    instance = random_instance(7)
    assert complexity(instance) == sum(len(v) for v in instance.presences.values()) + len(
        instance.conflicts
    )


def test_random_instances_satisfy_invariants():
    for seed in range(50):
        random_instance(seed)  # Instance.__post_init__ re-checks everything


def _unsorted_conflicts_instance() -> Instance:
    labels = {lid: Label(lid, 1.0) for lid in ("a", "b", "c")}
    return Instance(
        horizon=10.0,
        labels=labels,
        presences={lid: (TimeInterval(0.0, 10.0),) for lid in labels},
        conflicts=(
            ConflictEntry("b", "c", TimeInterval(5.0, 6.0)),
            ConflictEntry("a", "b", TimeInterval(7.0, 8.0)),
            ConflictEntry("c", "a", TimeInterval(3.0, 4.0)),
            ConflictEntry("a", "b", TimeInterval(1.0, 2.0)),
        ),
    )


def test_conflict_index_matches_scan():
    # The index built at construction must answer exactly as a scan over
    # ``conflicts`` does, in the same order.
    instances = [_unsorted_conflicts_instance()] + [i for _, i in navigation_corpus(3)]
    for instance in instances:
        lids = sorted(instance.labels) + ["unknown"]
        for lid in lids:
            scan = [
                (e.b if e.a == lid else e.a, e.interval)
                for e in instance.conflicts
                if lid in (e.a, e.b)
            ]
            got = instance.conflicts_of(lid)
            assert isinstance(got, tuple)
            assert list(got) == scan, lid


def test_witness_partners_match_scan():
    # The witness maps answer as a scan over ``conflicts_of`` does, in its
    # order, at every conflict endpoint and at a time that is none.
    instances = [extract_instance(synthesize_scenario(seed)) for seed in range(20)]
    instances += [random_instance(seed) for seed in range(200)]
    for instance in instances:
        times = {t for e in instance.conflicts for t in (e.interval.start, e.interval.end)}
        times.add(instance.horizon + 1.0)
        for lid in sorted(instance.labels) + ["unknown"]:
            conflicts = instance.conflicts_of(lid)
            for start in times:
                for end in (start, instance.horizon + 1.0):
                    want = (
                        tuple(other for other, iv in conflicts if iv.end == start),
                        tuple(other for other, iv in conflicts if iv.start == end),
                    )
                    assert instance.witness_partners(lid, start, end) == want, (lid, start, end)


def _json_dumps_instance(instance) -> str:
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


def test_dump_instance_bytes_match_json_dumps():
    instances = [extract_instance(synthesize_scenario(seed)) for seed in range(60)]
    labels = {"é": Label("é", 2.5, "Café ☃ \"quoted\""), "b": Label("b", 1, "")}
    instances.append(  # non-ASCII ids and names, an integer weight, no conflicts
        Instance(10, labels, {"é": (TimeInterval(0.0, 4.0),), "b": (TimeInterval(1, 2),)}, ())
    )
    instances.append(Instance(5.0, {}, {}, ()))
    for instance in instances:
        assert dump_instance(instance) == _json_dumps_instance(instance)


_TIMES = st.one_of(
    st.integers(0, 10**9),
    st.floats(0, 1e9, allow_nan=False),
    st.floats(0, 1e9, allow_nan=False).map(np.float64),
)
_LABEL_IDS = st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", 'a"b\\c', "é", "☃", "\x00\n"]))


def _disjoint_intervals(times) -> list:
    # distinct values in ascending order, paired up: [t0, t1], [t2, t3], ...
    points = []
    for t in sorted(times):
        if not points or t > points[-1]:
            points.append(t)
    return [TimeInterval(a, b) for a, b in zip(points[::2], points[1::2])]


@settings(max_examples=300, deadline=None)
@example(raw={})
@given(st.dictionaries(_LABEL_IDS, st.lists(_TIMES, max_size=6), max_size=4))
def test_dump_solution_bytes_match_json_dumps(raw):
    phi = make_activity_set({lid: _disjoint_intervals(times) for lid, times in raw.items()})
    doc = {
        "activities": [
            {"label": lid, "start": iv.start, "end": iv.end}
            for lid in sorted(phi.activities)
            for iv in phi.activities[lid]
        ]
    }
    text = dump_solution(phi)
    assert text == json.dumps(doc, indent=2)
    assert load_solution(text) == phi
