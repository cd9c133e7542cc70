import json

import pytest

from chronolabel.model import (
    ActivitySet,
    IntegrityError,
    ParseError,
    TimeInterval,
    complexity,
    dump_instance,
    load_instance,
    load_solution,
    make_activity_set,
    objective,
)

from conftest import random_instance

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
