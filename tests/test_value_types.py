"""The loaded value types: `Action`, `TargetCriteria` and `Edge` are
immutable NamedTuples that the loaders build positionally.

Their positional field order is part of their contract, so it is pinned
here, and every loaded action and edge must equal its document field by
field: a loader that passes two arguments in the wrong order fails.
A NamedTuple default is one object shared by every value built without
that field, so the mapping defaults must pickle, for `--jobs` workers,
and must still be empty after a run.
"""

import json
import pickle
from random import Random

import pytest

from attacksim import harness
from attacksim.actions import (
    Action,
    ActionDatabase,
    TargetCriteria,
    action_db_from_dict,
    action_to_dict,
    load_action_db,
)
from attacksim.harness import (
    SimConfig,
    report_to_dict,
    run_monte_carlo,
    trace_to_dict,
)
from attacksim.model import (
    EXTERNAL_ORIGIN,
    CpsSystem,
    Edge,
    Node,
    load_system,
    system_from_dict,
    system_to_dict,
)
from attacksim.profiles import (
    AttackerProfile,
    ProfileSchema,
    ProfileSet,
    PropertySchema,
    load_profiles,
)
from genrand import random_instance


# one value of each type built with every default it has
WITH_DEFAULTS = [Action("a"), TargetCriteria(), Edge("e", "A", "B")]


def test_action_fields_and_defaults():
    assert Action._fields == (
        "id", "name", "description", "references", "profile",
        "target_criteria", "channels", "prerequisites",
        "success_probability", "effect")
    assert Action._field_defaults == {
        "name": "", "description": "", "references": (), "profile": {},
        "target_criteria": TargetCriteria(), "channels": frozenset(),
        "prerequisites": frozenset(), "success_probability": 1.0,
        "effect": "compromise"}


def test_target_criteria_fields_and_defaults():
    assert TargetCriteria._fields == ("requirements",)
    assert TargetCriteria._field_defaults == {"requirements": {}}
    # the default criteria holds the one shared requirements dict
    assert (Action._field_defaults["target_criteria"].requirements
            is TargetCriteria._field_defaults["requirements"])


def test_edge_fields_and_defaults():
    assert Edge._fields == ("id", "from_node", "to_node", "channels",
                            "is_attack_vector", "is_entry_point")
    assert Edge._field_defaults == {"channels": frozenset(),
                                    "is_attack_vector": False,
                                    "is_entry_point": False}


@pytest.mark.parametrize("value", WITH_DEFAULTS,
                         ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], "changed")
    with pytest.raises(AttributeError):
        value.extra = 1


def expected_action(ad: dict) -> dict:
    """An action document entry in `action_to_dict`'s form, with the
    loader's defaults for absent fields."""
    return {
        "id": ad["id"],
        "name": ad.get("name", ""),
        "description": ad.get("description", ""),
        "references": ad.get("references", []),
        "profile": ad.get("profile", {}),
        "target_criteria": {k: sorted([v] if isinstance(v, str) else v)
                            for k, v in ad.get("target_criteria", {}).items()},
        "channels": sorted(ad.get("channels", [])),
        "prerequisites": sorted(ad.get("prerequisites", [])),
        "success_probability": float(ad.get("success_probability", 1.0)),
        "effect": ad.get("effect", "compromise"),
    }


def expected_edge(ed: dict) -> dict:
    """A system document's edge in `system_to_dict`'s form, with the
    loader's defaults for absent fields."""
    entry = ed.get("entry_point", False)
    return {"id": ed["id"], "from": ed["from"], "to": ed["to"],
            "channels": sorted(ed.get("channels", [])),
            "entry_point": entry,
            "attack_vector": ed.get("attack_vector", entry)}


def check_actions(doc: dict, db: ActionDatabase):
    by_id = {ad["id"]: ad for ad in doc["actions"]}
    assert sorted(by_id) == [a.id for a in db.actions]
    for a in db.actions:
        got, want = action_to_dict(a), expected_action(by_id[a.id])
        for field in Action._fields:
            assert got[field] == want[field], (a.id, field)


def check_edges(doc: dict, system: CpsSystem):
    by_id = {ed["id"]: ed for ed in doc["edges"]}
    assert sorted(by_id) == [e.id for e in system.edges]
    for got in system_to_dict(system)["edges"]:
        want = expected_edge(by_id[got["id"]])
        for key in want:
            assert got[key] == want[key], (got["id"], key)


def test_fixture_values_equal_their_documents(cstr_paths):
    schema = load_profiles(cstr_paths["profiles"]).schema
    actions_doc = json.loads(cstr_paths["actions"].read_text(encoding="utf-8"))
    system_doc = json.loads(cstr_paths["system"].read_text(encoding="utf-8"))
    check_actions(actions_doc, load_action_db(cstr_paths["actions"], schema))
    check_edges(system_doc, load_system(cstr_paths["system"]))


@pytest.mark.parametrize("seed", range(40))
def test_generated_values_equal_their_documents(seed):
    built_system, built_db, _ = random_instance(Random(seed), max_actions=12)
    actions_doc = {"actions": [action_to_dict(a) for a in built_db.actions]}
    system_doc = system_to_dict(built_system)
    # through JSON text, as a loaded file would be
    actions_doc = json.loads(json.dumps(actions_doc))
    system_doc = json.loads(json.dumps(system_doc))
    db = action_db_from_dict(actions_doc, built_db.schema)
    system = system_from_dict(system_doc)
    check_actions(actions_doc, db)
    check_edges(system_doc, system)
    assert db.actions == built_db.actions
    assert system.edges == built_system.edges


def test_every_field_differs_in_one_document():
    """One action and one edge whose fields are all set and all differ,
    so that any two swapped loader arguments change a field."""
    schema = ProfileSchema([PropertySchema("Skill", "unbounded-range")])
    actions_doc = {"actions": [
        {"id": "a", "name": "n", "description": "d", "references": ["r"],
         "profile": {"Skill": 3.0}, "target_criteria": {"os": ["linux"]},
         "channels": ["net"], "prerequisites": ["b"],
         "success_probability": 0.25, "effect": "disrupt"},
        {"id": "b", "profile": {"Skill": 1.0}}]}
    system_doc = {
        "nodes": [{"id": "A", "target": True}, {"id": "B"}],
        "edges": [{"id": "E", "from": EXTERNAL_ORIGIN, "to": "A",
                   "channels": ["net"], "entry_point": True},
                  {"id": "L", "from": "B", "to": "A", "channels": ["usb"],
                   "attack_vector": True}]}
    db = action_db_from_dict(actions_doc, schema)
    system = system_from_dict(system_doc)
    check_actions(actions_doc, db)
    check_edges(system_doc, system)
    assert db.by_id["a"] == Action(
        "a", "n", "d", ("r",), {"Skill": 3.0},
        TargetCriteria({"os": frozenset({"linux"})}), frozenset({"net"}),
        frozenset({"b"}), 0.25, "disrupt")
    assert system.edge_by_id["L"] == Edge("L", "B", "A", frozenset({"usb"}),
                                          True, False)


@pytest.mark.parametrize("value", WITH_DEFAULTS,
                         ids=lambda v: type(v).__name__)
def test_values_with_every_default_pickle(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


def defaults_instance():
    """A system and database built in code, each value with every default
    it can keep and still be attacked."""
    system = CpsSystem(
        [Node("A"), Node("B"), Node("T", is_target=True)],
        [Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}), True, True),
         Edge("L1", "A", "B", frozenset({"net"}), True),
         Edge("L2", "B", "T", frozenset({"net"}), True),
         Edge("L3", "A", "T")])
    schema = ProfileSchema([PropertySchema("Skill", "unbounded-range")])
    db = ActionDatabase(
        [Action("plain", profile={"Skill": 1.0},
                channels=frozenset({"net"})),
         Action("risky", profile={"Skill": 5.0},
                channels=frozenset({"net"}), success_probability=0.3),
         Action("idle", profile={"Skill": 9.0})], schema)
    profiles = ProfileSet(schema, {"x": AttackerProfile("x", {"Skill": 4.0})})
    return system, db, profiles


def test_defaults_run_in_workers_as_in_serial(monkeypatch):
    system, db, profiles = defaults_instance()
    serial = run_monte_carlo(system, db, profiles,
                             SimConfig(60, seed=5, profile="x"))
    # with one CPU the run would stay serial and never send the context
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    report, traces = run_monte_carlo(
        system, db, profiles, SimConfig(60, seed=5, profile="x",
                                        parallelism=2))
    assert report_to_dict(report) == report_to_dict(serial[0])
    assert ([trace_to_dict(t) for t in traces]
            == [trace_to_dict(t) for t in serial[1]])
    assert report.successes > 0


def test_shared_defaults_stay_empty_after_runs(cstr_paths):
    profiles = load_profiles(cstr_paths["profiles"])
    run_monte_carlo(load_system(cstr_paths["system"]),
                    load_action_db(cstr_paths["actions"], profiles.schema),
                    profiles, SimConfig(300, seed=1))
    system, db, profiles = defaults_instance()
    run_monte_carlo(system, db, profiles, SimConfig(30, seed=1, profile="x"))
    assert Action._field_defaults["profile"] == {}
    assert TargetCriteria._field_defaults["requirements"] == {}
    assert Action._field_defaults["target_criteria"] == TargetCriteria({})
