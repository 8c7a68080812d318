"""The action loader against the helper-only reader in `oracle_reader`.

`actions.action_from_dict` checks each field inline and calls a wording
helper only for a field that fails; `ActionDatabase.validate` tests its
rules as columns and runs the per-action loop only when one fails. Both
must give what the reference gives: the same actions, field by field with
their value types, and the same error lists in the same order.
"""

import json
from collections import defaultdict
from math import inf, nan
from random import Random
from types import MappingProxyType

import pytest

import oracle_reader
from genrand import random_instance

from attacksim.actions import (
    Action,
    ActionDatabase,
    TargetCriteria,
    action_db_from_dict,
    action_from_dict,
    action_to_dict,
    load_action_db,
)
from attacksim.errors import ValidationFailure
from attacksim.profiles import (
    AttackerProfile,
    ProfileSchema,
    PropertySchema,
    load_profiles,
)

SCHEMA = ProfileSchema([
    PropertySchema("Access", "unordered-set",
                   allowed_values=("Direct", "Wireless")),
    PropertySchema("Tools", "ordered-set",
                   allowed_values=("Low", "Medium", "High")),
    PropertySchema("Knowledge", "bounded-range", lower=0, upper=10.0),
    PropertySchema("Finances", "unbounded-range"),
])
PROFILE = {"Access": "Direct", "Tools": "Low", "Knowledge": 5.5,
           "Finances": 1500.0}


def typed(value):
    """`value` with the type of every part beside it, so that 5 and 5.0,
    or a list and a tuple, compare unequal."""
    if isinstance(value, dict):
        return dict, [(k, typed(v)) for k, v in value.items()]
    if isinstance(value, frozenset):
        return frozenset, sorted(map(typed, value))
    if isinstance(value, (tuple, list)):
        return type(value), [typed(v) for v in value]
    return type(value), value


def read_both(doc, schema=SCHEMA):
    """(database or None, errors) from the loader and from the reference."""
    results = []
    for load in (action_db_from_dict, oracle_reader.action_db_from_dict):
        try:
            results.append((load(doc, schema), []))
        except ValidationFailure as exc:
            results.append((None, exc.errors))
    return results


def assert_same_load(doc, schema=SCHEMA):
    (db, errors), (want_db, want_errors) = read_both(doc, schema)
    assert errors == want_errors
    assert (db is None) == (want_db is None)
    if db is not None:
        assert [typed(a) for a in db.actions] == [typed(a)
                                                  for a in want_db.actions]
        for a in db.actions:
            assert type(a) is Action
            assert type(a.target_criteria) is TargetCriteria


def assert_same_entries(entries):
    """Entry by entry: the same action or None, and the same errors."""
    for i, ad in enumerate(entries):
        errors, want_errors = [], []
        got = action_from_dict(ad, errors, i)
        want = oracle_reader.action_from_dict(ad, want_errors, i)
        assert errors == want_errors, ad
        assert typed(got) == typed(want), ad


def test_fixture(cstr_paths):
    schema = load_profiles(cstr_paths["profiles"]).schema
    doc = json.loads(cstr_paths["actions"].read_text(encoding="utf-8"))
    assert_same_load(doc, schema)
    assert_same_entries(doc["actions"])


@pytest.mark.parametrize("seed", range(30))
def test_generated_documents(seed):
    rng = Random(seed)
    _, built, _ = random_instance(rng, max_actions=12)
    doc = json.loads(json.dumps(
        {"actions": [action_to_dict(a) for a in built.actions]}))
    # numbers written as ints, which both read as floats
    for ad in doc["actions"]:
        for key, value in ad["profile"].items():
            if isinstance(value, float) and rng.random() < 0.3:
                ad["profile"][key] = round(value)
        if rng.random() < 0.3:
            ad["success_probability"] = 1
    assert_same_load(doc, built.schema)
    assert_same_entries(doc["actions"])


def good_entry(i):
    return {"id": f"A{i}", "name": f"action {i}", "description": "d",
            "references": ["CVE-1"], "profile": dict(PROFILE),
            "target_criteria": {"os": "linux", "zone": ["dmz", "control"]},
            "channels": ["lan"], "prerequisites": [],
            "success_probability": 0.5, "effect": "disrupt"}


# one fault at a time: wrong types, a bool, NaN and the infinities (which
# Python's json reads), an int past the float range, a lone surrogate,
# non-ASCII text, and containers holding each of them
SCALARS = [5, 1, 0.5, True, False, None, nan, inf, -inf, 10 ** 400, "x",
           "\udc80", "café", "Direct", "Low"]
FAULTS = SCALARS + [[], ["x"], ["café"], ["\udc80"], [5], [True], ["x", None],
                    {}, {"k": "v"}, "x y"]
FIELDS = ["id", "name", "description", "references", "profile",
          "target_criteria", "channels", "prerequisites",
          "success_probability", "effect"]


@pytest.mark.parametrize("field", FIELDS)
def test_one_fault_per_field(field):
    for fault in FAULTS:
        entries = [good_entry(0), good_entry(1), good_entry(2)]
        entries[1][field] = fault
        assert_same_entries(entries)
        assert_same_load({"actions": entries})
        del entries[1][field]  # an absent field takes its default
        assert_same_entries(entries)
        assert_same_load({"actions": entries})


@pytest.mark.parametrize("slot", sorted(PROFILE) + ["Extra"])
def test_one_fault_per_profile_value(slot):
    for fault in SCALARS + [[1], {"a": 1}]:
        entries = [good_entry(0), good_entry(1)]
        entries[1]["profile"][slot] = fault
        assert_same_entries(entries)
        assert_same_load({"actions": entries})


@pytest.mark.parametrize("key", ["os", "", "café", "\udc80"])
def test_one_fault_per_criteria_value(key):
    for fault in FAULTS:
        entries = [good_entry(0), good_entry(1)]
        entries[1]["target_criteria"][key] = fault
        assert_same_entries(entries)
        assert_same_load({"actions": entries})


@pytest.mark.parametrize("extra", [{"bogus": 1}, {"café": 1},
                                   {"\udc80": None}, {"b": 1, "a": 2}])
def test_unknown_keys(extra):
    entries = [good_entry(0), {**good_entry(1), **extra}]
    entries[1]["name"] = 5  # its field problems still follow the keys'
    assert_same_entries(entries)
    assert_same_load({"actions": entries})


def test_entries_that_are_not_objects():
    entries = [good_entry(0), "A1", ["A1"], None, 5,
               {"name": "no id"}, {"id": None}]
    assert_same_entries(entries)
    assert_same_load({"actions": entries})


def test_values_read_as_floats_and_copied():
    ad = good_entry(0)
    ad["profile"]["Knowledge"] = 7
    ad["success_probability"] = 1
    errors = []
    a = action_from_dict(ad, errors, 0)
    assert not errors
    assert typed(a.profile["Knowledge"]) == (float, 7.0)
    assert typed(a.success_probability) == (float, 1.0)
    assert a.profile is not ad["profile"]
    ad["profile"]["Access"] = "Wireless"
    assert a.profile["Access"] == "Direct"


# directly built databases: each rule broken once, on a later action where
# a column's first element would not show it

def action(i, **fields):
    return Action(f"A{i}", profile=dict(PROFILE), **fields)


def database(*broken, n=4):
    """n valid actions, each of `broken` (index, field changes) applied."""
    actions = [action(i) for i in range(n)]
    for i, changes in broken:
        if "profile" in changes:  # a function of the valid profile
            changes = {**changes, "profile": changes["profile"](
                dict(PROFILE))}
        actions[i] = actions[i]._replace(**changes)
    return ActionDatabase(actions, SCHEMA)


def with_value(**values):
    return lambda profile: {**profile, **values}


def without(name):
    return lambda profile: {k: v for k, v in profile.items() if k != name}


def loop_problems(db, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(ActionDatabase, "_columns_clean", lambda self: False)
        return ActionDatabase(db.actions, db.schema).validate()


VALID = {
    "plain": database(),
    "int-values": database((2, {"profile": with_value(Knowledge=10,
                                                      Finances=-3)})),
    "int-and-bool-probability": database((1, {"success_probability": 1}),
                                         (2, {"success_probability": True}),
                                         (3, {"success_probability": 0})),
    "known-prerequisites": database(
        (2, {"prerequisites": frozenset({"A0", "A1"})}),
        (3, {"prerequisites": frozenset({"A2"})})),
    "criteria": database(
        (1, {"target_criteria": TargetCriteria({"os": frozenset({"x"})})})),
}

BROKEN = {
    "empty": ActionDatabase([], SCHEMA),
    "duplicate-id": ActionDatabase([action(0), action(1), action(1)],
                                   SCHEMA),
    "missing-property": database((2, {"profile": without("Tools")})),
    "extra-property": database((2, {"profile": with_value(Extra=1.0)})),
    "missing-and-extra": database(
        (2, {"profile": lambda p: {**without("Tools")(p), "X": 1}})),
    "number-in-label-slot": database((3, {"profile": with_value(Access=1)})),
    "unknown-label": database((2, {"profile": with_value(Tools="Max")})),
    "label-in-number-slot": database(
        (2, {"profile": with_value(Finances="1.0")})),
    "bool-in-number-slot": database((2, {"profile": with_value(
        Knowledge=True)})),
    "none-in-number-slot": database((1, {"profile": with_value(
        Finances=None)})),
    "out-of-bounds": database((3, {"profile": with_value(Knowledge=10.5)})),
    "int-out-of-bounds": database((3, {"profile": with_value(
        Knowledge=-1)})),
    "nan-bounded-not-first": database((2, {"profile": with_value(
        Knowledge=nan)})),
    "nan-unbounded-not-first": database((2, {"profile": with_value(
        Finances=nan)})),
    "nan-unbounded-first": database((0, {"profile": with_value(
        Finances=nan)})),
    "inf-unbounded": database((2, {"profile": with_value(Finances=inf)})),
    "huge-int-unbounded": database((2, {"profile": with_value(
        Finances=10 ** 400)})),
    # an int sum would cancel the two out
    "huge-ints-that-cancel": database(
        *((i, {"profile": with_value(Finances=value)})
          for i, value in enumerate((1, 10 ** 400, -10 ** 400, 2)))),
    "huge-int-bounded": database((2, {"profile": with_value(
        Knowledge=10 ** 400)})),
    "span-overflows": database(
        (1, {"profile": with_value(Finances=-1.7e308)}),
        (2, {"profile": with_value(Finances=1.7e308)})),
    "defaultdict-missing-property": database(
        (2, {"profile": lambda p: defaultdict(float, without("Tools")(p))})),
    "empty-criteria-key": database(
        (2, {"target_criteria": TargetCriteria({"": frozenset({"x"})})})),
    "falsy-criteria-key": database(
        (2, {"target_criteria": TargetCriteria({0: frozenset({"x"})})})),
    "self-prerequisite": database(
        (2, {"prerequisites": frozenset({"A2", "A0"})})),
    "unknown-prerequisite": database(
        (2, {"prerequisites": frozenset({"Z", "A0"})})),
    "prerequisite-cycle": database(
        (1, {"prerequisites": frozenset({"A3"})}),
        (3, {"prerequisites": frozenset({"A1"})})),
    "probability-above": database((2, {"success_probability": 1.5})),
    "probability-below": database((2, {"success_probability": -0.1})),
    "probability-int-above": database((2, {"success_probability": 2})),
    "probability-nan-not-first": database((2, {"success_probability": nan})),
    "unknown-effect": database((2, {"effect": "explode"})),
    "unhashable-effect": database((2, {"effect": ["compromise"]})),
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_databases_take_the_columns(name, monkeypatch):
    db = VALID[name]
    assert db._columns_clean()
    assert db.validate() == [] == oracle_reader.validate(db)
    assert loop_problems(db, monkeypatch) == []


def test_a_sum_that_overflows_takes_the_loop(monkeypatch):
    # finite values whose column sum is not: the column test is too
    # strict here, and the loop finds nothing
    db = database((2, {"profile": with_value(Finances=1e308)}),
                  (3, {"profile": with_value(Finances=1e308)}))
    assert not db._columns_clean()
    assert db.validate() == [] == loop_problems(db, monkeypatch)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_databases_get_the_loops_messages(name, monkeypatch):
    db = BROKEN[name]
    problems = db.validate()
    assert problems
    assert problems == oracle_reader.validate(db) == loop_problems(
        db, monkeypatch)
    if name not in ("span-overflows", "prerequisite-cycle"):
        assert not db._columns_clean()


def test_labels_that_are_not_strings(monkeypatch):
    # a schema built through the API may list labels of any type; a value
    # equal to one is still not a label
    schema = ProfileSchema([PropertySchema("Level", "ordered-set",
                                           allowed_values=(1, 2))])
    db = ActionDatabase([Action(f"A{i}", profile={"Level": 1})
                         for i in range(3)], schema)
    assert not db._columns_clean()
    assert db.validate() == oracle_reader.validate(db) == loop_problems(
        db, monkeypatch)
    assert db.validate()[0] == "action 'A0': property 'Level' needs a label"


def test_mapping_proxy_profiles_take_the_loop(monkeypatch):
    db = ActionDatabase([action(i)._replace(
        profile=MappingProxyType(dict(PROFILE))) for i in range(3)], SCHEMA)
    assert not db._columns_clean()
    assert db.validate() == [] == loop_problems(db, monkeypatch)


def test_defaultdict_profile_is_not_changed():
    db = BROKEN["defaultdict-missing-property"]
    db.validate()
    assert "Tools" not in db.actions[2].profile


# non-finite numbers in profiles built through the API

def fixture_db(cstr_paths):
    schema = load_profiles(cstr_paths["profiles"]).schema
    return load_action_db(cstr_paths["actions"], schema)


@pytest.mark.parametrize("value", [nan, inf, -inf, 10 ** 400])
def test_non_finite_action_value_is_reported(cstr_paths, value):
    # the only problem, on the first action in id order or a later one
    db = fixture_db(cstr_paths)
    for i in (0, 5):
        actions = list(db.actions)
        a = actions[i]
        actions[i] = a._replace(profile={**a.profile, "Finances": value})
        problems = ActionDatabase(actions, db.schema).validate()
        assert problems == [f"action {a.id!r}: property 'Finances' must be "
                            "a finite number"]


@pytest.mark.parametrize("value", [nan, inf, -inf, 10 ** 400])
def test_non_finite_attacker_value_is_reported(cstr_paths, value):
    db = fixture_db(cstr_paths)
    profile = load_profiles(cstr_paths["profiles"]).profiles
    attacker = next(iter(profile.values()))
    bad = AttackerProfile(attacker.name,
                          {**attacker.values, "Finances": value})
    with pytest.raises(ValidationFailure) as info:
        db.attacker_ranges(bad)
    assert info.value.errors == [
        f"attacker profile {attacker.name!r}: property 'Finances' must be "
        "a finite number"]
