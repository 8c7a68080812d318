import json
from random import Random

import pytest

from attacksim.actions import (
    Action,
    ActionDatabase,
    TargetCriteria,
    action_db_from_dict,
    action_to_dict,
    criteria_match,
    load_action_db,
    scaled_action_profiles,
)
from attacksim.errors import ValidationFailure
from attacksim.model import Node
from attacksim.profiles import ProfileSchema, PropertySchema, load_profiles


def small_schema() -> ProfileSchema:
    return ProfileSchema([
        PropertySchema("Knowledge", "bounded-range", lower=0, upper=10),
        PropertySchema("Finances", "unbounded-range"),
    ])


def make_action(aid, knowledge=5, finances=10.0, **kw) -> Action:
    return Action(id=aid,
                  profile={"Knowledge": knowledge, "Finances": finances},
                  channels=frozenset({"net"}), **kw)


class TestCriteriaMatch:
    def test_requirement_satisfied(self):
        crit = TargetCriteria({"os": frozenset({"win"})})
        assert criteria_match(crit, Node("n", attributes={"os": "win",
                                                          "role": "hmi"}))

    def test_requirement_violated(self):
        crit = TargetCriteria({"os": frozenset({"linux"})})
        assert not criteria_match(crit, Node("n", attributes={"os": "win"}))

    def test_empty_criteria_matches_everything(self):
        assert criteria_match(TargetCriteria(), Node("n"))
        assert criteria_match(TargetCriteria(), Node("n", attributes={"a": "b"}))

    def test_missing_key_fails(self):
        crit = TargetCriteria({"os": frozenset({"win"})})
        assert not criteria_match(crit, Node("n"))

    def test_monotone_in_node_attributes(self):
        crit = TargetCriteria({"os": frozenset({"win"})})
        node = Node("n", attributes={"os": "win"})
        richer = Node("n", attributes={"os": "win", "extra": "x", "y": "z"})
        assert criteria_match(crit, node) and criteria_match(crit, richer)

    def test_matching_is_case_sensitive(self):
        crit = TargetCriteria({"os": frozenset({"win"})})
        assert not criteria_match(crit, Node("n", attributes={"os": "WIN"}))


class TestDatabaseValidation:
    def test_valid_database(self):
        db = ActionDatabase([make_action("A1"), make_action("A2")],
                            small_schema())
        assert db.validate() == []
        assert len(db) == 2

    def test_prerequisite_cycle_names_members(self):
        a = make_action("A", prerequisites=frozenset({"B"}))
        b = make_action("B", prerequisites=frozenset({"A"}))
        errs = ActionDatabase([a, b], small_schema()).validate()
        cycle_errs = [e for e in errs if "cycle" in e]
        assert cycle_errs and "A" in cycle_errs[0] and "B" in cycle_errs[0]

    def test_self_prerequisite_rejected(self):
        a = make_action("A", prerequisites=frozenset({"A"}))
        errs = ActionDatabase([a], small_schema()).validate()
        assert any("itself" in e for e in errs)

    def test_dangling_prerequisite_rejected(self):
        a = make_action("A", prerequisites=frozenset({"ghost"}))
        errs = ActionDatabase([a], small_schema()).validate()
        assert any("ghost" in e for e in errs)

    def test_profile_must_cover_schema(self):
        a = Action(id="A", profile={"Knowledge": 3},
                   channels=frozenset({"net"}))
        errs = ActionDatabase([a], small_schema()).validate()
        assert any("Finances" in e for e in errs)

    def test_success_probability_bounds(self):
        a = make_action("A", success_probability=1.5)
        errs = ActionDatabase([a], small_schema()).validate()
        assert any("success_probability" in e for e in errs)

    def test_unknown_effect_rejected(self):
        a = make_action("A", effect="explode")
        errs = ActionDatabase([a], small_schema()).validate()
        assert any("effect" in e for e in errs)

    def test_empty_database_rejected(self):
        errs = ActionDatabase([], small_schema()).validate()
        assert any("at least one action" in e for e in errs)


class TestLoadActionDb:
    def test_valid_file(self, tmp_path):
        doc = {"actions": [action_to_dict(make_action("A1")),
                           action_to_dict(make_action("A2")),
                           action_to_dict(make_action("A3"))]}
        path = tmp_path / "actions.json"
        path.write_text(json.dumps(doc))
        db = load_action_db(path, small_schema())
        assert len(db) == 3

    def test_cycle_error_collected_with_others(self, tmp_path):
        doc = {"actions": [
            action_to_dict(make_action("A", prerequisites=frozenset({"B"}))),
            action_to_dict(make_action("B", prerequisites=frozenset({"A"}))),
            {"id": "C", "profile": {"Knowledge": 99, "Finances": 1},
             "channels": ["net"]},
        ]}
        path = tmp_path / "actions.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationFailure) as exc:
            load_action_db(path, small_schema())
        text = str(exc.value)
        assert "cycle" in text
        assert "Knowledge" in text  # out-of-bounds value reported too

    def test_unknown_field_rejected(self):
        doc = {"actions": [dict(action_to_dict(make_action("A")),
                                severity="high")]}
        with pytest.raises(ValidationFailure, match="unknown keys"):
            action_db_from_dict(doc, small_schema())

    def test_fixture_loads(self, cstr_paths):
        schema = load_profiles(cstr_paths["profiles"]).schema
        db = load_action_db(cstr_paths["actions"], schema)
        assert len(db) == 6
        assert db.by_id["modbus-dos"].effect == "disrupt"


class TestScaledActionProfiles:
    def test_identical_profiles_scale_identically(self):
        db = ActionDatabase(
            [make_action("A1", 5, 7.0), make_action("A2", 5, 7.0)],
            small_schema())
        scaled = scaled_action_profiles(db)
        assert scaled["A1"] == scaled["A2"]

    def test_bounded_midpoint(self):
        db = ActionDatabase([make_action("A1", knowledge=5)], small_schema())
        assert scaled_action_profiles(db)["A1"][0] == 0.5

    def test_unbounded_scales_to_local_extremes(self):
        db = ActionDatabase(
            [make_action("A1", finances=1e3), make_action("A2", finances=1e6)],
            small_schema())
        scaled = scaled_action_profiles(db)
        assert scaled["A1"][1] == 0.0
        assert scaled["A2"][1] == 1.0

    def test_deterministic(self):
        db = ActionDatabase(
            [make_action("A1", 2, 5.0), make_action("A2", 9, -3.0)],
            small_schema())
        assert scaled_action_profiles(db) == scaled_action_profiles(db)

    def test_interior_action_leaves_others_untouched(self):
        base = [make_action("A1", finances=1.0), make_action("A2", finances=9.0)]
        db1 = ActionDatabase(base, small_schema())
        db2 = ActionDatabase(base + [make_action("A3", finances=4.0)],
                             small_schema())
        s1 = scaled_action_profiles(db1)
        s2 = scaled_action_profiles(db2)
        assert s1["A1"] == s2["A1"]
        assert s1["A2"] == s2["A2"]

    def test_scaling_error_names_action(self):
        db = ActionDatabase([make_action("A1", knowledge=42)], small_schema())
        with pytest.raises(ValueError, match="A1"):
            scaled_action_profiles(db)
