import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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


CHAIN = [f"A{i:04d}" for i in range(5000)]
# each graph maps an action id to its prerequisites: a string of one-letter
# ids, or a list
CYCLE_CASES = {
    "diamond": ({"A": "BC", "B": "D", "C": "D", "D": ""}, []),
    "two disjoint cycles": (
        {"A": "B", "B": "A", "C": "D", "D": "E", "E": "C"},
        ["prerequisite cycle: A -> B -> A",
         "prerequisite cycle: C -> D -> E -> C"]),
    "cycle reached from an acyclic action": (
        {"A": "B", "B": "C", "C": "D", "D": "B"},
        ["prerequisite cycle: B -> C -> D -> B"]),
    "two cycles through one action": (
        {"A": "BC", "B": "A", "C": "A"},
        ["prerequisite cycle: A -> B -> A",
         "prerequisite cycle: A -> C -> A"]),
    "two cycles sharing the middle action": (
        {"A": "B", "B": "AC", "C": "B"},
        ["prerequisite cycle: A -> B -> A",
         "prerequisite cycle: B -> C -> B"]),
    "unknown prerequisite on a cycle": (
        {"A": ["B", "ghost"], "B": "A"},
        ["action 'A': unknown prerequisite 'ghost'",
         "prerequisite cycle: A -> B -> A"]),
    "self-reference": (
        {"A": "A"}, ["action 'A' lists itself as a prerequisite"]),
    "self-reference on a cycle": (
        {"A": "AB", "B": "A"},
        ["action 'A' lists itself as a prerequisite",
         "prerequisite cycle: A -> B -> A"]),
    "5000-action chain": (
        {a: CHAIN[i + 1:i + 2] for i, a in enumerate(CHAIN)}, []),
    "5000-action ring": (
        {a: [CHAIN[(i + 1) % len(CHAIN)]] for i, a in enumerate(CHAIN)},
        ["prerequisite cycle: " + " -> ".join(CHAIN + CHAIN[:1])]),
}


def prerequisite_db(graph) -> ActionDatabase:
    return ActionDatabase([make_action(a, prerequisites=frozenset(pres))
                           for a, pres in graph.items()], small_schema())


@st.composite
def prerequisite_graphs(draw):
    ids = [f"a{i}" for i in range(draw(st.integers(1, 8)))]
    pres = st.frozensets(st.sampled_from(ids + ["ghost"]), max_size=4)
    return {a: draw(pres) for a in ids}


def kahn_cyclic(graph) -> set[str]:
    """The actions Kahn's algorithm cannot order, over the edges from an
    action to each of its known prerequisites other than itself: every
    action on a cycle, and every prerequisite, direct or not, of one."""
    edges = {a: {p for p in pres if p in graph and p != a}
             for a, pres in graph.items()}
    indegree = {a: 0 for a in graph}
    for pres in edges.values():
        for p in pres:
            indegree[p] += 1
    ready = [a for a, d in indegree.items() if d == 0]
    left = set(graph)
    while ready:
        a = ready.pop()
        left.discard(a)
        for p in edges[a]:
            indegree[p] -= 1
            if indegree[p] == 0:
                ready.append(p)
    return left


class TestPrerequisiteCycles:
    @pytest.mark.parametrize("graph, expected", CYCLE_CASES.values(),
                             ids=CYCLE_CASES.keys())
    def test_validate_lists(self, graph, expected):
        assert prerequisite_db(graph).validate() == expected

    @settings(max_examples=300, deadline=None)
    @given(graph=prerequisite_graphs())
    def test_cycles_match_kahn(self, graph):
        cycles = [e.removeprefix("prerequisite cycle: ").split(" -> ")
                  for e in prerequisite_db(graph).validate()
                  if e.startswith("prerequisite cycle: ")]
        left = kahn_cyclic(graph)
        assert bool(cycles) == bool(left)
        for cycle in cycles:
            assert cycle[0] == cycle[-1] and len(cycle) >= 3
            assert set(cycle) <= left
            for a, pre in zip(cycle, cycle[1:]):
                assert a != pre and pre in graph[a]


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
