"""One object per distinct value in a loaded action database.

`actions.action_from_dict` returns the load's own object for a channel
set, a prerequisite set or a target criteria equal to one already built
from the same document. These tests pin that sharing on the benchmark's
wide instance (2000 actions, a few distinct values), that it stays within
one load, and that nothing downstream sees it: a database built in code
without sharing gives the same per-node actions, and a pickled context
keeps it.
"""

import importlib.util
import pickle
from collections import defaultdict
from pathlib import Path

import pytest

from attacksim.actions import (
    Action,
    ActionDatabase,
    TargetCriteria,
    action_db_from_dict,
    action_from_dict,
    load_action_db,
)
from attacksim.engine import DecisionContext
from attacksim.model import load_system
from attacksim.profiles import ProfileSchema, PropertySchema, load_profiles

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The paths of perfbench's wide-4x2000 instance, written once."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances.write_instance(instances.generate("wide", 0),
                                    tmp_path_factory.mktemp("wide"))


@pytest.fixture(scope="module")
def schema(wide):
    return load_profiles(wide["profiles"]).schema


def objects_per_value(values, key=lambda v: v):
    """For each distinct value, the ids of the objects that hold it."""
    ids = defaultdict(set)
    for v in values:
        ids[key(v)].add(id(v))
    return ids


def test_one_load_keeps_one_object_per_value(wide, schema):
    db = load_action_db(wide["actions"], schema)
    channels = objects_per_value(a.channels for a in db.actions)
    criteria = objects_per_value(
        (a.target_criteria for a in db.actions),
        key=lambda c: tuple(c.requirements.items()))
    prerequisites = {id(a.prerequisites) for a in db.actions}
    assert len(db) == 2000
    assert 1 < len(channels) < 20 and 1 < len(criteria) < 20
    assert all(len(ids) == 1 for ids in channels.values())
    assert all(len(ids) == 1 for ids in criteria.values())
    assert len(prerequisites) == 1
    assert db.actions[0].prerequisites == frozenset()
    assert all(type(a.target_criteria) is TargetCriteria for a in db.actions)


def test_two_loads_share_no_channel_set_or_criteria(wide, schema):
    first = load_action_db(wide["actions"], schema)
    second = load_action_db(wide["actions"], schema)
    assert first.actions == second.actions
    for a, b in zip(first.actions, second.actions):
        assert a.channels is not b.channels
        assert a.target_criteria is not b.target_criteria


SCHEMA = ProfileSchema([PropertySchema("Access", "unordered-set",
                                       allowed_values=("Direct",))])


def entry(aid, **fields):
    return {"id": aid, "profile": {"Access": "Direct"}, **fields}


def test_lists_in_any_order_share_one_set():
    db = action_db_from_dict({"actions": [
        entry("A0", channels=["lan", "usb"], prerequisites=["A3"]),
        entry("A1", channels=["usb", "lan", "usb"]),
        entry("A2", channels=["usb"], prerequisites=["A3", "A3"]),
        entry("A3", channels=[]),
        entry("A4", prerequisites=[])]}, SCHEMA)
    a0, a1, a2, a3, a4 = db.actions
    assert a0.channels is a1.channels == frozenset({"lan", "usb"})
    assert a0.prerequisites is a2.prerequisites == frozenset({"A3"})
    assert a3.channels is a3.prerequisites is a4.prerequisites
    assert a3.channels == frozenset()


def test_criteria_in_another_order_stay_distinct():
    db = action_db_from_dict({"actions": [
        entry("A0", target_criteria={"os": "linux", "zone": ["dmz"]}),
        entry("A1", target_criteria={"zone": "dmz", "os": ["linux"]}),
        entry("A2", target_criteria={"os": ["linux"], "zone": "dmz"}),
        entry("A3"),
        entry("A4", target_criteria={})]}, SCHEMA)
    a0, a1, a2, a3, a4 = (a.target_criteria for a in db.actions)
    assert a0 is a2 and a0 is not a1 and a0 == a1
    assert list(a0.requirements) == ["os", "zone"]
    assert list(a1.requirements) == ["zone", "os"]
    assert a3 is a4 and a3.requirements == {}


def test_no_table_means_a_fresh_one():
    ad = entry("A0", channels=["lan"], target_criteria={"os": "linux"})
    first, second = (action_from_dict(ad, [], 0) for _ in range(2))
    assert first == second
    assert first.channels is not second.channels
    assert first.target_criteria is not second.target_criteria


class CountingItems(dict):
    """Requirements that count their `items` calls."""

    calls = 0

    def items(self):
        CountingItems.calls += 1
        return super().items()


def test_context_keys_each_criteria_object_once(wide, schema):
    # the key is built once for the one object all 2000 actions share;
    # criteria_match then reads it once per node
    system = load_system(wide["system"])
    db = load_action_db(wide["actions"], schema)
    criteria = TargetCriteria(CountingItems(os=frozenset({"linux"})))
    one = ActionDatabase([a._replace(target_criteria=criteria)
                          for a in db.actions], db.schema)
    CountingItems.calls = 0
    DecisionContext(system, one)
    assert CountingItems.calls == 1 + len(system.nodes)


def unshared(a: Action) -> Action:
    """The action with a copy of each value the loader shares."""
    return a._replace(
        channels=frozenset(list(a.channels)),
        prerequisites=frozenset(list(a.prerequisites)),
        target_criteria=TargetCriteria(
            {k: frozenset(list(v))
             for k, v in a.target_criteria.requirements.items()}))


def test_context_is_the_same_without_sharing(wide, schema):
    system = load_system(wide["system"])
    db = load_action_db(wide["actions"], schema)
    copied = ActionDatabase(map(unshared, db.actions), db.schema)
    assert len({id(a.target_criteria) for a in copied.actions}) == 2000
    shared_ctx = DecisionContext(system, db)
    copied_ctx = DecisionContext(system, copied)
    assert copied_ctx.actions_for == shared_ctx.actions_for
    assert copied_ctx.action_mask == shared_ctx.action_mask
    assert any(shared_ctx.actions_for.values())


def test_pickled_context_keeps_the_sharing(wide, schema):
    db = load_action_db(wide["actions"], schema)
    ctx = pickle.loads(pickle.dumps(DecisionContext(
        load_system(wide["system"]), db)))
    actions = ctx.db.actions
    assert actions == db.actions
    for field in ("channels", "target_criteria", "prerequisites"):
        assert (len({id(getattr(a, field)) for a in actions})
                == len({id(getattr(a, field)) for a in db.actions}))
