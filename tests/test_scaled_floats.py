"""The slot scalers against a test-local copy of the scaling formulas.

The reference below scales value by value, re-deriving everything (the
label's index, the population's min and max) on every call, as the
per-kind rules read in profiles.py's module docstring. The scalers
precompute what does not depend on the value and scale a whole column at
once, so each scaled float must still equal the reference's bit for bit,
and each value that cannot be scaled must raise the reference's
ValueError, naming the same action; a NaN or an infinity in a bounded
column is one such value.
"""

from math import inf, nan
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.actions import (
    Action,
    ActionDatabase,
    load_action_db,
    scaled_action_profiles,
)
from attacksim.profiles import (
    BOUNDED_RANGE,
    KINDS,
    ORDERED_SET,
    UNBOUNDED_RANGE,
    UNORDERED_SET,
    AttackerProfile,
    ProfileSchema,
    PropertySchema,
    load_profiles,
    scale_profile,
)

from genrand import LABEL_POOL, random_db, random_schema, random_value


def ref_bounded(epsilon, lower, upper, name):
    if not lower < upper:
        raise ValueError(f"{name}: lower bound must be below upper bound")
    if not lower <= epsilon <= upper:
        raise ValueError(
            f"{name}: value {epsilon} outside bounds [{lower}, {upper}]")
    return (epsilon - lower) / (upper - lower)


def ref_unbounded(epsilon, population, name):
    if not population:
        raise ValueError(f"{name}: empty scaling population")
    lo = min(population)
    hi = max(population)
    if hi == lo:
        return 0.5
    return min(1.0, max(0.0, (epsilon - lo) / (hi - lo)))


def ref_ordered(label, allowed_values, name):
    if label not in allowed_values:
        raise ValueError(f"{name}: unknown label {label!r}")
    k = len(allowed_values)
    if k == 1:
        return 0.5
    return allowed_values.index(label) / (k - 1)


def ref_scale(schema, values, populations):
    out = []
    for prop in schema:
        val = values[prop.name]
        if prop.kind == UNORDERED_SET:
            out.append(val)
        elif prop.kind == ORDERED_SET:
            out.append(ref_ordered(val, prop.allowed_values or (), prop.name))
        elif prop.kind == BOUNDED_RANGE:
            out.append(ref_bounded(val, prop.lower, prop.upper, prop.name))
        else:
            out.append(ref_unbounded(val, populations.get(prop.name, ()),
                                     prop.name))
    return tuple(out)


def populations(db):
    """Every action's value of each unbounded property."""
    return {p.name: [float(a.profile[p.name]) for a in db.actions]
            for p in db.schema if p.kind == UNBOUNDED_RANGE}


def ref_profiles(db):
    pops = populations(db)
    out = {}
    for a in db.actions:
        try:
            out[a.id] = ref_scale(db.schema, a.profile, pops)
        except ValueError as exc:
            raise ValueError(f"action {a.id!r}: {exc}") from exc
    return out


def rows(db):
    """`scaled_action_profiles`' columns as rows by action id, the
    reference's layout."""
    columns = scaled_action_profiles(db)
    return {a.id: tuple(col[i] for col in columns)
            for i, a in enumerate(db.actions)}


def exact(profiles):
    """Floats as hex, so -0.0 and 0.0 differ; labels as they are."""
    return {aid: tuple(v.hex() if isinstance(v, float) else v for v in p)
            for aid, p in profiles.items()}


def every_kind_schema(rng):
    """One property of each kind, then genrand's random ones, shuffled."""
    props = [PropertySchema(
        name=f"k{i}", kind=kind,
        allowed_values=tuple(LABEL_POOL[:rng.randint(1, 3)])
        if kind.endswith("set") else None,
        lower=-5.0 if kind == BOUNDED_RANGE else None,
        upper=rng.choice((5.0, 7.5)) if kind == BOUNDED_RANGE else None,
        criticality=rng.choice((1.0, 0.5)))
        for i, kind in enumerate(KINDS)]
    props += random_schema(rng).properties
    rng.shuffle(props)
    return ProfileSchema(props)


def random_every_kind_db(seed):
    rng = Random(seed)
    schema = every_kind_schema(rng)
    db = random_db(rng, schema, max_actions=30)
    if rng.random() < 0.2:  # a spread-free unbounded population: midpoint
        value = random_value(rng, schema.by_name["k3"])
        db = ActionDatabase([a._replace(profile={**a.profile, "k3": value})
                             for a in db.actions], schema)
    return rng, db


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_profiles_equal_reference_floats(seed):
    rng, db = random_every_kind_db(seed)
    assert exact(rows(db)) == exact(ref_profiles(db))
    attacker = {p.name: random_value(rng, p) for p in db.schema}
    ranges = db.attacker_ranges(AttackerProfile("a", attacker))
    pops = {name: [lo, hi] for name, (lo, hi) in ranges.items()}
    assert exact({"a": scale_profile(db.schema, attacker, ranges)}) == exact(
        {"a": ref_scale(db.schema, attacker, pops)})


def test_fixture_profiles_equal_reference_floats(cstr_paths):
    schema = load_profiles(cstr_paths["profiles"]).schema
    db = load_action_db(cstr_paths["actions"], schema)
    assert exact(rows(db)) == exact(ref_profiles(db))


def test_empty_database_scales_to_nothing():
    schema = every_kind_schema(Random(5))
    assert scaled_action_profiles(ActionDatabase([], schema)) == [
        [] for _ in schema]


def unscalable(rng, prop):
    """A value of `prop` that cannot be scaled: out of its bounds, or a
    label it does not list."""
    if prop.kind == BOUNDED_RANGE:
        return rng.choice((prop.lower - 1.0, prop.upper + 0.5))
    return "zz"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), bad=st.integers(1, 3))
def test_unscalable_value_names_the_reference_action(seed, bad):
    """One to three values that cannot be scaled, each in a random action
    and a random bounded or ordered slot; the error is the reference's,
    which names the first such action in id order and its first bad
    slot."""
    rng, db = random_every_kind_db(seed)
    slots = [p for p in db.schema if p.kind in (BOUNDED_RANGE, ORDERED_SET)]
    actions = list(db.actions)
    for _ in range(bad):
        i = rng.randrange(len(actions))
        prop = rng.choice(slots)
        actions[i] = actions[i]._replace(profile={
            **actions[i].profile, prop.name: unscalable(rng, prop)})
    db = ActionDatabase(actions, db.schema)
    with pytest.raises(ValueError) as want:
        ref_profiles(db)
    with pytest.raises(ValueError) as got:
        scaled_action_profiles(db)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("action ")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), value=st.sampled_from((nan, inf, -inf)),
       bad=st.integers(1, 3))
def test_non_finite_bounded_value_names_the_reference_action(seed, value,
                                                             bad):
    """NaN, +inf or -inf in one to three random actions' random bounded
    slots: the reference rejects each as outside the bounds, so the
    scalers must raise its error, naming its action and slot. min and max
    skip a NaN that is not first in a column, so a column check made of
    them alone would scale it."""
    rng, db = random_every_kind_db(seed)
    slots = [p for p in db.schema if p.kind == BOUNDED_RANGE]
    actions = list(db.actions)
    for _ in range(bad):
        i = rng.randrange(len(actions))
        actions[i] = actions[i]._replace(profile={
            **actions[i].profile, rng.choice(slots).name: value})
    db = ActionDatabase(actions, db.schema)
    with pytest.raises(ValueError) as want:
        ref_profiles(db)
    with pytest.raises(ValueError) as got:
        scaled_action_profiles(db)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("action ")


@pytest.mark.parametrize("value", [nan, inf, -inf])
def test_non_finite_value_after_the_first_action_is_rejected(value):
    """The value sits in the middle of its column, where min and max do
    not see a NaN."""
    schema = ProfileSchema([PropertySchema("b", BOUNDED_RANGE, lower=0.0,
                                           upper=10.0)])
    db = ActionDatabase([Action(f"A{i}", profile={"b": v}) for i, v
                         in enumerate((5.0, 2.0, value, 7.0))], schema)
    with pytest.raises(ValueError) as want:
        ref_profiles(db)
    with pytest.raises(ValueError) as got:
        scaled_action_profiles(db)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("action 'A2': b: value ")


# a profile built in code may fill in a slot it lacks when that slot is
# read; the scalers must name the missing slot and leave the profile as
# it was

SLOTS = ProfileSchema([
    PropertySchema("Access", UNORDERED_SET, allowed_values=("Direct",)),
    PropertySchema("Tools", ORDERED_SET, allowed_values=("Low", "High")),
    PropertySchema("Knowledge", BOUNDED_RANGE, lower=0.0, upper=10.0),
])
VALUES = {"Access": "Direct", "Tools": "High", "Knowledge": 4.0}


def defaultdict_db(name, broken=None):
    """Three actions; A1's profile a defaultdict(float) without `name`,
    and each of `broken`'s actions given its (slot, value)."""
    from collections import defaultdict

    profiles = [dict(VALUES) for _ in range(3)]
    profiles[1] = defaultdict(
        float, {k: v for k, v in VALUES.items() if k != name})
    for i, (slot, value) in (broken or {}).items():
        profiles[i][slot] = value
    return ActionDatabase([Action(f"A{i}", profile=p)
                           for i, p in enumerate(profiles)], SLOTS)


@pytest.mark.parametrize("name", ["Knowledge", "Tools"])
def test_defaultdict_profile_without_a_slot_is_not_changed(name):
    # Knowledge is bounded, where a filled-in 0.0 would scale; Tools is
    # ordered, where it would be an unknown label
    db = defaultdict_db(name)
    with pytest.raises(ValueError) as got:
        scaled_action_profiles(db)
    assert str(got.value) == f"action 'A1': missing property {name!r}"
    assert name not in db.actions[1].profile
    assert db.validate() == [f"action 'A1': missing property {name!r}"]


@pytest.mark.parametrize("name", ["Knowledge", "Tools"])
def test_first_action_that_does_not_scale_is_named(name):
    # a later action's bad value sends the scalers to the per-action
    # path, which names A1's missing slot and still reads none
    db = defaultdict_db(name, {2: ("Knowledge", 42.0)})
    with pytest.raises(ValueError) as got:
        scaled_action_profiles(db)
    assert str(got.value) == f"action 'A1': missing property {name!r}"
    assert name not in db.actions[1].profile
    # an earlier action's bad value is named first
    db = defaultdict_db(name, {0: ("Tools", "zz")})
    with pytest.raises(ValueError, match="^action 'A0': Tools: unknown label"):
        scaled_action_profiles(db)
    assert name not in db.actions[1].profile


def test_plain_dict_without_a_slot_names_it():
    db = ActionDatabase([Action("A0", profile=dict(VALUES)),
                         Action("A1", profile={"Access": "Direct",
                                               "Tools": "Low"})], SLOTS)
    with pytest.raises(ValueError,
                       match="^action 'A1': missing property 'Knowledge'$"):
        scaled_action_profiles(db)
