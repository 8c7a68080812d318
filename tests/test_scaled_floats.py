"""The slot scalers against a test-local copy of the scaling formulas.

The reference below scales value by value, re-deriving everything (the
label's index, the population's min and max) on every call, as the
per-kind rules read in profiles.py's module docstring. The scalers
precompute what does not depend on the value, so each scaled float must
still equal the reference's bit for bit, and each value that cannot be
scaled must raise the reference's ValueError, naming the same action.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.actions import (
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
    assert exact(scaled_action_profiles(db)) == exact(ref_profiles(db))
    attacker = {p.name: random_value(rng, p) for p in db.schema}
    ranges = db.attacker_ranges(AttackerProfile("a", attacker))
    pops = {name: [lo, hi] for name, (lo, hi) in ranges.items()}
    assert exact({"a": scale_profile(db.schema, attacker, ranges)}) == exact(
        {"a": ref_scale(db.schema, attacker, pops)})


def test_fixture_profiles_equal_reference_floats(cstr_paths):
    schema = load_profiles(cstr_paths["profiles"]).schema
    db = load_action_db(cstr_paths["actions"], schema)
    assert exact(scaled_action_profiles(db)) == exact(ref_profiles(db))


def test_empty_database_scales_to_nothing():
    schema = every_kind_schema(Random(5))
    assert scaled_action_profiles(ActionDatabase([], schema)) == {}


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
