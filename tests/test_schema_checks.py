"""Exact messages of the profile and action-database checks.

The expected lists were recorded from the checks as they stood before
`validate_profile` read its schema's check table, so they pin every
message and its order. `reference_validate_profile` is that earlier
function, kept here as the oracle for generated schemas, with the one
rule added since, the non-finite numbers, appended after its problems.
"""

from math import inf, isfinite, nan
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.actions import action_db_from_dict
from attacksim.errors import ValidationFailure, container, string_list
from attacksim.profiles import (
    BOUNDED_RANGE,
    KINDS,
    ORDERED_SET,
    UNBOUNDED_RANGE,
    UNORDERED_SET,
    ProfileSchema,
    PropertySchema,
    validate_profile,
)


def reference_validate_profile(schema, values, owner="profile"):
    """`validate_profile` before the check table: every property's kind
    and bounds are read from the schema on each call."""
    v = []
    missing = set(schema.names) - set(values)
    extra = set(values) - set(schema.names)
    for name in sorted(missing):
        v.append(f"{owner}: missing property {name!r}")
    for name in sorted(extra):
        v.append(f"{owner}: unknown property {name!r}")
    for prop in schema:
        if prop.name not in values:
            continue
        val = values[prop.name]
        if prop.kind in (UNORDERED_SET, ORDERED_SET):
            if not isinstance(val, str):
                v.append(f"{owner}: property {prop.name!r} needs a label")
            elif val not in (prop.allowed_values or ()):
                v.append(f"{owner}: property {prop.name!r} has unknown "
                         f"label {val!r}")
        else:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                v.append(f"{owner}: property {prop.name!r} needs a number")
            elif (prop.kind == BOUNDED_RANGE and prop.lower is not None
                  and prop.upper is not None
                  and not prop.lower <= val <= prop.upper):
                v.append(f"{owner}: property {prop.name!r} value {val} "
                         f"outside bounds [{prop.lower}, {prop.upper}]")
    # a number that passed the checks above but no scaling can use: NaN,
    # an infinity or an int past the float range
    for prop in schema:
        val = values.get(prop.name)
        if (prop.kind not in (UNORDERED_SET, ORDERED_SET)
                and isinstance(val, (int, float))
                and not isinstance(val, bool)
                and (prop.kind != BOUNDED_RANGE or prop.lower is None
                     or prop.upper is None
                     or prop.lower <= val <= prop.upper)
                and not _finite(val)):
            v.append(f"{owner}: property {prop.name!r} must be a finite "
                     "number")
    return v


def _finite(val):
    try:
        return isfinite(val)
    except OverflowError:
        return False


# every kind; the bounds mix an int and a float so both spellings show
FULL = ProfileSchema([
    PropertySchema("Access", UNORDERED_SET, allowed_values=("Direct",
                                                             "Wireless")),
    PropertySchema("Tools", ORDERED_SET, allowed_values=("Low", "Medium",
                                                          "High")),
    PropertySchema("Knowledge", BOUNDED_RANGE, lower=0, upper=10.0),
    PropertySchema("Finances", "unbounded-range"),
])
GOOD = {"Access": "Direct", "Tools": "Low", "Knowledge": 5, "Finances": 1.5}
NO_LABELS = ProfileSchema([PropertySchema("S", ORDERED_SET),
                           PropertySchema("U", UNORDERED_SET,
                                          allowed_values=())])
ONE_BOUND = ProfileSchema([PropertySchema("B", BOUNDED_RANGE, lower=0.0),
                           PropertySchema("C", BOUNDED_RANGE, upper=1.0)])
TWICE = ProfileSchema([
    PropertySchema("K", BOUNDED_RANGE, lower=0, upper=10),
    PropertySchema("K", BOUNDED_RANGE, lower=0, upper=5),
    PropertySchema("L", ORDERED_SET, allowed_values=("a",)),
])
OTHER_KIND = ProfileSchema([PropertySchema("X", "no-such-kind",
                                           allowed_values=("a",),
                                           lower=0.0, upper=1.0)])
# a number slot before a label slot
NUMBER_FIRST = ProfileSchema([
    PropertySchema("F", UNBOUNDED_RANGE),
    PropertySchema("T", ORDERED_SET, allowed_values=("a",)),
])


_DROP = object()


def _with(**changes):
    """GOOD with each named value replaced, or dropped if it is _DROP."""
    values = dict(GOOD)
    for key, value in changes.items():
        if value is _DROP:
            del values[key]
        else:
            values[key] = value
    return values

PROFILE_CASES = {
    "valid": (FULL, GOOD, []),
    "bounds-inclusive": (FULL, _with(Knowledge=0.0), []),
    "upper-bound-inclusive": (FULL, _with(Knowledge=10, Finances=-1e300), []),
    "infinite-unbounded": (
        FULL, _with(Finances=inf),
        ["p: property 'Finances' must be a finite number"]),
    "minus-infinite-unbounded": (
        FULL, _with(Finances=-inf),
        ["p: property 'Finances' must be a finite number"]),
    "nan-unbounded": (
        FULL, _with(Finances=nan),
        ["p: property 'Finances' must be a finite number"]),
    "int-beyond-float-unbounded": (
        FULL, _with(Finances=10**400),
        ["p: property 'Finances' must be a finite number"]),
    "bounds-then-finite": (
        FULL, _with(Knowledge=11, Finances=inf),
        ["p: property 'Knowledge' value 11 outside bounds [0, 10.0]",
         "p: property 'Finances' must be a finite number"]),
    "finite-problems-come-last": (
        NUMBER_FIRST, {"F": nan, "T": "b"},
        ["p: property 'T' has unknown label 'b'",
         "p: property 'F' must be a finite number"]),
    "missing-and-extra": (
        FULL, {"Access": "Direct", "Knowledge": 5, "Zeta": 1, "Extra": "x"},
        ["p: missing property 'Finances'", "p: missing property 'Tools'",
         "p: unknown property 'Extra'", "p: unknown property 'Zeta'"]),
    "empty": (
        FULL, {},
        ["p: missing property 'Access'", "p: missing property 'Finances'",
         "p: missing property 'Knowledge'", "p: missing property 'Tools'"]),
    "extra-only-in-proxy": (
        FULL, MappingProxyType(_with(Extra=1)),
        ["p: unknown property 'Extra'"]),
    "bool-in-number-slot": (
        FULL, _with(Knowledge=True, Finances=False),
        ["p: property 'Knowledge' needs a number",
         "p: property 'Finances' needs a number"]),
    "none-in-number-slot": (
        FULL, _with(Finances=None),
        ["p: property 'Finances' needs a number"]),
    "string-in-number-slot": (
        FULL, _with(Knowledge="5", Finances=""),
        ["p: property 'Knowledge' needs a number",
         "p: property 'Finances' needs a number"]),
    "number-in-label-slot": (
        FULL, _with(Access=1, Tools=2.0),
        ["p: property 'Access' needs a label",
         "p: property 'Tools' needs a label"]),
    "none-and-bool-in-label-slot": (
        FULL, _with(Access=None, Tools=True),
        ["p: property 'Access' needs a label",
         "p: property 'Tools' needs a label"]),
    "unknown-label": (
        FULL, _with(Access="Low", Tools="Extreme"),
        ["p: property 'Access' has unknown label 'Low'",
         "p: property 'Tools' has unknown label 'Extreme'"]),
    "int-below": (
        FULL, _with(Knowledge=-1),
        ["p: property 'Knowledge' value -1 outside bounds [0, 10.0]"]),
    "int-above": (
        FULL, _with(Knowledge=11),
        ["p: property 'Knowledge' value 11 outside bounds [0, 10.0]"]),
    "float-below": (
        FULL, _with(Knowledge=-0.5),
        ["p: property 'Knowledge' value -0.5 outside bounds [0, 10.0]"]),
    "float-above": (
        FULL, _with(Knowledge=10.000001),
        ["p: property 'Knowledge' value 10.000001 outside bounds "
         "[0, 10.0]"]),
    "nan-in-bounded-slot": (
        FULL, _with(Knowledge=nan),
        ["p: property 'Knowledge' value nan outside bounds [0, 10.0]"]),
    "everything-at-once": (
        FULL, {"Tools": 3, "Knowledge": -inf, "Finances": "x", "Q": 0},
        ["p: missing property 'Access'", "p: unknown property 'Q'",
         "p: property 'Tools' needs a label",
         "p: property 'Knowledge' value -inf outside bounds [0, 10.0]",
         "p: property 'Finances' needs a number"]),
    "set-kind-without-allowed-values": (
        NO_LABELS, {"S": "a", "U": "b"},
        ["p: property 'S' has unknown label 'a'",
         "p: property 'U' has unknown label 'b'"]),
    "set-kind-without-allowed-values-number": (
        NO_LABELS, {"S": 1, "U": 0.5},
        ["p: property 'S' needs a label", "p: property 'U' needs a label"]),
    "bounded-range-missing-a-bound": (
        ONE_BOUND, {"B": -100, "C": 100.0}, []),
    "bounded-range-missing-a-bound-label": (
        ONE_BOUND, {"B": "x", "C": None},
        ["p: property 'B' needs a number", "p: property 'C' needs a number"]),
    "duplicate-names-in-bounds": (TWICE, {"K": 5, "L": "a"}, []),
    "duplicate-names-second-bounds": (
        TWICE, {"K": 7, "L": "a"},
        ["p: property 'K' value 7 outside bounds [0, 5]"]),
    "duplicate-names-both-rows": (
        TWICE, {"K": "x", "L": "b"},
        ["p: property 'K' needs a number", "p: property 'K' needs a number",
         "p: property 'L' has unknown label 'b'"]),
    "duplicate-names-missing": (
        TWICE, {}, ["p: missing property 'K'", "p: missing property 'L'"]),
    "unknown-kind-reads-a-number": (
        OTHER_KIND, {"X": "a"}, ["p: property 'X' needs a number"]),
    "unknown-kind-has-no-bounds": (OTHER_KIND, {"X": 5}, []),
    "unknown-kind-infinite": (
        OTHER_KIND, {"X": inf}, ["p: property 'X' must be a finite number"]),
}


class TestValidateProfile:
    @pytest.mark.parametrize("schema, values, expected",
                             PROFILE_CASES.values(), ids=PROFILE_CASES.keys())
    def test_messages(self, schema, values, expected):
        assert validate_profile(schema, values, owner="p") == expected
        assert reference_validate_profile(schema, values,
                                          owner="p") == expected

    def test_owner_is_not_formatted(self):
        assert validate_profile(FULL, _with(Tools="x"),
                                owner="action 'A{0}{x}'") == [
            "action 'A{0}{x}': property 'Tools' has unknown label 'x'"]

    def test_default_owner(self):
        assert validate_profile(FULL, _with(Access=_DROP)) == [
            "profile: missing property 'Access'"]


NAMES = st.sampled_from(["a", "b", "c", "d"])
LABELS = st.sampled_from(["x", "y", "z"])
BOUNDS = st.none() | st.integers(-3, 3) | st.floats(-3, 3) | st.just(nan)


@st.composite
def properties(draw):
    kind = draw(st.sampled_from(KINDS + ("other",)))
    labels = draw(st.none() | st.lists(LABELS, max_size=3).map(tuple))
    return PropertySchema(draw(NAMES), kind, allowed_values=labels,
                          lower=draw(BOUNDS), upper=draw(BOUNDS))


VALUES = (LABELS | st.text(max_size=2) | st.integers(-5, 5)
          | st.floats(allow_nan=True, allow_infinity=True) | st.booleans()
          | st.none())
NON_FINITE = st.sampled_from([nan, inf, -inf, 10**400])


@st.composite
def schemas_and_values(draw):
    """A schema, then a profile that starts from one value per property
    and is corrupted: keys dropped, keys added, values replaced."""
    schema = ProfileSchema(draw(st.lists(properties(), max_size=5)))
    values = {}
    for prop in schema:
        if prop.allowed_values and draw(st.booleans()):
            values[prop.name] = draw(st.sampled_from(prop.allowed_values))
        elif prop.kind == BOUNDED_RANGE and draw(st.booleans()):
            values[prop.name] = draw(st.floats(-4, 4) | st.integers(-4, 4))
        # every number kind, unbounded-range and unknown kinds above all,
        # takes a non-finite number on purpose, not only by chance
        elif prop.kind not in (UNORDERED_SET, ORDERED_SET) and draw(
                st.booleans()):
            values[prop.name] = draw(NON_FINITE)
        else:
            values[prop.name] = draw(VALUES)
    for name in draw(st.lists(st.sampled_from(sorted(values) or ["a"]),
                              max_size=2)):
        values.pop(name, None)
    values.update(draw(st.dictionaries(NAMES | st.just("e"), VALUES,
                                       max_size=2)))
    return schema, values


class TestValidateProfileMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(case=schemas_and_values())
    def test_same_messages(self, case):
        schema, values = case
        assert (validate_profile(schema, values, owner="o")
                == reference_validate_profile(schema, values, owner="o"))


class TestLazyOwner:
    def test_args_are_formatted_into_the_owner(self):
        errors = []
        assert container("x", dict, "{}: {}", errors, "a {0}", "b") == {}
        assert string_list("x", "{}: c {!r}", errors, "a {}", "k") == []
        assert container([], list, "{}", errors, "unused") == []
        assert string_list(["x"], "{}", errors, "unused") == ["x"]
        assert errors == ["a {0}: b must be an object",
                          "a {}: c 'k' must be a list of strings"]

    def test_owner_without_args_is_not_formatted(self):
        errors = []
        container(5, list, "entry 'x{0}'", errors)
        string_list([1], "entry 'x{}'", errors)
        assert errors == ["entry 'x{0}' must be a list",
                          "entry 'x{}' must be a list of strings"]


ACTION_SCHEMA = FULL

ACTION_DOC = {"actions": [
    # an id with braces, channels as a string, a value out of bounds
    {"id": "A{0}{x}", "profile": _with(Knowledge=11), "channels": "net",
     "references": "cve", "prerequisites": ["{}"]},
    # missing, extra and unknown-label values, a NaN value, a bad
    # criteria value and a bad reference
    {"id": "B", "profile": {"Access": "Nowhere", "Knowledge": nan,
                            "Finances": 2, "Extra": 1},
     "target_criteria": {"os": 5, "role": ["hmi", 7], "zone": "dmz"},
     "references": ["ok", 3]},
    # an unknown key, a self prerequisite and a dangling prerequisite
    {"id": "C", "profile": GOOD, "bogus": 1, "prerequisites": ["C", "Z"]},
    # a duplicate id, a bad effect and a bad success probability
    {"id": "C", "profile": GOOD, "effect": "explode",
     "success_probability": 1.5},
    # entries that are not objects, or have no string id
    "not an object",
    ["A{0}{x}"],
    {"name": "no id"},
    {"id": 7, "profile": GOOD},
    # containers of the wrong type, wrong scalar types
    {"id": "D{}", "profile": "bad", "target_criteria": ["x"], "name": 5,
     "description": None, "effect": 1, "channels": [1],
     "success_probability": "high"},
    {"id": "E", "profile": _with(Finances=inf, Tools=nan),
     "prerequisites": "A{0}{x}", "success_probability": nan},
]}

# recorded from action_db_from_dict before the check table
ACTION_ERRORS = [
    "action 'A{0}{x}': references must be a list of strings",
    "action 'A{0}{x}': channels must be a list of strings",
    "action 'B': target_criteria 'os' must be a list of strings",
    "action 'B': target_criteria 'role' must be a list of strings",
    "action 'B': property 'Knowledge' must be a finite number",
    "action 'B': references must be a list of strings",
    "action 'C' has unknown keys: bogus",
    "action #4 must be an object with a string 'id'",
    "action #5 must be an object with a string 'id'",
    "action #6 must be an object with a string 'id'",
    "action #7 must be an object with a string 'id'",
    "action 'D{}': target_criteria must be an object",
    "action 'D{}': profile must be an object",
    "action 'D{}': name must be a string",
    "action 'D{}': description must be a string",
    "action 'D{}': channels must be a list of strings",
    "action 'D{}': success_probability must be a finite number",
    "action 'D{}': effect must be a string",
    "action 'E': property 'Tools' must be a finite number",
    "action 'E': property 'Finances' must be a finite number",
    "action 'E': prerequisites must be a list of strings",
    "action 'E': success_probability must be a finite number",
    # an int profile value is read as a float before the bounds check
    "action 'A{0}{x}': property 'Knowledge' value 11.0 outside bounds "
    "[0, 10.0]",
    "action 'A{0}{x}': unknown prerequisite '{}'",
    "action 'B': missing property 'Tools'",
    "action 'B': unknown property 'Extra'",
    "action 'B': property 'Access' has unknown label 'Nowhere'",
    "action 'C' lists itself as a prerequisite",
    "action 'C': unknown prerequisite 'Z'",
    "duplicate action id 'C'",
    "action 'C': success_probability must be in [0, 1]",
    "action 'C': unknown effect 'explode'",
    "action 'D{}': missing property 'Access'",
    "action 'D{}': missing property 'Finances'",
    "action 'D{}': missing property 'Knowledge'",
    "action 'D{}': missing property 'Tools'",
    "action 'D{}': unknown effect ''",
    "action 'E': property 'Tools' needs a label",
]


class TestActionDatabaseMessages:
    def test_every_message_in_order(self):
        with pytest.raises(ValidationFailure) as info:
            action_db_from_dict(ACTION_DOC, ACTION_SCHEMA)
        assert info.value.errors == ACTION_ERRORS

    def test_valid_actions_keep_their_values(self):
        doc = {"actions": [{"id": "A{0}{x}", "profile": _with(Finances=7),
                            "channels": ["net"], "references": ["r{}"],
                            "target_criteria": {"os": "win"},
                            "success_probability": 1}]}
        db = action_db_from_dict(doc, ACTION_SCHEMA)
        a = db.by_id["A{0}{x}"]
        assert a.profile == _with(Finances=7.0)
        assert type(a.profile["Finances"]) is float
        assert type(a.profile["Knowledge"]) is float
        assert a.references == ("r{}",)
        assert a.target_criteria.requirements == {"os": frozenset({"win"})}
        assert a.channels == frozenset({"net"})
        assert a.success_probability == 1.0
        assert type(a.success_probability) is float
