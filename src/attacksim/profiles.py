"""Attacker and action profile schemas, property scaling, and probabilistic
profile selection.

A profile is a point in an n-dimensional property space. Properties come in
four kinds and each kind has its own rule for mapping raw values into the
[0, 1] scale used by the distance computation:

* bounded-range: linear map between the declared bounds.
* unbounded-range: linear map between the min/max observed across the
  action database (extended with the attacker's own value when scaling
  an attacker), clamped to [0, 1].
* ordered-set: label index mapped linearly over the label list.
* unordered-set: labels are kept verbatim; they compare by equality and
  contribute a 0/1 match indicator instead of a numeric difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from attacksim import _kernels
from attacksim.errors import (
    ValidationFailure,
    container,
    document,
    entries,
    number,
    read_json,
    string,
    string_list,
)

UNORDERED_SET = "unordered-set"
ORDERED_SET = "ordered-set"
BOUNDED_RANGE = "bounded-range"
UNBOUNDED_RANGE = "unbounded-range"
KINDS = (UNORDERED_SET, ORDERED_SET, BOUNDED_RANGE, UNBOUNDED_RANGE)

ProfileValue = str | float

_PROPERTY_KEYS = {"name", "kind", "allowed_values", "lower", "upper",
                  "criticality"}


@dataclass(frozen=True, slots=True)
class PropertySchema:
    """Definition of one profile property."""

    name: str
    kind: str
    allowed_values: tuple[str, ...] | None = None
    lower: float | None = None
    upper: float | None = None
    criticality: float = 1.0

    def validate(self) -> list[str]:
        v: list[str] = []
        if not self.name:
            v.append("property name must be non-empty")
        if self.kind not in KINDS:
            v.append(f"property {self.name!r}: unknown kind {self.kind!r}")
        if self.kind in (UNORDERED_SET, ORDERED_SET):
            if not self.allowed_values:
                v.append(f"property {self.name!r}: set kinds need allowed_values")
            elif len(set(self.allowed_values)) != len(self.allowed_values):
                v.append(f"property {self.name!r}: duplicate allowed_values")
        elif self.allowed_values is not None:
            v.append(f"property {self.name!r}: allowed_values apply only to "
                     "set kinds")
        if self.kind == BOUNDED_RANGE:
            if self.lower is None or self.upper is None:
                v.append(f"property {self.name!r}: bounded-range needs lower and upper")
            elif not self.lower < self.upper:
                v.append(f"property {self.name!r}: lower must be < upper")
            # scaling divides by the span, so it must not overflow
            elif not isfinite(self.upper - self.lower):
                v.append(f"property {self.name!r}: upper - lower must be "
                         "finite")
        else:
            for key, bound in (("lower", self.lower), ("upper", self.upper)):
                if bound is not None:
                    v.append(f"property {self.name!r}: {key} applies only "
                             "to bounded-range")
        # the distance weight 1/criticality^2 overflows below about 1e-154
        # (and divides by zero below 1e-162); the floor leaves room to sum
        if not 1e-150 <= self.criticality <= 1.0:
            v.append(f"property {self.name!r}: criticality must be in "
                     "[1e-150, 1]")
        return v


class ProfileSchema:
    """Ordered collection of property definitions.

    `validate_profile` reads two things built here, once, from the
    properties: `name_set`, the set of property names, and `checks`, one
    row ``(name, labels, bounds)`` per property in schema order. `labels`
    is the frozenset of a set kind's allowed values (empty when it has
    none) and None for every other kind, whose values must be numbers;
    `bounds` is ``(lower, upper)`` for a bounded-range property with both
    bounds and None otherwise.
    """

    def __init__(self, properties: Sequence[PropertySchema]):
        self.properties: tuple[PropertySchema, ...] = tuple(properties)
        self.by_name: dict[str, PropertySchema] = {p.name: p for p in self.properties}
        self.names: tuple[str, ...] = tuple(p.name for p in self.properties)
        self.name_set: frozenset[str] = frozenset(self.names)
        self.checks: tuple[tuple[str, frozenset[str] | None,
                                 tuple[float, float] | None], ...] = tuple(
            (p.name,
             frozenset(p.allowed_values or ())
             if p.kind in (UNORDERED_SET, ORDERED_SET) else None,
             (p.lower, p.upper) if p.kind == BOUNDED_RANGE
             and p.lower is not None and p.upper is not None else None)
            for p in self.properties)

    def __iter__(self) -> Iterator[PropertySchema]:
        return iter(self.properties)

    def __len__(self) -> int:
        return len(self.properties)

    def validate(self) -> list[str]:
        v: list[str] = []
        if not self.properties:
            v.append("schema must define at least one property")
        if len(self.by_name) != len(self.properties):
            v.append("duplicate property names in schema")
        for p in self.properties:
            v.extend(p.validate())
        return v


@dataclass(frozen=True, slots=True)
class AttackerProfile:
    """Named point in the property space; covers the schema exactly."""

    name: str
    values: Mapping[str, ProfileValue] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ProfilePmf:
    """Likelihood-weighted distribution over attacker profiles."""

    entries: tuple[tuple[AttackerProfile, float], ...]

    def validate(self) -> list[str]:
        v: list[str] = []
        if not self.entries:
            v.append("pmf must contain at least one profile")
        seen: set[str] = set()
        for prof, like in self.entries:
            if prof.name in seen:
                v.append(f"pmf lists profile {prof.name!r} more than once")
            seen.add(prof.name)
            if not 0.0 <= like <= 1.0:
                v.append(f"pmf likelihood for {prof.name!r} must be in [0, 1]")
        if self.entries and not any(l > 0 for _, l in self.entries):
            v.append("pmf needs at least one positive likelihood")
        return v


Scaler = Callable[[ProfileValue], ProfileValue]


def _bounded_scaler(lower: float, upper: float, name: str) -> Scaler:
    """Linear map of a bounded-range value onto [0, 1]. The bounds are
    checked on each call, so building the scaler raises nothing whatever
    bounds a schema holds."""
    def scale(epsilon):
        if not lower < upper:
            raise ValueError(f"{name}: lower bound must be below upper bound")
        if not lower <= epsilon <= upper:
            raise ValueError(
                f"{name}: value {epsilon} outside bounds [{lower}, {upper}]")
        return (epsilon - lower) / (upper - lower)
    return scale


def _unbounded_scaler(population: Sequence[float], name: str) -> Scaler:
    """Min/max map of an unbounded-range value onto [0, 1], clamped.

    Only the population's extremes matter, so a (min, max) pair is a
    population as good as every value of the property across the action
    database; they and the span are computed here, once. A spread-free
    population carries no ranking information: midpoint.
    """
    if not population:
        def empty(epsilon):
            raise ValueError(f"{name}: empty scaling population")
        return empty
    lo = min(population)
    hi = max(population)
    if hi == lo:
        return lambda epsilon: 0.5
    span = hi - lo

    def scale(epsilon):
        # the value of min(1.0, max(0.0, x)) without the two calls: max
        # keeps its first argument unless the second is greater, and min
        # unless the second is smaller
        x = (epsilon - lo) / span
        x = x if x > 0.0 else 0.0
        return x if x < 1.0 else 1.0
    return scale


def _ordered_set_scaler(allowed_values: Sequence[str], name: str) -> Scaler:
    """Linear ordered-set mapping: label index over the label list, looked
    up in a dict built here, once."""
    k = len(allowed_values)
    index: dict[ProfileValue, float] = {}
    for i, label in enumerate(allowed_values):  # the first index, as .index
        index.setdefault(label, 0.5 if k == 1 else i / (k - 1))

    def scale(label):
        scaled = index.get(label)
        if scaled is None:
            raise ValueError(f"{name}: unknown label {label!r}")
        return scaled
    return scale


def scale_bounded(epsilon: float, lower: float, upper: float,
                  name: str = "property") -> float:
    """Linear map of a bounded-range value onto [0, 1]."""
    return _bounded_scaler(lower, upper, name)(epsilon)


def scale_unbounded(epsilon: float, population: Sequence[float],
                    name: str = "property") -> float:
    """Min/max map of an unbounded-range value onto [0, 1], clamped."""
    return _unbounded_scaler(population, name)(epsilon)


def scale_ordered_set(label: str, allowed_values: Sequence[str],
                      name: str = "property") -> float:
    """Linear ordered-set mapping: label index over the label list."""
    return _ordered_set_scaler(allowed_values, name)(label)


def match_unordered(a: str, b: str,
                    allowed_values: Sequence[str] | None = None,
                    name: str = "property") -> float:
    """Pairwise match indicator for unordered-set labels: 1 match, 0 not.

    The distance term uses (1 - indicator), so matching labels contribute
    no distance and mismatching labels contribute a full unit.
    """
    if allowed_values is not None:
        for label in (a, b):
            if label not in allowed_values:
                raise ValueError(f"{name}: unknown label {label!r}")
    return 1.0 if a == b else 0.0


_ABSENT = object()  # a missing key: a value may be None


def validate_profile(schema: ProfileSchema,
                     values: Mapping[str, ProfileValue],
                     owner: str = "profile", *args) -> list[str]:
    """Check that `values` covers the schema exactly and each value is legal.

    Reads the schema's `checks` table, in schema order, after the sorted
    missing and then unknown property names, which are looked for only
    when the keys differ from `name_set`. A set kind without
    allowed_values, and a bounded-range property without both bounds,
    are reported by the schema's own validation; here the first rejects
    every label and the second takes any number. A number that passes
    these checks but no scaling can use (NaN, an infinity or an int past
    the float range) is reported as ``property {name!r} must be a finite
    number``, the loaders' wording; these finite problems come last, in
    schema order. A profile read from a document never has one, since
    `profile_values` rejects them; a profile built in code can.

    Each problem is prefixed with the owner's name. With `args` the name
    is ``owner.format(*args)``, formatted only when there is a problem, as
    in `errors.number`; an owner without `args` is used as it is, braces
    and all.
    """
    v: list[str] = []
    late: list[str] = []
    names = schema.name_set
    if values.keys() != names:
        keys = set(values)
        for name in sorted(names - keys):
            v.append(f"missing property {name!r}")
        for name in sorted(keys - names):
            v.append(f"unknown property {name!r}")
    for name, labels, bounds in schema.checks:
        val = values.get(name, _ABSENT)
        if val is _ABSENT:
            continue
        if labels is not None:
            if not isinstance(val, str):
                v.append(f"property {name!r} needs a label")
            elif val not in labels:
                v.append(f"property {name!r} has unknown label {val!r}")
        elif isinstance(val, bool) or not isinstance(val, (int, float)):
            v.append(f"property {name!r} needs a number")
        elif bounds is not None and not bounds[0] <= val <= bounds[1]:
            v.append(f"property {name!r} value {val} "
                     f"outside bounds [{bounds[0]}, {bounds[1]}]")
        elif not _finite(val):
            late.append(f"property {name!r} must be a finite number")
    v += late
    if not v:
        return v
    name = owner.format(*args) if args else owner
    return [f"{name}: {problem}" for problem in v]


def _finite(value) -> bool:
    try:
        return isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _keep(label: ProfileValue) -> ProfileValue:
    return label


def _slot_scaler(prop: PropertySchema, population: Sequence[float]) -> Scaler:
    if prop.kind == UNORDERED_SET:
        return _keep
    if prop.kind == ORDERED_SET:
        return _ordered_set_scaler(prop.allowed_values or (), prop.name)
    if prop.kind == BOUNDED_RANGE:
        return _bounded_scaler(prop.lower, prop.upper, prop.name)
    return _unbounded_scaler(population, prop.name)


def slot_scalers(schema: ProfileSchema,
                 ranges: Mapping[str, tuple[float, float]],
                 ) -> tuple[Scaler, ...]:
    """One raw value -> scaled value function per schema slot, in schema
    order: a float in [0, 1], or the label itself for an unordered-set
    slot, which compares by equality.

    `ranges` maps each unbounded property to the (min, max) it scales
    against: the action database's for an action, and that range extended
    with the attacker's own value for an attacker. Building the functions
    raises nothing; each raises ValueError for a value it cannot scale.
    """
    return tuple(_slot_scaler(prop, ranges.get(prop.name, ()))
                 for prop in schema)


def scale_profile(schema: ProfileSchema,
                  values: Mapping[str, ProfileValue],
                  ranges: Mapping[str, tuple[float, float]],
                  ) -> tuple[ProfileValue, ...]:
    """Scale a raw profile into schema order with `slot_scalers`."""
    return tuple(scale(values[prop.name]) for prop, scale
                 in zip(schema, slot_scalers(schema, ranges)))


def pmf_probabilities(pmf: ProfilePmf) -> list[float]:
    """Normalize likelihoods into selection probabilities."""
    total = _kernels.sequential_sum([like for _, like in pmf.entries])
    if total <= 0.0:
        raise ValueError("pmf likelihoods sum to zero")
    return [like / total for _, like in pmf.entries]


def sample_profile(pmf: ProfilePmf, rng) -> AttackerProfile:
    """Draw one attacker profile; deterministic given the rng state."""
    i = _kernels.weighted_index(pmf_probabilities(pmf), rng.random())
    return pmf.entries[i][0]


@dataclass(frozen=True)
class ProfileSet:
    """Contents of a profiles document: schema, named profiles, optional PMF."""

    schema: ProfileSchema
    profiles: Mapping[str, AttackerProfile]
    pmf: ProfilePmf | None = None


def schema_from_list(raw: list, errors: list[str]) -> ProfileSchema:
    """Build a schema from its JSON list form; problems go to `errors`."""
    props: list[PropertySchema] = []
    for owner, pd in entries(raw, "schema", _PROPERTY_KEYS, "property",
                             errors, key="name"):
        props.append(PropertySchema(
            name=pd["name"],
            kind=string(pd.get("kind"), "{}: kind", errors, owner),
            # a field that is given is checked, even when empty or null
            allowed_values=None if "allowed_values" not in pd else tuple(
                string_list(pd["allowed_values"],
                            "{}: allowed_values", errors, owner)),
            lower=None if "lower" not in pd else number(
                pd["lower"], None, errors, "{}: lower", owner),
            upper=None if "upper" not in pd else number(
                pd["upper"], None, errors, "{}: upper", owner),
            criticality=number(pd.get("criticality", 1.0), 1.0, errors,
                               "{}: criticality", owner),
        ))
    schema = ProfileSchema(props)
    errors.extend(schema.validate())
    return schema


def profile_values(raw, owner: str, key: str, errors: list[str]
                   ) -> dict[str, ProfileValue]:
    """The values under `key` of a document entry: a string is a label,
    anything else is read as a number; problems go to `errors`. A string
    or a finite float is kept as it is, which is what `number` would
    return for the float; only the rest goes through `number`. Every
    attacker profile is read here; an action's profile only when it fails
    `actions.action_from_dict`'s own check."""
    return {k: (v if isinstance(v, str)
                or v.__class__ is float and isfinite(v) else number(
                    v, 0.0, errors, "{}: property {!r}", owner, k))
            for k, v in container(raw, dict, "{}: {}", errors, owner,
                                  key).items()}


def profile_set_from_dict(doc: dict) -> ProfileSet:
    errors = document(doc, {"schema", "profiles", "pmf"},
                      "profiles document")
    schema = schema_from_list(doc.get("schema", []), errors)

    profiles: dict[str, AttackerProfile] = {}
    for owner, pd in entries(doc.get("profiles", []), "profiles",
                             {"name", "values"}, "profile", errors, key="name"):
        name = pd["name"]
        if name in profiles:
            errors.append(f"duplicate profile name {name!r}")
        values = profile_values(pd.get("values", {}), owner, "values",
                                errors)
        errors.extend(validate_profile(schema, values, owner=owner))
        profiles[name] = AttackerProfile(name=name, values=values)
    if not profiles:
        errors.append("profiles document defines no profiles")

    pmf = None
    if "pmf" in doc:
        weighted: list[tuple[AttackerProfile, float]] = []
        for _, pe in entries(doc["pmf"], "pmf", {"profile", "likelihood"},
                             "pmf entry", errors, key="profile"):
            pname = pe["profile"]
            if pname not in profiles:
                errors.append(f"pmf references unknown profile {pname!r}")
                continue
            weighted.append((profiles[pname], number(
                pe.get("likelihood", 0.0), 0.0, errors,
                "pmf likelihood for {!r}", pname)))
        pmf = ProfilePmf(tuple(weighted))
        errors.extend(pmf.validate())

    if errors:
        raise ValidationFailure("invalid profiles document", errors)
    return ProfileSet(schema=schema, profiles=profiles, pmf=pmf)


def load_profiles(path: str | Path) -> ProfileSet:
    """Load and fully validate a profiles document."""
    return profile_set_from_dict(read_json(path))
