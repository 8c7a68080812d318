"""Attacker and action profile schemas, property scaling, and probabilistic
profile selection.

A profile is a point in an n-dimensional property space. Properties come in
four kinds and each kind has its own rule for mapping raw values into the
[0, 1] scale used by the distance computation:

* bounded-range: linear map between the declared bounds.
* unbounded-range: linear map between the population min/max observed
  across the action database, clamped to [0, 1].
* ordered-set: label index mapped linearly over the label list.
* unordered-set: labels are kept verbatim; they compare by equality and
  contribute a 0/1 match indicator instead of a numeric difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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
    allowed_values: tuple[str, ...] = ()
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
            if len(set(self.allowed_values)) != len(self.allowed_values):
                v.append(f"property {self.name!r}: duplicate allowed_values")
        if self.kind == BOUNDED_RANGE:
            if self.lower is None or self.upper is None:
                v.append(f"property {self.name!r}: bounded-range needs lower and upper")
            elif not self.lower < self.upper:
                v.append(f"property {self.name!r}: lower must be < upper")
            # scaling divides by the span, so it must not overflow
            elif not isfinite(self.upper - self.lower):
                v.append(f"property {self.name!r}: upper - lower must be "
                         "finite")
        # the distance weight 1/criticality^2 overflows below about 1e-154
        # (and divides by zero below 1e-162); the floor leaves room to sum
        if not 1e-150 <= self.criticality <= 1.0:
            v.append(f"property {self.name!r}: criticality must be in "
                     "[1e-150, 1]")
        return v


class ProfileSchema:
    """Ordered collection of property definitions."""

    def __init__(self, properties: Sequence[PropertySchema]):
        self.properties: tuple[PropertySchema, ...] = tuple(properties)
        self.by_name: dict[str, PropertySchema] = {p.name: p for p in self.properties}

    def __iter__(self) -> Iterator[PropertySchema]:
        return iter(self.properties)

    def __len__(self) -> int:
        return len(self.properties)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.properties)

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
        for prof, like in self.entries:
            if not 0.0 <= like <= 1.0:
                v.append(f"pmf likelihood for {prof.name!r} must be in [0, 1]")
        if self.entries and not any(l > 0 for _, l in self.entries):
            v.append("pmf needs at least one positive likelihood")
        return v


@dataclass(frozen=True, slots=True)
class ScaledProfile:
    """Profile after scaling: floats in [0, 1], except unordered-set slots
    which keep their label for pairwise matching. Slots follow schema order.
    """

    values: tuple[ProfileValue, ...]


def scale_bounded(epsilon: float, lower: float, upper: float,
                  name: str = "property") -> float:
    """Linear map of a bounded-range value onto [0, 1]."""
    if not lower < upper:
        raise ValueError(f"{name}: lower bound must be below upper bound")
    if not lower <= epsilon <= upper:
        raise ValueError(
            f"{name}: value {epsilon} outside bounds [{lower}, {upper}]")
    return (epsilon - lower) / (upper - lower)


def scale_unbounded(epsilon: float, population: Sequence[float],
                    name: str = "property") -> float:
    """Min/max map of an unbounded-range value onto [0, 1].

    The population is every value of this property across the action
    database (plus the attacker's own value when scaling an attacker).
    A spread-free population carries no ranking information: midpoint.
    """
    if not population:
        raise ValueError(f"{name}: empty scaling population")
    lo = min(population)
    hi = max(population)
    if hi == lo:
        return 0.5
    return min(1.0, max(0.0, (epsilon - lo) / (hi - lo)))


def spread_is_finite(values: Sequence) -> bool:
    """Whether max - min of `values` is finite, as unbounded-range scaling,
    which divides by it, needs. True when there is no value or one is not
    a number (None for a missing one): validate_profile reports those."""
    try:
        return isfinite(max(values) - min(values))
    except (TypeError, ValueError):
        return True


def scale_ordered_set(label: str, allowed_values: Sequence[str],
                      name: str = "property") -> float:
    """Linear ordered-set mapping: label index over the label list."""
    if label not in allowed_values:
        raise ValueError(f"{name}: unknown label {label!r}")
    k = len(allowed_values)
    if k == 1:
        return 0.5
    return allowed_values.index(label) / (k - 1)


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


def validate_profile(schema: ProfileSchema,
                     values: Mapping[str, ProfileValue],
                     owner: str = "profile") -> list[str]:
    """Check that `values` covers the schema exactly and each value is legal."""
    v: list[str] = []
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
            elif val not in prop.allowed_values:
                v.append(f"{owner}: property {prop.name!r} has unknown "
                         f"label {val!r}")
        else:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                v.append(f"{owner}: property {prop.name!r} needs a number")
            # a bounded-range property without both bounds is reported by
            # the schema's own validation
            elif (prop.kind == BOUNDED_RANGE and prop.lower is not None
                  and prop.upper is not None
                  and not prop.lower <= val <= prop.upper):
                v.append(f"{owner}: property {prop.name!r} value {val} "
                         f"outside bounds [{prop.lower}, {prop.upper}]")
    return v


def scale_profile(schema: ProfileSchema,
                  values: Mapping[str, ProfileValue],
                  populations: Mapping[str, Sequence[float]],
                  include_own_value: bool = False) -> ScaledProfile:
    """Scale a raw profile into schema order.

    `populations` maps each unbounded property to its database-wide value
    population. With `include_own_value` the profile's own value joins the
    population before scaling (used for attacker profiles, whose values are
    not part of the database).
    """
    out: list[ProfileValue] = []
    for prop in schema:
        val = values[prop.name]
        if prop.kind == UNORDERED_SET:
            out.append(val)
        elif prop.kind == ORDERED_SET:
            out.append(scale_ordered_set(val, prop.allowed_values, prop.name))
        elif prop.kind == BOUNDED_RANGE:
            out.append(scale_bounded(val, prop.lower, prop.upper, prop.name))
        else:
            pop = list(populations.get(prop.name, ()))
            if include_own_value:
                pop.append(float(val))
            out.append(scale_unbounded(val, pop, prop.name))
    return ScaledProfile(tuple(out))


def pmf_probabilities(pmf: ProfilePmf) -> list[float]:
    """Normalize likelihoods into selection probabilities."""
    total = sum(like for _, like in pmf.entries)
    if total <= 0.0:
        raise ValueError("pmf likelihoods sum to zero")
    return [like / total for _, like in pmf.entries]


def sample_profile(pmf: ProfilePmf, rng) -> AttackerProfile:
    """Draw one attacker profile; deterministic given the rng state."""
    probs = pmf_probabilities(pmf)
    u = rng.random()
    acc = 0.0
    for (prof, _), p in zip(pmf.entries[:-1], probs[:-1]):
        acc += p
        if u < acc:
            return prof
    return pmf.entries[-1][0]


@dataclass(frozen=True)
class ProfileSet:
    """Contents of a profiles document: schema, named profiles, optional PMF."""

    schema: ProfileSchema
    profiles: Mapping[str, AttackerProfile]
    pmf: ProfilePmf | None = None


def _schema_from_list(raw: list, errors: list[str]) -> ProfileSchema:
    props: list[PropertySchema] = []
    for owner, pd in entries(raw, "schema", _PROPERTY_KEYS, "property",
                             errors, key="name"):
        lower, upper = pd.get("lower"), pd.get("upper")
        props.append(PropertySchema(
            name=pd["name"],
            kind=string(pd.get("kind"), "{}: kind", errors, owner),
            allowed_values=tuple(string_list(
                pd.get("allowed_values", []), f"{owner}: allowed_values",
                errors)),
            lower=None if lower is None else number(
                lower, None, errors, "{}: lower", owner),
            upper=None if upper is None else number(
                upper, None, errors, "{}: upper", owner),
            criticality=number(pd.get("criticality", 1.0), 1.0, errors,
                               "{}: criticality", owner),
        ))
    schema = ProfileSchema(props)
    errors.extend(schema.validate())
    return schema


def schema_from_list(raw: list) -> ProfileSchema:
    """Build and validate a schema from its JSON list form."""
    errors: list[str] = []
    schema = _schema_from_list(raw, errors)
    if errors:
        raise ValidationFailure("invalid property schema", errors)
    return schema


def profile_set_from_dict(doc: dict) -> ProfileSet:
    errors = document(doc, {"schema", "profiles", "pmf"},
                      "profiles document")
    schema = _schema_from_list(doc.get("schema", []), errors)

    profiles: dict[str, AttackerProfile] = {}
    for owner, pd in entries(doc.get("profiles", []), "profiles",
                             {"name", "values"}, "profile", errors, key="name"):
        name = pd["name"]
        if name in profiles:
            errors.append(f"duplicate profile name {name!r}")
        values = {k: (v if isinstance(v, str) else number(
                      v, 0.0, errors, "{}: property {!r}", owner, k))
                  for k, v in container(pd.get("values", {}), dict,
                                        f"{owner}: values", errors).items()}
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
