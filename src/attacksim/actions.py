"""The action database: profiled attack actions with target criteria,
propagation channels, and prerequisites.

Actions and their target criteria are immutable NamedTuples, built
positionally by the loader; their scaled profiles are computed once per
run and shared by every episode. The database computes each unbounded
property's (min, max) once, and checks attacker profiles against it.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, isfinite
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from attacksim.errors import (
    ValidationFailure,
    container,
    document,
    entry,
    number,
    read_json,
    string,
    string_list,
)
from attacksim.model import Node
from attacksim.profiles import (
    UNBOUNDED_RANGE,
    AttackerProfile,
    ProfileSchema,
    ProfileValue,
    profile_values,
    slot_scalers,
    validate_profile,
)

EFFECT_COMPROMISE = "compromise"
EFFECT_DISRUPT = "disrupt"
EFFECTS = (EFFECT_COMPROMISE, EFFECT_DISRUPT)

_ACTION_KEYS = {"id", "name", "description", "references", "profile",
                "target_criteria", "channels", "prerequisites",
                "success_probability", "effect"}


class TargetCriteria(NamedTuple):
    """Attribute requirements a node must satisfy to be a valid target.

    A node matches when every required key is present with a value in the
    acceptable set. The empty criteria matches every node. Matching is
    exact, case-sensitive string membership.

    An immutable NamedTuple, as `Action` is. The default `requirements`
    is one empty dict shared by every criteria built without them, so it
    must never be mutated; a plain dict, because the run's context, which
    holds the actions, is pickled for `--jobs` workers and a
    ``types.MappingProxyType`` does not pickle.
    """

    requirements: Mapping[str, frozenset[str]] = {}


def criteria_match(criteria: TargetCriteria, node: Node) -> bool:
    for key, accepted in criteria.requirements.items():
        if node.attributes.get(key) not in accepted:
            return False
    return True


class Action(NamedTuple):
    """One profiled attack action: an immutable NamedTuple.
    `action_from_dict` builds it positionally, so the field order below is
    part of its contract, as with `engine.DecisionRecord`. The default
    `profile` and `target_criteria` are single objects shared by every
    action built without them, so neither may be mutated (see
    `TargetCriteria`)."""

    id: str
    name: str = ""
    description: str = ""
    references: tuple[str, ...] = ()
    profile: Mapping[str, ProfileValue] = {}
    target_criteria: TargetCriteria = TargetCriteria()
    channels: frozenset[str] = frozenset()
    prerequisites: frozenset[str] = frozenset()
    success_probability: float = 1.0
    effect: str = EFFECT_COMPROMISE


class ActionDatabase:
    """Immutable collection of actions plus the property schema they cover.

    Actions are kept in canonical id order for reproducible iteration.
    Any success compromises its target, so no run can meet a prerequisite:
    an action with prerequisites is validated (unknown ids, self-reference,
    cycles) but never offered.
    """

    def __init__(self, actions: Iterable[Action], schema: ProfileSchema):
        self.actions: tuple[Action, ...] = tuple(
            sorted(actions, key=lambda a: a.id))
        self.schema = schema
        self.by_id: dict[str, Action] = {a.id: a for a in self.actions}

    def __len__(self) -> int:
        return len(self.actions)

    def validate(self) -> list[str]:
        v: list[str] = []
        if not self.actions:
            v.append("action database must contain at least one action")
        seen: set[str] = set()
        for a in self.actions:
            if a.id in seen:
                v.append(f"duplicate action id {a.id!r}")
            seen.add(a.id)
            v.extend(validate_profile(self.schema, a.profile,
                                      "action {!r}", a.id))
            for key in a.target_criteria.requirements:
                if not key:
                    v.append(f"action {a.id!r}: empty criteria key")
            if a.prerequisites:
                if a.id in a.prerequisites:
                    v.append(f"action {a.id!r} lists itself as a "
                             "prerequisite")
                for pre in sorted(a.prerequisites):
                    if pre not in self.by_id:
                        v.append(f"action {a.id!r}: unknown prerequisite "
                                 f"{pre!r}")
            if not 0.0 <= a.success_probability <= 1.0:
                v.append(f"action {a.id!r}: success_probability must be "
                         "in [0, 1]")
            if a.effect not in EFFECTS:
                v.append(f"action {a.id!r}: unknown effect {a.effect!r}")
        try:
            v.extend(f"property {name!r}: max - min of the action values "
                     "must be finite"
                     for name, (lo, hi) in self.unbounded_ranges.items()
                     if self.actions and not isfinite(hi - lo))
        except (KeyError, TypeError, ValueError):
            pass  # a missing or non-numeric value: validate_profile reports it
        v.extend(self._find_cycles())
        return v

    def _find_cycles(self) -> list[str]:
        # depth-first from each action with prerequisites (one without lies
        # on no cycle); `stack` pairs each action on the branch with an
        # iterator over its unexplored prerequisites, `path` holds its ids
        by_id = self.by_id
        done: set[str] = set()
        cycles: list[str] = []
        for root in by_id.values():
            if not root.prerequisites or root.id in done:
                continue
            path = {root.id: None}
            stack = [(root.id, iter(sorted(root.prerequisites)))]
            while stack:
                aid, todo = stack[-1]
                for pre in todo:
                    # validate reports unknown ids and self-references
                    if pre == aid or pre in done or pre not in by_id:
                        continue
                    if pre not in path:
                        path[pre] = None
                        stack.append(
                            (pre, iter(sorted(by_id[pre].prerequisites))))
                        break
                    ids = list(path)
                    cycles.append("prerequisite cycle: " + " -> ".join(
                        ids[ids.index(pre):] + [pre]))
                else:
                    done.add(aid)
                    path.popitem()
                    stack.pop()
        return cycles

    @cached_property
    def unbounded_ranges(self) -> dict[str, tuple[float, float]]:
        """(min, max) of each unbounded property over the actions' values,
        computed once; (inf, -inf), which any value extends to (value,
        value), when the database is empty."""
        ranges: dict[str, tuple[float, float]] = {}
        for prop in self.schema:
            if prop.kind == UNBOUNDED_RANGE:
                vals = [float(a.profile[prop.name]) for a in self.actions]
                ranges[prop.name] = (min(vals, default=inf),
                                     max(vals, default=-inf))
        return ranges

    def attacker_ranges(self, attacker: AttackerProfile
                        ) -> dict[str, tuple[float, float]]:
        """Each unbounded range extended with the attacker's own value: the
        ranges its profile scales against. Raises ValidationFailure for a
        profile that does not fit the schema, or whose value makes a
        range's max - min overflow."""
        owner = f"attacker profile {attacker.name!r}"
        values = attacker.values
        errs = validate_profile(self.schema, values, owner=owner)
        ranges: dict[str, tuple[float, float]] = {}
        if not errs:
            for name, (lo, hi) in self.unbounded_ranges.items():
                v = float(values[name])
                ranges[name] = (min(lo, v), max(hi, v))
            errs = [f"{owner}: max - min of property {name!r} over the "
                    "action values and this profile's value must be finite"
                    for name, (lo, hi) in ranges.items()
                    if not isfinite(hi - lo)]
        if errs:
            raise ValidationFailure("invalid attacker profile", errs)
        return ranges


def scaled_action_profiles(db: ActionDatabase
                           ) -> dict[str, tuple[ProfileValue, ...]]:
    """Scale every action profile with one set of slot scalers; pure and
    deterministic.

    Unbounded properties scale against the database-wide (min, max), so a
    new action inside that range leaves other actions' scaled values
    untouched.
    """
    slots = tuple(zip(db.schema.names,
                      slot_scalers(db.schema, db.unbounded_ranges)))
    actions = db.actions
    profiles = [a.profile for a in actions]  # one field read per action
    try:
        # slot by slot: one call per value and no frame per action
        columns = [list(map(scale, [p[name] for p in profiles]))
                   for name, scale in slots]
    except (KeyError, TypeError, ValueError):
        # raise the error of the first action that does not scale
        for a, p in zip(actions, profiles):
            try:
                [scale(p[name]) for name, scale in slots]
            except ValueError as exc:
                raise ValueError(f"action {a.id!r}: {exc}") from exc
        raise
    rows = zip(*columns) if columns else [()] * len(actions)
    return dict(zip([a.id for a in actions], rows))


def criteria_from_dict(raw, owner: str, errors: list[str]) -> TargetCriteria:
    """Target criteria from their document form: an object mapping each
    attribute to one accepted string or a list of them. Anything else is
    collected as an error."""
    requirements = {}
    for key, v in container(raw, dict, "{}: target_criteria", errors,
                            owner).items():
        requirements[key] = frozenset(string_list(
            [v] if isinstance(v, str) else v,
            "{}: target_criteria {!r}", errors, owner, key))
    return TargetCriteria(requirements)


def action_from_dict(ad: dict, errors: list[str], index: int) -> Action | None:
    """The `index`-th action of a document list, or None if `entry`
    rejects it; every problem is collected in `errors`."""
    owner = entry(ad, _ACTION_KEYS, "action", errors, index)
    if owner is None:
        return None
    criteria = criteria_from_dict(ad.get("target_criteria", {}), owner, errors)
    profile = profile_values(ad.get("profile", {}), owner, "profile", errors)
    # positional, in Action's field order
    return Action(
        ad["id"],
        string(ad.get("name", ""), "{}: name", errors, owner),
        string(ad.get("description", ""), "{}: description", errors, owner),
        tuple(string_list(ad.get("references", []), "{}: references", errors,
                          owner)),
        profile,
        criteria,
        frozenset(string_list(ad.get("channels", []), "{}: channels", errors,
                              owner)),
        frozenset(string_list(ad.get("prerequisites", []),
                              "{}: prerequisites", errors, owner)),
        number(ad.get("success_probability", 1.0), 1.0, errors,
               "{}: success_probability", owner),
        string(ad.get("effect", EFFECT_COMPROMISE), "{}: effect", errors,
               owner),
    )


def action_db_from_dict(doc: dict, schema: ProfileSchema) -> ActionDatabase:
    errors = document(doc, {"actions"}, "action document")
    actions: list[Action] = []
    for i, ad in enumerate(container(doc.get("actions", []), list,
                                     "actions", errors)):
        action = action_from_dict(ad, errors, i)
        if action is not None:
            actions.append(action)
    db = ActionDatabase(actions, schema)
    errors.extend(db.validate())
    if errors:
        raise ValidationFailure("invalid action database", errors)
    return db


def load_action_db(path: str | Path, schema: ProfileSchema) -> ActionDatabase:
    """Load and fully validate an action database file.

    The property schema comes from the profiles document; the action file
    itself carries only the actions. All validation failures are collected
    and reported together.
    """
    return action_db_from_dict(read_json(path), schema)


def action_to_dict(a: Action) -> dict:
    return {
        "id": a.id,
        "name": a.name,
        "description": a.description,
        "references": list(a.references),
        "profile": dict(a.profile),
        "target_criteria": {k: sorted(v)
                            for k, v in a.target_criteria.requirements.items()},
        "channels": sorted(a.channels),
        "prerequisites": sorted(a.prerequisites),
        "success_probability": a.success_probability,
        "effect": a.effect,
    }
