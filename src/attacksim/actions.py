"""The action database: profiled attack actions with target criteria,
propagation channels, and prerequisites.

Actions are immutable after load; the scaled-profile cache is computed once
per database and shared by every episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

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
    ProfileSchema,
    ProfileValue,
    ScaledProfile,
    scale_profile,
    spread_is_finite,
    validate_profile,
)

EFFECT_COMPROMISE = "compromise"
EFFECT_DISRUPT = "disrupt"
EFFECTS = (EFFECT_COMPROMISE, EFFECT_DISRUPT)

_ACTION_KEYS = {"id", "name", "description", "references", "profile",
                "target_criteria", "channels", "prerequisites",
                "success_probability", "effect"}


@dataclass(frozen=True, slots=True)
class TargetCriteria:
    """Attribute requirements a node must satisfy to be a valid target.

    A node matches when every required key is present with a value in the
    acceptable set. The empty criteria matches every node. Matching is
    exact, case-sensitive string membership.
    """

    requirements: Mapping[str, frozenset[str]] = field(default_factory=dict)


def criteria_match(criteria: TargetCriteria, node: Node) -> bool:
    for key, accepted in criteria.requirements.items():
        if node.attributes.get(key) not in accepted:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Action:
    id: str
    name: str = ""
    description: str = ""
    references: tuple[str, ...] = ()
    profile: Mapping[str, ProfileValue] = field(default_factory=dict)
    target_criteria: TargetCriteria = field(default_factory=TargetCriteria)
    channels: frozenset[str] = frozenset()
    prerequisites: frozenset[str] = frozenset()
    success_probability: float = 1.0
    effect: str = EFFECT_COMPROMISE


class ActionDatabase:
    """Immutable collection of actions plus the property schema they cover.

    Actions are kept in canonical id order for reproducible iteration.
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
                                      owner=f"action {a.id!r}"))
            for key in a.target_criteria.requirements:
                if not key:
                    v.append(f"action {a.id!r}: empty criteria key")
            if a.id in a.prerequisites:
                v.append(f"action {a.id!r} lists itself as a prerequisite")
            for pre in sorted(a.prerequisites):
                if pre not in self.by_id:
                    v.append(f"action {a.id!r}: unknown prerequisite {pre!r}")
            if not 0.0 <= a.success_probability <= 1.0:
                v.append(f"action {a.id!r}: success_probability must be "
                         "in [0, 1]")
            if a.effect not in EFFECTS:
                v.append(f"action {a.id!r}: unknown effect {a.effect!r}")
        for prop in self.schema:
            if prop.kind == UNBOUNDED_RANGE and not spread_is_finite(
                    [a.profile.get(prop.name) for a in self.actions]):
                v.append(f"property {prop.name!r}: max - min of the action "
                         "values must be finite")
        v.extend(self._find_cycles())
        return v

    def _find_cycles(self) -> list[str]:
        # iterative DFS over the prerequisite graph; GRAY = on current path
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {a.id: WHITE for a in self.actions}
        cycles: list[str] = []
        for root in self.actions:
            if color[root.id] != WHITE:
                continue
            path: list[str] = []
            stack: list[tuple[str, int]] = [(root.id, 0)]
            while stack:
                aid, idx = stack.pop()
                if idx == 0:
                    color[aid] = GRAY
                    path.append(aid)
                prereqs = sorted(self.by_id[aid].prerequisites)
                advanced = False
                while idx < len(prereqs):
                    pre = prereqs[idx]
                    idx += 1
                    if pre not in color:
                        continue
                    if color[pre] == GRAY:
                        cyc = path[path.index(pre):] + [pre]
                        cycles.append("prerequisite cycle: " + " -> ".join(cyc))
                    elif color[pre] == WHITE:
                        stack.append((aid, idx))
                        stack.append((pre, 0))
                        advanced = True
                        break
                if not advanced:
                    color[aid] = BLACK
                    path.pop()
        return cycles

    def unbounded_populations(self) -> dict[str, list[float]]:
        """Database-wide value population per unbounded property."""
        pops: dict[str, list[float]] = {}
        for prop in self.schema:
            if prop.kind == UNBOUNDED_RANGE:
                pops[prop.name] = [float(a.profile[prop.name])
                                   for a in self.actions]
        return pops


def scaled_action_profiles(db: ActionDatabase) -> dict[str, ScaledProfile]:
    """Scale every action profile; pure, deterministic, cached by callers.

    Unbounded properties scale against the database-wide population, so a
    new action inside the existing [min, max] leaves other actions' scaled
    values untouched.
    """
    # scale_unbounded reads only a population's extremes: reduce each one
    # to them once instead of rescanning it for every action
    pops = {name: (min(vals), max(vals)) if vals else ()
            for name, vals in db.unbounded_populations().items()}
    out: dict[str, ScaledProfile] = {}
    for a in db.actions:
        try:
            out[a.id] = scale_profile(db.schema, a.profile, pops)
        except ValueError as exc:
            raise ValueError(f"action {a.id!r}: {exc}") from exc
    return out


def criteria_from_dict(raw, owner: str, errors: list[str]) -> TargetCriteria:
    """Target criteria from their document form: an object mapping each
    attribute to one accepted string or a list of them. Anything else is
    collected as an error."""
    requirements = {}
    for key, v in container(raw, dict, f"{owner}: target_criteria",
                            errors).items():
        requirements[key] = frozenset(string_list(
            [v] if isinstance(v, str) else v,
            f"{owner}: target_criteria {key!r}", errors))
    return TargetCriteria(requirements)


def action_from_dict(ad: dict, errors: list[str], index: int) -> Action | None:
    """The `index`-th action of a document list, or None if `entry`
    rejects it; every problem is collected in `errors`."""
    owner = entry(ad, _ACTION_KEYS, "action", errors, index)
    if owner is None:
        return None
    criteria = criteria_from_dict(ad.get("target_criteria", {}), owner, errors)
    profile = {k: (v if isinstance(v, str) else number(
                   v, 0.0, errors, "{}: property {!r}", owner, k))
               for k, v in container(ad.get("profile", {}), dict,
                                     f"{owner}: profile", errors).items()}
    return Action(
        id=ad["id"],
        name=string(ad.get("name", ""), "{}: name", errors, owner),
        description=string(ad.get("description", ""), "{}: description",
                           errors, owner),
        references=tuple(string_list(
            ad.get("references", []), f"{owner}: references", errors)),
        profile=profile,
        target_criteria=criteria,
        channels=frozenset(string_list(
            ad.get("channels", []), f"{owner}: channels", errors)),
        prerequisites=frozenset(string_list(
            ad.get("prerequisites", []), f"{owner}: prerequisites", errors)),
        success_probability=number(ad.get("success_probability", 1.0), 1.0,
                                   errors, "{}: success_probability", owner),
        effect=string(ad.get("effect", EFFECT_COMPROMISE), "{}: effect",
                      errors, owner),
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
