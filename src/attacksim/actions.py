"""The action database: profiled attack actions with target criteria,
propagation channels, and prerequisites.

Actions and their target criteria are immutable NamedTuples, built
positionally by the loader, which keeps one object per distinct channel
set, prerequisite set and criteria of a document; their scaled profiles
are computed once per run and shared by every episode. The database
computes each unbounded property's (min, max) once, and checks attacker
profiles against it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import inf, isfinite
from operator import contains, itemgetter
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
_EFFECTS = frozenset(EFFECTS)

_ACTION_KEYS = {"id", "name", "description", "references", "profile",
                "target_criteria", "channels", "prerequisites",
                "success_probability", "effect"}

# an absent object or list field, read without allocating; never mutated
_EMPTY: dict = {}
_NO_STRINGS: list = []
# every empty channel or prerequisite set an action is loaded with
_NO_IDS: frozenset = frozenset()
# ints of at most this size convert to a float exactly; a larger one goes
# through `number`, which also rejects one past the float range
_INT_FLOATS = 2 ** 53
# builds a NamedTuple from one tuple of its fields, without a call to its
# generated __new__
_new = tuple.__new__


class TargetCriteria(NamedTuple):
    """Attribute requirements a node must satisfy to be a valid target.

    A node matches when every required key is present with a value in the
    acceptable set. The empty criteria matches every node. Matching is
    exact, case-sensitive string membership.

    An immutable NamedTuple, as `Action` is. The default `requirements`
    is one empty dict shared by every criteria built without them, and
    the actions loaded from one document share each distinct criteria
    (see `action_from_dict`), so neither its dict nor any of its sets may
    ever be mutated; a plain dict, because the run's context, which holds
    the actions, is pickled for `--jobs` workers and a
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
    action built without them, and the actions loaded from one document
    share each distinct channel set, prerequisite set and target criteria
    (see `action_from_dict`), so none of these may ever be mutated (see
    `TargetCriteria`). Each loaded action has a profile dict of its own."""

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
        """Every problem of the database, in a fixed order: the per-action
        problems, action by action in id order, then the unbounded ranges
        whose max - min overflows, then the prerequisite cycles.

        Each per-action rule is first tested over all actions at once
        (`_columns_clean`); only when a test fails does the per-action loop
        run (`_action_problems`), and that loop alone words a problem.
        """
        v = [] if self._columns_clean() else self._action_problems()
        try:
            # only a span between finite bounds: a NaN or an infinity is
            # its action's problem (validate_profile), wherever it sits,
            # and an empty database has the bounds (inf, -inf)
            v.extend(f"property {name!r}: max - min of the action values "
                     "must be finite"
                     for name, (lo, hi) in self.unbounded_ranges.items()
                     if isfinite(lo) and isfinite(hi)
                     and not isfinite(hi - lo))
        except (KeyError, TypeError, ValueError, OverflowError):
            # a missing, non-numeric or out-of-float-range value, which
            # validate_profile reports
            pass
        v.extend(self._find_cycles())
        return v

    def _columns_clean(self) -> bool:
        """True when no action breaks a rule of `_action_problems`, each
        rule tested as one column over every action: unique ids, profile
        key sets, each schema row's labels, number type, bounds and
        finiteness, criteria keys, prerequisites, the success_probability
        range and effects. False sends `validate` to the loop, so a test
        may be too strict (a sum that overflows), never too lenient: a type
        it does not know exactly fails it."""
        actions = self.actions
        schema = self.schema
        if not actions or len(self.by_id) != len(actions) or not schema.names:
            return False
        try:
            (ids, _, _, _, profiles, criteria, _, prerequisites, success,
             effects) = zip(*actions)
            # each profile a plain dict (a subclass may define __missing__)
            # whose keys are all the schema's names, and no others
            if not (set(map(type, profiles)) <= {dict}
                    and set(map(len, profiles)) == {len(schema.name_set)}):
                return False
            for name, labels, bounds in schema.checks:
                column = list(map(itemgetter(name), profiles))
                types = set(map(type, column))
                if labels is not None:
                    if not (types <= {str} and labels.issuperset(column)):
                        return False
                # a float sum is finite only if every value is: not NaN,
                # not infinite and no int past the float range, which
                # raises OverflowError (an int sum could cancel one out)
                elif not (types <= {int, float} and isfinite(sum(column, 0.0))):
                    return False
                elif bounds is not None and not (bounds[0] <= min(column)
                                                 and max(column) <= bounds[1]):
                    return False
            keys = chain.from_iterable([c.requirements for c in criteria])
            needed = set().union(*prerequisites)
            total = sum(success)
            return (all(keys)
                    and (not needed or self.by_id.keys() >= needed
                         and not any(map(contains, prerequisites, ids)))
                    and set(map(type, success)) <= {int, float, bool}
                    and 0.0 <= min(success) and max(success) <= 1.0
                    and total == total  # no NaN, which min and max skip
                    and set(effects) <= _EFFECTS)
        except (KeyError, TypeError, ValueError, OverflowError):
            return False

    def _action_problems(self) -> list[str]:
        """The per-action problems, action by action in id order: the
        only code that words them."""
        v: list[str] = []
        if not self.actions:
            v.append("action database must contain at least one action")
        seen: set[str] = set()
        schema = self.schema
        for a in self.actions:
            if a.id in seen:
                v.append(f"duplicate action id {a.id!r}")
            seen.add(a.id)
            v.extend(validate_profile(schema, a.profile, "action {!r}", a.id))
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
        profiles = [a.profile for a in self.actions]
        for prop in self.schema:
            if prop.kind == UNBOUNDED_RANGE:
                vals = list(map(float, map(itemgetter(prop.name),
                                            profiles)))
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
        # slot by slot: each scaler takes the whole column
        columns = [scale(list(map(itemgetter(name), profiles)))
                   for name, scale in slots]
    except (KeyError, TypeError, ValueError):
        # raise the error of the first action that does not scale
        for a, p in zip(actions, profiles):
            try:
                [scale([p[name]]) for name, scale in slots]
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


def _ascii_strings(value) -> bool:
    """True for a list of ASCII strings, which `string_list` accepts."""
    if value.__class__ is not list:
        return False
    for x in value:
        if not (x.__class__ is str and x.isascii()):
            return False
    return True


def action_from_dict(ad: dict, errors: list[str], index: int,
                     shared: dict | None = None) -> Action | None:
    """The `index`-th action of a document list, or None if `entry`
    rejects it; every problem is collected in `errors`.

    `shared` is the table of the values already built from the same
    document, so that thousands of actions hold a few distinct objects:
    a channel or prerequisite set equal to one built before is that
    object (looked up by the list's tuple, then by the set, so lists in
    any order share one set), every empty one is one shared
    ``frozenset()``, and a criteria with the same requirements in the
    same order (keyed by ``tuple(requirements.items())``) is the same
    `TargetCriteria`. A new value joins the table. The caller keeps one
    table per document and drops it with the load, so no value outlives
    it in the table; None means a fresh table.

    This runs for every entry of a database, so each field is checked here
    first: an ASCII string, a list of them, a finite float (an int is read
    as a float) or an object. Only a field that fails its check goes
    through its wording helper (`string`, `string_list`, `number`,
    `criteria_from_dict`, `profile_values`, and `entry` for the id and the
    keys), which accepts what the check was too strict for and collects
    the rest in the order the fields are listed below; the owner's name is
    formatted only there. The action is built as one positional tuple.
    """
    aid = ad.get("id") if isinstance(ad, dict) else None
    if not (aid.__class__ is str and aid.isascii()
            and _ACTION_KEYS.issuperset(ad)):
        if entry(ad, _ACTION_KEYS, "action", errors, index) is None:
            return None
    if shared is None:
        shared = {}
    get = ad.get

    raw = get("target_criteria", _EMPTY)
    requirements = None
    if raw.__class__ is dict:
        requirements = {}
        for key, v in raw.items():
            if v.__class__ is str and v.isascii():
                requirements[key] = frozenset((v,))
            elif _ascii_strings(v):
                requirements[key] = frozenset(v)
            else:
                requirements = None
                break
    if requirements is not None:
        # most criteria are empty, and () needs no items view
        key = tuple(requirements.items()) if requirements else ()
        criteria = shared.get(key)
        if criteria is None:
            criteria = shared[key] = _new(TargetCriteria, (requirements,))
    else:
        criteria = criteria_from_dict(raw, f"action {aid!r}", errors)

    raw = get("profile", _EMPTY)
    profile = None
    if raw.__class__ is dict:
        profile = dict(raw)
        for k, v in raw.items():
            cls = v.__class__
            if cls is int and -_INT_FLOATS <= v <= _INT_FLOATS:
                profile[k] = float(v)
            elif not (cls is str or cls is float and v - v == 0.0):
                profile = None
                break
    if profile is None:
        profile = profile_values(raw, f"action {aid!r}", "profile", errors)

    name = get("name", "")
    if not (name.__class__ is str and name.isascii()):
        name = string(name, "action {!r}: name", errors, aid)
    description = get("description", "")
    if not (description.__class__ is str and description.isascii()):
        description = string(description, "action {!r}: description",
                             errors, aid)
    references = get("references", _NO_STRINGS)
    if not _ascii_strings(references):
        references = string_list(references, "action {!r}: references",
                                 errors, aid)
    channels = get("channels", _NO_STRINGS)
    if not _ascii_strings(channels):
        channels = string_list(channels, "action {!r}: channels", errors,
                               aid)
    prerequisites = get("prerequisites", _NO_STRINGS)
    if not _ascii_strings(prerequisites):
        prerequisites = string_list(prerequisites,
                                    "action {!r}: prerequisites", errors, aid)
    success = get("success_probability", 1.0)
    if not (success.__class__ is float and success - success == 0.0):
        success = number(success, 1.0, errors,
                         "action {!r}: success_probability", aid)
    effect = get("effect", EFFECT_COMPROMISE)
    if not (effect.__class__ is str and effect.isascii()):
        effect = string(effect, "action {!r}: effect", errors, aid)
    # a string list is looked up by its tuple, which no criteria key
    # equals unless both are empty, so an empty list takes _NO_IDS
    key = tuple(channels)
    channels = ((shared.get(key) or _shared_set(key, shared)) if key
                else _NO_IDS)
    key = tuple(prerequisites)
    prerequisites = ((shared.get(key) or _shared_set(key, shared)) if key
                     else _NO_IDS)
    # in Action's field order
    return _new(Action, (aid, name, description, tuple(references), profile,
                         criteria, channels, prerequisites, success, effect))


def _shared_set(strings: tuple[str, ...], shared: dict) -> frozenset[str]:
    """The set of `strings`, not yet in the table under this tuple: the
    table's equal set, or this one, which joins the table, so that lists
    in any order and with repeats give one set."""
    new = frozenset(strings)
    new = shared[strings] = shared.setdefault(new, new)
    return new


def action_db_from_dict(doc: dict, schema: ProfileSchema) -> ActionDatabase:
    errors = document(doc, {"actions"}, "action document")
    actions: list[Action] = []
    shared: dict = {}  # this document's distinct values, see action_from_dict
    for i, ad in enumerate(container(doc.get("actions", []), list,
                                     "actions", errors)):
        action = action_from_dict(ad, errors, i, shared)
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
