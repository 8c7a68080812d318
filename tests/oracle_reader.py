"""Reference action reader: every field read through its wording helper.

This is the action loader as it stood before `actions.action_from_dict`
checked each field inline and `ActionDatabase.validate` tested its rules
as columns: each field goes through `errors.entry`, `string`,
`string_list`, `number` or `container`, and the database is checked action
by action. The tests require the loader to give the same actions, value
types included, and the same error lists, in the same order. A range
whose max - min overflows is reported only when both bounds are finite,
so a NaN or an infinity is reported once, as its action's non-finite
number.
"""

from math import isfinite

from attacksim.actions import (
    EFFECT_COMPROMISE,
    EFFECTS,
    Action,
    ActionDatabase,
    TargetCriteria,
)
from attacksim.errors import (
    ValidationFailure,
    container,
    document,
    entry,
    number,
    string,
    string_list,
)
from attacksim.profiles import (
    UNBOUNDED_RANGE,
    validate_profile,
)

ACTION_KEYS = {"id", "name", "description", "references", "profile",
               "target_criteria", "channels", "prerequisites",
               "success_probability", "effect"}


def criteria_from_dict(raw, owner, errors):
    requirements = {}
    for key, v in container(raw, dict, "{}: target_criteria", errors,
                            owner).items():
        requirements[key] = frozenset(string_list(
            [v] if isinstance(v, str) else v,
            "{}: target_criteria {!r}", errors, owner, key))
    return TargetCriteria(requirements)


def profile_values(raw, owner, key, errors):
    return {k: (v if isinstance(v, str)
                or v.__class__ is float and isfinite(v) else number(
                    v, 0.0, errors, "{}: property {!r}", owner, k))
            for k, v in container(raw, dict, "{}: {}", errors, owner,
                                  key).items()}


def action_from_dict(ad, errors, index):
    owner = entry(ad, ACTION_KEYS, "action", errors, index)
    if owner is None:
        return None
    criteria = criteria_from_dict(ad.get("target_criteria", {}), owner, errors)
    profile = profile_values(ad.get("profile", {}), owner, "profile", errors)
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


def validate(db: ActionDatabase) -> list[str]:
    """`ActionDatabase.validate` as one loop over the actions."""
    v = []
    if not db.actions:
        v.append("action database must contain at least one action")
    seen = set()
    for a in db.actions:
        if a.id in seen:
            v.append(f"duplicate action id {a.id!r}")
        seen.add(a.id)
        v.extend(validate_profile(db.schema, a.profile, f"action {a.id!r}"))
        for key in a.target_criteria.requirements:
            if not key:
                v.append(f"action {a.id!r}: empty criteria key")
        if a.id in a.prerequisites:
            v.append(f"action {a.id!r} lists itself as a prerequisite")
        for pre in sorted(a.prerequisites):
            if pre not in db.by_id:
                v.append(f"action {a.id!r}: unknown prerequisite {pre!r}")
        if not 0.0 <= a.success_probability <= 1.0:
            v.append(f"action {a.id!r}: success_probability must be in "
                     "[0, 1]")
        if a.effect not in EFFECTS:
            v.append(f"action {a.id!r}: unknown effect {a.effect!r}")
    try:
        for prop in db.schema:
            if prop.kind == UNBOUNDED_RANGE and db.actions:
                vals = [float(a.profile[prop.name]) for a in db.actions]
                lo, hi = min(vals), max(vals)
                if isfinite(lo) and isfinite(hi) and not isfinite(hi - lo):
                    v.append(f"property {prop.name!r}: max - min of the "
                             "action values must be finite")
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    v.extend(db._find_cycles())
    return v


def action_db_from_dict(doc, schema):
    """The database and the error list the reference loader gives: a
    ValidationFailure's errors, or an empty list."""
    errors = document(doc, {"actions"}, "action document")
    actions = []
    for i, ad in enumerate(container(doc.get("actions", []), list,
                                     "actions", errors)):
        action = action_from_dict(ad, errors, i)
        if action is not None:
            actions.append(action)
    db = ActionDatabase(actions, schema)
    errors.extend(validate(db))
    if errors:
        raise ValidationFailure("invalid action database", errors)
    return db
