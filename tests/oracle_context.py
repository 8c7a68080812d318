"""A reference build of DecisionContext's static fields, action by action.

Everything here walks one action, one value or one row at a time and
re-derives what it needs on each step, as the rules read in the module
docstrings of profiles.py and engine.py: each value is scaled on its own
(the label's index, the population's min and max found again for every
value), each action gets its channel bitmask and the index of its
criteria in order, each node keeps the rows whose criteria match it, and
each distance is summed slot by slot for one row. The engine builds the
same fields one column at a time; tests/test_oracle_context.py requires
every field, and every distance's float, to be equal.
"""

from math import sqrt

from attacksim.actions import criteria_match
from attacksim.profiles import (
    BOUNDED_RANGE,
    ORDERED_SET,
    UNBOUNDED_RANGE,
    UNORDERED_SET,
)


def scale_value(prop, value, population):
    """One raw value on the [0, 1] scale of its property, or the label
    itself for an unordered-set property."""
    if prop.kind == UNORDERED_SET:
        return value
    if prop.kind == ORDERED_SET:
        labels = prop.allowed_values
        if value not in labels:
            raise ValueError(f"{prop.name}: unknown label {value!r}")
        return 0.5 if len(labels) == 1 else (
            labels.index(value) / (len(labels) - 1))
    if prop.kind == BOUNDED_RANGE:
        if not prop.lower <= value <= prop.upper:
            raise ValueError(f"{prop.name}: value {value} outside bounds")
        return (value - prop.lower) / (prop.upper - prop.lower)
    lo, hi = min(population), max(population)
    if hi == lo:
        return 0.5
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def populations(db, extra=None):
    """Every action's value of each unbounded property, and `extra`'s
    value too when given: the attacker's, which extends the range."""
    return {p.name: [float(a.profile[p.name]) for a in db.actions]
            + ([float(extra[p.name])] if extra is not None else [])
            for p in db.schema if p.kind == UNBOUNDED_RANGE}


def scale_values(schema, values, pops):
    return tuple(scale_value(p, values[p.name], pops.get(p.name))
                 for p in schema)


def distance_row(theta, gamma, inv_beta_sq, unordered):
    """One row's distance, its terms added in slot order from 0.0."""
    acc = 0.0
    for j in range(len(theta)):
        if unordered[j]:
            diff = 0.0 if theta[j] == gamma[j] else 1.0
        else:
            diff = theta[j] - gamma[j]
        acc += inv_beta_sq[j] * diff * diff
    return sqrt(acc)


def reference_context(system, db):
    """The context's static fields ``action_profiles``, ``inv_beta_sq``,
    ``unordered_mask``, ``action_mask`` and ``actions_for``; each node's
    rows are matched through the index of their action's criteria."""
    pops = populations(db)
    names = sorted({c for e in system.edges for c in e.channels}
                   | {c for a in db.actions for c in a.channels})
    bit = {c: 1 << i for i, c in enumerate(names)}
    distinct = {}  # criteria content -> index, in order of first use
    criteria = []
    rows = []  # (criteria index, row) per action, in canonical order
    for a in db.actions:
        mask = 0
        for c in a.channels:
            mask |= bit[c]
        key = frozenset(a.target_criteria.requirements.items())
        if key not in distinct:
            distinct[key] = len(criteria)
            criteria.append(a.target_criteria)
        rows.append((distinct[key], (a.id, mask, a.prerequisites)))
    actions_for = {}
    for node in system.nodes:
        actions_for[node.id] = tuple(
            row for i, row in rows
            if criteria_match(criteria[i], node))
    return {
        "action_profiles": {a.id: scale_values(db.schema, a.profile, pops)
                            for a in db.actions},
        "inv_beta_sq": [1.0 / (p.criticality * p.criticality)
                        for p in db.schema],
        "unordered_mask": [p.kind == UNORDERED_SET for p in db.schema],
        "action_mask": {row[0]: row[1] for _, row in rows},
        "actions_for": actions_for,
    }


def reference_distances(db, attacker, ref):
    """The attacker's scaled profile and its distance to every action,
    by action id, row by row over `ref`'s scaled profiles."""
    theta = scale_values(db.schema, attacker.values,
                         populations(db, attacker.values))
    return theta, {
        aid: distance_row(theta, gamma, ref["inv_beta_sq"],
                          ref["unordered_mask"])
        for aid, gamma in ref["action_profiles"].items()}
