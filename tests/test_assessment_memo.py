"""The fresh-node memo's assessment against a fresh assessment.

A fresh-node entry carries the scores of its distances and their total,
filled once when the entry is stored. Every entry a lookup serves must
hold the engine's scores of its distances and the total that divides
them into the engine's probabilities, and every record must derive the
engine's scores and probabilities from its distances. A profile name
whose values change between runs of one context must get its own
entries, each holding the distances of the profile in its key.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim import engine
from attacksim.engine import AttackState, DecisionContext, distance
from attacksim.harness import SimConfig, _episode_batch
from attacksim.profiles import AttackerProfile

from genrand import random_instance, random_value
from test_fresh_memo import RecordingMemo, run_episode

pytestmark = pytest.mark.hashseed


def assessed(dists):
    s = tuple(engine.scores(dists)) if dists else ()
    return s, tuple(engine.probabilities(s)) if s else ()


def check_entry(entry):
    """A memo entry's scores and total against a fresh assessment."""
    _, dists, s, total = entry
    assert (s, tuple(x / total for x in s)) == assessed(dists)


class CheckedMemo(RecordingMemo):
    """The fresh-node memo, checking each entry a lookup serves."""

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            check_entry(found)
        return found


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_served_entries_match_a_fresh_assessment(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = DecisionContext(system, db)
    ctx.fresh = CheckedMemo()
    for _ in range(4):
        run_episode(ctx, attacker, rng)
    for trace in _episode_batch(ctx, attacker, SimConfig(8, seed=seed), 0, 8):
        for rec in trace.records:
            assert (rec.scores, rec.probabilities) == assessed(rec.distances)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_changed_profile_values_get_their_own_entries(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    other = AttackerProfile(attacker.name, {
        p.name: random_value(rng, p) for p in db.schema})
    ctx = DecisionContext(system, db)
    ctx.fresh = CheckedMemo()
    thetas = set()
    for profile in (attacker, other, attacker, other):
        theta = AttackState(ctx, profile).theta
        thetas.add(theta)
        before = set(ctx.fresh)
        run_episode(ctx, profile, rng)
        # an entry added by this run is keyed by this run's profile
        assert all(key[0] == theta for key in set(ctx.fresh) - before)
    assert {key[0] for key in ctx.fresh} <= thetas
    # and holds that profile's distances, assessed
    beta = [p.criticality for p in db.schema]
    for (theta, _, _), entry in ctx.fresh.items():
        ids, dists = entry[:2]
        assert dists == tuple(
            distance(theta, ctx.action_profiles[a], beta) for a in ids)
        check_entry(entry)
