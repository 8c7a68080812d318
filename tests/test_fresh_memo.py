"""The fresh-node memo against the brute-force filter oracle.

A node with no attempted or succeeded action has candidates that depend
only on the attacker's scaled profile, the node and the channels of its
live edges, so DecisionContext keeps each such scan, empty or not. The
memo is read wherever the engine derives a node's candidates, so each
served entry is found by its key: for every fresh open node whose key
was served, the entry must equal the oracle's candidates and a fresh
single-pair distance for each. Episodes run on generated instances, with
direct knowledge edits between steps so the live channels vary. A
profile name whose values change between runs of one context must get
its own entries, and two names with equal values must share them.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from attacksim.engine import (
    AttackState,
    DecisionContext,
    _live_mask,
    distance,
    filter_valid,
    step,
)
from attacksim.model import reveal_on_compromise
from attacksim.profiles import AttackerProfile

from genrand import random_instance, random_value
from oracle_filter import brute_force_valid


class RecordingMemo(dict):
    """The fresh-node memo, recording the key of every entry a lookup
    finds until the next check clears them."""

    def __init__(self):
        super().__init__()
        self.served = set()

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            self.served.add(key)
        return found


def recording_context(system, db):
    ctx = DecisionContext(system, db)
    ctx.fresh = RecordingMemo()
    return ctx


def is_fresh(state, nid):
    return not state.attempted.get(nid) and not state.succeeded.get(nid)


def check_fresh_nodes(state):
    """Score every fresh open node; then each one whose memo key was
    served since the last check must find the oracle's candidates with
    fresh distances under it. Returns the hits: served, non-empty
    entries."""
    ctx = state.ctx
    beta = [p.criticality for p in ctx.db.schema]
    k = state.knowledge
    fresh = [nid for nid in sorted(k.known_nodes - k.compromised_nodes)
             if is_fresh(state, nid)]
    want = {nid: sorted(brute_force_valid(state, nid)) for nid in fresh}
    for nid in fresh:
        assert filter_valid(state, nid) == want[nid]
    hits = 0
    for nid in fresh:
        key = (state.theta, nid, _live_mask(state, nid))
        if key not in ctx.fresh.served:
            continue
        ids, dists = ctx.fresh[key]
        assert list(ids) == want[nid]
        assert dists == tuple(
            distance(state.theta, ctx.action_profiles[a], beta)
            for a in ids)
        hits += bool(ids)
    ctx.fresh.served.clear()
    return hits


def run_episode(ctx, attacker, rng, edit=0.25):
    """One episode, checked before every step; with probability `edit`
    a step is followed by a direct knowledge edit. Returns the hits."""
    state = AttackState(ctx, attacker)
    hits = 0
    for _ in range(80):
        hits += check_fresh_nodes(state)
        if step(state, rng) is None:
            break
        k = state.knowledge
        open_nodes = sorted(k.known_nodes - k.compromised_nodes)
        if open_nodes and rng.random() < edit:
            state.knowledge = reveal_on_compromise(k, state.system,
                                                   rng.choice(open_nodes))
    return hits


def has_open_candidate(ctx, attacker):
    state = AttackState(ctx, attacker)
    k = state.knowledge
    return any(brute_force_valid(state, n)
               for n in k.known_nodes - k.compromised_nodes)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_memo_hits_match_brute_force_oracle(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = recording_context(system, db)
    hits = [run_episode(ctx, attacker, rng) for _ in range(4)]
    # the first episode fills the entries of the starting knowledge, so
    # every later episode starts on hits
    assert all(hits[1:]) or not has_open_candidate(ctx, attacker)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_changed_profile_values_are_not_served_stale(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    other = AttackerProfile(attacker.name, {
        p.name: random_value(rng, p) for p in db.schema})
    ctx = recording_context(system, db)
    for profile in (attacker, other, attacker, other):
        run_episode(ctx, profile, rng)
        assert AttackState(ctx, profile).theta == AttackState(
            DecisionContext(system, db), profile).theta


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equal_profiles_share_entries(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    twin = AttackerProfile(attacker.name + "-twin", dict(attacker.values))
    ctx = recording_context(system, db)
    run_episode(ctx, attacker, rng, edit=0.0)
    keys = set(ctx.fresh)
    state = AttackState(ctx, twin)
    k = state.knowledge
    # every open node with a candidate is served from the attacker's entries
    assert check_fresh_nodes(state) == sum(
        1 for n in k.known_nodes - k.compromised_nodes
        if brute_force_valid(state, n))
    assert set(ctx.fresh) == keys
