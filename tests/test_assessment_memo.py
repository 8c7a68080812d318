"""The assessment memo against a fresh assessment.

A decision on a fresh target, one with no attempted or succeeded action,
assesses the fresh-node memo's distance tuple, so DecisionContext keeps
its scores and probabilities beside that memo, keyed by the tuple's id.
Every served entry must hold the engine's scores and probabilities of
the record's distances, and the record must hold the memo's tuples
themselves. Episodes run on generated instances, with direct knowledge
edits between steps so the live channels of a node vary. A context
whose memo never stores must give the same traces, a profile name whose
values change between runs of one context must get its own entries, and
a pickled context must leave the memo out.
"""

import pickle
from random import Random

from hypothesis import given, settings, strategies as st

from attacksim import engine
from attacksim.engine import AttackState, DecisionContext, step
from attacksim.harness import SimConfig, _episode_batch, trace_to_dict
from attacksim.model import reveal_on_compromise
from attacksim.profiles import AttackerProfile

from genrand import random_instance, random_value


class RecordingMemo(dict):
    """The assessment memo, recording the entry each lookup finds and
    the key of each store until `reset`."""

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self):
        self.found = []
        self.stored = []

    def get(self, key, default=None):
        found = super().get(key, default)
        self.found.append((key, found))
        return found

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


class NeverStores(dict):
    """An assessment memo that keeps nothing, so every decision assesses."""

    def __setitem__(self, key, value):
        pass


def context(system, db, memo):
    ctx = DecisionContext(system, db)
    ctx.assessed = memo
    return ctx


def is_fresh(state, nid):
    return not state.attempted.get(nid) and not state.succeeded.get(nid)


def checked_step(state, rng):
    """One step; if its target was fresh, the record must hold the memo's
    tuples under the id of its distances, served or stored, and a served
    entry must equal a fresh assessment of the record's distances.
    Returns the record, or None at the episode's end, and whether an
    entry was served."""
    memo = state.ctx.assessed
    k = state.knowledge
    fresh = {nid for nid in k.known_nodes - k.compromised_nodes
             if is_fresh(state, nid)}
    memo.reset()
    result = step(state, rng)
    if result is None:
        return None, False
    rec = result[1]
    if rec.target not in fresh:
        assert not memo.found and not memo.stored
        return rec, False
    key = id(rec.distances)
    (looked_up, found), = memo.found
    assert looked_up == key
    served = not memo.stored
    if served:
        _, s, p = found
        assert s == tuple(engine.scores(rec.distances))
        assert p == tuple(engine.probabilities(s))
    else:
        assert memo.stored == [key]
    d, s, p = memo[key]
    assert d is rec.distances
    assert s is rec.scores
    assert p is rec.probabilities
    return rec, served


def run_episode(ctx, attacker, rng, edit=0.25):
    """One episode, checked at every step; with probability `edit` a step
    is followed by a direct knowledge edit. Returns the served count."""
    state = AttackState(ctx, attacker)
    served = 0
    for _ in range(80):
        rec, hit = checked_step(state, rng)
        if rec is None:
            break
        served += hit
        k = state.knowledge
        open_nodes = sorted(k.known_nodes - k.compromised_nodes)
        if open_nodes and rng.random() < edit:
            state.knowledge = reveal_on_compromise(k, state.system,
                                                   rng.choice(open_nodes))
    return served


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_served_entries_match_a_fresh_assessment(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = context(system, db, RecordingMemo())
    for _ in range(4):
        run_episode(ctx, attacker, rng)
    # each entry holds the distances of a non-empty fresh-node entry,
    # under their id
    fresh = {id(d): d for ids, d in ctx.fresh.values() if ids}
    assert len(ctx.assessed) <= len(fresh)
    assert all(fresh.get(key) is entry[0]
               for key, entry in ctx.assessed.items())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_a_memo_that_never_stores_gives_the_same_traces(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    config = SimConfig(12, seed=seed)
    memo = RecordingMemo()
    traces = _episode_batch(context(system, db, memo), attacker, config,
                            0, 12)
    plain = _episode_batch(context(system, db, NeverStores()), attacker,
                           config, 0, 12)
    assert list(map(trace_to_dict, traces)) == list(map(trace_to_dict, plain))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_changed_profile_values_get_their_own_entries(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    other = AttackerProfile(attacker.name, {
        p.name: random_value(rng, p) for p in db.schema})
    ctx = context(system, db, RecordingMemo())
    thetas = set()
    for profile in (attacker, other, attacker, other):
        theta = AttackState(ctx, profile).theta
        thetas.add(theta)
        before = set(ctx.assessed)
        run_episode(ctx, profile, rng)
        # an entry added by this run holds distances the fresh-node memo
        # keeps under this run's profile
        owner = {id(d): key[0] for key, (_, d) in ctx.fresh.items()}
        assert all(owner[key] == theta for key in set(ctx.assessed) - before)
    assert {owner[key] for key in ctx.assessed} <= thetas


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_a_pickled_context_leaves_the_memo_out(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    config = SimConfig(12, seed=seed)
    ctx = DecisionContext(system, db)
    traces = _episode_batch(ctx, attacker, config, 0, 12)
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy.assessed == {}
    copy.assessed = RecordingMemo()
    assert list(map(trace_to_dict, _episode_batch(
        copy, attacker, config, 0, 12))) == list(map(trace_to_dict, traces))
    fresh = {id(d): d for ids, d in copy.fresh.values() if ids}
    assert all(fresh.get(key) is entry[0]
               for key, entry in copy.assessed.items())
