"""The fresh-node memo against the brute-force filter oracle and a fresh
assessment.

A node with no attempted or succeeded action has candidates that depend
only on the attacker's scaled profile, the node and the channels of its
live edges, so DecisionContext keeps each such scan, empty or not. The
memo is read wherever the engine derives a node's candidates, so each
served entry is found by its key: for every fresh open node whose key
was served, the entry must hold the oracle's candidates and a fresh
single-pair distance for each. Only `step` scores, so an entry holds
scores exactly when a decision has drawn from it, and those are the
engine's scores of its distances and the total that divides them into
the engine's probabilities; an entry no decision drew from holds None,
None. A decision on a fresh target must record the entry's id and
distance tuples themselves, and leave the entry scored. Episodes run
on generated instances, with direct knowledge edits between steps so the
live channels vary. A profile name whose values change between runs of
one context must get its own entries, two names with equal values must
share them, a memo that never stores must give the same traces, and a
pickled context must keep its entries. The score kernel runs at most
once per entry, plus once per decision on a target with history.
"""

import operator
import pickle
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim import _kernels, engine
from attacksim.actions import load_action_db
from attacksim.engine import (
    AttackState,
    DecisionContext,
    _live_mask,
    distance,
    filter_valid,
    step,
)
from attacksim.harness import SimConfig, _episode_batch, resolve_mode, trace_to_dict
from attacksim.model import load_system, reveal_on_compromise
from attacksim.profiles import AttackerProfile, load_profiles

from genrand import random_instance, random_value
from oracle_filter import brute_force_valid

pytestmark = pytest.mark.hashseed


class RecordingMemo(dict):
    """The fresh-node memo, recording the key of every entry a lookup
    finds until the next check clears them, and, as `run_episode` marks
    them, the key of every entry a decision has drawn from."""

    def __init__(self):
        super().__init__()
        self.served = set()
        self.drawn = set()

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            self.served.add(key)
        return found


class NeverStores(dict):
    """A fresh-node memo that keeps nothing, so every scan is scored anew."""

    def __setitem__(self, key, value):
        pass


def recording_context(system, db):
    ctx = DecisionContext(system, db)
    ctx.fresh = RecordingMemo()
    return ctx


def is_fresh(state, nid):
    return not state.attempted.get(nid) and not state.succeeded.get(nid)


def check_assessment(entry, drawn):
    """A memo entry holds scores exactly when a decision has drawn from
    it, and those are the engine's scores of its distances and the total
    that divides them into the engine's probabilities."""
    _, dists, s, total = entry
    if not drawn:
        assert (s, total) == (None, None)
        return
    assert s is not None, "a decision drew from an unscored entry"
    assert list(s) == engine.scores(dists)
    assert [x / total for x in s] == engine.probabilities(s)


def check_scored_entries(ctx, records=()):
    """`check_assessment` on every memo entry: drawn from if
    `run_episode` marked its key, or if one of `records`, which the
    caller keeps alive, holds its id tuple."""
    drawn = {id(rec.action_ids) for rec in records}
    for key, entry in ctx.fresh.items():
        check_assessment(entry, key in ctx.fresh.drawn
                         or id(entry[0]) in drawn)


def check_fresh_nodes(state):
    """Filter every fresh open node; then each one whose memo key was
    served since the last check must find the oracle's candidates with
    fresh distances under it, scored exactly when drawn from. Returns
    the hits, served non-empty entries, and the memo key of every fresh
    open node."""
    ctx = state.ctx
    beta = [p.criticality for p in ctx.db.schema]
    k = state.knowledge
    fresh = [nid for nid in sorted(k.known_nodes - k.compromised_nodes)
             if is_fresh(state, nid)]
    want = {nid: tuple(sorted(brute_force_valid(state, nid)))
            for nid in fresh}
    for nid in fresh:
        assert filter_valid(state, nid) == want[nid]
    keys = {nid: (state.theta, nid, _live_mask(state, nid)) for nid in fresh}
    hits = 0
    for nid, key in keys.items():
        if key not in ctx.fresh.served:
            continue
        ids, dists = ctx.fresh[key][:2]
        assert ids == want[nid]
        assert dists == tuple(
            distance(state.theta, ctx.action_profiles[a], beta)
            for a in ids)
        check_assessment(ctx.fresh[key], key in ctx.fresh.drawn)
        hits += bool(ids)
    ctx.fresh.served.clear()
    return hits, keys


def run_episode(ctx, attacker, rng, edit=0.25):
    """One episode, checked before every step, with each record of a
    decision on a fresh target checked against the memo's entry, which
    the decision must leave scored and which is marked drawn from; with
    probability `edit` a step is followed by a direct knowledge edit.
    Returns the hits."""
    state = AttackState(ctx, attacker)
    hits = 0
    for _ in range(80):
        served, keys = check_fresh_nodes(state)
        hits += served
        rec = step(state, rng)
        if rec is None:
            break
        if rec.target in keys:
            entry = ctx.fresh[keys[rec.target]]
            columns = rec.action_ids, rec.distances
            assert all(map(operator.is_, entry[:2], columns))
            ctx.fresh.drawn.add(keys[rec.target])
            check_assessment(entry, True)
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


def trace_dicts(traces):
    return list(map(trace_to_dict, traces))


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
    check_scored_entries(ctx)


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
        check_scored_entries(ctx)


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
    assert check_fresh_nodes(state)[0] == sum(
        1 for n in k.known_nodes - k.compromised_nodes
        if brute_force_valid(state, n))
    assert set(ctx.fresh) == keys
    check_scored_entries(ctx)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_a_memo_that_never_stores_gives_the_same_traces(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    config = SimConfig(12, seed=seed)
    plain = DecisionContext(system, db)
    plain.fresh = NeverStores()
    assert trace_dicts(_episode_batch(
        DecisionContext(system, db), attacker, config, 0, 12)) == trace_dicts(
        _episode_batch(plain, attacker, config, 0, 12))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_a_pickled_context_keeps_its_entries(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    config = SimConfig(12, seed=seed)
    ctx = DecisionContext(system, db)
    traces = _episode_batch(ctx, attacker, config, 0, 12)
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy.fresh == ctx.fresh
    assert trace_dicts(_episode_batch(
        copy, attacker, config, 0, 12)) == trace_dicts(traces)
    # the same episodes again find every scan they need in the copy
    assert copy.fresh.keys() == ctx.fresh.keys()


def check_scored_once(ctx, mode, config):
    """The score kernel runs at most once per fresh-memo entry, plus once
    per decision on a target with history: one that an earlier decision
    of its episode attempted. Every episode's first decision is on a
    fresh target, so scoring each decision anew breaks the bound."""
    calls = []
    kernel = _kernels.scores_from_distances

    def counting(d):
        calls.append(None)
        return kernel(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "scores_from_distances", counting)
        traces = _episode_batch(ctx, mode, config, 0, config.episode_count)
    history = 0
    for trace in traces:
        seen = set()
        for rec in trace.records:
            history += rec.target in seen
            seen.add(rec.target)
    assert len(calls) <= len(ctx.fresh) + history


def test_fixture_batch_scores_each_entry_once(cstr_paths):
    profiles = load_profiles(cstr_paths["profiles"])
    system = load_system(cstr_paths["system"])
    db = load_action_db(cstr_paths["actions"], profiles.schema)
    config = SimConfig(200, seed=11)
    check_scored_once(DecisionContext(system, db),
                      resolve_mode(profiles, config), config)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_batch_scores_each_entry_once(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    check_scored_once(DecisionContext(system, db), attacker,
                      SimConfig(12, seed=seed))
