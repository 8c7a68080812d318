"""The per-state candidate cache against the brute-force filter oracle.

Episodes run on generated instances with up to 40 actions, so targets are
retried after failed attempts and the cached ids and distances are reused.
Before every step, and after each direct edit of the state that keeps the
grow-only contract (see AttackState), every open node's candidates must
equal the oracle's, and every record's distances must equal a fresh
single-pair distance.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from attacksim.engine import AttackState, DecisionContext, distance, filter_valid, step
from attacksim.model import CpsKnowledge, reveal_on_compromise

from genrand import random_instance
from oracle_filter import brute_force_valid


def open_nodes(state):
    k = state.knowledge
    return sorted(k.known_nodes - k.compromised_nodes)


def expected(state, target):
    return sorted(brute_force_valid(state, target))


def assert_matches_oracle(state):
    for nid in open_nodes(state):
        assert filter_valid(state, nid) == expected(state, nid)


def assert_fresh_after(state, target, edit):
    """Score `target` (filling the cache), apply `edit`, and check that the
    next result for `target`, then for every open node, is the oracle's."""
    filter_valid(state, target)
    edit()
    assert filter_valid(state, target) == expected(state, target)
    assert_matches_oracle(state)


def edit_state(state, rng):
    """Direct edits a caller may make between steps, each one checked."""
    nodes = [n for n in open_nodes(state) if brute_force_valid(state, n)]
    if not nodes:
        return
    cur = state.current_target
    t = cur if cur in nodes else rng.choice(nodes)

    untried = rng.choice(expected(state, t))
    assert_fresh_after(state, t, lambda: state.attempted.setdefault(
        t, set()).add(untried))

    # A prerequisite where there is one, so the edit can unlock candidates.
    succeeded = state.succeeded.get(t, set())
    unlocking = sorted({p for a in state.db.actions for p in a.prerequisites}
                       - succeeded)
    others = sorted(set(state.db.by_id) - succeeded)
    if unlocking or others:
        added = rng.choice(unlocking or others)
        assert_fresh_after(state, t, lambda: state.succeeded.setdefault(
            t, set()).add(added))

    k = state.knowledge

    def equal_copy():
        state.knowledge = CpsKnowledge(k.known_nodes, k.known_edges,
                                       k.compromised_nodes)
    assert_fresh_after(state, t, equal_copy)

    # The revealed node may be t itself, so only the open nodes are checked.
    filter_valid(state, t)
    state.knowledge = reveal_on_compromise(
        state.knowledge, state.system, rng.choice(open_nodes(state)))
    assert_matches_oracle(state)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_cached_candidates_match_brute_force_oracle(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = DecisionContext(system, db)
    beta = [p.criticality for p in db.schema]
    for _ in range(4):
        run_checked_episode(AttackState(ctx, attacker), rng, beta)


def run_checked_episode(state, rng, beta):
    ctx = state.ctx
    for _ in range(80):
        assert_matches_oracle(state)
        before = {n: expected(state, n) for n in open_nodes(state)}
        result = step(state, rng)
        if result is None:
            assert not any(before.values())
            break
        rec = result[1]
        assert list(rec.action_ids) == before[rec.target]
        assert rec.distances == tuple(
            distance(state.theta, ctx.action_profiles[a], beta)
            for a in rec.action_ids)
        if rng.random() < 0.25:
            edit_state(state, rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_returned_list_is_the_callers(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    state = AttackState(DecisionContext(system, db), attacker)
    for _ in range(20):
        for nid in open_nodes(state):
            got = filter_valid(state, nid)
            want = list(got)
            got.append("not-an-action")
            got.reverse()
            assert filter_valid(state, nid) == want
            filter_valid(state, nid).clear()
            assert filter_valid(state, nid) == want
        if step(state, rng) is None:
            break
