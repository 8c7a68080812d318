"""The per-state candidate table against the brute-force filter oracle.

Episodes run on generated instances with up to 40 actions, so targets are
retried after failed attempts and the ids and distances kept in the table
are reused. Before every step, and after each direct edit of the state
that keeps the grow-only contract (see AttackState), every open node's
candidates must equal the oracle's, the nodes a retarget draws from (the
table's sorted keys) must be the sorted open nodes the oracle gives
candidates, and every record's distances must equal a fresh single-pair
distance. A second run leaves the table unread between edits and steps
and checks each retarget's draw instead, so the table is also kept by
steps that follow an edit.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.engine import (
    FAILURE,
    AttackState,
    DecisionContext,
    distance,
    filter_valid,
    open_targets,
    step,
)
from attacksim.actions import Action, ActionDatabase, TargetCriteria
from attacksim.model import (
    CpsKnowledge,
    CpsSystem,
    EXTERNAL_ORIGIN,
    Edge,
    Node,
    reveal_on_compromise,
)
from attacksim.profiles import AttackerProfile, ProfileSchema, PropertySchema

from genrand import random_instance
from oracle_filter import brute_force_valid

pytestmark = pytest.mark.hashseed


def open_nodes(state):
    k = state.knowledge
    return sorted(k.known_nodes - k.compromised_nodes)


def expected(state, target):
    return tuple(sorted(brute_force_valid(state, target)))


def drawable(state):
    """The oracle's retarget list: sorted open nodes with a candidate."""
    return [n for n in open_nodes(state) if brute_force_valid(state, n)]


def check_candidates(state):
    """Every open node's candidates against the oracle's."""
    for nid in open_nodes(state):
        assert filter_valid(state, nid) == expected(state, nid)


def assert_matches_oracle(state):
    check_candidates(state)
    assert open_targets(state) == drawable(state)


def assert_fresh_after(state, target, edit, check):
    """Score `target` (filling the cache), apply `edit`, and check that the
    next result for `target` is the oracle's, then run `check`."""
    filter_valid(state, target)
    edit()
    assert filter_valid(state, target) == expected(state, target)
    check(state)


def edit_state(state, rng, check=assert_matches_oracle):
    """Direct edits a caller may make between steps, each one followed by
    `check`."""
    nodes = drawable(state)
    if not nodes:
        return
    cur = state.current_target
    t = cur if cur in nodes else rng.choice(nodes)

    untried = rng.choice(expected(state, t))
    assert_fresh_after(state, t, lambda: state.attempted.setdefault(
        t, set()).add(untried), check)

    # A prerequisite where there is one, so the edit can unlock candidates.
    succeeded = state.succeeded.get(t, set())
    unlocking = sorted({p for a in state.db.actions for p in a.prerequisites}
                       - succeeded)
    others = sorted(set(state.db.by_id) - succeeded)
    if unlocking or others:
        added = rng.choice(unlocking or others)
        assert_fresh_after(state, t, lambda: state.succeeded.setdefault(
            t, set()).add(added), check)

    k = state.knowledge

    def equal_copy():
        state.knowledge = CpsKnowledge(k.known_nodes, k.known_edges,
                                       k.compromised_nodes)
    assert_fresh_after(state, t, equal_copy, check)

    # The revealed node may be t itself, so only the open nodes are checked.
    filter_valid(state, t)
    state.knowledge = reveal_on_compromise(
        state.knowledge, state.system, rng.choice(open_nodes(state)))
    check(state)


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
        rec = step(state, rng)
        if rec is None:
            assert not any(before.values())
            break
        assert rec.action_ids == before[rec.target]
        assert rec.distances == tuple(
            distance(state.theta, ctx.action_profiles[a], beta)
            for a in rec.action_ids)
        if rng.random() < 0.25:
            edit_state(state, rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_returned_ids_are_the_tables_tuple(seed):
    """Every read of an open target returns the table's own tuple of the
    oracle's ids; a failed decision on it replaces the table's entry and
    leaves the tuple an earlier read returned, which the record shares,
    as it was."""
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    state = AttackState(DecisionContext(system, db), attacker)
    for _ in range(20):
        reads, want = {}, {}
        for nid in open_nodes(state):
            got = reads[nid] = filter_valid(state, nid)
            want[nid] = expected(state, nid)
            assert type(got) is tuple
            assert got == want[nid]
            assert filter_valid(state, nid) is got
        rec = step(state, rng)
        if rec is None:
            break
        if rec.outcome == FAILURE:
            earlier = reads[rec.target]
            assert rec.action_ids is earlier
            assert earlier == want[rec.target] and rec.chosen in earlier
            if rec.target in open_targets(state):
                assert rec.chosen not in filter_valid(state, rec.target)


class RecordingRandom(Random):
    """A Random that records the arguments and result of every randrange:
    a retarget's list length and drawn index."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        r = super().randrange(*args)
        self.draws.append((args, r))
        return r


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_retargets_draw_from_brute_force_list(seed):
    rng = RecordingRandom(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = DecisionContext(system, db)
    for _ in range(4):
        state = AttackState(ctx, attacker)
        for _ in range(80):
            want = drawable(state)
            rng.draws.clear()
            rec = step(state, rng)
            if rec is None:
                assert not want
                break
            if rng.draws:
                [((n,), r)] = rng.draws
                assert n == len(want)
                assert rec.target == want[r]
            edit = rng.random()
            if edit < 0.25:
                edit_state(state, rng, check_candidates)
            elif edit < 0.35 and open_nodes(state):
                # a knowledge edit alone leaves the history sizes as they are
                state.knowledge = reveal_on_compromise(
                    state.knowledge, state.system,
                    rng.choice(open_nodes(state)))


def test_compromise_opens_a_predecessor_known_by_an_edit():
    """An edit may know a live edge into a node it does not know. When a
    compromise then reveals that node as a predecessor, not a successor,
    of the compromised node, the node opens all the same."""
    schema = ProfileSchema([PropertySchema("Skill", "bounded-range",
                                           lower=0, upper=10)])
    host = {"kind": "host"}
    system = CpsSystem(
        nodes=[Node("G", attributes=host), Node("Q", attributes=host),
               Node("P", attributes=host, is_target=True)],
        edges=[Edge("E1", EXTERNAL_ORIGIN, "G", frozenset({"net"}),
                    is_attack_vector=True, is_entry_point=True),
               Edge("L", "P", "G", frozenset({"net"}),
                    is_attack_vector=True),
               Edge("M", "Q", "P", frozenset({"net"}),
                    is_attack_vector=True)])
    db = ActionDatabase([Action(
        id="a", name="a", profile={"Skill": 5},
        target_criteria=TargetCriteria({"kind": frozenset({"host"})}),
        channels=frozenset({"net"}), success_probability=1.0)], schema)
    state = AttackState(DecisionContext(system, db),
                        AttackerProfile("x", {"Skill": 5}))
    k = state.knowledge
    state.knowledge = CpsKnowledge(k.known_nodes | {"Q"},
                                   k.known_edges | {"M"}, frozenset({"Q"}))
    assert open_targets(state) == drawable(state) == ["G"]
    assert step(state, Random(0)).target == "G"
    assert open_targets(state) == drawable(state) == ["P"]


class ScriptedRandom:
    """An rng that draws the given retarget indices in turn and 0.5 for
    every other draw."""

    def __init__(self, picks):
        self.picks = list(picks)

    def randrange(self, n):
        return self.picks.pop(0)

    def random(self):
        return 0.5


def test_compromise_reopens_a_dropped_node_with_its_untried_actions():
    """Every action on G fails, so G is dropped. Compromising Q then
    opens a second channel into G, and G comes back with only the
    action it has not tried: the one path on which `step` alone rescans a
    node with history."""
    schema = ProfileSchema([PropertySchema("Skill", "bounded-range",
                                           lower=0, upper=10)])
    system = CpsSystem(
        nodes=[Node("G", attributes={"kind": "g"}, is_target=True),
               Node("Q", attributes={"kind": "q"})],
        edges=[Edge("E1", EXTERNAL_ORIGIN, "G", frozenset({"net"}),
                    is_attack_vector=True, is_entry_point=True),
               Edge("E2", EXTERNAL_ORIGIN, "Q", frozenset({"net"}),
                    is_attack_vector=True, is_entry_point=True),
               Edge("L", "Q", "G", frozenset({"usb"}),
                    is_attack_vector=True)])

    def action(aid, kind, channels, success):
        return Action(id=aid, name=aid, profile={"Skill": 5},
                      target_criteria=TargetCriteria(
                          {"kind": frozenset({kind})}),
                      channels=frozenset(channels),
                      success_probability=success)
    db = ActionDatabase([action("a", "g", {"net", "usb"}, 0.0),
                         action("b", "g", {"usb"}, 0.0),
                         action("q", "q", {"net"}, 1.0)], schema)
    state = AttackState(DecisionContext(system, db),
                        AttackerProfile("x", {"Skill": 5}))
    rng = ScriptedRandom([0, 0, 0])
    records = [step(state, rng) for _ in range(3)]
    assert [(r.target, r.action_ids, r.outcome) for r in records] == [
        ("G", ("a",), "failure"),
        ("Q", ("q",), "success"),
        ("G", ("b",), "failure")]
    assert step(state, rng) is None
    assert rng.picks == []
