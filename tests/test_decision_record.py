"""The decision record and the knowledge transition, field by field.

`step` builds each DecisionRecord positionally and `reveal_on_compromise`
builds each CpsKnowledge positionally, so two arguments passed in the
wrong order would give values of the right shape in the wrong fields.
Every record of fixture runs and of generated episodes is checked
against what each field must hold, and every knowledge transition
against one built by keyword. Records cross process boundaries as
pickles (`--jobs` workers send back whole traces), so a trace must come
back equal, its records still DecisionRecords.
"""

import pickle
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim import engine
from attacksim.cli import load_inputs
from attacksim.engine import (
    FAILURE,
    SUCCESS,
    AttackState,
    DecisionContext,
    DecisionRecord,
    step,
)
from attacksim.harness import SimConfig, run_monte_carlo, trace_to_dict
from attacksim.model import (
    EXTERNAL_ORIGIN,
    CpsKnowledge,
    initial_knowledge,
    reveal_on_compromise,
)

from genrand import random_instance

FIELDS = ("target", "action_ids", "distances", "chosen", "chosen_name",
          "probability", "outcome", "source", "via_edges")


def load_cstr(cstr_paths):
    return load_inputs(cstr_paths["system"], cstr_paths["actions"],
                       cstr_paths["profiles"])


def check_record(rec, system, db, dist):
    """Each field of an engine record against what it must hold; `dist`
    maps every action id to its distance from the episode's attacker."""
    assert type(rec) is DecisionRecord
    assert rec.target in system.node_by_id
    assert isinstance(rec.action_ids, tuple) and rec.action_ids
    assert all(isinstance(aid, str) for aid in rec.action_ids)
    assert rec.distances == tuple(dist[aid] for aid in rec.action_ids)
    assert list(rec.scores) == engine.scores(rec.distances)
    assert list(rec.probabilities) == engine.probabilities(rec.scores)
    assert rec.chosen in rec.action_ids
    action = db.by_id[rec.chosen]
    assert rec.chosen_name == (action.name or action.id)
    assert rec.probability == rec.probabilities[
        rec.action_ids.index(rec.chosen)]
    assert rec.outcome in (SUCCESS, FAILURE)
    assert isinstance(rec.via_edges, tuple) and rec.via_edges
    assert all(system.edge_by_id[eid].to_node == rec.target
               for eid in rec.via_edges)
    assert rec.source == system.edge_by_id[rec.via_edges[0]].from_node


def test_fields_keep_their_order_and_defaults():
    assert DecisionRecord._fields == FIELDS
    assert DecisionRecord._field_defaults == {"via_edges": ()}


def test_record_without_a_source_is_rejected():
    with pytest.raises(TypeError, match="source"):
        DecisionRecord("N", ("a",), (1.0,), "a", "A", 1.0, SUCCESS)


def test_no_field_can_be_assigned(cstr_paths):
    system, db, profiles = load_cstr(cstr_paths)
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(1, seed=3))
    rec = traces[0].records[0]
    for name in FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_fixture_records_hold_their_fields(cstr_paths):
    system, db, profiles = load_cstr(cstr_paths)
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(200, seed=11))
    ctx = DecisionContext(system, db)
    checked = 0
    for trace in traces:
        dist = ctx.attacker_theta(profiles.profiles[trace.profile])[1]
        for rec in trace.records:
            check_record(rec, system, db, dist)
            checked += 1
    assert checked > 200


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_records_hold_their_fields(seed):
    rng = Random(seed)
    system, db, attacker = random_instance(rng, max_actions=40)
    ctx = DecisionContext(system, db)
    dist = ctx.attacker_theta(attacker)[1]
    for _ in range(3):
        state = AttackState(ctx, attacker)
        while (rec := step(state, rng)) is not None:
            check_record(rec, system, db, dist)


def revealed(system, node):
    """What compromising `node` reveals, straight from the edge list."""
    edges = [e for e in system.edges if node in (e.from_node, e.to_node)]
    ends = {e.from_node if e.to_node == node else e.to_node for e in edges}
    return frozenset(ends - {EXTERNAL_ORIGIN}), frozenset(e.id for e in edges)


def check_reveals(system, rng):
    """Compromise known nodes in a random order until none is left, each
    transition against the knowledge built by keyword."""
    k = initial_knowledge(system)
    while open_nodes := sorted(k.known_nodes - k.compromised_nodes):
        node = rng.choice(open_nodes)
        nodes, edges = revealed(system, node)
        expected = CpsKnowledge(known_nodes=k.known_nodes | nodes,
                                known_edges=k.known_edges | edges,
                                compromised_nodes=k.compromised_nodes | {node})
        k = reveal_on_compromise(k, system, node)
        assert k == expected


def test_fixture_reveals_match_keyword_knowledge(cstr_paths):
    system = load_cstr(cstr_paths)[0]
    for seed in range(20):
        check_reveals(system, Random(seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_reveals_match_keyword_knowledge(seed):
    rng = Random(seed)
    system, _, _ = random_instance(rng)
    check_reveals(system, rng)


def test_traces_survive_pickling(cstr_paths):
    system, db, profiles = load_cstr(cstr_paths)
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(40, seed=7))
    for trace in traces:
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace
        assert all(type(rec) is DecisionRecord for rec in back.records)
        assert trace_to_dict(back) == trace_to_dict(trace)
    # the same episodes, sent back from worker processes
    _, sent = run_monte_carlo(system, db, profiles,
                              SimConfig(40, seed=7, parallelism=2))
    assert sent == traces
    assert all(type(rec) is DecisionRecord
               for trace in sent for rec in trace.records)
