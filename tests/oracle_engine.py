"""Reference engine: the decision cycle as the paper states it, in the
plainest code.

It keeps no memo, no candidate table and no stamp. Each decision finds
the open nodes by running the brute-force filter oracle over every
known, uncompromised node; it keeps a sticky target while that target
has a candidate and otherwise draws one uniformly from the sorted open
nodes with `randrange`; it scores and draws through the public, checked
`engine.distance`, `engine.scores`, `engine.probabilities` and
`engine.sample_action`; then it draws the outcome and, on success,
calls `reveal_on_compromise`. It consumes each episode's stream in the
order `harness` documents, so its traces must equal `run_monte_carlo`'s.
"""

from random import Random
from types import SimpleNamespace

from attacksim import engine
from attacksim.engine import FAILURE, SUCCESS, DecisionRecord
from attacksim.harness import (
    EXHAUSTED,
    STEP_CAPPED,
    TARGET_REACHED,
    EpisodeTrace,
    episode_seed,
)
from attacksim.model import initial_knowledge, reveal_on_compromise
from attacksim.profiles import ProfilePmf, sample_profile, scale_profile

from oracle_context import reference_context
from oracle_filter import brute_force_valid


def via_edges(system, knowledge, target, action):
    """The known attack-vector edges into `target`, sourced at the external
    origin or a compromised node, that share a channel with `action`, in
    id order."""
    return tuple(sorted(
        e.id for e in system.edges
        if e.to_node == target and e.is_attack_vector
        and e.id in knowledge.known_edges
        and (e.from_node == system.external_origin
             or e.from_node in knowledge.compromised_nodes)
        and e.channels & action.channels))


def run_episode(system, db, mode, seed, index, max_steps=None):
    """Episode `index` of a run seeded `seed`, drawing its attacker from
    `mode`, a static profile or a PMF."""
    rng = Random(episode_seed(seed, index))
    attacker = (sample_profile(mode, rng) if isinstance(mode, ProfilePmf)
                else mode)
    theta = scale_profile(db.schema, attacker.values,
                          db.attacker_ranges(attacker))
    gammas = reference_context(system, db)["action_profiles"]
    beta = [p.criticality for p in db.schema]
    state = SimpleNamespace(system=system, db=db,
                            knowledge=initial_knowledge(system),
                            attempted={}, succeeded={})
    target = None
    records = []
    while True:
        if max_steps is not None and len(records) >= max_steps:
            status = STEP_CAPPED
            break
        k = state.knowledge
        if target is None or not brute_force_valid(state, target):
            open_nodes = [n for n in sorted(k.known_nodes - k.compromised_nodes)
                          if brute_force_valid(state, n)]
            if not open_nodes:
                status = EXHAUSTED
                break
            target = open_nodes[rng.randrange(len(open_nodes))]
        ids = sorted(brute_force_valid(state, target))
        d = [engine.distance(theta, gammas[a], beta) for a in ids]
        p = engine.probabilities(engine.scores(d))
        chosen = engine.sample_action(ids, p, rng)
        action = db.by_id[chosen]
        success = rng.random() < action.success_probability
        via = via_edges(system, k, target, action)
        records.append(DecisionRecord(
            target=target, action_ids=tuple(ids), distances=tuple(d),
            chosen=chosen, chosen_name=action.name or action.id,
            probability=p[ids.index(chosen)],
            outcome=SUCCESS if success else FAILURE,
            source=system.edge_by_id[via[0]].from_node, via_edges=via))
        state.attempted.setdefault(target, set()).add(chosen)
        if success:
            state.succeeded.setdefault(target, set()).add(chosen)
            state.knowledge = reveal_on_compromise(k, system, target)
            if system.node_by_id[target].is_target:
                status = TARGET_REACHED
                break
            target = None
    return EpisodeTrace(index, attacker.name, tuple(records), status,
                        state.knowledge)


def run_episodes(system, db, mode, config):
    """Every episode of a run of `config`, in index order."""
    return [run_episode(system, db, mode, config.seed, i, config.max_steps)
            for i in range(config.episode_count)]
