"""One attacker decision step: sticky target selection, one-step look-ahead
action filtering, profile-distance scoring, and weighted sampling.

The filter stage intersects three predicate sets over the action database:
actions matching the target (criteria and satisfied prerequisites), actions
not yet attempted on the target, and actions with a viable propagation path
(a known attack-vector edge into the target, sourced at a compromised node
or the external origin, sharing a channel with the action).

Scoring maps each candidate's profile distance d_i to a score
s_i = 1 - d_i / sum(d) and selection probability P_i = s_i / sum(s), so
nearer profiles are proportionally more likely without nonlinear weighting.

Everything that does not depend on the episode's dynamic state (knowledge,
attempted and succeeded actions) is computed once per run in
DecisionContext: which actions' target criteria match each node, the
channel sets as int bitmasks, the validated starting knowledge, and each
attacker profile's distance to every action, keyed by action id. A
decision then only checks the dynamic predicates and looks up its
candidates' distances.

A decision's record keeps its candidates as four columns (ids,
distances, scores, probabilities), the lists the assessment computed;
no per-candidate object is built on the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from attacksim import _kernels
from attacksim.actions import ActionDatabase, criteria_match, scaled_action_profiles
from attacksim.errors import ValidationFailure
from attacksim.model import CpsKnowledge, CpsSystem, initial_knowledge, reveal_on_compromise
from attacksim.profiles import (
    UNORDERED_SET,
    AttackerProfile,
    ScaledProfile,
    scale_profile,
    spread_is_finite,
    validate_profile,
)

SUCCESS = "success"
FAILURE = "failure"


class CandidateScore(NamedTuple):
    action_id: str
    distance: float
    score: float
    probability: float


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One decision: the candidate set with its full probability breakdown,
    the sampled action, and the Bernoulli outcome.

    The candidates are stored as four parallel columns in canonical id
    order: ``action_ids[i]`` has distance ``distances[i]``, score
    ``scores[i]`` and selection probability ``probabilities[i]``.
    ``candidates`` derives the per-candidate view from them.
    """

    target: str
    action_ids: tuple[str, ...]
    distances: tuple[float, ...]
    scores: tuple[float, ...]
    probabilities: tuple[float, ...]
    chosen: str
    chosen_name: str
    probability: float
    outcome: str
    source: str = ""
    via_edges: tuple[str, ...] = ()

    @property
    def candidates(self) -> tuple[CandidateScore, ...]:
        """The columns zipped into one CandidateScore per candidate."""
        return tuple(map(CandidateScore, self.action_ids, self.distances,
                         self.scores, self.probabilities))


class DecisionContext:
    """Static decision inputs shared by every episode of a run.

    Computed once per run:

    - the scaled action profiles, by action id in canonical order, and
      the per-slot distance weights 1 / criticality^2;
    - the starting knowledge, so the system is validated once per run;
    - per node, the actions whose target criteria match it, in canonical
      id order, as ``(id, channel bitmask, prerequisites)`` rows;
    - per node, the attack-vector edges into it, in canonical id order, as
      ``(id, source node, channel bitmask)`` rows;
    - per attacker profile (on first use, cached by name), the scaled
      vector and its distance to every action, by action id.

    Immutable after construction apart from that profile cache.
    """

    def __init__(self, system: CpsSystem, db: ActionDatabase):
        self.system = system
        self.db = db
        self.initial_knowledge = initial_knowledge(system)
        self.action_profiles = scaled_action_profiles(db)
        self.inv_beta_sq = [1.0 / (p.criticality * p.criticality)
                            for p in db.schema]
        self.unordered_mask = [p.kind == UNORDERED_SET for p in db.schema]
        self._thetas: dict[str, tuple[ScaledProfile, dict[str, float]]] = {}

        names = sorted({c for e in system.edges for c in e.channels}
                       | {c for a in db.actions for c in a.channels})
        bit = {c: 1 << i for i, c in enumerate(names)}
        self.action_mask = {
            a.id: sum(bit[c] for c in a.channels) for a in db.actions}
        self.actions_for = {
            node.id: tuple((a.id, self.action_mask[a.id], a.prerequisites)
                           for a in db.actions
                           if criteria_match(a.target_criteria, node))
            for node in system.nodes}
        self.vectors_into = {
            node.id: tuple((e.id, e.from_node, sum(bit[c] for c in e.channels))
                           for e in system.edges_into(node.id)
                           if e.is_attack_vector)
            for node in system.nodes}

    def attacker_theta(self, attacker: AttackerProfile
                       ) -> tuple[ScaledProfile, dict[str, float]]:
        """Scale an attacker profile and measure its distance to every
        action, keyed by action id; cached by profile name.

        Unbounded properties scale against the database population extended
        with the attacker's own value, clamping it onto the action scale;
        a profile whose value makes that population's max - min overflow
        is rejected like an invalid one.
        """
        cached = self._thetas.get(attacker.name)
        if cached is not None:
            return cached
        owner = f"attacker profile {attacker.name!r}"
        errs = validate_profile(self.db.schema, attacker.values, owner=owner)
        populations = self.db.unbounded_populations()
        errs.extend(
            f"{owner}: max - min of property {name!r} over the action "
            "values and this profile's value must be finite"
            for name, pop in populations.items()
            if not spread_is_finite([*pop, attacker.values.get(name)]))
        if errs:
            raise ValidationFailure("invalid attacker profile", errs)
        theta = scale_profile(self.db.schema, attacker.values, populations,
                              include_own_value=True)
        profiles = self.action_profiles
        dist = dict(zip(profiles, _kernels.profile_distances(
            theta.values, self.inv_beta_sq,
            [g.values for g in profiles.values()], self.unordered_mask)))
        self._thetas[attacker.name] = (theta, dist)
        return theta, dist


class AttackState:
    """Per-episode attack state: static context plus the dynamic variables
    (knowledge, per-node action history, current target)."""

    def __init__(self, ctx: DecisionContext, attacker: AttackerProfile):
        self.ctx = ctx
        self.attacker_name = attacker.name
        self.theta, self._distances = ctx.attacker_theta(attacker)
        self.knowledge: CpsKnowledge = ctx.initial_knowledge
        self.attempted: dict[str, set[str]] = {}
        self.succeeded: dict[str, set[str]] = {}
        self.current_target: str | None = None

    @property
    def system(self) -> CpsSystem:
        return self.ctx.system

    @property
    def db(self) -> ActionDatabase:
        return self.ctx.db


def initial_state(system: CpsSystem, db: ActionDatabase,
                  attacker: AttackerProfile) -> AttackState:
    """Convenience constructor for standalone (non-harness) stepping."""
    return AttackState(DecisionContext(system, db), attacker)


def _candidates(state: AttackState, target: str):
    """Yield the target's candidate action ids in canonical id order.

    Only the dynamic predicates are checked here; criteria matching was
    done once per run in the context. The target must be known and not
    compromised.
    """
    k = state.knowledge
    ctx = state.ctx
    origin = ctx.system.external_origin
    live = 0
    for eid, source, mask in ctx.vectors_into[target]:
        if eid in k.known_edges and (source == origin
                                     or source in k.compromised_nodes):
            live |= mask
    if not live:
        return
    attempted = state.attempted.get(target, ())
    succeeded = state.succeeded.get(target, frozenset())
    for aid, mask, prereqs in ctx.actions_for[target]:
        if mask & live and aid not in attempted and prereqs <= succeeded:
            yield aid


def filter_valid(state: AttackState, target: str) -> list[str]:
    """Candidate actions for the target, in canonical id order.

    Intersection of: not yet attempted on the target; criteria match with
    all prerequisites succeeded on the target; and at least one viable
    propagation path into the target.
    """
    k = state.knowledge
    if target not in k.known_nodes:
        raise ValueError(f"target {target!r} is not known to the attacker")
    if target in k.compromised_nodes:
        raise ValueError(f"target {target!r} is already compromised")
    return list(_candidates(state, target))


def _has_candidate(state: AttackState, target: str) -> bool:
    return next(_candidates(state, target), None) is not None


def viable_edges(state: AttackState, target: str, action_id: str) -> tuple[str, ...]:
    """Known attack-vector edges that could carry the action into the target."""
    action_mask = state.ctx.action_mask[action_id]
    k = state.knowledge
    origin = state.system.external_origin
    return tuple(
        eid for eid, source, mask in state.ctx.vectors_into[target]
        if eid in k.known_edges and mask & action_mask
        and (source == origin or source in k.compromised_nodes))


def select_target(state: AttackState, rng) -> str | None:
    """Pick the node to attack, or None when nothing remains.

    Sticky: the current target is kept while it still has untried
    qualified actions. Otherwise the target is drawn uniformly from the
    known, non-compromised nodes that still have at least one candidate;
    iteration order is canonical (sorted ids) so runs reproduce exactly.
    """
    k = state.knowledge
    cur = state.current_target
    if (cur is not None and cur in k.known_nodes
            and cur not in k.compromised_nodes and _has_candidate(state, cur)):
        return cur
    candidates = [nid for nid in sorted(k.known_nodes)
                  if nid not in k.compromised_nodes
                  and _has_candidate(state, nid)]
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def distance(theta, gamma, beta: Sequence[float]) -> float:
    """Profile distance: sqrt of the criticality-weighted squared
    differences, with unordered-set slots contributing (1 - match)."""
    tvals = theta.values if isinstance(theta, ScaledProfile) else tuple(theta)
    gvals = gamma.values if isinstance(gamma, ScaledProfile) else tuple(gamma)
    if len(tvals) != len(gvals) or len(tvals) != len(beta):
        raise ValueError("profile and criticality dimensions must match")
    inv_beta_sq = []
    unordered = []
    for j, (t, g, b) in enumerate(zip(tvals, gvals, beta)):
        if not 0.0 < b <= 1.0:
            raise ValueError(f"criticality for slot {j} must be in (0, 1]")
        inv_beta_sq.append(1.0 / (b * b))
        t_str = isinstance(t, str)
        if t_str != isinstance(g, str):
            raise ValueError(f"slot {j}: cannot compare label with number")
        unordered.append(t_str)
    return _kernels.profile_distances(tvals, inv_beta_sq, [gvals],
                                      unordered)[0]


def scores(distances: Sequence[float]) -> list[float]:
    """Scores from distances. Degenerate cases: a lone candidate scores 1,
    and an all-zero distance vector scores uniformly."""
    if len(distances) == 0:
        raise ValueError("empty distance vector")
    for d in distances:
        if d < 0:
            raise ValueError(f"negative distance {d}")
    return _kernels.scores_from_distances(distances)


def probabilities(score_values: Sequence[float]) -> list[float]:
    """Selection probabilities from scores."""
    if len(score_values) == 0:
        raise ValueError("empty score vector")
    total = 0.0
    for s in score_values:
        if s < 0:
            raise ValueError(f"negative score {s}")
        total += s
    if total == 0.0:
        raise ValueError("scores sum to zero")
    return _kernels.probabilities_from_scores(score_values)


def sample_action(candidates: Sequence[str], probs: Sequence[float], rng) -> str:
    """Weighted draw over candidates; deterministic given the rng state."""
    if not candidates:
        raise ValueError("cannot sample from an empty candidate set")
    if len(candidates) != len(probs):
        raise ValueError("candidates and probabilities must align")
    return candidates[_kernels.weighted_index(probs, rng.random())]


def _assess(state: AttackState, cand_ids: list[str]):
    dist = state._distances
    d = [dist[a] for a in cand_ids]
    s = _kernels.scores_from_distances(d)
    return d, s, _kernels.probabilities_from_scores(s)


def step(state: AttackState, rng) -> tuple[AttackState, DecisionRecord] | None:
    """Run one decision cycle, mutating the state in place.

    Returns None when no node has qualified actions left (episode end).
    A failed action still counts as attempted, so targets exhaust. Any
    successful action compromises its target for knowledge purposes,
    whatever its reported effect.
    """
    target = select_target(state, rng)
    if target is None:
        return None
    cand_ids = filter_valid(state, target)
    d, s, p = _assess(state, cand_ids)
    idx = _kernels.weighted_index(p, rng.random())
    chosen = cand_ids[idx]
    action = state.db.by_id[chosen]
    success = rng.random() < action.success_probability
    via = viable_edges(state, target, chosen)
    state.attempted.setdefault(target, set()).add(chosen)
    if success:
        state.succeeded.setdefault(target, set()).add(chosen)
        state.knowledge = reveal_on_compromise(state.knowledge,
                                               state.system, target)
        state.current_target = None
    else:
        state.current_target = target
    record = DecisionRecord(
        target=target,
        action_ids=tuple(cand_ids),
        distances=tuple(d),
        scores=tuple(s),
        probabilities=tuple(p),
        chosen=chosen,
        chosen_name=action.name or action.id,
        probability=p[idx],
        outcome=SUCCESS if success else FAILURE,
        source=state.system.edge_by_id[via[0]].from_node,
        via_edges=via,
    )
    return state, record
