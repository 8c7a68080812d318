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
DecisionContext: which actions' target criteria match each node (each
distinct criteria matched once per node), the channel sets as int
bitmasks, the validated starting knowledge, and each attacker profile's
distance to every action, keyed by action id, for every profile the run
can draw before its first episode (the database checks each profile:
`ActionDatabase.attacker_ranges`).

One function, `_columns`, derives a node's candidate ids and distances,
as tuples that nothing mutates. Those of a fresh node, one with no
attempted or succeeded action, come from the context's memo by scaled
profile, node and live channel mask, filled on a miss even when empty:
every episode starts with such scans, and the same keys recur. A fresh
node's assessment depends on its distances alone, so the memo's entry
holds its scores and their total too, computed once per run and process
when the entry is filled. A draw divides each score by the total only
up to the drawn index, so no probability vector is built.

Neither a retry, the decision after a failed attempt on the same
target, nor a retarget, the draw after a compromise or an exhausted
target, rescans: the episode's AttackState keeps one table of the open
nodes, the known, uncompromised nodes with a candidate, each with its
columns, and `step` keeps it current. A failure replaces the target's
columns with new tuples that lack the attempted action, or drops the
target once none is left; a compromise drops the target and rederives
only its neighbours. The draw is over the sorted keys, the same list a
full scan gives, so the RNG use is unchanged.

A decision's record, which `step` returns, is a NamedTuple, built
positionally, that keeps its candidates as two columns, the table's ids
and distances themselves; their scores and probabilities are derived
from the distances when read, so a retained record holds no float of
its own per candidate, and no per-candidate object is built on the
decision path.
"""

from __future__ import annotations

from math import isfinite
from typing import Mapping, NamedTuple, Sequence

from attacksim import _kernels
from attacksim.actions import ActionDatabase, criteria_match, scaled_action_profiles
from attacksim.model import CpsKnowledge, CpsSystem, initial_knowledge, reveal_on_compromise
from attacksim.profiles import (
    UNORDERED_SET,
    AttackerProfile,
    ProfileValue,
    scale_profile,
)

SUCCESS = "success"
FAILURE = "failure"

# a node's candidate ids, in canonical id order, their distances, and
# their scores and the scores' total, or None, None until `step` scores them
Columns = tuple[tuple[str, ...], tuple[float, ...],
                tuple[float, ...] | None, float | None]


class CandidateScore(NamedTuple):
    action_id: str
    distance: float
    score: float
    probability: float


class DecisionRecord(NamedTuple):
    """One decision: the candidate set with its full probability breakdown,
    the sampled action, and the Bernoulli outcome.

    A NamedTuple, so it is immutable (assigning a field raises
    AttributeError) and cheap to build; `step` builds it positionally, in
    the field order below, which is therefore part of its contract.

    The candidates are stored as two parallel columns in canonical id
    order: ``action_ids[i]`` has distance ``distances[i]``. A record of a
    decision on a fresh target shares both tuples with the context's
    memo, which nothing mutates. Their scores and selection probabilities
    are a function of the distances, so they are not stored: ``scores``,
    ``probabilities`` and ``candidates`` derive them through the kernels
    on every read, the same floats `step` drew with. A record of a
    negative or non-finite distance, which `step` never builds, has no
    meaningful scores.

    ``source`` is required: the node, or the external origin, that the
    chosen action is launched from. ``via_edges`` defaults to no edge.
    """

    target: str
    action_ids: tuple[str, ...]
    distances: tuple[float, ...]
    chosen: str
    chosen_name: str
    probability: float
    outcome: str
    source: str
    via_edges: tuple[str, ...] = ()

    @property
    def scores(self) -> tuple[float, ...]:
        """``scores[i]`` is the score of ``action_ids[i]``."""
        return tuple(_kernels.scores_from_distances(self.distances))

    @property
    def probabilities(self) -> tuple[float, ...]:
        """``probabilities[i]`` is the selection probability of
        ``action_ids[i]``."""
        return tuple(_kernels.probabilities_from_scores(self.scores))

    @property
    def candidates(self) -> tuple[CandidateScore, ...]:
        """One CandidateScore per candidate, the scores derived once."""
        s = _kernels.scores_from_distances(self.distances)
        return tuple(map(CandidateScore, self.action_ids, self.distances, s,
                         _kernels.probabilities_from_scores(s)))


class DecisionContext:
    """Static decision inputs shared by every episode of a run.

    Built and validated once per run, in the parent process, and passed
    as is to every worker:

    - the scaled action profiles, by action id in canonical order, and
      the per-slot distance weights 1 / criticality^2;
    - the starting knowledge, so the system is validated once per run;
    - per node, the actions whose target criteria match it, in canonical
      id order, as ``(id, channel bitmask, prerequisites)`` rows; each
      distinct criteria is matched once per node, and each distinct
      channel set is turned into a bitmask once; a criteria object is
      keyed by its content once, however many actions share it, as a
      loaded database's actions do;
    - per node, the attack-vector edges into it, in canonical id order, as
      ``(id, source node, channel bitmask)`` rows;
    - per attacker profile (on first use, cached by name and values), the
      scaled tuple and its distance to every action, by action id;
    - the fresh-node memo: the candidates of a node with no attempted or
      succeeded action depend only on the attacker's scaled profile, the
      node and the channel mask of its live edges, so each such scan is
      kept, keyed by ``(scaled profile, node, live mask)``, as three
      tuples, which may be empty, and a float: the ids and distances,
      their scores, and the scores' `_kernels.sequential_sum`. It is
      filled on first use in each process and holds at most
      nodes x 2^channels entries per distinct scaled profile. By
      `sys.getsizeof`, an entry costs about 48 bytes per candidate: 8
      for each of its three tuple slots and 24 for each score float; the
      ids and distances themselves are shared with the database and the
      profile cache. On wide-4x2000 its 4 entries hold 6,554 candidates
      in about 315 kB.

    Immutable after construction apart from the profile cache and the
    memo. What depends on an episode's history, such as each open
    node's candidates, lives in its AttackState.
    """

    def __init__(self, system: CpsSystem, db: ActionDatabase):
        self.system = system
        self.db = db
        self.initial_knowledge = initial_knowledge(system)
        self.action_profiles = scaled_action_profiles(db)
        self.inv_beta_sq = [1.0 / (p.criticality * p.criticality)
                            for p in db.schema]
        self.unordered_mask = [p.kind == UNORDERED_SET for p in db.schema]
        self._thetas: dict[str, tuple[Mapping, tuple, dict[str, float]]] = {}
        self.fresh: dict[tuple, Columns] = {}

        names = sorted({c for e in system.edges for c in e.channels}
                       | {c for a in db.actions for c in a.channels})
        bit = {c: 1 << i for i, c in enumerate(names)}
        masks: dict[frozenset[str], int] = {}  # per distinct channel set
        distinct: dict[frozenset, int] = {}  # criteria -> index in criteria
        # id of a criteria object -> index in criteria: a loaded database
        # shares each distinct criteria, so its content key is built once;
        # the database holds every object, so no id is reused meanwhile
        seen: dict[int, int] = {}
        criteria = []
        rows = []  # (criteria index, row) per action, in canonical order
        for a in db.actions:
            mask = masks.get(a.channels)
            if mask is None:
                mask = masks[a.channels] = sum(bit[c] for c in a.channels)
            c = a.target_criteria
            i = seen.get(id(c))
            if i is None:
                key = frozenset(c.requirements.items())
                if key not in distinct:
                    distinct[key] = len(criteria)
                    criteria.append(c)
                i = seen[id(c)] = distinct[key]
            rows.append((i, (a.id, mask, a.prerequisites)))
        self.action_mask = {aid: mask for _, (aid, mask, _) in rows}
        self.actions_for = {}
        for node in system.nodes:
            match = [criteria_match(c, node) for c in criteria]
            self.actions_for[node.id] = tuple(
                row for i, row in rows if match[i])
        self.vectors_into = {
            node.id: tuple((e.id, e.from_node, sum(bit[c] for c in e.channels))
                           for e in system.edges_into(node.id)
                           if e.is_attack_vector)
            for node in system.nodes}

    def attacker_theta(self, attacker: AttackerProfile
                       ) -> tuple[tuple[ProfileValue, ...], dict[str, float]]:
        """Scale an attacker profile, checked by
        `ActionDatabase.attacker_ranges`, and measure its distance to every
        action, keyed by action id; cached by name while the values match."""
        cached = self._thetas.get(attacker.name)
        if cached is not None and cached[0] == attacker.values:
            return cached[1], cached[2]
        theta = scale_profile(self.db.schema, attacker.values,
                              self.db.attacker_ranges(attacker))
        profiles = self.action_profiles
        dist = dict(zip(profiles, _kernels.profile_distances(
            theta, self.inv_beta_sq, list(profiles.values()),
            self.unordered_mask)))
        self._thetas[attacker.name] = (attacker.values, theta, dist)
        return theta, dist


class AttackState:
    """Per-episode attack state: static context plus the dynamic variables
    (knowledge, per-node action history, current target).

    Grow-only contract, kept by `step` and required of any caller that
    edits the state directly: the sets in ``attempted`` and ``succeeded``
    only gain actions, and ``knowledge`` is replaced, never mutated.

    The state keeps one candidate table: every known, uncompromised node
    with at least one candidate, mapped to its columns, or to None while
    a compromise may have widened them. It is stamped with the knowledge
    and the total sizes of all ``attempted`` and ``succeeded`` sets,
    which under the contract change with every edit that can change a
    node's candidates; `_columns` on every known node rebuilds it
    whenever the stamp does not match. Otherwise `step`
    keeps it, and its stamp, current without a scan: a failure can only
    shrink its target's columns, and a compromise can only open or widen
    the compromised node's neighbours, because `reveal_on_compromise`
    reveals only edges touching that node and the far end of each, and
    only edges out of that node gain a compromised source.
    """

    def __init__(self, ctx: DecisionContext, attacker: AttackerProfile):
        self.ctx = ctx
        self.theta, self._distances = ctx.attacker_theta(attacker)
        self.knowledge: CpsKnowledge = ctx.initial_knowledge
        self.attempted: dict[str, set[str]] = {}
        self.succeeded: dict[str, set[str]] = {}
        self.current_target: str | None = None
        self._open: dict[str, Columns | None] = {}
        self._stamp: tuple | None = None

    @property
    def system(self) -> CpsSystem:
        return self.ctx.system

    @property
    def db(self) -> ActionDatabase:
        return self.ctx.db


def _live_mask(state: AttackState, target: str) -> int:
    """The channels of the target's live edges, as a bitmask: known
    attack-vector edges into it from the external origin or a compromised
    node."""
    k = state.knowledge
    origin = state.ctx.system.external_origin
    live = 0
    for eid, source, mask in state.ctx.vectors_into[target]:
        if eid in k.known_edges and (source == origin
                                     or source in k.compromised_nodes):
            live |= mask
    return live


def _columns(state: AttackState, node: str) -> Columns:
    """The node's candidate columns, which nothing mutates.

    Only the dynamic predicates are checked here; criteria matching was
    done once per run in the context. A fresh node's columns come from the
    context's memo, scanned, scored and stored on a miss, even when
    empty; those of a node with history carry None for their scores and
    total. The node must be known and not compromised.
    """
    live = _live_mask(state, node)
    attempted = state.attempted.get(node, ())
    succeeded = state.succeeded.get(node, frozenset())
    fresh = not attempted and not succeeded
    if fresh:
        key = (state.theta, node, live)
        cols = state.ctx.fresh.get(key)
        if cols is not None:
            return cols
    ids = tuple(aid for aid, mask, prereqs in state.ctx.actions_for[node]
                if mask & live and aid not in attempted
                and prereqs <= succeeded)
    d = tuple(map(state._distances.__getitem__, ids))
    if not fresh:
        return ids, d, None, None
    s = tuple(_kernels.scores_from_distances(d))
    cols = state.ctx.fresh[key] = ids, d, s, _kernels.sequential_sum(s)
    return cols


def _table(state: AttackState) -> dict:
    """The state's candidate table, rebuilt by a scan of the known nodes
    when its stamp does not match (see AttackState)."""
    stamp = (state.knowledge, sum(map(len, state.attempted.values())),
             sum(map(len, state.succeeded.values())))
    if state._stamp != stamp:
        k = state.knowledge
        state._open = {nid: cols for nid in k.known_nodes
                       if nid not in k.compromised_nodes
                       and (cols := _columns(state, nid))[0]}
        state._stamp = stamp
    return state._open


def filter_valid(state: AttackState, target: str) -> tuple[str, ...]:
    """Candidate actions for the target, in canonical id order.

    Intersection of: not yet attempted on the target; criteria match with
    all prerequisites succeeded on the target; and at least one viable
    propagation path into the target: the state's candidate table's own
    id tuple, which nothing mutates, or () when the target has none.
    """
    k = state.knowledge
    if target not in k.known_nodes:
        raise ValueError(f"target {target!r} is not known to the attacker")
    if target in k.compromised_nodes:
        raise ValueError(f"target {target!r} is already compromised")
    table = _table(state)
    if target not in table:
        return ()
    if table[target] is None:
        table[target] = _columns(state, target)
    return table[target][0]


def viable_edges(state: AttackState, target: str, action_id: str) -> tuple[str, ...]:
    """Known attack-vector edges that could carry the action into the target."""
    action_mask = state.ctx.action_mask[action_id]
    k = state.knowledge
    origin = state.system.external_origin
    return tuple(
        eid for eid, source, mask in state.ctx.vectors_into[target]
        if eid in k.known_edges and mask & action_mask
        and (source == origin or source in k.compromised_nodes))


def open_targets(state: AttackState) -> list[str]:
    """The known, non-compromised nodes that still have at least one
    candidate, in canonical (sorted) order: what a retarget draws from."""
    return sorted(_table(state))


def select_target(state: AttackState, rng) -> str | None:
    """Pick the node to attack, or None when nothing remains.

    Sticky: the current target is kept while it still has untried
    qualified actions. Otherwise the target is drawn uniformly from the
    sorted keys of the candidate table, which `step` keeps current, so a
    retarget does not rescan the known nodes and runs reproduce exactly.
    """
    table = _table(state)
    if state.current_target in table:
        return state.current_target
    if not table:
        return None
    keys = sorted(table)
    return keys[rng.randrange(len(keys))]


def distance(theta, gamma, beta: Sequence[float]) -> float:
    """Profile distance: sqrt of the criticality-weighted squared
    differences, with unordered-set slots contributing (1 - match)."""
    tvals, gvals = tuple(theta), tuple(gamma)
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
        if not t_str and not (isfinite(t) and isfinite(g)):
            raise ValueError(f"slot {j}: non-finite value")
        unordered.append(t_str)
    return _kernels.profile_distances(tvals, inv_beta_sq, [gvals],
                                      unordered)[0]


def scores(distances: Sequence[float]) -> list[float]:
    """Scores from distances. Degenerate cases: a lone candidate scores 1,
    and an all-zero distance vector scores uniformly."""
    if len(distances) == 0:
        raise ValueError("empty distance vector")
    for d in distances:
        if not isfinite(d):
            raise ValueError(f"non-finite distance {d}")
        if d < 0:
            raise ValueError(f"negative distance {d}")
    return _kernels.scores_from_distances(distances)


def probabilities(score_values: Sequence[float]) -> list[float]:
    """Selection probabilities from scores."""
    if len(score_values) == 0:
        raise ValueError("empty score vector")
    total = 0.0
    for s in score_values:
        if not isfinite(s):
            raise ValueError(f"non-finite score {s}")
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
    for q in probs:
        if not isfinite(q):
            raise ValueError(f"non-finite probability {q}")
    return candidates[_kernels.weighted_index(probs, rng.random())]


def step(state: AttackState, rng) -> DecisionRecord | None:
    """Run one decision cycle, mutating the state in place.

    Returns the decision's record, or None when no node has qualified
    actions left (episode end).
    A failed action still counts as attempted, so targets exhaust. Any
    successful action compromises its target for knowledge purposes,
    whatever its reported effect. The record's columns are the target's
    ids and distances in the candidate table. Every draw, fresh or
    retried, goes through `_kernels.draw_from_scores`, with the scores
    and their total computed here unless they came with the fresh-node
    memo's entry. A failure replaces the columns with unscored columns
    that lack the action, or drops an exhausted target; a compromise
    drops its target and rederives only its neighbours' columns (see
    AttackState).
    """
    target = select_target(state, rng)
    if target is None:
        return None
    filter_valid(state, target)
    ctx = state.ctx
    table = state._open
    ids, d, s, total = table[target]
    if s is None:
        s = _kernels.scores_from_distances(d)
        total = _kernels.sequential_sum(s)
    idx, probability = _kernels.draw_from_scores(s, total, rng.random())
    chosen = ids[idx]
    action = ctx.db.by_id[chosen]
    success = rng.random() < action.success_probability
    via = viable_edges(state, target, chosen)
    # positional, in DecisionRecord's field order
    record = DecisionRecord(
        target, ids, d, chosen, action.name or action.id, probability,
        SUCCESS if success else FAILURE,
        ctx.system.edge_by_id[via[0]].from_node, via)
    # chosen was a candidate, so it was not yet attempted on the target
    state.attempted.setdefault(target, set()).add(chosen)
    # filter_valid has just matched the stamp to the state before this add
    _, tried, won = state._stamp
    if success:
        succeeded = state.succeeded.setdefault(target, set())
        won += chosen not in succeeded
        succeeded.add(chosen)
        state.knowledge = reveal_on_compromise(state.knowledge, ctx.system,
                                               target)
        state.current_target = None
        del table[target]
        compromised = state.knowledge.compromised_nodes
        for nid in ctx.system.neighbours(target):
            if nid in table:  # its live channels may have widened
                table[nid] = None
            elif nid not in compromised and (cols := _columns(state, nid))[0]:
                table[nid] = cols
    else:
        if len(ids) > 1:
            table[target] = (ids[:idx] + ids[idx + 1:], d[:idx] + d[idx + 1:],
                             None, None)
        else:
            del table[target]
        state.current_target = target
    state._stamp = (state.knowledge, tried + 1, won)
    return record
