"""Seeded random instance generators shared by the randomized tests."""

from random import Random

from attacksim.actions import Action, ActionDatabase, TargetCriteria
from attacksim.engine import AttackState, DecisionContext
from attacksim.model import CpsSystem, Edge, EXTERNAL_ORIGIN, Node, reveal_on_compromise
from attacksim.profiles import (
    AttackerProfile,
    KINDS,
    ProfileSchema,
    PropertySchema,
)

CHANNELS = ("serial", "lan", "radio")
ATTR_POOL = {"color": ("red", "blue"), "size": ("small", "large"),
             "kind": ("plc", "host")}
LABEL_POOL = ("u", "v", "w")


def random_schema(rng: Random) -> ProfileSchema:
    props = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(KINDS)
        props.append(PropertySchema(
            name=f"p{i}",
            kind=kind,
            allowed_values=tuple(LABEL_POOL[:rng.randint(1, 3)])
            if kind.endswith("set") else None,
            lower=0.0 if kind == "bounded-range" else None,
            upper=10.0 if kind == "bounded-range" else None,
            criticality=rng.choice((1.0, 0.5, 0.25)),
        ))
    return ProfileSchema(props)


def random_value(rng: Random, prop: PropertySchema):
    if prop.kind.endswith("set"):
        return rng.choice(prop.allowed_values)
    if prop.kind == "bounded-range":
        return rng.uniform(prop.lower, prop.upper)
    return rng.uniform(-100.0, 100.0)


def random_system(rng: Random, max_nodes: int = 6) -> CpsSystem:
    n = rng.randint(2, max_nodes)
    nodes = []
    for i in range(n):
        attrs = {k: rng.choice(vals) for k, vals in ATTR_POOL.items()
                 if rng.random() < 0.8}
        nodes.append(Node(id=f"N{i}", name=f"node {i}", attributes=attrs))
    target_idx = rng.randrange(n)
    nodes[target_idx] = Node(
        id=nodes[target_idx].id, name=nodes[target_idx].name,
        attributes=nodes[target_idx].attributes, is_target=True)
    edges = []
    for j in range(rng.randint(1, min(2, n))):
        edges.append(Edge(
            id=f"E{j}", from_node=EXTERNAL_ORIGIN,
            to_node=rng.choice(nodes).id,
            channels=frozenset(rng.sample(CHANNELS, rng.randint(1, 2))),
            is_attack_vector=True, is_entry_point=True))
    k = 0
    for a in nodes:
        for b in nodes:
            if a.id != b.id and rng.random() < 0.35:
                edges.append(Edge(
                    id=f"L{k}", from_node=a.id, to_node=b.id,
                    channels=frozenset(rng.sample(CHANNELS, rng.randint(1, 2))),
                    is_attack_vector=rng.random() < 0.85))
                k += 1
    return CpsSystem(nodes, edges)


def random_db(rng: Random, schema: ProfileSchema,
              max_actions: int = 10) -> ActionDatabase:
    m = rng.randint(1, max_actions)
    actions = []
    for i in range(m):
        requirements = {}
        if rng.random() < 0.7:
            for key in rng.sample(sorted(ATTR_POOL), rng.randint(1, 2)):
                requirements[key] = frozenset(
                    rng.sample(ATTR_POOL[key], rng.randint(1, 2)))
        prereqs = frozenset()
        if i > 0 and rng.random() < 0.2:
            prereqs = frozenset({f"A{rng.randrange(i)}"})
        actions.append(Action(
            id=f"A{i}",
            name=f"action {i}",
            profile={p.name: random_value(rng, p) for p in schema},
            target_criteria=TargetCriteria(requirements),
            channels=frozenset(rng.sample(CHANNELS, rng.randint(1, 2))),
            prerequisites=prereqs,
            success_probability=rng.choice((1.0, 1.0, 0.9, 0.6, 0.3)),
            effect=rng.choice(("compromise", "disrupt")),
        ))
    return ActionDatabase(actions, schema)


def random_instance(rng: Random, max_nodes: int = 6, max_actions: int = 10):
    schema = random_schema(rng)
    system = random_system(rng, max_nodes)
    db = random_db(rng, schema, max_actions)
    attacker = AttackerProfile(
        name="attacker", values={p.name: random_value(rng, p) for p in schema})
    return system, db, attacker


def random_state(rng: Random, system: CpsSystem, db: ActionDatabase,
                 attacker: AttackerProfile) -> AttackState:
    """A reachable-ish state with randomized knowledge and history."""
    state = AttackState(DecisionContext(system, db), attacker)
    for _ in range(rng.randint(0, 4)):
        open_nodes = sorted(state.knowledge.known_nodes
                            - state.knowledge.compromised_nodes)
        if not open_nodes:
            break
        state.knowledge = reveal_on_compromise(
            state.knowledge, system, rng.choice(open_nodes))
    for nid in sorted(state.knowledge.known_nodes):
        if rng.random() < 0.5:
            attempted = {a.id for a in db.actions if rng.random() < 0.3}
            if attempted:
                state.attempted[nid] = attempted
                state.succeeded[nid] = {a for a in attempted
                                        if rng.random() < 0.5}
    return state
