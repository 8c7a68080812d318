"""Formal system model: nodes, edges, attack vectors, entry points, and the
attacker's evolving knowledge of them.

A system is a directed graph. Entry-point edges originate at the reserved
external origin ``@external``; every entry point is also an attack vector.
Knowledge is a value: transitions return new instances and never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from attacksim.errors import (
    ValidationFailure,
    boolean,
    container,
    document,
    entries,
    read_json,
    string,
    string_list,
)

EXTERNAL_ORIGIN = "@external"

_NOTHING: tuple[frozenset[str], frozenset[str]] = (frozenset(), frozenset())

_NODE_KEYS = {"id", "name", "attributes", "target"}
_EDGE_KEYS = {"id", "from", "to", "channels", "entry_point", "attack_vector"}


@dataclass(frozen=True, slots=True)
class Node:
    """One system node. A slots dataclass, not a NamedTuple like `Edge`:
    the harness reads `is_target` after every successful decision, and on
    Python 3.11 a slot read costs about half a NamedTuple field read."""

    id: str
    name: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)
    is_target: bool = False


class Edge(NamedTuple):
    """One directed edge: an immutable NamedTuple. `system_from_dict`
    builds it positionally, so the field order below is part of its
    contract, as with `engine.DecisionRecord`."""

    id: str
    from_node: str
    to_node: str
    channels: frozenset[str] = frozenset()
    is_attack_vector: bool = False
    is_entry_point: bool = False


class CpsSystem:
    """Immutable directed graph of a cyber-physical system.

    Nodes and edges are stored in canonical id order so that every
    iteration over the system is reproducible.
    """

    external_origin = EXTERNAL_ORIGIN

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]):
        self.nodes: tuple[Node, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        self.edges: tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self.node_by_id: dict[str, Node] = {n.id: n for n in self.nodes}
        self.edge_by_id: dict[str, Edge] = {e.id: e for e in self.edges}
        self._into: dict[str, list[Edge]] = {}
        incident: dict[str, list[Edge]] = {}
        for e in self.edges:
            self._into.setdefault(e.to_node, []).append(e)
            incident.setdefault(e.to_node, []).append(e)
            if e.from_node != EXTERNAL_ORIGIN:
                incident.setdefault(e.from_node, []).append(e)
        # per node, what its compromise reveals: the far ends of its edges
        # (never the external origin) and the ids of those edges
        self._reveals: dict[str, tuple[frozenset[str], frozenset[str]]] = {
            nid: (frozenset(e.from_node if e.to_node == nid else e.to_node
                            for e in edges) - {EXTERNAL_ORIGIN},
                  frozenset(e.id for e in edges))
            for nid, edges in incident.items()}

    def edges_into(self, node_id: str) -> tuple[Edge, ...]:
        return tuple(self._into.get(node_id, ()))

    def neighbours(self, node_id: str) -> frozenset[str]:
        """The far ends of the node's edges, either direction, never the
        external origin: the nodes its compromise reveals."""
        return self._reveals.get(node_id, _NOTHING)[0]

    @property
    def entry_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_entry_point)

    @property
    def target_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_target)


@dataclass(frozen=True, slots=True)
class CpsKnowledge:
    """What the attacker currently knows and owns.

    A slots dataclass, not a NamedTuple: every decision reads these
    fields, a slot read costs about half a NamedTuple field read on
    Python 3.11, and a NamedTuple version made both benchmark workloads
    about 3% slower.
    """

    known_nodes: frozenset[str] = frozenset()
    known_edges: frozenset[str] = frozenset()
    compromised_nodes: frozenset[str] = frozenset()


def validate_system(sys: CpsSystem) -> list[str]:
    """Every structural invariant the system breaks; reports, never raises."""
    v: list[str] = []
    seen: set[str] = set()
    for n in sys.nodes:
        if n.id in seen:
            v.append(f"duplicate node id {n.id!r}")
        seen.add(n.id)
        if n.id == sys.external_origin:
            v.append(f"node id {n.id!r} collides with the external origin")
        for key in n.attributes:
            if not key:
                v.append(f"node {n.id!r} has an empty attribute key")

    seen_edges: set[str] = set()
    for e in sys.edges:
        if e.id in seen_edges:
            v.append(f"duplicate edge id {e.id!r}")
        seen_edges.add(e.id)
        if e.from_node == e.to_node:
            v.append(f"edge {e.id!r} is a self-loop on {e.from_node!r}")
        if e.is_entry_point and not e.is_attack_vector:
            v.append(f"entry-point edge {e.id!r} must be an attack vector")
        if e.is_entry_point:
            if e.from_node != sys.external_origin:
                v.append(f"entry-point edge {e.id!r} must originate at "
                         f"{sys.external_origin!r}, not {e.from_node!r}")
        elif e.from_node == sys.external_origin:
            v.append(f"edge {e.id!r} originates at the external origin "
                     "but is not an entry point")
        elif e.from_node not in sys.node_by_id:
            v.append(f"edge {e.id!r} references missing node {e.from_node!r}")
        if e.to_node not in sys.node_by_id:
            v.append(f"edge {e.id!r} references missing node {e.to_node!r}")

    if not any(e.is_entry_point for e in sys.edges):
        v.append("no entry point: at least one entry-point edge is required")
    if not any(n.is_target for n in sys.nodes):
        v.append("no target: at least one node must be flagged as the target")
    return v


def initial_knowledge(sys: CpsSystem) -> CpsKnowledge:
    """Starting knowledge: the entry points and the nodes they lead to."""
    violations = validate_system(sys)
    if violations:
        raise ValidationFailure("malformed system", violations)
    entries = sys.entry_edges
    return CpsKnowledge(
        known_nodes=frozenset(e.to_node for e in entries),
        known_edges=frozenset(e.id for e in entries),
        compromised_nodes=frozenset(),
    )


def reveal_on_compromise(k: CpsKnowledge, sys: CpsSystem,
                         node: str) -> CpsKnowledge:
    """Knowledge transition on compromise of `node`.

    Every edge touching the node becomes known, along with the node on the
    far end of each such edge (direction is ignored: owning a node exposes
    both ends of its links). Both sets are built once per system, so the
    transition is three frozenset unions. Pure: the input knowledge is
    unchanged.
    """
    if node not in k.known_nodes:
        raise ValueError(f"cannot compromise unknown node {node!r}")
    nodes, edges = sys._reveals.get(node, _NOTHING)
    # positional, in field order: the keyword form costs more per call
    return CpsKnowledge(k.known_nodes | nodes, k.known_edges | edges,
                        k.compromised_nodes | {node})


def system_from_dict(doc: dict) -> CpsSystem:
    """Build and fully validate a system from a parsed description document.

    Raises ValidationFailure listing every problem at once: document shape,
    field types and the structural invariants of validate_system.
    """
    errors = document(doc, {"nodes", "edges"}, "system document")
    nodes: list[Node] = []
    for owner, nd in entries(doc.get("nodes", []), "nodes", _NODE_KEYS,
                             "node", errors):
        attrs = container(nd.get("attributes", {}), dict,
                          "{} attributes", errors, owner)
        nodes.append(Node(
            id=nd["id"],
            name=string(nd.get("name", ""), "{} name", errors, owner),
            attributes={a: string(b, "{} attribute {!r}", errors, owner, a)
                        for a, b in attrs.items()},
            is_target=boolean(nd.get("target", False), "{} target", errors,
                              owner),
        ))
    edges: list[Edge] = []
    for owner, ed in entries(doc.get("edges", []), "edges", _EDGE_KEYS,
                             "edge", errors):
        entry = boolean(ed.get("entry_point", False), "{} entry_point",
                        errors, owner)
        # positional, in Edge's field order
        edges.append(Edge(
            ed["id"],
            string(ed.get("from"), "{} from", errors, owner),
            string(ed.get("to"), "{} to", errors, owner),
            frozenset(string_list(ed.get("channels", []), "{} channels",
                                  errors, owner)),
            boolean(ed.get("attack_vector", entry), "{} attack_vector",
                    errors, owner),
            entry,
        ))
    system = CpsSystem(nodes, edges)
    errors.extend(validate_system(system))
    if errors:
        raise ValidationFailure("invalid system document", errors)
    return system


def load_system(path: str | Path) -> CpsSystem:
    """Load and fully validate a system description file."""
    return system_from_dict(read_json(path))


def system_to_dict(sys: CpsSystem) -> dict:
    return {
        "nodes": [
            {"id": n.id, "name": n.name, "attributes": dict(n.attributes),
             "target": n.is_target}
            for n in sys.nodes
        ],
        "edges": [
            {"id": e.id, "from": e.from_node, "to": e.to_node,
             "channels": sorted(e.channels),
             "entry_point": e.is_entry_point,
             "attack_vector": e.is_attack_vector}
            for e in sys.edges
        ],
    }
