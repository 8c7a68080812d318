"""Formal system model: nodes, edges, attack vectors, entry points, and the
attacker's evolving knowledge of them.

A system is a directed graph. Entry-point edges originate at the reserved
external origin ``@external``; every entry point is also an attack vector.
Knowledge is a value: transitions return new instances and never mutate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from attacksim.errors import ValidationFailure, string_list

EXTERNAL_ORIGIN = "@external"

_NODE_KEYS = {"id", "name", "attributes", "target"}
_EDGE_KEYS = {"id", "from", "to", "channels", "entry_point", "attack_vector"}


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    name: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)
    is_target: bool = False


@dataclass(frozen=True, slots=True)
class Edge:
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

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge],
                 external_origin: str = EXTERNAL_ORIGIN):
        self.nodes: tuple[Node, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        self.edges: tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self.external_origin = external_origin
        self.node_by_id: dict[str, Node] = {n.id: n for n in self.nodes}
        self.edge_by_id: dict[str, Edge] = {e.id: e for e in self.edges}
        self._into: dict[str, list[Edge]] = {}
        self._incident: dict[str, list[Edge]] = {}
        for e in self.edges:
            self._into.setdefault(e.to_node, []).append(e)
            self._incident.setdefault(e.to_node, []).append(e)
            if e.from_node != external_origin:
                self._incident.setdefault(e.from_node, []).append(e)

    def edges_into(self, node_id: str) -> tuple[Edge, ...]:
        return tuple(self._into.get(node_id, ()))

    def edges_incident(self, node_id: str) -> tuple[Edge, ...]:
        return tuple(self._incident.get(node_id, ()))

    @property
    def entry_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_entry_point)

    @property
    def target_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_target)


@dataclass(frozen=True, slots=True)
class CpsKnowledge:
    """What the attacker currently knows and owns."""

    known_nodes: frozenset[str] = frozenset()
    known_edges: frozenset[str] = frozenset()
    compromised_nodes: frozenset[str] = frozenset()


@dataclass(slots=True)
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_system(sys: CpsSystem) -> ValidationReport:
    """Check every structural invariant; reports, never raises."""
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
    return ValidationReport(v)


def initial_knowledge(sys: CpsSystem) -> CpsKnowledge:
    """Starting knowledge: the entry points and the nodes they lead to."""
    report = validate_system(sys)
    if not report.ok:
        raise ValidationFailure("malformed system", report.violations)
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
    both ends of its links). Pure: the input knowledge is unchanged.
    """
    if node not in k.known_nodes:
        raise ValueError(f"cannot compromise unknown node {node!r}")
    known_nodes = set(k.known_nodes)
    known_edges = set(k.known_edges)
    for e in sys.edges_incident(node):
        known_edges.add(e.id)
        for end in (e.from_node, e.to_node):
            if end != sys.external_origin:
                known_nodes.add(end)
    return CpsKnowledge(
        known_nodes=frozenset(known_nodes),
        known_edges=frozenset(known_edges),
        compromised_nodes=k.compromised_nodes | {node},
    )


def system_from_dict(doc: dict) -> CpsSystem:
    """Build a system from a parsed description document.

    Raises ValidationFailure listing every schema problem; structural
    invariants are checked separately by validate_system.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationFailure("system document must be a JSON object")
    unknown = set(doc) - {"nodes", "edges"}
    if unknown:
        errors.append("unknown top-level keys: " + ", ".join(sorted(unknown)))
    nodes: list[Node] = []
    for i, nd in enumerate(doc.get("nodes", [])):
        if not isinstance(nd, dict) or "id" not in nd:
            errors.append(f"node #{i} is not an object with an 'id'")
            continue
        extra = set(nd) - _NODE_KEYS
        if extra:
            errors.append(f"node {nd['id']!r} has unknown keys: "
                          + ", ".join(sorted(extra)))
        attrs = nd.get("attributes", {})
        if not isinstance(attrs, dict):
            errors.append(f"node {nd['id']!r} attributes must be an object")
            attrs = {}
        for a, b in attrs.items():
            if not isinstance(b, str):
                errors.append(f"node {nd['id']!r} attribute {a!r} must be a "
                              "string")
        nodes.append(Node(
            id=str(nd["id"]),
            name=str(nd.get("name", "")),
            attributes={str(a): str(b) for a, b in attrs.items()},
            is_target=bool(nd.get("target", False)),
        ))
    edges: list[Edge] = []
    for i, ed in enumerate(doc.get("edges", [])):
        if not isinstance(ed, dict) or "id" not in ed:
            errors.append(f"edge #{i} is not an object with an 'id'")
            continue
        extra = set(ed) - _EDGE_KEYS
        if extra:
            errors.append(f"edge {ed['id']!r} has unknown keys: "
                          + ", ".join(sorted(extra)))
        missing = {"from", "to"} - set(ed)
        if missing:
            errors.append(f"edge {ed['id']!r} is missing: "
                          + ", ".join(sorted(missing)))
            continue
        entry = bool(ed.get("entry_point", False))
        edges.append(Edge(
            id=str(ed["id"]),
            from_node=str(ed["from"]),
            to_node=str(ed["to"]),
            channels=frozenset(string_list(
                ed.get("channels", []), f"edge {ed['id']!r} channels",
                errors)),
            is_attack_vector=bool(ed.get("attack_vector", entry)),
            is_entry_point=entry,
        ))
    if errors:
        raise ValidationFailure("invalid system document", errors)
    return CpsSystem(nodes, edges)


def load_system(path: str | Path) -> CpsSystem:
    """Load and fully validate a system description file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"cannot parse {path}: {exc}") from exc
    sys_ = system_from_dict(doc)
    report = validate_system(sys_)
    if not report.ok:
        raise ValidationFailure(f"invalid system in {path}", report.violations)
    return sys_


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
