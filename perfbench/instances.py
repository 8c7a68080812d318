"""Seeded instance generator for the generated benchmark workloads.

Self-contained on purpose: it writes plain JSON documents in the format
the attacksim loaders read and imports nothing from the package or its
tests, so moving or refactoring either never changes a benchmark input.

Shapes:

* ``grid``: 25 nodes in 5 layers of 5, about 200 edges and 250 actions
  with narrow criteria. Every known node keeps some candidates, so
  ``select_target`` rescans all of them and filtering dominates.
* ``wide``: 4 nodes forming an entry -> target chain plus a few extra
  edges, 2000 actions with broad criteria and low success probabilities.
  The target stays sticky, so each decision scores most of the database.

``run.py`` writes an instance before any timing and prints its statistics
with ``describe``.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

ACCESS = ("Direct", "Wireless", "Offsite")
LEVELS = ("Low", "Medium", "High")

# Same property kinds as the bundled fixture, so every scaling rule runs.
SCHEMA = [
    {"name": "Access", "kind": "unordered-set", "allowed_values": list(ACCESS),
     "criticality": 1.0},
    {"name": "Finances", "kind": "unbounded-range", "criticality": 1.0},
    {"name": "Knowledge", "kind": "bounded-range", "lower": 0, "upper": 10,
     "criticality": 0.5},
    {"name": "Manpower", "kind": "unbounded-range", "criticality": 1.0},
    {"name": "Motivation", "kind": "ordered-set", "allowed_values": list(LEVELS),
     "criticality": 1.0},
    {"name": "Tools", "kind": "ordered-set", "allowed_values": list(LEVELS),
     "criticality": 0.5},
]

ATTRIBUTES = {
    "role": ("workstation", "server", "controller", "hmi", "gateway"),
    "os": ("windows", "linux", "rtos"),
    "zone": ("office", "dmz", "control", "field"),
}
CHANNELS = ("ethernet", "modbus", "usb", "remote-access", "wireless")

SHAPES = {
    # nodes, layer width, entry edges, actions, success-probability range
    "grid": dict(nodes=25, width=5, entries=3, actions=250,
                 success=(0.3, 1.0)),
    "wide": dict(nodes=4, actions=2000, success=(0.02, 0.1)),
}


def _profile(rng: Random) -> dict:
    return {
        "Access": rng.choice(ACCESS),
        "Finances": round(rng.uniform(100.0, 1_000_000.0), 2),
        "Knowledge": round(rng.uniform(0.0, 10.0), 3),
        "Manpower": rng.randint(1, 50),
        "Motivation": rng.choice(LEVELS),
        "Tools": rng.choice(LEVELS),
    }


def _nodes(rng: Random, n: int) -> list[dict]:
    nodes = []
    for i in range(n):
        attrs = {key: values[(i + rng.randrange(len(values))) % len(values)]
                 for key, values in ATTRIBUTES.items()}
        nodes.append({"id": f"N{i:02d}", "name": f"node {i}",
                      "attributes": attrs, "target": i == n - 1})
    return nodes


def _grid_edges(rng: Random, n: int, width: int, entries: int) -> list[dict]:
    """Layers of `width` nodes; each node links to every other node of its
    own layer and of the next one. The attacker must cross every layer to
    reach the target in the last, which keeps episode lengths close."""
    edges = [{"id": f"E{j}", "from": "@external", "to": f"N{j:02d}",
              "channels": sorted(rng.sample(CHANNELS, 2)),
              "entry_point": True, "attack_vector": True}
             for j in range(entries)]
    k = 0
    for i in range(n):
        for j in range(n):
            if j != i and j // width in (i // width, i // width + 1):
                edges.append({"id": f"L{k:03d}", "from": f"N{i:02d}",
                              "to": f"N{j:02d}",
                              "channels": sorted(rng.sample(CHANNELS, 2)),
                              "attack_vector": rng.random() < 0.9})
                k += 1
    return edges


def _wide_edges() -> list[dict]:
    """Entry -> N00 -> N01 -> N02 -> N03 (target) plus shortcuts and back
    edges, all on the same channels, so every node has the same candidate
    set and the trace size does not depend on which node is attacked."""
    links = [("N00", "N01"), ("N01", "N02"), ("N02", "N03"),
             ("N00", "N02"), ("N01", "N00"), ("N02", "N01")]
    channels = ["ethernet", "modbus"]
    edges = [{"id": "E0", "from": "@external", "to": "N00",
              "channels": channels, "entry_point": True,
              "attack_vector": True}]
    for k, (a, b) in enumerate(links):
        edges.append({"id": f"L{k}", "from": a, "to": b,
                      "channels": channels, "attack_vector": True})
    return edges


def _actions(rng: Random, shape: str, m: int, success: tuple[float, float]) -> list[dict]:
    actions = []
    for i in range(m):
        if shape == "grid":
            key = rng.choice(sorted(ATTRIBUTES))
            criteria = {key: sorted(rng.sample(ATTRIBUTES[key], 1))}
            channels = sorted(rng.sample(CHANNELS, rng.randint(1, 2)))
        else:
            criteria = ({} if rng.random() < 0.9 else
                        {"os": sorted(rng.sample(ATTRIBUTES["os"], 2))})
            channels = sorted(rng.sample(CHANNELS[:3], rng.randint(1, 2)))
        actions.append({
            "id": f"A{i:04d}",
            "name": f"action {i}",
            "profile": _profile(rng),
            "target_criteria": criteria,
            "channels": channels,
            "prerequisites": [],
            "success_probability": round(rng.uniform(*success), 4),
            "effect": "compromise",
        })
    return actions


def generate(shape: str, seed: int) -> dict:
    """Build the three input documents of one instance; the same
    (shape, seed) always gives the same documents."""
    spec = SHAPES[shape]
    rng = Random(f"{shape}:{seed}")
    nodes = _nodes(rng, spec["nodes"])
    if shape == "grid":
        edges = _grid_edges(rng, spec["nodes"], spec["width"],
                            spec["entries"])
    else:
        edges = _wide_edges()
    acts = _actions(rng, shape, spec["actions"], spec["success"])
    profiles = {"schema": SCHEMA,
                "profiles": [{"name": "attacker", "values": _profile(rng)}]}
    return {"system": {"nodes": nodes, "edges": edges},
            "actions": {"actions": acts},
            "profiles": profiles}


def write_instance(docs: dict, out_dir: Path) -> dict[str, Path]:
    """Write the documents as system.json, actions.json and profiles.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, doc in docs.items():
        paths[key] = out_dir / f"{key}.json"
        paths[key].write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return paths


def describe(system, db, traces, statuses: tuple[str, ...]) -> str:
    """One line of instance statistics: structure plus what a run did."""
    decisions = sum(len(t.records) for t in traces)
    candidates = sum(len(r.candidates) for t in traces for r in t.records)
    ends = {s: sum(1 for t in traces if t.status == s) for s in statuses}
    return (f"nodes={len(system.nodes)} edges={len(system.edges)} "
            f"actions={len(db.actions)} "
            f"decisions_per_episode={decisions / max(1, len(traces)):.2f} "
            f"candidates_per_decision={candidates / max(1, decisions):.1f} "
            "end_states=" + ",".join(f"{k}:{v}" for k, v in ends.items()))
