import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.errors import ValidationFailure
from attacksim.model import (
    EXTERNAL_ORIGIN,
    CpsKnowledge,
    CpsSystem,
    Edge,
    Node,
    initial_knowledge,
    load_system,
    reveal_on_compromise,
    system_from_dict,
    system_to_dict,
    validate_system,
)

from genrand import random_system


def two_node_system() -> CpsSystem:
    return CpsSystem(
        nodes=[Node("A", attributes={"os": "win"}),
               Node("B", is_target=True)],
        edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                    is_attack_vector=True, is_entry_point=True),
               Edge("L1", "A", "B", frozenset({"net"}), is_attack_vector=True)],
    )


class TestValidateSystem:
    def test_well_formed_system_is_clean(self):
        assert validate_system(two_node_system()) == []

    def test_no_entry_point_reported(self):
        sys_ = CpsSystem(
            nodes=[Node("A"), Node("B", is_target=True)],
            edges=[Edge("L1", "A", "B", frozenset({"net"}),
                        is_attack_vector=True)],
        )
        violations = validate_system(sys_)
        assert any("no entry point" in v for v in violations)

    def test_dangling_reference_names_the_node(self):
        sys_ = CpsSystem(
            nodes=[Node("A", is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True),
                   Edge("L1", "A", "N9", frozenset({"net"}),
                        is_attack_vector=True)],
        )
        violations = validate_system(sys_)
        assert any("N9" in v for v in violations)

    def test_no_target_reported(self):
        sys_ = CpsSystem(
            nodes=[Node("A")],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True)],
        )
        assert any("no target" in v
                   for v in validate_system(sys_))

    def test_entry_point_must_be_attack_vector(self):
        sys_ = CpsSystem(
            nodes=[Node("A", is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=False, is_entry_point=True)],
        )
        assert any("attack vector" in v
                   for v in validate_system(sys_))

    def test_self_loop_reported(self):
        sys_ = two_node_system()
        bad = CpsSystem(sys_.nodes, list(sys_.edges)
                        + [Edge("L9", "A", "A", frozenset({"net"}))])
        assert any("self-loop" in v for v in validate_system(bad))


class TestInitialKnowledge:
    def test_entry_destinations_known_nothing_compromised(self):
        k = initial_knowledge(two_node_system())
        assert k.known_nodes == {"A"}
        assert k.known_edges == {"E1"}
        assert k.compromised_nodes == frozenset()

    def test_shared_destination_appears_once(self):
        sys_ = CpsSystem(
            nodes=[Node("A", is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True),
                   Edge("E2", EXTERNAL_ORIGIN, "A", frozenset({"usb"}),
                        is_attack_vector=True, is_entry_point=True)],
        )
        k = initial_knowledge(sys_)
        assert k.known_nodes == {"A"}
        assert k.known_edges == {"E1", "E2"}

    def test_malformed_system_raises_naming_violation(self):
        sys_ = CpsSystem(nodes=[Node("A", is_target=True)], edges=[])
        with pytest.raises(ValidationFailure, match="no entry point"):
            initial_knowledge(sys_)

    def test_case_study_entry_nodes(self, cstr_paths):
        sys_ = load_system(cstr_paths["system"])
        k = initial_knowledge(sys_)
        assert k.known_nodes == {"N1", "N2", "N6", "N7"}
        assert k.known_edges == {"E1", "E2", "E3", "E4"}


class TestRevealOnCompromise:
    def test_neighbors_and_edges_become_known(self):
        sys_ = two_node_system()
        k0 = initial_knowledge(sys_)
        k1 = reveal_on_compromise(k0, sys_, "A")
        assert k1.compromised_nodes == {"A"}
        assert k1.known_nodes == {"A", "B"}
        assert k1.known_edges == {"E1", "L1"}

    def test_input_not_mutated(self):
        sys_ = two_node_system()
        k0 = initial_knowledge(sys_)
        reveal_on_compromise(k0, sys_, "A")
        assert k0.compromised_nodes == frozenset()
        assert k0.known_nodes == {"A"}

    def test_isolated_node_changes_only_ownership(self):
        sys_ = CpsSystem(
            nodes=[Node("A", is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True)],
        )
        k0 = initial_knowledge(sys_)
        k1 = reveal_on_compromise(k0, sys_, "A")
        assert k1.known_nodes == k0.known_nodes
        assert k1.compromised_nodes == {"A"}

    def test_idempotent_per_node(self):
        sys_ = two_node_system()
        k1 = reveal_on_compromise(initial_knowledge(sys_), sys_, "A")
        assert reveal_on_compromise(k1, sys_, "A") == k1

    def test_unknown_node_rejected(self):
        sys_ = two_node_system()
        with pytest.raises(ValueError, match="unknown node"):
            reveal_on_compromise(initial_knowledge(sys_), sys_, "B")

    def test_reveal_ignores_edge_direction(self):
        sys_ = CpsSystem(
            nodes=[Node("A"), Node("B", is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "A", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True),
                   Edge("L1", "B", "A", frozenset({"net"}))],
        )
        k1 = reveal_on_compromise(initial_knowledge(sys_), sys_, "A")
        assert "B" in k1.known_nodes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_knowledge_invariants_hold_under_random_reveals(seed):
    rng = Random(seed)
    sys_ = random_system(rng)
    k = initial_knowledge(sys_)
    assert not k.compromised_nodes
    for _ in range(rng.randint(0, 8)):
        open_nodes = sorted(k.known_nodes - k.compromised_nodes)
        if not open_nodes:
            break
        prev = k
        k = reveal_on_compromise(k, sys_, rng.choice(open_nodes))
        # monotone growth
        assert prev.known_nodes <= k.known_nodes
        assert prev.known_edges <= k.known_edges
        assert prev.compromised_nodes <= k.compromised_nodes
        # structural invariants
        assert k.compromised_nodes <= k.known_nodes
        for eid in k.known_edges:
            e = sys_.edge_by_id[eid]
            endpoints = {e.from_node, e.to_node} - {EXTERNAL_ORIGIN}
            assert endpoints <= k.known_nodes


class TestSystemIo:
    def test_round_trip_through_dict(self):
        sys_ = two_node_system()
        clone = system_from_dict(system_to_dict(sys_))
        assert system_to_dict(clone) == system_to_dict(sys_)

    def test_unknown_top_level_key_rejected(self):
        doc = system_to_dict(two_node_system())
        doc["extras"] = []
        with pytest.raises(ValidationFailure, match="unknown top-level keys"):
            system_from_dict(doc)

    def test_unknown_edge_key_rejected(self):
        doc = system_to_dict(two_node_system())
        doc["edges"][0]["weight"] = 3
        with pytest.raises(ValidationFailure, match="unknown keys"):
            system_from_dict(doc)

    def test_load_system_reports_all_structural_errors(self, tmp_path):
        doc = {"nodes": [{"id": "A"}],
               "edges": [{"id": "L1", "from": "A", "to": "N9",
                          "channels": ["net"], "attack_vector": True}]}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationFailure) as exc:
            load_system(path)
        text = str(exc.value)
        assert "N9" in text and "no entry point" in text and "no target" in text

    def test_fixture_loads_clean(self, cstr_paths):
        sys_ = load_system(cstr_paths["system"])
        assert len(sys_.nodes) == 7
        assert len(sys_.entry_edges) == 4
        assert [n.id for n in sys_.target_nodes] == ["N4"]


def set_building_reveal(k: CpsKnowledge, sys_: CpsSystem,
                        node: str) -> CpsKnowledge:
    """Reference transition: walks every edge of the system and builds the
    knowledge sets anew on every call."""
    if node not in k.known_nodes:
        raise ValueError(f"cannot compromise unknown node {node!r}")
    known_nodes = set(k.known_nodes)
    known_edges = set(k.known_edges)
    for e in sys_.edges:
        if node not in (e.from_node, e.to_node):
            continue
        known_edges.add(e.id)
        for end in (e.from_node, e.to_node):
            if end != sys_.external_origin:
                known_nodes.add(end)
    return CpsKnowledge(
        known_nodes=frozenset(known_nodes),
        known_edges=frozenset(known_edges),
        compromised_nodes=k.compromised_nodes | {node},
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_reveal_matches_set_building_reference(seed):
    """On reachable knowledge and on arbitrary subsets of the system."""
    rng = Random(seed)
    sys_ = random_system(rng, max_nodes=8)
    nodes = [n.id for n in sys_.nodes]
    edges = [e.id for e in sys_.edges]
    k = initial_knowledge(sys_)
    for _ in range(8):
        node = rng.choice(sorted(k.known_nodes))
        got = reveal_on_compromise(k, sys_, node)
        assert got == set_building_reveal(k, sys_, node)
        k = got
    for _ in range(8):
        k = CpsKnowledge(
            known_nodes=frozenset(rng.sample(nodes, rng.randint(1, len(nodes)))),
            known_edges=frozenset(rng.sample(edges, rng.randint(0, len(edges)))),
            compromised_nodes=frozenset(rng.sample(nodes, rng.randint(0, 2))))
        node = rng.choice(sorted(k.known_nodes))
        assert (reveal_on_compromise(k, sys_, node)
                == set_building_reveal(k, sys_, node))
        unknown = sorted(set(nodes) - k.known_nodes) or ["missing"]
        with pytest.raises(ValueError, match="unknown node"):
            reveal_on_compromise(k, sys_, unknown[0])
