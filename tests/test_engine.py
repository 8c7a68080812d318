import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim.actions import Action, ActionDatabase, TargetCriteria
from attacksim.engine import (
    AttackState,
    DecisionContext,
    distance,
    filter_valid,
    initial_state,
    probabilities,
    sample_action,
    scores,
    select_target,
    step,
    viable_edges,
)
from attacksim.errors import ValidationFailure
from attacksim.model import CpsSystem, EXTERNAL_ORIGIN, Edge, Node
from attacksim.profiles import AttackerProfile, ProfileSchema, PropertySchema

from genrand import random_instance, random_state
from oracle_filter import brute_force_valid


def plant_schema() -> ProfileSchema:
    return ProfileSchema([
        PropertySchema("Knowledge", "bounded-range", lower=0, upper=10),
        PropertySchema("Approach", "unordered-set",
                       allowed_values=("quiet", "loud")),
    ])


def plant_system() -> CpsSystem:
    return CpsSystem(
        nodes=[Node("G", name="gateway", attributes={"kind": "gateway"}),
               Node("T", name="plant", attributes={"kind": "plant"},
                    is_target=True)],
        edges=[
            Edge("E1", EXTERNAL_ORIGIN, "G", frozenset({"net"}),
                 is_attack_vector=True, is_entry_point=True),
            Edge("L1", "G", "T", frozenset({"net"}), is_attack_vector=True),
            # present but unusable for attacks
            Edge("L2", "G", "T", frozenset({"radio"}), is_attack_vector=False),
        ],
    )


def plant_actions(**overrides) -> ActionDatabase:
    def act(aid, kind, channels, knowledge, approach, succ=1.0, prereqs=()):
        return Action(
            id=aid,
            name=aid,
            profile={"Knowledge": knowledge, "Approach": approach},
            target_criteria=TargetCriteria({"kind": frozenset({kind})}),
            channels=frozenset(channels),
            prerequisites=frozenset(prereqs),
            success_probability=succ,
        )
    actions = {
        "ax": act("ax", "gateway", {"net"}, 3, "quiet"),
        "ay": act("ay", "gateway", {"net"}, 9, "loud"),
        "aw": act("aw", "plant", {"net"}, 8, "quiet"),
        "az": act("az", "plant", {"radio"}, 2, "loud"),
        "ap": act("ap", "plant", {"net"}, 5, "quiet", prereqs=("aw",)),
    }
    actions.update(overrides)
    return ActionDatabase(actions.values(), plant_schema())


def attacker() -> AttackerProfile:
    return AttackerProfile("tester", {"Knowledge": 6, "Approach": "quiet"})


def fresh_state() -> AttackState:
    return initial_state(plant_system(), plant_actions(), attacker())


class TestAttackerTheta:
    def test_spread_overflow_rejected(self):
        # the actions' values span 1.7e308; with the attacker's, 3.4e308
        schema = ProfileSchema([PropertySchema("Budget", "unbounded-range")])
        db = ActionDatabase([Action(id="a", profile={"Budget": -1.7e308}),
                             Action(id="b", profile={"Budget": 0.0})],
                            schema)
        assert db.validate() == []
        ctx = DecisionContext(plant_system(), db)
        with pytest.raises(ValidationFailure) as exc:
            ctx.attacker_theta(AttackerProfile("rich", {"Budget": 1.7e308}))
        assert exc.value.errors == [
            "attacker profile 'rich': max - min of property 'Budget' over "
            "the action values and this profile's value must be finite"]


class TestFilterValid:
    def test_fresh_matching_actions_over_entry_edge(self):
        assert filter_valid(fresh_state(), "G") == ["ax", "ay"]

    def test_attempted_action_excluded(self):
        state = fresh_state()
        state.attempted["G"] = {"ax"}
        assert filter_valid(state, "G") == ["ay"]

    def test_channel_mismatch_excluded(self):
        # only a net edge reaches T once G is owned; az needs radio
        state = fresh_state()
        state, _ = step(state, Random(1))  # compromises G
        assert "az" not in filter_valid(state, "T")
        assert "aw" in filter_valid(state, "T")

    def test_non_attack_vector_edge_unusable(self):
        # L2 (radio) is known after G falls but flagged non-vector
        state = fresh_state()
        state, _ = step(state, Random(1))
        assert "L2" not in viable_edges(state, "T", "aw")
        assert viable_edges(state, "T", "aw") == ("L1",)

    def test_prerequisite_gates_action(self):
        state = fresh_state()
        state, _ = step(state, Random(1))
        assert "ap" not in filter_valid(state, "T")
        state.succeeded["T"] = {"aw"}  # synthetic partial-success state
        assert "ap" in filter_valid(state, "T")

    def test_edge_from_uncompromised_node_unusable(self):
        # T is unknown initially; even seeded knowledge of L1 cannot help
        # because G is not compromised
        state = fresh_state()
        k = state.knowledge
        state.knowledge = type(k)(
            known_nodes=k.known_nodes | {"T"},
            known_edges=k.known_edges | {"L1"},
            compromised_nodes=k.compromised_nodes,
        )
        assert filter_valid(state, "T") == []

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="not known"):
            filter_valid(fresh_state(), "T")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force_oracle(self, seed):
        rng = Random(seed)
        system, db, prof = random_instance(rng)
        state = random_state(rng, system, db, prof)
        open_nodes = sorted(state.knowledge.known_nodes
                            - state.knowledge.compromised_nodes)
        for target in open_nodes:
            assert set(filter_valid(state, target)) == \
                brute_force_valid(state, target)


class TestSelectTarget:
    def test_single_valid_node(self):
        assert select_target(fresh_state(), Random(0)) == "G"

    def test_sticky_until_exhausted(self):
        # fail on G once; another valid node exists afterwards, but the
        # attacker stays on G while candidates remain
        def never(aid, knowledge, approach):
            return Action(
                id=aid, name=aid,
                profile={"Knowledge": knowledge, "Approach": approach},
                target_criteria=TargetCriteria(
                    {"kind": frozenset({"gateway"})}),
                channels=frozenset({"net"}), success_probability=0.0)
        db = plant_actions(ax=never("ax", 3, "quiet"),
                           ay=never("ay", 9, "loud"))
        sys_ = CpsSystem(
            nodes=[Node("G", attributes={"kind": "gateway"}),
                   Node("G2", attributes={"kind": "gateway"}),
                   Node("T", attributes={"kind": "plant"}, is_target=True)],
            edges=[Edge("E1", EXTERNAL_ORIGIN, "G", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True),
                   Edge("E2", EXTERNAL_ORIGIN, "G2", frozenset({"net"}),
                        is_attack_vector=True, is_entry_point=True),
                   Edge("L1", "G", "T", frozenset({"net"}),
                        is_attack_vector=True)],
        )
        state = initial_state(sys_, db, attacker())
        rng = Random(3)
        state.current_target = "G"
        state, rec = step(state, rng)
        assert rec.target == "G" and rec.outcome == "failure"
        # ay still untried on G: stays on G despite G2 being valid
        assert select_target(state, rng) == "G"

    def test_compromised_nodes_never_targeted(self):
        state = fresh_state()
        rng = Random(1)
        state, rec1 = step(state, rng)
        assert rec1.target == "G"
        state, rec2 = step(state, rng)
        assert rec2.target == "T"

    def test_none_when_everything_exhausted(self):
        state = fresh_state()
        state.attempted["G"] = {"ax", "ay"}
        assert select_target(state, Random(0)) is None

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), sticky=st.integers(-1, 7))
    def test_matches_brute_force_reference(self, seed, sticky):
        rng = Random(seed)
        system, db, prof = random_instance(rng)
        state = random_state(rng, system, db, prof)
        open_nodes = sorted(state.knowledge.known_nodes
                            - state.knowledge.compromised_nodes)
        if 0 <= sticky < len(open_nodes):
            state.current_target = open_nodes[sticky]
        cur = state.current_target
        valid = [n for n in open_nodes if brute_force_valid(state, n)]
        if cur in valid:
            expected = cur
        elif valid:
            ref_rng = Random(seed)
            expected = valid[ref_rng.randrange(len(valid))]
        else:
            expected = None
        assert select_target(state, Random(seed)) == expected


class TestDistance:
    def test_identical_profiles_zero(self):
        assert distance((0.3, "quiet"), (0.3, "quiet"), (1.0, 1.0)) == 0.0

    def test_three_four_five(self):
        assert distance((0.0, 0.0), (0.6, 0.8), (1.0, 1.0)) == 1.0

    def test_mismatched_labels_contribute_one(self):
        d = distance(("quiet",), ("loud",), (1.0,))
        assert d == 1.0

    def test_halving_criticality_increases_distance(self):
        base = distance((0.2, 0.9), (0.8, 0.9), (1.0, 1.0))
        weighted = distance((0.2, 0.9), (0.8, 0.9), (0.5, 1.0))
        assert weighted > base

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            distance((0.1,), (0.1, 0.2), (1.0, 1.0))

    def test_label_number_mix_rejected(self):
        with pytest.raises(ValueError, match="label"):
            distance(("quiet",), (0.5,), (1.0,))

    def test_criticality_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="criticality"):
            distance((0.1,), (0.2,), (0.0,))


class TestScores:
    def test_direct_evaluation(self):
        assert scores([0.2, 0.3, 0.5]) == [0.8, 0.7, 0.5]

    def test_equal_distances_split_evenly(self):
        assert scores([0.7, 0.7]) == [0.5, 0.5]

    def test_all_zero_distances_score_uniformly(self):
        assert scores([0.0, 0.0]) == [1.0, 1.0]

    def test_single_candidate_scores_one(self):
        assert scores([42.0]) == [1.0]

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            scores([0.5, -0.1])

    def test_sum_rule_for_multi_candidate_sets(self):
        rng = Random(4)
        for _ in range(100):
            m = rng.randint(2, 9)
            d = [rng.uniform(0.001, 5) for _ in range(m)]
            assert sum(scores(d)) == pytest.approx(m - 1, abs=1e-9)


class TestProbabilities:
    def test_direct_evaluation(self):
        assert probabilities([0.8, 0.7, 0.5]) == [0.4, 0.35, 0.25]

    def test_single_candidate(self):
        assert probabilities([1.0]) == [1.0]

    def test_uniform_scores(self):
        assert probabilities([0.3, 0.3, 0.3, 0.3]) == [0.25] * 4

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            probabilities([0.0, 0.0])

    def test_ordering_follows_scores(self):
        rng = Random(9)
        for _ in range(200):
            m = rng.randint(2, 8)
            d = sorted({rng.uniform(0.01, 10) for _ in range(m)})
            if len(d) < 2:
                continue
            s = scores(d)
            p = probabilities(s)
            for i in range(len(d) - 1):
                assert d[i] < d[i + 1]
                assert s[i] > s[i + 1]
                assert p[i] > p[i + 1]

    def test_scale_invariance_of_composition(self):
        rng = Random(10)
        for _ in range(100):
            m = rng.randint(2, 8)
            d = [rng.uniform(0.01, 10) for _ in range(m)]
            c = rng.uniform(0.1, 50)
            base = probabilities(scores(d))
            scaled = probabilities(scores([x * c for x in d]))
            for a, b in zip(base, scaled):
                assert a == pytest.approx(b, abs=1e-12)


class TestSampleAction:
    def test_single_candidate_always_chosen(self):
        rng = Random(0)
        assert all(sample_action(["only"], [1.0], rng) == "only"
                   for _ in range(20))

    def test_binomial_bound_at_ninety_ten(self):
        rng = Random(77)
        hits = sum(sample_action(["a", "b"], [0.9, 0.1], rng) == "a"
                   for _ in range(10_000))
        assert abs(hits - 9_000) <= 150  # 5 sigma

    def test_reproducible_for_fixed_seed(self):
        seq1 = [sample_action(["a", "b", "c"], [0.2, 0.3, 0.5], Random(5))
                for _ in range(1)]
        r1, r2 = Random(13), Random(13)
        s1 = [sample_action(["a", "b", "c"], [0.2, 0.3, 0.5], r1)
              for _ in range(100)]
        s2 = [sample_action(["a", "b", "c"], [0.2, 0.3, 0.5], r2)
              for _ in range(100)]
        assert s1 == s2 and seq1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_action([], [], Random(0))


class TestStep:
    def test_success_records_attempt_and_grows_knowledge(self):
        state = fresh_state()
        state, rec = step(state, Random(1))
        assert rec.target == "G"
        assert rec.outcome == "success"
        assert rec.chosen in state.attempted["G"]
        assert "G" in state.knowledge.compromised_nodes
        assert "T" in state.knowledge.known_nodes
        assert rec.source == EXTERNAL_ORIGIN
        assert rec.via_edges == ("E1",)

    def test_candidate_probabilities_normalized(self):
        state = fresh_state()
        _, rec = step(state, Random(2))
        assert sum(c.probability for c in rec.candidates) == pytest.approx(
            1.0, abs=1e-9)
        assert rec.chosen in {c.action_id for c in rec.candidates}

    def test_episode_end_signal(self):
        state = fresh_state()
        state.attempted["G"] = {"ax", "ay"}
        assert step(state, Random(0)) is None

    def test_failed_action_marks_exhaustion(self):
        db = plant_actions(
            ax=Action(id="ax", name="ax",
                      profile={"Knowledge": 3, "Approach": "quiet"},
                      target_criteria=TargetCriteria(
                          {"kind": frozenset({"gateway"})}),
                      channels=frozenset({"net"}), success_probability=0.0),
            ay=Action(id="ay", name="ay",
                      profile={"Knowledge": 9, "Approach": "loud"},
                      target_criteria=TargetCriteria(
                          {"kind": frozenset({"gateway"})}),
                      channels=frozenset({"net"}), success_probability=0.0))
        state = initial_state(plant_system(), db, attacker())
        rng = Random(6)
        state, r1 = step(state, rng)
        state, r2 = step(state, rng)
        assert {r1.chosen, r2.chosen} == {"ax", "ay"}
        assert r1.outcome == r2.outcome == "failure"
        assert step(state, rng) is None

    def test_same_pair_never_attempted_twice(self):
        rng = Random(8)
        state = fresh_state()
        seen = set()
        while (result := step(state, rng)) is not None:
            state, rec = result
            pair = (rec.target, rec.chosen)
            assert pair not in seen
            seen.add(pair)

    def test_disrupt_effect_also_reveals(self):
        db = ActionDatabase([Action(
            id="ax", name="ax",
            profile={"Knowledge": 3, "Approach": "quiet"},
            target_criteria=TargetCriteria({"kind": frozenset({"gateway"})}),
            channels=frozenset({"net"}), effect="disrupt")], plant_schema())
        state = initial_state(plant_system(), db, attacker())
        state, rec = step(state, Random(1))
        assert rec.chosen == "ax" and rec.outcome == "success"
        assert "G" in state.knowledge.compromised_nodes
        assert "T" in state.knowledge.known_nodes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_episodes_terminate_with_clean_history(seed):
    rng = Random(seed)
    system, db, prof = random_instance(rng, max_nodes=5, max_actions=6)
    state = initial_state(system, db, prof)
    pairs = set()
    bound = len(system.nodes) * len(db.actions) + 1
    steps = 0
    while (result := step(state, rng)) is not None:
        steps += 1
        assert steps <= bound, "episode failed to terminate"
        _, rec = result
        pair = (rec.target, rec.chosen)
        assert pair not in pairs
        pairs.add(pair)
        assert sum(c.probability for c in rec.candidates) == pytest.approx(
            1.0, abs=1e-9)
    assert set(state.attempted) <= state.knowledge.known_nodes
