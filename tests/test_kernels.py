"""Reference cases for the decision-math kernels."""

import importlib.util
import math
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from attacksim import _kernels
from attacksim.actions import ActionDatabase, load_action_db
from attacksim.cli import load_inputs
from attacksim.engine import DecisionContext, distance
from attacksim.harness import SimConfig, run_monte_carlo, trace_to_dict
from attacksim.model import load_system
from attacksim.profiles import (
    AttackerProfile,
    ProfilePmf,
    ProfileSchema,
    ProfileSet,
    load_profiles,
    scale_profile,
)

from genrand import random_instance
import oracle_context
import oracle_engine

ROOT = Path(__file__).resolve().parents[1]


def test_distances_basic():
    # single row, 3-4-5 triangle; one column per slot
    got = _kernels.profile_distances([0.0, 0.0], [1.0, 1.0], [[0.6], [0.8]],
                                     [False, False], 1)
    assert got == [1.0]


def test_unordered_slots_compare_by_label():
    theta = ["Direct", 0.5]
    columns = [["Direct", "Wireless"], [0.5, 0.5]]  # row 0 matches, row 1 not
    got = _kernels.profile_distances(theta, [1.0, 1.0], columns,
                                     [True, False], 2)
    assert got == [0.0, 1.0]


def test_no_slot_gives_every_row_distance_zero():
    assert _kernels.profile_distances([], [], [], [], 3) == [0.0] * 3
    assert distance((), (), []) == 0.0


# slot columns as `scaled_action_profiles` gives them: a label column
# compares by equality, a number column holds floats in [0, 1]
SLOT = st.one_of(
    st.tuples(st.just(True), st.sampled_from("abc"),
              st.lists(st.sampled_from("abc"), min_size=20, max_size=20)),
    st.tuples(st.just(False), st.floats(0.0, 1.0),
              st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20)))


@settings(max_examples=300, deadline=None)
@given(slots=st.lists(st.tuples(SLOT, st.floats(0.05, 1.0)), max_size=6),
       rows=st.integers(0, 20))
def test_columns_equal_the_row_by_row_reference(slots, rows):
    """Every distance is the float `oracle_context.distance_row` sums for
    its row alone, compared as `float.hex`."""
    unordered = [u for (u, _, _), _ in slots]
    theta = [t for (_, t, _), _ in slots]
    columns = [col[:rows] for (_, _, col), _ in slots]
    inv_beta_sq = [1.0 / (b * b) for _, b in slots]
    got = _kernels.profile_distances(theta, inv_beta_sq, columns, unordered,
                                     rows)
    want = [oracle_context.distance_row(theta, [col[i] for col in columns],
                                        inv_beta_sq, unordered)
            for i in range(rows)]
    assert [d.hex() for d in got] == [d.hex() for d in want]


def test_scores_degenerate_cases():
    assert _kernels.scores_from_distances([7.5]) == [1.0]
    assert _kernels.scores_from_distances([0.0, 0.0]) == [1.0, 1.0]
    assert _kernels.scores_from_distances([0.2, 0.3, 0.5]) == [0.8, 0.7, 0.5]


def test_weighted_index_cumulative_walk():
    p = [0.25, 0.25, 0.5]
    assert _kernels.weighted_index(p, 0.0) == 0
    assert _kernels.weighted_index(p, 0.24) == 0
    assert _kernels.weighted_index(p, 0.25) == 1
    assert _kernels.weighted_index(p, 0.49) == 1
    assert _kernels.weighted_index(p, 0.5) == 2
    assert _kernels.weighted_index(p, 0.999999) == 2


def test_weighted_index_never_falls_through_to_a_zero_weight():
    """Ten 0.1s add up to 0.9999999999999999, so the largest draw below
    1.0 passes every index; it lands on the last positive weight, not on
    the trailing zeros."""
    u = math.nextafter(1.0, 0.0)
    assert _kernels.sequential_sum([0.1] * 10) == u
    assert _kernels.weighted_index([0.1] * 10 + [0.0], u) == 9
    assert _kernels.weighted_index([0.1] * 10 + [0.0, 0.0, 0.0], u) == 9
    w = [1.0] * 10 + [0.0]
    assert _kernels.weighted_index(w, u, 10.0) == 9
    # a positive last weight still takes the largest draw
    assert _kernels.weighted_index([0.1] * 11, u, 1.1) == 10


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.integers(0, 3), st.floats(0.0, 1.0, exclude_max=True))
def test_weighted_index_draws_only_positive_weights(weights, zeros, u):
    """Whatever the draw, a positive weight is drawn whenever there is one:
    never a zero weight, at the end or elsewhere."""
    w = weights + [0.0] * zeros
    for draw in (u, math.nextafter(1.0, 0.0)):
        i = _kernels.weighted_index(w, draw, _kernels.sequential_sum(w)
                                    or 1.0)
        assert w[i] > 0.0 or not any(x > 0.0 for x in w)


def test_cached_distances_match_single_pair_distance(cstr_paths):
    profiles = load_profiles(cstr_paths["profiles"])
    db = load_action_db(cstr_paths["actions"], profiles.schema)
    ctx = DecisionContext(load_system(cstr_paths["system"]), db)
    betas = [p.criticality for p in db.schema]
    for attacker in profiles.profiles.values():
        theta, cached = ctx.attacker_theta(attacker)
        assert list(cached) == [a.id for a in db.actions]
        for a in db.actions:
            gamma = scale_profile(db.schema, a.profile, db.unbounded_ranges)
            assert cached[a.id] == distance(theta, gamma, betas)


def test_zero_slot_context_gives_every_action_distance_zero(cstr_paths):
    """A schema built in code with no property validates, and every action
    is at distance 0.0 from the attacker, so the draws are uniform; the
    traces equal the reference engine's."""
    system = load_system(cstr_paths["system"])
    fixture = load_action_db(cstr_paths["actions"],
                             load_profiles(cstr_paths["profiles"]).schema)
    schema = ProfileSchema([])
    db = ActionDatabase([a._replace(profile={}) for a in fixture.actions],
                        schema)
    assert db.validate() == []
    attacker = AttackerProfile("a", {})
    theta, dist = DecisionContext(system, db).attacker_theta(attacker)
    assert theta == ()
    assert dist == dict.fromkeys([a.id for a in db.actions], 0.0)
    profiles = ProfileSet(schema, {"a": attacker},
                          ProfilePmf(((attacker, 1.0),)))
    config = SimConfig(20, seed=4, profile="a")
    _, traces = run_monte_carlo(system, db, profiles, config)
    assert any(t.records for t in traces)
    for rec in (r for t in traces for r in t.records):
        assert set(rec.distances) == {0.0}
        assert len(set(rec.probabilities)) == 1
    want = oracle_engine.run_episodes(system, db, attacker, config)
    assert list(map(trace_to_dict, traces)) == list(map(trace_to_dict, want))


def test_empty_database_context_has_no_distance(cstr_paths):
    system = load_system(cstr_paths["system"])
    profiles = load_profiles(cstr_paths["profiles"])
    ctx = DecisionContext(system, ActionDatabase([], profiles.schema))
    assert ctx.action_profiles == [[] for _ in profiles.schema]
    assert ctx.actions_for == {n.id: () for n in system.nodes}
    for attacker in profiles.profiles.values():
        theta, dist = ctx.attacker_theta(attacker)
        assert len(theta) == len(profiles.schema)
        assert dist == {}


# score vectors as `scores_from_distances` gives them and beyond: one
# score, equal scores, and magnitudes from 1e-300 to 1
SCORE_VECTORS = st.one_of(
    st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=60),
    st.builds(lambda x, n: [x] * n, st.floats(1e-300, 1.0),
              st.integers(1, 60)),
    st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=1),
    st.lists(st.sampled_from([1e-300, 1e-150, 1e-20, 0.5, 1.0]),
             min_size=1, max_size=20),
)


def draws(p):
    """0, the largest float below 1, and every cumulative sum the walk
    over `p` reaches, each exactly where the walk's comparison flips."""
    acc = 0.0
    sums = []
    for x in p:
        acc += x
        sums.append(acc)
    return [0.0, math.nextafter(1.0, 0.0), *sums]


@settings(max_examples=300, deadline=None)
@given(s=SCORE_VECTORS, extra=st.floats(0.0, 1.0, exclude_max=True))
def test_weighted_index_over_a_total_equals_the_walk_over_probabilities(
        s, extra):
    """The walk over s_i / total selects the index that weighted_index
    selects over probabilities_from_scores(s), and s_i / total there is
    that index's probability, bit for bit."""
    p = _kernels.probabilities_from_scores(s)
    total = _kernels.sequential_sum(s)
    for u in (*draws(p), extra):
        want = _kernels.weighted_index(p, u)
        got = _kernels.weighted_index(s, u, total)
        assert got == want
        assert (s[got] / total).hex() == p[want].hex()


@pytest.fixture
def draw_calls(monkeypatch):
    """Counts calls to `_kernels.weighted_index`, rebound to a counting
    wrapper for the test; the callers read the module attribute."""
    calls = []
    real = _kernels.weighted_index

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, "weighted_index", counting)
    return calls


def small_wide(tmp_path):
    """A 300-action instance of perfbench's wide shape, built by its
    generator (imported from its file, a private copy, and only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    instances.SHAPES["wide"] = dict(instances.SHAPES["wide"], actions=300)
    paths = instances.write_instance(instances.generate("wide", 0),
                                     tmp_path / "wide")
    return load_inputs(paths["system"], paths["actions"], paths["profiles"])


def test_every_decision_draws_through_weighted_index(draw_calls, tmp_path):
    """In a serial run with a static profile, each decision is one
    weighted_index call, retries and retargets included."""
    runs = [(*small_wide(tmp_path), SimConfig(6, seed=2, profile="attacker",
                                              max_steps=16))]
    for seed in range(20):
        system, db, attacker = random_instance(Random(seed), max_actions=40)
        runs.append((system, db,
                     ProfileSet(db.schema, {attacker.name: attacker}),
                     SimConfig(10, seed=seed, profile=attacker.name)))
    for run in runs:
        draw_calls.clear()
        _, traces = run_monte_carlo(*run)
        decisions = sum(t.steps for t in traces)
        assert decisions > 0
        assert len(draw_calls) == decisions


def test_a_pmf_run_draws_each_profile_through_weighted_index(draw_calls,
                                                             cstr_paths):
    """Sampling the fixture's PMF adds one weighted_index call per
    episode to the one per decision."""
    system, db, profiles = load_inputs(cstr_paths["system"],
                                       cstr_paths["actions"],
                                       cstr_paths["profiles"])
    _, traces = run_monte_carlo(system, db, profiles, SimConfig(100, seed=5))
    assert len(draw_calls) == sum(t.steps for t in traces) + len(traces)


def test_sequential_sum_is_not_compensated():
    """Left to right with plain rounding: 1 + 1e-16 + 1e-16 stays 1.0,
    which a compensated sum (builtin sum from Python 3.12) does not."""
    assert _kernels.sequential_sum([1.0, 1e-16, 1e-16]) == 1.0
    assert _kernels.sequential_sum([]) == 0.0
