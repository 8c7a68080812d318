"""Reference cases for the decision-math kernels."""

from attacksim import _kernels
from attacksim.actions import load_action_db
from attacksim.engine import DecisionContext, distance
from attacksim.model import load_system
from attacksim.profiles import load_profiles


def test_distances_basic():
    # single row, 3-4-5 triangle
    got = _kernels.profile_distances([0.0, 0.0], [1.0, 1.0], [(0.6, 0.8)],
                                     [False, False])
    assert got == [1.0]


def test_unordered_slots_compare_by_label():
    theta = ["Direct", 0.5]
    gammas = [("Direct", 0.5), ("Wireless", 0.5)]  # row 0 matches, row 1 not
    got = _kernels.profile_distances(theta, [1.0, 1.0], gammas, [True, False])
    assert got == [0.0, 1.0]


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


def test_cached_distances_match_single_pair_distance(cstr_paths):
    profiles = load_profiles(cstr_paths["profiles"])
    db = load_action_db(cstr_paths["actions"], profiles.schema)
    ctx = DecisionContext(load_system(cstr_paths["system"]), db)
    betas = [p.criticality for p in db.schema]
    for attacker in profiles.profiles.values():
        theta, cached = ctx.attacker_theta(attacker)
        assert list(cached) == [a.id for a in db.actions]
        for aid, gamma in ctx.action_profiles.items():
            assert cached[aid] == distance(theta, gamma, betas)
