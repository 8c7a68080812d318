"""Reference cases for the decision-math kernels."""

import math

from hypothesis import given, settings, strategies as st

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
def test_draw_from_scores_equals_the_composition_it_replaces(s, extra):
    """The walk over s_i / total selects the index that weighted_index
    selects over probabilities_from_scores(s), at the same probability,
    bit for bit."""
    p = _kernels.probabilities_from_scores(s)
    total = _kernels.sequential_sum(s)
    for u in (*draws(p), extra):
        want = _kernels.weighted_index(p, u)
        got, q = _kernels.draw_from_scores(s, total, u)
        assert got == want
        assert q.hex() == p[want].hex()


def test_sequential_sum_is_not_compensated():
    """Left to right with plain rounding: 1 + 1e-16 + 1e-16 stays 1.0,
    which a compensated sum (builtin sum from Python 3.12) does not."""
    assert _kernels.sequential_sum([1.0, 1e-16, 1e-16]) == 1.0
    assert _kernels.sequential_sum([]) == 0.0
