"""Reference cases for the decision-math kernels."""

from array import array

from attacksim import _kernels


def _distances(theta, gammas, rows, inv_beta_sq, unordered):
    out = array("d", bytes(8 * len(rows)))
    _kernels.profile_distances(array("d", theta), array("d", gammas),
                               array("l", rows), array("d", inv_beta_sq),
                               array("B", unordered), out)
    return list(out)


def _scores(d):
    out = array("d", bytes(8 * len(d)))
    _kernels.scores_from_distances(array("d", d), out)
    return list(out)


def test_distances_basic():
    # single row, 3-4-5 triangle
    got = _distances([0.0, 0.0], [0.6, 0.8], [0], [1.0, 1.0], [0, 0])
    assert got == [1.0]


def test_unordered_slots_compare_by_code():
    theta = [2.0, 0.5]
    gammas = [2.0, 0.5, 1.0, 0.5]  # row 0 matches code, row 1 does not
    got = _distances(theta, gammas, [0, 1], [1.0, 1.0], [1, 0])
    assert got == [0.0, 1.0]


def test_scores_degenerate_cases():
    assert _scores([7.5]) == [1.0]
    assert _scores([0.0, 0.0]) == [1.0, 1.0]
    assert _scores([0.2, 0.3, 0.5]) == [0.8, 0.7, 0.5]


def test_weighted_index_cumulative_walk():
    p = array("d", [0.25, 0.25, 0.5])
    assert _kernels.weighted_index(p, 0.0) == 0
    assert _kernels.weighted_index(p, 0.24) == 0
    assert _kernels.weighted_index(p, 0.25) == 1
    assert _kernels.weighted_index(p, 0.49) == 1
    assert _kernels.weighted_index(p, 0.5) == 2
    assert _kernels.weighted_index(p, 0.999999) == 2
