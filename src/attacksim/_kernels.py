"""Decision-math kernels.

The inner loops of the decision cycle: profile distances, score and
probability normalization, and cumulative weighted selection. Their
summation order is part of the determinism contract: seeded reports and
traces depend on these exact floats.

Arguments are plain sequences and results are new lists or numbers.
All functions assume validated inputs; argument checking lives in the
engine layer.
"""

from math import sqrt
from operator import itemgetter


def profile_distances(theta, inv_beta_sq, gammas, unordered):
    """Weighted n-dimensional distance from `theta` to each profile in
    `gammas`, one float per profile, in order.

    `theta` and each entry of `gammas` hold n slot values in schema order,
    as `profiles.scale_profile` returns them; `inv_beta_sq[j]` is the
    slot's 1 / criticality^2. Slots flagged in `unordered` hold labels,
    which compare by equality and contribute a 0/1 difference term; the rest
    contribute theta[j] - gamma[j].

    Slot by slot: each slot adds its term to every row's running sum in
    one list comprehension over the slot's column, read from the rows by
    `itemgetter`. Each sum still starts at 0.0 and gains its terms in
    slot order, each term ``w * diff * diff`` as written, so every
    distance is the float a row-by-row loop gives; an unordered slot's
    two possible terms are computed once. The rows are not transposed
    with ``zip(*gammas)``: that takes as long and allocates one
    collector-tracked iterator per row, enough to start two or three
    gen-0 collections at 2,000 rows.
    """
    acc = [0.0] * len(gammas)
    for j, (t, w, u) in enumerate(zip(theta, inv_beta_sq, unordered)):
        col = map(itemgetter(j), gammas)
        if u:
            same = w * 0.0 * 0.0
            other = w * 1.0 * 1.0
            acc = [a + (same if t == g else other)
                   for a, g in zip(acc, col)]
        else:
            acc = [a + w * (d := t - g) * d for a, g in zip(acc, col)]
    return list(map(sqrt, acc))


def scores_from_distances(d):
    """Inverse-distance scores: s_i = 1 - d_i / sum(d).

    A single candidate scores 1; an all-zero distance vector scores 1
    everywhere (no information to discriminate).
    """
    m = len(d)
    if m == 1:
        return [1.0]
    total = sequential_sum(d)
    if total == 0.0:
        return [1.0] * m
    return [1.0 - x / total for x in d]


def probabilities_from_scores(s):
    """Normalize scores into a probability vector: P_i = s_i / sum(s)."""
    total = sequential_sum(s)
    return [x / total for x in s]


def sequential_sum(x):
    """The sum of `x`, added left to right with plain float rounding: the
    total every normalization here divides by. Builtin `sum` compensates
    rounding from Python 3.12 on, so it can differ in the last bit."""
    total = 0.0
    for v in x:
        total += v
    return total


def weighted_index(w, u, total=1.0):
    """Index into the probabilities w_i / total selected by uniform draw
    `u`: the first index whose cumulative sum exceeds `u`, else the last
    index with a positive weight.

    The cumulative sum can round to just below 1.0 (ten 0.1s add up to
    0.9999999999999999), so a draw close to 1.0 can pass every index;
    it then falls to the last index that can be drawn, never to a
    trailing weight of 0 (to index 0 when no weight is positive).

    With `total` 1.0, `w` is itself the probability vector (``x / 1.0 == x``
    in IEEE 754). With ``total = sequential_sum(w)`` the walk adds the same
    floats in the same order as it would over
    ``probabilities_from_scores(w)``, so it selects the same index, yet
    divides only up to it."""
    acc = 0.0
    last = len(w) - 1
    for i in range(last):
        acc += w[i] / total
        if u < acc:
            return i
    while last > 0 and not w[last] > 0.0:
        last -= 1
    return last
