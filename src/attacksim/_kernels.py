"""Decision-math kernels.

The inner loops of the decision cycle: profile distances, score and
probability normalization, and cumulative weighted selection. Their
summation order is part of the determinism contract: seeded reports and
traces depend on these exact floats.

Arguments are plain sequences and results are new lists or numbers
(`draw_from_scores` returns an index and a probability). All functions
assume validated inputs; argument checking lives in the engine layer.
"""

from math import sqrt


def profile_distances(theta, inv_beta_sq, gammas, unordered):
    """Weighted n-dimensional distance from `theta` to each profile in
    `gammas`, one float per profile, in order.

    `theta` and each entry of `gammas` hold n slot values in schema order,
    as `profiles.scale_profile` returns them; `inv_beta_sq[j]` is the
    slot's 1 / criticality^2. Slots flagged in `unordered` hold labels,
    which compare by equality and contribute a 0/1 difference term; the rest
    contribute theta[j] - gamma[j].
    """
    n = len(theta)
    out = []
    for gamma in gammas:
        acc = 0.0
        for j in range(n):
            t = theta[j]
            g = gamma[j]
            if unordered[j]:
                diff = 0.0 if t == g else 1.0
            else:
                diff = t - g
            acc += inv_beta_sq[j] * diff * diff
        out.append(sqrt(acc))
    return out


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


def draw_from_scores(s, total, u):
    """The index that uniform draw `u` selects from the probabilities
    s_i / total, and that probability, where `total` is
    `sequential_sum(s)`. The walk adds the same floats in the same order as
    ``weighted_index(probabilities_from_scores(s), u)``, so it selects the
    same index, yet divides only up to it."""
    acc = 0.0
    last = len(s) - 1
    for i in range(last):
        q = s[i] / total
        acc += q
        if u < acc:
            return i, q
    return last, s[last] / total


def weighted_index(p, u):
    """Index into probability vector `p` selected by uniform draw `u`."""
    acc = 0.0
    last = len(p) - 1
    for i in range(last):
        acc += p[i]
        if u < acc:
            return i
    return last
