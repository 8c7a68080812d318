"""Decision-math kernels.

The inner loops of the decision cycle: profile distances, score and
probability normalization, and cumulative weighted selection. Their
summation order is part of the determinism contract: seeded reports and
traces depend on these exact floats.

All functions assume validated inputs; argument checking lives in the
engine layer.
"""

from math import sqrt


def profile_distances(theta, gammas, rows, inv_beta_sq, unordered, out):
    """Weighted n-dimensional distance from `theta` to selected rows of a
    flattened m*n scaled-profile matrix.

    Slots flagged in `unordered` compare by code equality and contribute a
    0/1 difference term; the rest contribute theta[j] - gamma[j].
    """
    n = len(theta)
    for k in range(len(rows)):
        base = rows[k] * n
        acc = 0.0
        for j in range(n):
            t = theta[j]
            g = gammas[base + j]
            if unordered[j]:
                diff = 0.0 if t == g else 1.0
            else:
                diff = t - g
            acc += inv_beta_sq[j] * diff * diff
        out[k] = sqrt(acc)


def scores_from_distances(d, out):
    """Inverse-distance scores: s_i = 1 - d_i / sum(d).

    A single candidate scores 1; an all-zero distance vector scores 1
    everywhere (no information to discriminate).
    """
    m = len(d)
    if m == 1:
        out[0] = 1.0
        return
    total = 0.0
    for i in range(m):
        total += d[i]
    if total == 0.0:
        for i in range(m):
            out[i] = 1.0
        return
    for i in range(m):
        out[i] = 1.0 - d[i] / total


def probabilities_from_scores(s, out):
    """Normalize scores into a probability vector: P_i = s_i / sum(s)."""
    total = 0.0
    m = len(s)
    for i in range(m):
        total += s[i]
    for i in range(m):
        out[i] = s[i] / total


def weighted_index(p, u):
    """Index into probability vector `p` selected by uniform draw `u`."""
    acc = 0.0
    last = len(p) - 1
    for i in range(last):
        acc += p[i]
        if u < acc:
            return i
    return last
