"""Independent reference implementations used to cross-check the fast paths.

Everything here favors clarity over speed: plain Python loops over list
rows, no vectorization, and no code shared with the package internals.
The tests compare these against the numpy implementations on small
random instances.
"""

import math


def unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def cosine(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    s = sum(a * b for a, b in zip(u, v)) / (nu * nv)
    return max(-1.0, min(1.0, s))


def cosine_matrix(rows, cols):
    return [[cosine(r, c) for c in cols] for r in rows]


def adjacency(sim, variant, k_percent=1.0, p_percent=100.0):
    """Rebuild one adjacency variant from a plain similarity matrix.

    full keeps every weight and subtracts the scalar mean of the whole
    matrix; local keeps per-row values that reach the m-th largest entry
    (ties included) and zeroes the rest; binary turns the same survivor
    pattern into 0/1 weights.
    """
    n_cols = len(sim[0])
    if variant == "full":
        mean = sum(sum(row) for row in sim) / (len(sim) * n_cols)
        return [[v - mean for v in row] for row in sim]
    pct = k_percent if variant == "local" else p_percent
    m = max(1, math.ceil(pct / 100.0 * n_cols))
    out = []
    for row in sim:
        thr = sorted(row, reverse=True)[m - 1]
        if variant == "local":
            out.append([v if v >= thr else 0.0 for v in row])
        else:
            out.append([1.0 if v >= thr else 0.0 for v in row])
    return out


def invgc_dual(G_ids, G, refG_ids, refG, refQ_ids, refQ, variant,
               r_g, r_q, k_percent=1.0, p_percent=100.0):
    """Per-row restatement of the dual inverse update.

    Normalize the operand rows, build one adjacency per reference set,
    zero every pair whose operand and reference ids are equal, apply
    x_i - r * sum_j S_ij R_j, renormalize each half, and average.
    """
    Gn = [unit(row) for row in G]
    halves = []
    for ref_ids, R, r in ((refG_ids, refG, r_g), (refQ_ids, refQ, r_q)):
        S = adjacency(cosine_matrix(Gn, R), variant, k_percent, p_percent)
        for i, g_id in enumerate(G_ids):
            for j, r_id in enumerate(ref_ids):
                if g_id == r_id:
                    S[i][j] = 0.0
        half = []
        for i, x in enumerate(Gn):
            row = [
                x[t] - r * sum(S[i][j] * R[j][t] for j in range(len(R)))
                for t in range(len(x))
            ]
            nrm = math.sqrt(sum(v * v for v in row))
            half.append([v / nrm for v in row] if nrm >= 1e-12 else [0.0] * len(row))
        halves.append(half)
    return [
        [0.5 * (a + b) for a, b in zip(h0, h1)]
        for h0, h1 in zip(halves[0], halves[1])
    ]


def rank_of_best_relevant(sim_row, rel_indices):
    """1-based rank by comparison counting.

    An item sorts ahead of column j when its similarity is larger, or
    equal with a smaller column index. The best relevant item's rank is
    the minimum over the relevant columns.
    """
    best = None
    for j in rel_indices:
        ahead = sum(
            1
            for k, s in enumerate(sim_row)
            if s > sim_row[j] or (s == sim_row[j] and k < j)
        )
        best = ahead + 1 if best is None else min(best, ahead + 1)
    return best


def intra_mean_at(rows, k):
    """Mean over rows of the mean of the k largest cosines to other rows."""
    n = len(rows)
    total = 0.0
    for i in range(n):
        sims = sorted(
            (cosine(rows[i], rows[j]) for j in range(n) if j != i), reverse=True
        )
        total += sum(sims[:k]) / k
    return total / n


def cap_fraction_2d(b):
    """Area fraction of the unit disk beyond a chord of half-length b.

    Circular segment area is (theta - sin theta) / 2 for the unit
    circle, with theta = 2 asin(b) the central angle; divide by pi.
    """
    theta = 2.0 * math.asin(b)
    return (theta - math.sin(theta)) / (2.0 * math.pi)


def cap_fraction_3d(b):
    """Volume fraction of the unit ball above the plane z = sqrt(1 - b^2).

    Spherical cap volume is pi h^2 (3 - h) / 3 with h the cap height;
    the ball volume is 4 pi / 3.
    """
    h = 1.0 - math.sqrt(1.0 - b * b)
    return h * h * (3.0 - h) / 4.0


def arc_fraction_2d(b):
    """Boundary measure counterpart of cap_fraction_2d: the fraction of
    the unit circle's arc inside the same cap."""
    return math.asin(b) / math.pi
