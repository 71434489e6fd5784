"""Degeneration diagnostics: mean similarity, MeanSim@k, NN histograms.

The degeneration score of a set is the mean cosine similarity between
each point and its nearest neighbor, i.e. MeanSim@1.  Intra reports look
within one set (self pairs excluded); cross reports anchor on gallery
rows and look at queries, excluding each gallery item's matched queries
so the score reflects unrelated neighbors only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingSet
from .simgraph import _map_blocks, _partitioned_rows


@dataclass
class DegenerationReport:
    mean_sim: float
    mean_sim_at: dict
    histogram: list            # (bin_lower, bin_upper, count) triples
    excluded_pairs: int
    std_sim: float
    min_sim: float


def _nn_histogram(nn_values: np.ndarray, bins: int) -> list:
    # Equal-width bins over [-1, 1]; a value on a bin boundary lands in
    # the higher bin, except the global maximum 1.0 which stays in the
    # top bin so the partition is exact.
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    width = 2.0 / bins
    idx = np.floor((nn_values + 1.0) / width).astype(int)
    idx = np.minimum(idx, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return [
        (-1.0 + i * width, -1.0 + (i + 1) * width, int(counts[i])) for i in range(bins)
    ]


def _check_ks(ks, limit: int | None) -> list:
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"k values must be positive, got {ks}")
    if limit is not None and max(ks) > limit:
        raise ValueError(f"k={max(ks)} exceeds the {limit} available neighbors")
    return ks


def intra_mean_sim(G: EmbeddingSet, ks, bins: int = 20) -> DegenerationReport:
    """Similarity structure within one set, self pairs excluded."""
    if G.n < 2:
        raise ValueError("need at least 2 points")
    ks = _check_ks(ks, G.n - 1)
    diag = np.arange(G.n)
    return _neighbour_report(G, G, diag, diag, ks, bins)


def cross_mean_sim(G: EmbeddingSet, Q: EmbeddingSet, rel: dict, ks, bins: int = 20) -> DegenerationReport:
    """Similarity from each gallery row to all non-matched queries.

    rel maps query id to the set of gallery ids it matches; each matched
    (gallery, query) pair is excluded from the pool.  A gallery row whose
    every query is matched has no neighbors left, which is an error.
    Neighbor counts use min(k, available) per row since exclusions can
    leave rows with fewer than k candidates.
    """
    ks = _check_ks(ks, None)
    g_index = {g: i for i, g in enumerate(G.ids)}
    q_index = {q: j for j, q in enumerate(Q.ids)}
    pairs = [
        (g_index[g], q_index[q])
        for q, gs in rel.items() if q in q_index
        for g in gs if g in g_index
    ]
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    full = np.bincount(rows, minlength=G.n) == Q.n
    if full.any():
        raise ValueError(f"gallery row {G.ids[int(np.argmax(full))]!r} has no unmatched queries left")
    return _neighbour_report(G, Q, rows, cols, ks, bins)


def _neighbour_report(X: EmbeddingSet, Y: EmbeddingSet, rows, cols, ks: list, bins: int) -> DegenerationReport:
    # One pass over the row blocks of the X x Y cosines, leaving out the
    # cells (rows[t], cols[t]); every row must keep at least one cell.
    # Each block overwrites its own excluded cells before each use, and
    # writes its rows' sorted top values, min, sum and M2 (the sum of
    # squared deviations from the row's own mean).  The top values come
    # from the chunked partition, so no partitioned copy of the block is
    # held.
    available = Y.n - np.bincount(rows, minlength=X.n)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    top = Y.n - min(max(ks), Y.n)
    ranked = np.empty((X.n, Y.n - top))
    row_min, row_sum, row_m2 = np.empty(X.n), np.empty(X.n), np.empty(X.n)

    def block(b, sims):
        lo, hi = np.searchsorted(rows, (b.start, b.stop))
        cells = rows[lo:hi] - b.start, cols[lo:hi]
        # A row with fewer cells than the width ends in excluded cells,
        # which count as zero.
        sims[cells] = -np.inf
        for chunk, part in _partitioned_rows(sims, top):
            ranked[b][chunk] = np.sort(part[:, top:], axis=1)[:, ::-1]
        sims[cells] = np.inf
        row_min[b] = sims.min(axis=1)
        sims[cells] = 0.0
        row_sum[b] = sims.sum(axis=1)
        sims -= (row_sum[b] / available[b])[:, None]
        sims[cells] = 0.0
        row_m2[b] = np.square(sims, out=sims).sum(axis=1)

    _map_blocks(block, X, Y)
    ranked[ranked == -np.inf] = 0.0
    n_pairs = int(available.sum())
    mean_sim = float(row_sum.sum() / n_pairs)
    # Row means and M2s merge exactly (Chan, Golub and LeVeque 1983):
    # M2 = sum of M2_i + sum of n_i * (mean_i - mean)^2.
    square_dev = float(row_m2.sum() + (available * (row_sum / available - mean_sim) ** 2).sum())
    return DegenerationReport(
        mean_sim=mean_sim,
        mean_sim_at={
            k: float((ranked[:, :k].sum(axis=1) / np.minimum(k, available)).mean()) for k in ks
        },
        histogram=_nn_histogram(ranked[:, 0], bins),
        excluded_pairs=len(rows),
        std_sim=float(np.sqrt(square_dev / n_pairs)),
        min_sim=float(row_min.min()),
    )


def nn_similarity_histogram(G: EmbeddingSet, bins: int) -> list:
    """Histogram of each point's nearest-neighbor similarity."""
    return intra_mean_sim(G, [1], bins).histogram


def degeneration_score(G: EmbeddingSet) -> float:
    """Mean nearest-neighbor cosine within the set (MeanSim@1).

    intra_mean_sim(G, [1]).mean_sim_at[1] from a pass of its own: each
    row's maximum with its self pair set to -inf.
    """
    if G.n < 2:
        raise ValueError("need at least 2 points")
    nearest = np.empty(G.n)

    def block(b, sims):
        own = np.arange(b.start, b.stop)
        sims[own - b.start, own] = -np.inf
        nearest[b] = sims.max(axis=1)

    _map_blocks(block, G, G)
    return float(nearest.mean())
