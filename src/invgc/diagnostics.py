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
from .simgraph import cosine_similarity_matrix


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
    return _neighbour_report(cosine_similarity_matrix(G, G).values, diag, diag, ks, bins)


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
    return _neighbour_report(cosine_similarity_matrix(G, Q).values, rows, cols, ks, bins)


def _neighbour_report(sims: np.ndarray, rows, cols, ks: list, bins: int) -> DegenerationReport:
    # The excluded (rows[t], cols[t]) cells of sims are overwritten before
    # each pass so they drop out of it, and only row blocks are ever
    # copied.  Every row must keep at least one cell.
    n, m = sims.shape
    available = m - np.bincount(rows, minlength=n)
    n_pairs = int(available.sum())
    sims[rows, cols] = 0.0
    mean_sim = float(sims.sum() / n_pairs)
    sims[rows, cols] = mean_sim
    square_dev = sum(float(((sims[b] - mean_sim) ** 2).sum()) for b in _row_blocks(n, m))
    sims[rows, cols] = np.inf
    min_sim = float(sims.min())
    sims[rows, cols] = -np.inf
    top = m - min(max(ks), m)
    # Sorting each block's top columns copies them, so no block's full
    # partitioned copy outlives its iteration.  A row with fewer cells
    # than the width ends in excluded cells, which count as zero.
    ranked = np.concatenate([
        np.sort(np.partition(sims[b], top, axis=1)[:, top:], axis=1) for b in _row_blocks(n, m)
    ])[:, ::-1]
    ranked[ranked == -np.inf] = 0.0
    return DegenerationReport(
        mean_sim=mean_sim,
        mean_sim_at={
            k: float((ranked[:, :k].sum(axis=1) / np.minimum(k, available)).mean()) for k in ks
        },
        histogram=_nn_histogram(ranked[:, 0], bins),
        excluded_pairs=len(rows),
        std_sim=float(np.sqrt(square_dev / n_pairs)),
        min_sim=min_sim,
    )


def _row_blocks(n_rows: int, n_cols: int):
    # Row slices of an n_rows x n_cols matrix, about 2**20 entries (8 MB) each.
    step = max(1, (1 << 20) // n_cols)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def nn_similarity_histogram(G: EmbeddingSet, bins: int) -> list:
    """Histogram of each point's nearest-neighbor similarity."""
    return intra_mean_sim(G, [1], bins).histogram


def degeneration_score(G: EmbeddingSet) -> float:
    """Mean nearest-neighbor cosine within the set (MeanSim@1)."""
    return intra_mean_sim(G, [1], bins=1).mean_sim_at[1]
