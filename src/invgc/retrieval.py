"""Retrieval evaluation: per-query ranks, R@K, MdR, MnR.

For each query the gallery is sorted by descending cosine similarity,
ties broken by ascending gallery row index, and the 1-based rank of the
best-ranked relevant item is recorded.  R@K is the percentage of queries
whose rank is <= K; MdR is the median rank (mean of the two middle
values for even counts); MnR is the mean rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embio import EmbeddingSet
from .simgraph import _block_cells, _id_cells, _map_blocks, unit_rows


@dataclass
class RetrievalReport:
    recall_at: dict
    median_rank: float
    mean_rank: float
    per_query_rank: dict


class _Relevance:
    """A relevance map resolved once against a query set and a gallery's ids.

    Holds the queries' unit rows and every (query row, gallery column)
    pair, ordered by row, so a search that ranks many corrections of one
    gallery normalizes and resolves once.  Gallery ids that the gallery
    does not hold are dropped; a query left with none is an error.
    """

    def __init__(self, Q: EmbeddingSet, gallery_ids: list, rel: dict):
        self.ids, self.queries = Q.ids, unit_rows(Q.data, Q.ids)
        self.rows, self.cols = _id_cells(Q.ids, gallery_ids, ((q, g) for q, gs in rel.items() for g in gs))
        missing = np.bincount(self.rows, minlength=Q.n) == 0
        if missing.any():
            raise ValueError(f"query {Q.ids[int(np.argmax(missing))]!r} has no relevant gallery item")


def rank_queries(Q: EmbeddingSet, G: EmbeddingSet, rel) -> dict:
    """1-based rank of the best-ranked relevant gallery item per query.

    rel maps query ids to sets of gallery ids.  A search that ranks many
    galleries with G's ids passes a _Relevance of Q resolved once instead.
    """
    if not isinstance(rel, _Relevance):
        rel = _Relevance(Q, G.ids, rel)
    ranks = np.empty(len(rel.queries), dtype=np.intp)

    def block(b, sims):
        _, cells = _block_cells(rel.rows, rel.cols, b)
        ranks[b] = _block_ranks(sims, *cells)

    _map_blocks(block, rel.queries, unit_rows(G.data, G.ids))
    return dict(zip(rel.ids, ranks.tolist()))


def _block_ranks(sims: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    # Per row of sims, the 1-based rank of its best relevant cell, the
    # relevant cells being (r, c).  The best one has the top score s and,
    # among relevant cells with that score, the lowest column i; every cell
    # scoring higher, or equal at a lower column, sorts ahead of it.  The
    # boolean temporaries die on return, before its thread's next GEMM.
    n_rows, n_cols = sims.shape
    score = sims[r, c]
    s = np.full(n_rows, -np.inf)
    np.maximum.at(s, r, score)
    top = score == s[r]
    i = np.full(n_rows, n_cols)
    np.minimum.at(i, r[top], c[top])
    s = s[:, None]
    ahead = np.greater(sims, s)
    n_ahead = np.count_nonzero(ahead, axis=1)
    np.equal(sims, s, out=ahead)
    ahead &= np.arange(n_cols) < i[:, None]
    return n_ahead + np.count_nonzero(ahead, axis=1) + 1


def compute_metrics(ranks: dict, Ks) -> RetrievalReport:
    """Aggregate a rank map into R@K, MdR, MnR."""
    if not ranks:
        raise ValueError("empty rank map")
    Ks = [int(k) for k in Ks]
    if any(k < 1 for k in Ks):
        raise ValueError(f"K values must be positive, got {Ks}")
    arr = np.array(list(ranks.values()), dtype=np.float64)
    recall = {k: float(100.0 * np.count_nonzero(arr <= k) / arr.size) for k in Ks}
    # The middle of the sorted ranks, not np.median, whose first call
    # imports numpy.ma.
    srt, mid = np.sort(arr), arr.size // 2
    median = srt[mid] if arr.size % 2 else (srt[mid - 1] + srt[mid]) / 2
    return RetrievalReport(
        recall_at=recall,
        median_rank=float(median),
        mean_rank=float(arr.mean()),
        per_query_rank=dict(ranks),
    )


def evaluate(Q: EmbeddingSet, G: EmbeddingSet, rel, Ks=(1, 5, 10)) -> RetrievalReport:
    """Rank and aggregate in one step."""
    return compute_metrics(rank_queries(Q, G, rel), Ks)


def dump_ranks(report: RetrievalReport, path) -> None:
    """Write per-query ranks as TSV "query_id\\trank" lines."""
    with open(Path(path), "w", encoding="utf-8") as f:
        for q in sorted(report.per_query_rank):
            f.write(f"{q}\t{report.per_query_rank[q]}\n")
