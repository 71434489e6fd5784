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
from .simgraph import cosine_similarity_matrix


@dataclass
class RetrievalReport:
    recall_at: dict
    median_rank: float
    mean_rank: float
    per_query_rank: dict


def rank_queries(Q: EmbeddingSet, G: EmbeddingSet, rel: dict) -> dict:
    """1-based rank of the best-ranked relevant gallery item per query."""
    sims = cosine_similarity_matrix(Q, G).values
    g_index = {g: i for i, g in enumerate(G.ids)}
    ranks = {}
    for qi, qid in enumerate(Q.ids):
        rel_idx = [g_index[g] for g in rel.get(qid, ()) if g in g_index]
        if not rel_idx:
            raise ValueError(f"query {qid!r} has no relevant gallery item")
        # The best relevant item has the top score s and, among relevant
        # items with that score, the lowest index i; everything scoring
        # higher, or equal at a lower index, sorts ahead of it.
        row = sims[qi]
        s = row[rel_idx].max()
        i = min(j for j in rel_idx if row[j] == s)
        ranks[qid] = int(np.count_nonzero(row > s) + np.count_nonzero(row[:i] == s)) + 1
    return ranks


def compute_metrics(ranks: dict, Ks) -> RetrievalReport:
    """Aggregate a rank map into R@K, MdR, MnR."""
    if not ranks:
        raise ValueError("empty rank map")
    Ks = [int(k) for k in Ks]
    if any(k < 1 for k in Ks):
        raise ValueError(f"K values must be positive, got {Ks}")
    arr = np.array(list(ranks.values()), dtype=np.float64)
    recall = {k: float(100.0 * np.count_nonzero(arr <= k) / arr.size) for k in Ks}
    return RetrievalReport(
        recall_at=recall,
        median_rank=float(np.median(arr)),
        mean_rank=float(arr.mean()),
        per_query_rank=dict(ranks),
    )


def evaluate(Q: EmbeddingSet, G: EmbeddingSet, rel: dict, Ks=(1, 5, 10)) -> RetrievalReport:
    """Rank and aggregate in one step."""
    return compute_metrics(rank_queries(Q, G, rel), Ks)


def dump_ranks(report: RetrievalReport, path) -> None:
    """Write per-query ranks as TSV "query_id\\trank" lines."""
    with open(Path(path), "w", encoding="utf-8") as f:
        for q in sorted(report.per_query_rank):
            f.write(f"{q}\t{report.per_query_rank[q]}\n")
