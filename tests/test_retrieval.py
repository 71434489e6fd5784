"""Rank computation and metric aggregation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from invgc.embio import EmbeddingSet
from invgc.retrieval import (
    compute_metrics,
    dump_ranks,
    evaluate,
    rank_queries,
)
from invgc.simgraph import cosine_similarity_matrix


def make_set(rng, n, d, prefix="x"):
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


def test_hand_ranked_gallery():
    # similarities to the query: 1, 0.894.., 0.707.., 0
    Q = EmbeddingSet(["q"], [[1.0, 0.0]])
    G = EmbeddingSet(
        ["g0", "g1", "g2", "g3"],
        [[1.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
    )
    assert rank_queries(Q, G, {"q": {"g2"}}) == {"q": 3}
    assert rank_queries(Q, G, {"q": {"g0"}}) == {"q": 1}
    assert rank_queries(Q, G, {"q": {"g3", "g1"}}) == {"q": 2}


def test_ties_resolve_by_gallery_order():
    # g0 and g1 carry identical data, so their similarities tie exactly
    Q = EmbeddingSet(["q"], [[1.0, 0.0]])
    G = EmbeddingSet(
        ["g0", "g1", "g2"], [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    )
    assert rank_queries(Q, G, {"q": {"g0"}}) == {"q": 2}
    assert rank_queries(Q, G, {"q": {"g1"}}) == {"q": 3}


def test_rank_matches_comparison_count_oracle():
    rng = np.random.default_rng(51)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        Q = make_set(rng, int(rng.integers(1, 9)), d, "q")
        G = make_set(rng, int(rng.integers(2, 15)), d, "g")
        rel = {}
        for qid in Q.ids:
            n_rel = min(G.n, int(rng.integers(1, 4)))
            picks = rng.choice(G.n, size=n_rel, replace=False)
            rel[qid] = {G.ids[i] for i in picks}
        ranks = rank_queries(Q, G, rel)
        sims = cosine_similarity_matrix(Q, G).values
        for qi, qid in enumerate(Q.ids):
            rel_idx = [G.ids.index(g) for g in rel[qid]]
            assert ranks[qid] == oracles.rank_of_best_relevant(
                sims[qi].tolist(), rel_idx
            )


def test_rank_matches_oracle_on_tie_heavy_integer_data():
    # Few distinct integer directions, so equal rows give exactly equal
    # similarities and most ranks depend on breaking ties by index.
    rng = np.random.default_rng(53)
    for _ in range(30):
        n_q, n_g = int(rng.integers(1, 7)), int(rng.integers(2, 20))
        Q = EmbeddingSet([f"q{i}" for i in range(n_q)], rng.integers(1, 3, (n_q, 2)).astype(float))
        G = EmbeddingSet([f"g{i}" for i in range(n_g)], rng.integers(1, 3, (n_g, 2)).astype(float))
        rel = {}
        for qid in Q.ids:
            picks = rng.choice(G.n, size=min(G.n, int(rng.integers(1, 4))), replace=False)
            rel[qid] = {G.ids[i] for i in picks}
        ranks = rank_queries(Q, G, rel)
        sims = cosine_similarity_matrix(Q, G).values
        for qi, qid in enumerate(Q.ids):
            rel_idx = [G.ids.index(g) for g in rel[qid]]
            assert ranks[qid] == oracles.rank_of_best_relevant(sims[qi].tolist(), rel_idx)


def test_metric_hand_values():
    rep = compute_metrics({"a": 1, "b": 3, "c": 7}, (1, 5, 10))
    assert_allclose(rep.recall_at[1], 100.0 / 3.0, atol=1e-9)
    assert_allclose(rep.recall_at[5], 200.0 / 3.0, atol=1e-9)
    assert_allclose(rep.recall_at[10], 100.0, atol=1e-9)
    assert_allclose(rep.median_rank, 3.0, atol=1e-9)
    assert_allclose(rep.mean_rank, 11.0 / 3.0, atol=1e-9)
    assert rep.per_query_rank == {"a": 1, "b": 3, "c": 7}


def test_even_rank_count_medians_between_middle_values():
    rep = compute_metrics({"a": 1, "b": 2, "c": 3, "d": 10}, (1,))
    assert rep.median_rank == 2.5


def test_recall_is_monotone_in_k():
    rng = np.random.default_rng(52)
    for _ in range(100):
        ranks = {
            f"q{i}": int(rng.integers(1, 50))
            for i in range(int(rng.integers(1, 30)))
        }
        rep = compute_metrics(ranks, range(1, 51))
        series = [rep.recall_at[k] for k in range(1, 51)]
        assert all(a <= b for a, b in zip(series, series[1:]))
        assert series[-1] == 100.0


def test_ranks_ignore_positive_row_rescaling():
    rng = np.random.default_rng(53)
    Q = make_set(rng, 7, 4, "q")
    G = make_set(rng, 12, 4, "g")
    rel = {qid: {G.ids[i]} for i, qid in enumerate(Q.ids)}
    base = rank_queries(Q, G, rel)
    Qs = EmbeddingSet(Q.ids, Q.data * rng.uniform(0.1, 9.0, size=(7, 1)))
    Gs = EmbeddingSet(G.ids, G.data * rng.uniform(0.1, 9.0, size=(12, 1)))
    assert rank_queries(Qs, Gs, rel) == base


def test_missing_relevance_is_an_error():
    Q = EmbeddingSet(["q0", "q1"], [[1.0, 0.0], [0.0, 1.0]])
    G = EmbeddingSet(["g0"], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="query 'q1' has no relevant gallery item"):
        rank_queries(Q, G, {"q0": {"g0"}, "q1": {"gX"}})
    with pytest.raises(ValueError, match="query 'q0' has no relevant"):
        rank_queries(Q, G, {})


def test_metric_argument_validation():
    with pytest.raises(ValueError, match="empty rank map"):
        compute_metrics({}, (1,))
    with pytest.raises(ValueError, match="K values must be positive"):
        compute_metrics({"a": 1}, (0, 5))


def test_evaluate_composes_rank_and_metrics():
    rng = np.random.default_rng(54)
    Q = make_set(rng, 5, 3, "q")
    G = make_set(rng, 9, 3, "g")
    rel = {qid: {G.ids[i]} for i, qid in enumerate(Q.ids)}
    rep = evaluate(Q, G, rel, (1, 3))
    direct = compute_metrics(rank_queries(Q, G, rel), (1, 3))
    assert rep.recall_at == direct.recall_at
    assert rep.mean_rank == direct.mean_rank
    assert rep.per_query_rank == direct.per_query_rank


def test_dump_ranks_writes_sorted_tsv(tmp_path):
    rep = compute_metrics({"qb": 2, "qa": 5, "qc": 1}, (1,))
    path = tmp_path / "ranks.tsv"
    dump_ranks(rep, path)
    assert path.read_text(encoding="utf-8") == "qa\t5\nqb\t2\nqc\t1\n"
