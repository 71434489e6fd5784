"""Rank computation and metric aggregation."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from invgc import simgraph
from invgc.embio import EmbeddingSet
from invgc.retrieval import (
    RetrievalReport,
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
    # the middle values of the sorted ranks, not of the map's order
    assert compute_metrics({"a": 10, "b": 3, "c": 1, "d": 2}, (1,)).median_rank == 2.5
    assert compute_metrics({"a": 7, "b": 1, "c": 3}, (1,)).median_rank == 3.0


def test_median_rank_equals_numpy_median_for_odd_and_even_counts():
    rng = np.random.default_rng(56)
    for n in range(1, 41):
        ranks = {f"q{i}": int(r) for i, r in enumerate(rng.integers(1, 30, n))}
        want = np.median(np.array(list(ranks.values()), dtype=np.float64))
        assert compute_metrics(ranks, (1,)).median_rank == want


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
    with pytest.raises(ValueError, match=r"^K must be an integer >= 1, got 0$"):
        compute_metrics({"a": 1}, (0, 5))


def test_a_fractional_K_is_refused_not_truncated():
    # not truncated to R@1
    with pytest.raises(ValueError, match=r"^K must be an integer >= 1, got 1\.5$"):
        compute_metrics({"a": 1}, [1.5])


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


@pytest.mark.parametrize("bad", ["q\t1", "q\n2"])
def test_dump_ranks_refuses_an_id_its_file_could_not_hold(tmp_path, bad):
    # a binary set keeps such an id through save and load, so evaluate
    # can rank it; the TSV line would split it
    rep = RetrievalReport({1: 100.0}, 1.0, 1.0, {"q0": 1, bad: 2})
    path = tmp_path / "ranks.tsv"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        dump_ranks(rep, path)
    assert not path.exists()


def test_ranks_over_several_row_blocks_match_the_oracle_on_tie_heavy_data():
    # 1100 queries x 2000 gallery rows run in nine row blocks; integer
    # directions from a 3 x 3 grid make most similarities tie exactly
    rng = np.random.default_rng(55)
    Q = EmbeddingSet([f"q{i}" for i in range(1100)], rng.integers(1, 4, (1100, 2)).astype(float))
    G = EmbeddingSet([f"g{i}" for i in range(2000)], rng.integers(1, 4, (2000, 2)).astype(float))
    assert len(simgraph._plan(Q.n, G.n, Q.d).blocks) == 9
    rel = {
        qid: {G.ids[i] for i in rng.choice(G.n, size=int(rng.integers(1, 3)), replace=False)}
        for qid in Q.ids
    }
    ranks = rank_queries(Q, G, rel)
    assert list(ranks) == Q.ids
    sims = cosine_similarity_matrix(Q, G).values
    g_index = {g: i for i, g in enumerate(G.ids)}
    for qi, qid in enumerate(Q.ids):
        rel_idx = [g_index[g] for g in rel[qid]]
        assert ranks[qid] == oracles.rank_of_best_relevant(sims[qi].tolist(), rel_idx)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([4, 16, simgraph._BLOCK_CELLS]))
def test_permuting_the_queries_permutes_the_rank_map(seed, budget):
    # Rows are signed multiples of axis vectors, so every cosine is exactly
    # -1, 0 or 1 wherever its row sits in a block, and most ranks hinge on
    # breaking ties by gallery column.  Small budgets cut the queries into
    # blocks of two rows.
    rng = np.random.default_rng(seed)
    n_q, n_g, d = int(rng.integers(1, 13)), int(rng.integers(1, 16)), int(rng.integers(2, 5))

    def axis_rows(n):
        X = np.zeros((n, d))
        X[np.arange(n), rng.integers(0, d, n)] = rng.choice([-2.0, -1.0, 1.0, 3.0], n)
        return X

    Q = EmbeddingSet([f"q{i}" for i in range(n_q)], axis_rows(n_q))
    G = EmbeddingSet([f"g{i}" for i in range(n_g)], axis_rows(n_g))
    rel = {
        qid: {G.ids[j] for j in rng.choice(n_g, size=int(rng.integers(1, min(3, n_g) + 1)), replace=False)}
        for qid in Q.ids
    }
    order = rng.permutation(n_q)
    moved = EmbeddingSet([Q.ids[i] for i in order], Q.data[order])
    with mock.patch.object(simgraph, "_BLOCK_CELLS", budget):
        # the budget is obeyed as it is at d < 128
        assert simgraph._plan(n_q, n_g, d).blocks == simgraph._row_blocks(n_q, n_g, budget)
        ranks, moved_ranks = rank_queries(Q, G, rel), rank_queries(moved, G, rel)
    assert list(moved_ranks) == moved.ids
    assert moved_ranks == ranks
    sims = cosine_similarity_matrix(Q, G).values
    for qi, qid in enumerate(Q.ids):
        rel_idx = [G.ids.index(g) for g in rel[qid]]
        assert ranks[qid] == oracles.rank_of_best_relevant(sims[qi].tolist(), rel_idx)
