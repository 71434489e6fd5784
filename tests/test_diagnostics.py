"""Similarity-structure reports against brute-force recomputation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from invgc.diagnostics import (
    cross_mean_sim,
    degeneration_score,
    intra_mean_sim,
    nn_similarity_histogram,
)
from invgc.embio import EmbeddingSet


def make_set(rng, n, d, prefix="x"):
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


def test_orthogonal_frame_scores_zero():
    G = EmbeddingSet(["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert degeneration_score(G) == 0.0
    rep = intra_mean_sim(G, [1, 2], bins=4)
    assert rep.mean_sim_at[1] == 0.0
    # per-row neighbor pairs: {0,-1}, {0,0}, {0,-1}
    assert_allclose(rep.mean_sim_at[2], (-0.5 + 0.0 - 0.5) / 3.0, atol=1e-15)
    assert_allclose(rep.mean_sim, -1.0 / 3.0, atol=1e-15)
    assert rep.min_sim == -1.0
    assert rep.excluded_pairs == 3


def test_intra_matches_bruteforce_oracle():
    rng = np.random.default_rng(41)
    for _ in range(8):
        G = make_set(rng, int(rng.integers(3, 14)), int(rng.integers(2, 6)))
        ks = [1, 2, G.n - 1]
        rep = intra_mean_sim(G, ks, bins=6)
        rows = G.data.tolist()
        for k in ks:
            assert_allclose(rep.mean_sim_at[k], oracles.intra_mean_at(rows, k), atol=1e-12)
        pool = [
            oracles.cosine(rows[i], rows[j])
            for i in range(G.n)
            for j in range(G.n)
            if i != j
        ]
        assert_allclose(rep.mean_sim, np.mean(pool), atol=1e-12)
        assert_allclose(rep.std_sim, np.std(pool), atol=1e-12)
        assert_allclose(rep.min_sim, np.min(pool), atol=1e-12)
        assert sum(c for _, _, c in rep.histogram) == G.n


def test_intra_scalars_are_permutation_invariant():
    rng = np.random.default_rng(42)
    G = make_set(rng, 11, 4)
    perm = rng.permutation(11)
    P = EmbeddingSet([G.ids[i] for i in perm], G.data[perm])
    a = intra_mean_sim(G, [1, 3])
    b = intra_mean_sim(P, [1, 3])
    assert_allclose(a.mean_sim, b.mean_sim, atol=1e-12)
    assert_allclose(a.mean_sim_at[1], b.mean_sim_at[1], atol=1e-12)
    assert_allclose(a.mean_sim_at[3], b.mean_sim_at[3], atol=1e-12)


def test_intra_spanning_several_row_blocks_matches_a_dense_pool():
    # 1500 rows split into two row blocks, once within the set (diagonal
    # excluded) and once against 1500 queries with scattered matched
    # pairs, where three gallery rows keep only 1, 5 and 20 unmatched
    # queries; the reference keeps the whole masked pool and sorts every
    # row
    rng = np.random.default_rng(47)
    G = make_set(rng, 1500, 6)
    Q = make_set(rng, 1500, 6, "q")
    matched = np.zeros((G.n, Q.n), dtype=bool)
    matched[rng.integers(0, G.n, 3000), rng.integers(0, Q.n, 3000)] = True
    for i, left in ((3, 1), (700, 5), (1499, 20)):
        matched[i] = True
        matched[i, rng.choice(Q.n, left, replace=False)] = False
    rel = {}
    for i, j in np.argwhere(matched):
        rel.setdefault(Q.ids[j], set()).add(G.ids[i])
    ks = [1, 7, 30]
    cases = [
        (intra_mean_sim(G, ks, bins=9), G, ~np.eye(G.n, dtype=bool)),
        (cross_mean_sim(G, Q, rel, ks, bins=9), Q, ~matched),
    ]
    X = G.data / np.linalg.norm(G.data, axis=1)[:, None]
    for rep, C, keep in cases:
        Y = C.data / np.linalg.norm(C.data, axis=1)[:, None]
        sims = np.clip(X @ Y.T, -1.0, 1.0)
        pool = sims[keep]
        ranked = -np.sort(np.where(keep, -sims, np.inf), axis=1)
        available = keep.sum(axis=1)
        assert rep.excluded_pairs == (~keep).sum()
        assert_allclose(rep.mean_sim, pool.mean(), atol=1e-12)
        assert_allclose(rep.std_sim, pool.std(), atol=1e-12)
        assert_allclose(rep.min_sim, pool.min(), atol=1e-12)
        for k in ks:
            take = np.minimum(k, available)
            top = np.where(np.arange(C.n) < take[:, None], ranked, 0.0)
            assert_allclose(rep.mean_sim_at[k], (top.sum(axis=1) / take).mean(), atol=1e-12)
        want = np.histogram(ranked[:, 0], bins=9, range=(-1.0, 1.0))[0]
        assert [c for _, _, c in rep.histogram] == want.tolist()


def test_histogram_boundary_values_go_to_the_higher_bin():
    # nearest-neighbor values here are exactly [1.0, 1.0, 0.0]: the
    # duplicates see each other at similarity 1, the orthogonal row sees
    # both at 0.  1.0 stays in the top bin; 0.0 lands in [0, 0.5).
    G = EmbeddingSet(["a", "b", "c"], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    hist = nn_similarity_histogram(G, bins=4)
    assert hist == [(-1.0, -0.5, 0), (-0.5, 0.0, 0), (0.0, 0.5, 1), (0.5, 1.0, 2)]


def test_histogram_covers_unit_interval_with_equal_bins():
    rng = np.random.default_rng(43)
    G = make_set(rng, 25, 3)
    hist = nn_similarity_histogram(G, bins=7)
    assert len(hist) == 7
    edges = [lo for lo, _, _ in hist] + [hist[-1][1]]
    assert_allclose(edges, np.linspace(-1.0, 1.0, 8), atol=1e-12)
    assert sum(c for _, _, c in hist) == 25


def test_k_and_size_validation():
    rng = np.random.default_rng(44)
    G = make_set(rng, 5, 3)
    with pytest.raises(ValueError, match="k values must be positive"):
        intra_mean_sim(G, [])
    with pytest.raises(ValueError, match="k values must be positive"):
        intra_mean_sim(G, [0])
    with pytest.raises(ValueError, match="exceeds the 4 available"):
        intra_mean_sim(G, [5])
    with pytest.raises(ValueError, match="need at least 2 points"):
        intra_mean_sim(EmbeddingSet(["a"], [[1.0, 0.0]]), [1])
    with pytest.raises(ValueError, match="bins must be >= 1"):
        nn_similarity_histogram(G, bins=0)


def test_cross_excludes_matched_pairs():
    rng = np.random.default_rng(45)
    G = make_set(rng, 4, 3, "g")
    Q = make_set(rng, 6, 3, "q")
    rel = {"q0": {"g0"}, "q1": {"g0", "g2"}, "q5": {"g3"}}
    rep = cross_mean_sim(G, Q, rel, [1, 3], bins=5)
    assert rep.excluded_pairs == 4
    sims = oracles.cosine_matrix(G.data.tolist(), Q.data.tolist())
    excluded = {(0, 0), (0, 1), (2, 1), (3, 5)}
    pool = [
        sims[i][j]
        for i in range(4)
        for j in range(6)
        if (i, j) not in excluded
    ]
    assert_allclose(rep.mean_sim, np.mean(pool), atol=1e-12)
    assert_allclose(rep.min_sim, np.min(pool), atol=1e-12)
    for k in (1, 3):
        per_row = []
        for i in range(4):
            cands = sorted(
                (sims[i][j] for j in range(6) if (i, j) not in excluded),
                reverse=True,
            )
            take = min(k, len(cands))
            per_row.append(sum(cands[:take]) / take)
        assert_allclose(rep.mean_sim_at[k], np.mean(per_row), atol=1e-12)


def test_cross_ignores_ids_outside_the_sets():
    rng = np.random.default_rng(46)
    G = make_set(rng, 3, 3, "g")
    Q = make_set(rng, 3, 3, "q")
    base = cross_mean_sim(G, Q, {"q0": {"g1"}}, [1])
    extra = cross_mean_sim(
        G, Q, {"q0": {"g1", "gX"}, "qX": {"g0"}}, [1]
    )
    assert base.mean_sim == extra.mean_sim
    assert base.excluded_pairs == extra.excluded_pairs == 1


def test_cross_caps_k_at_available_neighbors():
    rng = np.random.default_rng(47)
    G = make_set(rng, 3, 3, "g")
    Q = make_set(rng, 2, 3, "q")
    rep = cross_mean_sim(G, Q, {"q0": {"g0"}}, [5])
    sims = oracles.cosine_matrix(G.data.tolist(), Q.data.tolist())
    rows = [
        [sims[0][1]],           # q0 excluded for g0
        [sims[1][0], sims[1][1]],
        [sims[2][0], sims[2][1]],
    ]
    want = np.mean([np.mean(r) for r in rows])
    assert_allclose(rep.mean_sim_at[5], want, atol=1e-12)


def test_cross_requires_an_unmatched_query_per_row():
    G = EmbeddingSet(["g0"], [[1.0, 0.0]])
    Q = EmbeddingSet(["q0", "q1"], [[1.0, 0.0], [0.0, 1.0]])
    rel = {"q0": {"g0"}, "q1": {"g0"}}
    with pytest.raises(ValueError, match="gallery row 'g0' has no unmatched queries"):
        cross_mean_sim(G, Q, rel, [1])


def test_degeneration_score_is_mean_nn_similarity():
    rng = np.random.default_rng(48)
    G = make_set(rng, 15, 5)
    assert degeneration_score(G) == intra_mean_sim(G, [1]).mean_sim_at[1]
    assert_allclose(
        degeneration_score(G), oracles.intra_mean_at(G.data.tolist(), 1), atol=1e-12
    )
