"""Similarity-structure reports against brute-force recomputation."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc import diagnostics, simgraph
from invgc.diagnostics import (
    cross_mean_sim,
    degeneration_score,
    intra_mean_sim,
    nn_similarity_histogram,
)
from invgc.embio import EmbeddingSet
from invgc.synth import ConeConfig, generate_cone_dataset


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
    # 1500 rows split into nine row blocks, once within the set (diagonal
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
    assert len(simgraph._plan(G.n, Q.n, G.d).blocks) == 9
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


def two_pass_moments(X, Y, keep):
    # mean, std and min of the kept cells of the dense clipped cosines:
    # the mean first, then the squared deviations from it
    Xn = X / np.linalg.norm(X, axis=1)[:, None]
    Yn = Y / np.linalg.norm(Y, axis=1)[:, None]
    pool = np.clip(Xn @ Yn.T, -1.0, 1.0)[keep]
    mean = pool.mean()
    return mean, np.sqrt(np.mean((pool - mean) ** 2)), pool.min()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(2, 40),
    d=st.integers(1, 6),
    duplicate=st.booleans(),
    antipodal=st.booleans(),
    scale=st.integers(-20, 60),
)
def test_closed_form_moments_match_a_two_pass_dense_pool(seed, n, m, d, duplicate, antipodal, scale):
    # mean_sim and std_sim come from the two sets' means and centered
    # d x d Grams, less the excluded cells, not from the blocks; the
    # reference sums the kept cells of the dense matrix.  Gallery row 0
    # keeps one unmatched query, and scaling both sets by 2^scale leaves
    # every bit alone.
    rng = np.random.default_rng(seed)
    G, Q = make_set(rng, n, d, "g"), make_set(rng, m, d, "q")
    if duplicate:
        G.data[1], Q.data[1] = G.data[0], G.data[0]
    if antipodal:
        G.data[-1], Q.data[0] = -G.data[0], -G.data[0]
    matched = rng.random((n, m)) < rng.random()
    matched[0] = True
    matched[0, rng.integers(m)] = False
    for i in np.flatnonzero(matched.all(axis=1)):
        matched[i, rng.integers(m)] = False
    rel = {}
    for i, j in np.argwhere(matched):
        rel.setdefault(Q.ids[j], set()).add(G.ids[i])
    reports = {
        "intra": (intra_mean_sim(G, [1]), G.data, G.data, ~np.eye(n, dtype=bool)),
        "cross": (cross_mean_sim(G, Q, rel, [1]), G.data, Q.data, ~matched),
    }
    for mode, (rep, X, Y, keep) in reports.items():
        mean, std, low = two_pass_moments(X, Y, keep)
        assert_allclose(rep.mean_sim, mean, rtol=0, atol=1e-12, err_msg=mode)
        assert_allclose(rep.std_sim, std, rtol=0, atol=1e-12, err_msg=mode)
        assert_allclose(rep.min_sim, low, rtol=0, atol=1e-12, err_msg=mode)
        assert rep.min_sim <= rep.mean_sim, mode
    k = 2.0**scale
    Gs, Qs = EmbeddingSet(G.ids, G.data * k), EmbeddingSet(Q.ids, Q.data * k)
    assert intra_mean_sim(Gs, [1]) == reports["intra"][0]
    assert cross_mean_sim(Gs, Qs, rel, [1]) == reports["cross"][0]


def test_each_set_gets_one_centered_gram(monkeypatch):
    # intra pairs a set with itself, so its one Gram serves both sides
    calls = []
    gram = diagnostics._centered_gram
    monkeypatch.setattr(diagnostics, "_centered_gram", lambda Z, w: calls.append(Z) or gram(Z, w))
    rng = np.random.default_rng(46)
    G, Q = make_set(rng, 7, 3, "g"), make_set(rng, 5, 3, "q")
    intra_mean_sim(G, [1])
    assert len(calls) == 1
    calls.clear()
    cross_mean_sim(G, Q, {"q0": {"g0"}}, [1])
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_a_cross_k_past_a_c_long_counts_every_query():
    rng = np.random.default_rng(47)
    G, Q = make_set(rng, 7, 3, "g"), make_set(rng, 5, 3, "q")
    rep = cross_mean_sim(G, Q, {"q0": {"g0"}}, [5, 2**64])
    assert rep.mean_sim_at[2**64] == rep.mean_sim_at[5]


def test_identical_rows_keep_the_mean_at_most_one():
    # The mean rows of 300 copies of this row round so that the closed
    # form puts the mean of the cosines at about 1 + 2e-15, and the row's
    # product with itself is 1 + 2e-16 before it is clipped; no reported
    # value may pass 1
    row = np.random.default_rng(37).standard_normal(64)
    G = EmbeddingSet([f"x{i}" for i in range(300)], np.tile(row, (300, 1)))
    Q = EmbeddingSet([f"q{i}" for i in range(200)], np.tile(row, (200, 1)))
    for rep in (intra_mean_sim(G, [1, 5]), cross_mean_sim(G, Q, {"q0": {"x0"}}, [1])):
        assert rep.min_sim <= rep.mean_sim <= 1.0
        assert max(rep.mean_sim_at.values()) <= 1.0
        assert np.isfinite(rep.std_sim) and 0.0 <= rep.std_sim < 1e-7


def test_std_of_a_collapsed_cone_keeps_its_digits():
    # cosines about 0.98 +- 0.004, as on the benchmark's inspect-M sets,
    # where sum s^2 - (sum s)^2 / n would lose about 5 of std's digits
    G, Q, refG, _, rel = generate_cone_dataset(ConeConfig(n_items=300, n_ref=900, dim=64, seed=5))
    gi = {g: i for i, g in enumerate(G.ids)}
    matched = np.zeros((G.n, Q.n), dtype=bool)
    for j, q in enumerate(Q.ids):
        for g in rel.get(q, ()):
            matched[gi[g], j] = True
    cases = [
        (intra_mean_sim(refG, [1]), refG.data, refG.data, ~np.eye(refG.n, dtype=bool)),
        (cross_mean_sim(G, Q, rel, [1]), G.data, Q.data, ~matched),
    ]
    for rep, X, Y, keep in cases:
        mean, std, _ = two_pass_moments(X, Y, keep)
        assert 0.97 < mean < 0.99 and 0.001 < std < 0.006, (mean, std)
        assert_allclose(rep.mean_sim, mean, rtol=1e-15, atol=0)
        assert_allclose(rep.std_sim, std, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, d, seed", [(1000, 32, 5), (600, 64, 2)])
def test_intra_std_of_a_collapsed_cone_is_within_1e_15_of_a_long_double_pool(n, d, seed):
    # the gallery's spread along its own mean direction is small, and a
    # quadratic form read from the finished d x d Gram carried that
    # Gram's rounding into std_sim (4e-15 and 2e-15 relative here); the
    # reference is a long-double two-pass over the float64 cosines
    G = generate_cone_dataset(ConeConfig(n_items=n, n_ref=2, dim=d, seed=seed))[0]
    pool = simgraph.cosine_similarity_matrix(G, G).values[~np.eye(n, dtype=bool)]
    pool = pool.astype(np.longdouble)
    std = np.sqrt(np.mean((pool - np.mean(pool)) ** 2))
    assert abs(intra_mean_sim(G, [1]).std_sim - std) <= 1e-15 * std


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


def test_each_histogram_count_lies_between_its_own_printed_edges():
    # fed every edge and both of its float neighbours in [-1, 1], each bin
    # counts exactly the values v with lower <= v < upper, the top bin
    # also 1.0, and the top edge prints as 1.0
    for bins in range(1, 2001):
        edges = np.array([lo for lo, _, _ in diagnostics._nn_histogram(np.empty(0), bins)] + [1.0])
        values = np.unique(np.concatenate([edges, *(np.nextafter(edges, t) for t in (-2.0, 2.0))]))
        values = values[(values >= -1.0) & (values <= 1.0)]
        lower, upper, counts = map(np.array, zip(*diagnostics._nn_histogram(values, bins)))
        assert upper[-1] == 1.0, bins
        want = np.searchsorted(values, upper) - np.searchsorted(values, lower)
        want[-1] += 1
        assert counts.tolist() == want.tolist(), bins
        assert counts.sum() == values.size, bins


def test_k_and_size_validation():
    rng = np.random.default_rng(44)
    G = make_set(rng, 5, 3)
    with pytest.raises(ValueError, match=r"^need at least one k$"):
        intra_mean_sim(G, [])
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 0$"):
        intra_mean_sim(G, [0])
    with pytest.raises(ValueError, match="exceeds the 4 available"):
        intra_mean_sim(G, [5])
    with pytest.raises(ValueError, match="need at least 2 points"):
        intra_mean_sim(EmbeddingSet(["a"], [[1.0, 0.0]]), [1])
    with pytest.raises(ValueError, match=r"^bins must be an integer in \[1, 1000000\], got 0$"):
        nn_similarity_histogram(G, bins=0)


def test_a_fractional_k_or_bin_count_is_refused():
    # not truncated to MeanSim@1, nor passed to numpy's histogram
    G = make_set(np.random.default_rng(44), 5, 3)
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 1\.5$"):
        intra_mean_sim(G, [1.5])
    with pytest.raises(ValueError, match=r"^bins must be an integer in \[1, 1000000\], got 2\.5$"):
        intra_mean_sim(G, [1], bins=2.5)


def test_bins_are_checked_before_the_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(diagnostics, "_block_tasks", lambda *a, **kw: calls.append(a) or [])
    rng = np.random.default_rng(44)
    G, Q = make_set(rng, 5, 3, "g"), make_set(rng, 4, 3, "q")
    for run, bins in ((lambda: intra_mean_sim(G, [1], bins=0), 0),
                      (lambda: cross_mean_sim(G, Q, {"q0": {"g0"}}, [1], bins=-3), -3)):
        with pytest.raises(ValueError, match=rf"^bins must be an integer in \[1, 1000000\], got {bins}$"):
            run()
    assert calls == []


@pytest.mark.parametrize("bins", [1_000_001, 10**9])
def test_too_many_bins_are_refused_before_the_pass(monkeypatch, bins):
    # a billion bins would ask _nn_histogram for about 8 GB of counts;
    # the spies keep a missing check from getting that far
    calls = []
    monkeypatch.setattr(diagnostics, "_block_tasks", lambda *a, **kw: calls.append(a) or [])
    monkeypatch.setattr(diagnostics, "_nn_histogram", lambda *a: calls.append(a))
    rng = np.random.default_rng(44)
    G, Q = make_set(rng, 5, 3, "g"), make_set(rng, 4, 3, "q")
    for run in (lambda: intra_mean_sim(G, [1], bins=bins),
                lambda: cross_mean_sim(G, Q, {"q0": {"g0"}}, [1], bins=bins),
                lambda: nn_similarity_histogram(G, bins)):
        with pytest.raises(ValueError, match=rf"^bins must be an integer in \[1, 1000000\], got {bins}$"):
            run()
    assert calls == []


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


@pytest.mark.parametrize("budget", [64, None])
def test_degeneration_score_equals_intra_mean_sim_at_1_bit_for_bit(budget):
    # sweep's degeneration column is intra diagnose's MeanSim@1; a 64-cell
    # budget runs the pass in 2-row blocks, the default in one, and
    # duplicate rows put exact ties at the maximum
    rng = np.random.default_rng(49)
    cuts = []
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(simgraph, "_BLOCK_CELLS", budget)
        for _ in range(6):
            G = make_set(rng, int(rng.integers(2, 60)), int(rng.integers(1, 9)))
            G.data[1] = G.data[0]
            assert degeneration_score(G) == intra_mean_sim(G, [1]).mean_sim_at[1]
            cuts.append(len(simgraph._plan(G.n, G.n, G.d).blocks))
    if budget is not None:  # every set but a 4-row one runs in 17 blocks or more
        assert sum(c >= 17 for c in cuts) == 5, cuts
    with pytest.raises(ValueError, match="need at least 2 points"):
        degeneration_score(make_set(rng, 1, 3))


def test_reports_and_dense_cosines_do_not_depend_on_the_blocks_or_the_workers(monkeypatch):
    # Each row's statistics come from its own cells, so the reports and
    # the dense matrix hold the same bits whether a pass runs in 2-row
    # blocks (a 64-cell budget) or the default ones, on one thread or on
    # three that switch often.  At these shapes OpenBLAS gives a cell the
    # same bits in a 2-row product as in a 520-row one; at some shapes a
    # cell's last bit depends on the product's row count, and numpy runs
    # a one-block self pass as syrk, so the budget is fixed.
    rng = np.random.default_rng(50)
    G = make_set(rng, 520, 6, "g")
    Q = make_set(rng, 400, 6, "q")
    rel = {}
    for i, j in zip(rng.integers(0, G.n, 1500), rng.integers(0, Q.n, 1500)):
        rel.setdefault(Q.ids[j], set()).add(G.ids[i])

    def run():
        return (
            intra_mean_sim(G, [1, 5, 519], bins=11),
            cross_mean_sim(G, Q, rel, [1, 5, 400], bins=11),
            simgraph.cosine_similarity_matrix(G, Q).values,
        )

    want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for budget in (64, simgraph._BLOCK_CELLS):
            for workers in (1, 3):
                monkeypatch.setattr(simgraph, "_BLOCK_CELLS", budget)
                monkeypatch.setattr(simgraph, "_worker_count", lambda: workers)
                assert len(simgraph._plan(G.n, G.n, G.d).blocks) == (260 if budget == 64 else 2)
                intra, cross, dense = run()
                assert intra == want[0], (budget, workers)
                assert cross == want[1], (budget, workers)
                assert_array_equal(dense, want[2], err_msg=f"{budget} cells, {workers} workers")
    finally:
        sys.setswitchinterval(interval)


def test_intra_on_3000_rows_never_holds_the_full_similarity_matrix(traced_peak):
    # the dense 3000 x 3000 float64 cosines take 72 MB; the blocked pass
    # holds a 2 MB block and its partitioned copy per worker
    rng = np.random.default_rng(48)
    G = make_set(rng, 3000, 8)
    rep, peak = traced_peak(intra_mean_sim, G, [1, 10])
    assert peak < 3000 * 3000 * 8 / 4, peak
    assert rep.excluded_pairs == 3000


def test_one_worker_intra_pass_holds_no_partitioned_copy_of_its_block(monkeypatch, traced_peak):
    # With one worker the pass holds one block of cosines, 87 x 3000
    # float64 (2.1 MB), at a time.  The top values come from 2**15-cell
    # chunks partitioned in one reused buffer; a partitioned copy of the
    # whole block would put the peak above two blocks.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(48)
    G = make_set(rng, 3000, 8)
    block = simgraph._plan(G.n, G.n, G.d).blocks[0]
    block_bytes = (block.stop - block.start) * G.n * 8
    _, peak = traced_peak(intra_mean_sim, G, [1, 10])
    assert peak < 1.5 * block_bytes, (peak, block_bytes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([16, 64, simgraph._BLOCK_CELLS]))
def test_cross_report_follows_ids_not_row_order(seed, budget):
    # small cell budgets cut the gallery into many row blocks, so the
    # permuted excluded pairs land in different blocks
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    G = make_set(rng, int(rng.integers(2, 30)), d, "g")
    Q = make_set(rng, int(rng.integers(2, 30)), d, "q")
    rel = {}
    for _ in range(int(rng.integers(0, G.n * Q.n // 2 + 1))):
        rel.setdefault(Q.ids[rng.integers(Q.n)], set()).add(G.ids[rng.integers(G.n)])
    full = [g for g in G.ids if sum(g in gs for gs in rel.values()) == Q.n]
    for gs in rel.values():
        gs.difference_update(full)
    ks = [1, 3, 40]
    pg, pq = rng.permutation(G.n), rng.permutation(Q.n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simgraph, "_BLOCK_CELLS", budget)
        # the budget is obeyed as it is at d < 128
        assert simgraph._plan(G.n, Q.n, d).blocks == simgraph._row_blocks(G.n, Q.n, budget)
        a = cross_mean_sim(G, Q, rel, ks, bins=7)
        b = cross_mean_sim(
            EmbeddingSet([G.ids[i] for i in pg], G.data[pg]),
            EmbeddingSet([Q.ids[i] for i in pq], Q.data[pq]),
            rel, ks, bins=7,
        )
    assert a.excluded_pairs == b.excluded_pairs
    for x, y in [(a.mean_sim, b.mean_sim), (a.std_sim, b.std_sim), (a.min_sim, b.min_sim)]:
        assert_allclose(x, y, rtol=0, atol=1e-12)
    for k in ks:
        assert_allclose(a.mean_sim_at[k], b.mean_sim_at[k], rtol=0, atol=1e-12)
    assert a.histogram == b.histogram



def cone_sets(rng, n_g, n_q, d, noise):
    # two sets around one shared axis, so their cosines are close together
    axis = rng.standard_normal(d)
    G = EmbeddingSet([f"g{i}" for i in range(n_g)], axis + noise * rng.standard_normal((n_g, d)))
    Q = EmbeddingSet([f"q{j}" for j in range(n_q)], axis + noise * rng.standard_normal((n_q, d)))
    return G, Q


def scalars(rep):
    return rep.mean_sim, rep.std_sim, rep.mean_sim_at


def test_cross_report_does_not_move_when_the_relevance_lines_are_reversed():
    # the 140th draw maps 120 queries onto 40 gallery items at random; when
    # the excluded cells were summed in the map's order, reversing its
    # lines moved std_sim by one ulp
    rng = np.random.default_rng(0)
    for _ in range(140):
        G, Q = cone_sets(rng, 40, 120, 8, 0.3)
        rel = {q: {G.ids[int(rng.integers(G.n))]} for q in Q.ids}
    a = cross_mean_sim(G, Q, rel, [1, 5])
    b = cross_mean_sim(G, Q, dict(reversed(rel.items())), [1, 5])
    assert scalars(a) == scalars(b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cross_report_is_bit_identical_for_any_order_of_the_relevance_map(seed):
    # about three queries per gallery item, each query matching one or two
    # of them; the map's entries and each entry's gallery ids are reordered
    rng = np.random.default_rng(seed)
    n_g = int(rng.integers(2, 40))
    G, Q = cone_sets(rng, n_g, 3 * n_g, int(rng.integers(2, 10)), 0.3)
    owner = rng.permutation(Q.n) % n_g
    rel = {q: [G.ids[owner[j]]] for j, q in enumerate(Q.ids)}
    for j in rng.choice(Q.n, Q.n // 4, replace=False):
        rel[Q.ids[j]].append(G.ids[(owner[j] + 1) % n_g])
    items = list(rel.items())
    reordered = {q: gs[::-1] for q, gs in (items[i] for i in rng.permutation(len(items)))}
    ks = [1, 3, 10]
    assert scalars(cross_mean_sim(G, Q, rel, ks)) == scalars(cross_mean_sim(G, Q, reordered, ks))
