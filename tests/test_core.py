"""Convolution updates against a per-row oracle and hand-checked cases."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc import core, simgraph
from invgc.core import (
    InvGCConfig,
    StepOverflowError,
    VARIANTS,
    _kept_count,
    build_adjacency,
    forward_convolve,
    inverse_convolve_dual,
    inverse_convolve_single,
    row_normalize,
)
from invgc.embio import EmbeddingSet
from invgc.simgraph import Adjacency, SimMatrix, _id_cells, _mm, cosine_similarity_matrix, unit_rows


def make_set(rng, n, d, prefix="x"):
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


def aggregates(Gn, ref, variant, counts):
    """S @ ref at each kept count m in counts: core._aggregate_tasks run
    and collected."""
    tasks, aggs = core._aggregate_tasks(Gn, ref, variant, counts)
    simgraph._run_tasks(tasks)
    return [aggs[m] for m in counts]


def take_rows(es, idx):
    return EmbeddingSet([es.ids[i] for i in idx], es.data[idx])


def random_config(rng, variant):
    return InvGCConfig(
        variant,
        float(rng.uniform(0.0, 1.0)),
        float(rng.uniform(0.0, 1.0)),
        float(rng.uniform(1.0, 100.0)),
        float(rng.uniform(1.0, 100.0)),
    )


def test_dual_update_matches_row_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        G = make_set(rng, int(rng.integers(2, 17)), d, "g")
        refQ = make_set(rng, int(rng.integers(2, 33)), d, "q")
        if trial % 5 == 0:
            refG = G  # shared ids exercise the self-pair exclusion
        else:
            refG = make_set(rng, int(rng.integers(2, 33)), d, "r")
        variant = VARIANTS[trial % 3]
        cfg = InvGCConfig(
            variant,
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(1.0, 100.0)),
            float(rng.uniform(1.0, 100.0)),
        )
        got = inverse_convolve_dual(G, refG, refQ, cfg)
        want = oracles.invgc_dual(
            G.ids, G.data.tolist(),
            refG.ids, refG.data.tolist(),
            refQ.ids, refQ.data.tolist(),
            variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
        )
        assert got.ids == G.ids
        assert_allclose(got.data, want, atol=1e-9)


def test_single_row_hand_example():
    """One row against two reference points, centered weights, unit step.

    The cosine row is [0, 1]; after centering it is [-0.5, 0.5], so the
    aggregate is 0.5*(1,0) - 0.5*(0,1) and the update moves (1,0) to
    (0.5, 0.5), which renormalizes to (sqrt(.5), sqrt(.5)).
    """
    G = EmbeddingSet(["a"], [[1.0, 0.0]])
    ref = EmbeddingSet(["r0", "r1"], [[0.0, 1.0], [1.0, 0.0]])
    cfg = InvGCConfig("full", 1.0, 1.0)
    out = inverse_convolve_dual(G, ref, ref, cfg)
    assert_allclose(out.data, [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-15)


def test_zero_steps_return_exact_unit_input():
    G = EmbeddingSet(
        ["a", "b", "c"], [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]
    )
    rng = np.random.default_rng(32)
    refG = make_set(rng, 5, 2, "r")
    refQ = make_set(rng, 4, 2, "q")
    for variant in VARIANTS:
        out = inverse_convolve_dual(G, refG, refQ, InvGCConfig(variant))
        assert out.ids == G.ids
        assert_array_equal(out.data, G.data)


def test_forward_then_inverse_recovers_integer_data():
    # integer payloads and 0/1 weights keep every intermediate exact
    X = EmbeddingSet(["x0", "x1"], [[3.0, -2.0], [0.0, 5.0]])
    R = EmbeddingSet(["r0", "r1", "r2"], [[1.0, 2.0], [-4.0, 1.0], [2.0, 2.0]])
    S = Adjacency(np.ones((2, 3)), "binary", 100.0)
    forward = forward_convolve(X, S, R)
    back = inverse_convolve_single(forward, S, R, 1.0)
    assert_array_equal(back.data, X.data)
    assert_array_equal(forward.data, [[2.0, 3.0], [-1.0, 10.0]])


def test_self_reference_drops_the_diagonal():
    X = EmbeddingSet(["a", "b", "c"], [[1.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
    S = Adjacency(np.ones((3, 3)), "binary", 100.0)
    out = inverse_convolve_single(X, S, X, 1.0)
    want = [
        [1.0 - 4.0, 0.0 - 6.0],
        [0.0 - 5.0, 2.0 - 4.0],
        [4.0 - 1.0, 4.0 - 2.0],
    ]
    assert_array_equal(out.data, want)
    # distinct id lists keep the diagonal even when the data matches
    Y = EmbeddingSet(["d", "e", "f"], X.data)
    full = inverse_convolve_single(Y, S, X, 1.0)
    assert_array_equal(full.data, Y.data - X.data.sum(axis=0))


def test_build_adjacency_dispatch():
    rng = np.random.default_rng(33)
    sim = cosine_similarity_matrix(make_set(rng, 4, 3), make_set(rng, 6, 3, "r"))
    full = build_adjacency(sim, InvGCConfig("full"))
    assert full.variant == "full" and full.centered
    local = build_adjacency(sim, InvGCConfig("local", k_percent=40.0))
    assert local.variant == "local" and local.param == 40.0
    pool = build_adjacency(sim, InvGCConfig("avgpool", p_percent=60.0))
    assert pool.variant == "binary" and pool.param == 60.0
    assert set(np.unique(pool.values)) <= {0.0, 1.0}


def test_row_normalize_passes_zero_rows_through_with_warning():
    M = np.array([[3.0, 4.0], [0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="1 zero-norm rows"):
        out = row_normalize(M)
    assert_allclose(out[0], [0.6, 0.8], atol=1e-15)
    assert_array_equal(out[1], [0.0, 0.0])


def test_row_normalize_refuses_a_non_finite_row_by_index():
    with pytest.raises(ValueError, match="non-finite value in embedding row, row 0"):
        row_normalize(np.array([[np.inf, 1.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="non-finite value in embedding row, row 1"):
        row_normalize(np.array([[3.0, 4.0], [np.nan, 1.0], [-np.inf, 0.0]]))


def test_row_normalize_keeps_tiny_but_valid_rows():
    M = np.array([[1e-6, 0.0]])
    out = row_normalize(M)
    assert_array_equal(out, [[1.0, 0.0]])


def test_config_validation():
    with pytest.raises(ValueError, match="variant must be one of"):
        InvGCConfig("dense")
    with pytest.raises(ValueError, match="r_g must be finite"):
        InvGCConfig("full", r_g=-0.1)
    with pytest.raises(ValueError, match="r_q must be finite"):
        InvGCConfig("full", r_q=float("nan"))
    with pytest.raises(ValueError, match="k_percent must lie in"):
        InvGCConfig("local", k_percent=0.0)
    with pytest.raises(ValueError, match="p_percent must lie in"):
        InvGCConfig("avgpool", p_percent=101.0)


def test_shape_and_dimension_errors():
    rng = np.random.default_rng(34)
    X = make_set(rng, 3, 4)
    R = make_set(rng, 5, 4, "r")
    bad_shape = Adjacency(np.ones((3, 4)), "binary", 100.0)
    with pytest.raises(ValueError, match="adjacency shape"):
        inverse_convolve_single(X, bad_shape, R, 0.5)
    R3 = make_set(rng, 5, 3, "r")
    with pytest.raises(ValueError, match="dimension mismatch"):
        inverse_convolve_dual(X, R3, R, InvGCConfig("full"))
    with pytest.raises(ValueError, match="dimension mismatch"):
        inverse_convolve_dual(X, R, R3, InvGCConfig("full"))


def test_dual_output_rows_are_means_of_unit_rows():
    # each half is unit length, so every output norm lies in [0, 1] and
    # equals 1 only when the halves agree
    rng = np.random.default_rng(35)
    G = make_set(rng, 12, 6, "g")
    refG = make_set(rng, 20, 6, "r")
    refQ = make_set(rng, 18, 6, "q")
    out = inverse_convolve_dual(G, refG, refQ, InvGCConfig("full", 0.3, 0.7))
    norms = np.linalg.norm(out.data, axis=1)
    assert (norms <= 1.0 + 1e-12).all()
    same = inverse_convolve_dual(G, refG, refG, InvGCConfig("full", 0.4, 0.4))
    assert_allclose(np.linalg.norm(same.data, axis=1), np.ones(12), atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dual_update_normalizes_the_gallery_once(variant, monkeypatch):
    # the unit gallery goes to every cosine pass as already-unit rows, so
    # neither reference set's pass divides it again
    rng = np.random.default_rng(37)
    G, refG, refQ = make_set(rng, 30, 8, "g"), make_set(rng, 50, 8, "r"), make_set(rng, 70, 8, "q")
    shapes = []

    def spy(X, ids=None):
        shapes.append(np.shape(X))
        return unit_rows(X, ids)

    monkeypatch.setattr(simgraph, "unit_rows", spy)
    monkeypatch.setattr(core, "unit_rows", spy)
    inverse_convolve_dual(G, refG, refQ, InvGCConfig(variant, 0.2, 0.1, 5.0, 5.0))
    assert shapes.count((30, 8)) == 1, shapes
    assert shapes.count((50, 8)) == shapes.count((70, 8)) == 1, shapes


def test_every_column_aggregate_closed_form_matches_the_dense_adjacency():
    # the d x d form of each aggregate that keeps every column (full, and
    # local and avgpool at 100% and at 99.95% of 700 columns) against the
    # dense N x N_ref path, with distinct ids, with shared ids on other data
    # (diagonal dropped by id), and with the reference set itself; observed
    # max 2.8e-13 on aggregates up to 150
    rng = np.random.default_rng(36)
    R = make_set(rng, 700, 16, "r")
    cases = [
        make_set(rng, 300, 16, "g"),
        EmbeddingSet(list(R.ids), rng.standard_normal((700, 16))),
        R,
    ]
    for G in cases:
        Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
        sims = cosine_similarity_matrix(Gn, R)
        # a zero operand and step -1 leave exactly the aggregate S @ R
        zero = EmbeddingSet(list(G.ids), np.zeros_like(G.data))
        for variant in VARIANTS:
            for p in (100.0, 99.95):
                cfg = InvGCConfig(variant, k_percent=p, p_percent=p)
                dense = inverse_convolve_single(zero, build_adjacency(sims, cfg), R, -1.0).data
                got, = aggregates(Gn, R, variant, [_kept_count(cfg, R.n)])
                assert_allclose(got, dense, rtol=0, atol=1e-12, err_msg=f"{variant} {p}%")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(VARIANTS), self_ref=st.booleans())
def test_dual_output_follows_ids_not_row_order(seed, variant, self_ref):
    # Reordering a reference set only reorders sums, so the output may
    # move by rounding alone: 1e-12 max abs on unit-scale rows.  With
    # self_ref the gallery is its own reference, reversed or shuffled.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    G = make_set(rng, int(rng.integers(2, 30)), d, "g")
    refG = G if self_ref else make_set(rng, int(rng.integers(2, 30)), d, "r")
    refQ = make_set(rng, int(rng.integers(2, 30)), d, "q")
    cfg = random_config(rng, variant)
    want = inverse_convolve_dual(G, refG, refQ, cfg)
    for order in (np.arange(refG.n)[::-1], rng.permutation(refG.n)):
        refQ_order = rng.permutation(refQ.n)
        got = inverse_convolve_dual(G, take_rows(refG, order), take_rows(refQ, refQ_order), cfg)
        assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    perm = rng.permutation(G.n)
    got = inverse_convolve_dual(take_rows(G, perm), refG, refQ, cfg)
    assert got.ids == [G.ids[i] for i in perm]
    assert_allclose(got.data, want.data[perm], rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(VARIANTS))
def test_a_reordered_or_subsampled_self_reference_excludes_every_self_pair(seed, variant):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 10)), int(rng.integers(2, 5))
    # integer payloads and 0/1 weights keep every sum exact
    X = EmbeddingSet([f"x{i}" for i in range(n)], rng.choice([-3.0, -1.0, 1.0, 2.0], (n, d)))
    Y = make_set(rng, n, d)
    refQ = make_set(rng, int(rng.integers(2, 8)), d, "q")
    cfg = random_config(rng, variant)
    subsample = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
    for keep in (np.arange(n)[::-1], subsample):
        R = take_rows(X, keep)
        S = Adjacency(np.ones((n, len(keep))), "binary", 100.0)
        kept = set(keep)
        others = R.data.sum(axis=0) - np.array([X.data[i] * (i in kept) for i in range(n)])
        assert_array_equal(inverse_convolve_single(X, S, R, 1.0).data, X.data - others)
        assert_array_equal(forward_convolve(X, S, R).data, X.data + others)
        assert_array_equal(S.values, 1.0)  # the caller's adjacency is left as given
        refG = take_rows(Y, keep)
        got = inverse_convolve_dual(Y, refG, refQ, cfg)
        want = oracles.invgc_dual(
            Y.ids, Y.data.tolist(),
            refG.ids, refG.data.tolist(),
            refQ.ids, refQ.data.tolist(),
            variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
        )
        assert_allclose(got.data, want, atol=1e-9)


def shared_id_reference(rng, G, n_other):
    # G's rows shuffled, a third of them dropped, and n_other new rows
    # mixed in: self pairs land at scattered columns of every row block,
    # and some rows (block edges among them) have none
    keep = rng.permutation(G.n)[: 2 * G.n // 3]
    other = rng.standard_normal((n_other, G.d))
    ids = [G.ids[i] for i in keep] + [f"new{i}" for i in range(n_other)]
    order = rng.permutation(len(ids))
    data = np.concatenate([G.data[keep], other])[order]
    return EmbeddingSet([ids[i] for i in order], data)


@pytest.mark.parametrize("variant", ["local", "avgpool"])
def test_blocked_aggregate_equals_the_dense_adjacency_bit_for_bit(variant):
    # 1500 x 2000 cosines run in eleven row blocks of 131 rows and one of 59.
    # Above the gather share the aggregate is the masked dense product bit
    # for bit.  At or below it each row is its own vector-matrix product
    # over its kept columns, ascending, so it sums in another order than
    # the dense product's rows, within 1e-12 of them.
    rng = np.random.default_rng(37)
    G = make_set(rng, 1500, 12, "g")
    R = shared_id_reference(rng, G, 1000)
    assert len(simgraph._plan(G.n, R.n, G.d).blocks) == 12
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    # the dense cosines from the unit rows and blocks _aggregate_tasks takes
    sims = SimMatrix(Gn.ids, R.ids, np.empty((G.n, R.n)))

    def fill(b, block):
        sims.values[b] = block

    simgraph._run_tasks(simgraph._block_tasks(fill, Gn.data, unit_rows(R.data)))
    self_pairs = _id_cells(Gn.ids, R.ids, zip(Gn.ids, Gn.ids))
    own = dict(zip(*self_pairs))
    for k, p, gathered in [(0.7, 2.5, True), (10.0, 40.0, False)]:
        cfg = InvGCConfig(variant, k_percent=k, p_percent=p)
        m = _kept_count(cfg, R.n)
        assert (simgraph._plan(G.n, R.n, G.d, m).route == "gather") == gathered
        S = build_adjacency(sims, cfg)
        S.values[self_pairs] = 0.0
        got = aggregates(Gn, R, variant, [m])[0]
        if not gathered:
            assert_array_equal(got, _mm(S.values, R.data))
            continue
        for i in range(G.n):
            thr = simgraph.row_percentile_threshold(sims.values[i], k if variant == "local" else p)
            cols = [j for j in np.flatnonzero(sims.values[i] >= thr) if j != own.get(i)]
            assert_array_equal(got[i], S.values[i, cols] @ R.data[cols], err_msg=f"row {i}")
        assert_allclose(got, _mm(S.values, R.data), rtol=0, atol=1e-12)


def duplicated_rows(rng, n_distinct, copies, d, prefix):
    # n_distinct random rows, each copies times, shuffled: the cosines of
    # any row against the set come in runs of equal values, so a row
    # threshold lands on a tie
    data = np.repeat(rng.standard_normal((n_distinct, d)), copies, axis=0)
    data = data[rng.permutation(len(data))]
    return EmbeddingSet([f"{prefix}{i}" for i in range(len(data))], data)


@pytest.mark.parametrize("reference", ["self", "shared ids"])
@pytest.mark.parametrize("variant", ["local", "avgpool"])
def test_gathered_aggregate_keeps_every_tie_at_the_threshold(variant, reference, monkeypatch):
    # 32 distinct rows in up to 4 copies each: the m-th largest cosine of
    # a row has up to 3 equal neighbours, which all stay, and in a self
    # reference a row's copies tie with its own excluded self pair.  0.5% to 2% of 125
    # or 128 columns is gathered, and 10% and 30% are not.
    rng = np.random.default_rng(43)
    G = duplicated_rows(rng, 32, 4, 5, "g")
    refG = G if reference == "self" else shared_id_reference(rng, G, 40)
    refQ = duplicated_rows(rng, 24, 4, 5, "q")
    percents = [0.5, 1.0, 2.0, 10.0, 30.0]
    gathered = [simgraph._plan(G.n, refG.n, G.d, simgraph._top_count(p, refG.n)).route == "gather"
                for p in percents]
    assert gathered == [True, True, True, False, False]
    sims = cosine_similarity_matrix(G, refG).values
    for p in percents:
        m = simgraph._top_count(p, refG.n)
        thr = np.sort(sims, axis=1)[:, -m]
        assert ((sims >= thr[:, None]).sum(axis=1) > m).any(), p
    for p in percents:
        cfg = InvGCConfig(variant, 0.3, 0.6, k_percent=p, p_percent=p)
        got = inverse_convolve_dual(G, refG, refQ, cfg)
        want = oracles.invgc_dual(
            G.ids, G.data.tolist(), refG.ids, refG.data.tolist(), refQ.ids, refQ.data.tolist(),
            variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
        )
        assert_allclose(got.data, want, rtol=0, atol=1e-9, err_msg=f"{p}%")
    # each row is a function of its kept set alone
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    counts = [simgraph._top_count(p, refG.n) for p in percents]
    want = aggregates(Gn, refG, variant, counts)
    for budget in (64, simgraph._BLOCK_CELLS):
        for workers in (1, 3):
            monkeypatch.setattr(simgraph, "_BLOCK_CELLS", budget)
            monkeypatch.setattr(simgraph, "_worker_count", lambda: workers)
            assert len(simgraph._plan(G.n, refG.n, G.d).blocks) == (64 if budget == 64 else 1)
            for p, a, b in zip(percents, aggregates(Gn, refG, variant, counts), want):
                assert_array_equal(a, b, err_msg=f"{p}%, {budget} cells, {workers} workers")
            for p, m, b in zip(percents, counts, want):
                assert_array_equal(aggregates(Gn, refG, variant, [m])[0], b, err_msg=f"{p}% alone")


@pytest.mark.parametrize("reference", ["self", "shared ids", "duplicated rows"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_column_dual_update_matches_the_row_oracle(variant, reference):
    # 100% and 99.95% keep every column of a set of fewer than 2000 rows,
    # so both halves run the d x d map.  Duplicated rows give each row's
    # copies the cosine of its own excluded self pair.
    rng = np.random.default_rng(44)
    if reference == "duplicated rows":
        G = refG = duplicated_rows(rng, 10, 3, 5, "g")
    else:
        G = make_set(rng, 30, 5, "g")
        refG = G if reference == "self" else shared_id_reference(rng, G, 12)
    refQ = duplicated_rows(rng, 8, 3, 5, "q")
    for p in (100.0, 99.95):
        cfg = InvGCConfig(variant, 0.3, 0.6, k_percent=p, p_percent=p)
        got = inverse_convolve_dual(G, refG, refQ, cfg)
        want = oracles.invgc_dual(
            G.ids, G.data.tolist(), refG.ids, refG.data.tolist(), refQ.ids, refQ.data.tolist(),
            variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
        )
        assert_allclose(got.data, want, rtol=0, atol=1e-9, err_msg=f"{p}%")


def test_avgpool_writes_its_mask_into_the_cosine_block(monkeypatch, traced_peak):
    # 2000 x 1000 cosines run in row blocks of 262 x 1000 float64 (2.1 MB),
    # one at a time on one worker.  Both variants mask the block in place,
    # so they peak alike.  A float 0/1 mask for avgpool would add a whole
    # block at its peak, a bool one an eighth of a block.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(40)
    G = make_set(rng, 2000, 8, "g")
    R = make_set(rng, 1000, 8, "r")
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    block = simgraph._plan(G.n, R.n, G.d).blocks[0]
    block_bytes = (block.stop - block.start) * R.n * 8
    peaks = {}
    for variant in ("local", "avgpool"):
        _, peaks[variant] = traced_peak(aggregates, Gn, R, variant, [simgraph._top_count(5.0, R.n)])
    assert peaks["local"] < 2.5 * block_bytes, (peaks, block_bytes)
    assert peaks["avgpool"] < peaks["local"] + block_bytes / 16, (peaks, block_bytes)


def test_one_worker_aggregate_holds_no_partitioned_copy_of_its_block(monkeypatch, traced_peak):
    # With one worker a pass holds one block of cosines, 262 x 1000
    # float64 (2.1 MB), at a time.  The thresholds come from 2**15-cell
    # chunks partitioned in one reused buffer; a partitioned copy of the
    # whole block would put the peak at two blocks.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(41)
    G = make_set(rng, 2000, 8, "g")
    R = make_set(rng, 1000, 8, "r")
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    block = simgraph._plan(G.n, R.n, G.d).blocks[0]
    block_bytes = (block.stop - block.start) * R.n * 8
    for variant in ("local", "avgpool"):
        _, peak = traced_peak(aggregates, Gn, R, variant, [simgraph._top_count(5.0, R.n)])
        assert peak < 1.5 * block_bytes, (variant, peak, block_bytes)


def test_one_worker_gathered_aggregate_holds_about_one_block(monkeypatch, traced_peak):
    # At 3% of 1000 columns (m = 30 <= 1000/32) each row sums its kept
    # reference rows, gathered in pieces of about 2**15 cells.  Besides
    # the output and the two sets' unit rows, one 262 x 1000 float64
    # block (2.1 MB) is the bulk of the peak; the whole block's kept rows
    # at width 64 would take 4 MB.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(41)
    G = make_set(rng, 2000, 64, "g")
    R = make_set(rng, 1000, 64, "r")
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    assert simgraph._plan(G.n, R.n, G.d, simgraph._top_count(3.0, R.n)).route == "gather"
    block = simgraph._plan(G.n, R.n, G.d).blocks[0]
    block_bytes = (block.stop - block.start) * R.n * 8
    rows_bytes = (2 * G.n + R.n) * G.d * 8
    for variant in ("local", "avgpool"):
        _, peak = traced_peak(aggregates, Gn, R, variant, [simgraph._top_count(3.0, R.n)])
        assert peak < 1.5 * block_bytes + rows_bytes, (variant, peak, block_bytes, rows_bytes)


def test_a_multi_count_search_drops_each_aggregate_after_its_last_half(monkeypatch, traced_peak):
    # Six k values keep m = 4, 7, 10, 13, 16 and 20 of 640 columns, all
    # gathered, so each reference set has six 4000 x 64 aggregates.  The
    # twelve halves the search returns, with Gn, are 13 such arrays.
    # Holding every aggregate of refQ beside the halves of both sets
    # peaks near 21; dropping each one after its half, near 15.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(45)
    G = make_set(rng, 4000, 64, "g")
    refG, refQ = make_set(rng, 640, 64, "r"), make_set(rng, 640, 64, "q")
    cfgs = [InvGCConfig("local", 0.1, 0.2, k_percent=k) for k in (0.5, 1, 1.5, 2, 2.5, 3)]
    assert [_kept_count(c, refG.n) for c in cfgs] == [4, 7, 10, 13, 16, 20]
    assert simgraph._plan(G.n, refG.n, G.d, 20).route == "gather"
    _, peak = traced_peak(core._dual_over_steps, G, refG, refQ, cfgs)
    assert peak < 18 * G.data.nbytes, peak / G.data.nbytes


def test_one_worker_full_update_frees_each_sets_unit_rows_once_its_task_has_run(monkeypatch, traced_peak):
    # In units of G's 1000 x 64 array: Gn is 1 and each 2000-row set's
    # unit rows 2, and each set's d x d map task writes a 1-unit
    # aggregate.  Holding refG's task, and its unit rows, through refQ's
    # peaks at 1 + 2 + 2 + 1 + 1 = 7; freeing it once it has run, at
    # 1 + 2 + 2 + 1 = 6, while refG's task runs (the halves also reach 6).
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    rng = np.random.default_rng(45)
    G = make_set(rng, 1000, 64, "g")
    refG, refQ = make_set(rng, 2000, 64, "r"), make_set(rng, 2000, 64, "q")
    assert simgraph._plan(G.n, refG.n, G.d, refG.n).route == "map"
    _, peak = traced_peak(inverse_convolve_dual, G, refG, refQ, InvGCConfig("full", 0.01, 0.01))
    assert peak < 6.6 * G.data.nbytes, peak / G.data.nbytes


@pytest.mark.parametrize("budget", [None, 64])
@pytest.mark.parametrize("variant", ["local", "avgpool"])
def test_pooled_aggregate_does_not_depend_on_the_worker_count(variant, budget, monkeypatch):
    # 600 x 1866 cosines make five pooled blocks, or 2-row blocks under a
    # 64-cell budget; threads switch often, and there are more of them than
    # cores.  A row's last bits may depend on the block shape, which is why
    # the shape is a function of the input shapes alone.
    if budget is not None:
        monkeypatch.setattr(simgraph, "_BLOCK_CELLS", budget)
    rng = np.random.default_rng(42)
    G = make_set(rng, 600, 12, "g")
    R = shared_id_reference(rng, G, 1466)
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
    assert len(simgraph._plan(G.n, R.n, G.d).blocks) == (5 if budget is None else 300)
    count_lists = [[simgraph._top_count(p, R.n) for p in percents]
                   for percents in ([1.0], [0.5, 1.0, 3.0, 50.0])]
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    want = [aggregates(Gn, R, variant, counts) for counts in count_lists]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 4):
            monkeypatch.setattr(simgraph, "_worker_count", lambda: workers)
            for counts, aggs in zip(count_lists, want):
                got = aggregates(Gn, R, variant, counts)
                assert len(got) == len(aggs)
                for a, b in zip(got, aggs):
                    assert_array_equal(a, b, err_msg=f"{workers} workers")
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_dual_update_matches_the_row_oracle(variant, monkeypatch):
    # a 64-cell budget cuts 41 rows into 2-row blocks and a 3-row tail,
    # so the shared-id self pairs fall on both sides of every block edge
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 64)
    rng = np.random.default_rng(38)
    G = make_set(rng, 41, 4, "g")
    refG = shared_id_reference(rng, G, 9)
    refQ = EmbeddingSet(list(reversed(G.ids)), G.data[::-1])
    assert len(simgraph._plan(G.n, refG.n, G.d).blocks) == 20
    cfg = InvGCConfig(variant, 0.3, 0.6, k_percent=8.0, p_percent=15.0)
    got = inverse_convolve_dual(G, refG, refQ, cfg)
    want = oracles.invgc_dual(
        G.ids, G.data.tolist(), refG.ids, refG.data.tolist(), refQ.ids, refQ.data.tolist(),
        variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
    )
    assert_allclose(got.data, want, rtol=0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(-1000, 1000),
    d=st.integers(1, 6),
)
def test_row_normalize_ignores_power_of_two_row_scaling(seed, j, d):
    # 2**j scaling is exact for entries of size [2**-20, 4) at |j| <= 1000.
    # A row whose scaled norm falls below 1e-12 is degenerate by contract
    # and comes back zero; every other row is the unscaled unit row.
    rng = np.random.default_rng(seed)
    M = rng.uniform(2.0**-20, 4.0, (3, d)) * rng.choice([-1.0, 1.0], (3, d))
    scaled = M.copy()
    scaled[1] *= 2.0**j
    want = row_normalize(M)
    if np.linalg.norm(M[1]) * 2.0**j < 1e-12:
        with pytest.warns(RuntimeWarning, match="1 zero-norm rows"):
            got = row_normalize(scaled)
        want[1] = 0.0
    else:
        got = row_normalize(scaled)
    assert_array_equal(got[[0, 2]], want[[0, 2]])
    assert_allclose(got[1], want[1], rtol=0, atol=4e-16)


def test_a_huge_step_is_dominated_by_the_aggregate_and_an_overflowing_one_is_refused():
    rng = np.random.default_rng(39)
    G = make_set(rng, 10, 5, "g")
    refG = make_set(rng, 30, 5, "r")
    refQ = make_set(rng, 20, 5, "q")
    for variant in VARIANTS:
        cfg = InvGCConfig(variant, 1e200, 0.0, k_percent=20.0, p_percent=20.0)
        Gn = unit_rows(G.data)
        A, = aggregates(EmbeddingSet(G.ids, Gn), refG, variant, [_kept_count(cfg, refG.n)])
        # norm(Gn - r A) = norm(Gn / r - A), and Gn / r is below A's last bit
        want = 0.5 * (row_normalize(-A) + Gn)
        assert_allclose(inverse_convolve_dual(G, refG, refQ, cfg).data, want, rtol=0, atol=1e-15)
        for field in ("r_g", "r_q"):
            big = InvGCConfig(variant, k_percent=20.0, p_percent=20.0, **{field: 1e308})
            with pytest.raises(StepOverflowError, match=f"{field}=1e\\+308 is too large") as err:
                inverse_convolve_dual(G, refG, refQ, big)
            assert (err.value.field, err.value.r) == (field, 1e308)


def _warnings_and_error(monkeypatch, workers, G, refG, refQ, cfgs):
    # (the warning texts, in order, and the error, or the halves) of
    # _dual_over_steps on a given _worker_count, and no thread left behind
    monkeypatch.setattr(simgraph, "_worker_count", lambda: workers)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            correct = core._dual_over_steps(G, refG, refQ, cfgs)
            outcome = [correct(c).data for c in cfgs]
        except ValueError as e:
            outcome = (type(e), str(e))
    assert threading.active_count() == threads
    return [str(w.message) for w in caught], outcome


def _pair_set(rows, prefix):
    return EmbeddingSet([f"{prefix}{i}" for i in range(len(rows))], np.array(rows, dtype=float))


@pytest.mark.parametrize("case", ["q cancels", "both cancel", "g refused, q cancels",
                                  "both refused", "q overflows its aggregate", "clean"])
def test_side_by_side_halves_warn_and_fail_as_one_thread_does(case, monkeypatch):
    # Under local at k = 50%, each row of G keeps the reference rows of
    # cosine 1, or all of e1 at cosine 0, so 2 e1 and 2 e2 as references
    # cancel both gallery rows at r = 0.5, 2 e1 alone cancels one, and
    # 1e308 times either aggregate overflows; 1e308 rows make the avgpool
    # aggregate's column sum overflow.  On two or three workers both sets'
    # aggregate tasks run in one pool, but the warnings, their order and
    # the error must be one worker's.
    G = _pair_set([[1.0, 0.0], [0.0, 1.0]], "g")
    e1, both = _pair_set([[2.0, 0.0]], "r"), _pair_set([[2.0, 0.0], [0.0, 2.0]], "q")
    huge = _pair_set([[1e308, 1e308], [1e308, 1e308]], "h")
    refG, refQ, cfgs = {
        "q cancels": (e1, both, [InvGCConfig("local", 0.0, 0.5, k_percent=50.0)]),
        "both cancel": (e1, both, [InvGCConfig("local", 0.5, 0.5, k_percent=50.0)]),
        "g refused, q cancels": (e1, both, [InvGCConfig("local", 0.5, 0.5, k_percent=50.0),
                                            InvGCConfig("local", 1e308, 0.5, k_percent=50.0)]),
        "both refused": (e1, both, [InvGCConfig("local", 1e308, 1e308, k_percent=50.0)]),
        "q overflows its aggregate": (e1, huge, [InvGCConfig("avgpool", 0.25, 1.0)]),
        "clean": (both, e1, [InvGCConfig("local", 0.3, 0.2, k_percent=50.0)]),
    }[case]
    want = _warnings_and_error(monkeypatch, 1, G, refG, refQ, cfgs)
    expected = {
        "q cancels": ["2 zero-norm rows left unnormalized"],
        "both cancel": ["1 zero-norm rows left unnormalized", "2 zero-norm rows left unnormalized"],
        "g refused, q cancels": ["1 zero-norm rows left unnormalized"],
        "both refused": [],
        "q overflows its aggregate": ["overflow encountered in reduce"],
        "clean": [],
    }[case]
    assert want[0] == expected
    if "refused" in case:
        assert want[1] == (StepOverflowError, "r_g=1e+308 is too large: r_g times the aggregate is not finite")
    if case == "q overflows its aggregate":
        assert want[1] == (StepOverflowError, "r_q=1.0 is too large: r_q times the aggregate is not finite")
    for workers in (2, 3):
        got = _warnings_and_error(monkeypatch, workers, G, refG, refQ, cfgs)
        assert got[0] == want[0], workers
        if isinstance(want[1], tuple):
            assert got[1] == want[1], workers
        else:
            for a, b in zip(got[1], want[1], strict=True):
                assert_array_equal(a, b, err_msg=f"{workers} workers")


@pytest.mark.parametrize("variant", VARIANTS)
def test_side_by_side_halves_do_not_depend_on_the_worker_count(variant, monkeypatch):
    # 1% and 3% of 1500 columns gather their kept rows, 10% masks its
    # block and 100% is the d x d map; a 64-cell budget cuts each pass
    # into 2-row blocks, and threads switch often.  One worker runs both
    # sets' aggregate tasks one after the other, two to eight share them
    # out in one pool, three and five unevenly.
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 64)
    rng = np.random.default_rng(46)
    G = make_set(rng, 120, 12, "g")
    refG, refQ = shared_id_reference(rng, G, 1380), make_set(rng, 1500, 12, "q")
    cfgs = [InvGCConfig(variant, rg, rq, k_percent=p, p_percent=p)
            for p in (1.0, 3.0, 10.0, 100.0) for rg, rq in ((0.1, 0.3), (0.7, 0.0))]
    _, want = _warnings_and_error(monkeypatch, 1, G, refG, refQ, cfgs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5, 8):
            _, got = _warnings_and_error(monkeypatch, workers, G, refG, refQ, cfgs)
            for cfg, a, b in zip(cfgs, got, want, strict=True):
                assert_array_equal(a, b, err_msg=f"{cfg}, {workers} workers")
    finally:
        sys.setswitchinterval(interval)


def test_both_sets_aggregate_tasks_share_every_worker(monkeypatch):
    # local at 1% gathers each block's kept rows in _kept_sums; a 64-cell
    # budget cuts each set's pass into 2-row blocks.  Both sets' blocks go
    # to one pool, so on three workers three threads gather, where a pool
    # per set, each on 3 // 2 workers, would keep one of them idle.
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 64)
    rng = np.random.default_rng(47)
    G = make_set(rng, 60, 8, "g")
    refG, refQ = shared_id_reference(rng, G, 340), make_set(rng, 300, 8, "q")
    cfg = InvGCConfig("local", 0.3, 0.2, k_percent=1.0)
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    want = inverse_convolve_dual(G, refG, refQ, cfg).data
    seen = set()

    def noting_kept_sums(*args, _kept_sums=core._kept_sums):
        seen.add(threading.get_ident())
        time.sleep(0.001)
        return _kept_sums(*args)

    monkeypatch.setattr(core, "_kept_sums", noting_kept_sums)
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 3)
    assert_array_equal(inverse_convolve_dual(G, refG, refQ, cfg).data, want)
    assert len(seen) == 3


def _outcome_under(monkeypatch, workers, modes, G, refG, refQ, cfgs):
    # (the warning texts, numpy's error calls, the error) of _dual_over_steps
    # under np.errstate(**modes), with call= recording the calls, on a given
    # _worker_count, and no thread left behind
    monkeypatch.setattr(simgraph, "_worker_count", lambda: workers)
    threads, calls = threading.active_count(), []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            with np.errstate(**modes, call=lambda kind, flag: calls.append((kind, flag))):
                correct = core._dual_over_steps(G, refG, refQ, cfgs)
                [correct(c) for c in cfgs]
            error = None
        except (ValueError, FloatingPointError) as e:
            error = (type(e), str(e))
    assert threading.active_count() == threads
    return [str(w.message) for w in caught], calls, error


@pytest.mark.parametrize("case", ["q's aggregate raises", "q's aggregate calls",
                                  "refQ has a zero row", "refG has a zero row"])
def test_side_by_side_halves_raise_and_call_as_one_thread_does(case, monkeypatch):
    # The sets of test_side_by_side_halves_warn_and_fail_as_one_thread_does,
    # under modes other than numpy's defaults, and with a zero-norm reference
    # row, which unit_rows refuses.  Both sets are checked before any task
    # runs, so a zero row in refQ is refused before the g half cancels a
    # row; a task's floating-point event comes under the caller's modes on
    # whichever thread runs it.
    G = _pair_set([[1.0, 0.0], [0.0, 1.0]], "g")
    e1, both = _pair_set([[2.0, 0.0]], "r"), _pair_set([[2.0, 0.0], [0.0, 2.0]], "q")
    huge = _pair_set([[1e308, 1e308], [1e308, 1e308]], "h")
    zero = _pair_set([[0.0, 0.0], [2.0, 0.0]], "z")
    cancel = [InvGCConfig("local", 0.5, 0.5, k_percent=50.0)]
    modes, refG, refQ, cfgs, expected = {
        "q's aggregate raises": ({"over": "raise"}, e1, huge, [InvGCConfig("avgpool", 0.25, 1.0)],
                                 ([], [], (FloatingPointError, "overflow encountered in reduce"))),
        "q's aggregate calls": ({"over": "call"}, e1, huge, [InvGCConfig("avgpool", 0.25, 1.0)],
                                ([], [("overflow", 2)], (StepOverflowError, "r_q=1.0 is too large:"
                                                         " r_q times the aggregate is not finite"))),
        "refQ has a zero row": ({}, e1, zero, cancel,
                                ([], [], (ValueError, "zero-norm embedding row, id 'z0'"))),
        "refG has a zero row": ({}, zero, both, cancel,
                                ([], [], (ValueError, "zero-norm embedding row, id 'z0'"))),
    }[case]
    assert _outcome_under(monkeypatch, 1, modes, G, refG, refQ, cfgs) == expected
    for workers in (2, 3):
        assert _outcome_under(monkeypatch, workers, modes, G, refG, refQ, cfgs) == expected, workers


def test_no_half_is_built_twice_when_a_half_cancels(monkeypatch):
    # The zero-norm sets of the CLI's one-line warning test: at step 1 the
    # avgpool aggregate r1 cancels g1 in both halves.  On two workers both
    # sets' aggregate tasks run in one pool, and each reference set gets
    # that one pass: the cancelled rows are met after it, on the calling
    # thread, and the grid is not built again.
    from invgc.tuner import grid_search

    monkeypatch.setattr(simgraph, "_worker_count", lambda: 2)
    G = _pair_set([[1.0, 0.0], [0.0, 1.0]], "g")
    ref = _pair_set([[1.0, 0.0]], "r")
    passes = []

    def counting_tasks(Gn, ref, *args, _aggregate_tasks=core._aggregate_tasks):
        passes.append(ref.ids)
        return _aggregate_tasks(Gn, ref, *args)

    monkeypatch.setattr(core, "_aggregate_tasks", counting_tasks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match="^zero-norm embedding row, id 'g0'$"):
            grid_search(G, G, ref, ref, {"g0": {"g0"}, "g1": {"g1"}}, variant="avgpool",
                        rg_grid=[0.0, 1.0], rq_grid=[0.0, 1.0])
    assert passes == [["r0"], ["r0"]]
    assert [str(w.message) for w in caught] == ["1 zero-norm rows left unnormalized"]
