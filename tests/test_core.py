"""Convolution updates against a per-row oracle and hand-checked cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc.core import (
    InvGCConfig,
    VARIANTS,
    _aggregate,
    build_adjacency,
    forward_convolve,
    inverse_convolve_dual,
    inverse_convolve_single,
    row_normalize,
)
from invgc.embio import EmbeddingSet
from invgc.simgraph import Adjacency, adjacency_full, cosine_similarity_matrix, unit_rows


def make_set(rng, n, d, prefix="x"):
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


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


def test_full_aggregate_closed_form_matches_the_dense_adjacency():
    # the d x d form of the centered aggregate against the dense N x N_ref
    # path, with distinct ids, with shared ids on other data (diagonal
    # dropped by id), and with the reference set itself
    rng = np.random.default_rng(36)
    R = make_set(rng, 700, 16, "r")
    cases = [
        make_set(rng, 300, 16, "g"),
        EmbeddingSet(list(R.ids), rng.standard_normal((700, 16))),
        R,
    ]
    for G in cases:
        Gn = EmbeddingSet(list(G.ids), unit_rows(G.data))
        S = adjacency_full(cosine_similarity_matrix(Gn, R), center=True)
        # a zero operand and step -1 leave exactly the aggregate S @ R
        zero = EmbeddingSet(list(G.ids), np.zeros_like(G.data))
        dense = inverse_convolve_single(zero, S, R, -1.0).data
        got = _aggregate(Gn, R, InvGCConfig("full"))
        assert_allclose(got, dense, rtol=0, atol=1e-12)


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
