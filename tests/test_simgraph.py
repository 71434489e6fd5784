"""Cosine matrix construction and the three adjacency variants."""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc import simgraph
from invgc.embio import EmbeddingSet
from invgc.simgraph import (
    _mm,
    SimMatrix,
    adjacency_binary,
    adjacency_full,
    adjacency_local,
    cosine_similarity_matrix,
    row_percentile_threshold,
    unit_rows,
)


def make_set(rng, n, d, prefix="x"):
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


def test_cosine_matrix_matches_pairwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(8):
        A = make_set(rng, int(rng.integers(2, 12)), int(rng.integers(2, 7)), "a")
        B = make_set(rng, int(rng.integers(2, 12)), A.d, "b")
        sim = cosine_similarity_matrix(A, B)
        assert sim.row_ids == A.ids
        assert sim.col_ids == B.ids
        want = oracles.cosine_matrix(A.data.tolist(), B.data.tolist())
        assert_allclose(sim.values, want, atol=1e-12)


def test_cosine_hand_values():
    A = EmbeddingSet(["a0", "a1"], [[1.0, 0.0], [1.0, 1.0]])
    sim = cosine_similarity_matrix(A, A)
    assert_allclose(sim.values[0, 1], np.sqrt(0.5), atol=1e-15)
    assert_allclose(np.diag(sim.values), [1.0, 1.0], atol=0)


def test_cosine_values_are_clamped_to_unit_interval():
    # parallel rows can overshoot 1 by rounding before the clamp
    A = EmbeddingSet(["a"], [[1.0, 1.0, 1.0]])
    B = EmbeddingSet(["b"], [[2.0, 2.0, 2.0]])
    sim = cosine_similarity_matrix(A, B)
    assert sim.values[0, 0] == 1.0
    rng = np.random.default_rng(22)
    X = make_set(rng, 30, 4)
    vals = cosine_similarity_matrix(X, X).values
    assert vals.max() <= 1.0
    assert vals.min() >= -1.0


def test_unit_rows_reports_zero_row_by_id():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero-norm embedding row, id 'b'"):
        unit_rows(X, ["a", "b"])
    with pytest.raises(ValueError, match="id '1'"):
        unit_rows(X)


def test_dimension_mismatch_rejected():
    A = EmbeddingSet(["a"], [[1.0, 0.0]])
    B = EmbeddingSet(["b"], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine_similarity_matrix(A, B)


def test_row_percentile_threshold_hand_cases():
    row = [5.0, 1.0, 3.0, 2.0, 4.0]
    # m = max(1, ceil(k/100 * 5)): 20% -> 1, 21% -> 2, 100% -> 5
    assert row_percentile_threshold(row, 20.0) == 5.0
    assert row_percentile_threshold(row, 21.0) == 4.0
    assert row_percentile_threshold(row, 60.0) == 3.0
    assert row_percentile_threshold(row, 100.0) == 1.0
    # ties at the cut: the threshold is the value itself
    assert row_percentile_threshold([1.0, 3.0, 3.0, 0.0], 50.0) == 3.0


def test_row_percentile_threshold_validation():
    with pytest.raises(ValueError, match="empty row"):
        row_percentile_threshold([], 50.0)
    for pct in (0.0, -1.0, 100.5):
        with pytest.raises(ValueError, match="must lie in"):
            row_percentile_threshold([1.0], pct)


def _sim(values):
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    return SimMatrix([f"r{i}" for i in range(n)], [f"c{j}" for j in range(m)], values)


def test_full_adjacency_centering():
    sim = _sim([[0.9, 0.5], [0.1, 0.5]])
    raw = adjacency_full(sim, center=False)
    assert_array_equal(raw.values, sim.values)
    assert not raw.centered
    cen = adjacency_full(sim, center=True)
    assert cen.centered
    assert_allclose(cen.values, sim.values - 0.5, atol=1e-15)
    assert abs(cen.values.mean()) <= 1e-12


def test_local_adjacency_keeps_ties_and_zeroes_the_rest():
    sim = _sim([[0.2, 0.7, 0.7, 0.1], [0.9, 0.3, 0.2, 0.1]])
    adj = adjacency_local(sim, 25.0)  # m = 1 per row
    assert_array_equal(adj.values, [[0.0, 0.7, 0.7, 0.0], [0.9, 0.0, 0.0, 0.0]])
    assert adj.variant == "local"
    assert adj.param == 25.0


def test_local_at_full_width_equals_uncentered_full():
    rng = np.random.default_rng(23)
    for _ in range(5):
        X = make_set(rng, int(rng.integers(2, 15)), 5)
        R = make_set(rng, int(rng.integers(2, 25)), 5, "r")
        sim = cosine_similarity_matrix(X, R)
        assert_array_equal(
            adjacency_local(sim, 100.0).values,
            adjacency_full(sim, center=False).values,
        )


def test_binary_at_full_width_is_all_ones():
    rng = np.random.default_rng(24)
    X = make_set(rng, 9, 4)
    sim = cosine_similarity_matrix(X, X)
    assert_array_equal(adjacency_binary(sim, 100.0).values, np.ones((9, 9)))


def test_binary_pattern_depends_only_on_row_ranks():
    rng = np.random.default_rng(25)
    vals = rng.uniform(-1.0, 1.0, size=(7, 11))
    shifted = 0.25 * vals + 0.1  # strictly increasing transform
    for pct in (10.0, 40.0, 75.0):
        a = adjacency_binary(_sim(vals), pct).values
        b = adjacency_binary(_sim(shifted), pct).values
        assert_array_equal(a, b)


def test_local_survivor_count_matches_threshold_rule():
    rng = np.random.default_rng(26)
    vals = rng.uniform(-1.0, 1.0, size=(6, 20))
    for pct in (5.0, 35.0, 80.0):
        adj = adjacency_local(_sim(vals), pct)
        m = max(1, int(np.ceil(pct / 100.0 * 20)))
        for i in range(6):
            thr = row_percentile_threshold(vals[i], pct)
            survivors = np.count_nonzero(adj.values[i])
            # distinct values: exactly m survive; the threshold row value
            # check covers ties as well
            assert survivors == np.count_nonzero(vals[i] >= thr)
            assert survivors >= m


# Large enough that a threaded dgemm splits the K=5000 reduction.
_HASH_MM = """
import hashlib
import numpy as np
from invgc.simgraph import _mm
rng = np.random.default_rng(7)
a = rng.standard_normal((2000, 5000))
b = rng.standard_normal((5000, 256))
print(hashlib.sha256(_mm(a, b).tobytes()).hexdigest())
"""


def test_mm_is_bit_identical_across_blas_thread_counts(cli_env):
    hashes = set()
    for threads in ("1", "2", "4"):
        env = dict(cli_env, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_MM], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        hashes.add(proc.stdout.strip())
    assert len(hashes) == 1, hashes


def test_mm_matches_the_einsum_fallback():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((300, 400))
    b = rng.standard_normal((400, 50))
    assert_allclose(_mm(a, b), np.einsum("ij,jk->ik", a, b), rtol=0, atol=1e-12)
    assert_allclose(_mm(a, a.T), np.einsum("ij,jk->ik", a, a.T), rtol=0, atol=1e-12)


needs_openblas = pytest.mark.skipif(simgraph._BLAS_PIN is None, reason="numpy's OpenBLAS not found")


@needs_openblas
def test_mm_restores_the_blas_thread_count():
    pin = simgraph._BLAS_PIN
    original = pin.get()
    rng = np.random.default_rng(28)
    a = rng.standard_normal((200, 300))
    try:
        for threads in (1, 2):
            pin.set(threads)
            _mm(a, a.T)
            assert pin.get() == threads
            with pytest.raises(ValueError):
                _mm(a, a)  # shape mismatch raises inside the pin
            assert pin.get() == threads
    finally:
        pin.set(original)


@needs_openblas
def test_concurrent_mm_calls_share_one_pin():
    # A caller that restored the count while another was still inside
    # would let that one run threaded; the shared pin restores only after
    # the last caller leaves.
    pin = simgraph._BLAS_PIN
    original = pin.get()
    rng = np.random.default_rng(30)
    a = rng.standard_normal((300, 400))
    want = _mm(a, a.T)
    seen = []

    def spy_matmul(x, y, _matmul=np.matmul):
        seen.append(pin.get())
        return _matmul(x, y)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pin.set(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "matmul", spy_matmul)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: _mm(a, a.T), range(64)))
        assert pin.get() == 2
    finally:
        sys.setswitchinterval(interval)
        pin.set(original)
    assert seen == [1] * 64
    for got in results:
        assert_array_equal(got, want)


def test_mm_falls_back_to_einsum_without_the_openblas_symbols(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(simgraph.ctypes, "CDLL", NoSymbols)
    assert simgraph._find_blas_pin() is None

    def no_matmul(*args, **kwargs):
        raise AssertionError("matmul called on the fallback path")

    monkeypatch.setattr(simgraph, "_BLAS_PIN", None)
    monkeypatch.setattr(np, "matmul", no_matmul)
    rng = np.random.default_rng(29)
    a = rng.standard_normal((20, 30))
    b = rng.standard_normal((30, 5))
    assert_array_equal(_mm(a, b), np.einsum("ij,jk->ik", a, b))
