"""Cosine matrix construction and the three adjacency variants."""

import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc import simgraph
from invgc.core import row_normalize
from invgc.diagnostics import cross_mean_sim, intra_mean_sim
from invgc.embio import EmbeddingSet
from invgc.retrieval import evaluate
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
from invgc.synth import ConeConfig, generate_cone_dataset


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


def test_unit_rows_name_a_non_finite_row_instead_of_returning_nan():
    X = np.array([[3.0, 4.0], [np.inf, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="non-finite value in embedding row, id 'b'"):
        unit_rows(X, ["a", "b", "c"])
    with pytest.raises(ValueError, match="non-finite value in embedding row, row 1"):
        unit_rows(X[[0, 2]])
    # a finite row whose sum of squares overflows is still scaled, not refused
    assert_allclose(unit_rows(np.array([[1e308, 1e308]])), [[2 ** -0.5, 2 ** -0.5]], rtol=1e-15)


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


def _fallback_results():
    # Every product kind the package takes: Grams, blocks and dot
    # products of two vectors in diagnose, and the axis norm in synth.
    rng = np.random.default_rng(37)
    G, Q = make_set(rng, 30, 6, "g"), make_set(rng, 20, 6, "q")
    rel = {f"q{i}": {f"g{i}"} for i in range(20)}
    reports = [intra_mean_sim(G, [1, 3]), cross_mean_sim(G, Q, rel, [1, 3])]
    numbers = [[r.mean_sim, r.std_sim, r.min_sim, *r.mean_sim_at.values()] for r in reports]
    sets = generate_cone_dataset(ConeConfig(n_items=10, n_ref=15, dim=8, seed=5))[:4]
    return numbers + [s.data for s in sets]


def test_mm_falls_back_to_einsum_without_the_openblas_symbols(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    pinned = _fallback_results()
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
    for got, want in zip(_fallback_results(), pinned):
        assert_allclose(got, want, rtol=0, atol=1e-12)


def test_map_blocks_tiles_the_matrix_and_propagates_a_later_blocks_error(monkeypatch):
    # a 16-cell budget cuts 40 x 8 cosines into twenty 2-row blocks for
    # three threads; each fills its rows, and the pool is gone after the pass
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 3)
    rng = np.random.default_rng(31)
    X = make_set(rng, 40, 4)
    Y = make_set(rng, 8, 4, "y")
    Xu, Yu = unit_rows(X.data), unit_rows(Y.data)
    assert len(simgraph._pass_blocks(X.n, Y.n, X.d)) == 20
    threads = threading.active_count()
    got = np.full((X.n, Y.n), np.nan)

    def fill(b, sims):
        got[b] = sims

    pin, sets = simgraph._BLAS_PIN, []
    if pin is not None:
        # one pin around the whole pass: the count is set once and restored once
        monkeypatch.setattr(pin, "set", lambda n, _set=pin.set: sets.append(n) or _set(n))
    simgraph._map_blocks(fill, Xu, Yu)
    assert len(sets) == (0 if pin is None else 2)
    assert threading.active_count() == threads
    Xn, Yn = (S.data / np.linalg.norm(S.data, axis=1)[:, None] for S in (X, Y))
    assert_allclose(got, Xn @ Yn.T, rtol=0, atol=1e-15)

    error = RuntimeError("block at row 14")

    def fail_later(b, sims):
        if b.start == 14:
            raise error

    with pytest.raises(RuntimeError) as raised:
        simgraph._map_blocks(fail_later, Xu, Yu)
    assert raised.value is error
    assert threading.active_count() == threads
    if pin is not None:
        assert pin._inside == 0


def test_map_blocks_runs_every_block_once_on_more_threads_than_cores(monkeypatch):
    # 400 x 8 cosines in 2-row blocks: eight threads that switch often
    # pull 200 block indices from one counter, so a lost update would run
    # a block twice or not at all.  When two blocks fail, no block starts
    # after the first failure, every block before it has run, and the
    # earlier block's error propagates after every thread is joined.
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 8)
    rng = np.random.default_rng(32)
    X = unit_rows(rng.standard_normal((400, 3)))
    Y = unit_rows(rng.standard_normal((8, 3)))
    starts = [b.start for b in simgraph._pass_blocks(len(X), len(Y), 3)]
    assert len(starts) == 200
    threads = threading.active_count()

    def run_pass(errors):
        seen, raised = [], []

        def note(b, sims):
            seen.append(b.start)
            if b.start in errors:
                raise errors[b.start]

        def run():
            try:
                simgraph._map_blocks(note, X, Y)
            except RuntimeError as e:
                raised.append(e)

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert threading.active_count() == threads
        return seen, raised

    errors = {100: RuntimeError("block at row 100"), 300: RuntimeError("block at row 300")}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen, raised = run_pass({})
        assert sorted(seen) == starts and raised == []
        seen, raised = run_pass(errors)
        assert len(set(seen)) == len(seen)
        assert set(starts[:51]) <= set(seen)
        assert raised == [errors[100]]
    finally:
        sys.setswitchinterval(interval)


def test_a_one_worker_pass_runs_every_block_on_the_calling_thread(monkeypatch):
    # the calling thread is one of the workers, so one worker starts no thread
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 1)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    rng = np.random.default_rng(33)
    X, Y = unit_rows(rng.standard_normal((40, 3))), unit_rows(rng.standard_normal((8, 3)))
    seen = []
    simgraph._map_blocks(lambda b, sims: seen.append((b, threading.get_ident())), X, Y)
    assert [b for b, _ in seen] == simgraph._pass_blocks(len(X), len(Y), 3)
    assert len(seen) == 20 and {t for _, t in seen} == {threading.get_ident()}
    assert started == []


def test_row_thresholds_over_a_one_row_tail_equal_whole_row_partitions():
    # 2**15 cells of 1000 columns are 32-row chunks, so 65 rows leave a
    # 1-row tail, which joins the chunk before it; one-decimal values tie
    n_rows, n_cols = 65, 1000
    chunks = simgraph._row_blocks(n_rows, n_cols, simgraph._PARTITION_CELLS)
    assert [b.stop - b.start for b in chunks] == [32, 33]
    values = np.round(np.random.default_rng(34).standard_normal((n_rows, n_cols)), 1)
    before = values.copy()
    counts = [simgraph._top_count(p, n_cols) for p in (1.0, 0.05, 50.0, 1.0, 100.0)]
    got = simgraph._row_thresholds(values, counts)
    assert_array_equal(values, before)
    for m, thresholds in zip(counts, got):
        kth = n_cols - m
        assert_array_equal(thresholds, [np.partition(row, kth)[kth] for row in values])


def test_row_blocks_tile_the_rows_without_one_row_blocks():
    # a 1-row product runs as gemv, whose sums can differ in the last bit
    # from the gemm rows of the full matrix, so a 1-row tail is merged
    for n_rows, n_cols in [(0, 5), (1, 5), (3, 0), (7, 1 << 20), (2101, 1000), (2098, 1000), (4, 1 << 22)]:
        blocks = simgraph._row_blocks(n_rows, n_cols, simgraph._BLOCK_CELLS)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
        assert all(b.stop - b.start >= 2 for b in blocks) or n_rows == 1
        # within the cell budget but for a merged tail row, and 2 rows at least
        cells = max(simgraph._BLOCK_CELLS, 2 * n_cols)
        assert all((b.stop - b.start - 1) * n_cols <= cells for b in blocks)


def test_pass_blocks_scale_the_cell_budget_with_d_up_to_four_times():
    # Below d = 128 a pass is cut as _row_blocks cuts it; from there the
    # budget is _BLOCK_CELLS times d // 64, up to 4 times: 2**20 cells
    cells = simgraph._BLOCK_CELLS
    for n_rows, n_cols in [(2000, 5000), (1100, 2000), (3001, 700), (7, 1 << 20), (3, 0)]:
        for d, times in [(1, 1), (8, 1), (64, 1), (127, 1), (128, 2), (255, 3), (256, 4), (4096, 4)]:
            want = simgraph._row_blocks(n_rows, n_cols, times * cells)
            assert simgraph._pass_blocks(n_rows, n_cols, d) == want, (n_rows, n_cols, d)
        # no block holds more than 2**20 cells, but for a merged tail row
        # and the 2 rows every block has
        for d in (1, 256, 4096, 1 << 16):
            for b in simgraph._pass_blocks(n_rows, n_cols, d):
                assert (b.stop - b.start - 1) * n_cols <= max(1 << 20, 2 * n_cols)
    # the L shape: 5000 reference columns in 209-row blocks, not 52-row ones
    assert {b.stop - b.start for b in simgraph._pass_blocks(2000, 5000, 256)} == {209, 119}
    assert {b.stop - b.start for b in simgraph._row_blocks(2000, 5000, simgraph._BLOCK_CELLS)} == {52, 24}


@pytest.mark.parametrize("workers", [2, 3])
def test_every_block_of_a_pass_sees_the_callers_errstate(workers, monkeypatch):
    # 64 2-row blocks, each long enough that every worker takes some; the
    # started workers run in copies of the caller's context, so a block
    # raises where the caller asked np.errstate to, on whichever thread.
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 16)
    rng = np.random.default_rng(33)
    X = unit_rows(rng.standard_normal((128, 3)))
    Y = unit_rows(rng.standard_normal((8, 3)))
    seen = []

    def note(b, sims):
        time.sleep(0.001)
        seen.append((threading.get_ident(), np.geterr()["over"]))

    with np.errstate(over="raise"):
        simgraph._map_blocks(note, X, Y, workers=workers)
    assert len(seen) == 64
    assert len({ident for ident, _ in seen}) == workers
    assert {mode for _, mode in seen} == {"raise"}


def test_map_blocks_cuts_each_pass_by_its_width(monkeypatch):
    rng = np.random.default_rng(36)

    def blocks(n_rows, n_cols, d):
        X, Y = unit_rows(rng.standard_normal((n_rows, d))), unit_rows(rng.standard_normal((n_cols, d)))
        seen = []
        simgraph._map_blocks(lambda b, sims: seen.append(b), X, Y)
        return sorted(seen, key=lambda b: b.start)

    for d in (8, 64):
        assert blocks(1500, 1500, d) == simgraph._row_blocks(1500, 1500, simgraph._BLOCK_CELLS)
    wide = blocks(1500, 1500, 256)
    assert wide == simgraph._row_blocks(1500, 1500, 4 * simgraph._BLOCK_CELLS) and len(wide) == 3
    # a patched budget still sets the tiling, scaled by the same rule
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 64)
    assert blocks(40, 8, 4096) == [slice(0, 32), slice(32, 40)]
    assert len(blocks(40, 8, 64)) == 5


@pytest.mark.parametrize(
    "n_rows, n_cols, d", [(1500, 2000, 7), (2097, 1000, 7), (5, 3, 7), (1100, 2000, 256)],
    ids=["1500-2000", "2097-1000", "5-3", "1100-2000-d256"],
)
def test_sim_blocks_are_the_rows_of_the_full_matrix_bit_for_bit(n_rows, n_cols, d, monkeypatch):
    # 2097 rows of 1000 columns leave a 1-row tail after eight 262-row
    # blocks; at d 256, 1100 rows of 2000 columns are two 524-row blocks
    # and a 52-row one.  Two threads hand out the blocks, which may finish
    # in any order.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 2)
    rng = np.random.default_rng(23)
    X = make_set(rng, n_rows, d)
    Y = make_set(rng, n_cols, d, "y")
    Xn, Yn = unit_rows(X.data), unit_rows(Y.data)
    blocks = []
    simgraph._map_blocks(lambda b, sims: blocks.append((b, sims.copy())), Xn, Yn)
    blocks.sort(key=lambda pair: pair[0].start)
    assert [b for b, _ in blocks] == simgraph._pass_blocks(n_rows, n_cols, d)
    for b, sims in blocks:
        assert_array_equal(sims, np.clip(_mm(Xn[b], Yn.T), -1.0, 1.0))
    assert_array_equal(np.concatenate([s for _, s in blocks]), cosine_similarity_matrix(X, Y).values)


def test_id_cells_drop_unknown_ids_collapse_repeats_and_sort_by_row_then_column():
    pairs = [("c", "y"), ("a", "y"), ("zz", "x"), ("c", "x"), ("a", "y"), ("b", "w"), ("a", "x")]
    rows, cols = simgraph._id_cells(["a", "b", "c"], ["x", "y"], pairs)
    assert rows.dtype == cols.dtype == np.intp
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (2, 0), (2, 1)]
    # a row block gets its run of cells, indexed within the block
    span, (r, c) = simgraph._block_cells(rows, cols, slice(1, 3))
    assert (span.start, span.stop, r.tolist(), c.tolist()) == (2, 4, [1, 1], [0, 1])
    rows, cols = simgraph._id_cells(["a"], ["x"], [("b", "x"), ("a", "y")])
    assert rows.shape == cols.shape == (0,)


def test_sim_blocks_check_their_inputs_before_the_first_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("a block ran")

    with pytest.raises(ValueError, match="dimension mismatch"):
        simgraph._map_blocks(no_block, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    # the entries normalize each set before the first block's product
    monkeypatch.setattr(simgraph, "_mm", no_block)
    A = EmbeddingSet(["a"], [[1.0, 0.0]])
    Z = EmbeddingSet(["y", "z"], [[1.0, 1.0], [0.0, 0.0]])
    for run in (lambda: cosine_similarity_matrix(A, Z), lambda: cosine_similarity_matrix(Z, A),
                lambda: evaluate(A, Z, {"a": {"y"}}), lambda: evaluate(Z, A, {"y": {"a"}, "z": {"a"}})):
        with pytest.raises(ValueError, match="zero-norm embedding row, id 'z'"):
            run()


def test_unit_rows_survive_a_sum_of_squares_that_overflows():
    X = np.array([[3e200, 4e200], [1e308, -1e308], [3.0, 4.0]])
    assert_allclose(unit_rows(X), [[0.6, 0.8], [2 ** -0.5, -(2 ** -0.5)], [0.6, 0.8]], rtol=1e-15)
    # rows whose plain norm is finite keep the bytes of the plain division
    assert_array_equal(unit_rows(X)[2], X[2] / 5.0)


def _linalg_rows(X):
    # Unit rows and norms as np.linalg.norm(X, axis=1) gives the norms;
    # a row whose norm overflows is divided by its max |x| first.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)
    big = ~np.isfinite(norms)
    X = X.copy()
    X[big] /= np.abs(X[big]).max(axis=1)[:, None]
    norms[big] = np.linalg.norm(X[big], axis=1)
    return X, norms


_CELLS = simgraph._PARTITION_CELLS


# Chunks hold _PARTITION_CELLS // d rows, and at least two: d past the
# budget gives two-row chunks.  Each row count is 1 or a chunk's rows
# less one, exact, or plus one (a one-row tail, which joins the chunk
# before it).  Column-major rows are summed in order, not pairwise.
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("extra", [None, -1, 0, 1])
@pytest.mark.parametrize("d", [1, 9, 64, _CELLS + 5])
def test_the_normalizer_keeps_the_bits_of_np_linalg_norm(d, extra, layout):
    n = 1 if extra is None else max(2, _CELLS // d) + extra
    rng = np.random.default_rng(d + n)
    X = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, (n, 1))
    X = np.asfortranarray(X) if layout == "F" else X
    if n > 2:
        X[-1] = 1e200  # its sum of squares overflows
    scaled, norms = _linalg_rows(X)
    assert_array_equal(simgraph._scaled_norms(X)[1], norms)
    assert_array_equal(unit_rows(X), scaled / norms[:, None])
    if n > 2:
        X[1] = 0.0
        scaled, norms = _linalg_rows(X)
        with pytest.warns(RuntimeWarning, match="1 zero-norm rows"):
            got = row_normalize(X)
        assert_array_equal(got[1], np.zeros(d))
        keep = norms >= 1e-12
        assert_array_equal(got[keep], scaled[keep] / norms[keep, None])
    else:
        assert_array_equal(row_normalize(X), scaled / norms[:, None])


def test_the_normalizer_holds_one_chunk_of_squares(traced_peak):
    # 4000 x 64 float64 is 2 MB.  The squares go through one buffer of
    # _PARTITION_CELLS float64 (256 KB); np.linalg.norm squares all of X
    # at once.  unit_rows' peak is its output plus about one buffer.
    X = np.random.default_rng(60).standard_normal((4000, 64))
    buffer_bytes = _CELLS * 8
    _, peak = traced_peak(simgraph._scaled_norms, X)
    assert peak < 2 * buffer_bytes, (peak, buffer_bytes)
    _, peak = traced_peak(unit_rows, X)
    assert peak < X.nbytes + buffer_bytes, (peak, X.nbytes, buffer_bytes)
