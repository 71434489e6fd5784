"""Cosine similarity matrices and the adjacency variants derived from them.

Three adjacency constructions feed the convolution ops:

full    the raw cosine matrix, optionally centered by subtracting the
        scalar mean of all entries
local   per row, keep entries >= the m-th largest value verbatim and
        zero the rest, m = max(1, ceil(k_percent/100 * row length))
binary  same row threshold, but retained entries become 1 and the rest 0

Every cosine the library takes comes from _map_blocks, which hands row
blocks of about 2**18 cells to a few threads, so no pass holds an
N x N_ref matrix unless it asks for one: cosine_similarity_matrix fills
the dense matrix from the same blocks, for callers that want it whole.
_map_blocks takes unit rows: each entry point normalizes each set once.
The cells a pass treats apart (self pairs, matched pairs, relevant
items) come from _id_cells, by id; _block_cells hands each block its run.

Row thresholds and top values come from partitioned _row_blocks chunks.
local and binary keep m entries per row, plus ties,
so they are sparse: core._aggregate sums each row's kept reference rows
when m is at most 1/32 of the row and multiplies the masked block above
that.  When m is the whole row, as for avgpool's default p = 100, it
takes no cosine block: the aggregate is a d x d map, like full's.  The
kept rows are gathered with numpy alone, because scipy.sparse would add
about 175 ms of import to every command.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embio import EmbeddingSet


class _OneBlasThread:
    """Context that holds OpenBLAS at one thread while any call is inside.

    The thread count is process-wide, so concurrent callers share one
    pin: the first to enter saves the count and sets 1, the last to leave
    restores it.
    """

    def __init__(self, get, set_):
        self.get, self.set = get, set_
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._saved = self.get()
                self.set(1)
            self._inside += 1

    def __exit__(self, *exc):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                self.set(self._saved)


def _find_blas_pin():
    """A _OneBlasThread for numpy's bundled OpenBLAS, or None without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return _OneBlasThread(get, set_)
    return None


_BLAS_PIN = _find_blas_pin()


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Results must be bit-identical under any BLAS thread setting, but a
    # threaded dgemm splits the K reduction differently per thread count.
    # So the product runs with OpenBLAS's process-wide thread count set to
    # 1 for the length of the call.  np.dot, like np.matmul, releases the
    # GIL around dgemm, so products on several Python threads overlap; it
    # stays np.dot because the tests pin its bits.
    # Without the symbols (numpy on another BLAS), einsum contracts on a
    # single thread in index order.
    if _BLAS_PIN is None:
        return np.einsum("ij,jk->ik", a, b)
    with _BLAS_PIN:
        return np.dot(a, b)


@dataclass
class SimMatrix:
    row_ids: list
    col_ids: list
    values: np.ndarray


@dataclass
class Adjacency:
    values: np.ndarray
    variant: str            # "full" | "local" | "binary"
    param: float | None = None  # k_percent (local) or p_percent (binary)
    centered: bool = False


def _scaled_norms(X: np.ndarray, ids: list | None = None) -> tuple:
    """(Y, norms) with Y / norms[:, None] the unit rows of X.

    The squares are taken in _row_blocks of about _PARTITION_CELLS cells,
    in one reused buffer laid out as X is, by the np.multiply and per-row
    np.add.reduce that np.linalg.norm(X, axis=1) runs: the norms are its
    bits, and no N x d array of squares is made.

    A row whose sum of squares overflows is first divided by its max |x|,
    as BLAS nrm2 scales; every other row of Y is X's row, and its norm
    the plain one, so finite-norm rows keep their bytes.  A row holding
    an inf or a NaN has no unit row and is an error, named by its id when
    ids are given.
    """
    X = np.asarray(X, dtype=np.float64)
    chunks = _row_blocks(*X.shape, _PARTITION_CELLS)
    buf = np.empty_like(X[: max((b.stop - b.start for b in chunks), default=0)])
    norms = np.empty(len(X))
    with np.errstate(over="ignore"):
        for b in chunks:
            squares = np.multiply(X[b], X[b], out=buf[: b.stop - b.start])
            np.add.reduce(squares, axis=1, out=norms[b])
    np.sqrt(norms, out=norms)
    big = np.nonzero(~np.isfinite(norms))[0]
    if big.size:
        finite = np.isfinite(X[big]).all(axis=1)
        if not finite.all():
            i = big[np.argmin(finite)]
            which = f"id {ids[i]!r}" if ids is not None else f"row {i}"
            raise ValueError(f"non-finite value in embedding row, {which}")
        X = X.copy()
        X[big] /= np.abs(X[big]).max(axis=1)[:, None]
        norms[big] = np.linalg.norm(X[big], axis=1)
    return X, norms


def unit_rows(X: np.ndarray, ids: list | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Divide each row by its norm; a zero-norm row is an error here.

    The unit rows are written into out when it is given; out may be X.
    """
    X, norms = _scaled_norms(X, ids)
    bad = np.nonzero(norms < 1e-12)[0]
    if bad.size:
        which = ids[bad[0]] if ids is not None else str(bad[0])
        raise ValueError(f"zero-norm embedding row, id {which!r}")
    return np.divide(X, norms[:, None], out=out)


def cosine_similarity_matrix(rows: EmbeddingSet, cols: EmbeddingSet) -> SimMatrix:
    """Pairwise cosines, clamped to [-1, 1] to absorb rounding drift.

    The matrix is _map_blocks' blocks, so it holds the bits of every
    blocked pass over the same sets.
    """
    Xn = unit_rows(rows.data, rows.ids)
    Yn = Xn if cols is rows else unit_rows(cols.data, cols.ids)
    vals = np.empty((rows.n, cols.n))

    def fill(b, sims):
        vals[b] = sims

    _map_blocks(fill, Xn, Yn)
    return SimMatrix(list(rows.ids), list(cols.ids), vals)


def _id_cells(row_ids: list, col_ids: list, pairs) -> tuple:
    """(rows, cols): the distinct cells (i, j) with (row_ids[i], col_ids[j])
    in pairs, sorted by row, then column, so no sum over them depends on
    the order of pairs.  A pair with an id the lists lack is dropped."""
    row_at = {r: i for i, r in enumerate(row_ids)}
    col_at = {c: j for j, c in enumerate(col_ids)}
    cells = {(row_at[r], col_at[c]) for r, c in pairs if r in row_at and c in col_at}
    return tuple(np.array(sorted(cells), dtype=np.intp).reshape(-1, 2).T)


def _block_cells(rows: np.ndarray, cols: np.ndarray, b: slice) -> tuple:
    """(span, cells): rows[span] are block b's run of the row-sorted cells
    (rows, cols), and cells indexes them within the block."""
    span = slice(*np.searchsorted(rows, (b.start, b.stop)))
    return span, (rows[span] - b.start, cols[span])


_BLOCK_CELLS = 1 << 18  # about 2 MB of float64 per row block


def _row_blocks(n_rows: int, n_cols: int, cells: int | None = None) -> list:
    # Row slices of an n_rows x n_cols matrix, about cells cells each;
    # without cells, _BLOCK_CELLS as it is at the call, not at import,
    # so a test that patches it is obeyed.  No block has one row unless
    # n_rows is 1: numpy runs a 1-row product as gemv, whose sums differ
    # in the last bit from gemm's, and sums a lone row of a column-major
    # array pairwise where it sums the rows of a taller one in order; so
    # a one-row tail joins the block before it.
    step = max(2, (cells or _BLOCK_CELLS) // max(1, n_cols))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _worker_count() -> int:
    # One thread per CPU this process may run on, at most 4.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _map_blocks(fn, Xn: np.ndarray, Yn: np.ndarray, clip: bool = True) -> None:
    """Call fn(b, sims) for the (row slice, clipped cosine block) pairs
    that tile Xn @ Yn.T, on _worker_count() threads at most.  Xn and Yn
    are unit rows, which this never normalizes; a self pass passes one
    array twice.

    With clip False, sims is the unclipped product, for a caller that
    reads only single cells and order statistics and clips those: the
    clip is monotone, so they come out the same, without a pass over the
    block.

    The blocks depend on the shapes alone, and each product runs on one
    BLAS thread, so a block's bits do not depend on which thread runs it
    or how many run.  They can depend on _BLOCK_CELLS: at some shapes
    OpenBLAS's last bit in a cell depends on a product's row count, and
    numpy runs a self pass that fits one block as syrk.  Blocks finish in
    any order: fn must only write its own rows.  The calling thread is
    one of the workers.  The first exception fn raises, in block order,
    propagates.
    """
    if Xn.shape[1] != Yn.shape[1]:
        raise ValueError(f"dimension mismatch: {Xn.shape[1]} vs {Yn.shape[1]}")
    blocks = _row_blocks(len(Xn), len(Yn))
    workers = min(_worker_count(), len(blocks))

    def run(b):
        sims = _mm(Xn[b], Yn.T)
        fn(b, np.clip(sims, -1.0, 1.0, out=sims) if clip else sims)

    # Held for the whole pass, so the count is not set back and forth
    # between blocks.
    with _BLAS_PIN or contextlib.nullcontext():
        # Plain threads pulling block indices: concurrent.futures imports
        # logging, about 7 ms of start-up for every pooled command.  After
        # an error no block is started, but every block before it has
        # been, so the first error in block order is among those caught.
        todo, lock = iter(range(len(blocks))), threading.Lock()
        errors = [None] * len(blocks)
        failed = False

        def work():
            nonlocal failed
            while True:
                with lock:
                    i = None if failed else next(todo, None)
                if i is None:
                    return
                try:
                    run(blocks[i])
                except BaseException as e:  # re-raised below, in block order
                    errors[i] = e
                    with lock:
                        failed = True

        threads = []
        try:
            for _ in range(workers - 1):
                t = threading.Thread(target=work)
                t.start()
                threads.append(t)
            work()
        finally:
            for t in threads:
                t.join()
        first = next((e for e in errors if e is not None), None)
        if first is not None:
            raise first


def _check_percent(name: str, pct: float) -> None:
    if not (0.0 < pct <= 100.0):
        raise ValueError(f"{name} must lie in (0, 100], got {pct}")


def row_percentile_threshold(row, k_percent: float) -> float:
    """The m-th largest value of the row, m = max(1, ceil(k%/100 * len)).

    Callers retain ties by comparing with >=, so equal values at the
    threshold all survive.
    """
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.size == 0:
        raise ValueError("empty row")
    _check_percent("k_percent", k_percent)
    return float(_row_thresholds(row[None, :], [k_percent])[0, 0])


def _top_count(percent: float, n: int) -> int:
    """m = max(1, ceil(percent/100 * n)), the entries a row threshold keeps."""
    return max(1, math.ceil(percent / 100.0 * n))


_PARTITION_CELLS = 1 << 15


def _row_thresholds(values: np.ndarray, percents) -> np.ndarray:
    """Per percent, each row's m-th largest value, m = _top_count(%, len).

    A len(percents) x n_rows array from one partition per _row_blocks
    chunk, copied into one reused buffer, so each equals the threshold of
    a partition of the whole row for its percent alone.
    """
    n_rows, n_cols = values.shape
    kth = [n_cols - _top_count(p, n_cols) for p in percents]
    order = sorted(set(kth))
    chunks = _row_blocks(n_rows, n_cols, _PARTITION_CELLS)
    buf = np.empty_like(values[: max((b.stop - b.start for b in chunks), default=0)])
    out = np.empty((len(kth), n_rows), dtype=values.dtype)
    for b in chunks:
        part = buf[: b.stop - b.start]
        np.copyto(part, values[b])
        part.partition(order, axis=1)
        out[:, b] = part[:, kth].T
    return out


def adjacency_full(sim: SimMatrix, center: bool) -> Adjacency:
    vals = sim.values.copy()
    if center:
        vals -= vals.mean()
    return Adjacency(vals, "full", None, bool(center))


def adjacency_local(sim: SimMatrix, k_percent: float) -> Adjacency:
    _check_percent("k_percent", k_percent)
    thr = _row_thresholds(sim.values, [k_percent])[0]
    vals = np.where(sim.values >= thr[:, None], sim.values, 0.0)
    return Adjacency(vals, "local", float(k_percent), False)


def adjacency_binary(sim: SimMatrix, p_percent: float) -> Adjacency:
    _check_percent("p_percent", p_percent)
    thr = _row_thresholds(sim.values, [p_percent])[0]
    vals = (sim.values >= thr[:, None]).astype(np.float64)
    return Adjacency(vals, "binary", float(p_percent), False)
