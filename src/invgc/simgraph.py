"""Cosine similarity matrices and the adjacency variants derived from them.

Three adjacency constructions feed the convolution ops:

full    the raw cosine matrix, optionally centered by subtracting the
        scalar mean of all entries
local   per row, keep entries >= the m-th largest value verbatim and
        zero the rest, m = max(1, ceil(k_percent/100 * row length))
binary  same row threshold, but retained entries become 1 and the rest 0

Every cosine the library takes comes from _map_blocks, which hands row
blocks of 2**18 cells at d <= 64, rising with d to 2**20 from d = 256
(_pass_blocks), to a few threads, so no pass holds an N x N_ref matrix
unless it asks for one: cosine_similarity_matrix fills the dense matrix
from the same blocks, for callers that want it whole.
_map_blocks takes unit rows: each entry point normalizes each set once.
The cells a pass treats apart (self pairs, matched pairs, relevant
items) come from _id_cells, by id; _block_cells hands each block its run.

Row thresholds, norms and diagnose's Grams walk _chunks' reused buffer.
local and binary keep m entries per row, plus ties, so they are sparse;
a percent becomes m once, by _top_count, and everything below takes m.
core._aggregate sums each row's kept reference rows when m is at most
1/32 of the row and multiplies the masked block above that; when m is
the whole row, as for avgpool's default p = 100, the aggregate is a
d x d map, like full's.  scipy.sparse would add about 175 ms of import
to every command, so the kept rows are gathered with numpy alone.
Every product goes through _mm, a dot of two vectors as a 1 x 1 one.
"""

from __future__ import annotations

import contextlib
import contextvars
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
    # 1 for the length of the call.  np.matmul releases the GIL around
    # dgemm, so products on several Python threads overlap.
    # Without the symbols (numpy on another BLAS), einsum contracts on a
    # single thread in index order.
    if _BLAS_PIN is None:
        return np.einsum("...ij,...jk->...ik", a, b)
    with _BLAS_PIN:
        return np.matmul(a, b)


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

    The squares are taken in _chunks' buffer by the np.multiply and
    per-row np.add.reduce that np.linalg.norm(X, axis=1) runs: the norms
    are its bits, and no N x d array of squares is made.

    A row whose sum of squares overflows is first divided by its max |x|,
    as BLAS nrm2 scales; every other row of Y is X's row, and its norm
    the plain one, so finite-norm rows keep their bytes.  A row holding
    an inf or a NaN has no unit row and is an error, named by its id when
    ids are given.
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.empty(len(X))
    with np.errstate(over="ignore"):
        for b, part in _chunks(X):
            np.add.reduce(np.multiply(X[b], X[b], out=part), axis=1, out=norms[b])
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


_ZERO_NORM = 1e-12  # no direction below it: unit_rows refuses, row_normalize zeros


def unit_rows(X: np.ndarray, ids: list | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Divide each row by its norm; a zero-norm row is an error here.

    The unit rows are written into out when it is given; out may be X.
    """
    X, norms = _scaled_norms(X, ids)
    bad = np.nonzero(norms < _ZERO_NORM)[0]
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
_PARTITION_CELLS = 1 << 15


def _pass_blocks(n_rows: int, n_cols: int, d: int) -> list:
    # _map_blocks' row blocks: _row_blocks at _BLOCK_CELLS times d // 64,
    # held between 1 and 4, so 2 MB at d <= 64 and 8 MB from d = 256 on.
    # Each block's GEMM packs the whole n_cols x d panel it multiplies, so
    # at wide d a 2**18-cell block repacks it every few dozen rows: 40
    # times per pass over 5000 x 256 references.
    return _row_blocks(n_rows, n_cols, _BLOCK_CELLS * min(4, max(1, d // 64)))


def _row_blocks(n_rows: int, n_cols: int, cells: int) -> list:
    # Row slices of an n_rows x n_cols matrix, about cells cells each.
    # No block has one row unless n_rows is 1: numpy runs a 1-row product
    # as gemv, whose sums differ in the last bit from gemm's, and sums a
    # lone row of a column-major array pairwise where it sums the rows of
    # a taller one in order; so a one-row tail joins the block before it.
    step = max(2, cells // max(1, n_cols))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _chunks(X: np.ndarray):
    """Yield (b, part) for the _row_blocks chunks of X of about
    _PARTITION_CELLS cells; part is one reused buffer laid out as X[b]."""
    blocks = _row_blocks(*X.shape, _PARTITION_CELLS)
    buf = np.empty_like(X[: max((b.stop - b.start for b in blocks), default=0)])
    for b in blocks:
        yield b, buf[: b.stop - b.start]


def _worker_count() -> int:
    # One thread per CPU this process may run on, at most 4.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _check_dims(d: int, *others: int) -> None:
    """Refuse operands whose width is not d, the first operand's."""
    for e in others:
        if e != d:
            raise ValueError(f"dimension mismatch: {d} vs {e}")


def _map_blocks(fn, Xn: np.ndarray, Yn: np.ndarray, clip: bool = True,
                workers: int | None = None) -> None:
    """Call fn(b, sims) for the (row slice, clipped cosine block) pairs
    that tile Xn @ Yn.T, on workers threads at most, _worker_count() if
    None.  Xn and Yn are unit rows, which this never normalizes; a self
    pass passes one array twice.

    With clip False, sims is the unclipped product, for a caller that
    reads only single cells and order statistics and clips those: the
    clip is monotone, so they come out the same, without a pass over the
    block.

    The blocks are _pass_blocks', which depend on the shapes alone, and
    each product runs on one BLAS thread, so a block's bits do not depend
    on which thread runs it or how many run.  They can depend on the
    block budget: at some shapes OpenBLAS's last bit in a cell depends on
    a product's row count, and numpy runs a self pass that fits one block
    as syrk.  Blocks finish in any order: fn must only write its own
    rows.  The calling thread is one of the workers, and each started one
    runs in a copy of its context, so every block sees the caller's
    np.errstate.  The first exception fn raises, in block order,
    propagates.
    """
    _check_dims(Xn.shape[1], Yn.shape[1])
    blocks = _pass_blocks(len(Xn), len(Yn), Xn.shape[1])
    workers = min(_worker_count() if workers is None else workers, len(blocks))

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
                t = threading.Thread(target=contextvars.copy_context().run, args=(work,))
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
    return float(_row_thresholds(row[None, :], [_top_count(k_percent, row.size)])[0, 0])


def _top_count(percent: float, n: int) -> int:
    """m = max(1, ceil(percent/100 * n)), the entries a row threshold keeps."""
    return max(1, math.ceil(percent / 100.0 * n))


def _row_thresholds(values: np.ndarray, counts) -> np.ndarray:
    """Per kept count m in counts, each row's m-th largest value, in a
    len(counts) x n_rows array from one partition per chunk in _chunks'
    buffer: each is the threshold of a partition of the row for m alone."""
    kth = [values.shape[1] - m for m in counts]
    order = sorted(set(kth))
    out = np.empty((len(kth), len(values)), dtype=values.dtype)
    for b, part in _chunks(values):
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
    thr = _row_thresholds(sim.values, [_top_count(k_percent, sim.values.shape[1])])[0]
    vals = np.where(sim.values >= thr[:, None], sim.values, 0.0)
    return Adjacency(vals, "local", float(k_percent), False)


def adjacency_binary(sim: SimMatrix, p_percent: float) -> Adjacency:
    _check_percent("p_percent", p_percent)
    thr = _row_thresholds(sim.values, [_top_count(p_percent, sim.values.shape[1])])[0]
    vals = (sim.values >= thr[:, None]).astype(np.float64)
    return Adjacency(vals, "binary", float(p_percent), False)
