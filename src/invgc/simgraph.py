"""Cosine similarity matrices and the adjacency variants derived from them.

Three adjacency constructions feed the convolution ops:

full    the raw cosine matrix, optionally centered by subtracting the
        scalar mean of all entries
local   per row, keep entries >= the m-th largest value verbatim and
        zero the rest, m = max(1, ceil(k_percent/100 * row length))
binary  same row threshold, but retained entries become 1 and the rest 0
"""

from __future__ import annotations

import ctypes
import math
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
    # 1 for the length of the call.  Without the symbols (numpy on another
    # BLAS), einsum contracts on a single thread in index order.
    if _BLAS_PIN is None:
        return np.einsum("ij,jk->ik", a, b)
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


def unit_rows(X: np.ndarray, ids: list | None = None) -> np.ndarray:
    """Divide each row by its norm; a zero-norm row is an error here."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    bad = np.nonzero(norms < 1e-12)[0]
    if bad.size:
        which = ids[bad[0]] if ids is not None else str(bad[0])
        raise ValueError(f"zero-norm embedding row, id {which!r}")
    return X / norms[:, None]


def cosine_similarity_matrix(rows: EmbeddingSet, cols: EmbeddingSet) -> SimMatrix:
    """Pairwise cosines, clamped to [-1, 1] to absorb rounding drift."""
    if rows.d != cols.d:
        raise ValueError(f"dimension mismatch: {rows.d} vs {cols.d}")
    vals = _mm(unit_rows(rows.data, rows.ids), unit_rows(cols.data, cols.ids).T)
    np.clip(vals, -1.0, 1.0, out=vals)
    return SimMatrix(list(rows.ids), list(cols.ids), vals)


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
    return float(_row_thresholds(row[None, :], k_percent)[0])


def _row_thresholds(values: np.ndarray, percent: float) -> np.ndarray:
    n_cols = values.shape[1]
    m = max(1, math.ceil(percent / 100.0 * n_cols))
    # A copy of the column, so the partitioned N x N_ref copy is freed
    # here rather than kept alive by a view while the caller masks.
    return np.partition(values, n_cols - m, axis=1)[:, n_cols - m].copy()


def adjacency_full(sim: SimMatrix, center: bool) -> Adjacency:
    vals = sim.values.copy()
    if center:
        vals -= vals.mean()
    return Adjacency(vals, "full", None, bool(center))


def adjacency_local(sim: SimMatrix, k_percent: float) -> Adjacency:
    _check_percent("k_percent", k_percent)
    thr = _row_thresholds(sim.values, k_percent)
    vals = np.where(sim.values >= thr[:, None], sim.values, 0.0)
    return Adjacency(vals, "local", float(k_percent), False)


def adjacency_binary(sim: SimMatrix, p_percent: float) -> Adjacency:
    _check_percent("p_percent", p_percent)
    thr = _row_thresholds(sim.values, p_percent)
    vals = (sim.values >= thr[:, None]).astype(np.float64)
    return Adjacency(vals, "binary", float(p_percent), False)
