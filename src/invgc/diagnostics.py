"""Degeneration diagnostics: mean similarity, MeanSim@k, NN histograms.

The degeneration score of a set is the mean cosine similarity between
each point and its nearest neighbor, i.e. MeanSim@1.  Intra reports look
within one set (self pairs excluded); cross reports anchor on gallery
rows and look at queries, excluding each gallery item's matched queries
so the score reflects unrelated neighbors only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingSet
from .simgraph import _UnitRows, _map_blocks, _mm, _partitioned_rows


@dataclass
class DegenerationReport:
    mean_sim: float
    mean_sim_at: dict
    histogram: list            # (bin_lower, bin_upper, count) triples
    excluded_pairs: int
    std_sim: float
    min_sim: float


def _nn_histogram(nn_values: np.ndarray, bins: int) -> list:
    # Equal-width bins over [-1, 1]; a value on a bin boundary lands in
    # the higher bin, except the global maximum 1.0 which stays in the
    # top bin so the partition is exact.
    width = 2.0 / bins
    idx = np.floor((nn_values + 1.0) / width).astype(int)
    idx = np.minimum(idx, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return [
        (-1.0 + i * width, -1.0 + (i + 1) * width, int(counts[i])) for i in range(bins)
    ]


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")


def _check_ks(ks, limit: int | None) -> list:
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"k values must be positive, got {ks}")
    if limit is not None and max(ks) > limit:
        raise ValueError(f"k={max(ks)} exceeds the {limit} available neighbors")
    return ks


def intra_mean_sim(G: EmbeddingSet, ks, bins: int = 20) -> DegenerationReport:
    """Similarity structure within one set, self pairs excluded."""
    if G.n < 2:
        raise ValueError("need at least 2 points")
    ks = _check_ks(ks, G.n - 1)
    _check_bins(bins)
    diag = np.arange(G.n)
    return _neighbour_report(G, G, diag, diag, ks, bins)


def cross_mean_sim(G: EmbeddingSet, Q: EmbeddingSet, rel: dict, ks, bins: int = 20) -> DegenerationReport:
    """Similarity from each gallery row to all non-matched queries.

    rel maps query id to the set of gallery ids it matches; each matched
    (gallery, query) pair is excluded from the pool.  A gallery row whose
    every query is matched has no neighbors left, which is an error.
    Neighbor counts use min(k, available) per row since exclusions can
    leave rows with fewer than k candidates.
    """
    ks = _check_ks(ks, None)
    _check_bins(bins)
    g_index = {g: i for i, g in enumerate(G.ids)}
    q_index = {q: j for j, q in enumerate(Q.ids)}
    pairs = [
        (g_index[g], q_index[q])
        for q, gs in rel.items() if q in q_index
        for g in gs if g in g_index
    ]
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    full = np.bincount(rows, minlength=G.n) == Q.n
    if full.any():
        raise ValueError(f"gallery row {G.ids[int(np.argmax(full))]!r} has no unmatched queries left")
    return _neighbour_report(G, Q, rows, cols, ks, bins)


_MOMENT_ROWS = 64
"""Rows per chunk of _row_moments, whose deviations share one buffer.

Its products run on the calling thread, whose first BLAS call touches
buffer pages that the pass's threads do not share.  On the 5000 x 64
benchmark set, 512-row chunks put diagnose's own peak RSS about 0.2 MB
above that of the blocked sums the moments replaced, 64-row ones about
0.15 MB; at d = 256 the two take about the same time.
"""


def _row_moments(X: _UnitRows, Y: _UnitRows) -> tuple:
    """(m0, offset, q) for the cosines s_ij = x_i . y_j of X's unit rows x_i
    and Y's unit rows y_j, with xbar and ybar the mean rows:

    - m0 = xbar . ybar, the mean of all the cosines;
    - offset_i = (x_i - xbar) . ybar, so that row i's cosines sum to
      n (m0 + offset_i);
    - q_i = x_i' C x_i = sum_j (s_ij - m0 - offset_i)^2, where
      C = sum_j (y_j - ybar)(y_j - ybar)' is Y's centered d x d Gram.

    Nothing here takes the difference of two large sums: on a collapsed
    set, with cosines near 0.98 +- 0.004, sum s^2 - (sum s)^2 / n would
    lose about 5 digits, and x_i . ybar - m0 about 2.  ybar is corrected
    by the sum of the deviations from it.  Both passes run in chunks of
    _MOMENT_ROWS rows, so their shapes depend on the inputs alone.
    """
    d, step = Y.d, _MOMENT_ROWS
    ybar = Y.data.mean(axis=0)
    gram, drift = np.zeros((d, d)), np.zeros(d)
    buf = np.empty((min(step, max(X.n, Y.n)), d))
    for a in range(0, Y.n, step):
        y = Y.data[a : a + step]
        dev = np.subtract(y, ybar, out=buf[: len(y)])
        gram += _mm(dev.T, dev)
        drift += dev.sum(axis=0)
    ybar += drift / Y.n
    xbar = X.data.mean(axis=0)
    offset, q = np.empty(X.n), np.empty(X.n)
    for a in range(0, X.n, step):
        x = X.data[a : a + step]
        q[a : a + step] = np.einsum("ij,ij->i", _mm(x, gram), x)
        offset[a : a + step] = _mm(np.subtract(x, xbar, out=buf[: len(x)]), ybar[:, None])[:, 0]
    return float(xbar @ ybar), offset, q


def _neighbour_report(X: EmbeddingSet, Y: EmbeddingSet, rows, cols, ks: list, bins: int) -> DegenerationReport:
    # One pass over the row blocks of the X x Y cosines, leaving out the
    # cells (rows[t], cols[t]); every row must keep at least one cell.
    # Each block reads its excluded cells, then overwrites them to take
    # its rows' min and sorted top values over the kept cells.  The top
    # values come from the chunked partition, run in place on the block,
    # which nothing reads after it.  The block is not clipped: only the
    # values kept from it are.  The row sums and M2s (squared
    # deviations from the row's own mean) need no block: _row_moments
    # gives them over all of a row's cells, and the excluded cells are
    # taken out one by one.
    Xu = _UnitRows(X)
    Yu = Xu if Y is X else _UnitRows(Y)
    available = Y.n - np.bincount(rows, minlength=X.n)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    top = Y.n - min(max(ks), Y.n)
    ranked = np.empty((X.n, Y.n - top))
    row_min, excluded = np.empty(X.n), np.empty(len(rows))

    def block(b, sims):
        lo, hi = np.searchsorted(rows, (b.start, b.stop))
        cells = rows[lo:hi] - b.start, cols[lo:hi]
        excluded[lo:hi] = sims[cells]
        sims[cells] = np.inf
        row_min[b] = sims.min(axis=1)
        # A row with fewer cells than the width ends in excluded cells,
        # which count as zero.
        sims[cells] = -np.inf
        for chunk, part in _partitioned_rows(sims, top, in_place=True):
            ranked[b][chunk] = np.sort(part[:, top:], axis=1)[:, ::-1]

    _map_blocks(block, Xu, Yu, clip=False)
    ranked[ranked == -np.inf] = 0.0
    for values in (ranked, row_min, excluded):
        np.clip(values, -1.0, 1.0, out=values)
    m0, offset, q = _row_moments(Xu, Yu)
    # Every sum runs over s - m0, so that a row's mean keeps its digits.
    # With K a row's kept cells, E its excluded ones and c = m0 + offset
    # the mean of all its cells:
    #   sum_K (s - m0) = n offset - sum_E (s - m0)
    #   M2_K = q - sum_E (s - c)^2 - |K| (mean_K - c)^2
    shifted = excluded - m0
    row_sum = Y.n * offset - np.bincount(rows, shifted, X.n)
    row_mean = row_sum / available
    dev = shifted - offset[rows]
    row_m2 = q - np.bincount(rows, dev * dev, X.n) - available * (row_mean - offset) ** 2
    # Rounding can leave about 1e-16 of M2 where there is none, which the
    # square root would make 1e-8 of std, so each row's M2 is clamped to
    # what its range allows: 0 <= M2 <= |K| (max - min)^2 / 4 (Popoviciu).
    nearest = ranked[:, 0]
    np.clip(row_m2, 0.0, available * ((nearest - row_min) / 2) ** 2, out=row_m2)
    n_pairs = int(available.sum())
    mean = row_sum.sum() / n_pairs
    # Row means and M2s merge exactly (Chan, Golub and LeVeque 1983):
    # M2 = sum of M2_i + sum of n_i * (mean_i - mean)^2.  The mean is
    # clamped to the cosines' range, which rounding can leave (about
    # 1 + 2e-15 for identical rows).
    square_dev = float(row_m2.sum() + (available * (row_mean - mean) ** 2).sum())
    min_sim = float(row_min.min())
    return DegenerationReport(
        mean_sim=float(np.clip(m0 + mean, min_sim, nearest.max())),
        mean_sim_at={
            k: float((ranked[:, :k].sum(axis=1) / np.minimum(k, available)).mean()) for k in ks
        },
        histogram=_nn_histogram(nearest, bins),
        excluded_pairs=len(rows),
        std_sim=float(np.sqrt(square_dev / n_pairs)),
        min_sim=min_sim,
    )


def nn_similarity_histogram(G: EmbeddingSet, bins: int) -> list:
    """Histogram of each point's nearest-neighbor similarity."""
    return intra_mean_sim(G, [1], bins).histogram


def degeneration_score(G: EmbeddingSet) -> float:
    """Mean nearest-neighbor cosine within the set (MeanSim@1).

    intra_mean_sim(G, [1]).mean_sim_at[1] from a pass of its own: each
    row's maximum with its self pair set to -inf.
    """
    if G.n < 2:
        raise ValueError("need at least 2 points")
    nearest = np.empty(G.n)

    def block(b, sims):
        own = np.arange(b.start, b.stop)
        sims[own - b.start, own] = -np.inf
        nearest[b] = sims.max(axis=1)

    _map_blocks(block, G, G)
    return float(nearest.mean())
