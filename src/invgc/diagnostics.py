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
from .simgraph import _PARTITION_CELLS, _block_cells, _id_cells, _map_blocks, _mm, _row_blocks, unit_rows


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
    # _nn_histogram holds a count and a tuple per bin: a million bins
    # take about 128 MB
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if bins > 1_000_000:
        raise ValueError(f"bins must be <= 1000000, got {bins}")


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
    rows, cols = _id_cells(G.ids, Q.ids, ((g, q) for q, gs in rel.items() for g in gs))
    full = np.bincount(rows, minlength=G.n) == Q.n
    if full.any():
        raise ValueError(f"gallery row {G.ids[int(np.argmax(full))]!r} has no unmatched queries left")
    return _neighbour_report(G, Q, rows, cols, ks, bins)


def _centered_gram(Z: np.ndarray, w: np.ndarray) -> tuple:
    """(zbar, C, q): Z's mean row, corrected by the sum of the deviations
    from it, its centered d x d Gram C, and q = w'Cw summed over the
    deviations as sum_i ((z_i - zbar) . w)^2, which keeps the digits that
    C's rounding loses on a collapsed cone.  The deviations come in chunks
    of about _PARTITION_CELLS cells, whose shapes depend on Z alone, in
    one reused buffer."""
    n, d = Z.shape
    zbar = Z.mean(axis=0)
    gram, drift, q = np.zeros((d, d)), np.zeros(d), 0.0
    # Not _row_blocks: its merged one-row tail would move std_sim's last bits.
    step = max(1, _PARTITION_CELLS // max(1, d))
    buf = np.empty((min(step, n), d))
    for a in range(0, n, step):
        z = Z[a : a + step]
        dev = np.subtract(z, zbar, out=buf[: len(z)])
        gram += _mm(dev.T, dev)
        drift += dev.sum(axis=0)
        proj = _mm(dev, w[:, None])
        q += float((proj * proj).sum())
    return zbar + drift / n, gram, q


def _neighbour_report(X: EmbeddingSet, Y: EmbeddingSet, rows, cols, ks: list, bins: int) -> DegenerationReport:
    # One pass over the row blocks of the X x Y cosines, leaving out the
    # row-sorted cells (rows[t], cols[t]); each row must keep a cell.
    # Each block reads its excluded cells, then overwrites them to take
    # its rows' min and sorted top values over the kept cells.  The top
    # values come from partitions of _row_blocks chunks, run in place on
    # the block, which nothing reads after it.  The block is not clipped:
    # only the values kept from it are.  The mean and the spread of the kept
    # cells need no block: they come from the two sets' means and
    # centered d x d Grams, with the excluded cells taken out.
    Xn = unit_rows(X.data, X.ids)
    Yn = Xn if Y is X else unit_rows(Y.data, Y.ids)
    available = Y.n - np.bincount(rows, minlength=X.n)
    top = Y.n - min(max(ks), Y.n)
    ranked = np.empty((X.n, Y.n - top))
    row_min, excluded = np.empty(X.n), np.empty(len(rows))

    def block(b, sims):
        span, cells = _block_cells(rows, cols, b)
        excluded[span] = sims[cells]
        sims[cells] = np.inf
        row_min[b] = sims.min(axis=1)
        # A row with fewer cells than the width ends in excluded cells,
        # which count as zero.
        sims[cells] = -np.inf
        for chunk in _row_blocks(*sims.shape, _PARTITION_CELLS):
            sims[chunk].partition(top, axis=1)
            ranked[b][chunk] = np.sort(sims[chunk, top:], axis=1)[:, ::-1]

    _map_blocks(block, Xn, Yn, clip=False)
    ranked[ranked == -np.inf] = 0.0
    for values in (ranked, row_min, excluded):
        np.clip(values, -1.0, 1.0, out=values)
    xbar, cx, qx = _centered_gram(Xn, Yn.mean(axis=0))
    ybar, cy, qy = (xbar, cx, qx) if Yn is Xn else _centered_gram(Yn, Xn.mean(axis=0))
    # With m0 = xbar . ybar, u_i = x_i - xbar and v_j = y_j - ybar, each
    # cosine splits as s_ij - m0 = u_i . ybar + xbar . v_j + u_i . v_j,
    # and every cross sum of the three terms is zero over all cells, so
    #   sum (s - m0) = 0,  sum (s - m0)^2 = Ny ybar'Cx ybar + Nx xbar'Cy xbar + <Cx, Cy>,
    # where no term is negative and the quadratic forms are qx and qy.
    # With e = s - m0 over the excluded cells and n kept cells, the kept
    # cells' mean is m0 - sum e / n and their M2 is that sum less
    # sum e^2 + (sum e)^2 / n.
    m0 = float(xbar @ ybar)
    e = excluded - m0
    e_sum, n_pairs = float(e.sum()), int(available.sum())
    spread = Y.n * qx + X.n * qy
    square_dev = float(spread + (cx * cy).sum() - (e * e).sum() - e_sum**2 / n_pairs)
    nearest = ranked[:, 0]
    low, high = float(row_min.min()), float(nearest.max())
    # Rounding can leave the mean out of the cosines' range (1 + 2e-15 for
    # identical rows) and 1e-16 of M2 where there is none, a std of 1e-8;
    # so M2 is clamped to [0, n (high - low)^2 / 4] (Popoviciu).
    square_dev = min(max(square_dev, 0.0), n_pairs * ((high - low) / 2) ** 2)
    return DegenerationReport(
        mean_sim=min(max(m0 - e_sum / n_pairs, low), high),
        mean_sim_at={
            # No row has more than Y.n cells available, so k is capped there
            # before numpy sees it: a k past 2^63 - 1 does not fit a C long.
            k: float((ranked[:, :k].sum(axis=1) / np.minimum(min(k, Y.n), available)).mean())
            for k in ks
        },
        histogram=_nn_histogram(nearest, bins),
        excluded_pairs=len(rows),
        std_sim=float(np.sqrt(square_dev / n_pairs)),
        min_sim=low,
    )


def nn_similarity_histogram(G: EmbeddingSet, bins: int) -> list:
    """Histogram of each point's nearest-neighbor similarity."""
    return intra_mean_sim(G, [1], bins).histogram


def degeneration_score(G: EmbeddingSet) -> float:
    """Mean nearest-neighbor cosine within the set (MeanSim@1)."""
    return intra_mean_sim(G, [1]).mean_sim_at[1]
