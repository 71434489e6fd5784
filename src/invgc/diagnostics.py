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

from .embio import EmbeddingSet, _check_count
from .simgraph import _block_cells, _block_tasks, _chunks, _id_cells, _mm, _run_tasks, unit_rows


@dataclass
class DegenerationReport:
    mean_sim: float
    mean_sim_at: dict
    histogram: list            # (bin_lower, bin_upper, count) triples
    excluded_pairs: int
    std_sim: float
    min_sim: float


def _nn_histogram(nn_values: np.ndarray, bins: int) -> list:
    """(lower, upper, count) per equal-width bin over [-1, 1], as numpy's
    histogram bins it: each bin holds lower <= v < upper, the top bin also
    1.0, and the edges are linspace(-1, 1, bins + 1), so the top one is 1.0."""
    counts, edges = np.histogram(nn_values, bins=bins, range=(-1.0, 1.0))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


# _nn_histogram holds a count and a tuple per bin: a million bins take
# about 128 MB
_MAX_BINS = 1_000_000


def _check_ks(ks, limit: int | None) -> list:
    ks = [_check_count("k", k) for k in ks]
    if not ks:
        raise ValueError("need at least one k")
    if limit is not None and max(ks) > limit:
        raise ValueError(f"k={max(ks)} exceeds the {limit} available neighbors")
    return ks


def intra_mean_sim(G: EmbeddingSet, ks, bins: int = 20) -> DegenerationReport:
    """Similarity structure within one set, self pairs excluded."""
    if G.n < 2:
        raise ValueError("need at least 2 points")
    ks = _check_ks(ks, G.n - 1)
    bins = _check_count("bins", bins, 1, _MAX_BINS)
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
    bins = _check_count("bins", bins, 1, _MAX_BINS)
    rows, cols = _id_cells(G.ids, Q.ids, ((g, q) for q, gs in rel.items() for g in gs))
    return _neighbour_report(G, Q, rows, cols, ks, bins)


def _centered_gram(Z: np.ndarray, w: np.ndarray) -> tuple:
    """(zbar, C, q): Z's mean row, corrected by the sum of the deviations
    from it, its centered d x d Gram C, and q = w'Cw summed over the
    deviations as sum_i ((z_i - zbar) . w)^2, which keeps the digits that
    C's rounding loses on a collapsed cone.  The deviations come in
    _chunks' buffer, in chunks cut by Z's shape alone."""
    n, d = Z.shape
    zbar = Z.mean(axis=0)
    gram, drift, q = np.zeros((d, d)), np.zeros(d), 0.0
    for b, part in _chunks(Z):
        dev = np.subtract(Z[b], zbar, out=part)
        gram += _mm(dev.T, dev)
        drift += dev.sum(axis=0)
        proj = _mm(dev, w[:, None])
        q += float((proj * proj).sum())
    return zbar + drift / n, gram, q


def _neighbour_report(X: EmbeddingSet, Y: EmbeddingSet, rows, cols, ks: list, bins: int) -> DegenerationReport:
    # One pass over the row blocks of the X x Y cosines, leaving out the
    # row-sorted cells (rows[t], cols[t]); a row that keeps no cell is an
    # error, raised before anything is normalized.
    # Each block reads its excluded cells, then overwrites them to take
    # its rows' min and sorted top values over the kept cells.  The top
    # values come from one partition of the whole block, run in place,
    # as nothing reads the block after it.  The block is not clipped:
    # only the values kept from it are.  The mean and the spread of the kept
    # cells need no block: they come from the two sets' means and
    # centered d x d Grams, with the excluded cells taken out.
    available = Y.n - np.bincount(rows, minlength=X.n)
    if not available.all():
        raise ValueError(f"gallery row {X.ids[int(np.argmin(available))]!r} has no unmatched queries left")
    Xn = unit_rows(X.data, X.ids)
    Yn = Xn if Y is X else unit_rows(Y.data, Y.ids)
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
        sims.partition(top, axis=1)
        ranked[b] = np.sort(sims[:, top:], axis=1)[:, ::-1]

    _run_tasks(_block_tasks(block, Xn, Yn, clip=False))
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
    m0 = float(_mm(xbar[None, :], ybar[:, None])[0, 0])
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
