"""Inverse and forward graph convolution updates on embedding sets.

The dual update corrects a gallery G against two reference sets:

    G' = 1/2 * [ norm(G - r_g * S_g @ refG) + norm(G - r_q * S_q @ refQ) ]

where S_g and S_q are adjacencies built independently over G x refG and
G x refQ with the configured variant, and norm() divides each row by its
Euclidean norm.  G is row-normalized on entry so the cosine adjacency
and the subtraction see consistent unit-scale vectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._choices import VARIANTS
from .embio import EmbeddingSet
from .simgraph import (
    Adjacency,
    SimMatrix,
    _PARTITION_CELLS,
    _block_cells,
    _check_percent,
    _id_cells,
    _map_blocks,
    _mm,
    _row_blocks,
    _row_thresholds,
    _scaled_norms,
    _top_count,
    adjacency_binary,
    adjacency_full,
    adjacency_local,
    unit_rows,
)


@dataclass
class InvGCConfig:
    """Variant selector plus step sizes and threshold percentages."""

    variant: str = "full"
    r_g: float = 0.0
    r_q: float = 0.0
    k_percent: float = 1.0      # used by the local variant
    p_percent: float = 100.0    # used by the avgpool variant

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name, r in (("r_g", self.r_g), ("r_q", self.r_q)):
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {r}")
        _check_percent("k_percent", self.k_percent)
        _check_percent("p_percent", self.p_percent)


def build_adjacency(sim: SimMatrix, cfg: InvGCConfig) -> Adjacency:
    """Map a similarity matrix to the configured adjacency variant."""
    if cfg.variant == "full":
        return adjacency_full(sim, center=True)
    if cfg.variant == "local":
        return adjacency_local(sim, cfg.k_percent)
    return adjacency_binary(sim, cfg.p_percent)


def row_normalize(M: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm.

    Rows with norm below 1e-12 pass through as all zeros; their count is
    reported via RuntimeWarning rather than aborting the batch.  A row
    whose plain norm overflows is scaled by its max |x| first.
    """
    M, norms = _scaled_norms(M)
    degenerate = norms < 1e-12
    n_bad = int(np.count_nonzero(degenerate))
    if n_bad:
        warnings.warn(
            f"{n_bad} zero-norm rows left unnormalized", RuntimeWarning, stacklevel=2
        )
    out = M / np.where(degenerate, 1.0, norms)[:, None]
    out[degenerate] = 0.0
    return out


class StepOverflowError(ValueError):
    """A step r whose product with the reference aggregate is not finite."""

    def __init__(self, field: str, r: float):
        super().__init__(f"{field}={r!r} is too large: {field} times the aggregate is not finite")
        self.field, self.r = field, r


def _check_conv_args(X: EmbeddingSet, S: Adjacency, R: EmbeddingSet) -> None:
    if X.d != R.d:
        raise ValueError(f"dimension mismatch: {X.d} vs {R.d}")
    if S.values.shape != (X.n, R.n):
        raise ValueError(
            f"adjacency shape {S.values.shape} does not match {X.n} x {R.n}"
        )


def inverse_convolve_single(X: EmbeddingSet, S: Adjacency, R: EmbeddingSet, r: float) -> EmbeddingSet:
    """X'_i = X_i - r * sum_j S_ij R_j, without normalization."""
    _check_conv_args(X, S, R)
    vals = S.values.copy()
    vals[_id_cells(X.ids, R.ids, zip(X.ids, X.ids))] = 0.0
    return EmbeddingSet(list(X.ids), X.data - r * _mm(vals, R.data))


def forward_convolve(X: EmbeddingSet, S: Adjacency, R: EmbeddingSet) -> EmbeddingSet:
    """X'_i = X_i + sum_j S_ij R_j, the additive aggregation baseline."""
    return inverse_convolve_single(X, S, R, -1.0)


def inverse_convolve_dual(
    G: EmbeddingSet, refG: EmbeddingSet, refQ: EmbeddingSet, cfg: InvGCConfig
) -> EmbeddingSet:
    """Correct G against both reference sets and average the two halves."""
    return _dual_over_steps(G, refG, refQ, [cfg])(cfg)


def _percent(cfg: InvGCConfig) -> float:
    # The percent that sets cfg's row threshold; full has none and ignores it.
    return cfg.k_percent if cfg.variant == "local" else cfg.p_percent


def _dual_over_steps(G, refG, refQ, cfgs):
    """inverse_convolve_dual(G, refG, refQ, c) as a function of c, for the
    configs c in cfgs, which share a variant and may differ in r_g, r_q
    and the variant's percent.

    The aggregates do not depend on the steps, and their cosines not on
    the percent, so each reference set gets one pass for all of cfgs, and
    each half norm(Gn - r * A) is computed once per distinct (percent,
    step); a call only averages two halves.
    """
    cfg = cfgs[0]
    for ref in (refG, refQ):
        if G.d != ref.d:
            raise ValueError(f"dimension mismatch: {G.d} vs {ref.d}")
    Gn = EmbeddingSet(G.ids, unit_rows(G.data, G.ids))

    def halves(ref, field):
        wanted = dict.fromkeys((_percent(c), getattr(c, field)) for c in cfgs)
        percents = list(dict.fromkeys(p for p, _ in wanted))
        A = dict(zip(percents, _aggregate(Gn, ref, cfg, percents)))
        out = {}
        for p, r in wanted:
            with np.errstate(over="ignore"):
                step = r * A[p]
            if not np.isfinite(step).all():
                raise StepOverflowError(field, r)
            out[p, r] = row_normalize(Gn.data - step)
        return out

    g_half, q_half = halves(refG, "r_g"), halves(refQ, "r_q")
    return lambda c: EmbeddingSet(
        G.ids, 0.5 * (g_half[_percent(c), c.r_g] + q_half[_percent(c), c.r_q])
    )


_GATHER_SHARE = 1 / 32
"""Largest share m / N_ref of a row that _aggregate sums from gathered rows.

Measured per row block of 2**18 cosines on one thread of a 2.1 GHz Xeon,
at N_ref 1000 and 5000 and d 8 to 256: at m / N_ref = 1/32 the gather
takes 0.64 to 0.93 of the masked GEMM's time, at 1/16 it takes 1.05 to
1.44.  Keeping every column, as avgpool's default p = 100 does, needs no block.
"""


def _aggregate(Gn: EmbeddingSet, ref: EmbeddingSet, cfg: InvGCConfig, percents) -> list:
    """S @ ref at each of percents, for cfg's adjacency S over Gn x ref
    with the threshold at that percent (k for local, p for avgpool), self
    pairs excluded.

    Neither the steps nor the percent enter the cosines, so a search
    computes this once per reference set.  local and avgpool threshold
    one row block of cosines at a time, the rows of build_adjacency's S,
    with the blocks spread over a few threads: each block gets one GEMM
    and one partition.  A percent that keeps at most _GATHER_SHARE of a
    row sums each row's kept reference rows (_kept_sums); a wider one
    masks the block and multiplies it by ref.  Which one runs depends on
    the shapes and the percent alone.  A row that keeps all N_ref columns
    (full, or m = N_ref) needs only a d x d map and no cosine pass.

    The kept rows are gathered with numpy alone: scipy.sparse would cost
    every command about 175 ms of import, more than the gather saves.
    """
    kept = [ref.n if cfg.variant == "full" else _top_count(p, ref.n) for p in percents]
    Rn = unit_rows(ref.data, ref.ids)  # for avgpool too: refuses a zero-norm row
    # A point is never its own neighbour, whatever the row order of the sets.
    self_cells = _id_cells(Gn.ids, ref.ids, zip(Gn.ids, Gn.ids))
    every = (_every_column_aggregate(Gn.data, Rn, ref.data, cfg.variant, self_cells)
             if ref.n in kept else None)
    percents = [p for p, m in zip(percents, kept) if m < ref.n]
    local = cfg.variant == "local"
    gathered = [_top_count(p, ref.n) <= _GATHER_SHARE * ref.n for p in percents]
    out = [np.empty((Gn.n, ref.d)) for _ in percents]

    def block(b, sims):
        thresholds = _row_thresholds(sims, percents)[:, :, None]
        _, own = _block_cells(*self_cells, b)
        # One percent masks the block in place; several share one copy.
        masked = sims if len(percents) == 1 else None
        for agg, thr, gather in zip(out, thresholds, gathered):
            if gather:
                agg[b] = _kept_sums(sims, thr, own, ref.data, local)
                continue
            if masked is None:
                masked = np.empty_like(sims)
            if local:
                if masked is not sims:
                    np.copyto(masked, sims)
                masked[sims < thr] = 0.0
            else:
                np.greater_equal(sims, thr, out=masked)
            masked[own] = 0.0
            agg[b] = _mm(masked, ref.data)

    if percents:
        _map_blocks(block, Gn.data, Rn)
    blocked = iter(out)
    return [every if m == ref.n else next(blocked) for m in kept]


def _kept_sums(sims: np.ndarray, thr: np.ndarray, self_cells, data: np.ndarray,
               weighted: bool) -> np.ndarray:
    """Row i's w @ data[cols] over cols = {j : sims[i, j] >= thr[i]} less
    its self cells, ascending, with w = sims[i, cols] if weighted, else 1.

    Rows with equally many kept columns run as batched matmuls over
    _row_blocks pieces of about _PARTITION_CELLS gathered cells, one
    vector-matrix product per row, so each row's bits are a function of
    its kept columns alone, not of the block, the piece or its neighbours.
    The matmul bypasses _mm and stays on one BLAS thread only because
    _map_blocks holds _BLAS_PIN around the whole pass that calls this.
    """
    n_cols, d = sims.shape[1], data.shape[1]
    keep = sims >= thr
    keep[self_cells] = False
    cells = np.flatnonzero(keep)
    counts = np.count_nonzero(keep, axis=1)
    del keep  # freed before any piece is gathered
    ends = np.cumsum(counts)
    out = np.empty((len(sims), d))
    # the distinct counts, without np.unique, which imports numpy.ma
    for m in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == m)
        group_cells = cells[(ends[group] - m)[:, None] + np.arange(m)]
        w = sims.take(group_cells) if weighted else np.ones(group_cells.shape)
        group_cols = group_cells % n_cols
        for piece in _row_blocks(len(group), m * d, _PARTITION_CELLS):
            out[group[piece]] = np.matmul(w[piece, None, :], data[group_cols[piece]])[:, 0]
    return out


def _every_column_aggregate(Gn: np.ndarray, Rn: np.ndarray, R: np.ndarray, variant: str, self_cells):
    # An adjacency that keeps every column is S = c + w * clip(Gn @ Rn.T):
    # full is w = 1, c = -mu, mu the mean cosine; local w = 1, c = 0; avgpool
    # w = 0, c = 1.  So S @ R is the d x d map w * Gn @ (Rn.T @ R) + c * colsum(R),
    # with no N x N_ref matrix, less (w * clip(Gn_i . Rn_j) + c) * R_j per self
    # cell (i, j).  The map's cosines are unclipped, so it differs from the
    # clipped dense product only where rounding pushed a cosine past +-1.
    w, c = (0.0, 1.0) if variant == "avgpool" else (1.0, 0.0)
    if variant == "full":
        c = -float((Gn.mean(axis=0) * Rn.mean(axis=0)).sum())
    agg = _mm(Gn, _mm(Rn.T, R)) if w else np.zeros((len(Gn), R.shape[1]))
    agg += c * R.sum(axis=0)
    rows, cols = self_cells
    cos = np.clip(np.einsum("ij,ij->i", Gn[rows], Rn[cols]), -1.0, 1.0)
    agg[rows] -= (w * cos + c)[:, None] * R[cols]
    return agg
