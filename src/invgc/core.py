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

from .embio import EmbeddingSet
from .simgraph import (
    Adjacency,
    SimMatrix,
    _check_percent,
    _mm,
    adjacency_binary,
    adjacency_full,
    adjacency_local,
    cosine_similarity_matrix,
    unit_rows,
)

VARIANTS = ("full", "local", "avgpool")


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
    reported via RuntimeWarning rather than aborting the batch.
    """
    M = np.asarray(M, dtype=np.float64)
    norms = np.linalg.norm(M, axis=1)
    degenerate = norms < 1e-12
    n_bad = int(np.count_nonzero(degenerate))
    if n_bad:
        warnings.warn(
            f"{n_bad} zero-norm rows left unnormalized", RuntimeWarning, stacklevel=2
        )
    out = M / np.where(degenerate, 1.0, norms)[:, None]
    out[degenerate] = 0.0
    return out


def _self_pairs(x_ids: list, r_ids: list) -> tuple:
    """(rows, cols) of the operand/reference pairs whose ids are equal.

    A point is never its own neighbor, whatever the row order of the two
    sets; for equal id lists these are the diagonal, in order.
    """
    col = {r: j for j, r in enumerate(r_ids)}
    pairs = [(i, col[x]) for i, x in enumerate(x_ids) if x in col]
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


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
    vals[_self_pairs(X.ids, R.ids)] = 0.0
    return EmbeddingSet(list(X.ids), X.data - r * _mm(vals, R.data))


def forward_convolve(X: EmbeddingSet, S: Adjacency, R: EmbeddingSet) -> EmbeddingSet:
    """X'_i = X_i + sum_j S_ij R_j, the additive aggregation baseline."""
    return inverse_convolve_single(X, S, R, -1.0)


def inverse_convolve_dual(
    G: EmbeddingSet, refG: EmbeddingSet, refQ: EmbeddingSet, cfg: InvGCConfig
) -> EmbeddingSet:
    """Correct G against both reference sets and average the two halves."""
    return _dual_over_steps(G, refG, refQ, cfg, [cfg.r_g], [cfg.r_q])(cfg)


def _dual_over_steps(G, refG, refQ, cfg, rg_values, rq_values):
    """inverse_convolve_dual(G, refG, refQ, c) as a function of c, for
    configs c that differ from cfg at most in r_g (from rg_values) and
    r_q (from rq_values).

    The aggregates do not depend on the steps, so each is computed once,
    and each half norm(Gn - r * A) once per distinct step value; a call
    only averages two halves.
    """
    for ref in (refG, refQ):
        if G.d != ref.d:
            raise ValueError(f"dimension mismatch: {G.d} vs {ref.d}")
    Gn = EmbeddingSet(list(G.ids), unit_rows(G.data, G.ids))

    def halves(ref, rs):
        A = _aggregate(Gn, ref, cfg)
        return {r: row_normalize(Gn.data - r * A) for r in dict.fromkeys(rs)}

    g_half, q_half = halves(refG, rg_values), halves(refQ, rq_values)
    return lambda c: EmbeddingSet(list(G.ids), 0.5 * (g_half[c.r_g] + q_half[c.r_q]))


def _aggregate(Gn: EmbeddingSet, ref: EmbeddingSet, cfg: InvGCConfig) -> np.ndarray:
    """S @ ref for the configured adjacency S over Gn x ref, self pairs excluded.

    The step sizes do not enter, so a search over them computes this once
    per reference set.  local and avgpool build and free a dense adjacency
    per call; full needs only a d x d map.
    """
    if cfg.variant == "full":
        return _full_aggregate(Gn, ref)
    S = build_adjacency(cosine_similarity_matrix(Gn, ref), cfg)
    S.values[_self_pairs(Gn.ids, ref.ids)] = 0.0
    return _mm(S.values, ref.data)


def _full_aggregate(Gn: EmbeddingSet, ref: EmbeddingSet) -> np.ndarray:
    # The centered cosine adjacency is Gn @ Rn.T - mu with the scalar mean
    # mu = mean_rows(Gn) . mean_rows(Rn), so its aggregate is the d x d map
    # Gn @ (Rn.T @ R) minus mu * colsum(R), without the N x N_ref matrix.
    # Each self pair (i, j) then drops its own term (clip(Gn_i . Rn_j) - mu) * R_j.
    Rn = unit_rows(ref.data, ref.ids)
    mu = float((Gn.data.mean(axis=0) * Rn.mean(axis=0)).sum())
    agg = _mm(Gn.data, _mm(Rn.T, ref.data)) - mu * ref.data.sum(axis=0)
    rows, cols = _self_pairs(Gn.ids, ref.ids)
    w = np.clip(np.einsum("ij,ij->i", Gn.data[rows], Rn[cols]), -1.0, 1.0)
    agg[rows] -= (w - mu)[:, None] * ref.data[cols]
    return agg
