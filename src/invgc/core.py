"""Inverse and forward graph convolution updates on embedding sets.

The dual update corrects a gallery G against two reference sets:

    G' = 1/2 * [ norm(G - r_g * S_g @ refG) + norm(G - r_q * S_q @ refQ) ]

where S_g and S_q are adjacencies built independently over G x refG and
G x refQ with the configured variant, and norm() divides each row by its
Euclidean norm.  G is row-normalized on entry so the cosine adjacency
and the subtraction see consistent unit-scale vectors.
"""

from __future__ import annotations

import contextlib
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import simgraph
from ._choices import VARIANTS
from .embio import EmbeddingSet
from .simgraph import (
    Adjacency,
    SimMatrix,
    _PARTITION_CELLS,
    _ZERO_NORM,
    _block_cells,
    _check_dims,
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
                raise StepRangeError(name, r)
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

    Rows with norm below simgraph._ZERO_NORM pass through as all zeros;
    their count is reported via RuntimeWarning rather than aborting the
    batch.  A row whose plain norm overflows is scaled by its max |x| first.
    """
    M, norms = _scaled_norms(M)
    degenerate = norms < _ZERO_NORM
    out = M / np.where(degenerate, 1.0, norms)[:, None]
    out[degenerate] = 0.0
    n_bad = int(np.count_nonzero(degenerate))
    if n_bad:
        warnings.warn(
            f"{n_bad} zero-norm rows left unnormalized", RuntimeWarning, stacklevel=2
        )
    return out


class StepError(ValueError):
    """A step r_g or r_q that the update cannot take.  str(e) names the
    config field, e.field; e.named(option) words the same error for the
    option that set the step.  A subclass gives the two wordings as the
    templates field_form and option_form, over {name}, the field or
    option, and {r}, the step."""

    def __init__(self, field: str, r: float):
        super().__init__(self.field_form.format(name=field, r=r))
        self.field, self.r = field, r

    def named(self, option: str) -> str:
        return self.option_form.format(name=option, r=self.r)


class StepRangeError(StepError):
    """A step r that is negative or not finite."""

    field_form = option_form = "{name} must be finite and >= 0, got {r}"


class StepOverflowError(StepError):
    """A step r whose product with the reference aggregate is not finite."""

    field_form = "{name}={r!r} is too large: {name} times the aggregate is not finite"
    option_form = "{name} value {r!r} is too large: the step times the reference aggregate is not finite"


def inverse_convolve_single(X: EmbeddingSet, S: Adjacency, R: EmbeddingSet, r: float) -> EmbeddingSet:
    """X'_i = X_i - r * sum_j S_ij R_j, without normalization."""
    _check_dims(X.d, R.d)
    if S.values.shape != (X.n, R.n):
        raise ValueError(f"adjacency shape {S.values.shape} does not match {X.n} x {R.n}")
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


def _kept_count(cfg: InvGCConfig, n: int) -> int:
    # m, the columns of an n-column row that cfg's adjacency keeps: all for full.
    percent = {"local": cfg.k_percent, "avgpool": cfg.p_percent}.get(cfg.variant)
    return n if percent is None else _top_count(percent, n)


def _dual_over_steps(G, refG, refQ, cfgs):
    """inverse_convolve_dual(G, refG, refQ, c) as a function of c, for the
    configs c in cfgs, which share a variant and may differ in r_g, r_q
    and the variant's percent.

    The aggregates do not depend on the steps, and their cosines not on
    the kept count m, so each reference set gets one pass for all of
    cfgs, and each half norm(Gn - r * A) is computed once per distinct
    (m, step); a call only averages two halves.  Each aggregate is
    dropped once its last half is built.

    Everything that can print or fail runs on the calling thread, in one
    thread's order: the g half, then the q half's steps.  On two CPUs or
    more only the q half's aggregate pass runs beside the g half, on a
    thread of its own, each pass on half of _worker_count() workers.
    That pass is quiet: a floating-point event that the caller's
    np.errstate would report is raised there, and any error drops it.
    Then it runs again in its turn, after the g half, under the caller's
    modes.
    """
    _check_dims(G.d, refG.d, refQ.d)
    Gn = EmbeddingSet(G.ids, unit_rows(G.data, G.ids))

    def kept_steps(ref, field):  # {m: {r: None}}, the distinct (m, step) pairs
        steps = {}
        for c in cfgs:
            steps.setdefault(_kept_count(c, ref.n), {})[getattr(c, field)] = None
        return steps

    def aggregate(ref, field, workers=None):
        return _aggregate(Gn, ref, cfgs[0].variant, list(kept_steps(ref, field)), workers)

    def half(ref, field, aggs):
        out = {}
        for m, rs in kept_steps(ref, field).items():
            A = aggs.pop(0)  # the only reference left, dropped by the next pop
            for r in rs:
                with np.errstate(over="ignore"):
                    step = r * A
                if not np.isfinite(step).all():
                    raise StepOverflowError(field, r)
                out[m, r] = row_normalize(np.subtract(Gn.data, step, out=step))
        return out

    workers = simgraph._worker_count() // 2  # per pass when two run; 0 on one CPU
    strict = {kind: "ignore" if mode == "ignore" else "raise" for kind, mode in np.geterr().items()}

    def quiet_q_pass():  # refQ's aggregates, or None where they would print or fail
        with contextlib.suppress(Exception), np.errstate(**strict):
            return aggregate(refQ, "r_q", workers)

    def g_pass():
        return half(refG, "r_g", aggregate(refG, "r_g", workers or None))

    g_half, q_aggs = _side_by_side(g_pass, quiet_q_pass) if workers else (g_pass(), None)
    q_half = half(refQ, "r_q", q_aggs if q_aggs is not None else aggregate(refQ, "r_q"))
    return lambda c: EmbeddingSet(
        G.ids, 0.5 * (g_half[_kept_count(c, refG.n), c.r_g] + q_half[_kept_count(c, refQ.n), c.r_q])
    )


def _side_by_side(first, second) -> tuple:
    """(first(), second()), second on a thread of its own, which has
    ended when this returns or raises.  second must not raise."""
    done = []
    t = threading.Thread(target=lambda: done.append(second()))
    t.start()
    try:
        value = first()
    finally:
        t.join()
    return value, done[0]


_GATHER_SHARE = 1 / 32
"""Largest share m / N_ref of a row that _aggregate sums from gathered rows.

Measured per row block on one thread of a 2.1 GHz Xeon, at N_ref 1000
and 5000: on 2**18-cell blocks at d 8 to 256, at m / N_ref = 1/32 the
gather takes 0.64 to 0.93 of the masked GEMM's time, at 1/16 it takes
1.05 to 1.44.  On the wider blocks of d 128 and 256 (2**19 and 2**20
cells) it takes 0.58 to 0.77 at 1/32 and 0.92 to 1.61 at 1/16.  Keeping
every column, as avgpool's default p = 100 does, needs no block.
"""


def _aggregate(Gn: EmbeddingSet, ref: EmbeddingSet, variant: str, counts,
               workers: int | None = None) -> list:
    """S @ ref at each kept count m in counts, for variant's adjacency S
    over Gn x ref keeping each row's m largest cosines, ties included,
    self pairs excluded.  workers caps the cosine pass's threads, as in
    _map_blocks.

    Neither the steps nor m enter the cosines, so a search computes this
    once per reference set.  local and avgpool threshold one row block of
    cosines at a time, the rows of build_adjacency's S, with the blocks
    spread over a few threads: each block gets one GEMM and one
    partition.  An m of at most _GATHER_SHARE of the row sums each row's
    kept reference rows (_kept_sums); a wider one masks the block and
    multiplies it by ref.  m = N_ref, full's count, needs only a d x d
    map and no cosine pass.

    The kept rows are gathered with numpy alone: scipy.sparse would cost
    every command about 175 ms of import, more than the gather saves.
    """
    Rn = unit_rows(ref.data, ref.ids)  # for avgpool too: refuses a zero-norm row
    # A point is never its own neighbour, whatever the row order of the sets.
    self_cells = _id_cells(Gn.ids, ref.ids, zip(Gn.ids, Gn.ids))
    every = (_every_column_aggregate(Gn.data, Rn, ref.data, variant, self_cells)
             if ref.n in counts else None)
    blocked = [m for m in counts if m < ref.n]
    out = [np.empty((Gn.n, ref.d)) for _ in blocked]

    def block(b, sims):
        thresholds = _row_thresholds(sims, blocked)[:, :, None]
        _, own = _block_cells(*self_cells, b)
        # One count masks the block in place; several share one copy.
        masked = sims if len(blocked) == 1 else None
        for agg, thr, m in zip(out, thresholds, blocked):
            if m <= _GATHER_SHARE * ref.n:
                agg[b] = _kept_sums(sims, thr, own, ref.data, variant == "local")
                continue
            if masked is None:
                masked = np.empty_like(sims)
            if variant == "local":
                if masked is not sims:
                    np.copyto(masked, sims)
                masked[sims < thr] = 0.0
            else:
                np.greater_equal(sims, thr, out=masked)
            masked[own] = 0.0
            agg[b] = _mm(masked, ref.data)

    if blocked:
        _map_blocks(block, Gn.data, Rn, workers=workers)
    aggs = iter(out)
    return [every if m == ref.n else next(aggs) for m in counts]


def _kept_sums(sims: np.ndarray, thr: np.ndarray, self_cells, data: np.ndarray,
               weighted: bool) -> np.ndarray:
    """Row i's w @ data[cols] over cols = {j : sims[i, j] >= thr[i]} less
    its self cells, ascending, with w = sims[i, cols] if weighted, else 1.

    Rows with equally many kept columns run as batched _mm products over
    _row_blocks pieces of about _PARTITION_CELLS gathered cells, one
    vector-matrix product per row, so each row's bits are a function of
    its kept columns alone, not of the block, the piece or its neighbours.
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
            out[group[piece]] = _mm(w[piece, None, :], data[group_cols[piece]])[:, 0]
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
