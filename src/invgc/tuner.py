"""Hyperparameter grid search and one-dimensional ablation sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._choices import SWEEP_PARAMS
from .core import InvGCConfig, _dual_over_steps, inverse_convolve_dual
from .embio import EmbeddingSet, _check_count, _check_share
from .retrieval import RetrievalReport, _Relevance, compute_metrics

DEFAULT_R_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


@dataclass
class TuneResult:
    best_cfg: InvGCConfig
    best_report: RetrievalReport
    grid_trace: list  # (cfg, R@1, R@5, MnR) per grid cell


@dataclass
class SweepCurve:
    param_name: str
    points: list  # (param_value, R@1, degeneration score) per value


def grid_search(
    valQ: EmbeddingSet,
    valG: EmbeddingSet,
    refG: EmbeddingSet,
    refQ: EmbeddingSet,
    rel: dict,
    variant: str = "full",
    rg_grid=None,
    rq_grid=None,
    k_percent: float = InvGCConfig.k_percent,
    p_percent: float = InvGCConfig.p_percent,
    recall_ks=(1, 5, 10),
) -> TuneResult:
    """Exhaustive search over (r_g, r_q) pairs.

    Objective: maximize R@1; ties broken by higher R@5, then lower MnR,
    then smaller r_g + r_q, then first cell in grid order.
    """
    rg_grid = list(DEFAULT_R_GRID if rg_grid is None else rg_grid)
    rq_grid = list(DEFAULT_R_GRID if rq_grid is None else rq_grid)
    if not rg_grid or not rq_grid:
        raise ValueError("grids must be non-empty")
    ks = sorted(set(recall_ks) | {1, 5})
    cells = [
        InvGCConfig(variant, rg, rq, k_percent, p_percent) for rg in rg_grid for rq in rq_grid
    ]
    correct = _dual_over_steps(valG, refG, refQ, cells)
    resolved = _Relevance(valQ, valG.ids, rel)
    trace = []
    best = None
    best_key = None
    for cfg in cells:
        report = compute_metrics(resolved.rank(correct(cfg)), ks)
        r1, r5 = report.recall_at[1], report.recall_at[5]
        mnr = report.mean_rank
        trace.append((cfg, r1, r5, mnr))
        key = (r1, r5, -mnr, -(cfg.r_g + cfg.r_q))
        if best_key is None or key > best_key:
            best, best_key = (cfg, report), key
    return TuneResult(best_cfg=best[0], best_report=best[1], grid_trace=trace)


def subsample_reference(refG: EmbeddingSet, refQ: EmbeddingSet, ratio: float, seed: int):
    """Uniformly sample ceil(ratio * N) rows from each reference set.

    Selected indices are sorted so the surviving rows keep their original
    relative order; the draw is deterministic for a fixed seed.
    """
    _check_share("ratio", ratio, 1)
    seed = _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)

    def pick(es: EmbeddingSet) -> EmbeddingSet:
        m = max(1, math.ceil(ratio * es.n))
        idx = np.sort(rng.choice(es.n, size=m, replace=False))
        return EmbeddingSet([es.ids[i] for i in idx], es.data[idx])

    return pick(refG), pick(refQ)


def sweep_param(
    base_cfg: InvGCConfig,
    param: str,
    values,
    valQ: EmbeddingSet,
    valG: EmbeddingSet,
    refG: EmbeddingSet,
    refQ: EmbeddingSet,
    rel: dict,
    seed: int = 0,
) -> SweepCurve:
    """Evaluate one parameter over a value list, all else held fixed.

    Emits (value, R@1, degeneration score of the corrected gallery) per
    point, sorted by value.  param "ratio" subsamples both reference
    sets; the other params override the corresponding config field.
    Sweeps over a step size or k share one pass per reference set.
    """
    # imported here, so that tune does not load diagnostics
    from .diagnostics import degeneration_score

    if param not in SWEEP_PARAMS:
        raise ValueError(f"param must be one of {SWEEP_PARAMS}, got {param!r}")
    if param == "k" and base_cfg.variant != "local":
        # Only the local variant reads k_percent: any other gives a flat curve.
        raise ValueError(f"param 'k' needs variant 'local', got {base_cfg.variant!r}")
    if param in ("k", "ratio") and base_cfg.r_g == base_cfg.r_q == 0:
        # Zero steps leave every point the uncorrected gallery: a flat curve.
        raise ValueError(f"param {param!r} needs a nonzero step: set --rg or --rq")
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("values must be non-empty")
    if param == "ratio":
        corrections = (
            inverse_convolve_dual(valG, *subsample_reference(refG, refQ, v, seed), base_cfg)
            for v in values
        )
    else:
        field = {"rg": "r_g", "rq": "r_q", "k": "k_percent"}[param]
        cfgs = [replace(base_cfg, **{field: v}) for v in values]
        correct = _dual_over_steps(valG, refG, refQ, cfgs)
        corrections = (correct(c) for c in cfgs)
    resolved = _Relevance(valQ, valG.ids, rel)
    points = []
    for v, corrected in zip(values, corrections):
        r1 = compute_metrics(resolved.rank(corrected), (1,)).recall_at[1]
        points.append((v, r1, degeneration_score(corrected)))
    return SweepCurve(param_name=param, points=points)
