"""Grid search, reference subsampling, and ablation sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from invgc import core, diagnostics, retrieval, simgraph
from invgc.core import InvGCConfig, inverse_convolve_dual
from invgc.diagnostics import degeneration_score
from invgc.embio import EmbeddingSet
from invgc.retrieval import evaluate
from invgc.synth import ConeConfig, generate_cone_dataset
from invgc.tuner import (
    DEFAULT_R_GRID,
    grid_search,
    subsample_reference,
    sweep_param,
)


def small_dataset(seed=3):
    cfg = ConeConfig(n_items=24, n_ref=60, dim=8, seed=seed)
    return generate_cone_dataset(cfg)


def test_grid_trace_covers_every_cell_in_row_major_order():
    G, Q, refG, refQ, rel = small_dataset()
    rg = [0.0, 0.1]
    rq = [0.0, 0.05, 0.2]
    res = grid_search(Q, G, refG, refQ, rel, rg_grid=rg, rq_grid=rq)
    assert len(res.grid_trace) == 6
    seen = [(c.r_g, c.r_q) for c, _, _, _ in res.grid_trace]
    assert seen == [(g, q) for g in rg for q in rq]


def test_best_cell_maximizes_the_documented_key():
    G, Q, refG, refQ, rel = small_dataset()
    res = grid_search(
        Q, G, refG, refQ, rel, rg_grid=[0.0, 0.05, 0.2], rq_grid=[0.0, 0.1]
    )
    keys = [
        (r1, r5, -mnr, -(c.r_g + c.r_q))
        for c, r1, r5, mnr in res.grid_trace
    ]
    best_key = (
        res.best_report.recall_at[1],
        res.best_report.recall_at[5],
        -res.best_report.mean_rank,
        -(res.best_cfg.r_g + res.best_cfg.r_q),
    )
    assert best_key == max(keys)


def test_all_equal_cells_fall_back_to_smallest_step_sum():
    # a perfectly separable gallery ties every cell at R@1 = 100, so the
    # step-sum tie break must pick (0, 0) wherever it sits in the grid
    G = EmbeddingSet(["g0", "g1", "g2"], np.eye(3))
    Q = EmbeddingSet(["q0", "q1", "q2"], np.eye(3))
    rng = np.random.default_rng(61)
    refG = EmbeddingSet(["r0", "r1"], rng.standard_normal((2, 3)))
    refQ = EmbeddingSet(["s0", "s1"], rng.standard_normal((2, 3)))
    rel = {f"q{i}": {f"g{i}"} for i in range(3)}
    res = grid_search(
        Q, G, refG, refQ, rel,
        rg_grid=[0.05, 0.0, 0.01], rq_grid=[0.02, 0.0],
    )
    trace_r1 = [r1 for _, r1, _, _ in res.grid_trace]
    assert trace_r1 == [100.0] * 6
    assert (res.best_cfg.r_g, res.best_cfg.r_q) == (0.0, 0.0)


def test_grid_search_rejects_empty_grids():
    G, Q, refG, refQ, rel = small_dataset()
    with pytest.raises(ValueError, match="grids must be non-empty"):
        grid_search(Q, G, refG, refQ, rel, rg_grid=[], rq_grid=[0.1])


def test_default_grid_is_used_when_no_grid_is_given():
    G, Q, refG, refQ, rel = small_dataset()
    res = grid_search(Q, G, refG, refQ, rel, recall_ks=(1,))
    assert len(res.grid_trace) == len(DEFAULT_R_GRID) ** 2
    # recall keys always include 1 and 5 for the objective
    assert sorted(res.best_report.recall_at) == [1, 5]


def test_subsample_sizes_and_relative_order():
    rng = np.random.default_rng(62)
    refG = EmbeddingSet([f"rg{i}" for i in range(37)], rng.standard_normal((37, 4)))
    refQ = EmbeddingSet([f"rq{i}" for i in range(21)], rng.standard_normal((21, 4)))
    sG, sQ = subsample_reference(refG, refQ, 0.25, seed=9)
    assert sG.n == 10 and sQ.n == 6  # ceil(0.25 * n)
    for sub in (sG, sQ):
        orig = [int(i[2:]) for i in sub.ids]
        assert orig == sorted(orig)
    again_G, again_Q = subsample_reference(refG, refQ, 0.25, seed=9)
    assert again_G.ids == sG.ids and again_Q.ids == sQ.ids
    assert_array_equal(again_G.data, sG.data)
    other_G, _ = subsample_reference(refG, refQ, 0.25, seed=10)
    assert other_G.ids != sG.ids


def test_subsample_full_ratio_returns_everything():
    rng = np.random.default_rng(63)
    refG = EmbeddingSet([f"rg{i}" for i in range(8)], rng.standard_normal((8, 3)))
    refQ = EmbeddingSet([f"rq{i}" for i in range(5)], rng.standard_normal((5, 3)))
    sG, sQ = subsample_reference(refG, refQ, 1.0, seed=0)
    assert sG.ids == refG.ids and sQ.ids == refQ.ids
    assert_array_equal(sG.data, refG.data)


def test_subsample_ratio_validation():
    rng = np.random.default_rng(64)
    refG = EmbeddingSet(["a"], rng.standard_normal((1, 2)))
    for ratio in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="ratio must lie in"):
            subsample_reference(refG, refG, ratio, seed=0)


def test_sweep_singleton_matches_a_direct_evaluation():
    G, Q, refG, refQ, rel = small_dataset()
    base = InvGCConfig("full", 0.0, 0.1)
    curve = sweep_param(base, "rg", [0.3], Q, G, refG, refQ, rel)
    assert curve.param_name == "rg"
    (v, r1, ddeg), = curve.points
    assert v == 0.3
    cfg = InvGCConfig("full", 0.3, 0.1)
    corrected = inverse_convolve_dual(G, refG, refQ, cfg)
    assert r1 == evaluate(Q, corrected, rel, (1,)).recall_at[1]
    assert ddeg == degeneration_score(corrected)


def test_sweep_orders_points_by_value():
    G, Q, refG, refQ, rel = small_dataset()
    curve = sweep_param(
        InvGCConfig("full"), "rq", [0.2, 0.0, 0.05], Q, G, refG, refQ, rel
    )
    assert [p[0] for p in curve.points] == [0.0, 0.05, 0.2]


def test_sweep_ratio_routes_through_subsampling():
    G, Q, refG, refQ, rel = small_dataset()
    base = InvGCConfig("full", 0.05, 0.05)
    curve = sweep_param(base, "ratio", [0.5], Q, G, refG, refQ, rel, seed=5)
    sG, sQ = subsample_reference(refG, refQ, 0.5, seed=5)
    corrected = inverse_convolve_dual(G, sG, sQ, base)
    (v, r1, ddeg), = curve.points
    assert v == 0.5
    assert r1 == evaluate(Q, corrected, rel, (1,)).recall_at[1]
    assert ddeg == degeneration_score(corrected)


def test_sweep_k_changes_the_local_threshold():
    G, Q, refG, refQ, rel = small_dataset()
    base = InvGCConfig("local", 0.1, 0.1, k_percent=1.0)
    curve = sweep_param(base, "k", [2.0, 50.0], Q, G, refG, refQ, rel)
    cfg50 = InvGCConfig("local", 0.1, 0.1, k_percent=50.0)
    corrected = inverse_convolve_dual(G, refG, refQ, cfg50)
    assert_allclose(curve.points[1][2], degeneration_score(corrected), atol=0)


def test_sweep_validation():
    G, Q, refG, refQ, rel = small_dataset()
    with pytest.raises(ValueError, match="param must be one of"):
        sweep_param(InvGCConfig("full"), "rho", [0.1], Q, G, refG, refQ, rel)
    with pytest.raises(ValueError, match="values must be non-empty"):
        sweep_param(InvGCConfig("full"), "rg", [], Q, G, refG, refQ, rel)


@pytest.mark.parametrize("variant", ["full", "avgpool"])
def test_a_k_sweep_needs_the_local_variant(variant):
    # no other variant reads k_percent, so its curve would be flat
    G, Q, refG, refQ, rel = small_dataset()
    with pytest.raises(ValueError, match=f"param 'k' needs variant 'local', got '{variant}'"):
        sweep_param(InvGCConfig(variant), "k", [0.5, 5.0], Q, G, refG, refQ, rel)


@pytest.mark.parametrize("param, variant", [("k", "local"), ("ratio", "avgpool")])
def test_a_k_or_ratio_sweep_needs_a_nonzero_step(param, variant):
    # at r_g = r_q = 0 every point is the uncorrected gallery; one step suffices
    G, Q, refG, refQ, rel = small_dataset()
    with pytest.raises(ValueError, match=f"param '{param}' needs a nonzero step: set --rg or --rq"):
        sweep_param(InvGCConfig(variant), param, [0.5, 1.0], Q, G, refG, refQ, rel)
    curve = sweep_param(InvGCConfig(variant, 0.0, 0.1), param, [0.5, 1.0], Q, G, refG, refQ, rel)
    assert [v for v, _, _ in curve.points] == [0.5, 1.0]


def test_every_grid_cell_equals_the_dual_update_for_its_config(monkeypatch):
    G, Q, _, refQ, rel = small_dataset(seed=4)
    seen = []
    rank = retrieval._Relevance.rank

    def recording_rank(resolved, Gs):
        seen.append(Gs)
        return rank(resolved, Gs)

    monkeypatch.setattr(retrieval._Relevance, "rank", recording_rank)
    for variant in ("full", "local", "avgpool"):
        seen.clear()
        # refG = G exercises the self-pair exclusion; the repeated value
        # must reuse its cached half and still match
        res = grid_search(
            Q, G, G, refQ, rel, variant=variant,
            rg_grid=[0.0, 0.1, 0.5, 0.1], rq_grid=[0.05, 0.0, 1.0],
            k_percent=20.0, p_percent=30.0,
        )
        assert len(seen) == len(res.grid_trace) == 12
        # evaluate below ranks through the spy too, so the cells are copied
        for corrected, (cfg, r1, r5, mnr) in zip(list(seen), res.grid_trace):
            want = inverse_convolve_dual(G, G, refQ, cfg)
            assert corrected.ids == want.ids
            assert_array_equal(corrected.data, want.data)
            report = evaluate(Q, want, rel, (1, 5, 10))
            assert (r1, r5, mnr) == (
                report.recall_at[1], report.recall_at[5], report.mean_rank
            )


def _count_similarity_passes(monkeypatch) -> list:
    # one call of the row-block map is one pass over a similarity
    calls = []
    original = simgraph._map_blocks

    def counting_map(fn, rows, cols, **kw):
        calls.append((len(rows), len(cols)))
        return original(fn, rows, cols, **kw)

    for module in (simgraph, core, retrieval, diagnostics):
        monkeypatch.setattr(module, "_map_blocks", counting_map)
    return calls


def test_grid_search_builds_each_similarity_matrix_once(monkeypatch):
    # two reference similarities at most, then one ranking per cell
    G, Q, refG, refQ, rel = small_dataset()
    calls = _count_similarity_passes(monkeypatch)
    for variant in ("full", "local", "avgpool"):
        calls.clear()
        res = grid_search(Q, G, refG, refQ, rel, variant=variant)
        cells = len(res.grid_trace)
        assert cells == len(DEFAULT_R_GRID) ** 2
        assert cells <= len(calls) <= 2 + cells, (variant, len(calls))


@pytest.mark.parametrize("variant", ["full", "local", "avgpool"])
def test_an_aggregate_that_keeps_every_column_takes_no_cosine_pass(variant, monkeypatch):
    # full keeps every column, and local and avgpool do wherever m = N_ref:
    # at 100%, and at 99.95% of 1000 columns (m = ceil(999.5) = 1000).  So
    # neither reference set gets a pass, and a search only ranks its cells.
    G, Q, refG, refQ, rel = generate_cone_dataset(ConeConfig(n_items=24, n_ref=1000, dim=8, seed=3))
    calls = _count_similarity_passes(monkeypatch)
    for p in (100.0, 99.95):
        assert simgraph._top_count(p, refG.n) == refG.n
        for ref in (refG, G):
            inverse_convolve_dual(G, ref, refQ, InvGCConfig(variant, 0.1, 0.2, p, p))
        assert calls == []
        res = grid_search(
            Q, G, refG, refQ, rel, variant=variant, rg_grid=[0.0, 0.1], rq_grid=[0.1],
            k_percent=p, p_percent=p,
        )
        assert len(calls) == len(res.grid_trace) == 2
        calls.clear()


@pytest.mark.parametrize("variant", ["full", "local", "avgpool"])
@pytest.mark.parametrize("param", ["rg", "rq"])
def test_step_sweeps_equal_the_dual_update_point_by_point(variant, param):
    G, Q, refG, refQ, rel = small_dataset(seed=5)
    base = InvGCConfig(variant, 0.05, 0.2, k_percent=10.0, p_percent=25.0)
    values = [0.0, 0.3, 0.1]
    curve = sweep_param(base, param, values, Q, G, G, refQ, rel)
    field = "r_g" if param == "rg" else "r_q"
    for (v, r1, ddeg), want_v in zip(curve.points, sorted(values)):
        corrected = inverse_convolve_dual(G, G, refQ, replace(base, **{field: want_v}))
        assert v == want_v
        assert r1 == evaluate(Q, corrected, rel, (1,)).recall_at[1]
        assert ddeg == degeneration_score(corrected)


def test_a_k_sweep_makes_one_correction_pass_per_reference_set(monkeypatch):
    # the cosines do not depend on k, so ten points share the two
    # reference passes; each point then ranks and scores once
    G, Q, refG, refQ, rel = small_dataset()
    calls = _count_similarity_passes(monkeypatch)
    values = [0.5 * i for i in range(1, 11)]
    curve = sweep_param(InvGCConfig("local", 0.1, 0.1), "k", values, Q, G, refG, refQ, rel)
    assert [v for v, _, _ in curve.points] == values
    assert calls.count((G.n, refG.n)) == 2 and refQ.n == refG.n
    assert len(calls) == 2 + 2 * len(values)


def test_a_k_sweep_builds_one_half_per_kept_count_and_step(monkeypatch):
    # 1% and 1.5% of 60 columns keep m = 1, 2% and 3% keep 2, and 99% and
    # 100% keep all 60, so each reference set needs four halves, not seven
    G, Q, refG, refQ, rel = generate_cone_dataset(ConeConfig(n_items=40, n_ref=60, dim=8, seed=5))
    values = [1, 1.5, 2, 3, 50, 99, 100]
    assert [simgraph._top_count(v, n) for n in (refG.n, refQ.n) for v in values] == 2 * [
        1, 1, 2, 2, 30, 60, 60]
    normalized, seen = [], []

    # each half's rows are normalized once, by row_normalize
    def counting_normalize(M, _normalize=core.row_normalize):
        normalized.append(M.shape)
        return _normalize(M)

    def recording_score(Gs):
        seen.append(Gs)
        return degeneration_score(Gs)

    monkeypatch.setattr(core, "row_normalize", counting_normalize)
    monkeypatch.setattr(diagnostics, "degeneration_score", recording_score)
    base = InvGCConfig("local", 0.1, 0.2)
    curve = sweep_param(base, "k", values, Q, G, refG, refQ, rel)
    assert len(normalized) == 2 * 4
    assert len(seen) == len(curve.points) == len(values)
    for (v, _, _), corrected in zip(curve.points, seen):
        want = inverse_convolve_dual(G, refG, refQ, replace(base, k_percent=v))
        assert corrected.ids == want.ids
        assert_array_equal(corrected.data, want.data, err_msg=f"k={v}")


# Only local reads k; a k-sweep on any other variant is refused
# (test_a_k_sweep_needs_the_local_variant).
@pytest.mark.parametrize("variant", ["local"])
def test_every_k_sweep_point_equals_the_dual_update_at_its_k(variant, monkeypatch):
    # a 64-cell budget runs each pass in 2-row blocks, and refG = G puts
    # self pairs in every block; the k values give distinct thresholds,
    # but 100 and 99.5 both keep all 60 columns and share one d x d map
    monkeypatch.setattr(simgraph, "_BLOCK_CELLS", 64)
    G, Q, _, refQ, rel = small_dataset(seed=6)
    assert len(simgraph._pass_blocks(G.n, refQ.n, G.d)) == 12
    seen = []

    def recording_score(Gs):
        seen.append(Gs)
        return degeneration_score(Gs)

    monkeypatch.setattr(diagnostics, "degeneration_score", recording_score)
    base = InvGCConfig(variant, 0.2, 0.05)
    values = [100.0, 1.0, 7.5, 20.0, 3.0, 50.0, 99.5, 9.0, 33.0, 0.5, 12.0]
    curve = sweep_param(base, "k", values, Q, G, G, refQ, rel)
    assert len(seen) == len(curve.points) == len(values)
    for (v, r1, ddeg), corrected in zip(curve.points, seen):
        want = inverse_convolve_dual(G, G, refQ, replace(base, k_percent=v))
        assert corrected.ids == want.ids
        assert_array_equal(corrected.data, want.data)
        assert r1 == evaluate(Q, want, rel, (1,)).recall_at[1]
        assert ddeg == degeneration_score(want)
