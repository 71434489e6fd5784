"""Acceptance suite: twelve end-to-end checks, one verdict line each.

Each test prints "criterion NN <label>: PASS|FAIL" so a log scrape can
recover the verdict table; run with -s (or -rA) to see the lines for
passing tests too.  The checks cover the cap-geometry guarantees, the
convolution oracle, the synthetic-dataset effect directions, the metric
definitions, and byte-level CLI determinism.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from invgc.core import InvGCConfig, VARIANTS, forward_convolve, inverse_convolve_dual
from invgc.diagnostics import degeneration_score
from invgc.embio import EmbeddingSet
from invgc.retrieval import compute_metrics, evaluate, rank_queries
from invgc.simgraph import (
    adjacency_binary,
    adjacency_full,
    adjacency_local,
    cosine_similarity_matrix,
    unit_rows,
)
from invgc.synth import ConeConfig, generate_cone_dataset
from invgc.theory import (
    cap_fraction_exact,
    cap_fraction_mc,
    check_corollary,
    check_lemma2,
    check_thm1_bounds,
    check_thm3_bounds,
    sample_corollary_pairs,
)
from invgc.tuner import grid_search

B_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
N_GRID = list(range(2, 17))


@contextmanager
def verdict(num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


@lru_cache(maxsize=1)
def default_run():
    """Default synthetic dataset plus both tuned variants, shared across
    the directional criteria so the grid search runs once."""
    G, Q, refG, refQ, rel = generate_cone_dataset(ConeConfig())
    baseline_eval = evaluate(Q, G, rel)
    t0 = time.perf_counter()
    tuned_full = grid_search(Q, G, refG, refQ, rel, variant="full")
    tuned_local = grid_search(Q, G, refG, refQ, rel, variant="local", k_percent=1.0)
    tune_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        G=G, Q=Q, refG=refG, refQ=refQ, rel=rel,
        baseline_score=degeneration_score(G),
        baseline_eval=baseline_eval,
        tuned_full=tuned_full,
        tuned_local=tuned_local,
        tune_seconds=tune_seconds,
    )


def test_criterion_01_two_sided_cap_bounds_hold_on_the_grid():
    with verdict(1, "two-sided cap bounds on the full grid"):
        t0 = time.perf_counter()
        for n in N_GRID:
            for b in B_GRID:
                c = check_thm3_bounds(n, b)
                assert c.holds, (n, b)
                assert c.lower_bound < c.exact_fraction < c.upper_bound
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"grid took {elapsed:.3f} s"


def test_criterion_02_beta_route_matches_closed_form_oracles():
    with verdict(2, "exact fractions vs closed-form oracles"):
        b2 = math.sqrt(2.0) / 2.0
        b3 = math.sqrt(3.0) / 2.0
        assert abs(cap_fraction_exact(2, b2) - oracles.cap_fraction_2d(b2)) <= 1e-10
        assert abs(cap_fraction_exact(3, b3) - oracles.cap_fraction_3d(b3)) <= 1e-10
        assert abs(cap_fraction_exact(3, b3) - 5.0 / 32.0) <= 1e-10
        # the 1/4 sometimes quoted at b = sqrt(2)/2 is the boundary arc
        # fraction; the solid fraction asserted above is smaller
        assert abs(oracles.arc_fraction_2d(b2) - 0.25) <= 1e-12
        for b in B_GRID:
            assert abs(cap_fraction_exact(2, b) - oracles.cap_fraction_2d(b)) <= 1e-10
            assert abs(cap_fraction_exact(3, b) - oracles.cap_fraction_3d(b)) <= 1e-10


def test_criterion_03_monte_carlo_agrees_within_four_sigma():
    with verdict(3, "Monte Carlo within 4 sigma of exact"):
        t0 = time.perf_counter()
        for n in (2, 5, 10):
            for b in (0.3, 0.6, 0.9):
                exact = cap_fraction_exact(n, b)
                est, err = cap_fraction_mc(n, b, 1_000_000, seed=13)
                assert err > 0.0
                assert abs(est - exact) <= 4.0 * err, (n, b, est, exact, err)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sampling took {elapsed:.1f} s"


def test_criterion_04_surface_to_volume_ratio_is_the_dimension():
    with verdict(4, "surface-to-volume ratio equals n"):
        for n in N_GRID:
            c = check_lemma2(n)
            assert c.holds
            assert abs(c.exact_fraction - n) <= 1e-12


def test_criterion_05_ratio_bound_on_sampled_radius_pairs():
    with verdict(5, "cap-fraction ratio bound on sampled pairs"):
        pairs = sample_corollary_pairs(N_GRID, B_GRID, 200, seed=13)
        assert len(pairs) >= 200
        for n, b1, b2 in pairs:
            assert check_corollary(n, b1, b2).holds, (n, b1, b2)


def test_criterion_06_wide_lower_bound_fails_at_n3_b_half(cli_env):
    with verdict(6, "wide lower bound fails at (3, 0.5)"):
        c = check_thm1_bounds(3, 0.5)
        assert c.lower_bound == 0.015625
        assert c.exact_fraction < c.lower_bound
        assert not c.holds
        assert abs(c.exact_fraction - 0.012871) < 5e-5
        # the report surface shows the same verdict
        proc = subprocess.run(
            [
                sys.executable, "-m", "invgc", "verify-theory",
                "--n", "3", "--b", "0.5,0.9", "--include-thm1",
            ],
            env=cli_env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rows = [line.split("\t") for line in proc.stdout.splitlines()]
        bad = [r for r in rows if r[0] == "thm1" and r[2] == "0.5"]
        assert len(bad) == 1
        assert bad[0][7] == "false"
        assert float(bad[0][3]) < float(bad[0][5]) == 0.015625


def test_criterion_07_dual_update_matches_the_row_oracle():
    with verdict(7, "matrix update equals per-row oracle"):
        rng = np.random.default_rng(71)
        for trial in range(50):
            d = int(rng.integers(2, 9))
            n_g = int(rng.integers(2, 17))
            G = EmbeddingSet([f"g{i}" for i in range(n_g)], rng.standard_normal((n_g, d)))
            n_q = int(rng.integers(2, 33))
            refQ = EmbeddingSet([f"q{i}" for i in range(n_q)], rng.standard_normal((n_q, d)))
            if trial % 7 == 0:
                refG = G
            else:
                n_r = int(rng.integers(2, 33))
                refG = EmbeddingSet(
                    [f"r{i}" for i in range(n_r)], rng.standard_normal((n_r, d))
                )
            for variant in VARIANTS:
                cfg = InvGCConfig(
                    variant,
                    float(rng.uniform(0.0, 1.0)),
                    float(rng.uniform(0.0, 1.0)),
                    float(rng.uniform(1.0, 100.0)),
                    float(rng.uniform(1.0, 100.0)),
                )
                got = inverse_convolve_dual(G, refG, refQ, cfg)
                want = oracles.invgc_dual(
                    G.ids, G.data.tolist(),
                    refG.ids, refG.data.tolist(),
                    refQ.ids, refQ.data.tolist(),
                    variant, cfg.r_g, cfg.r_q, cfg.k_percent, cfg.p_percent,
                )
                diff = np.abs(got.data - np.asarray(want)).max()
                assert diff <= 1e-9, (trial, variant, diff)


def test_criterion_08_identity_cases_are_exact():
    with verdict(8, "zero-step identity and full-width adjacencies"):
        # keep normalized rows whose row-wise norm lands exactly on 1.0,
        # so the zero-step path has no rounding room at all; the check
        # uses the same axis-wise reduction the update itself applies
        rng = np.random.default_rng(83)
        pool = rng.standard_normal((400, 6))
        U = pool / np.linalg.norm(pool, axis=1)[:, None]
        rows = U[np.linalg.norm(U, axis=1) == 1.0][:24].copy()
        assert rows.shape[0] == 24
        assert_array_equal(np.linalg.norm(rows, axis=1), np.ones(24))
        G = EmbeddingSet([f"g{i}" for i in range(24)], rows)
        refG = EmbeddingSet([f"r{i}" for i in range(30)], rng.standard_normal((30, 6)))
        refQ = EmbeddingSet([f"q{i}" for i in range(28)], rng.standard_normal((28, 6)))
        for variant in VARIANTS:
            out = inverse_convolve_dual(G, refG, refQ, InvGCConfig(variant, 0.0, 0.0))
            assert out.ids == G.ids
            assert_array_equal(out.data, G.data)
        sim = cosine_similarity_matrix(G, refG)
        assert_array_equal(
            adjacency_local(sim, 100.0).values,
            adjacency_full(sim, center=False).values,
        )
        assert_array_equal(adjacency_binary(sim, 100.0).values, np.ones((24, 30)))


def test_criterion_09_correction_reduces_mean_nn_similarity():
    with verdict(9, "inverse update reduces MeanSim@1, forward raises it"):
        run = default_run()
        base = run.baseline_score
        for res in (run.tuned_full, run.tuned_local):
            corrected = inverse_convolve_dual(run.G, run.refG, run.refQ, res.best_cfg)
            assert degeneration_score(corrected) < base, res.best_cfg
        Gn = EmbeddingSet(list(run.G.ids), unit_rows(run.G.data, run.G.ids))
        S = adjacency_full(cosine_similarity_matrix(Gn, run.refG), center=False)
        aggregated = forward_convolve(Gn, S, run.refG)
        assert degeneration_score(aggregated) > base


def test_criterion_10_tuned_correction_improves_recall():
    with verdict(10, "tuned correction improves R@1"):
        run = default_run()
        base_r1 = run.baseline_eval.recall_at[1]
        best_r1 = {
            "full": run.tuned_full.best_report.recall_at[1],
            "local": run.tuned_local.best_report.recall_at[1],
        }
        assert best_r1["full"] >= base_r1
        assert best_r1["local"] >= base_r1
        assert max(best_r1.values()) > base_r1
        assert run.tune_seconds < 60.0, f"tuning took {run.tune_seconds:.1f} s"


def test_criterion_11_metric_definitions_and_invariances():
    with verdict(11, "metric values, monotonicity, scale invariance"):
        rep = compute_metrics({"a": 1, "b": 3, "c": 7}, (1, 5, 10))
        assert_allclose(rep.recall_at[1], 100.0 / 3.0, atol=1e-9)
        assert_allclose(rep.recall_at[5], 200.0 / 3.0, atol=1e-9)
        assert_allclose(rep.recall_at[10], 100.0, atol=1e-9)
        assert_allclose(rep.median_rank, 3.0, atol=1e-9)
        assert_allclose(rep.mean_rank, 11.0 / 3.0, atol=1e-9)
        rng = np.random.default_rng(111)
        for _ in range(100):
            ranks = {
                f"q{i}": int(rng.integers(1, 40))
                for i in range(int(rng.integers(1, 25)))
            }
            r = compute_metrics(ranks, range(1, 41))
            series = [r.recall_at[k] for k in range(1, 41)]
            assert all(x <= y for x, y in zip(series, series[1:]))
        Q = EmbeddingSet([f"q{i}" for i in range(8)], rng.standard_normal((8, 5)))
        G = EmbeddingSet([f"g{i}" for i in range(14)], rng.standard_normal((14, 5)))
        rel = {f"q{i}": {f"g{i}"} for i in range(8)}
        base_ranks = rank_queries(Q, G, rel)
        Qs = EmbeddingSet(Q.ids, Q.data * rng.uniform(0.2, 7.0, size=(8, 1)))
        Gs = EmbeddingSet(G.ids, G.data * rng.uniform(0.2, 7.0, size=(14, 1)))
        assert rank_queries(Qs, Gs, rel) == base_ranks


def _cli_session(workdir, threads, base_env):
    """Run every subcommand once inside workdir; return stdout per
    command plus the byte content of every file left behind."""
    env = dict(base_env)
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = str(threads)
    commands = [
        ["synth", "--items", "24", "--refs", "50", "--dim", "8",
         "--spread", "0.15", "--qnoise", "0.1", "--seed", "5",
         "--out-prefix", "syn"],
        ["diagnose", "--gallery", "syn.gallery.emb", "--topk", "1,5",
         "--bins", "10", "--dump-hist", "hist.tsv"],
        ["apply", "--gallery", "syn.gallery.emb",
         "--ref-gallery", "syn.refg.emb", "--ref-query", "syn.refq.emb",
         "--variant", "local", "--k", "4", "--rg", "0.05", "--rq", "0.1",
         "--out", "corrected.emb"],
        ["eval", "--query", "syn.query.emb", "--gallery", "corrected.emb",
         "--relevance", "syn.rel.tsv", "--recall-at", "1,5,10"],
        ["tune", "--val-query", "syn.query.emb", "--val-gallery", "syn.gallery.emb",
         "--ref-gallery", "syn.refg.emb", "--ref-query", "syn.refq.emb",
         "--relevance", "syn.rel.tsv", "--variant", "full",
         "--rg-grid", "0,0.1", "--rq-grid", "0,0.1", "--trace", "trace.tsv"],
        ["sweep", "--param", "ratio", "--values", "0.5,1", "--seed", "2",
         "--val-query", "syn.query.emb", "--val-gallery", "syn.gallery.emb",
         "--ref-gallery", "syn.refg.emb", "--ref-query", "syn.refq.emb",
         "--relevance", "syn.rel.tsv", "--variant", "avgpool", "--p", "50",
         "--rg", "0.1", "--rq", "0.1"],
        ["verify-theory", "--n", "2:4", "--b", "0.2,0.5",
         "--mc-samples", "70000", "--seed", "13", "--include-thm1"],
    ]
    outputs = []
    for cmd in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "invgc", *cmd],
            cwd=workdir, env=env, capture_output=True,
        )
        assert proc.returncode == 0, (cmd[0], proc.stderr.decode())
        outputs.append((cmd[0], proc.stdout))
    files = {
        p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()
    }
    return outputs, files


def test_criterion_12_cli_is_byte_deterministic_across_threads(tmp_path, cli_env):
    with verdict(12, "byte-identical CLI output across runs and threads"):
        sessions = []
        for threads in (1, 4):
            for rerun in (0, 1):
                d = tmp_path / f"t{threads}r{rerun}"
                d.mkdir()
                sessions.append(_cli_session(d, threads, cli_env))
        ref_out, ref_files = sessions[0]
        assert len(ref_files) >= 11  # 4 payloads + 4 sidecars + rel/hist/trace
        for outputs, files in sessions[1:]:
            assert [name for name, _ in outputs] == [name for name, _ in ref_out]
            for (name, blob), (_, ref_blob) in zip(outputs, ref_out):
                assert blob == ref_blob, f"stdout drift in {name}"
            assert files.keys() == ref_files.keys()
            for fname in ref_files:
                assert files[fname] == ref_files[fname], f"file drift in {fname}"
