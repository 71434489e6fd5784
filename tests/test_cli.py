"""Command-line surface: output formats, exit codes, file artifacts."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from invgc.cli import main
from invgc.core import InvGCConfig, inverse_convolve_dual
from invgc.diagnostics import cross_mean_sim, intra_mean_sim
from invgc.embio import load_embeddings, load_relevance
from invgc.retrieval import evaluate


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    prefix = str(root / "syn")
    rc = main([
        "synth", "--items", "16", "--refs", "40", "--dim", "8",
        "--seed", "3", "--out-prefix", prefix,
    ])
    assert rc == 0
    return {
        "gallery": f"{prefix}.gallery.emb",
        "query": f"{prefix}.query.emb",
        "refg": f"{prefix}.refg.emb",
        "refq": f"{prefix}.refq.emb",
        "rel": f"{prefix}.rel.tsv",
        "root": root,
    }


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_kv(stdout):
    pairs = [line.split("\t") for line in stdout.splitlines()]
    assert all(len(p) == 2 for p in pairs)
    return dict(pairs)


def test_synth_emits_paths_and_writes_all_artifacts(dataset, capsys):
    for key in ("gallery", "query", "refg", "refq", "rel"):
        assert Path(dataset[key]).exists()
    # binary payloads carry an id sidecar each
    for key in ("gallery", "query", "refg", "refq"):
        assert Path(dataset[key] + ".ids").exists()
    G = load_embeddings(dataset["gallery"])
    assert (G.n, G.d) == (16, 8)
    rel = load_relevance(dataset["rel"])
    assert rel == {f"q{i}": {f"g{i}"} for i in range(16)}


def test_diagnose_intra_report_matches_library(dataset, capsys):
    rc, out, _ = run_main(["diagnose", "--gallery", dataset["gallery"]], capsys)
    assert rc == 0
    kv = parse_kv(out)
    assert kv["mode"] == "intra"
    G = load_embeddings(dataset["gallery"])
    rep = intra_mean_sim(G, [1, 10], bins=20)
    assert float(kv["mean_sim"]) == rep.mean_sim
    assert float(kv["mean_sim_at_1"]) == rep.mean_sim_at[1]
    assert float(kv["mean_sim_at_10"]) == rep.mean_sim_at[10]
    assert float(kv["std_sim"]) == rep.std_sim
    assert float(kv["min_sim"]) == rep.min_sim
    assert int(kv["excluded_pairs"]) == 16


def test_diagnose_cross_report_matches_library(dataset, capsys):
    rc, out, _ = run_main(
        [
            "diagnose", "--gallery", dataset["gallery"],
            "--query", dataset["query"], "--relevance", dataset["rel"],
            "--topk", "1,3",
        ],
        capsys,
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["mode"] == "cross"
    G = load_embeddings(dataset["gallery"])
    Q = load_embeddings(dataset["query"])
    rel = load_relevance(dataset["rel"])
    rep = cross_mean_sim(G, Q, rel, [1, 3], bins=20)
    assert float(kv["mean_sim_at_1"]) == rep.mean_sim_at[1]
    assert float(kv["mean_sim_at_3"]) == rep.mean_sim_at[3]
    assert int(kv["excluded_pairs"]) == 16


def test_diagnose_cross_needs_both_query_and_relevance(dataset, capsys):
    rc, _, err = run_main(
        ["diagnose", "--gallery", dataset["gallery"], "--query", dataset["query"]],
        capsys,
    )
    assert rc == 1
    assert "must be given together" in err


def test_diagnose_histogram_dump(dataset, capsys, tmp_path):
    hist = tmp_path / "hist.tsv"
    rc, _, _ = run_main(
        [
            "diagnose", "--gallery", dataset["gallery"],
            "--bins", "5", "--dump-hist", str(hist),
        ],
        capsys,
    )
    assert rc == 0
    lines = hist.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    total = 0
    for line in lines:
        lo, hi, count = line.split("\t")
        assert_allclose(float(hi) - float(lo), 0.4, atol=1e-12)
        total += int(count)
    assert total == 16


def test_apply_writes_the_corrected_gallery(dataset, capsys, tmp_path):
    out_path = tmp_path / "corrected.emb"
    rc, out, _ = run_main(
        [
            "apply", "--gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--variant", "local", "--k", "5", "--rg", "0.05", "--rq", "0.1",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["out"] == str(out_path)
    assert kv["rows"] == "16" and kv["dims"] == "8"
    G = load_embeddings(dataset["gallery"])
    refG = load_embeddings(dataset["refg"])
    refQ = load_embeddings(dataset["refq"])
    cfg = InvGCConfig("local", 0.05, 0.1, k_percent=5.0)
    want = inverse_convolve_dual(G, refG, refQ, cfg)
    got = load_embeddings(out_path)
    assert got.ids == want.ids
    # the file stores float32, so compare after the same narrowing
    assert_array_equal(got.data, want.data.astype(np.float32).astype(np.float64))


def test_apply_flag_variant_pairing_is_enforced(dataset, capsys, tmp_path):
    rc, _, err = run_main(
        [
            "apply", "--gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--variant", "full", "--k", "5", "--rg", "0", "--rq", "0",
            "--out", str(tmp_path / "x.emb"),
        ],
        capsys,
    )
    assert rc == 1
    assert "--k applies only to --variant local" in err
    rc, _, err = run_main(
        [
            "apply", "--gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--variant", "local", "--p", "50", "--rg", "0", "--rq", "0",
            "--out", str(tmp_path / "x.emb"),
        ],
        capsys,
    )
    assert rc == 1
    assert "--p applies only to --variant avgpool" in err


def test_eval_report_matches_library(dataset, capsys):
    rc, out, _ = run_main(
        [
            "eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
            "--relevance", dataset["rel"], "--recall-at", "1,5",
        ],
        capsys,
    )
    assert rc == 0
    kv = parse_kv(out)
    Q = load_embeddings(dataset["query"])
    G = load_embeddings(dataset["gallery"])
    rel = load_relevance(dataset["rel"])
    rep = evaluate(Q, G, rel, (1, 5))
    assert float(kv["R@1"]) == rep.recall_at[1]
    assert float(kv["R@5"]) == rep.recall_at[5]
    assert float(kv["MdR"]) == rep.median_rank
    assert float(kv["MnR"]) == rep.mean_rank


def test_tune_reports_best_cell_and_trace(dataset, capsys, tmp_path):
    trace = tmp_path / "trace.tsv"
    rc, out, _ = run_main(
        [
            "tune", "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--relevance", dataset["rel"], "--variant", "full",
            "--rg-grid", "0,0.1", "--rq-grid", "0,0.05",
            "--trace", str(trace),
        ],
        capsys,
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["variant"] == "full"
    assert "k" not in kv and "p" not in kv
    for key in ("rg", "rq", "R@1", "R@5", "R@10", "MdR", "MnR"):
        assert key in kv
    rows = [line.split("\t") for line in trace.read_text().splitlines()]
    assert len(rows) == 4
    assert all(len(r) == 5 and r[4] == "-" for r in rows)
    assert rows[0][0] == "full,rg=0.0,rq=0.0"
    assert rows[3][0] == "full,rg=0.1,rq=0.05"


def test_tune_local_reports_its_threshold(dataset, capsys):
    rc, out, _ = run_main(
        [
            "tune", "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--relevance", dataset["rel"], "--variant", "local", "--k", "2",
            "--rg-grid", "0", "--rq-grid", "0,0.1",
        ],
        capsys,
    )
    assert rc == 0
    kv = parse_kv(out)
    assert kv["variant"] == "local"
    assert kv["k"] == "2.0"
    assert "p" not in kv


def test_sweep_prints_one_row_per_value(dataset, capsys):
    rc, out, _ = run_main(
        [
            "sweep", "--param", "rq", "--values", "0,0.1",
            "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--relevance", dataset["rel"],
        ],
        capsys,
    )
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0][0] == "rq=0.0" and rows[1][0] == "rq=0.1"
    for r in rows:
        assert len(r) == 5 and r[2] == "-" and r[3] == "-"
        float(r[1])
        float(r[4])


def test_sweep_k_requires_local_variant(dataset, capsys):
    rc, _, err = run_main(
        [
            "sweep", "--param", "k", "--values", "1,5",
            "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
            "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"],
            "--relevance", dataset["rel"],
        ],
        capsys,
    )
    assert rc == 1
    assert "--param k requires --variant local" in err


def test_verify_theory_row_shape(capsys):
    rc, out, _ = run_main(["verify-theory", "--n", "2,3", "--b", "0.3,0.6"], capsys)
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 2 + 4 + 2  # lemma2 rows, thm3 grid, corollary pairs
    assert all(len(r) == 8 for r in rows)
    lemma = [r for r in rows if r[0] == "lemma2"]
    assert [r[2] for r in lemma] == ["-", "-"]
    assert all(r[4] == "-" for r in rows)  # no MC columns without samples
    corollary = [r for r in rows if r[0] == "corollary"]
    assert corollary and all(r[2] == "0.3,0.6" for r in corollary)
    assert all(r[7] == "true" for r in rows)


def test_verify_theory_mc_fills_the_estimate_column(capsys):
    rc, out, _ = run_main(
        ["verify-theory", "--n", "2", "--b", "0.3,0.6", "--mc-samples", "20000"],
        capsys,
    )
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    thm3 = [r for r in rows if r[0] == "thm3"]
    assert thm3 and all(r[4] != "-" for r in thm3)
    for r in thm3:
        assert abs(float(r[4]) - float(r[3])) < 0.05


def test_verify_theory_wide_bounds_reported_and_strict_exit(capsys):
    # at b = 0.5 the wide lower bound exceeds the cap fraction; at 0.9
    # both sides pass, so exactly one row fails
    argv = [
        "verify-theory", "--n", "3", "--b", "0.5,0.9", "--include-thm1",
    ]
    rc, out, err = run_main(argv, capsys)
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    bad = [r for r in rows if r[0] == "thm1" and r[2] == "0.5"]
    assert len(bad) == 1 and bad[0][7] == "false"
    passing = [r for r in rows if r[0] == "thm1" and r[2] == "0.9"]
    assert len(passing) == 1 and passing[0][7] == "true"
    assert "1 of" in err and "failed" in err

    rc, _, _ = run_main(argv + ["--strict"], capsys)
    assert rc == 3


def test_range_specs_are_inclusive_of_the_stop(capsys):
    rc, out, _ = run_main(["verify-theory", "--n", "2:4", "--b", "0.2,0.4"], capsys)
    assert rc == 0
    lemma_ns = [r.split("\t")[1] for r in out.splitlines() if r.startswith("lemma2")]
    assert lemma_ns == ["2", "3", "4"]


def test_usage_errors_exit_one(capsys):
    rc, _, err = run_main(["verify-theory", "--b", "0.5:0.1"], capsys)
    assert rc == 1 and "empty" in err
    rc, _, err = run_main(["verify-theory", "--b", "0.1:0.5:-0.1"], capsys)
    assert rc == 1 and "step must be > 0" in err
    rc, _, err = run_main(["verify-theory", "--n", "2.5"], capsys)
    assert rc == 1 and "expected integers" in err


def test_data_errors_exit_two(dataset, capsys, tmp_path):
    rc, _, err = run_main(
        ["diagnose", "--gallery", str(tmp_path / "missing.emb")], capsys
    )
    assert rc == 2
    rc, _, err = run_main(
        ["diagnose", "--gallery", dataset["gallery"], "--topk", "0"], capsys
    )
    assert rc == 2 and "k values must be positive" in err
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\t1.0\nb\tnan\n", encoding="utf-8")
    rc, _, err = run_main(["diagnose", "--gallery", str(bad)], capsys)
    assert rc == 2 and "non-finite" in err


def test_unknown_arguments_exit_one_via_subprocess(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "frobnicate"],
        env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "eval", "--no-such-flag"],
        env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "invgc"], env=cli_env, capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_console_entry_point_runs(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "verify-theory", "--n", "2", "--b", "0.2,0.6"],
        env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("lemma2\t2\t-\t2.0\t-\t2.0\t2.0\ttrue")


def test_full_correction_is_byte_identical_across_blas_thread_counts(tmp_path, cli_env):
    # 1000 x 32 references is the smallest size tried at which a copy with
    # an unpinned matmul at simgraph._mm fails here: the d x d map's
    # K = 1000 product is then threaded.  apply writes float32 and tune
    # prints rank metrics, which hide last-bit changes, so the sweep's
    # full-precision degeneration scores carry the check.
    def invgc(cwd, env, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "invgc", *argv], cwd=cwd, env=env, capture_output=True
        )
        assert proc.returncode == 0, (argv[0], proc.stderr.decode())
        return proc.stdout

    invgc(tmp_path, cli_env, "synth", "--items", "24", "--refs", "1000", "--dim", "32",
          "--seed", "7", "--out-prefix", "syn")
    sets = [
        "--val-query", "../syn.query.emb", "--val-gallery", "../syn.gallery.emb",
        "--ref-gallery", "../syn.refg.emb", "--ref-query", "../syn.refq.emb",
        "--relevance", "../syn.rel.tsv", "--variant", "full",
    ]
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(cli_env, OPENBLAS_NUM_THREADS=threads)
        stdout = [
            invgc(cwd, env, "apply", "--gallery", "../syn.gallery.emb",
                  "--ref-gallery", "../syn.refg.emb", "--ref-query", "../syn.refq.emb",
                  "--variant", "full", "--rg", "0.1", "--rq", "0.1", "--out", "full.emb"),
            invgc(cwd, env, "tune", *sets, "--rg-grid", "0,0.1,1", "--rq-grid", "0,0.1,1",
                  "--trace", "trace.tsv"),
            invgc(cwd, env, "sweep", "--param", "rg", "--values", "0,0.1,1", *sets, "--rq", "0.1"),
        ]
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == ["full.emb", "full.emb.ids", "trace.tsv"]
    assert runs[0] == runs[1]
