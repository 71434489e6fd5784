"""Command-line surface: output formats, exit codes, file artifacts."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from invgc import diagnostics, embio, simgraph
from invgc.cli import main
from invgc.core import InvGCConfig, StepError, _aggregate, inverse_convolve_dual
from invgc.diagnostics import cross_mean_sim, intra_mean_sim
from invgc.embio import EmbeddingSet, load_embeddings, load_relevance, save_embeddings
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


@pytest.mark.parametrize(("command", "flag", "value"), [
    ("apply", "--k", "0"), ("tune", "--p", "101"), ("sweep", "--k", "nan"),
    ("sweep k", "--values", "0"), ("sweep k", "--values", "101"), ("sweep k", "--values", "nan"),
    ("sweep ratio", "--values", "0"), ("sweep ratio", "--values", "1.5"),
])
def test_a_percent_outside_its_range_is_a_usage_error(command, flag, value, dataset, tmp_path, capsys):
    command, *param = command.split()
    variant = "local" if flag == "--k" or param == ["k"] else "avgpool"
    # a swept k or ratio is checked before any file is read: the gallery is missing
    missing = _val_sets(dataset, dataset["rel"])
    missing[missing.index("--val-gallery") + 1] = str(tmp_path / "missing.emb")
    args = {
        "apply": ["--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
                  "--ref-query", dataset["refq"], "--rg", "0", "--rq", "0", "--out", str(tmp_path / "x.emb")],
        "tune": _val_sets(dataset, dataset["rel"]),
        "sweep": ["--param", *param, "--rg", "0.1", *missing] if param
        else ["--param", "rg", "--values", "0,1", *_val_sets(dataset, dataset["rel"])],
    }[command]
    rc, out, err = run_main([command, *args, "--variant", variant, flag, value], capsys)
    bound = "(0, 1]" if param == ["ratio"] else "(0, 100]"
    assert rc == 1 and out == ""
    assert err == f"invgc {command}: error: {flag} must lie in {bound}, got {float(value)}\n"


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


@pytest.mark.parametrize("radii, thm3_bs", [
    ("0.6,0.3", ["0.6", "0.3"]),
    ("0.3,0.3,0.6", ["0.3", "0.3", "0.6"]),
    ("0.5", ["0.5"]),
])
def test_verify_theory_pairs_the_sorted_distinct_radii(radii, thm3_bs, capsys):
    # a descending or repeated list gets the corollary rows of its sorted
    # distinct radii; a single radius gets none, and every other row
    rc, out, err = run_main(["verify-theory", "--n", "2,3", "--b", radii], capsys)
    assert (rc, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows[:2]] == ["lemma2", "lemma2"]
    assert [r[2] for r in rows if r[0] == "thm3"] == thm3_bs * 2
    corollary = [r for r in rows if r[0] == "corollary"]
    if len(set(thm3_bs)) == 1:
        assert corollary == []
        return
    _, ascending, _ = run_main(["verify-theory", "--n", "2,3", "--b", "0.3,0.6"], capsys)
    want = [r for r in (line.split("\t") for line in ascending.splitlines()) if r[0] == "corollary"]
    assert corollary == want and len(want) == 2


def test_verify_theory_refuses_negative_mc_samples(capsys):
    rc, out, err = run_main(["verify-theory", "--n", "2", "--b", "0.3,0.6", "--mc-samples", "-1"], capsys)
    assert (rc, out) == (2, "")
    assert err == "invgc verify-theory: mc_samples must be >= 0, got -1\n"


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


@pytest.mark.parametrize("argv", [
    ["diagnose", "--gallery", "g.emb", "--topk", "inf"],
    ["eval", "--query", "q.emb", "--gallery", "g.emb", "--relevance", "r.tsv", "--recall-at", "inf"],
    ["verify-theory", "--n", "inf"],
])
def test_an_infinite_integer_is_a_usage_error(argv, capsys):
    rc, out, err = run_main(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err == f"invgc {argv[0]}: error: expected integers, got inf\n"


@pytest.mark.parametrize("spec", ["0:inf", "nan:1", "0:nan", "0:1:nan"])
def test_a_range_with_a_non_finite_part_is_a_bad_range(spec, dataset, cli_env):
    # Such a range once grew its list without end, so the child runs under
    # a time limit and a 1 GB address-space limit.
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "sweep", "--param", "rg", "--values", spec,
         *_val_sets(dataset, dataset["rel"])],
        env=dict(cli_env, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"invgc sweep: error: bad range {spec!r}\n"


@pytest.mark.parametrize("spec", ["0:1e12", "0:1:1e-300", "0:1e6"])
def test_a_range_of_too_many_points_is_a_bad_range(spec, cli_env):
    # Such a range once died in a MemoryError while its list grew, so the
    # child runs under a time limit and a 1 GB address-space limit.
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "verify-theory", "--n", "2", "--b", spec],
        env=dict(cli_env, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"invgc verify-theory: error: bad range {spec!r}\n"


def test_diagnose_checks_bins_before_the_pass(dataset, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(diagnostics, "_map_blocks", lambda *a: calls.append(a))
    for cross in ([], ["--query", dataset["query"], "--relevance", dataset["rel"]]):
        rc, out, err = run_main(["diagnose", "--gallery", dataset["gallery"], *cross, "--bins", "0"], capsys)
        assert rc == 2 and out == ""
        assert err == "invgc diagnose: bins must be >= 1, got 0\n"
    assert calls == []


def test_diagnose_refuses_too_many_bins_before_the_pass(dataset, capsys, monkeypatch):
    # the spies keep a missing check from allocating a billion bins
    calls = []
    monkeypatch.setattr(diagnostics, "_map_blocks", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(diagnostics, "_nn_histogram", lambda *a: calls.append(a))
    for cross in ([], ["--query", dataset["query"], "--relevance", dataset["rel"]]):
        argv = ["diagnose", "--gallery", dataset["gallery"], *cross, "--bins", "1000000000"]
        rc, out, err = run_main(argv, capsys)
        assert rc == 2 and out == ""
        assert err == "invgc diagnose: bins must be <= 1000000, got 1000000000\n"
    assert calls == []


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


def test_verify_theory_past_the_gamma_forms_exits_two(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "verify-theory", "--n", "342", "--b", "0.4,0.5"],
        env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "invgc verify-theory: n=342 is too large for the lemma2 gamma forms,"
        " which stay finite up to n=341\n"
    )


@pytest.mark.parametrize("argv, n, b", [
    (["--n", "340", "--b", "0.01,0.02"], 340, 0.01),
    (["--n", "240,300", "--b", "0.05,0.5", "--strict"], 240, 0.05),
])
def test_verify_theory_refuses_an_underflowing_cap_fraction(argv, n, b, capsys):
    # the first once ended in a ZeroDivisionError, the second in a wrong false
    rc, out, err = run_main(["verify-theory", *argv], capsys)
    assert (rc, out) == (2, "")
    assert err == f"invgc verify-theory: the cap fraction at n={n}, b={b} underflows a float\n"


def test_a_dataset_too_large_to_allocate_exits_two(capsys, tmp_path):
    # 10**12 x 1000 float64 is 7.11 PiB, past any address space, so the
    # first allocation is refused at once
    argv = ["synth", "--items", str(10**12), "--dim", "1000", "--out-prefix", str(tmp_path / "big")]
    rc, out, err = run_main(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("invgc synth: Unable to allocate 7.11 PiB for an array"), err
    assert list(tmp_path.iterdir()) == []


def test_cross_diagnose_takes_a_topk_past_a_c_long(dataset, capsys):
    huge = str(10**20)
    rc, out, err = run_main(
        ["diagnose", "--gallery", dataset["gallery"], "--query", dataset["query"],
         "--relevance", dataset["rel"], "--topk", f"16,{huge}"],
        capsys,
    )
    assert rc == 0, err
    kv = parse_kv(out)
    assert kv[f"mean_sim_at_{huge}"] == kv["mean_sim_at_16"]


def test_eval_reads_a_recall_cutoff_past_two_to_the_53_exactly(dataset, capsys):
    # through a float, 9007199254740993 read as 9007199254740992
    rc, out, err = run_main(
        ["eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
         "--relevance", dataset["rel"], "--recall-at", "1,9007199254740993"],
        capsys,
    )
    assert rc == 0, err
    assert [line.split("\t")[0] for line in out.splitlines()] == [
        "R@1", "R@9007199254740993", "MdR", "MnR"
    ]


def test_diagnose_names_a_topk_past_two_to_the_53_exactly(dataset, capsys):
    rc, out, err = run_main(
        ["diagnose", "--gallery", dataset["gallery"], "--topk", "1,9007199254740993"], capsys
    )
    assert (rc, out) == (2, "")
    assert err == "invgc diagnose: k=9007199254740993 exceeds the 15 available neighbors\n"


def test_console_entry_point_runs(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "invgc", "verify-theory", "--n", "2", "--b", "0.2,0.6"],
        env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("lemma2\t2\t-\t2.0\t-\t2.0\t2.0\ttrue")


# What `python -m invgc` runs, up to the process's end: a child that
# inspects sys.modules afterwards calls main, since run would end it first.
_CALL_MAIN = (
    "import sys\n"
    "from invgc.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "assert not code, code\n"
)


def test_eval_and_tune_do_not_import_numpy_ma(dataset, cli_env):
    # np.median's first call imports numpy.ma, 16-35 ms of every process
    # that reports MdR; the median is taken from the sorted ranks instead
    run = _CALL_MAIN + "print('numpy.ma' in sys.modules)\n"
    pair = ["--relevance", dataset["rel"]]
    for argv in (
        ["eval", "--query", dataset["query"], "--gallery", dataset["gallery"], *pair],
        ["tune", "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
         "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"], *pair,
         "--variant", "full", "--rg-grid", "0,0.1", "--rq-grid", "0,0.1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", run, *argv], env=cli_env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "MdR\t" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False", argv[0]

# The library modules each command leaves unimported; --help imports
# embio alone, for numpy.
_LIBRARY = {"core", "diagnostics", "embio", "retrieval", "simgraph", "synth", "theory", "tuner"}
_UNIMPORTED = {
    "--help": _LIBRARY - {"embio"},
    "diagnose": {"core", "retrieval", "synth", "theory", "tuner"},
    "apply": {"diagnostics", "retrieval", "synth", "theory", "tuner"},
    "eval": {"core", "diagnostics", "synth", "theory", "tuner"},
    "tune": {"diagnostics", "synth", "theory"},
    "sweep": {"synth", "theory"},
    "synth": {"core", "diagnostics", "retrieval", "theory", "tuner"},
    "verify-theory": {"core", "diagnostics", "retrieval", "simgraph", "synth", "tuner"},
}


@pytest.mark.parametrize("sub", sorted(_UNIMPORTED))
def test_each_command_imports_only_the_modules_it_runs(sub, dataset, cli_env, tmp_path):
    run = _CALL_MAIN + "print(*sorted(m[6:] for m in sys.modules if m.startswith('invgc.')))\n"
    refs = ["--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"]]
    argv = {
        "--help": ["--help"],
        "diagnose": ["diagnose", "--gallery", dataset["gallery"]],
        "apply": ["apply", "--gallery", dataset["gallery"], *refs, "--variant", "local",
                  "--rg", "0.1", "--rq", "0.1", "--out", str(tmp_path / "o.emb")],
        "eval": ["eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
                 "--relevance", dataset["rel"]],
        "tune": ["tune", *_val_sets(dataset, dataset["rel"]), "--variant", "local",
                 "--rg-grid", "0,0.1", "--rq-grid", "0,0.1"],
        "sweep": ["sweep", "--param", "k", "--values", "1,2", *_val_sets(dataset, dataset["rel"]),
                  "--variant", "local", "--rg", "0.1", "--rq", "0.1"],
        "synth": ["synth", "--items", "10", "--refs", "20", "--dim", "4",
                  "--out-prefix", str(tmp_path / "s")],
        "verify-theory": ["verify-theory", "--n", "2:3", "--b", "0.3,0.5"],
    }[sub]
    proc = subprocess.run(
        [sys.executable, "-c", run, *argv], env=cli_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.splitlines()[-1].split())
    assert _LIBRARY - imported == _UNIMPORTED[sub], imported


def test_a_pooled_eval_does_not_import_concurrent_futures(dataset, cli_env):
    # concurrent.futures imports logging, 6-7 ms of every pooled command;
    # the row blocks run on plain threads.  A 16-cell budget cuts the
    # 16 x 16 cosines into eight blocks for two workers, the calling
    # thread and one started thread.
    run = (
        "import threading\n"
        "from invgc import simgraph\n"
        "simgraph._BLOCK_CELLS, simgraph._worker_count = 16, lambda: 2\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda self: started.append(self) or start(self)\n"
        + _CALL_MAIN
        + "print(len(started), 'concurrent.futures' in sys.modules)\n"
    )
    argv = ["eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
            "--relevance", dataset["rel"]]
    proc = subprocess.run(
        [sys.executable, "-c", run, *argv], env=cli_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "MdR\t" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "1 False"


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


def test_pooled_correction_is_byte_identical_across_blas_threads_and_cpus(tmp_path, cli_env):
    # 300 x 4000 cosines make five pooled row blocks for local and avgpool,
    # and 1200 x 1200 ones six for diagnose and eval.  The k-sweep's
    # degeneration column and diagnose print full precision; apply's
    # float32 file is compared too.  Each run is one OpenBLAS thread count
    # and one CPU affinity, set in the child before it starts.
    def invgc(cwd, env, preexec, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "invgc", *argv], cwd=cwd, env=env,
            capture_output=True, preexec_fn=preexec,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr.decode())
        return proc.stdout

    invgc(tmp_path, cli_env, None, "synth", "--items", "300", "--refs", "4000",
          "--dim", "16", "--seed", "9", "--out-prefix", "syn")
    invgc(tmp_path, cli_env, None, "synth", "--items", "1200", "--refs", "8",
          "--dim", "16", "--seed", "9", "--out-prefix", "big")
    big = ["--gallery", "../big.gallery.emb"]
    big_pair = ["--query", "../big.query.emb", "--relevance", "../big.rel.tsv"]
    cpus = sorted(os.sched_getaffinity(0))
    settings = [("1", None), ("2", None)]
    if len(cpus) > 1:
        settings.append(("2", lambda: os.sched_setaffinity(0, cpus[:1])))
    runs = []
    for i, (threads, preexec) in enumerate(settings):
        cwd = tmp_path / str(i)
        cwd.mkdir()
        env = dict(cli_env, OPENBLAS_NUM_THREADS=threads)
        stdout = [
            invgc(cwd, env, preexec, "apply", "--gallery", "../syn.gallery.emb",
                  "--ref-gallery", "../syn.refg.emb", "--ref-query", "../syn.refq.emb",
                  "--variant", "avgpool", "--p", "2", "--rg", "0.1", "--rq", "0.1",
                  "--out", "avgpool.emb"),
            invgc(cwd, env, preexec, "sweep", "--param", "k", "--values", "0.5,1,3",
                  "--val-query", "../syn.query.emb", "--val-gallery", "../syn.gallery.emb",
                  "--ref-gallery", "../syn.refg.emb", "--ref-query", "../syn.refq.emb",
                  "--relevance", "../syn.rel.tsv", "--variant", "local",
                  "--rg", "0.1", "--rq", "0.1"),
            invgc(cwd, env, preexec, "diagnose", *big, "--topk", "1,10,50"),
            invgc(cwd, env, preexec, "diagnose", *big, *big_pair, "--topk", "1,10,50"),
            invgc(cwd, env, preexec, "eval", *big, *big_pair),
        ]
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == ["avgpool.emb", "avgpool.emb.ids"]
    for run in runs[1:]:
        assert run == runs[0]


def test_a_wide_sparse_correction_is_byte_identical_across_blas_threads_and_workers(tmp_path, cli_env):
    # At d = 256 a pass takes four times the cells of a narrow one: 800 x
    # 3000 cosines are two 349-row blocks and a 102-row one, where the
    # narrow budget would cut ten.  local at 1% gathers its kept rows,
    # avgpool at 5% multiplies the masked block, and full runs the d x d
    # map.  Each run sets one OpenBLAS thread count and one _worker_count
    # in the child: one worker builds the halves one after the other, two
    # and three build them side by side, three splitting unevenly.
    run = ("import sys\nfrom invgc import simgraph\nworkers = int(sys.argv.pop(1))\n"
           "simgraph._worker_count = lambda: workers\n" + _CALL_MAIN)
    main(["synth", "--items", "800", "--refs", "3000", "--dim", "256", "--seed", "4",
          "--out-prefix", str(tmp_path / "syn")])
    assert len(simgraph._pass_blocks(800, 3000, 256)) == 3
    refs = ["--gallery", "../syn.gallery.emb", "--ref-gallery", "../syn.refg.emb",
            "--ref-query", "../syn.refq.emb", "--rg", "0.1", "--rq", "0.2"]
    runs = []
    for threads in ("1", "2"):
        for workers in ("1", "2", "3"):
            cwd = tmp_path / f"{threads}-{workers}"
            cwd.mkdir()
            for argv in (["--variant", "local", "--k", "1", "--out", "local.emb"],
                         ["--variant", "avgpool", "--p", "5", "--out", "avgpool.emb"],
                         ["--variant", "full", "--out", "full.emb"]):
                proc = subprocess.run(
                    [sys.executable, "-c", run, workers, "apply", *refs, *argv], cwd=cwd,
                    env=dict(cli_env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr.decode()
            runs.append({p.name: p.read_bytes() for p in sorted(cwd.iterdir())})
    assert sorted(runs[0]) == ["avgpool.emb", "avgpool.emb.ids", "full.emb", "full.emb.ids",
                               "local.emb", "local.emb.ids"]
    for files in runs[1:]:
        assert files == runs[0]


def _val_sets(dataset, rel):
    return [
        "--val-query", dataset["query"], "--val-gallery", dataset["gallery"],
        "--ref-gallery", dataset["refg"], "--ref-query", dataset["refq"], "--relevance", rel,
    ]


@pytest.mark.parametrize("param, variant", [("k", "local"), ("ratio", "full")])
def test_a_k_or_ratio_sweep_at_zero_steps_exits_2(dataset, capsys, param, variant):
    # with --rg and --rq at 0 every point would be the uncorrected gallery
    rc, out, err = run_main(
        ["sweep", "--param", param, "--values", "0.5,1", *_val_sets(dataset, dataset["rel"]),
         "--variant", variant],
        capsys,
    )
    assert rc == 2 and out == ""
    assert f"param {param!r} needs a nonzero step: set --rg or --rq" in err


@pytest.mark.parametrize("param, flags, message", [
    ("rg", ["--rg", "5", "--rq", "0.1"], "--rg does not apply to --param rg: --values sets it"),
    ("rq", ["--rq", "5"], "--rq does not apply to --param rq: --values sets it"),
    ("k", ["--variant", "local", "--k", "50", "--rg", "0.1"], "--k does not apply to --param k: --values sets it"),
    ("rg", ["--seed", "4"], "--seed applies only to --param ratio"),
    ("k", ["--variant", "local", "--rg", "0.1", "--seed", "0"], "--seed applies only to --param ratio"),
])
def test_sweep_refuses_a_flag_its_values_override(dataset, capsys, monkeypatch, param, flags, message):
    # such a flag was once read by nothing: the rows printed as without it
    loads = []
    monkeypatch.setattr(embio, "load_embeddings", lambda *a: loads.append(a))
    argv = ["sweep", "--param", param, "--values", "1,2", *_val_sets(dataset, dataset["rel"]), *flags]
    rc, out, err = run_main(argv, capsys)
    assert rc == 1 and out == "" and loads == []
    assert err == f"invgc sweep: error: {message}\n"


@pytest.mark.parametrize("flag", ["--rg-grid", "--rq-grid"])
def test_tune_refuses_an_empty_grid(dataset, capsys, flag):
    # an empty list once fell back to the default 8 x 8 grid
    argv = ["tune", *_val_sets(dataset, dataset["rel"]), "--variant", "full", flag, ""]
    rc, out, err = run_main(argv, capsys)
    assert rc == 1 and out == ""
    assert err == "invgc tune: error: list '' is empty\n"


@pytest.mark.parametrize("sub", ["diagnose", "tune"])
def test_a_file_that_cannot_be_written_leaves_stdout_empty(sub, dataset, capsys, tmp_path):
    # the file is written before the report is printed, as apply and synth do
    path = str(tmp_path / "missing" / "out.tsv")
    argv = {
        "diagnose": ["diagnose", "--gallery", dataset["gallery"], "--dump-hist", path],
        "tune": ["tune", *_val_sets(dataset, dataset["rel"]), "--variant", "full",
                 "--rg-grid", "0,0.1", "--rq-grid", "0", "--trace", path],
    }[sub]
    rc, out, err = run_main(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"invgc {sub}: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("sub, message", [
    ("diagnose", "--query and --relevance must be given together"),
    ("tune", "range '1:0' is empty"),
])
def test_a_usage_error_is_found_before_any_file_is_read(sub, message, capsys, tmp_path):
    missing = str(tmp_path / "missing.emb")
    argv = {
        "diagnose": ["diagnose", "--gallery", missing, "--query", missing],
        "tune": ["tune", *_val_sets(dict.fromkeys(("query", "gallery", "refg", "refq"), missing), missing),
                 "--variant", "full", "--rg-grid", "1:0"],
    }[sub]
    rc, out, err = run_main(argv, capsys)
    assert rc == 1 and out == ""
    assert err == f"invgc {sub}: error: {message}\n"


def test_a_huge_step_is_corrected_without_warnings(dataset, capsys, tmp_path):
    # 1e200 * the aggregate is finite, but each row's sum of squares is not
    out = tmp_path / "huge.emb"
    rc, _, err = run_main([
        "apply", "--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
        "--ref-query", dataset["refq"], "--variant", "full",
        "--rg", "1e200", "--rq", "0", "--out", str(out),
    ], capsys)
    assert rc == 0 and err == ""
    G = load_embeddings(dataset["gallery"])
    refG = load_embeddings(dataset["refg"])
    Gn = G.data / np.linalg.norm(G.data, axis=1)[:, None]
    A, = _aggregate(EmbeddingSet(G.ids, Gn), refG, "full", [refG.n])
    want = 0.5 * (-A / np.linalg.norm(A, axis=1)[:, None] + Gn)
    assert_allclose(load_embeddings(out).data, want, rtol=0, atol=1e-7)


@pytest.mark.parametrize("command, flag", [
    ("apply --rg", "--rg"),
    ("apply --rq", "--rq"),
    ("tune --rg-grid", "--rg-grid"),
    ("tune --rq-grid", "--rq-grid"),
    ("sweep --param rg", "--values"),
    ("sweep --rq", "--rq"),
])
def test_an_overflowing_step_exits_two_naming_its_option(dataset, capsys, tmp_path, command, flag):
    # the avgpool aggregate here reaches about 25, so 1e308 times it overflows
    sub, option = command.split(" ", 1)
    val_sets = [*_val_sets(dataset, dataset["rel"]), "--variant", "avgpool"]
    if sub == "apply":
        steps = {"--rg": "0", "--rq": "0", option: "1e308"}
        argv = ["apply", "--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
                "--ref-query", dataset["refq"], "--variant", "avgpool",
                *[t for kv in steps.items() for t in kv], "--out", str(tmp_path / "o.emb")]
    elif sub == "tune":
        argv = ["tune", *val_sets, option, "0,1e308"]
    elif option == "--param rg":
        argv = ["sweep", "--param", "rg", "--values", "0,1e308", *val_sets]
    else:
        argv = ["sweep", "--param", "rg", "--values", "0", "--rq", "1e308", *val_sets]
    rc, out, err = run_main(argv, capsys)
    assert rc == 2 and out == ""
    assert err == (f"invgc {sub}: {flag} value 1e+308 is too large:"
                   " the step times the reference aggregate is not finite\n")
    assert not (tmp_path / "o.emb").exists()


@pytest.mark.parametrize("rg, rq, flag", [
    ("1e308", "0", "--rg"),
    ("0", "1e308", "--rq"),
    ("1e308", "1e308", "--rg"),  # the g half's error, as one thread builds it first
])
def test_a_half_refused_side_by_side_exits_two_and_leaves_no_thread(
        dataset, capsys, tmp_path, monkeypatch, rg, rq, flag):
    # Two workers build the halves side by side, whatever the host.  The
    # avgpool aggregate here reaches about 25, so 1e308 times it overflows.
    # Nothing else reaches stderr: no "Exception in thread" report.
    monkeypatch.setattr(simgraph, "_worker_count", lambda: 2)
    threads = threading.active_count()
    rc, out, err = run_main([
        "apply", "--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
        "--ref-query", dataset["refq"], "--variant", "avgpool", "--rg", rg, "--rq", rq,
        "--out", str(tmp_path / "o.emb"),
    ], capsys)
    assert threading.active_count() == threads
    assert (rc, out) == (2, "")
    assert err == (f"invgc apply: {flag} value 1e+308 is too large:"
                   " the step times the reference aggregate is not finite\n")
    assert not (tmp_path / "o.emb").exists()


@pytest.mark.parametrize("argv, flag", [
    (["apply", "--rg=-1", "--rq=0"], "--rg"),
    (["tune", "--rg-grid=-1,0"], "--rg-grid"),
    (["sweep", "--param", "rg", "--values=-1,0"], "--values"),
])
def test_a_negative_step_exits_two_naming_its_option(dataset, capsys, tmp_path, argv, flag):
    sub, *steps = argv
    if sub == "apply":
        argv = ["apply", "--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
                "--ref-query", dataset["refq"], "--variant", "full", *steps,
                "--out", str(tmp_path / "o.emb")]
    else:
        argv = [*argv, *_val_sets(dataset, dataset["rel"]), "--variant", "full"]
    rc, out, err = run_main(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"invgc {sub}: {flag} must be finite and >= 0, got -1.0\n"
    assert not (tmp_path / "o.emb").exists()


@pytest.mark.parametrize("r, field_form, option_form", [
    ("-1.0", "r_g must be finite and >= 0, got -1.0", "{} must be finite and >= 0, got -1.0"),
    ("-inf", "r_g must be finite and >= 0, got -inf", "{} must be finite and >= 0, got -inf"),
    ("inf", "r_g must be finite and >= 0, got inf", "{} must be finite and >= 0, got inf"),
    ("nan", "r_g must be finite and >= 0, got nan", "{} must be finite and >= 0, got nan"),
    ("1e308", "r_g=1e+308 is too large: r_g times the aggregate is not finite",
     "{} value 1e+308 is too large: the step times the reference aggregate is not finite"),
])
def test_a_refused_step_keeps_its_wording_for_the_field_and_each_option(
        dataset, capsys, tmp_path, r, field_form, option_form):
    # the avgpool aggregate here reaches about 25, so 1e308 times it overflows
    G, refG, refQ = (load_embeddings(dataset[key]) for key in ("gallery", "refg", "refq"))
    with pytest.raises(StepError) as err:
        inverse_convolve_dual(G, refG, refQ, InvGCConfig("avgpool", r_g=float(r)))
    assert str(err.value) == field_form
    val_sets = [*_val_sets(dataset, dataset["rel"]), "--variant", "avgpool"]
    for option, argv in {
        "--rg": ["apply", "--gallery", dataset["gallery"], "--ref-gallery", dataset["refg"],
                 "--ref-query", dataset["refq"], "--variant", "avgpool", f"--rg={r}", "--rq=0",
                 "--out", str(tmp_path / "o.emb")],
        "--rg-grid": ["tune", *val_sets, f"--rg-grid=0,{r}"],
        "--values": ["sweep", "--param", "rg", f"--values=0,{r}", *val_sets],
    }.items():
        rc, out, err = run_main(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == f"invgc {argv[0]}: {option_form.format(option)}\n"
    assert not (tmp_path / "o.emb").exists()


def test_a_cancelled_half_warns_in_one_line_in_the_commands_voice(tmp_path, cli_env):
    # g1 - 1 * (its avgpool aggregate, r1) is the zero row, which row_normalize
    # passes through with a RuntimeWarning; a subprocess, because tests here
    # turn warnings into errors
    for name, text in {"g.tsv": "g1\t1\t0\ng2\t0\t1\n", "r.tsv": "r1\t1\t0\n",
                       "rel.tsv": "g1\tg1\ng2\tg2\n"}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    val_sets = ["--val-query", "g.tsv", "--val-gallery", "g.tsv", "--ref-gallery", "r.tsv",
                "--ref-query", "r.tsv", "--relevance", "rel.tsv", "--variant", "avgpool"]
    for argv, code, then in [
        (["apply", "--gallery", "g.tsv", "--ref-gallery", "r.tsv", "--ref-query", "r.tsv",
          "--variant", "avgpool", "--rg", "1", "--rq", "1", "--out", "o.tsv"], 0, []),
        (["apply", "--gallery", "g.tsv", "--ref-gallery", "r.tsv", "--ref-query", "r.tsv",
          "--variant", "avgpool", "--rg", "0", "--rq", "1", "--out", "q.tsv"], 0, []),
        (["tune", *val_sets, "--rg-grid", "0,1", "--rq-grid", "0,1"], 2,
         ["zero-norm embedding row, id 'g1'"]),
        (["sweep", "--param", "rg", "--values", "0,1", "--rq", "1", *val_sets], 2,
         ["zero-norm embedding row, id 'g1'"]),
    ]:
        proc = subprocess.run([sys.executable, "-m", "invgc", *argv], cwd=tmp_path, env=cli_env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        lines = ["warning: 1 zero-norm rows left unnormalized", *then]
        assert proc.stderr == "".join(f"invgc {argv[0]}: {line}\n" for line in lines)


def test_main_puts_the_warning_hook_back(dataset, capsys):
    hook = warnings.showwarning
    rc, _, _ = run_main(["eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
                         "--relevance", dataset["rel"]], capsys)
    assert rc == 0 and warnings.showwarning is hook


@pytest.mark.parametrize("bad_line, message", [
    ("qX\tg0\n", "query id 'qX' is not in the query set"),
    ("q0\tgX\n", "gallery id 'gX' is not in the gallery"),
])
@pytest.mark.parametrize("sub", ["eval", "tune", "sweep", "diagnose"])
def test_a_relevance_id_that_does_not_resolve_exits_two(dataset, capsys, tmp_path, sub, bad_line, message):
    rel = tmp_path / "rel.tsv"
    rel.write_text(Path(dataset["rel"]).read_text(encoding="utf-8") + bad_line, encoding="utf-8")
    argv = {
        "eval": ["eval", "--query", dataset["query"], "--gallery", dataset["gallery"],
                 "--relevance", str(rel)],
        "tune": ["tune", *_val_sets(dataset, str(rel)), "--variant", "full"],
        "sweep": ["sweep", "--param", "rg", "--values", "0,0.1", *_val_sets(dataset, str(rel))],
        "diagnose": ["diagnose", "--gallery", dataset["gallery"], "--query", dataset["query"],
                     "--relevance", str(rel)],
    }[sub]
    rc, out, err = run_main(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"invgc {sub}: {rel}: {message}\n"


@pytest.mark.parametrize("bad_id, out", [("g1\rx", "o.emb"), ("g1\tx", "o.tsv")])
def test_an_id_the_output_format_cannot_hold_exits_two(dataset, capsys, tmp_path, bad_id, out):
    # a sidecar can hold either id, though save_embeddings writes neither
    gallery = tmp_path / "g.emb"
    G = load_embeddings(dataset["gallery"])
    save_embeddings(G, gallery)
    G.ids[1] = bad_id
    Path(f"{gallery}.ids").write_bytes("".join(i + "\n" for i in G.ids).encode())
    assert load_embeddings(gallery).ids == G.ids
    rc, stdout, err = run_main([
        "apply", "--gallery", str(gallery), "--ref-gallery", dataset["refg"],
        "--ref-query", dataset["refq"], "--variant", "full", "--rg", "0.1", "--rq", "0.1",
        "--out", str(tmp_path / out),
    ], capsys)
    assert rc == 2 and stdout == ""
    assert err.startswith(f"invgc apply: id {bad_id!r} holds a ")
    assert not (tmp_path / out).exists()
