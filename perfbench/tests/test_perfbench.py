"""Tests of the benchmark's own machinery: self times, output checks, inputs.

    python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

import checks
import run
import spans
from invgc import cli
from workloads import WORKLOADS


def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "parent": parent, "start": start, "end": end,
            "overhead": 0.0, "attrs": {}}


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8].
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
            _span(2, 0, 5.0, 9.0), _span(3, 2, 6.0, 8.0)]
    assert spans.self_times(tree) == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0})


def test_self_time_charges_child_overhead_to_nobody():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0)]
    tree[1]["overhead"] = 0.5
    assert spans.self_times(tree)[0] == pytest.approx(6.5)


def test_layer_totals_cover_the_traced_wall_time():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0)]
    layers = spans.command_layers({"spans": tree, "import_s": 2.0, "traced_wall_s": 13.0,
                                   "untraced_wall_s": 12.0, "untraced_cpu_s": 12.0})
    assert layers["uncovered_s"] == pytest.approx(1.0)


@pytest.fixture
def small(tmp_path, capsys):
    """Tiny synth inputs plus a genuine apply output and eval report."""
    prefix = tmp_path / "in"
    assert cli.main(["synth", "--items", "40", "--refs", "60", "--dim", "8",
                     "--seed", "3", "--out-prefix", str(prefix)]) == 0
    paths = {key: str(p) for key, p in run.input_files(prefix).items()}
    out = tmp_path / "full.emb"
    assert cli.main(["apply", "--gallery", paths["gallery"], "--ref-gallery", paths["refg"],
                     "--ref-query", paths["refq"], "--variant", "full",
                     "--rg", "0.3", "--rq", "0.2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--query", paths["query"], "--gallery", str(out),
                     "--relevance", paths["rel"]]) == 0
    return paths, out, capsys.readouterr().out


def _perturb_row(path, row, delta):
    ids, data = checks.read_embeddings(path)
    raw = bytearray(open(path, "rb").read())
    offset = checks._HEADER.size + 4 * row * data.shape[1]
    value = np.frombuffer(raw, dtype="<f4", count=1, offset=offset)[0] + delta
    raw[offset:offset + 4] = np.float32(value).tobytes()
    open(path, "wb").write(bytes(raw))


@pytest.mark.parametrize("variant,percent", [("full", 1.0), ("local", 10.0), ("avgpool", 10.0)])
def test_apply_check_accepts_every_variant(small, tmp_path, variant, percent):
    paths, _, _ = small
    out = tmp_path / f"{variant}.emb"
    flag = {"local": ["--k", str(percent)], "avgpool": ["--p", str(percent)]}.get(variant, [])
    assert cli.main(["apply", "--gallery", paths["gallery"], "--ref-gallery", paths["refg"],
                     "--ref-query", paths["refq"], "--variant", variant, *flag,
                     "--rg", "0.3", "--rq", "0.2", "--out", str(out)]) == 0
    assert checks.check_apply(paths, out, variant, 0.3, 0.2, k=percent, p=percent, seed=5) == []


def test_apply_check_rejects_one_row_moved_by_1e_3(small):
    paths, out, _ = small
    assert checks.check_apply(paths, out, "full", 0.3, 0.2, seed=5) == []
    row = int(checks.sample_rows(40, seed=5)[7])
    _perturb_row(out, row, 1e-3)
    problems = checks.check_apply(paths, out, "full", 0.3, 0.2, seed=5)
    assert problems and f"row {row}" in problems[0]


def test_eval_check_rejects_a_wrong_recall(small):
    paths, out, report = small
    assert checks.check_eval(paths["query"], out, paths["rel"], report) == []
    r1 = checks.parse_report(report)["R@1"]
    wrong = report.replace(f"R@1\t{r1}", f"R@1\t{float(r1) + 2.5}")
    problems = checks.check_eval(paths["query"], out, paths["rel"], wrong)
    assert problems == [f"eval: R@1 is {float(r1) + 2.5}, independent value {float(r1)}"]


def test_tune_check_rejects_a_best_cell_that_is_not_best(tmp_path):
    trace = tmp_path / "trace.tsv"
    trace.write_text("full,rg=0.0,rq=0.0\t50.0\t70.0\t3.0\t-\n"
                     "full,rg=0.0,rq=0.1\t55.0\t70.0\t3.0\t-\n"
                     "full,rg=0.1,rq=0.0\t55.0\t70.0\t3.0\t-\n")
    right = "variant\tfull\nrg\t0.0\nrq\t0.1\nR@1\t55.0\nR@5\t70.0\nMnR\t3.0\n"
    assert checks.check_tune(right, trace, 3) == []
    wrong = right.replace("rg\t0.0\nrq\t0.1", "rg\t0.1\nrq\t0.0")
    assert len(checks.check_tune(wrong, trace, 3)) == 2


def test_tune_recall_check_rejects_a_lower_recall(small, capsys):
    paths, _, _ = small
    assert cli.main(["tune", "--val-query", paths["query"], "--val-gallery", paths["gallery"],
                     "--ref-gallery", paths["refg"], "--ref-query", paths["refq"],
                     "--relevance", paths["rel"], "--variant", "full"]) == 0
    report = capsys.readouterr().out
    assert checks.check_tune_recall(paths, report, "full") == []
    r1 = checks.parse_report(report)["R@1"]
    wrong = report.replace(f"R@1\t{r1}", f"R@1\t{float(r1) - 2.5}")
    problems = checks.check_tune_recall(paths, wrong, "full")
    assert problems == [f"tune: R@1 is {float(r1) - 2.5}, independent value {float(r1)}"]


def test_a_corrupted_output_makes_the_error_rate_non_zero(small, tmp_path):
    paths, _, _ = small
    paths = dict(paths, out=str(tmp_path))
    apply_full = WORKLOADS["correct-L"].commands[0]
    bench = run.Run("correct-L", seed=5, work=tmp_path)
    child = bench.command(apply_full, paths)
    assert (bench.attempted, bench.failed) == (1, 0)
    _perturb_row(tmp_path / "full.emb", int(checks.sample_rows(40, seed=5)[0]), -1e-3)
    bench.verdict(apply_full.name, child, apply_full.check(paths, child.stdout, 5))
    assert (bench.attempted, bench.failed) == (2, 1)


def _digests(tmp_path, seed):
    prefix = tmp_path / f"seed{seed}" / "in"
    prefix.parent.mkdir(exist_ok=True)
    assert cli.main(["synth", "--items", "10", "--refs", "20", "--dim", "4",
                     "--seed", str(seed), "--out-prefix", str(prefix)]) == 0
    return {key: run.sha256(p) for key, p in run.input_files(prefix).items()}


def test_a_different_seed_changes_the_input_digests(tmp_path, capsys):
    first = _digests(tmp_path, 1)
    assert _digests(tmp_path, 1) == first
    second = _digests(tmp_path, 2)
    for key in ("gallery", "query", "refg", "refq"):
        assert second[key] != first[key]


def test_a_failed_start_up_sample_is_a_problem_but_not_a_command(tmp_path):
    bench = run.Run("tune-S", seed=1, work=tmp_path)
    bench.verdict("startup", run.Child(0.4, 0.4, 50.0, 1, "", "boom"), [], counted=False)
    assert (bench.attempted, bench.failed) == (0, 0)
    assert bench.problems == ["startup: exit 1: boom"]
