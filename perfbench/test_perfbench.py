"""Smoke tests of the benchmark on a tiny corpus: every workload runs, traced
and untraced, the checker passes good output, and it rejects corrupted output.

The tiny corpus uses the c09 `synth` arguments (400 users, 150 items, 60
tags, seed 20260810), and `report` runs with --min-users 3 --min-support 2,
so that SPEAR and the taxonomy have eligible tags.
"""

import dataclasses
import json
import shutil
import time

import pytest

from perfbench import ROOT, run
from perfbench.checks import check_outputs
from perfbench.workloads import WORKLOADS, set_up

run.use_checkout_source()

# partition.pareto_curve returns numpy floats for the user fractions, and
# report writes their repr ("np.float64(0.0025)") into pareto.csv, which no
# CSV reader takes for a number. The checker rejects that file, so every
# report run counts as failed until the program writes plain floats; these
# tests let that one problem through and no other.
KNOWN_DEFECT = "bundle/pareto.csv: unreadable"


def unexpected(problems):
    return [p for p in problems if KNOWN_DEFECT not in p]


TINY_CORPUS = dict(n_users=400, n_items=150, n_tags=60, seed=20260810)
TINY_OPTIONS = {"report": ("--min-users", "3", "--min-support", "2"),
                "spear": ("--min-users", "3"), "ingest": ()}


def tiny(workload):
    return dataclasses.replace(workload, corpus=TINY_CORPUS,
                               options=TINY_OPTIONS[workload.command], min_users=3)


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return tiny(WORKLOADS[request.param])


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_plain_run_reports_the_declared_metrics(workload):
    result = run.run_workload(workload, seed=3, seconds=0.5, trace=False)
    assert unexpected(result["problems"]) == []
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m: run.unit(m) for m in metrics} == _declared("end_to_end")
    assert all(value > 0 for value in metrics.values())


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.run_workload(tiny(w), seed=3, seconds=0.5, trace=True)
            for name, w in WORKLOADS.items()}


def test_traced_run_reports_the_declared_metrics(traced_runs, workload):
    result = traced_runs[workload.name]
    assert unexpected(result["problems"]) == []
    assert result["attempted"] == 2
    metrics = result["metrics"]
    assert {m: run.unit(m) for m in metrics} == _declared("per_layer")
    if workload.command == "report":
        assert metrics["report.files"] == 14
        assert metrics["similarity.freq_dist_calls"] == 8
        assert metrics["spear.eligible_tags_calls"] == 2
        assert metrics["partition.rank_users_calls"] == 2
        assert metrics["spear.tags"] > 0 and metrics["taxonomy.nodes"] > 0
    if workload.command == "spear":
        assert metrics["report.files"] == 1
        assert metrics["spear.eligible_tags_calls"] == 1
        assert metrics["spear.tags"] > 0 and metrics["stats.binned_mean_calls"] == 1
        assert metrics["similarity.freq_dist_calls"] == metrics["taxonomy.nodes"] == 0
    if workload.command == "ingest":
        assert metrics["corpus.dedupe_dropped"] > 0
        assert metrics["report.files"] == 2
        assert metrics["spear.tags"] == metrics["similarity.freq_dist_calls"] == 0
    # the layers' self times partition the traced run
    layer_self = sum(v for m, v in metrics.items() if m.endswith(".self_s"))
    assert layer_self == pytest.approx(metrics["trace.total_s"], rel=1e-6)


def test_traced_counts_repeat(traced_runs):
    first = traced_runs["report-c10"]["metrics"]
    second = run.run_workload(tiny(WORKLOADS["report-c10"]), seed=3, seconds=0.5,
                              trace=True)["metrics"]
    counts = [m for m in first if run.unit(m) == "count"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def _write_outputs(workload, tmp_path, seed=3):
    corpus, out = tmp_path / "corpus.tsv", tmp_path / "out"
    _, oracle = set_up(workload, seed, corpus, 1, time.monotonic() + 60)
    out.mkdir()
    status, *_ = run.run_cli(workload.args(corpus, out), tmp_path / "log", 60)
    assert status == 0
    return out, oracle


def _set_field(row, column, value, sep=","):
    """Corruption that replaces one field of one line."""
    def corrupt(text):
        lines = text.splitlines(True)
        fields = lines[row].rstrip("\n").split(sep)
        fields[column] = value(fields[column])
        lines[row] = sep.join(fields) + "\n"
        return "".join(lines)
    return corrupt


@pytest.mark.parametrize("name, path, corrupt", [
    ("report-c10", "bundle/consensus.csv", _set_field(1, 2, lambda v: "1.5")),
    ("report-c10", "bundle/tag_similarity.csv", _set_field(1, 1, lambda v: "1.2")),
    ("report-c10", "bundle/summary.json",
     lambda text: json.dumps(dict(json.loads(text), taggers=1))),
    ("report-c10", "bundle/spear_binned.csv", _set_field(1, 2, lambda v: "nan")),
    ("spear-tagrich-half", "spear.csv", _set_field(1, 4, lambda v: str(int(v) + 1))),
    ("spear-tagrich-half", "spear.csv", _set_field(1, 2, lambda v: "inf")),
    ("ingest-dedupe-c10", "ingest.tsv", _set_field(0, 3, lambda v: str(int(v) + 1), "\t")),
    ("ingest-dedupe-c10", "ingest.tsv", lambda text: text + text.splitlines(True)[0]),
])
def test_checker_rejects_corrupted_output(tmp_path, name, path, corrupt):
    workload = tiny(WORKLOADS[name])
    out, oracle = _write_outputs(workload, tmp_path)
    assert unexpected(check_outputs(workload.command, out, oracle)) == []
    target = out / path
    target.write_text(corrupt(target.read_text(encoding="utf-8")), encoding="utf-8")
    assert unexpected(check_outputs(workload.command, out, oracle)) != []


def test_checker_rejects_missing_bundle_file(tmp_path):
    workload = tiny(WORKLOADS["report-c10"])
    out, oracle = _write_outputs(workload, tmp_path)
    (out / "bundle" / "taxonomy.json").unlink()
    assert unexpected(check_outputs(workload.command, out, oracle)) != []
    shutil.rmtree(out / "bundle")
    assert unexpected(check_outputs(workload.command, out, oracle)) != []


def test_seed_changes_line_order_only(tmp_path):
    workload = tiny(WORKLOADS["ingest-dedupe-c10"])
    texts = []
    for seed in (0, 1, 2):
        corpus = tmp_path / f"corpus{seed}.tsv"
        set_up(workload, seed, corpus, 1, time.monotonic() + 60)
        texts.append(corpus.read_text(encoding="utf-8"))
    assert texts[0] != texts[1] != texts[2]
    assert sorted(texts[0].splitlines()) == sorted(texts[1].splitlines())
    again = tmp_path / "again.tsv"
    set_up(workload, 1, again, 1, time.monotonic() + 60)
    assert again.read_text(encoding="utf-8") == texts[1]


def test_declared_workloads_exist():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    # report-c10 stays out of BENCHMARK.json while KNOWN_DEFECT fails its runs
    assert declared == {"spear-tagrich-half", "ingest-dedupe-c10-quarter"}
    assert declared <= set(WORKLOADS)
