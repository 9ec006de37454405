"""Self-test of the benchmark on tiny spaces (smoke mode).  It is not part
of the library's test suite; from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as launcher  # noqa: E402
import worker  # noqa: E402
from polarblock import search  # noqa: E402

REF = json.loads(worker.REFERENCE.read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", launcher.WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert set(metrics) == {"setup_s", "wall_s", "peak_rss_mb"}
        assert all(v > 0 for v in metrics.values())
        return
    assert set(metrics) == set(worker.layer_metric_names(worker.SMOKE))
    # each workload exercises the layer it was chosen for, and only that one
    quotients = metrics["spaces.space_from_form.calls"]
    nodes = sum(v for k, v in metrics.items() if k.startswith("search.nodes."))
    assert (quotients > 0) == (workload == "classify_census")
    assert (nodes > 0) == (workload == "search_exact")


def test_layer_counts_repeat():
    def counts():
        proc = bench("--workload", "classify_census", "--seed", "5", "--seconds", "0",
                     "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    assert counts() == counts()


def corrupt_ladder(ref):
    ref["ladder"]["qm52"]["hash"] = "0" * 64


def corrupt_search(ref):
    ref["search"]["enum-q42-4"]["digest"] = "0" * 64


def corrupt_census(ref):
    ref["lists"]["minb-q42"]["sets"][0][1] = "NotALabel"


@pytest.mark.parametrize("workload,corrupt", [
    ("build_ladder", corrupt_ladder),
    ("search_exact", corrupt_search),
    ("classify_census", corrupt_census),
])
def test_corrupted_reference_fails(workload, corrupt):
    setup, run_pass = worker.WORKLOADS[workload]
    bad = copy.deepcopy(REF)
    corrupt(bad)
    run = worker.Run(None)
    run_pass(setup(worker.SMOKE, 1, bad), worker.SMOKE, bad, run)
    assert len(run.failures) == 1 and run.attempted > 1
    good = worker.Run(None)
    run_pass(setup(worker.SMOKE, 1, REF), worker.SMOKE, REF, good)
    assert good.failures == []


def test_certified_budgeted_problem_is_not_a_failure(monkeypatch):
    """A budgeted problem that now finishes with its optimum passes."""
    original = search.min_blocking

    def certify(space, **kw):
        return original(space, **{**kw, "budget_nodes": worker.CERTIFIED_NODES})

    monkeypatch.setattr(search, "min_blocking", certify)
    space_of = worker.setup_search_exact(worker.SMOKE, 1, REF)
    run = worker.Run(None)
    metrics, _ = worker.pass_search_exact(space_of, worker.SMOKE, REF, run)
    assert run.failures == [] and metrics["uncertified_frac"] == 0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search_exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_workers_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == worker.layer_metric_names(worker.FULL)
    assert [w["name"] for w in spec["workloads"]] == list(launcher.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == launcher.unit_of(m["name"]), m["name"]
