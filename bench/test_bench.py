"""Seconds-long smoke runs of the benchmark, and the names it shares with
BENCHMARK.json. Run with `python3 -m pytest bench` from the checkout root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import rep  # noqa: E402
import run  # noqa: E402
from gen import CorpusParams, generate  # noqa: E402


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_untraced_run_reports_end_to_end_metrics():
    out = result(smoke("paper", 0))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(run.END_TO_END)


def test_traced_run_reports_every_layer_metric():
    out = result(smoke("cyclic", 1))
    assert out["correct"]
    metrics = out["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["authrev.forest_trained"]["value"] == 1
    assert metrics["graph.edges_removed"]["value"] > 0
    assert metrics["ingest.load_influence_calls"]["value"] >= 1


def test_failing_stage_is_counted_and_named():
    class FailingCli:
        @staticmethod
        def main(argv):
            if argv[0] == "centrality":
                raise ValueError("bad row")
            return 0

    stages = rep.run_stages(FailingCli, 2, None)
    assert [s["stage"] for s in stages] == ["ingest", "graph_build", "centrality"]
    repetition = {"stages": stages, "checks": {"report_exists": "report.json missing"}}
    attempted, failures = run.count_operations([repetition])
    assert attempted == 4
    assert failures == ["stage centrality exit None: ValueError: bad row",
                        "check report_exists: report.json missing"]


def test_names_workload_reports_every_failure():
    proc = smoke("names", 0)
    out = result(proc)
    assert out["attempted"] > 0
    assert (out["failed"] == 0) == ("FAILED x" not in proc.stdout)


def test_generator_is_seeded(tmp_path):
    params = CorpusParams(artists=60, rows=300, songs=100, reversed_fraction=0.05)
    a = generate(params, 7, tmp_path / "a")
    b = generate(params, 7, tmp_path / "b")
    c = generate(params, 8, tmp_path / "c")
    assert a["sha256"] == b["sha256"] != c["sha256"]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = smoke("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
