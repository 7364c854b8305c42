"""One repetition of the pipeline, run by bench/run.py in a fresh interpreter.

Runs the eight stages through `artistnet.cli.main` with the arguments a
user would pass, times each call, records the process's peak RSS, then
runs the output checks. With --trace, calls into the library are timed by
bench/spans.py and the spans are written next to the result.

Usage (from the work directory, with the source tree on PYTHONPATH):
    python3 rep.py --rep K --threads N --result FILE [--trace SPANS]
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

CONFIG = "config.json"
OUT = Path("out")
NAMES = "names.json"  # artist id -> name, as generated

# (metric name, CLI arguments) in pipeline order.
STAGES = [
    ("ingest", ["ingest"]),
    ("graph_build", ["graph", "build"]),
    ("centrality", ["centrality"]),
    ("similarity", ["similarity"]),
    ("genre", ["genre"]),
    ("authenticity", ["authenticity"]),
    ("revolution", ["revolution"]),
    ("report", ["report"]),
]


def run_stages(cli, threads: int, tracer) -> list[dict]:
    """Run the stages in order, stopping at the first that fails."""
    done = []
    for name, argv in STAGES:
        error = None
        start = time.perf_counter()
        call = cli.main if tracer is None else tracer.wrap(cli.main, f"cli.{name}", "bench")
        try:
            rc = call(argv + ["--config", CONFIG, "--threads", str(threads)])
        except SystemExit as exc:  # argparse rejected the arguments
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a measured failure, not the end of the run
            rc, error = None, traceback.format_exception_only(exc)[-1].strip()
        done.append({"stage": name, "rc": rc, "s": time.perf_counter() - start, "error": error})
        if rc != 0:
            break
    return done


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_acyclic(graph) -> str | None:
    edges = [
        graph.InfluenceEdge(src=int(r["from"]), dst=int(r["to"]), year_diff=int(r["year_diff"]),
                            weight=float(r["weight"]) if r["weight"] else None)
        for r in _read_rows(OUT / "edges.csv")
    ]
    ids = sorted({e.src for e in edges} | {e.dst for e in edges})
    nodes = [graph.ArtistNode(id=i, name="", genre="", active_start=0) for i in ids]
    return None if graph.is_acyclic(graph.InfluenceGraph(nodes, edges)) else "edges.csv has a cycle"


def _check_one_row_per_node(graph) -> str | None:
    nodes = [int(r["id"]) for r in _read_rows(OUT / "nodes.csv")]
    scored = [int(r["node_id"]) for r in _read_rows(OUT / "centrality.csv")]
    if sorted(scored) != sorted(nodes):
        return f"centrality.csv has {len(scored)} rows for {len(nodes)} nodes"
    return None


def _check_report(graph) -> str | None:
    return None if (OUT / "report.json").is_file() else "report.json missing"


def _check_forest(graph) -> str | None:
    model = json.loads((OUT / "forest_model.json").read_text(encoding="utf-8"))
    if model.get("trained", True) is False or not model.get("n_trees"):
        return f"forest not trained: {model.get('reason')}"
    return None


def _names_read_back(artifact: str, id_field: str):
    def check(graph) -> str | None:
        want = json.loads(Path(NAMES).read_text(encoding="utf-8"))
        got = {}
        for r in _read_rows(OUT / artifact):
            got[r[id_field]] = r["name"]
        bad = [i for i, name in want.items() if got.get(i) != name]
        return f"{len(bad)} of {len(want)} names differ in {artifact}" if bad else None
    return check


CHECKS = {
    "edges_acyclic": _check_acyclic,
    "centrality_one_row_per_node": _check_one_row_per_node,
    "report_exists": _check_report,
    "forest_trained": _check_forest,
    "names_nodes_csv": _names_read_back("nodes.csv", "id"),
    "names_centrality_csv": _names_read_back("centrality.csv", "node_id"),
}


def run_checks(graph) -> dict[str, str | None]:
    """Each check maps to None when it passes, else to the reason."""
    results = {}
    for name, check in CHECKS.items():
        try:
            results[name] = check(graph)
        except Exception as exc:  # a broken or missing artifact fails the check
            results[name] = traceback.format_exception_only(exc)[-1].strip()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=Path, help="write spans here and time library calls")
    args = parser.parse_args(argv)

    from artistnet import cli, graph

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    stages = run_stages(cli, args.threads, tracer)
    pipeline_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rep": args.rep,
        "traced": tracer is not None,
        "stages": stages,
        "ok": len(stages) == len(STAGES) and all(s["rc"] == 0 for s in stages),
        "pipeline_s": pipeline_s,
        "maxrss_kb": maxrss_kb,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write(args.trace, args.rep)
    result["checks"] = run_checks(graph)
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
