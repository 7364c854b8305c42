"""artistnet pipeline benchmark.

Run from the root of a source checkout:

    python3 bench/run.py --workload paper --seed 1 --seconds 24 --trace 0

The benchmark generates a seeded corpus for the workload (bench/gen.py),
then runs the eight CLI stages through `artistnet.cli.main`, one
repetition per fresh child process (bench/rep.py) at a fixed `--threads`.
The first repetition only warms the file cache and is discarded; further
repetitions run until `--seconds` of measuring is used, at least two.
Every stage exit code, every output check and the determinism check is one
operation; a workload is correct when none fails.

With `--trace 0` it prints the end-to-end metrics, each the median over
the run: `pipeline_s`, the wall time of the eight stages in one
repetition; `setup_s`, the wall time of a fresh interpreter that imports
`artistnet.cli` and loads the config, sampled ten times before every
timed repetition; `peak_rss_mb`, the peak RSS of the repetition's
process. With `--trace 1` repetitions alternate between untraced and
traced (bench/spans.py), at least two of each, and it prints the
per-layer metrics and `trace_overhead`. The last line of
standard output is one JSON object; the full record (environment,
generator parameters and input digests, every sample, the output digest)
goes to `.bench_work/<workload>-<seed>/results.json`.

`--smoke` runs a seconds-long miniature of the workload; `--workload all`
runs every workload in turn.

Workloads `paper`, `cyclic` and `sampling` are listed in BENCHMARK.json.
`names` is not: it puts commas, quotes and non-ASCII text in artist and
genre names, and today's code fails it at the `centrality` stage, so it
exists to show that failure (`python3 bench/run.py --workload names`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gen import CorpusParams, generate
from rep import STAGES

BENCH = Path(__file__).resolve().parent
THREADS = min(2, os.cpu_count() or 1)  # fixed --threads, never above nproc
SETUP_PER_REP = 10  # fresh-interpreter set-up samples before each timed repetition
MIN_REPS = 2  # timed repetitions of each kind per run, whatever --seconds says
DEADLINE_S = 150.0  # stop starting repetitions; the run must end within 180 s
SETUP_CODE = "import artistnet.cli as c; c.load_config('config.json')"
# A forest split whose training slice reaches past the top-ranked rows,
# which are all "major", into the "non_major" rows.
BOTH_CLASSES_SPLIT = [0.8, 0.1, 0.09]


@dataclass(frozen=True)
class Workload:
    corpus: CorpusParams
    config: dict = field(default_factory=dict)  # merged over the CLI defaults
    smoke_scale: float = 0.12


WORKLOADS = {
    # Paper shape at a quarter of the paper's size: ingest, centrality, CLI
    # artifact IO, decycling at 2% reversed edges and the forest all carry
    # weight. Sampling and forest size are cut from the defaults so that a
    # run, warm-up included, stays near 30 s.
    "paper": Workload(
        CorpusParams(artists=1400, rows=10750, songs=24500, reversed_fraction=0.02),
        {"sampling": {"samples_per_run": 500, "runs": 20},
         "forest": {"trees": 20, "split": BOTH_CLASSES_SPLIT}},
    ),
    # 6% reversed edges: remove_cycles is most of the run; few songs,
    # little sampling and a small forest.
    "cyclic": Workload(
        CorpusParams(artists=1000, rows=7700, songs=3000, reversed_fraction=0.06),
        {"sampling": {"samples_per_run": 100, "runs": 5},
         "forest": {"trees": 5, "max_depth": 4, "split": BOTH_CLASSES_SPLIT}},
        smoke_scale=0.15,
    ),
    # Acyclic and small: genre sampling and scalar TS-SS dominate, graph
    # and centrality do little.
    "sampling": Workload(
        CorpusParams(artists=1200, rows=9600, songs=6000, reversed_fraction=0.0),
        {"sampling": {"samples_per_run": 4000, "runs": 20},
         "forest": {"trees": 5, "max_depth": 4, "split": BOTH_CLASSES_SPLIT}},
    ),
    # Adversarial names through the CLI artifact codec, default config.
    "names": Workload(
        CorpusParams(artists=300, rows=2000, songs=1500, name_style="adversarial"),
        smoke_scale=0.5,
    ),
}

END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = {
    "ingest": ("load_influence", "load_songs", "write_songs", "build_artist_profiles"),
    "graph": ("build_graph", "normalize_weights", "remove_cycles", "InfluenceGraph",
              "bfs_distances", "reachability_counts"),
    "centrality": ("node_influence", "cluster_rank", "semi_local", "out_closeness",
                   "export_scores_csv"),
    "simvec": ("standardize", "fit_pca", "uniqueness"),
    "genre": ("sample_similarity", "sample_influence", "cluster_genres",
              "genre_influence_matrix", "debut_counts"),
    "authrev": ("authenticity", "elastic_net_grid", "periphery_score", "forest_train"),
}
LAYER_CALLS = ("ingest.load_influence", "graph.InfluenceGraph", "graph.bfs_distances")
LAYER_COUNTS = (
    "ingest.songs_rows", "graph.edges_dropped_year_window", "graph.edges_removed",
    "centrality.nodes_scored", "genre.samples_drawn", "genre.flagged_runs",
    "genre.excluded_genres", "authrev.ad_pairs", "authrev.elastic_net_sweeps",
    "authrev.forest_tree_nodes",
)
TSS_CALLERS = ("genre", "authrev")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.{name}_s": "s" for name, _ in STAGES}
    units.update({"cli.self_s": "s", "cli.out_bytes": "bytes", "cli.bytes_hashed": "bytes"})
    for layer, names in LAYER_TIMES.items():
        units.update({f"{layer}.{n}_s": "s" for n in names})
        units[f"{layer}.self_s"] = "s"
    units.update({f"{n}_calls": "count" for n in LAYER_CALLS})
    units.update({n: "count" for n in LAYER_COUNTS})
    for caller in TSS_CALLERS:
        units[f"simvec.tss_{caller}_s"] = "s"
        units[f"simvec.tss_{caller}_calls"] = "count"
    units["authrev.elastic_net_converged"] = "ratio"
    units["authrev.forest_trained"] = "count"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# inputs


def config_for(workload: Workload) -> dict:
    cfg = {"influence_csv": "influence.csv", "songs_csv": "songs.csv", "out_dir": "out",
           "seed": 0}
    cfg.update(workload.config)
    return cfg


def smoke(workload: Workload) -> Workload:
    s = workload.smoke_scale
    c = workload.corpus
    corpus = replace(c, artists=int(c.artists * s), rows=int(c.rows * s),
                     songs=int(c.songs * s))
    cfg = dict(workload.config)
    cfg["sampling"] = {"samples_per_run": 50, "runs": 3}
    cfg["forest"] = {**cfg.get("forest", {}), "trees": 3}
    return Workload(corpus, cfg, s)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# ---------------------------------------------------------------------------
# outputs


def out_digest(out: Path) -> str:
    """sha256 over every file in out_dir, manifest timestamps excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for stage in manifest.get("stages", {}).values():
                stage.pop("timestamp", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def artifact_counts(work: Path) -> dict:
    out = work / "out"
    counts = {"cli.out_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        hashed = 0
        for stage in json.loads(manifest_path.read_text()).get("stages", {}).values():
            listed = [work / p for p in stage.get("inputs", {})]
            listed += [out / p for p in stage.get("outputs", {})]
            hashed += sum(p.stat().st_size for p in listed if p.is_file())
        counts["cli.bytes_hashed"] = hashed
    return counts


# ---------------------------------------------------------------------------
# measuring


class Run:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reps: list[dict] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and loading
        the config, as every `artistnet` command does before its work."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=max(self.remaining(), 5.0))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()[-500:]}")
        return elapsed

    def repetition(self, traced: bool) -> dict:
        rep = len(self.reps)
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.work / f"rep-{rep}.json"
        cmd = [sys.executable, str(BENCH / "rep.py"), "--rep", str(rep),
               "--threads", str(THREADS), "--result", str(result_path)]
        if traced:
            cmd += ["--trace", str(self.work / f"spans-{rep}.json")]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 5.0))
            failure = None
            if proc.returncode != 0:
                failure = proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            failure = "repetition timed out"
        wall = time.perf_counter() - start
        if failure is None:
            result = json.loads(result_path.read_text())
        else:
            result = {"rep": rep, "traced": traced, "stages": [], "ok": False, "checks": {},
                      "error": failure}
        result["wall_s"] = wall
        result["digest"] = out_digest(out) if out.is_dir() else None
        result.update(artifact_counts(self.work) if out.is_dir() else {})
        self.reps.append(result)
        return result


def measure(run: Run, seconds: float, trace: bool, setup_per_rep: int) -> list[float]:
    """Warm-up, then timed repetitions until `seconds` are used. With
    tracing, untraced and traced repetitions alternate. At least MIN_REPS
    of each kind run even when that goes past `seconds` (within
    DEADLINE_S), so that counts can be compared and the overhead comes from
    repeated runs. Without tracing, `setup_per_rep` set-up samples are
    taken before every timed repetition and their time counts towards
    `seconds`, so that their median spans the whole run; the warm-up sample
    only fills the bytecode cache and is dropped. Returns the set-up
    samples."""
    kinds = [False, True] if trace else [False]
    setup: list[float] = []
    if not trace:
        run.setup_sample()
    run.repetition(traced=False)
    start = time.monotonic()
    timed = 0
    while True:
        if not trace:
            setup.extend(run.setup_sample() for _ in range(setup_per_rep))
        run.repetition(kinds[timed % len(kinds)])
        timed += 1
        following = kinds[timed % len(kinds)]
        past = [r["wall_s"] for r in run.reps[1:] if r["traced"] == following]
        estimate = statistics.median(past) if past else run.reps[-1]["wall_s"]
        if setup:
            estimate += setup_per_rep * statistics.median(setup)
        if run.remaining() < estimate:
            break
        if timed >= MIN_REPS * len(kinds) and time.monotonic() - start + estimate > seconds:
            break
    return setup


def count_operations(reps: list[dict]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for r in reps:
        if r.get("error"):
            attempted += 1
            failures.append(f"repetition: {r['error'].splitlines()[-1]}")
        for s in r["stages"]:
            attempted += 1
            if s["rc"] != 0:
                failures.append(f"stage {s['stage']} exit {s['rc']}: {s['error'] or ''}")
        for name, reason in r["checks"].items():
            attempted += 1
            if reason is not None:
                failures.append(f"check {name}: {reason}")
    return attempted, failures


def deterministic_counts(r: dict) -> dict:
    counts = {k: r[k] for k in ("digest", "cli.out_bytes", "cli.bytes_hashed") if k in r}
    if "trace" in r:
        counts.update(r["trace"]["counts"])
        counts.update({f"{k}_calls": v for k, v in r["trace"]["calls"].items()})
    return counts


def determinism_failure(reps: list[dict], trace: bool) -> str | None:
    """Digest and artifact counts must agree across all successful
    repetitions; with tracing, counts from traced repetitions across traced
    ones. Fewer than two repetitions to compare fails the check."""
    ok = [r for r in reps if r["ok"]]
    groups = {"": ok}
    if trace:
        groups["traced "] = [r for r in ok if r["traced"]]
    for kind, group in groups.items():
        if len(group) < 2:
            return f"{len(group)} successful {kind}repetitions, fewer than 2 to compare"
        first = deterministic_counts(group[0])
        for r in group[1:]:
            other = deterministic_counts(r)
            diff = sorted(k for k in first.keys() & other.keys() if first[k] != other[k])
            if diff:
                return f"rep {r['rep']} differs from rep {group[0]['rep']} in {', '.join(diff)}"
    return None


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p95/p99 with at least ten samples above it
    (nearest rank), or None when there are too few samples."""
    n, found = len(values), None
    for p in (90, 95, 99):
        if n * (100 - p) >= 1000:
            found = (f"p{p}", sorted(values)[-(-p * n // 100) - 1])
    return found


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    timed = [r for r in run.reps[1:] if r["ok"]]
    samples = {"setup_s": setup}
    if timed:
        samples["pipeline_s"] = [r["pipeline_s"] for r in timed]
        samples["peak_rss_mb"] = [r["maxrss_kb"] / 1024.0 for r in timed]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items() if name in samples}
    return metrics, samples


def per_layer(run: Run) -> tuple[dict, dict]:
    """Medians over traced repetitions, except `cli.<stage>_s` (untraced
    ones)."""
    plain = [r for r in run.reps[1:] if r["ok"] and not r["traced"]]
    traced = [r for r in run.reps[1:] if r["ok"] and r["traced"]]
    units = per_layer_units()
    samples: dict[str, list[float]] = {}
    for r in plain:
        for s in r["stages"]:
            samples.setdefault(f"cli.{s['stage']}_s", []).append(s["s"])
    for r in traced:
        t = r["trace"]
        values = {"cli.self_s": t["self_s"]["cli"]}
        for layer, names in LAYER_TIMES.items():
            values.update({f"{layer}.{n}_s": t["time_s"].get(f"{layer}.{n}", 0.0) for n in names})
            values[f"{layer}.self_s"] = t["self_s"][layer]
        values.update({f"{n}_calls": t["calls"].get(n, 0) for n in LAYER_CALLS})
        values.update({n: t["counts"].get(n, 0) for n in LAYER_COUNTS})
        for caller in TSS_CALLERS:
            calls, secs = t["tss_by_caller"].get(caller, (0, 0.0))
            values[f"simvec.tss_{caller}_s"] = secs
            values[f"simvec.tss_{caller}_calls"] = calls
        fits = t["counts"].get("authrev.elastic_net_fits", 0)
        converged = t["counts"].get("authrev.elastic_net_fits_converged", 0)
        values["authrev.elastic_net_converged"] = converged / fits if fits else 0.0
        values["authrev.forest_trained"] = int(r["checks"].get("forest_trained") is None)
        values.update({k: r[k] for k in ("cli.out_bytes", "cli.bytes_hashed")})
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
    if plain and traced:
        samples["trace_overhead"] = [
            statistics.median(r["pipeline_s"] for r in traced)
            / statistics.median(r["pipeline_s"] for r in plain)
        ]
    # counts repeat exactly, so median_low keeps them whole numbers
    metrics = {name: {"value": (statistics.median if unit in ("s", "ratio")
                                else statistics.median_low)(samples[name]), "unit": unit}
               for name, unit in units.items() if name in samples}
    return metrics, samples


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke_run: bool) -> None:
    """Measure one workload and print its metrics; the last line printed is
    the JSON result."""
    t0 = time.monotonic()
    workload = smoke(WORKLOADS[name]) if smoke_run else WORKLOADS[name]
    work = root / ".bench_work" / (f"{name}-{seed}" + ("-smoke" if smoke_run else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    gen_start = time.perf_counter()
    corpus = generate(workload.corpus, seed, work)
    gen_s = time.perf_counter() - gen_start
    names = corpus.pop("names")
    (work / "names.json").write_text(json.dumps(names, ensure_ascii=False), encoding="utf-8")
    cfg = config_for(workload)
    (work / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")

    run = Run(root, work, t0 + DEADLINE_S)
    setup = measure(run, seconds, trace, 1 if smoke_run else SETUP_PER_REP)

    attempted, failures = count_operations(run.reps)
    attempted += 1
    nondeterminism = determinism_failure(run.reps, trace)
    if nondeterminism:
        failures.append(f"determinism: {nondeterminism}")
    metrics, samples = per_layer(run) if trace else end_to_end(run, setup)

    digests = sorted({r["digest"] for r in run.reps if r["ok"]})
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke_run,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "threads": THREADS, "git_commit": git_commit(root),
            "source_sha256": source_digest(root / "src"),
        },
        "corpus": corpus, "config": cfg, "gen_s": gen_s,
        "out_dir_sha256": digests[0] if len(digests) == 1 else (digests or None),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": metrics, "samples": samples, "repetitions": run.reps,
    }
    (work / "results.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {name}  seed {seed}  trace {int(trace)}  threads {THREADS}  "
          f"repetitions {len(run.reps) - 1} (+1 warm-up discarded)  "
          f"corpus generated in {gen_s:.2f} s")
    print(f"  inputs: {corpus['sha256']}  out_dir sha256: {record['out_dir_sha256']}")
    for metric, m in metrics.items():
        values = samples[metric]
        high = high_percentile(values)
        extra = f"{high[0]} {high[1]:<12.6g}" if high else ""
        print(f"  {metric:34s} median {m['value']:<12.6g} max {max(values):<12.6g} "
              f"{extra}{m['unit']:6s} n={len(values)}")
    print(f"  {'fail_ratio':34s} {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4g} ratio")
    for f in sorted(set(failures)):
        print(f"  FAILED x{failures.count(f)} {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="artistnet pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long miniature run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "artistnet" / "cli.py").is_file():
        print(f"error: no artistnet source tree at {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
