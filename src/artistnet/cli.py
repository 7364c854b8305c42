"""Command-line pipeline: each stage persists its outputs under the output
directory and records them in a manifest (config snapshot, input/output
hashes, seed) so any run is reproducible.

Exit codes: 0 success, 2 config error, 3 data error, 4 missing upstream
artifact.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from artistnet import authrev, centrality, genre, graph, ingest, simvec

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEPENDENCY = 4

STAGE_COMMANDS = {
    "ingest": "ingest",
    "graph": "graph build",
    "centrality": "centrality",
    "similarity": "similarity",
    "genre": "genre",
    "authenticity": "authenticity",
    "revolution": "revolution",
}


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class DependencyError(Exception):
    def __init__(self, artifact: str, stage: str):
        super().__init__(
            f"missing artifact {artifact}; run `artistnet {STAGE_COMMANDS[stage]}` first"
        )


DEFAULT_CONFIG = {
    "influence_csv": None,
    "songs_csv": None,
    "out_dir": "out",
    "seed": 0,
    "pca_k": simvec.DEFAULT_COMPONENTS,
    "uniqueness_cap": 500,
    "sampling": {"samples_per_run": 2500, "runs": 20},
    "authenticity": {"alpha": 0.8, "mode": "pair_mean"},
    "elastic_net": {"lambda_grid": [0.001, 0.01, 0.1, 1.0], "alpha_mix": 0.5},
    "forest": {"trees": 200, "max_depth": 8, "split": [0.10, 0.05, 0.05]},
    "thresholds": {"genre_matrix_prune": 0.05, "periphery": 0.5},
    "cluster": {"linkage": "average", "cut": 5},
    "trend": None,  # optional {"genre": ..., "feature": ...}
    "phrases_file": None,
    "bios_dir": None,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    if not isinstance(user, dict):
        raise ConfigError("<file>", "config root must be an object")
    cfg = _merge(DEFAULT_CONFIG, user)
    # Environment overrides for paths only.
    for env, key in (
        ("ARTISTNET_INFLUENCE_CSV", "influence_csv"),
        ("ARTISTNET_SONGS_CSV", "songs_csv"),
        ("ARTISTNET_OUT_DIR", "out_dir"),
    ):
        if os.environ.get(env):
            cfg[key] = os.environ[env]
    _validate_config(cfg)
    return cfg


def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def _is_number(v, lo: float = 0.0, hi: float = float("inf")) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and lo <= v <= hi


# Integer fields with their least value, and number fields with their range.
_INT_FIELDS = {"seed": 0, "pca_k": 1, "uniqueness_cap": 2, "sampling.samples_per_run": 1,
               "sampling.runs": 1, "forest.trees": 1, "forest.max_depth": 1, "cluster.cut": 1}
_NUMBER_FIELDS = {"pca_k": (1, 13), "authenticity.alpha": (0, 2), "elastic_net.alpha_mix": (0, 1),
                  "thresholds.genre_matrix_prune": (0, 1), "thresholds.periphery": (0, 1)}


def _validate_config(cfg: dict) -> None:
    for key in ("influence_csv", "songs_csv", "out_dir"):
        _require(cfg[key] and isinstance(cfg[key], str), key, "required path missing or not a string")
    for key in ("phrases_file", "bios_dir"):
        _require(cfg[key] is None or isinstance(cfg[key], str), key, "must be a path string or null")
    for section in ("sampling", "authenticity", "elastic_net", "forest", "thresholds", "cluster"):
        _require(isinstance(cfg[section], dict), section, "must be an object")
    for name, lo in _INT_FIELDS.items():
        v = functools.reduce(dict.get, name.split("."), cfg)
        _require(isinstance(v, int) and _is_number(v, lo), name, f"must be an integer >= {lo}")
    for name, (lo, hi) in _NUMBER_FIELDS.items():
        v = functools.reduce(dict.get, name.split("."), cfg)
        _require(_is_number(v, lo, hi), name, f"must be a number in [{lo}, {hi}]")
    _require(cfg["authenticity"]["mode"] in ("pair_mean", "unbounded"), "authenticity.mode",
             "must be pair_mean or unbounded")
    grid = cfg["elastic_net"]["lambda_grid"]
    _require(isinstance(grid, list) and grid and all(_is_number(l) for l in grid),
             "elastic_net.lambda_grid", "must be a nonempty list of numbers >= 0")
    split = cfg["forest"]["split"]
    _require(
        isinstance(split, list) and len(split) == 3
        and all(_is_number(x) and 0 < x < 1 for x in split) and sum(split) <= 1.0,
        "forest.split", "must be three fractions summing to <= 1",
    )
    _require(cfg["cluster"]["linkage"] in ("average", "ward"), "cluster.linkage", "must be average or ward")
    trend = cfg["trend"]
    _require(trend is None or isinstance(trend, dict) and all(
        isinstance(trend.get(k), str) for k in ("genre", "feature")),
        "trend", "must be null or an object with string genre and feature")


# ---------------------------------------------------------------------------
# manifest and IO helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _update_manifest(out: Path, stage: str, cfg: dict, inputs: list[Path], outputs: list[Path]) -> None:
    manifest_path = out / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest.setdefault("stages", {})
    manifest["config_snapshot"] = cfg
    manifest["stages"][stage] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg["seed"],
        "inputs": {str(p): _sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    _write(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _need(out: Path, name: str, stage: str) -> Path:
    path = out / name
    if not path.exists():
        raise DependencyError(name, stage)
    return path


def _load_graph_artifacts(out: Path) -> graph.InfluenceGraph:
    nodes_path = _need(out, "nodes.csv", "graph")
    edges_path = _need(out, "edges.csv", "graph")
    nodes = []
    with open(nodes_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            nodes.append(
                graph.ArtistNode(
                    id=int(row["id"]), name=row["name"], genre=row["genre"],
                    active_start=int(row["active_start"]),
                )
            )
    edges = []
    with open(edges_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            edges.append(
                graph.InfluenceEdge(
                    src=int(row["from"]), dst=int(row["to"]),
                    year_diff=int(row["year_diff"]),
                    weight=float(row["weight"]) if row["weight"] else None,
                )
            )
    return graph.InfluenceGraph(nodes, edges)


def _load_profiles_csv(path: Path) -> dict[int, np.ndarray]:
    profiles = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            profiles[int(row[0])] = np.array([float(v) for v in row[1:]])
    return profiles


def _load_scores_csv(path: Path) -> list[centrality.CentralityScores]:
    scores = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            scores.append(
                centrality.CentralityScores(
                    node_id=int(row["node_id"]), lc=float(row["lc"]), sc=float(row["sc"]),
                    gc=float(row["gc"]), ni=float(row["ni"]), rank_ni=int(row["rank_ni"]),
                )
            )
    return scores


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One header and the rows through csv.writer; floats go in as repr
    strings, so they read back exactly."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _write(path, buf.getvalue())


def _write_profiles(path: Path, rows: dict[int, np.ndarray], width: int) -> None:
    _write_csv(path, ["artist_id"] + [f"c{i}" for i in range(width)],
               ([i] + [repr(float(v)) for v in vec] for i, vec in sorted(rows.items())))


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: dict, out: Path) -> None:
    rows = ingest.load_influence(cfg["influence_csv"])
    known = {r.influencer_id for r in rows} | {r.follower_id for r in rows}
    songs, report = ingest.load_songs(cfg["songs_csv"], known_artist_ids=known)
    profiles = ingest.build_artist_profiles(songs)
    ingest.write_influence(out / "influence_clean.csv", rows)
    ingest.write_songs(out / "songs_clean.csv", songs)
    _write(out / "cleaning_report.json", report.to_json())
    _write_profiles(out / "artist_profiles.csv", {a: p.features for a, p in profiles.items()},
                    len(ingest.FEATURES))
    _update_manifest(
        out, "ingest", cfg,
        [Path(cfg["influence_csv"]), Path(cfg["songs_csv"])],
        [out / n for n in ("influence_clean.csv", "songs_clean.csv", "cleaning_report.json", "artist_profiles.csv")],
    )


def stage_graph_build(cfg: dict, out: Path, fmt: str | None) -> None:
    src = _need(out, "influence_clean.csv", "ingest")
    rows = ingest.load_influence(src)
    g = graph.build_graph(rows)
    g = graph.normalize_weights(g)
    dag, removed = graph.remove_cycles(g)
    _write(out / "nodes.csv", graph.export_nodes_csv(dag))
    _write(out / "edges.csv", graph.export_edges_csv(dag))
    _write_csv(out / "removed_edges.csv", ["from", "to", "year_diff", "weight"],
               ([e.src, e.dst, e.year_diff, repr(e.weight)] for e in removed))
    outputs = [out / "nodes.csv", out / "edges.csv", out / "removed_edges.csv"]
    if fmt in (None, "dot"):
        _write(out / "graph.dot", graph.export_dot(dag))
        outputs.append(out / "graph.dot")
    summary = {
        "nodes": dag.n_nodes,
        "edges": len(dag.edges),
        "edges_removed_in_decycle": len(removed),
        "self_loops_dropped": dag.self_loops_dropped,
    }
    _write(out / "graph_summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    outputs.append(out / "graph_summary.json")
    _update_manifest(out, "graph", cfg, [src], outputs)


def stage_centrality(cfg: dict, out: Path) -> None:
    g = _load_graph_artifacts(out)
    scores = centrality.node_influence(g)
    _write(out / "centrality.csv", centrality.export_scores_csv(g, scores))
    corr = graph.year_diff_centrality_correlation(g, scores)
    _write(out / "year_diff_correlation.json", json.dumps(corr, sort_keys=True, indent=2) + "\n")
    _update_manifest(
        out, "centrality", cfg,
        [out / "nodes.csv", out / "edges.csv"],
        [out / "centrality.csv", out / "year_diff_correlation.json"],
    )


def stage_similarity(cfg: dict, out: Path) -> None:
    src = _need(out, "artist_profiles.csv", "ingest")
    raw = _load_profiles_csv(src)
    ids = sorted(raw)
    X = np.array([raw[i] for i in ids])
    std = simvec.standardize(X)
    model = simvec.fit_pca(std.vectors, cfg["pca_k"], means=std.means, stdevs=std.stdevs)
    projected = simvec.project(model, std.vectors)
    _write(out / "pca_model.json", model.to_json())
    _write_profiles(out / "profiles_standardized.csv", dict(zip(ids, std.vectors)), X.shape[1])
    _write_profiles(out / "profiles_projected.csv", dict(zip(ids, projected)), cfg["pca_k"])
    cap = min(cfg["uniqueness_cap"], len(ids))
    sample = projected[:cap]
    uniq = {
        metric: simvec.uniqueness(sample, metric)
        for metric in ("euclidean", "cosine", "tss")
    }
    uniq["n_vectors"] = cap
    _write(out / "uniqueness.json", json.dumps(uniq, sort_keys=True, indent=2) + "\n")
    _update_manifest(
        out, "similarity", cfg, [src],
        [out / n for n in ("pca_model.json", "profiles_standardized.csv",
                           "profiles_projected.csv", "uniqueness.json")],
    )


def stage_genre(cfg: dict, out: Path) -> None:
    g = _load_graph_artifacts(out)
    projected = _load_profiles_csv(_need(out, "profiles_projected.csv", "similarity"))
    standardized = _load_profiles_csv(_need(out, "profiles_standardized.csv", "similarity"))
    scores = _load_scores_csv(_need(out, "centrality.csv", "centrality"))
    influence_rows = ingest.load_influence(_need(out, "influence_clean.csv", "ingest"))
    genres = {i: n.genre for i, n in g.nodes.items()}

    sample_cfg = genre.SamplingConfig(
        samples_per_run=cfg["sampling"]["samples_per_run"],
        runs=cfg["sampling"]["runs"],
        seed=cfg["seed"],
    )
    sim_profiles = {i: v for i, v in projected.items() if i in genres}
    sim_report = genre.sample_similarity(sim_profiles, genres, sample_cfg)
    _write(out / "genre_similarity_sampling.json", sim_report.to_json())
    inf_report = genre.sample_influence(g, scores, genres, sample_cfg)
    _write(out / "genre_influence_sampling.json", inf_report.to_json())

    cluster_profiles = {i: v for i, v in standardized.items() if i in genres}
    dendro = genre.cluster_genres(cluster_profiles, genres, linkage=cfg["cluster"]["linkage"])
    _write(out / "dendrogram.json", dendro.to_json())
    _write(out / "dendrogram.newick", dendro.to_newick() + "\n")
    cut_k = min(cfg["cluster"]["cut"], len(dendro.leaves))
    flat = dendro.flat_cut(cut_k)
    _write_csv(out / "genre_clusters.csv", ["genre", "cluster"], sorted(flat.items()))
    debut = genre.debut_counts(influence_rows)
    _write_csv(out / "debut_counts.csv", ["genre", "year", "count"],
               ([gname, year, count] for (gname, year), count in sorted(debut.items())))
    cross, selfp = genre.genre_influence_matrix(g, cfg["thresholds"]["genre_matrix_prune"])
    _write_csv(out / "genre_influence_matrix.csv", ["from_genre", "to_genre", "weight", "self_pair"],
               [[gm, gn, repr(w), 0] for gm, gn, w in cross]
               + [[gm, gn, repr(w), 1] for gm, gn, w in selfp])

    outputs = [
        out / n
        for n in (
            "genre_similarity_sampling.json", "genre_influence_sampling.json",
            "dendrogram.json", "dendrogram.newick", "genre_clusters.csv",
            "debut_counts.csv", "genre_influence_matrix.csv",
        )
    ]
    if cfg["trend"]:
        songs, _ = ingest.load_songs(_need(out, "songs_clean.csv", "ingest"))
        gseries, aseries = genre.genre_feature_trend(
            songs, cfg["trend"]["genre"], cfg["trend"]["feature"], genres
        )
        trend_path = out / "genre_trend.csv"
        _write_csv(trend_path, ["genre", "year", "value"],
                   [[cfg["trend"]["genre"], y, repr(v)] for y, v in sorted(gseries.items())]
                   + [["__all__", y, repr(v)] for y, v in sorted(aseries.items())])
        outputs.append(trend_path)

    _update_manifest(
        out, "genre", cfg,
        [out / "nodes.csv", out / "edges.csv", out / "profiles_projected.csv",
         out / "profiles_standardized.csv", out / "centrality.csv", out / "influence_clean.csv"],
        outputs,
    )


def stage_authenticity(cfg: dict, out: Path) -> None:
    g = _load_graph_artifacts(out)
    projected = _load_profiles_csv(_need(out, "profiles_projected.csv", "similarity"))
    standardized = _load_profiles_csv(_need(out, "profiles_standardized.csv", "similarity"))
    scores = _load_scores_csv(_need(out, "centrality.csv", "centrality"))

    auth_scores, summary = authrev.authenticity(
        g, projected, alpha=cfg["authenticity"]["alpha"], mode=cfg["authenticity"]["mode"]
    )
    _write_csv(out / "authenticity.csv", ["node_id", "ad", "extreme", "stdev"],
               ([s.node_id, repr(s.ad), int(s.extreme), repr(s.stdev)] for s in auth_scores))
    _write(out / "authenticity_summary.json", summary.to_json())

    ni = {s.node_id: s.ni for s in scores}
    ids = sorted(i for i in standardized if i in ni)
    X = np.array([standardized[i] for i in ids])
    y = np.array([ni[i] for i in ids])
    fit = authrev.elastic_net_grid(
        X, y, cfg["elastic_net"]["lambda_grid"], cfg["elastic_net"]["alpha_mix"]
    )
    _write(out / "elastic_net.json", fit.to_json())
    _update_manifest(
        out, "authenticity", cfg,
        [out / "nodes.csv", out / "edges.csv", out / "profiles_projected.csv",
         out / "profiles_standardized.csv", out / "centrality.csv"],
        [out / "authenticity.csv", out / "authenticity_summary.json", out / "elastic_net.json"],
    )


def stage_revolution(cfg: dict, out: Path) -> None:
    g = _load_graph_artifacts(out)
    scores = _load_scores_csv(_need(out, "centrality.csv", "centrality"))
    standardized = _load_profiles_csv(_need(out, "profiles_standardized.csv", "similarity"))

    periphery = {s.node_id: authrev.periphery_score(g, s.node_id) for s in scores}
    keyword_ids: set[int] = set()
    if cfg["phrases_file"] and cfg["bios_dir"]:
        phrases = [
            line.strip()
            for line in Path(cfg["phrases_file"]).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        bios = {}
        for path in sorted(Path(cfg["bios_dir"]).glob("*.txt")):
            try:
                bios[int(path.stem)] = path.read_text(encoding="utf-8")
            except ValueError:
                continue
        keyword_ids, _missing = authrev.semantic_match(phrases, bios)

    labels = authrev.label_revolutionaries(
        scores, periphery, keyword_ids, cfg["thresholds"]["periphery"]
    )
    _write_csv(out / "revolution_labels.csv", ["node_id", "label", "evidence"],
               ([l.node_id, l.label, "|".join(l.evidence)] for l in sorted(labels, key=lambda l: l.node_id)))

    # Forest over labeled nodes ordered by influence rank; skipped (with a
    # recorded reason) when the training slice degenerates to one class.
    by_id = {s.node_id: s for s in scores}
    labeled = [l for l in labels if l.label != "unlabeled"]
    labeled.sort(key=lambda l: (by_id[l.node_id].rank_ni, l.node_id))
    rows = [l for l in labeled if l.node_id in standardized]
    try:
        X = np.array([standardized[l.node_id] for l in rows])
        y = np.array([l.label for l in rows])
        model = authrev.forest_train(
            X, y,
            trees=cfg["forest"]["trees"],
            max_depth=cfg["forest"]["max_depth"],
            seed=cfg["seed"],
            split=tuple(cfg["forest"]["split"]),
        )
        _write(out / "forest_model.json", model.to_json())
    except authrev.AuthRevError as exc:
        _write(
            out / "forest_model.json",
            json.dumps({"trained": False, "reason": str(exc)}, sort_keys=True, indent=2) + "\n",
        )
    _update_manifest(
        out, "revolution", cfg,
        [out / "centrality.csv", out / "profiles_standardized.csv"],
        [out / "revolution_labels.csv", out / "forest_model.json"],
    )


REPORT_PIECES = [
    ("cleaning_report.json", "ingest", "cleaning"),
    ("graph_summary.json", "graph", "graph"),
    ("year_diff_correlation.json", "centrality", "year_diff_correlation"),
    ("uniqueness.json", "similarity", "uniqueness"),
    ("genre_similarity_sampling.json", "genre", "genre_similarity"),
    ("genre_influence_sampling.json", "genre", "genre_influence"),
    ("authenticity_summary.json", "authenticity", "authenticity"),
    ("elastic_net.json", "authenticity", "elastic_net"),
]


def stage_report(cfg: dict, out: Path) -> None:
    report: dict = {}
    inputs = []
    for name, stage, key in REPORT_PIECES:
        path = _need(out, name, stage)
        report[key] = json.loads(path.read_text())
        inputs.append(path)
    labels_path = _need(out, "revolution_labels.csv", "revolution")
    inputs.append(labels_path)
    counts = {"major": 0, "non_major": 0, "unlabeled": 0}
    with open(labels_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            counts[row["label"]] += 1
    report["revolution_label_counts"] = counts
    forest_path = _need(out, "forest_model.json", "revolution")
    forest = json.loads(forest_path.read_text())
    forest.pop("trees", None)  # summaries only in the bundle
    report["forest"] = forest
    inputs.append(forest_path)
    _write(out / "report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    _update_manifest(out, "report", cfg, inputs, [out / "report.json"])


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every stage runs in one process")
    common.add_argument("--format", choices=["csv", "json", "dot", "newick"],
                        help="restrict optional export formats")
    parser = argparse.ArgumentParser(
        prog="artistnet", description="Artist influence network pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common])
    graph_cmd = sub.add_parser("graph")
    graph_sub = graph_cmd.add_subparsers(dest="graph_command", required=True)
    graph_sub.add_parser("build", parents=[common])
    for name in ("centrality", "similarity", "genre", "authenticity", "revolution", "report"):
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg["out_dir"] = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed", "must be nonnegative")
            cfg["seed"] = args.seed
        if args.threads is not None and args.threads < 1:
            raise ConfigError("threads", "must be >= 1")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "ingest":
            stage_ingest(cfg, out)
        elif args.command == "graph":
            stage_graph_build(cfg, out, args.format)
        elif args.command == "centrality":
            stage_centrality(cfg, out)
        elif args.command == "similarity":
            stage_similarity(cfg, out)
        elif args.command == "genre":
            stage_genre(cfg, out)
        elif args.command == "authenticity":
            stage_authenticity(cfg, out)
        elif args.command == "revolution":
            stage_revolution(cfg, out)
        elif args.command == "report":
            stage_report(cfg, out)
    except DependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (ingest.IngestError, graph.GraphError, simvec.SimvecError,
            genre.GenreError, authrev.AuthRevError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
