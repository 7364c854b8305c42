"""Command-line pipeline. `STAGES` is the one declaration of the eight
stages: each `Stage` names its command words, its function and the
artifacts it writes on every run. The argument parser, the dispatch, the
manifest's stage keys and the missing-artifact message (which names the
command of the stage that writes the file) all read it. The first two
stages read only the input tables, so neither needs the other: `ingest`
holds the cleaned songs and writes all that is read off them (the artist
profiles and the genre-by-year feature means, each artist's genre taken
from the influence table), and `graph build` builds the influence graph
from the influence table itself.

A stage reads and writes only through its `Context`, which records each
file as the stage opens or writes it; after the stage the manifest
(config snapshot, seed, SHA-256 of every input and output) is updated from
those records, so it lists exactly what the stage read and wrote. Only the
Context encodes artifacts: `write_table` writes a CSV table of Python
scalars by `ingest.write_table`, `write_json` a value or result record by
`ingest.json_text`, and `write_graph` and `write_scores` the tables that
`load_graph` and `load_scores` read back (by `ingest.read_columns`, as
numpy arrays). `read_text` and `read_json` read text and JSON inputs.

The loaders `Context.load_influence`, `load_graph`, `load_profiles` and
`load_scores` hand a later stage of the process what an earlier one typed
(`_MEMO`, one entry per table read), keyed by the SHA-256 of each file
read (`Context.digest`, as in the manifest) and the arguments, so a
rewritten file is read anew; its arrays are read-only, scores a tuple.
Only a caller that runs several stages in one process (through `main`)
gains: a command line runs one stage per process.

Exit codes: 0 success, 2 config error (including a config file that is
not UTF-8 JSON, a configured input file or directory that does not exist,
and an unknown config key), 3 data error (in an input, an artifact or the
manifest: a bad or missing cell, text that is not UTF-8, JSON that does not
parse), 4 missing upstream artifact.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from artistnet import authrev, centrality, genre, graph, ingest, simvec

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEPENDENCY = 4


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class DependencyError(Exception):
    def __init__(self, artifact: str):
        producer = next(s.command for s in STAGES if artifact in s.writes)
        super().__init__(f"missing artifact {artifact}; run `artistnet {producer}` first")


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
    "phrases_file": None,
    "bios_dir": None,
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`base` updated from `override`, nested objects merged key by key; a
    key `base` has no default for is an error naming its dotted path."""
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(prefix + key, "unknown field")
        if isinstance(value, dict) and isinstance(base[key], dict):
            out[key] = _merge(base[key], value, f"{prefix}{key}.")
        else:
            out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", f"config file is not UTF-8 text: {path} ({exc.reason})")
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


# ---------------------------------------------------------------------------
# stage context and manifest


class Context:
    """One stage's access to the run: the config, the files it reads and
    the artifacts it writes, each recorded for the manifest as it goes."""

    def __init__(self, cfg: dict, stage: Stage):
        self.cfg, self.stage = cfg, stage
        self.out = Path(cfg["out_dir"])
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.digests: dict[Path, str] = {}

    def read(self, name: str | Path) -> Path:
        """Path of input `name`, recorded if it is a file: a config field
        (influence_csv, songs_csv, phrases_file, bios_dir), an artifact in
        out_dir, or a `Path` found by the stage (a bio). A missing
        configured path is a config error naming the field; a missing
        artifact names the stage that writes it."""
        if isinstance(name, Path):
            path = name
        elif name in self.cfg:
            path = Path(self.cfg[name])
            kind = "directory" if name.endswith("_dir") else "file"
            if not (path.is_dir() if kind == "directory" else path.is_file()):
                raise ConfigError(name, f"no such {kind}: {path}")
        else:
            path = self.out / name
            if not path.is_file():
                raise DependencyError(name)
        if path.is_file():
            self.inputs.append(path)
        return path

    def write(self, name: str) -> Path:
        """Path of artifact `name`, one of the stage's declared `writes`."""
        if name not in self.stage.writes:
            raise RuntimeError(f"stage {self.stage.command} does not declare {name} in its writes")
        path = self.out / name
        self.outputs.append(path)
        return path

    def write_text(self, name: str, text: str) -> None:
        self.write(name).write_text(text, encoding="utf-8")

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, ingest.json_text(obj))

    def write_table(self, name: str, header, rows) -> None:
        """Artifact `name`: column names `header`, then `rows` of Python scalars."""
        ingest.write_table(self.write(name), header, rows)

    def write_graph(self, g: graph.InfluenceGraph) -> None:
        """nodes.csv and edges.csv of `g`, as `load_graph` reads them."""
        self.write_table("nodes.csv", NODE_COLUMNS,
                         ([i, n.name, n.genre, n.active_start] for i, n in sorted(g.nodes.items())))
        self.write_table("edges.csv", EDGE_COLUMNS, g.edge_rows())

    def write_scores(self, g: graph.InfluenceGraph, scores) -> None:
        """centrality.csv: each of `scores`, in order, with the node's name,
        genre and (first, second, total) reach, as `load_scores` reads it."""
        self.write_table("centrality.csv", SCORE_COLUMNS, (
            [s.node_id, g.nodes[s.node_id].name, g.nodes[s.node_id].genre, s.lc, s.sc, s.gc, s.ni, s.rank_ni,
             *graph.reachability_counts(g, s.node_id)] for s in scores))

    def read_text(self, name: str | Path) -> str:
        """The text of input `name` (see `read`), which must be UTF-8."""
        return ingest.read_text(self.read(name))

    def read_json(self, name: str):
        """The JSON value of input `name` (see `_read_json`)."""
        return _read_json(self.read(name))

    def digest(self, path: Path) -> str:
        """SHA-256 of file `path`, hashed once in the stage."""
        if path not in self.digests:
            self.digests[path] = hashlib.sha256(path.read_bytes()).hexdigest()
        return self.digests[path]

    def _memo(self, names: tuple, load, *args):
        """load(*paths) of inputs `names` (see `read`), or the value it gave
        earlier in this process on files of the same digests and `args`."""
        paths = list(map(self.read, names))
        key = (*map(self.digest, paths), *args)
        if _MEMO.get(names, (None,))[0] != key:
            _MEMO[names] = key, _read_only(load(*paths))
        return _MEMO[names][1]

    def load_influence(self):
        """`ingest.load_influence` of influence_csv."""
        return self._memo(("influence_csv",), ingest.load_influence)

    def load_graph(self) -> graph.InfluenceGraph:
        def load(nodes_path, edges_path):
            ids, names, genres, starts = ingest.read_columns(nodes_path, NODE_COLUMNS)
            nodes = list(map(graph.ArtistNode, ids.tolist(), names, genres, starts.tolist()))
            return graph.InfluenceGraph.from_arrays(nodes, *ingest.read_columns(edges_path, EDGE_COLUMNS))
        return self._memo(("nodes.csv", "edges.csv"), load)

    def load_profiles(self, name: str, width: int) -> dict[int, np.ndarray]:
        """`_read_profiles` of profile table `name`."""
        return self._memo((name,), lambda path: _read_profiles(path, width), width)

    def load_scores(self) -> tuple[centrality.CentralityScores, ...]:
        def load(path):
            cols = ingest.read_columns(path, {
                "node_id": int, "lc": float, "sc": float, "gc": float, "ni": float, "rank_ni": int})
            return tuple(map(centrality.CentralityScores, *(c.tolist() for c in cols)))
        return self._memo(("centrality.csv",), load)


# The graph tables' columns (removed_edges.csv's too) with their cell types, and centrality.csv's.
NODE_COLUMNS = {"id": int, "name": str, "genre": str, "active_start": int}
EDGE_COLUMNS = {"from": int, "to": int, "year_diff": int, "weight": ingest.optional_float}
SCORE_COLUMNS = ["node_id", "name", "genre", "lc", "sc", "gc", "ni", "rank_ni",
                 "first_order", "second_order", "total_reach"]

# What `Context._memo` loaded in this process: input names -> (key, value),
# the key the SHA-256 of each file read and the loader's arguments.
_MEMO: dict[tuple, tuple] = {}


def _read_only(value):
    """`value`, the arrays among its items, values or attributes made
    read-only: every stage that loads it gets the same object."""
    parts = value if isinstance(value, tuple) else value.values() if isinstance(value, dict) else vars(value).values()
    for v in parts:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return value


def _read_json(path: Path):
    """The JSON value of a UTF-8 file; bad JSON is a data error naming it."""
    try:
        return json.loads(ingest.read_text(path))
    except json.JSONDecodeError as exc:
        raise ingest.IngestError(f"{path}:{exc.lineno}: not JSON ({exc.msg})") from None


def _read_manifest(path: Path) -> dict:
    """The manifest at `path`, empty if there is none yet; one that does not
    parse as a JSON object is a data error naming it."""
    manifest = _read_json(path) if path.exists() else {}
    if not isinstance(manifest, dict):
        raise ingest.IngestError(f"{path}: not a JSON object")
    return manifest


def _update_manifest(ctx: Context, manifest: dict) -> None:
    """Record the stage's run in `manifest` and write it to out_dir."""
    manifest.setdefault("stages", {})
    manifest["config_snapshot"] = ctx.cfg
    manifest["stages"][ctx.stage.name] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": ctx.cfg["seed"],
        "inputs": {str(p): ctx.digest(p) for p in sorted(ctx.inputs)},
        "outputs": {p.name: ctx.digest(p) for p in sorted(ctx.outputs)},
    }
    (ctx.out / "manifest.json").write_text(ingest.json_text(manifest), encoding="utf-8")


# ---------------------------------------------------------------------------
# stages


def _profile_header(width: int) -> list[str]:
    return ["artist_id"] + [f"c{i}" for i in range(width)]


def _read_profiles(path: Path, width: int) -> dict[int, np.ndarray]:
    """Artist id -> vector of the first `width` columns of the profile table
    at `path`; the vectors are the rows of one matrix."""
    ids, *values = ingest.read_columns(path, dict.fromkeys(_profile_header(width), float) | {"artist_id": int})
    return dict(zip(ids.tolist(), np.column_stack(values)))


def stage_ingest(ctx: Context) -> None:
    ctx.read("influence_csv")  # checked before songs_csv
    songs_path = ctx.read("songs_csv")
    artists, _, _ = ctx.load_influence()
    genres = {a: genre for a, (_, genre, _) in artists.items()}  # as nodes.csv records them
    songs, report = ingest.load_songs(songs_path, known_artist_ids=genres)
    profiles = ingest.build_artist_profiles(songs)
    ctx.write_json("cleaning_report.json", report)
    ctx.write_table("artist_profiles.csv", _profile_header(len(ingest.FEATURES)),
                    ([a, *p.tolist()] for a, p in profiles.items()))
    ctx.write_table("genre_year_means.csv", genre.YEAR_MEANS_COLUMNS, genre.genre_year_means(songs, genres))


def stage_graph_build(ctx: Context) -> None:
    g = graph.build_graph(*ctx.load_influence())
    dag, removed = graph.remove_cycles(g)
    ctx.write_graph(dag)
    ctx.write_table("removed_edges.csv", EDGE_COLUMNS, ([e.src, e.dst, e.year_diff, e.weight] for e in removed))
    ctx.write_text("graph.dot", graph.export_dot(dag))
    ctx.write_json("graph_summary.json", {
        "nodes": dag.n_nodes,
        "edges": dag.n_edges,
        "edges_dropped_year_window": dag.year_window_dropped,
        "edges_removed_in_decycle": len(removed),
        "self_loops_dropped": dag.self_loops_dropped,
    })


def stage_centrality(ctx: Context) -> None:
    g = ctx.load_graph()
    scores = centrality.node_influence(g)
    ctx.write_scores(g, scores)
    ctx.write_json("year_diff_correlation.json", graph.year_diff_centrality_correlation(g, scores))


def stage_similarity(ctx: Context) -> None:
    raw = _read_profiles(ctx.read("artist_profiles.csv"), len(ingest.FEATURES))  # not held: no later stage reads it
    ids = sorted(raw)
    X = np.array([raw[i] for i in ids])
    std = simvec.standardize(X)
    model = simvec.fit_pca(std.vectors, ctx.cfg["pca_k"], means=std.means, stdevs=std.stdevs)
    projected = simvec.project(model, std.vectors)
    ctx.write_json("pca_model.json", model)
    ctx.write_table("profiles_standardized.csv", _profile_header(X.shape[1]),
                    ([i, *v] for i, v in zip(ids, std.vectors.tolist())))
    ctx.write_table("profiles_projected.csv", _profile_header(ctx.cfg["pca_k"]),
                    ([i, *v] for i, v in zip(ids, projected.tolist())))
    cap = min(ctx.cfg["uniqueness_cap"], len(ids))
    sample = projected[:cap]
    uniq = {
        metric: simvec.uniqueness(sample, metric)
        for metric in ("euclidean", "cosine", "tss")
    }
    uniq["n_vectors"] = cap
    ctx.write_json("uniqueness.json", uniq)


def stage_genre(ctx: Context) -> None:
    cfg = ctx.cfg
    g = ctx.load_graph()
    projected = ctx.load_profiles("profiles_projected.csv", cfg["pca_k"])
    standardized = ctx.load_profiles("profiles_standardized.csv", len(ingest.FEATURES))
    scores = ctx.load_scores()
    genres = {i: n.genre for i, n in g.nodes.items()}

    sample_cfg = genre.SamplingConfig(**cfg["sampling"], seed=cfg["seed"])
    sim_profiles = {i: v for i, v in projected.items() if i in genres}
    ctx.write_json("genre_similarity_sampling.json", genre.sample_similarity(sim_profiles, genres, sample_cfg))
    ctx.write_json("genre_influence_sampling.json", genre.sample_influence(g, scores, genres, sample_cfg))

    cluster_profiles = {i: v for i, v in standardized.items() if i in genres}
    dendro = genre.cluster_genres(cluster_profiles, genres, linkage=cfg["cluster"]["linkage"])
    ctx.write_json("dendrogram.json", dendro)
    ctx.write_text("dendrogram.newick", dendro.to_newick() + "\n")
    cut_k = min(cfg["cluster"]["cut"], len(dendro.leaves))
    flat = dendro.flat_cut(cut_k)
    ctx.write_table("genre_clusters.csv", ["genre", "cluster"], sorted(flat.items()))
    debut = genre.debut_counts(g)
    ctx.write_table("debut_counts.csv", ["genre", "year", "count"],
                    ([gname, year, count] for (gname, year), count in sorted(debut.items())))
    cross, selfp = genre.genre_influence_matrix(g, cfg["thresholds"]["genre_matrix_prune"])
    ctx.write_table("genre_influence_matrix.csv", ["from_genre", "to_genre", "weight", "self_pair"],
                    [[gm, gn, w, 0] for gm, gn, w in cross] + [[gm, gn, w, 1] for gm, gn, w in selfp])


def stage_authenticity(ctx: Context) -> None:
    cfg = ctx.cfg
    g = ctx.load_graph()
    projected = ctx.load_profiles("profiles_projected.csv", cfg["pca_k"])
    standardized = ctx.load_profiles("profiles_standardized.csv", len(ingest.FEATURES))
    scores = ctx.load_scores()

    auth_scores, summary = authrev.authenticity(g, projected, **cfg["authenticity"])
    ctx.write_table("authenticity.csv", ["node_id", "ad", "extreme", "stdev"],
                    ([s.node_id, s.ad, int(s.extreme), s.stdev] for s in auth_scores))
    ctx.write_json("authenticity_summary.json", summary)

    ni = {s.node_id: s.ni for s in scores}
    ids = sorted(i for i in standardized if i in ni)
    X = np.array([standardized[i] for i in ids])
    y = np.array([ni[i] for i in ids])
    fit = authrev.elastic_net_grid(X, y, **cfg["elastic_net"])
    ctx.write_json("elastic_net.json", {"intercept": fit.intercept, "coefficients": fit.coefficients,
                                        "lambda": fit.lam, "alpha_mix": fit.alpha_mix,
                                        "iterations": fit.iterations, "converged": fit.converged})


def stage_revolution(ctx: Context) -> None:
    cfg = ctx.cfg
    g = ctx.load_graph()
    scores = ctx.load_scores()
    standardized = ctx.load_profiles("profiles_standardized.csv", len(ingest.FEATURES))

    periphery = authrev.periphery_scores(g, [s.node_id for s in scores])
    keyword_ids: set[int] = set()
    if cfg["phrases_file"] and cfg["bios_dir"]:
        phrases = [line.strip() for line in ctx.read_text("phrases_file").splitlines() if line.strip()]
        bios = {}
        for path in sorted(ctx.read("bios_dir").glob("*.txt")):
            try:
                artist = int(path.stem)
            except ValueError:
                continue
            bios[artist] = ctx.read_text(path)
        keyword_ids, _missing = authrev.semantic_match(phrases, bios)

    labels = authrev.label_revolutionaries(scores, periphery, keyword_ids, cfg["thresholds"]["periphery"])
    ctx.write_table("revolution_labels.csv", ["node_id", "label", "evidence"],
                    ([l.node_id, l.label, "|".join(l.evidence)]
                     for l in sorted(labels, key=lambda l: l.node_id)))

    # Forest over labeled nodes in a seeded, class-stratified order of their
    # influence ranks, so that every slice keeps the class mix; skipped
    # (with a recorded reason) when the training slice has one class.
    by_id = {s.node_id: s for s in scores}
    labeled = [l for l in labels if l.label != "unlabeled"]
    labeled.sort(key=lambda l: (by_id[l.node_id].rank_ni, l.node_id))
    rows = [l for l in labeled if l.node_id in standardized]
    rows = [rows[k] for k in _stratified_order([l.label for l in rows], cfg["seed"])]
    try:
        X = np.array([standardized[l.node_id] for l in rows])
        y = np.array([l.label for l in rows])
        model = authrev.forest_train(X, y, **cfg["forest"], seed=cfg["seed"])
        ctx.write_json("forest_model.json", {**vars(model), "n_trees": len(model.trees),
                                             "trees": [t.root for t in model.trees], "trained": True})
    except authrev.AuthRevError as exc:
        ctx.write_json("forest_model.json", {"trained": False, "reason": str(exc)})


def _stratified_order(labels: list[str], seed: int) -> list[int]:
    """Positions of `labels` in an order whose every prefix keeps the class
    mix: each class is shuffled by one seeded generator, its i-th of n_c
    members keyed (i + 0.5) / n_c, and the rows sorted by (key, class)."""
    rng = np.random.default_rng(seed)
    keyed = []
    for c in sorted(set(labels)):
        members = rng.permutation([k for k, l in enumerate(labels) if l == c]).tolist()
        keyed += [((i + 0.5) / len(members), c, k) for i, k in enumerate(members)]
    return [k for _, _, k in sorted(keyed)]


# The JSON artifacts bundled into report.json, by report key.
REPORT_PIECES = {
    "cleaning_report.json": "cleaning",
    "graph_summary.json": "graph",
    "year_diff_correlation.json": "year_diff_correlation",
    "uniqueness.json": "uniqueness",
    "genre_similarity_sampling.json": "genre_similarity",
    "genre_influence_sampling.json": "genre_influence",
    "authenticity_summary.json": "authenticity",
    "elastic_net.json": "elastic_net",
}
REVOLUTION_LABELS = ("major", "non_major", "unlabeled")


def stage_report(ctx: Context) -> None:
    report = {key: ctx.read_json(name) for name, key in REPORT_PIECES.items()}
    labels, = ingest.read_columns(ctx.read("revolution_labels.csv"), {"label": REVOLUTION_LABELS.index})
    report["revolution_label_counts"] = {l: labels.count(k) for k, l in enumerate(REVOLUTION_LABELS)}
    forest = ctx.read_json("forest_model.json")
    forest.pop("trees", None)  # summaries only in the bundle
    report["forest"] = forest
    ctx.write_json("report.json", report)


@dataclass(frozen=True)
class Stage:
    command: str  # the words after `artistnet`
    fn: Callable[[Context], None]
    writes: tuple[str, ...]  # every artifact the stage writes, on every run

    @property
    def name(self) -> str:
        """The stage's key in the manifest: its first command word."""
        return self.command.split()[0]


STAGES = (
    Stage("ingest", stage_ingest,
          ("cleaning_report.json", "artist_profiles.csv", "genre_year_means.csv")),
    Stage("graph build", stage_graph_build,
          ("nodes.csv", "edges.csv", "removed_edges.csv", "graph.dot", "graph_summary.json")),
    Stage("centrality", stage_centrality, ("centrality.csv", "year_diff_correlation.json")),
    Stage("similarity", stage_similarity,
          ("pca_model.json", "profiles_standardized.csv", "profiles_projected.csv", "uniqueness.json")),
    Stage("genre", stage_genre,
          ("genre_similarity_sampling.json", "genre_influence_sampling.json", "dendrogram.json",
           "dendrogram.newick", "genre_clusters.csv", "debut_counts.csv",
           "genre_influence_matrix.csv")),
    Stage("authenticity", stage_authenticity,
          ("authenticity.csv", "authenticity_summary.json", "elastic_net.json")),
    Stage("revolution", stage_revolution, ("revolution_labels.csv", "forest_model.json")),
    Stage("report", stage_report, ("report.json",)),
)


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every stage runs in one process")
    parser = argparse.ArgumentParser(
        prog="artistnet", description="Artist influence network pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        word, *rest = stage.command.split()
        cmd = sub.add_parser(word, parents=[] if rest else [common])
        if rest:  # a two-word command such as `graph build`
            cmd = cmd.add_subparsers(dest="action", required=True).add_parser(rest[0], parents=[common])
        cmd.set_defaults(stage=stage)
    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


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
        ctx = Context(cfg, args.stage)
        ctx.out.mkdir(parents=True, exist_ok=True)
        manifest = _read_manifest(ctx.out / "manifest.json")
        args.stage.fn(ctx)
        _update_manifest(ctx, manifest)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except DependencyError as exc:
        return _fail(exc, EXIT_DEPENDENCY)
    except (ingest.IngestError, graph.GraphError, simvec.SimvecError,
            genre.GenreError, authrev.AuthRevError) as exc:
        return _fail(exc, EXIT_DATA)
    return 0


if __name__ == "__main__":
    sys.exit(main())
