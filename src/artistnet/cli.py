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

A stage reads only through its `Context`, which records each file as the
stage opens it, and writes nothing: it returns all of its artifacts,
`{name: value}`. `main` refuses names that are not the stage's `writes`,
then `write_artifacts`, the one encoder of artifacts, writes each by its
name's suffix and then the manifest (config snapshot, seed, SHA-256 of
every input and output), each moved into place once all are written. So
a stage that fails, or a write that fails, leaves an earlier run's files
as they were. Table rows are iterators, made only while the table is
written. `graph_tables` and `score_table` lay out the tables that
`load_graph` and `load_scores` read back.

The loaders `Context.load_influence`, `load_graph`, `load_profiles` and
`load_scores` hand a later stage of the process what an earlier one typed
(`_MEMO`, one entry per table read), keyed by the SHA-256 of each file
read (`Context.digest`, as in the manifest) and the arguments, so a
rewritten file is read anew; its arrays are read-only, scores a tuple.
Only a caller that runs several stages in one process (through `main`)
gains: a command line runs one stage per process.

Exit codes: 0 success, 2 config error (including a config file that is
not UTF-8 JSON, a configured input file or directory that does not exist,
an out_dir that cannot be a directory or written to, and an unknown config
key), 3 data error (in an input, an artifact or the manifest: a bad or
missing cell, text that is not UTF-8, JSON that does not parse), 4
missing upstream artifact.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
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


# The kinds of rule a config field has: each a test of the field's value and
# the message for a value that fails it. (A JSON true is not a number.)
def _integer(lo: int, hi: float = math.inf):
    return (lambda v: type(v) is int and lo <= v <= hi,
            f"must be an integer >= {lo}" if hi == math.inf else f"must be an integer in [{lo}, {hi}]")


def _number(lo: float, hi: float):
    return lambda v: type(v) in (int, float) and lo <= v <= hi, f"must be a number in [{lo}, {hi}]"


def _one_of(*choices: str):
    return lambda v: v in choices, f"must be {' or '.join(choices)}"


_PATH = (lambda v: type(v) is str and v != "", "required path missing or not a string")
_OPTIONAL_PATH = (lambda v: v is None or type(v) is str, "must be a path string or null")
_LAMBDA_GRID = (lambda v: type(v) is list and v != [] and all(type(l) in (int, float) and l >= 0 for l in v),
                "must be a nonempty list of numbers >= 0")
_SPLIT = (lambda v: type(v) is list and len(v) == 3 and all(type(x) in (int, float) and 0 < x < 1 for x in v)
          and math.fsum(v) <= 1, "must be three fractions summing to <= 1")

# Every config field, by dotted name (section.key), with its default and its rule.
FIELDS = {
    "influence_csv": (None, _PATH),
    "songs_csv": (None, _PATH),
    "out_dir": ("out", _PATH),
    "seed": (0, _integer(0)),
    "pca_k": (simvec.DEFAULT_COMPONENTS, _integer(1, 13)),
    "uniqueness_cap": (500, _integer(2)),
    "sampling.samples_per_run": (2500, _integer(1)),
    "sampling.runs": (20, _integer(1)),
    "authenticity.alpha": (0.8, _number(0, 2)),
    "authenticity.mode": ("pair_mean", _one_of("pair_mean", "unbounded")),
    "elastic_net.lambda_grid": ([0.001, 0.01, 0.1, 1.0], _LAMBDA_GRID),
    "elastic_net.alpha_mix": (0.5, _number(0, 1)),
    "forest.trees": (200, _integer(1)),
    "forest.max_depth": (8, _integer(1)),
    "forest.split": ([0.10, 0.05, 0.05], _SPLIT),
    "thresholds.genre_matrix_prune": (0.05, _number(0, 1)),
    "thresholds.periphery": (0.5, _number(0, 1)),
    "cluster.linkage": ("average", _one_of("average", "ward")),
    "cluster.cut": (5, _integer(1)),
    "phrases_file": (None, _OPTIONAL_PATH),
    "bios_dir": (None, _OPTIONAL_PATH),
}

DEFAULT_CONFIG: dict = {}  # FIELDS' defaults, each dotted field in its section
for _name, (_default, _) in FIELDS.items():
    _section, _, _key = _name.rpartition(".")
    (DEFAULT_CONFIG.setdefault(_section, {}) if _section else DEFAULT_CONFIG)[_key] = _default


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`base` updated from `override`, sections merged key by key; an unknown
    key, or a section that is not an object, is an error naming its path."""
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(prefix + key, "unknown field")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(prefix + key, "must be an object")
            value = _merge(base[key], value, f"{prefix}{key}.")
        out[key] = value
    return out


def load_config(path: str, **overrides) -> dict:
    """The config file at `path` over DEFAULT_CONFIG, then the paths set by
    ARTISTNET_INFLUENCE_CSV, ARTISTNET_SONGS_CSV and ARTISTNET_OUT_DIR, then
    the top-level `overrides` not None; each field checked by its rule."""
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
    for key in ("influence_csv", "songs_csv", "out_dir"):
        cfg[key] = os.environ.get(f"ARTISTNET_{key.upper()}") or cfg[key]
    cfg = _merge(cfg, {key: value for key, value in overrides.items() if value is not None})
    for name, (_, (test, message)) in FIELDS.items():
        if not test(functools.reduce(dict.get, name.split("."), cfg)):
            raise ConfigError(name, message)
    return cfg


# ---------------------------------------------------------------------------
# stage context and manifest


class Context:
    """One stage's access to the run: the config and the files it reads,
    each recorded for the manifest as the stage opens it."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out = Path(cfg["out_dir"])
        self.inputs: list[Path] = []
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
            ids, _, _, *cols = ingest.read_columns(path, SCORE_COLUMNS)
            return tuple(map(centrality.CentralityScores, ids.tolist(), *(c.tolist() for c in cols)))
        return self._memo(("centrality.csv",), load)


# The graph tables' columns (removed_edges.csv's too) with their cell types, and centrality.csv's.
NODE_COLUMNS = {"id": int, "name": str, "genre": str, "active_start": int}
EDGE_COLUMNS = {"from": int, "to": int, "year_diff": int, "weight": ingest.optional_float}
SCORE_COLUMNS = {"node_id": int, "name": str, "genre": str, "lc": float, "sc": float, "gc": float,
                 "ni": float, "rank_ni": int, "first_order": int, "second_order": int, "total_reach": int}


def graph_tables(g: graph.InfluenceGraph) -> dict:
    """nodes.csv and edges.csv of `g`, as `Context.load_graph` reads them."""
    nodes = ([i, n.name, n.genre, n.active_start] for i, n in sorted(g.nodes.items()))
    return {"nodes.csv": (NODE_COLUMNS, nodes), "edges.csv": (EDGE_COLUMNS, g.edge_rows())}


def score_table(g: graph.InfluenceGraph, scores) -> tuple:
    """centrality.csv: each of `scores` in order, its fields with the node's
    name and genre in `g` after its id, as `Context.load_scores` reads it."""
    return SCORE_COLUMNS, ([i, g.nodes[i].name, g.nodes[i].genre, *rest]
                           for i, *rest in (vars(s).values() for s in scores))


def write_artifacts(out: Path, artifacts: dict) -> None:
    """Write each artifact into `out`, encoded by its name's suffix: a .csv
    value is (header, rows of Python scalars) for `ingest.write_table`, a
    .json value goes through `ingest.json_text`, any other value is text; a
    callable (the manifest's) is called with {name: file} of those written.
    Files move into place from temporaries in `out` after the last is
    written, so an OSError (a config error) leaves `out` as it was."""
    temps: dict[str, Path] = {}
    try:
        for name, value in artifacts.items():
            temps[name] = out / f".{name}.tmp"
            if (out / name).is_dir():  # os.replace would refuse it, but only after others had moved
                raise IsADirectoryError(None, "Is a directory")
            value = value(temps) if callable(value) else value
            if name.endswith(".csv"):
                ingest.write_table(temps[name], *value)
            else:
                temps[name].write_text(ingest.json_text(value) if name.endswith(".json") else value, encoding="utf-8")
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot write {out / name} ({exc.strerror})") from None
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)  # a temporary left by a failed write


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
    """The manifest at `path`, empty if there is no such file (a directory
    fails its write); one not a JSON object is a data error naming it."""
    manifest = _read_json(path) if path.is_file() else {}
    if not isinstance(manifest, dict):
        raise ingest.IngestError(f"{path}: not a JSON object")
    return manifest


def _record_run(ctx: Context, stage: Stage, manifest: dict, written: dict[str, Path]) -> dict:
    """`manifest` with the stage's run recorded, its outputs hashed in `written`."""
    manifest["config_snapshot"] = ctx.cfg
    manifest.setdefault("stages", {})[stage.name] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": ctx.cfg["seed"],
        "inputs": {str(p): ctx.digest(p) for p in sorted(ctx.inputs)},
        "outputs": {name: ctx.digest(written[name]) for name in sorted(stage.writes)},
    }
    return manifest


# ---------------------------------------------------------------------------
# stages


def _profile_header(width: int) -> list[str]:
    return ["artist_id"] + [f"c{i}" for i in range(width)]


def _read_profiles(path: Path, width: int) -> dict[int, np.ndarray]:
    """Artist id -> vector of the first `width` columns of the profile table
    at `path` (the rows of one matrix); a repeated id is a data error."""
    ids, *values = ingest.read_columns(path, dict.fromkeys(_profile_header(width), float) | {"artist_id": int})
    profiles = dict(zip(ids.tolist(), np.column_stack(values)))
    if len(profiles) < len(ids):
        unique, counts = np.unique(ids, return_counts=True)
        raise ingest.IngestError(f"{path}: duplicate artist_id {unique[counts > 1][0]}")
    return profiles


def _profile_table(ids, vectors, width: int) -> tuple:
    """A profile table of `width` columns: each id with its vector (a numpy
    row), as `_read_profiles` reads it."""
    return _profile_header(width), ([i, *v.tolist()] for i, v in zip(ids, vectors))


def stage_ingest(ctx: Context) -> dict:
    ctx.read("influence_csv")  # checked before songs_csv
    songs_path = ctx.read("songs_csv")
    artists, _, _ = ctx.load_influence()
    genres = {a: genre for a, (_, genre, _) in artists.items()}  # as nodes.csv records them
    songs, report = ingest.load_songs(songs_path, known_artist_ids=genres)
    profiles = ingest.build_artist_profiles(songs)
    return {"cleaning_report.json": report,
            "artist_profiles.csv": _profile_table(profiles, profiles.values(), len(ingest.FEATURES)),
            "genre_year_means.csv": (genre.YEAR_MEANS_COLUMNS, genre.genre_year_means(songs, genres))}


def stage_graph_build(ctx: Context) -> dict:
    g = graph.build_graph(*ctx.load_influence())
    dag, removed = graph.remove_cycles(g)
    return graph_tables(dag) | {
        "removed_edges.csv": (EDGE_COLUMNS, ([e.src, e.dst, e.year_diff, e.weight] for e in removed)),
        "graph.dot": graph.export_dot(dag),
        "graph_summary.json": {"nodes": dag.n_nodes, "edges": dag.n_edges,
                               "edges_dropped_year_window": dag.year_window_dropped,
                               "edges_removed_in_decycle": len(removed),
                               "self_loops_dropped": dag.self_loops_dropped},
    }


def stage_centrality(ctx: Context) -> dict:
    g = ctx.load_graph()
    scores = centrality.node_influence(g)
    return {"centrality.csv": score_table(g, scores),
            "year_diff_correlation.json": centrality.year_diff_centrality_correlation(g, scores)}


def stage_similarity(ctx: Context) -> dict:
    raw = _read_profiles(ctx.read("artist_profiles.csv"), len(ingest.FEATURES))  # not held: no later stage reads it
    ids = sorted(raw)
    X = np.array([raw[i] for i in ids])
    std = simvec.standardize(X)
    model = simvec.fit_pca(std.vectors, ctx.cfg["pca_k"], means=std.means, stdevs=std.stdevs)
    projected = simvec.project(model, std.vectors)
    cap = min(ctx.cfg["uniqueness_cap"], len(ids))
    uniq = {metric: simvec.uniqueness(projected[:cap], metric) for metric in ("euclidean", "cosine", "tss")}
    return {"pca_model.json": model,
            "profiles_standardized.csv": _profile_table(ids, std.vectors, X.shape[1]),
            "profiles_projected.csv": _profile_table(ids, projected, ctx.cfg["pca_k"]),
            "uniqueness.json": uniq | {"n_vectors": cap}}


def stage_genre(ctx: Context) -> dict:
    cfg = ctx.cfg
    g = ctx.load_graph()
    projected = ctx.load_profiles("profiles_projected.csv", cfg["pca_k"])
    standardized = ctx.load_profiles("profiles_standardized.csv", len(ingest.FEATURES))
    scores = ctx.load_scores()
    genres = {i: n.genre for i, n in g.nodes.items()}

    sample_cfg = genre.SamplingConfig(**cfg["sampling"], seed=cfg["seed"])
    similarity = genre.sample_similarity({i: v for i, v in projected.items() if i in genres}, genres, sample_cfg)
    influence = genre.sample_influence(g, scores, sample_cfg)
    dendro = genre.cluster_genres({i: v for i, v in standardized.items() if i in genres}, genres,
                                  linkage=cfg["cluster"]["linkage"])
    flat = dendro.flat_cut(min(cfg["cluster"]["cut"], len(dendro.leaves)))
    debut = genre.debut_counts(g)
    pairs = genre.genre_influence_matrix(g, cfg["thresholds"]["genre_matrix_prune"])  # (cross, self)
    return {
        "genre_similarity_sampling.json": similarity,
        "genre_influence_sampling.json": influence,
        "dendrogram.json": dendro,
        "dendrogram.newick": dendro.to_newick() + "\n",
        "genre_clusters.csv": (["genre", "cluster"], sorted(flat.items())),
        "debut_counts.csv": (["genre", "year", "count"],
                             ([gname, year, count] for (gname, year), count in sorted(debut.items()))),
        "genre_influence_matrix.csv": (["from_genre", "to_genre", "weight", "self_pair"],
                                       ([gm, gn, w, self_pair] for self_pair, rows in enumerate(pairs)
                                        for gm, gn, w in rows)),
    }


def stage_authenticity(ctx: Context) -> dict:
    cfg = ctx.cfg
    g = ctx.load_graph()
    projected = ctx.load_profiles("profiles_projected.csv", cfg["pca_k"])
    standardized = ctx.load_profiles("profiles_standardized.csv", len(ingest.FEATURES))
    scores = ctx.load_scores()

    auth_scores, summary = authrev.authenticity(g, projected, **cfg["authenticity"])
    ni = {s.node_id: s.ni for s in scores}
    ids = sorted(i for i in standardized if i in ni)
    X = np.array([standardized[i] for i in ids])
    y = np.array([ni[i] for i in ids])
    fit = authrev.elastic_net_grid(X, y, **cfg["elastic_net"])

    return {"authenticity.csv": (["node_id", "ad", "extreme", "stdev"],
                                 ([s.node_id, s.ad, int(s.extreme), s.stdev] for s in auth_scores)),
            "authenticity_summary.json": summary,
            "elastic_net.json": {"intercept": fit.intercept, "coefficients": fit.coefficients,
                                 "lambda": fit.lam, "alpha_mix": fit.alpha_mix,
                                 "iterations": fit.iterations, "converged": fit.converged}}


def stage_revolution(ctx: Context) -> dict:
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
        forest = {**vars(model), "n_trees": len(model.trees), "trees": [t.root for t in model.trees],
                  "trained": True}
    except authrev.AuthRevError as exc:
        forest = {"trained": False, "reason": str(exc)}
    return {"revolution_labels.csv": (["node_id", "label", "evidence"],
                                      ([l.node_id, l.label, "|".join(l.evidence)]
                                       for l in sorted(labels, key=lambda l: l.node_id))),
            "forest_model.json": forest}


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


def stage_report(ctx: Context) -> dict:
    report = {key: ctx.read_json(name) for name, key in REPORT_PIECES.items()}
    labels, = ingest.read_columns(ctx.read("revolution_labels.csv"), {"label": REVOLUTION_LABELS.index})
    report["revolution_label_counts"] = {l: labels.count(k) for k, l in enumerate(REVOLUTION_LABELS)}
    forest = ctx.read_json("forest_model.json")
    forest.pop("trees", None)  # summaries only in the bundle
    report["forest"] = forest
    return {"report.json": report}


@dataclass(frozen=True)
class Stage:
    command: str  # the words after `artistnet`
    fn: Callable[[Context], dict]  # the stage's work: {artifact name: value}, see `write_artifacts`
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
    stage = args.stage
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
        if args.threads < 1:
            raise ConfigError("threads", "must be >= 1")
        ctx = Context(cfg)
        try:
            ctx.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot make directory {ctx.out} ({exc.strerror})")
        manifest = _read_manifest(ctx.out / "manifest.json")
        artifacts = stage.fn(ctx)
        if sorted(artifacts) != sorted(stage.writes):
            raise RuntimeError(f"stage {stage.command} returned {sorted(artifacts)}, "
                               f"not its writes {sorted(stage.writes)}")
        write_artifacts(ctx.out, artifacts | {"manifest.json": functools.partial(_record_run, ctx, stage, manifest)})
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
