"""Spans around calls into artistnet's public functions, timed from outside.

`Tracer.install` replaces each function listed in `TRACED` with a timing
wrapper, in its defining module and at every `from ... import` site inside
the package (so `genre.tss`, `authrev.tss`, `centrality.bfs_distances`
and `centrality.reachability_counts` are timed too). A class is traced by
wrapping its `__init__`. Spans stay in memory as
(name, caller, start, end, parent) tuples until `write` dumps them with
the repetition id; names and callers are written as indexes into `names`.
Nothing here is imported by the program itself.
"""

from __future__ import annotations

import importlib
import json
import time

LAYERS = ("cli", "ingest", "graph", "centrality", "simvec", "genre", "authrev")

# Public functions each stage calls, by defining module. Every library
# call the CLI makes is listed, so that cli self time is the CLI's own work.
TRACED = {
    "ingest": ("load_influence", "load_songs", "write_songs", "write_influence",
               "build_artist_profiles"),
    "graph": ("InfluenceGraph", "build_graph", "normalize_weights", "remove_cycles",
              "bfs_distances", "reachability_counts", "year_diff_centrality_correlation",
              "export_nodes_csv", "export_edges_csv", "export_dot"),
    "centrality": ("node_influence", "cluster_rank", "semi_local", "out_closeness",
                   "export_scores_csv"),
    "simvec": ("standardize", "fit_pca", "project", "tss", "uniqueness"),
    "genre": ("sample_similarity", "sample_influence", "cluster_genres", "debut_counts",
              "genre_influence_matrix", "genre_feature_trend"),
    "authrev": ("authenticity", "average_extreme_distance", "elastic_net_grid",
                "elastic_net_fit", "periphery_score", "label_revolutionaries",
                "forest_train"),
}


def _tree_nodes(node) -> int:
    if "proba" in node:
        return 1
    return 1 + _tree_nodes(node["left"]) + _tree_nodes(node["right"])


def _count_songs(counts, args, result):
    counts["ingest.songs_rows"] = max(counts.get("ingest.songs_rows", 0), len(result[0]))


def _count_dropped(counts, args, result):
    dropped = len(args[0].edges) - len(result.edges)
    counts["graph.edges_dropped_year_window"] = counts.get("graph.edges_dropped_year_window", 0) + dropped


def _count_removed(counts, args, result):
    counts["graph.edges_removed"] = counts.get("graph.edges_removed", 0) + len(result[1])


def _count_scored(counts, args, result):
    counts["centrality.nodes_scored"] = counts.get("centrality.nodes_scored", 0) + len(result)


def _count_sampling(counts, args, result):
    drawn = 2 * result.samples_per_run * result.runs
    counts["genre.samples_drawn"] = counts.get("genre.samples_drawn", 0) + drawn
    counts["genre.flagged_runs"] = counts.get("genre.flagged_runs", 0) + len(result.flagged_runs)
    if result.metric == "tss":
        counts["genre.excluded_genres"] = counts.get("genre.excluded_genres", 0) + len(result.excluded_genres)


def _count_ad_pairs(counts, args, result):
    n = len(args[0])
    counts["authrev.ad_pairs"] = counts.get("authrev.ad_pairs", 0) + n * (n - 1) // 2


def _count_fit(counts, args, result):
    counts["authrev.elastic_net_sweeps"] = counts.get("authrev.elastic_net_sweeps", 0) + result.iterations
    counts["authrev.elastic_net_fits"] = counts.get("authrev.elastic_net_fits", 0) + 1
    counts["authrev.elastic_net_fits_converged"] = (
        counts.get("authrev.elastic_net_fits_converged", 0) + int(result.converged))


def _count_forest(counts, args, result):
    nodes = sum(_tree_nodes(t.root) for t in result.trees)
    counts["authrev.forest_tree_nodes"] = counts.get("authrev.forest_tree_nodes", 0) + nodes


# Counts read off return values (or arguments) of traced calls.
COUNTERS = {
    "ingest.load_songs": _count_songs,
    "graph.normalize_weights": _count_dropped,
    "graph.remove_cycles": _count_removed,
    "centrality.node_influence": _count_scored,
    "genre.sample_similarity": _count_sampling,
    "genre.sample_influence": _count_sampling,
    "authrev.average_extreme_distance": _count_ad_pairs,
    "authrev.elastic_net_fit": _count_fit,
    "authrev.forest_train": _count_forest,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name: str, caller: str):
        """`fn` recording a span named `name` per call, made from `caller`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter, counts = COUNTERS.get(name), self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, caller, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"artistnet.{layer}") for layer in LAYERS}
        for layer, names in TRACED.items():
            home = modules[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                name = f"{layer}.{fname}"
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self.wrap(init, name, layer)
                    self._undo.append((original, "__init__", init))
                    continue
                for site_layer, site in modules.items():
                    if getattr(site, fname, None) is original:
                        setattr(site, fname, self.wrap(original, name, site_layer))
                        self._undo.append((site, fname, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Inclusive time and call count per traced name (a call nested in a
        call of the same name is not counted again), self time per layer
        (span time not covered by child spans), and TS-SS calls by caller."""
        child_time = [0.0] * len(self.spans)
        for name, caller, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        time_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        by_caller: dict[str, list] = {}
        for idx, (name, caller, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_s[name.split(".", 1)[0]] += dur - child_time[idx]
            calls[name] = calls.get(name, 0) + 1
            if name == "simvec.tss":
                entry = by_caller.setdefault(caller, [0, 0.0])
                entry[0] += 1
                entry[1] += dur
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][4]
            if up < 0:
                time_s[name] = time_s.get(name, 0.0) + dur
        return {"time_s": time_s, "calls": calls, "self_s": self_s,
                "tss_by_caller": by_caller, "counts": dict(self.counts)}

    def write(self, path, rep: int) -> None:
        names = sorted({s[0] for s in self.spans} | {s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], index[c], s, e, p, rep] for n, c, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "caller", "start", "end", "parent", "rep"],
                       "spans": rows}, fh, separators=(",", ":"))
