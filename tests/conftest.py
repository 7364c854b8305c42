import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from artistnet import cli
from artistnet.graph import ArtistNode, InfluenceEdge, InfluenceGraph, build_graph


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with nothing loaded: a table typed by an earlier test
    would let a stage skip the reading the test checks."""
    cli._MEMO.clear()


def stage_context(out, command: str) -> cli.Context:
    """A context over out_dir `out` for the stage of `command`, writing the
    artifacts that stage declares as it does."""
    return cli.Context({"out_dir": str(out)}, next(s for s in cli.STAGES if s.command == command))


def make_graph(n, edges, genres=None):
    """Graph with nodes 0..n-1 and (src, dst[, weight]) edges; year_diff is
    synthesized from node ids so it is always populated."""
    genres = genres or {}
    nodes = [
        ArtistNode(id=i, name=f"artist{i}", genre=genres.get(i, "Pop/Rock"),
                   active_start=1950 + i)
        for i in range(n)
    ]
    built = []
    for e in edges:
        s, d = e[0], e[1]
        w = e[2] if len(e) > 2 else 0.5
        built.append(InfluenceEdge(src=s, dst=d, year_diff=d - s, weight=w))
    return InfluenceGraph(nodes, built)


def graph_from_rows(rows):
    """`build_graph` over influence rows, tuples in the influence table's
    column order holding each (influencer, follower) pair once; an artist
    takes the name, genre and active start of the first row naming it."""
    artists = {}
    for row in rows:
        artists.setdefault(row[0], row[1:4])
        artists.setdefault(row[4], row[5:8])
    return build_graph(artists, np.array([r[0] for r in rows], np.int64),
                       np.array([r[4] for r in rows], np.int64))


def random_digraph(rng, max_nodes=12):
    """Seeded random digraph with random distinct weights (no self loops)."""
    n = int(rng.integers(2, max_nodes + 1))
    p = rng.uniform(0.1, 0.5)
    edges = []
    for s in range(n):
        for d in range(n):
            if s != d and rng.random() < p:
                edges.append((s, d, float(rng.uniform(0.01, 1.0))))
    return make_graph(n, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
