import csv
import errno
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import artist_id_tuples, edges_of, reference_genre_feature_trend

from artistnet import authrev, centrality, genre, graph, ingest, simvec
from artistnet import cli
from artistnet.cli import main

GENRES = {i: ("rock" if i <= 10 else "jazz") for i in range(1, 21)}
STARTS = {i: 1950 + 2 * i for i in range(1, 21)}

EDGES = (
    # within rock
    [(i, i + 1) for i in range(1, 10)]
    # within jazz
    + [(i, i + 1) for i in range(11, 20)]
    # cross genre
    + [(1, 11), (2, 12), (5, 15), (11, 3), (14, 8)]
    # a 2-cycle, removed during graph build
    + [(6, 5)]
)


def write_fixture(tmp_path: Path, names=None, genres=None) -> Path:
    """Fixture corpus and config; `names` and `genres` override artist
    names and main genres by id."""
    name = {i: f"artist{i}" for i in GENRES} | (names or {})
    main_genre = GENRES | (genres or {})
    influence = tmp_path / "influence.csv"
    with open(influence, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "influencer_id", "influencer_name", "influencer_main_genre",
            "influencer_active_start", "follower_id", "follower_name",
            "follower_main_genre", "follower_active_start",
        ])
        for s, d in EDGES:
            w.writerow([
                s, name[s], main_genre[s], STARTS[s],
                d, name[d], main_genre[d], STARTS[d],
            ])

    songs = tmp_path / "songs.csv"
    with open(songs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "artist_ids", "danceability", "energy", "valence", "tempo",
            "loudness", "key", "acousticness", "instrumentalness", "liveness",
            "speechiness", "duration_ms", "popularity", "year", "explicit", "mode",
        ])
        for i in range(1, 21):
            base = 0.2 if GENRES[i] == "rock" else 0.7
            for k in range(2):
                w.writerow([
                    f"[{i}]", base + 0.01 * i + 0.005 * k, 0.9 - base, 0.5,
                    100 + i + k, -10 - 0.1 * i, i % 12, base, 0.1, 0.2,
                    0.05, 200000 + 100 * i, 30 + i, STARTS[i] + k, 0, 1,
                ])

    config = {
        "influence_csv": str(influence),
        "songs_csv": str(songs),
        "out_dir": str(tmp_path / "out"),
        "sampling": {"samples_per_run": 50, "runs": 3},
        "uniqueness_cap": 20,
        "forest": {"trees": 10, "max_depth": 4, "split": [0.4, 0.3, 0.3]},
        "cluster": {"cut": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


STAGES = [
    ["ingest"],
    ["graph", "build"],
    ["centrality"],
    ["similarity"],
    ["genre"],
    ["authenticity"],
    ["revolution"],
    ["report"],
]


def reader(out: Path) -> cli.Context:
    """A context over `out`, reading artifacts back as the stages do."""
    return cli.Context({"out_dir": str(out)})


def read_rows(path: Path) -> list[dict]:
    """The rows of a CSV file as csv.DictReader gives them."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_all(cfg_path: Path, extra=()):
    for stage in STAGES:
        code = main(stage + ["--config", str(cfg_path)] + list(extra))
        assert code == 0, f"stage {stage} failed"


def configure(cfg_path: Path, **fields) -> None:
    """Set top-level config fields of the fixture's config file."""
    cfg_path.write_text(json.dumps(json.loads(cfg_path.read_text()) | fields))


def write_bios(tmp_path: Path) -> dict:
    """A phrases file and a bios directory (two bios, one file whose name
    is not an artist id); returns the config fields that point at them."""
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("revolutionary\n", encoding="utf-8")
    bios = tmp_path / "bios"
    bios.mkdir()
    (bios / "1.txt").write_text("A revolutionary sound.", encoding="utf-8")
    (bios / "12.txt").write_text("Quiet work.", encoding="utf-8")
    (bios / "notes.txt").write_text("not a bio", encoding="utf-8")
    return {"phrases_file": str(phrases), "bios_dir": str(bios)}


class TestPipeline:
    def test_full_sequence_produces_artifacts(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path)
        out = tmp_path / "out"
        expected = [
            "cleaning_report.json", "artist_profiles.csv",
            "genre_year_means.csv", "nodes.csv", "edges.csv", "removed_edges.csv",
            "graph.dot", "graph_summary.json", "centrality.csv",
            "year_diff_correlation.json", "pca_model.json",
            "profiles_standardized.csv", "profiles_projected.csv",
            "uniqueness.json", "genre_similarity_sampling.json",
            "genre_influence_sampling.json", "dendrogram.json",
            "dendrogram.newick", "genre_clusters.csv", "debut_counts.csv",
            "genre_influence_matrix.csv", "authenticity.csv",
            "authenticity_summary.json", "elastic_net.json",
            "revolution_labels.csv", "forest_model.json", "report.json",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name

        summary = json.loads((out / "graph_summary.json").read_text())
        assert summary["nodes"] == 20
        assert summary["edges_removed_in_decycle"] == 1
        removed = (out / "removed_edges.csv").read_text().splitlines()
        assert len(removed) == 2  # header + the one broken cycle edge

        report = json.loads((out / "report.json").read_text())
        assert set(report["revolution_label_counts"]) == {"major", "non_major", "unlabeled"}
        assert report["cleaning"]["rows_read"] == 40

    def test_names_with_commas_and_quotes_survive_graph_artifacts(self, tmp_path):
        names = {1: "Crosby, Stills, Nash & Young", 2: 'The "Band"', 3: "Björk"}
        cfg_path = write_fixture(tmp_path, names)
        for stage in STAGES[:3]:
            assert main(stage + ["--config", str(cfg_path)]) == 0, stage
        with open(tmp_path / "out" / "centrality.csv", newline="", encoding="utf-8") as fh:
            read = {int(r["node_id"]): r["name"] for r in csv.DictReader(fh)}
        assert len(read) == 20
        assert {i: read[i] for i in names} == names

    def test_manifest_tracks_all_stages(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["stages"]) == {
            "ingest", "graph", "centrality", "similarity", "genre",
            "authenticity", "revolution", "report",
        }
        for stage in manifest["stages"].values():
            assert stage["outputs"]
            for digest in stage["outputs"].values():
                assert len(digest) == 64

    def test_rerun_is_byte_identical_except_manifest(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path, extra=["--out", str(tmp_path / "a")])
        run_all(cfg_path, extra=["--out", str(tmp_path / "b")])
        a, b = tmp_path / "a", tmp_path / "b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name == "manifest.json":
                continue
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for stage in ma["stages"]:
            ma["stages"][stage].pop("timestamp")
            mb["stages"][stage].pop("timestamp")
            # input paths differ only by chosen out dir; compare hashes
            ma["stages"][stage]["inputs"] = sorted(ma["stages"][stage]["inputs"].values())
            mb["stages"][stage]["inputs"] = sorted(mb["stages"][stage]["inputs"].values())
        ma.pop("config_snapshot")
        mb.pop("config_snapshot")
        assert ma == mb

    def test_threads_flag_accepted_and_identical(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path, extra=["--out", str(tmp_path / "t1"), "--threads", "1"])
        run_all(cfg_path, extra=["--out", str(tmp_path / "t4"), "--threads", "4"])
        for p in sorted((tmp_path / "t1").iterdir()):
            if p.name == "manifest.json":
                continue
            assert p.read_bytes() == (tmp_path / "t4" / p.name).read_bytes()


def test_genre_csv_artifacts_round_trip_awkward_genres(tmp_path):
    awkward = ["Stage, Screen & Film", 'Comedy/"Spoken"', "Música Latina"]
    genres = {i: awkward[0] if i <= 10 else awkward[1] if i <= 15 else awkward[2] for i in GENRES}
    cfg_path = write_fixture(tmp_path, genres=genres)
    for stage in STAGES[:5]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    out = tmp_path / "out"

    def read(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]

    g = reader(out).load_graph()
    assert {row[0] for row in read("genre_clusters.csv")} == set(awkward)
    debut = genre.debut_counts(g)
    assert [(gn, int(y), int(c)) for gn, y, c in read("debut_counts.csv")] == [
        (gn, y, c) for (gn, y), c in sorted(debut.items())]
    cross, selfp = genre.genre_influence_matrix(g, 0.05)
    assert [(a, b, float(w), int(f)) for a, b, w, f in read("genre_influence_matrix.csv")] == (
        [(a, b, w, 0) for a, b, w in cross] + [(a, b, w, 1) for a, b, w in selfp])
    songs, _ = ingest.load_songs(tmp_path / "songs.csv")
    means = [[gn, int(y), int(n), *map(float, cells)] for gn, y, n, *cells in read("genre_year_means.csv")]
    assert means == genre.genre_year_means(songs, {i: n.genre for i, n in g.nodes.items()})


def test_graph_artifacts_round_trip_awkward_names(tmp_path):
    names = ["Crosby, Stills, Nash & Young", 'The "Band"', "Björk"]
    nodes = [graph.ArtistNode(i, name, f"genre, {name}", 1950 + i) for i, name in enumerate(names)]
    edges = [graph.InfluenceEdge(0, 1, 1, 0.5), graph.InfluenceEdge(1, 2, 1, 0.25)]
    g = graph.InfluenceGraph(nodes, edges)
    cli.write_artifacts(tmp_path, cli.graph_tables(g))
    back = reader(tmp_path).load_graph()
    assert back.nodes == g.nodes
    assert edges_of(back) == edges_of(g)
    scores = centrality.node_influence(g)
    cli.write_artifacts(tmp_path, {"centrality.csv": cli.score_table(g, scores)})
    assert reader(tmp_path).load_scores() == tuple(scores)
    with open(tmp_path / "centrality.csv", newline="", encoding="utf-8") as fh:
        assert {r["name"] for r in csv.DictReader(fh)} == set(names)


ADVERSARIAL_NAMES = {
    1: "Crosby, Stills, Nash & Young", 2: 'The "Band"', 3: "Björk", 4: "two\nlines",
    5: "carriage\rreturn", 6: "", 7: " padded ", 8: "back\\slash", 11: "Sigur Rós",
    12: '"', 13: "tab\there", 14: "crlf\r\nname", 15: "東京事変",
}
ADVERSARIAL_GENRES = ['Stage, Screen & "Film"', "Comedy\r\nSpoken", "Música\nLatina"]


def test_all_stages_on_adversarial_names_and_genres(tmp_path):
    genres = {i: ADVERSARIAL_GENRES[0] if i <= 10 else ADVERSARIAL_GENRES[1] if i <= 15
              else ADVERSARIAL_GENRES[2] for i in GENRES}
    cfg_path = write_fixture(tmp_path, ADVERSARIAL_NAMES, genres)
    configure(cfg_path, **write_bios(tmp_path))
    run_all(cfg_path)
    out = tmp_path / "out"
    tables = {p.name: read_rows(p) for p in sorted(out.glob("*.csv"))}
    assert len(tables) == 13
    for name, rows in tables.items():
        assert rows, name
        for row in rows:  # no cell lost or split off
            assert None not in row and None not in row.values(), (name, row)
    names = {i: f"artist{i}" for i in GENRES} | ADVERSARIAL_NAMES
    assert {int(r["id"]): (r["name"], r["genre"]) for r in tables["nodes.csv"]} == {
        i: (names[i], genres[i]) for i in GENRES}
    assert {int(r["node_id"]): (r["name"], r["genre"]) for r in tables["centrality.csv"]} == {
        i: (names[i], genres[i]) for i in GENRES}
    artists, _, _ = ingest.load_influence(tmp_path / "influence.csv")
    assert {i: (name, genre) for i, (name, genre, _) in artists.items()} == {
        i: (names[i], genres[i]) for i in GENRES}
    assert {r["genre"] for r in tables["genre_clusters.csv"]} == set(ADVERSARIAL_GENRES)
    assert {r["genre"] for r in tables["debut_counts.csv"]} == set(ADVERSARIAL_GENRES)
    assert {r["genre"] for r in tables["genre_year_means.csv"]} == {*ADVERSARIAL_GENRES, "__all__"}


# The public song table's columns, in its order: names, ids, the features, release date and title.
PUBLIC_SONG_COLUMNS = [
    "artist_names", "artist_ids", "danceability", "energy", "valence", "tempo", "loudness", "mode",
    "key", "acousticness", "instrumentalness", "liveness", "speechiness", "explicit", "duration_ms",
    "popularity", "year", "release_date", "song_title (censored)"]


def test_public_song_layout_gives_the_same_artifacts(tmp_path):
    """The fixture's songs, some of them by two artists, in the public
    19-column layout (names and titles holding commas, quotes and non-ASCII
    text) give every artifact the 16-column layout gives."""
    cfg_path = write_fixture(tmp_path)
    songs = tmp_path / "songs.csv"
    with songs.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    for k, row in enumerate(rows[::3]):
        row[0] = f"[{row[0][1:-1]}, {20 - k}]"
    with songs.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    names = ["['Björk', 'Sly & the \"Family\" Stone']", "['Earth, Wind & Fire']", "['Motörhead']"]
    titles = ['Don\'t Stop, "Believin\'"', "Ça plane pour moi", "Song, with a comma"]
    public = tmp_path / "public"
    public.mkdir()
    with (public / "songs.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PUBLIC_SONG_COLUMNS)
        for k, row in enumerate(rows):
            cells = dict(zip(header, row))
            cells |= {"artist_names": names[k % 3], "release_date": f"{cells['year']}-01-0{k % 9 + 1}",
                      "song_title (censored)": titles[k % 3]}
            w.writerow([cells[c] for c in PUBLIC_SONG_COLUMNS])
    public_cfg = public / "config.json"
    public_cfg.write_text(cfg_path.read_text())
    configure(public_cfg, songs_csv=str(public / "songs.csv"), out_dir=str(public / "out"))
    run_all(cfg_path)
    run_all(public_cfg)
    out = tmp_path / "out"
    assert sorted(p.name for p in (public / "out").iterdir()) == sorted(p.name for p in out.iterdir())
    for path in out.iterdir():
        if path.name != "manifest.json":
            assert (public / "out" / path.name).read_bytes() == path.read_bytes(), path.name


def test_empty_weight_round_trips_and_blocks_decycling(tmp_path):
    nodes = [graph.ArtistNode(i, f"a{i}", "g", 1950) for i in range(3)]
    g = graph.InfluenceGraph(nodes, [graph.InfluenceEdge(1, 2, 1, 0.5), graph.InfluenceEdge(0, 1, 1, None)])
    cli.write_artifacts(tmp_path, cli.graph_tables(g))
    text = (tmp_path / "edges.csv").read_text(encoding="utf-8")
    assert text == "from,to,year_diff,weight\n0,1,1,\n1,2,1,0.5\n"
    back = reader(tmp_path).load_graph()
    cli.write_artifacts(tmp_path, cli.graph_tables(back))
    assert (tmp_path / "edges.csv").read_text(encoding="utf-8") == text
    with pytest.raises(graph.GraphError, match="requires normalized weights"):
        graph.remove_cycles(back)


@pytest.mark.parametrize("corrupt, message", [
    (lambda lines: lines + [lines[1]], "duplicate edge (1, 2)"),
    (lambda lines: lines + ["99,1,0,0.5"], "edge (99, 1) references unknown node"),
    (lambda lines: lines[:1] + ["2,2,0,0.5"] + lines[1:], "self-loop edge 2"),
])
def test_corrupted_edges_csv_is_a_data_error(tmp_path, capsys, corrupt, message):
    cfg_path = write_fixture(tmp_path)
    for stage in STAGES[:2]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    edges = tmp_path / "out" / "edges.csv"
    edges.write_text("\n".join(corrupt(edges.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["centrality", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_conflicting_active_start_is_a_data_error(tmp_path, capsys):
    cfg_path = write_fixture(tmp_path)
    with open(tmp_path / "influence.csv", "a", newline="") as fh:
        csv.writer(fh).writerow([3, "artist3", "rock", STARTS[3] + 1, 21, "late", "rock", 2000])
    capsys.readouterr()
    assert main(["ingest", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'influence.csv'}:{len(EDGES) + 2}: artist 3 active_start {STARTS[3] + 1} "
        f"conflicts with {STARTS[3]} given earlier\n")


def test_graph_summary_counts_year_window_drops(tmp_path):
    cfg_path = write_fixture(tmp_path)
    with open(tmp_path / "influence.csv", "a", newline="") as fh:  # year_diff 80: outside (-30, 80)
        csv.writer(fh).writerow([1, "artist1", "rock", STARTS[1], 21, "late", "rock", STARTS[1] + 80])
    for stage in STAGES[:2]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    summary = json.loads((tmp_path / "out" / "graph_summary.json").read_text())
    assert summary["edges_dropped_year_window"] == 1
    assert (summary["nodes"], summary["edges"]) == (21, len(EDGES) - 1)


def write_random_fixture(tmp_path: Path, n: int = 160) -> Path:
    """A seeded acyclic corpus of `n` artists in four genres, each following
    up to three earlier artists and with two songs; the config keeps the
    default forest split."""
    rng = np.random.default_rng(7)
    genre_of = [["rock", "jazz", "blues", "folk"][k] for k in rng.integers(4, size=n)]
    start = [1900 + i // 2 for i in range(n)]
    artist = lambda i: [i, f"artist{i}", genre_of[i], start[i]]
    ingest.write_table(tmp_path / "influence.csv", ingest.INFLUENCE_COLUMNS, (
        artist(int(i)) + artist(j) for j in range(1, n)
        for i in rng.choice(j, size=min(j, 3), replace=False)))
    ingest.write_table(tmp_path / "songs.csv", ingest.SONG_COLUMNS, (
        [f"[{i}]", *rng.uniform(0, 1, 4).tolist(), -float(rng.uniform(1, 30)), i % 12,
         *rng.uniform(0, 1, 6).tolist(), start[i] + k, 0, 1]
        for i in range(n) for k in range(2)))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "influence_csv": str(tmp_path / "influence.csv"), "songs_csv": str(tmp_path / "songs.csv"),
        "out_dir": str(tmp_path / "out"), "sampling": {"samples_per_run": 50, "runs": 2},
        "forest": {"trees": 10}}))
    return cfg_path


def test_forest_trains_at_the_default_split(tmp_path):
    cfg_path = write_random_fixture(tmp_path)
    run_all(cfg_path)
    out = tmp_path / "out"
    model = json.loads((out / "forest_model.json").read_text())
    assert model["trained"] is True and model["n_trees"] == 10
    assert json.loads((out / "report.json").read_text())["forest"]["trained"] is True


def assert_fails_leaving_nothing(cfg_path: Path, capsys, command: str) -> None:
    """Stage `command` exits 3 with one line, and none of its artifacts nor
    a manifest entry for it is in out_dir."""
    capsys.readouterr()
    assert main(command.split() + ["--config", str(cfg_path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    stage = next(s for s in cli.STAGES if s.command == command)
    out = json.loads(cfg_path.read_text())["out_dir"]
    assert [name for name in stage.writes if (Path(out) / name).exists()] == []
    assert stage.name not in json.loads((Path(out) / "manifest.json").read_text())["stages"]


# A kernel each stage calls after it has computed most of its artifacts.
LATE_KERNELS = [
    ("ingest", genre, "genre_year_means", ["graph build"]),
    ("graph build", graph, "export_dot", ["ingest"]),
    ("similarity", simvec, "uniqueness", ["ingest"]),
    ("genre", genre, "genre_influence_matrix", ["ingest", "graph build", "centrality", "similarity"]),
    ("revolution", cli, "_stratified_order", [s.command for s in cli.STAGES[:6]]),
]


def fail_late(monkeypatch, module, kernel: str) -> None:
    def late(*args, **kwargs):
        raise ingest.IngestError(f"{kernel} failed")
    monkeypatch.setattr(module, kernel, late)


@pytest.mark.parametrize("command, module, kernel, upstream", LATE_KERNELS, ids=[c[0] for c in LATE_KERNELS])
def test_failed_stage_writes_nothing(tmp_path, capsys, monkeypatch, command, module, kernel, upstream):
    cfg_path = write_fixture(tmp_path)
    for argv in upstream:
        assert main(argv.split() + ["--config", str(cfg_path)]) == 0, argv
    fail_late(monkeypatch, module, kernel)
    assert_fails_leaving_nothing(cfg_path, capsys, command)


@pytest.mark.parametrize("command, module, kernel, upstream", LATE_KERNELS, ids=[c[0] for c in LATE_KERNELS])
def test_failed_rerun_keeps_the_earlier_run(tmp_path, capsys, monkeypatch, command, module, kernel, upstream):
    """Every artifact and the manifest stay as the earlier run left them
    (the stage's own artifacts marked, so that a rewrite shows)."""
    cfg_path = write_fixture(tmp_path)
    run_all(cfg_path)
    out = tmp_path / "out"
    for name in next(s for s in cli.STAGES if s.command == command).writes:
        (out / name).write_text(f"{name} of the earlier run\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    fail_late(monkeypatch, module, kernel)
    assert main(command.split() + ["--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {kernel} failed\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def tree(out: Path) -> dict:
    """Each path under `out` with its bytes, None for a directory."""
    return {str(p.relative_to(out)): None if p.is_dir() else p.read_bytes() for p in sorted(out.rglob("*"))}


def fail_second_table(monkeypatch):
    """Make write_table run out of space halfway through the second table."""
    write_table, calls = ingest.write_table, []

    def failing(path, header, rows):
        calls.append(path)
        if len(calls) == 2:
            Path(path).write_text("half a table", encoding="utf-8")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        write_table(path, header, rows)
    monkeypatch.setattr(ingest, "write_table", failing)


@pytest.mark.parametrize("blocked, reason", [("genre_year_means.csv", "Is a directory"),
                                             ("manifest.json", "Is a directory"),
                                             ("genre_year_means.csv", os.strerror(errno.ENOSPC))])
def test_failed_write_is_one_line_and_leaves_out_dir_as_it_was(tmp_path, capsys, monkeypatch, blocked, reason):
    """An artifact's write fails (its path, or the manifest's, is a
    directory, or the disk fills): `ingest` exits 2 with one line naming
    the file, and out_dir is byte for byte as the earlier run left it, no
    artifact replaced, no temporary left, the manifest unchanged."""
    cfg_path = write_fixture(tmp_path)
    run_all(cfg_path)
    out = tmp_path / "out"
    if reason == "Is a directory":
        (out / blocked).unlink()
        (out / blocked).mkdir()
        (out / blocked / "kept.txt").write_text("kept\n")
    else:
        fail_second_table(monkeypatch)
    for name in cli.STAGES[0].writes:
        if (out / name).is_file():  # marked, so that a rewrite shows
            (out / name).write_text(f"{name} of the earlier run\n")
    before = tree(out)
    capsys.readouterr()
    assert main(["ingest", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: config field 'out_dir': cannot write {out / blocked} ({reason})\n"
    assert tree(out) == before


@pytest.mark.parametrize("artifact, row, upstream, commands, message", [
    ("nodes.csv", "5,someone else,jazz,1990", 2, ["centrality"], "duplicate node id 5"),
    ("profiles_standardized.csv", "7" + ",0.0" * 13, 4, ["authenticity", "revolution"],
     "{path}: duplicate artist_id 7"),
])
def test_repeated_id_in_an_artifact_is_a_data_error(tmp_path, capsys, artifact, row, upstream, commands,
                                                    message):
    cfg_path = write_fixture(tmp_path)
    for argv in STAGES[:upstream]:
        assert main(argv + ["--config", str(cfg_path)]) == 0, argv
    path = tmp_path / "out" / artifact
    path.write_text(path.read_text() + row + "\n")
    for command in commands:
        assert main([command, "--config", str(cfg_path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert_fails_leaving_nothing(cfg_path, capsys, command)


def test_no_graph_artist_has_a_profile(tmp_path, capsys):
    """Songs that list only artists missing from the influence table: the
    elastic net has no row to fit, and the forest none to train on. The
    failing stages leave nothing behind."""
    cfg_path = write_random_fixture(tmp_path, n=30)
    rng = np.random.default_rng(13)
    ingest.write_table(tmp_path / "songs.csv", ingest.SONG_COLUMNS, (
        [f"[{i}]", *rng.uniform(0, 1, 4).tolist(), -float(rng.uniform(1, 30)), i % 12,
         *rng.uniform(0, 1, 6).tolist(), 1900 + k, 0, 1] for i in range(1000, 1020) for k in range(2)))
    for stage in STAGES[:4]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    for stage in ("genre", "authenticity"):
        assert_fails_leaving_nothing(cfg_path, capsys, stage)
    assert main(["revolution", "--config", str(cfg_path)]) == 0
    assert json.loads((tmp_path / "out" / "forest_model.json").read_text()) == {
        "trained": False, "reason": "split fractions exceed the dataset"}


def test_failed_centrality_leaves_no_artifact(tmp_path, capsys):
    """One influence edge gives two nodes, too few for the year-difference
    correlation: nothing of the stage is written."""
    cfg_path = write_fixture(tmp_path)
    ingest.write_table(tmp_path / "influence.csv", ingest.INFLUENCE_COLUMNS,
                       [[1, "a", "rock", 1950, 2, "b", "rock", 1960]])
    assert main(["graph", "build", "--config", str(cfg_path)]) == 0
    assert_fails_leaving_nothing(cfg_path, capsys, "centrality")


def test_score_of_an_unknown_node_is_a_data_error(tmp_path, capsys):
    """A centrality.csv row whose node is not in nodes.csv, as a score left
    from an earlier graph is, stops `revolution` with one line naming it."""
    cfg_path = write_fixture(tmp_path)
    for stage in STAGES[:4]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    with open(tmp_path / "out" / "centrality.csv", "a", encoding="utf-8") as fh:
        fh.write("999999999,ghost,rock,0.0,0.0,0.0,0.0,11,0,0,0\n")
    capsys.readouterr()
    assert main(["revolution", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: unknown node id 999999999\n"


def test_centrality_stage_runs_one_reach_table(tmp_path, monkeypatch):
    """Scores, reach counts and the correlation of a stage come from one BFS."""
    cfg_path = write_fixture(tmp_path)
    assert main(["graph", "build", "--config", str(cfg_path)]) == 0
    calls, reach_table = [], graph.reach_table

    def counted(g):
        calls.append(g)
        return reach_table(g)

    monkeypatch.setattr(graph, "reach_table", counted)
    monkeypatch.setattr(centrality, "reach_table", counted)
    assert main(["centrality", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1


def test_genre_year_means_match_the_reference(tmp_path):
    """genre_year_means.csv on a seeded corpus whose songs list one to three
    artists, some of them missing from the influence table."""
    cfg_path = write_random_fixture(tmp_path)
    rng = np.random.default_rng(11)
    ingest.write_table(tmp_path / "songs.csv", ingest.SONG_COLUMNS, (
        [str(rng.choice(180, size=rng.integers(1, 4), replace=False).tolist()),
         *rng.uniform(0, 1, 4).tolist(), -float(rng.uniform(1, 30)), int(rng.integers(12)),
         *rng.uniform(0, 1, 6).tolist(), int(rng.integers(1900, 1912)), 0, 1] for _ in range(800)))
    for stage in STAGES[:2]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    out = tmp_path / "out"
    features = genre.YEAR_MEANS_COLUMNS[3:]
    table = [[r["genre"], int(r["year"]), int(r["n_songs"]), *(float(r[f]) for f in features)]
             for r in read_rows(out / "genre_year_means.csv")]
    genres = {i: n.genre for i, n in reader(out).load_graph().nodes.items()}
    songs, _ = ingest.load_songs(tmp_path / "songs.csv")
    for name in sorted(set(genres.values())):
        for k, feature in enumerate(features):
            series, everything = reference_genre_feature_trend(songs, name, feature, genres)
            for label, expected in ((name, series), ("__all__", everything)):
                got = {row[1]: row[3 + k] for row in table if row[0] == label}
                assert list(got) == list(expected)
                assert got == pytest.approx(expected, rel=1e-12, abs=0), (label, feature)
    # Exactly the plain left-to-right sum over the series' songs, divided by their count.
    members: dict[tuple[str, int], list[list[float]]] = {}
    for ids, row in zip(artist_id_tuples(songs), songs.values.tolist()):
        series = {genres[a] for a in ids if a in genres}
        for label in series | {"__all__"} if series else ():
            members.setdefault((label, int(row[ingest.FEATURES.index("year")])), []).append(row)
    assert table == [[label, year, len(rows), *(sum(r[ingest.FEATURES.index(f)] for r in rows) / len(rows)
                                                 for f in features)]
                     for (label, year), rows in sorted(members.items())]


@pytest.mark.parametrize("artifact, column, upstream, stage", [
    ("edges.csv", "year_diff", 2, "centrality"),  # Context.load_graph
    ("artist_profiles.csv", "c3", 1, "similarity"),  # cli._read_profiles
    ("centrality.csv", "ni", 4, "revolution"),  # Context.load_scores
    ("revolution_labels.csv", "label", 7, "report"),  # a label other than the three
])
def test_bad_artifact_cell_is_a_data_error(tmp_path, capsys, artifact, column, upstream, stage):
    cfg_path = write_fixture(tmp_path)
    for argv in STAGES[:upstream]:
        assert main(argv + ["--config", str(cfg_path)]) == 0, argv
    path = tmp_path / "out" / artifact
    rows = read_rows(path)
    rows[0][column] = "x"  # line 2
    ingest.write_table(path, list(rows[0]), (list(r.values()) for r in rows))
    capsys.readouterr()
    assert main([stage, "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:2: bad {column} cell 'x'\n"


@pytest.mark.parametrize("cells, column", [
    ({"key": "nan"}, "key"), ({"year": "inf"}, "year"), ({"danceability": "nan"}, "danceability")])
def test_non_finite_song_cell_is_a_data_error(tmp_path, capsys, cells, column):
    cfg_path = write_fixture(tmp_path)
    songs = tmp_path / "songs.csv"
    rows = read_rows(songs)
    rows[3].update(cells)  # line 5 of the file
    ingest.write_table(songs, ingest.SONG_COLUMNS, ([r[c] for c in ingest.SONG_COLUMNS] for r in rows))
    assert main(["ingest", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"{songs}:5: numeric field {column}=" in err
    assert err.count("\n") == 1


def test_missing_artifact_cell_is_a_data_error(tmp_path, capsys):
    cfg_path = write_fixture(tmp_path)
    for stage in STAGES[:2]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    nodes = tmp_path / "out" / "nodes.csv"
    lines = nodes.read_text(encoding="utf-8").splitlines()
    nodes.write_text("\n".join([lines[0], lines[1].split(",")[0], *lines[2:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["centrality", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {nodes}:2: missing name cell\n"


def corrupt_utf8(path: Path) -> None:
    """Put a 0xff byte, which UTF-8 never uses, into the last line of `path`."""
    data = path.read_bytes()
    path.write_bytes(data[:-3] + b"\xff" + data[-3:])


@pytest.mark.parametrize("name", ["songs.csv", "influence.csv"])
def test_non_utf8_input_table_is_a_data_error(tmp_path, capsys, name):
    cfg_path = write_fixture(tmp_path)
    corrupt_utf8(tmp_path / name)
    capsys.readouterr()
    assert main(["ingest", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {tmp_path / name}: not UTF-8 text (invalid start byte: b'\\xff')\n")


@pytest.mark.parametrize("name", ["phrases.txt", "bios/12.txt"])
def test_non_utf8_text_input_is_a_data_error(tmp_path, capsys, name):
    cfg_path = write_fixture(tmp_path)
    configure(cfg_path, **write_bios(tmp_path))
    for stage in STAGES[:6]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    corrupt_utf8(tmp_path / name)
    capsys.readouterr()
    assert main(["revolution", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {tmp_path / name}: not UTF-8 text (invalid start byte: b'\\xff')\n")


def test_two_bios_of_one_artist_are_a_data_error(tmp_path, capsys):
    """`01.txt` and `1.txt` both name artist 1: neither may silently win."""
    cfg_path = write_fixture(tmp_path)
    bios = write_bios(tmp_path)
    configure(cfg_path, **bios)
    (Path(bios["bios_dir"]) / "01.txt").write_text("Quiet work.", encoding="utf-8")
    for stage in STAGES[:6]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    capsys.readouterr()
    assert main(["revolution", "--config", str(cfg_path)]) == cli.EXIT_DATA
    first, second = Path(bios["bios_dir"]) / "01.txt", Path(bios["bios_dir"]) / "1.txt"
    assert capsys.readouterr().err == f"error: {first} and {second}: two bios of artist 1\n"


def test_unconverged_elastic_net_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(authrev, "EN_MAX_SWEEPS", 1)
    cfg_path = write_fixture(tmp_path)
    for stage in STAGES[:6]:
        assert main(stage + ["--config", str(cfg_path)]) == 0, stage
    fit = json.loads((tmp_path / "out" / "elastic_net.json").read_text())
    assert fit["converged"] is False and fit["iterations"] == 1


def add_byte_order_mark(path: Path) -> None:
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


@pytest.mark.parametrize("name", ["influence.csv", "songs.csv"])
def test_input_table_with_a_byte_order_mark_reads_as_without(tmp_path, name):
    cfg_path = write_fixture(tmp_path)
    run_all(cfg_path, extra=["--out", str(tmp_path / "plain")])
    add_byte_order_mark(tmp_path / name)
    run_all(cfg_path, extra=["--out", str(tmp_path / "marked")])
    for path in sorted((tmp_path / "plain").iterdir()):
        if path.name != "manifest.json":
            assert path.read_bytes() == (tmp_path / "marked" / path.name).read_bytes(), path.name


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    cfg_path = write_fixture(tmp_path)
    assert main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "plain")]) == 0
    add_byte_order_mark(cfg_path)
    assert main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "marked")]) == 0
    for path in sorted((tmp_path / "plain").iterdir()):
        if path.name != "manifest.json":
            assert path.read_bytes() == (tmp_path / "marked" / path.name).read_bytes(), path.name


def test_phrases_file_with_a_byte_order_mark_keeps_its_first_phrase(tmp_path):
    cfg_path = write_fixture(tmp_path)
    configure(cfg_path, **write_bios(tmp_path))
    add_byte_order_mark(tmp_path / "phrases.txt")  # its one phrase, "revolutionary", is in 1.txt
    run_all(cfg_path)
    labels = {r["node_id"]: r["evidence"] for r in read_rows(tmp_path / "out" / "revolution_labels.csv")}
    assert labels["1"] == "periphery|keyword"


def test_truncated_json_artifact_is_a_data_error(tmp_path, capsys):
    cfg_path = write_fixture(tmp_path)
    run_all(cfg_path)
    summary = tmp_path / "out" / "graph_summary.json"
    text = summary.read_text(encoding="utf-8")
    summary.write_text(text[:text.index(",") + 1], encoding="utf-8")  # '{\n  "edges": 25,'
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {summary}:2: not JSON (Expecting property name enclosed in double quotes)\n")


def test_truncated_manifest_is_a_data_error(tmp_path, capsys):
    cfg_path = write_fixture(tmp_path)
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:10], encoding="utf-8")
    capsys.readouterr()
    assert main(["graph", "build", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {manifest}:")
    assert not (tmp_path / "out" / "nodes.csv").exists()  # refused before the stage's work


class TestManifest:
    def test_inputs_are_every_file_read(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        bios = write_bios(tmp_path)
        configure(cfg_path, **bios)
        run_all(cfg_path)
        out = tmp_path / "out"
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        artifacts = lambda *names: {str(out / n) for n in names}
        assert set(stages["ingest"]["inputs"]) == {str(tmp_path / n) for n in ("influence.csv", "songs.csv")}
        assert set(stages["graph"]["inputs"]) == {str(tmp_path / "influence.csv")}
        assert set(stages["genre"]["inputs"]) == artifacts(
            "nodes.csv", "edges.csv", "profiles_projected.csv", "profiles_standardized.csv",
            "centrality.csv")
        assert set(stages["revolution"]["inputs"]) == artifacts(
            "nodes.csv", "edges.csv", "centrality.csv", "profiles_standardized.csv") | {
            bios["phrases_file"], str(Path(bios["bios_dir"]) / "1.txt"),
            str(Path(bios["bios_dir"]) / "12.txt")}

    def test_digests_are_the_sha256_of_the_files(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path)
        out = tmp_path / "out"
        sha256 = lambda path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for stage in json.loads((out / "manifest.json").read_text())["stages"].values():
            assert stage["inputs"] and stage["inputs"] == {p: sha256(p) for p in stage["inputs"]}
            assert stage["outputs"] == {name: sha256(out / name) for name in stage["outputs"]}

    def test_outputs_are_the_declared_writes(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path)
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert sorted(s.name for s in cli.STAGES) == sorted(stages)
        for stage in cli.STAGES:
            assert sorted(stages[stage.name]["outputs"]) == sorted(stage.writes), stage.command

    @pytest.mark.parametrize("change", ["undeclared", "missing"])
    def test_stage_returning_other_than_its_writes_raises(self, tmp_path, monkeypatch, change):
        """`main` refuses a stage whose returned artifacts are not its
        declared writes, before anything is written."""
        cfg_path = write_fixture(tmp_path)
        stage = cli.STAGES[0]
        work = stage.fn
        returned = {
            "undeclared": lambda ctx: work(ctx) | {"nodes.csv": (cli.NODE_COLUMNS, [])},
            "missing": lambda ctx: {k: v for k, v in work(ctx).items() if k != "genre_year_means.csv"},
        }
        monkeypatch.setitem(vars(stage), "fn", returned[change])
        with pytest.raises(RuntimeError, match="stage ingest returned .* not its writes"):
            main(["ingest", "--config", str(cfg_path)])
        assert list((tmp_path / "out").iterdir()) == []


class TestDependencies:
    @pytest.mark.parametrize("command, upstream", [
        (s.command, u) for s, u in zip(cli.STAGES[2:], [
            "graph build", "ingest", "graph build", "graph build", "graph build", "ingest"])
    ])
    def test_stage_run_alone_names_upstream_command(self, tmp_path, capsys, command, upstream):
        cfg_path = write_fixture(tmp_path)
        assert main(command.split() + ["--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert f"run `artistnet {upstream}` first" in err
        assert err.count("\n") == 1

    def test_centrality_before_graph(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        code = main(["centrality", "--config", str(cfg_path)])
        assert code == 4
        assert "artistnet graph build" in capsys.readouterr().err

    def test_graph_before_ingest(self, tmp_path):
        """`graph build` reads the influence table itself: on a fresh
        out_dir it runs alone and writes what it writes after `ingest`."""
        cfg_path = write_fixture(tmp_path)
        alone, after = tmp_path / "alone", tmp_path / "after"
        assert main(["graph", "build", "--config", str(cfg_path), "--out", str(alone)]) == 0
        for stage in STAGES[:2]:
            assert main(stage + ["--config", str(cfg_path), "--out", str(after)]) == 0, stage
        for name in cli.STAGES[1].writes:
            assert (alone / name).read_bytes() == (after / name).read_bytes(), name
        stages = json.loads((alone / "manifest.json").read_text())["stages"]
        assert list(stages) == ["graph"]
        assert list(stages["graph"]["inputs"]) == [str(tmp_path / "influence.csv")]

    def test_report_names_missing_stage(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        code = main(["report", "--config", str(cfg_path)])
        assert code == 4


class TestConfigErrors:
    @pytest.mark.parametrize("field, upstream", [
        ("influence_csv", 0), ("songs_csv", 0), ("phrases_file", 6), ("bios_dir", 6)])
    def test_missing_configured_input_is_named(self, tmp_path, capsys, field, upstream):
        cfg_path = write_fixture(tmp_path)
        configure(cfg_path, **write_bios(tmp_path))
        for stage in STAGES[:upstream]:
            assert main(stage + ["--config", str(cfg_path)]) == 0, stage
        configure(cfg_path, **{field: str(tmp_path / "missing")})
        capsys.readouterr()
        assert main(STAGES[upstream] + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}':" in err and str(tmp_path / "missing") in err
        assert err.count("\n") == 1

    def test_missing_required_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"songs_csv": "x.csv"}))
        assert main(["ingest", "--config", str(cfg)]) == 2
        assert "influence_csv" in capsys.readouterr().err

    def test_bad_pca_k(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        data = json.loads(cfg_path.read_text())
        data["pca_k"] = 99
        cfg_path.write_text(json.dumps(data))
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert "pca_k" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["ingest", "--config", str(cfg)]) == 2

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"influence_csv": "a\xff"}')
        assert main(["ingest", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config field '<file>': config file is not UTF-8 text: {cfg} (invalid start byte)\n")

    def test_missing_config_file(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 2

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        assert main(["ingest", "--config", str(cfg_path), "--seed", "-1"]) == 2

    def test_bad_threads(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        assert main(["ingest", "--config", str(cfg_path), "--threads", "0"]) == 2

    @pytest.mark.parametrize("override, field", [
        ({"sampling": 5}, "sampling"),
        ({"cluster": {"cut": "3"}}, "cluster.cut"),
        ({"sampling": {"samples_per_run": 2.5}}, "sampling.samples_per_run"),
        ({"sampling": {"runs": True}}, "sampling.runs"),
        ({"elastic_net": {"lambda_grid": []}}, "elastic_net.lambda_grid"),
        ({"pca_k": True}, "pca_k"),
    ])
    def test_mistyped_field_is_named(self, tmp_path, capsys, override, field):
        cfg_path = write_fixture(tmp_path)
        data = json.loads(cfg_path.read_text())
        for key, value in override.items():
            data[key] = data[key] | value if isinstance(value, dict) and key in data else value
        cfg_path.write_text(json.dumps(data))
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert f"config field '{field}':" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ({"sede": 3}, "sede"), ({"forest": {"tress": 10}}, "forest.tress"),
        ({"trend": {"genre": "jazz", "feature": "energy"}}, "trend")])
    def test_unknown_field_is_named(self, tmp_path, capsys, override, field):
        cfg_path = write_fixture(tmp_path)
        configure(cfg_path, **override)
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: config field '{field}': unknown field\n"

    def test_bad_sampling(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        data = json.loads(cfg_path.read_text())
        data["sampling"]["runs"] = 0
        cfg_path.write_text(json.dumps(data))
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert "sampling.runs" in capsys.readouterr().err


# The message of each config field's rule, as `error: config field '<name>': <message>` prints it.
FIELD_MESSAGES = {
    "influence_csv": "required path missing or not a string",
    "songs_csv": "required path missing or not a string",
    "out_dir": "required path missing or not a string",
    "seed": "must be an integer >= 0",
    "pca_k": "must be an integer in [1, 13]",
    "uniqueness_cap": "must be an integer >= 2",
    "sampling.samples_per_run": "must be an integer >= 1",
    "sampling.runs": "must be an integer >= 1",
    "authenticity.alpha": "must be a number in [0, 2]",
    "authenticity.mode": "must be pair_mean or unbounded",
    "elastic_net.lambda_grid": "must be a nonempty list of numbers >= 0",
    "elastic_net.alpha_mix": "must be a number in [0, 1]",
    "forest.trees": "must be an integer >= 1",
    "forest.max_depth": "must be an integer >= 1",
    "forest.split": "must be three fractions summing to <= 1",
    "thresholds.genre_matrix_prune": "must be a number in [0, 1]",
    "thresholds.periphery": "must be a number in [0, 1]",
    "cluster.linkage": "must be average or ward",
    "cluster.cut": "must be an integer >= 1",
    "phrases_file": "must be a path string or null",
    "bios_dir": "must be a path string or null",
}

# The defaults of every config field; a change to one must change this copy too.
DEFAULTS = {
    "influence_csv": None,
    "songs_csv": None,
    "out_dir": "out",
    "seed": 0,
    "pca_k": 9,
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


def leaves(config: dict, prefix: str = "") -> list[str]:
    """The dotted names of the non-object values of `config`, in order."""
    return [name for key, value in config.items()
            for name in (leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key])]


class TestConfigFields:
    def test_defaults(self):
        assert cli.DEFAULT_CONFIG == DEFAULTS
        assert leaves(cli.DEFAULT_CONFIG) == list(cli.FIELDS) == list(FIELD_MESSAGES)

    @pytest.mark.parametrize("value", [True, {}], ids=["bool", "object"])
    @pytest.mark.parametrize("name", list(FIELD_MESSAGES))
    def test_wrong_typed_field_is_named(self, tmp_path, capsys, monkeypatch, name, value):
        for var in ("ARTISTNET_INFLUENCE_CSV", "ARTISTNET_SONGS_CSV", "ARTISTNET_OUT_DIR"):
            monkeypatch.delenv(var, raising=False)
        cfg_path = write_fixture(tmp_path)
        data = json.loads(cfg_path.read_text())
        *sections, leaf = name.split(".")
        functools.reduce(lambda d, k: d.setdefault(k, {}), sections, data)[leaf] = value
        cfg_path.write_text(json.dumps(data))
        assert main(["ingest", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config field '{name}': {FIELD_MESSAGES[name]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, name", [(["--seed", "-1"], "seed"), (["--out", ""], "out_dir")])
    def test_flag_is_checked_by_its_field_rule(self, tmp_path, capsys, flags, name):
        cfg_path = write_fixture(tmp_path)
        assert main(["ingest", "--config", str(cfg_path), *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config field '{name}': {FIELD_MESSAGES[name]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub, reason", [("", "File exists"), ("sub", "Not a directory")])
    def test_out_dir_that_cannot_be_a_directory(self, tmp_path, capsys, sub, reason):
        """--out naming a file, or a path below a file: one line, exit 2."""
        cfg_path = write_fixture(tmp_path)
        (tmp_path / "file").write_text("not a directory")
        out = tmp_path / "file" / sub
        assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config field 'out_dir': cannot make directory {out} ({reason})\n")

    @pytest.mark.parametrize("split", [[0.34, 0.56, 0.1], [0.33, 0.56, 0.11], [0.5, 0.25, 0.25]])
    def test_split_summing_to_one_is_accepted(self, tmp_path, split):
        cfg_path = write_fixture(tmp_path)
        configure(cfg_path, forest={"split": split})
        assert cli.load_config(str(cfg_path))["forest"]["split"] == split

    @pytest.mark.parametrize("split", [[0.34, 0.56, 0.11], [0.5, 0.5, 1e-9]])
    def test_split_over_one_is_refused(self, tmp_path, split):
        cfg_path = write_fixture(tmp_path)
        configure(cfg_path, forest={"split": split})
        with pytest.raises(cli.ConfigError, match="'forest.split': must be three fractions summing to <= 1"):
            cli.load_config(str(cfg_path))


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    """`python -m artistnet.cli` exits with `main`'s code: a missing config
    file exits 2 with one line."""
    missing = tmp_path / "missing.json"
    done = subprocess.run([sys.executable, "-m", "artistnet.cli", "ingest", "--config", str(missing)],
                          env=os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == cli.EXIT_CONFIG
    assert done.stderr == f"error: config field '<file>': config file not found: {missing}\n"


class TestOverrides:
    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg_path = write_fixture(tmp_path)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("ARTISTNET_OUT_DIR", str(env_out))
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert (env_out / "cleaning_report.json").exists()

    def test_out_flag_wins(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        flag_out = tmp_path / "flag_out"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(flag_out)]) == 0
        assert (flag_out / "cleaning_report.json").exists()
        assert not (tmp_path / "out").exists()

    def test_seed_changes_sampling(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path, extra=["--out", str(tmp_path / "s0"), "--seed", "0"])
        run_all(cfg_path, extra=["--out", str(tmp_path / "s9"), "--seed", "9"])
        a = json.loads((tmp_path / "s0" / "genre_similarity_sampling.json").read_text())
        b = json.loads((tmp_path / "s9" / "genre_similarity_sampling.json").read_text())
        assert a["within_totals"] != b["within_totals"]


@pytest.mark.parametrize("cell", ["[2, 18446744073709551616]", "[-9223372036854775809]"])
def test_song_artist_id_outside_int64_is_a_data_error(tmp_path, capsys, cell):
    cfg_path = write_fixture(tmp_path)
    songs = tmp_path / "songs.csv"
    songs.write_text(songs.read_text().replace("[2],", f'"{cell}",', 1))  # line 4
    assert main(["ingest", "--config", str(cfg_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {songs}:4: bad artist_ids {cell!r}\n"


class TestMemo:
    """A table a stage loaded is reused by the later stages of the process
    that load the same bytes (`cli._MEMO`)."""

    def test_artifact_rewritten_between_stages_is_read_anew(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        out = tmp_path / "out"
        for argv in (["ingest"], ["similarity"]):
            assert main(argv + ["--config", str(cfg_path)]) == 0, argv
        before = (out / "profiles_standardized.csv").read_bytes()
        path = out / "artist_profiles.csv"
        size = path.stat().st_size
        header, row, rest = path.read_text().split("\n", 2)
        artist, c0, tail = row.split(",", 2)
        c0 = c0[:2] + ("6" if c0[2] == "5" else "5") + c0[3:]  # "0.21..." -> "0.51...": same length
        path.write_text("\n".join([header, ",".join([artist, c0, tail]), rest]))
        assert path.stat().st_size == size
        assert main(["similarity", "--config", str(cfg_path)]) == 0
        after = (out / "profiles_standardized.csv").read_bytes()
        assert after != before
        cli._MEMO.clear()
        assert main(["similarity", "--config", str(cfg_path)]) == 0
        assert (out / "profiles_standardized.csv").read_bytes() == after

    def test_memoized_values_are_read_only(self, tmp_path):
        cfg_path = write_fixture(tmp_path)
        run_all(cfg_path)
        ctx = cli.Context(cli.load_config(str(cfg_path)))
        g = ctx.load_graph()
        assert reader(tmp_path / "out").load_graph() is g  # held from the stages
        _, src, dst = ctx.load_influence()
        vector = next(iter(ctx.load_profiles("profiles_projected.csv", 2).values()))
        for array in (g.indptr, g.indices, g.src, g.weight, g.year_diff, src, dst, vector):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert isinstance(ctx.load_scores(), tuple)

    def test_failed_parse_is_not_memoized(self, tmp_path, capsys):
        cfg_path = write_fixture(tmp_path)
        for argv in STAGES[:4]:
            assert main(argv + ["--config", str(cfg_path)]) == 0, argv
        path = tmp_path / "out" / "centrality.csv"
        good = path.read_bytes()
        path.write_bytes(good.replace(b"\n1,", b"\nx,", 1))
        assert main(["revolution", "--config", str(cfg_path)]) == cli.EXIT_DATA
        assert "bad node_id cell 'x'" in capsys.readouterr().err
        assert ("centrality.csv",) not in cli._MEMO
        path.write_bytes(good)
        assert main(["revolution", "--config", str(cfg_path)]) == 0
        path.write_bytes(good.replace(b"\n1,", b"\nx,", 1))  # after a load of the good bytes too
        assert main(["revolution", "--config", str(cfg_path)]) == cli.EXIT_DATA

    def test_bounded_over_runs_in_several_out_dirs(self, tmp_path):
        for k in range(3):
            (tmp_path / f"corpus{k}").mkdir()
            cfg_path = write_fixture(tmp_path / f"corpus{k}", names={1: f"first artist {k}"})
            run_all(cfg_path, extra=["--out", str(tmp_path / f"out{k}")])
        assert sorted(cli._MEMO) == [
            ("centrality.csv",), ("influence_csv",), ("nodes.csv", "edges.csv"),
            ("profiles_projected.csv",), ("profiles_standardized.csv",)]
