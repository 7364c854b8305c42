"""Seeded generator of synthetic corpora shaped like the paper's data.

The paper's dataset has about 5.6k artists, 43k influence rows and 98k
songs over 20 genres, with Pop/Rock by far the largest genre and a few
influencers followed by hundreds of artists. `generate` writes an
influence table and a song table in the column layout `artistnet.ingest`
reads and returns a record of its parameters and the sha256 of each file,
so two commits can be shown to have been measured on identical inputs.

Influence edges are time-ordered: artists are laid out on one line by
active-start decade, and a forward edge runs from an earlier position to a
later one, so a corpus with `reversed_fraction=0` is acyclic. That fraction
of rows are reversed edges, each running one or two decades backwards;
they are what make cycles. Hub sizes and genre and decade counts are the
same for every seed, which keeps the work a corpus causes close from seed
to seed.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# The 20 main genres of the paper's influence table, largest first.
GENRES = [
    "Pop/Rock", "R&B;", "Country", "Jazz", "Vocal", "Blues", "Electronic",
    "Folk", "Reggae", "Latin", "International", "Religious",
    "Stage & Screen", "Comedy/Spoken", "New Age", "Easy Listening",
    "Classical", "Avant-Garde", "Children's", "Unknown",
]
# Replacements used by the adversarial name style: each contains a comma,
# a double quote or non-ASCII text, as real genre and artist names do.
ADVERSARIAL_GENRES = {
    "Stage & Screen": "Stage, Screen & Film",
    "Comedy/Spoken": 'Comedy/"Spoken"',
    "Latin": "Música Latina",
    "International": "Världsmusik, Ünïcode",
}
NAME_PARTS = [
    "Crosby, Stills, Nash & Young", 'The "Band"', "Sigur Rós", "Björk",
    "Motörhead", "Earth, Wind & Fire", "Beyoncé", "坂本 龍一",
    "Blood, Sweat & Tears", 'Weird Al "Yankovic"', "Mötley Crüe", "Ñu",
]
DECADES = np.arange(1930, 2011, 10)
DECADE_WEIGHTS = np.array([2, 4, 6, 9, 10, 10, 9, 8, 5], dtype=float)
FORWARD_WINDOW = 80  # year_diff >= 80 is dropped by the year window
REVERSED_WINDOW = 20  # reversed edges stay inside the (-30, 80) window

INFLUENCE_COLUMNS = [
    "influencer_id", "influencer_name", "influencer_main_genre",
    "influencer_active_start", "follower_id", "follower_name",
    "follower_main_genre", "follower_active_start",
]
SONG_COLUMNS = [
    "artist_ids", "danceability", "energy", "valence", "tempo", "loudness",
    "key", "acousticness", "instrumentalness", "liveness", "speechiness",
    "duration_ms", "popularity", "year", "explicit", "mode",
]


@dataclass(frozen=True)
class CorpusParams:
    artists: int = 5600
    rows: int = 43000
    songs: int = 98000
    genres: int = 20
    genre_skew: float = 1.5  # Zipf exponent of genre sizes
    indegree_tail: float = 2.5  # Pareto shape of follower in-degree weights
    reversed_fraction: float = 0.02
    name_style: str = "plain"  # plain | adversarial


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _pareto_weights(rng, n: int, shape: float):
    """Pareto(shape) weights (minimum 1) at evenly spaced quantiles, in
    random order.

    Every seed gets the same multiset of weights, so the size of the
    largest hubs, and with it the work they cause, does not vary by seed."""
    q = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - q) ** (-1.0 / shape))


def _exact_choice(rng, n: int, weights):
    """n draws whose counts per category are the rounded expected counts."""
    p = np.asarray(weights, dtype=float) / np.sum(weights)
    counts = np.floor(p * n).astype(int)
    counts[np.argsort(-(p * n - counts), kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(p)), counts))


def _artists(p: CorpusParams, rng):
    n = p.artists
    ids = rng.choice(np.arange(100_000, 1_000_000), size=n, replace=False)
    genre_names = GENRES[: p.genres]
    if p.name_style == "adversarial":
        genre_names = [ADVERSARIAL_GENRES.get(g, g) for g in genre_names]
    gw = 1.0 / np.arange(1, p.genres + 1) ** p.genre_skew
    genre_idx = _exact_choice(rng, n, gw)
    starts = np.sort(DECADES[_exact_choice(rng, n, DECADE_WEIGHTS)])
    if p.name_style == "plain":
        names = [f"Artist {k:05d}" for k in range(n)]
    elif p.name_style == "adversarial":
        parts = rng.integers(len(NAME_PARTS), size=n)
        names = [f"{NAME_PARTS[j]} {k}" for k, j in enumerate(parts)]
    else:
        raise ValueError(f"unknown name_style {p.name_style!r}")
    genres = [genre_names[j] for j in genre_idx]
    return ids, names, genres, genre_idx, starts


def _edges(p: CorpusParams, rng, starts):
    """(influencer_pos, follower_pos) pairs over artists laid out by start.

    Forward edges run from an earlier position to a later one, within the
    80-year window. Each reversed edge is the mirror of a forward edge that
    spans one or two decades: it closes a two-cycle and is lighter than
    every forward edge, so decycling removes exactly the reversed edges and
    the amount of decycling work varies little from seed to seed."""
    n = len(starts)
    popularity = _pareto_weights(rng, n, 1.7)
    cum = np.concatenate([[0.0], np.cumsum(popularity)])
    fw = _pareto_weights(rng, n, p.indegree_tail)
    n_rev = round(p.rows * p.reversed_fraction)
    m = 2 * p.rows + 100
    fol = rng.choice(n, size=m, p=fw / fw.sum())
    lo, hi = np.searchsorted(starts, starts[fol] - FORWARD_WINDOW, "left"), fol
    ok = hi > lo
    u = cum[lo] + rng.random(m) * (cum[hi] - cum[lo])
    inf = np.clip(np.searchsorted(cum, u, "right") - 1, lo, hi - 1)
    pairs = np.stack([inf[ok], fol[ok]], axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    pairs = pairs[np.sort(first)][: p.rows - n_rev]
    if len(pairs) < p.rows - n_rev:
        raise ValueError(f"only {len(pairs)} distinct edges for {p.rows - n_rev} rows")
    span = starts[pairs[:, 1]] - starts[pairs[:, 0]]
    mirrorable = np.flatnonzero((span > 0) & (span <= REVERSED_WINDOW))
    if len(mirrorable) < n_rev:
        raise ValueError(f"only {len(mirrorable)} edges can be reversed, {n_rev} wanted")
    mirrored = pairs[rng.choice(mirrorable, size=n_rev, replace=False)][:, ::-1]
    pairs = np.concatenate([pairs, mirrored])
    return pairs[rng.permutation(len(pairs))]


def _write_influence(path: Path, ids, names, genres, starts, pairs) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(INFLUENCE_COLUMNS)
        for a, b in pairs.tolist():
            w.writerow([ids[a], names[a], genres[a], starts[a], ids[b], names[b], genres[b], starts[b]])


def _write_songs(path: Path, p: CorpusParams, rng, ids, genre_idx, starts) -> None:
    n = len(ids)
    genre_means = rng.normal(0.0, 0.6, size=(p.genres, 9))
    artist_means = genre_means[genre_idx] + rng.normal(0.0, 0.6, size=(n, 9))
    sw = _pareto_weights(rng, n, 2.0)
    owner = rng.choice(n, size=p.songs, p=sw / sw.sum())
    second = np.where(rng.random(p.songs) < 0.08, rng.integers(n, size=p.songs), -1)
    z = artist_means[owner] + rng.normal(0.0, 0.5, size=(p.songs, 9))
    cols = {
        "danceability": _sigmoid(z[:, 0]),
        "energy": _sigmoid(z[:, 1]),
        "valence": _sigmoid(z[:, 2]),
        "tempo": 120.0 + 25.0 * z[:, 3],
        # about 0.1% of rows fall outside [-60, 0] and are cleaned away
        "loudness": np.minimum(-9.0 + 3.0 * z[:, 4], 1.0),
        "key": rng.integers(12, size=p.songs),
        "acousticness": _sigmoid(z[:, 5]),
        "instrumentalness": _sigmoid(z[:, 6] - 2.0),
        "liveness": _sigmoid(z[:, 7] - 1.5),
        "speechiness": _sigmoid(z[:, 8] - 2.5),
        "duration_ms": np.maximum(220_000 + 50_000 * rng.normal(size=p.songs), 30_000).round(),
        "popularity": np.clip(40 + 15 * rng.normal(size=p.songs), 0, 100).round(),
        "year": np.minimum(starts[owner] + rng.integers(0, 30, size=p.songs), 2021),
        "explicit": (rng.random(p.songs) < 0.1).astype(int),
        "mode": rng.integers(2, size=p.songs),
    }
    for name in ("danceability", "energy", "valence", "tempo", "loudness", "acousticness",
                 "instrumentalness", "liveness", "speechiness"):
        cols[name] = cols[name].round(4)
    table = [cols[c].tolist() for c in SONG_COLUMNS[1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SONG_COLUMNS)
        for k, row in enumerate(zip(*table)):
            a, b = int(owner[k]), int(second[k])
            artist_ids = f"[{ids[a]}]" if b < 0 or b == a else f"[{ids[a]}, {ids[b]}]"
            w.writerow([artist_ids, *row])


def generate(params: CorpusParams, seed: int, dest: Path) -> dict:
    """Write influence.csv and songs.csv under `dest`; return the record of
    parameters, seed, artist names and file digests."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x41524E])
    ids, names, genres, genre_idx, starts = _artists(params, rng)
    pairs = _edges(params, rng, starts)
    _write_influence(dest / "influence.csv", ids.tolist(), names, genres, starts.tolist(), pairs)
    _write_songs(dest / "songs.csv", params, rng, ids, genre_idx, starts)
    files = {name: hashlib.sha256((dest / name).read_bytes()).hexdigest()
             for name in ("influence.csv", "songs.csv")}
    used = np.unique(pairs)
    return {
        "params": asdict(params),
        "seed": seed,
        "influence_artists": len(used),
        "sha256": files,
        "names": {int(ids[k]): names[k] for k in used.tolist()},
    }
