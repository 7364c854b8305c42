"""Loading and cleaning of the influence and song CSV datasets, and the
one CSV codec (`write_table`/`read_table`) every artifact goes through."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from types import SimpleNamespace

import numpy as np

# The 13 numeric features retained for all downstream vector work.
# `explicit` and `mode` are parsed but always excluded (near-constant /
# derived from key).
FEATURES = [
    "danceability",
    "energy",
    "valence",
    "tempo",
    "loudness",
    "key",
    "acousticness",
    "instrumentalness",
    "liveness",
    "speechiness",
    "duration_ms",
    "popularity",
    "year",
]

DROPPED_COLUMNS = ["explicit", "mode"]

INFLUENCE_COLUMNS = [
    "influencer_id",
    "influencer_name",
    "influencer_main_genre",
    "influencer_active_start",
    "follower_id",
    "follower_name",
    "follower_main_genre",
    "follower_active_start",
]

SONG_COLUMNS = ["artist_ids"] + FEATURES + DROPPED_COLUMNS


class IngestError(Exception):
    """Malformed input data (bad row, missing column, unreadable file)."""


@dataclass(frozen=True)
class RawInfluenceRow:
    influencer_id: int
    influencer_name: str
    influencer_main_genre: str
    influencer_active_start: int
    follower_id: int
    follower_name: str
    follower_main_genre: str
    follower_active_start: int


@dataclass(frozen=True)
class SongRecord:
    artist_ids: tuple[int, ...]
    danceability: float
    energy: float
    valence: float
    tempo: float
    loudness: float
    key: int
    acousticness: float
    instrumentalness: float
    liveness: float
    speechiness: float
    duration_ms: float
    popularity: float
    year: int
    mode: int
    explicit: int
    unlinked: bool = False

    def feature_vector(self) -> np.ndarray:
        """The 13 retained features, in the canonical FEATURES order."""
        return np.array([float(getattr(self, f)) for f in FEATURES])


@dataclass
class CleaningReport:
    rows_read: int = 0
    rows_dropped_loudness: int = 0
    rows_dropped_missing_artist: int = 0
    rows_dropped_missing_value: int = 0
    columns_dropped: list[str] = field(default_factory=lambda: list(DROPPED_COLUMNS))
    rows_flagged_unlinked: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ArtistProfile:
    artist_id: int
    n_songs: int
    features: np.ndarray  # mean of the 13 retained features


def write_table(path, header, rows) -> None:
    """Write `header` and `rows` as CSV in the dialect of every artifact:
    UTF-8, LF line ends, csv.writer quoting (a field holding a comma, quote,
    CR or LF is quoted), floats as repr (so they read back exactly) and None
    as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a field that holds a character of the line terminator,
        # so records are made with "\r\n" (quoting "\r" as well as "\n")
        # and written with "\n".
        sink = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def read_table(path, columns=()):
    """Rows of a CSV file as dicts keyed by its header, read lazily; blank
    lines are skipped and every cell stays a string (an empty one, such as
    write_table's None, reads as ""). Raises IngestError when the header
    lacks one of `columns`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise IngestError(f"{path}: missing column(s) {missing}")
        yield from reader


def _parse_artist_ids(text: str, path, lineno) -> tuple[int, ...]:
    # Serialized as a bracketed comma-separated list, e.g. "[101, 202]".
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: bad artist_ids {text!r}") from exc


def load_influence(path) -> list[RawInfluenceRow]:
    """Load and type the influence table, deduplicating (influencer, follower)
    pairs keeping the first occurrence."""
    rows: list[RawInfluenceRow] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(read_table(path, INFLUENCE_COLUMNS), start=2):
        try:
            row = RawInfluenceRow(
                influencer_id=int(raw["influencer_id"]),
                influencer_name=raw["influencer_name"],
                influencer_main_genre=raw["influencer_main_genre"],
                influencer_active_start=int(raw["influencer_active_start"]),
                follower_id=int(raw["follower_id"]),
                follower_name=raw["follower_name"],
                follower_main_genre=raw["follower_main_genre"],
                follower_active_start=int(raw["follower_active_start"]),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise IngestError(f"{path}:{lineno}: malformed row ({exc})") from exc
        if row.influencer_id < 0 or row.follower_id < 0:
            raise IngestError(f"{path}:{lineno}: negative artist id")
        key = (row.influencer_id, row.follower_id)
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    return rows


def load_songs(path, known_artist_ids=None) -> tuple[list[SongRecord], CleaningReport]:
    """Load the song table, applying the cleaning rules.

    Rows with loudness outside [-60, 0] or with a missing numeric cell are
    dropped and counted; `explicit` and `mode` are always marked dropped.
    When `known_artist_ids` is given, songs none of whose artists appear in
    it are flagged `unlinked` (kept).
    """
    report = CleaningReport()
    songs: list[SongRecord] = []
    numeric = FEATURES + DROPPED_COLUMNS
    for lineno, raw in enumerate(read_table(path, SONG_COLUMNS), start=2):
        report.rows_read += 1
        if any((raw.get(c) or "").strip() == "" for c in numeric):
            report.rows_dropped_missing_value += 1
            continue
        values = {}
        for col in numeric:
            try:
                values[col] = float(raw[col])
            except ValueError as exc:
                raise IngestError(
                    f"{path}:{lineno}: unparsable numeric field {col}={raw[col]!r}"
                ) from exc
        artist_ids = _parse_artist_ids(raw["artist_ids"], path, lineno)
        if not artist_ids:
            report.rows_dropped_missing_artist += 1
            continue
        if not (-60.0 <= values["loudness"] <= 0.0):
            report.rows_dropped_loudness += 1
            continue
        unlinked = known_artist_ids is not None and not any(
            a in known_artist_ids for a in artist_ids
        )
        if unlinked:
            report.rows_flagged_unlinked += 1
        songs.append(
            SongRecord(
                artist_ids=artist_ids,
                danceability=values["danceability"],
                energy=values["energy"],
                valence=values["valence"],
                tempo=values["tempo"],
                loudness=values["loudness"],
                key=int(values["key"]),
                acousticness=values["acousticness"],
                instrumentalness=values["instrumentalness"],
                liveness=values["liveness"],
                speechiness=values["speechiness"],
                duration_ms=values["duration_ms"],
                popularity=values["popularity"],
                year=int(values["year"]),
                mode=int(values["mode"]),
                explicit=int(values["explicit"]),
                unlinked=unlinked,
            )
        )
    return songs, report


def write_songs(path, songs: list[SongRecord]) -> None:
    """Serialize cleaned songs back to CSV (inverse of load_songs modulo
    cleaning; used for the idempotence check and stage persistence)."""
    write_table(path, SONG_COLUMNS, (
        ["[" + ", ".join(str(a) for a in s.artist_ids) + "]"]
        + [getattr(s, f) for f in FEATURES] + [s.explicit, s.mode]
        for s in songs))


def write_influence(path, rows: list[RawInfluenceRow]) -> None:
    write_table(path, INFLUENCE_COLUMNS, ([getattr(r, c) for c in INFLUENCE_COLUMNS] for r in rows))


def build_artist_profiles(songs: list[SongRecord]) -> dict[int, ArtistProfile]:
    """Per-artist mean of the 13 retained features over all songs listing
    that artist; a song with k artists contributes to all k profiles."""
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for song in songs:
        vec = song.feature_vector()
        for artist in song.artist_ids:
            if artist in sums:
                sums[artist] = sums[artist] + vec
                counts[artist] += 1
            else:
                sums[artist] = vec.copy()
                counts[artist] = 1
    return {
        a: ArtistProfile(artist_id=a, n_songs=counts[a], features=sums[a] / counts[a])
        for a in sorted(sums)
    }
