"""Loading and cleaning of the influence and song CSV datasets, and the
one CSV codec (`write_table`, `read_numbered` and `read_columns`) every
table goes through. Cleaned songs are one `SongTable`, held in memory
only: the `ingest` stage writes what is read off it (artist profiles, which
map id to mean vector, and genre-by-year feature means), not the table."""

from __future__ import annotations

import csv
import json
import math
from array import array
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

ROWS_PER_BLOCK = 256  # rows `read_columns` holds as strings at a time


def _int62(cell: str) -> int:
    """int(cell), rejected outside [-2**62, 2**62): ids and active starts
    go into int64 arrays, and so do differences of two starts."""
    value = int(cell)
    if not -2**62 <= value < 2**62:
        raise ValueError(cell)
    return value


INFLUENCE_COLUMNS = {  # each column of the influence table, with the type of its cells
    "influencer_id": _int62,
    "influencer_name": str,
    "influencer_main_genre": str,
    "influencer_active_start": _int62,
    "follower_id": _int62,
    "follower_name": str,
    "follower_main_genre": str,
    "follower_active_start": _int62,
}

SONG_COLUMNS = ["artist_ids"] + FEATURES + DROPPED_COLUMNS
NUMERIC = SONG_COLUMNS[1:]
LOUDNESS = NUMERIC.index("loudness")
TRUNCATED = [NUMERIC.index(c) for c in ("key", "year", "explicit", "mode")]


class IngestError(Exception):
    """Malformed input data (bad row, missing column, unreadable file)."""


@dataclass(frozen=True, eq=False)
class SongTable:
    """Cleaned songs, one row per song: `values` holds the numeric columns
    in NUMERIC order (the first 13 are FEATURES), with key, year, explicit
    and mode truncated toward zero as int() does."""
    artist_ids: list[tuple[int, ...]]
    values: np.ndarray  # (len, 15) float64

    def __len__(self) -> int:
        return len(self.artist_ids)


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


def read_numbered(path, columns):
    """(line, cells) for each row of a CSV file, read lazily: `cells` are
    the row's string cells of `columns`, in that order, None where a short
    row ends; `line` is the reader's line number. A leading byte-order mark
    and blank lines are skipped, and a name the header repeats reads its
    last position. Raises IngestError when the header lacks one of
    `columns`, when a row has more cells than the header, or when the file
    is not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            position = {c: k for k, c in enumerate(header)}
            missing = [c for c in columns if c not in position]
            if missing:
                raise IngestError(f"{path}: missing column(s) {missing}")
            picks, width = [position[c] for c in columns], len(header)
            whole = picks == list(range(width))  # every column, in header order: no copy
            for row in reader:
                if len(row) > width:
                    raise IngestError(f"{path}:{reader.line_num}: {len(row)} cells, header has {width}")
                if row:
                    row += [None] * (width - len(row))
                    yield reader.line_num, row if whole else [row[k] for k in picks]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_columns(path, columns):
    """(lines, cols) of the rows of `read_numbered`: each row's line number,
    and one list of typed cells per column, `columns` mapping each column
    to the function that types its cells. The first bad row is named: a
    short row by path:line and its first missing column, a cell a function
    rejects by path:line, the column and the text."""
    lines, cols = [], [[] for _ in columns]
    for block_lines, block_cols in _read_blocks(path, columns):
        lines += block_lines
        for col, part in zip(cols, block_cols):
            col += part
    return lines, cols


def _read_blocks(path, columns):
    """(lines, cols), as `read_columns` gives them, of each block of
    ROWS_PER_BLOCK rows in turn; only one block's cells are held at a time."""
    names, converters = list(columns), list(columns.values())
    rows = read_numbered(path, names)
    while True:
        block, cols, error = [], [], None
        try:
            for row in rows:
                block.append(row)
                if len(block) == ROWS_PER_BLOCK:
                    break
        except IngestError as exc:  # raised after the bad cells of the rows before it
            error = exc
        try:
            for convert, cells in zip(converters, zip(*(cells for _, cells in block))):
                if None in cells:
                    raise TypeError
                cols.append(list(map(convert, cells)))
        except (TypeError, ValueError):
            for line, cells in block:
                if None in cells:
                    raise IngestError(f"{path}:{line}: missing {names[cells.index(None)]} cell") from None
                for column, convert, cell in zip(names, converters, cells):
                    try:
                        convert(cell)
                    except (TypeError, ValueError):
                        raise IngestError(f"{path}:{line}: bad {column} cell {cell!r}") from None
        if block:
            yield [line for line, _ in block], cols
        if error:
            raise error
        if len(block) < ROWS_PER_BLOCK:
            return


def read_text(path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark;
    IngestError naming it when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> IngestError:
    return IngestError(f"{path}: not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})")


def _parse_artist_ids(text: str, path, lineno) -> tuple[int, ...]:
    # Serialized as a bracketed comma-separated list, e.g. "[101, 202]"; an
    # id listed twice is kept once, at its first place.
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    try:  # int() ignores the whitespace around a part
        return tuple(dict.fromkeys(map(int, filter(str.strip, inner.split(",")))))
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: bad artist_ids {text!r}") from exc


def _is_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def load_influence(path) -> tuple[dict[int, tuple[str, str, int]], np.ndarray, np.ndarray]:
    """(artists, src, dst) of the influence table: `artists` maps each
    artist id, in order of first mention, to its (name, main genre, active
    start) as first given; `src` and `dst` are int64 arrays of the
    (influencer, follower) pairs, each pair once, at its first occurrence,
    in file order. A negative id is an error naming the line, and so is an
    artist id given two different active_start values, naming both."""
    artists: dict[int, tuple[str, str, int]] = {}
    pairs: dict[tuple[int, int], None] = {}  # keeps first occurrences, in order
    rows = (row for lines, cols in _read_blocks(path, INFLUENCE_COLUMNS) for row in zip(lines, *cols))
    for lineno, a, a_name, a_genre, a_start, b, b_name, b_genre, b_start in rows:
        if a < 0 or b < 0:
            raise IngestError(f"{path}:{lineno}: negative artist id")
        for aid, artist in ((a, (a_name, a_genre, a_start)), (b, (b_name, b_genre, b_start))):
            start = artists.setdefault(aid, artist)[2]
            if start != artist[2]:
                raise IngestError(f"{path}:{lineno}: artist {aid} active_start {artist[2]} "
                                  f"conflicts with {start} given earlier")
        pairs[a, b] = None
    src, dst = np.array(list(pairs), np.int64).reshape(-1, 2).T
    return artists, src, dst


def load_songs(path, known_artist_ids=None) -> tuple[SongTable, CleaningReport]:
    """Load the song table, applying the cleaning rules.

    Rows with loudness outside [-60, 0], no artist (an empty or missing
    artist_ids cell) or a missing numeric cell are dropped and counted;
    `explicit` and `mode` are always marked dropped. A cell that does not
    parse as a finite number is an error naming its line and column. When
    `known_artist_ids` is given, songs none of whose artists appear in it
    are kept and counted as unlinked.
    """
    report = CleaningReport()
    ids: list[tuple[int, ...]] = []
    flat = array("d")
    for lineno, (id_cell, *cells) in read_numbered(path, SONG_COLUMNS):
        report.rows_read += 1
        try:
            row = [float(c) for c in cells]
        except (TypeError, ValueError):  # a missing cell (blank, or None in a short row) fails too
            row = None
            if any((c or "").strip() == "" for c in cells):
                report.rows_dropped_missing_value += 1
                continue
        if row is None or not all(map(math.isfinite, row)):
            col, cell = next((c, v) for c, v in zip(NUMERIC, cells) if not _is_finite(v))
            raise IngestError(f"{path}:{lineno}: numeric field {col}={cell!r} is not a finite number")
        artist_ids = _parse_artist_ids(id_cell or "", path, lineno)  # None where a short row ends
        if not artist_ids:
            report.rows_dropped_missing_artist += 1
            continue
        if not (-60.0 <= row[LOUDNESS] <= 0.0):
            report.rows_dropped_loudness += 1
            continue
        report.rows_flagged_unlinked += known_artist_ids is not None and not any(
            a in known_artist_ids for a in artist_ids)
        ids.append(artist_ids)
        flat.extend(row)
    values = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(NUMERIC))
    # int() truncation; adding 0.0 turns trunc's -0.0 into int()'s 0.
    values[:, TRUNCATED] = np.trunc(values[:, TRUNCATED]) + 0.0
    return SongTable(ids, values), report


def build_artist_profiles(songs: SongTable) -> dict[int, np.ndarray]:
    """Per-artist mean of the 13 retained features over all songs listing
    that artist; a song with k artists contributes to all k profiles.
    Sums accumulate in song order from -0.0, the additive identity, so a
    profile is bit for bit the left-to-right sum of its songs divided by
    their count."""
    slot_of: dict[int, int] = {}
    slot = np.array([slot_of.setdefault(a, len(slot_of)) for ids in songs.artist_ids for a in ids],
                    dtype=np.intp)
    song = np.array([r for r, ids in enumerate(songs.artist_ids) for _ in ids], dtype=np.intp)
    sums = np.full((len(slot_of), len(FEATURES)), -0.0)
    np.add.at(sums, slot, songs.values[song, :len(FEATURES)])
    means = sums / np.bincount(slot, minlength=len(slot_of))[:, None]
    return {a: means[slot_of[a]] for a in sorted(slot_of)}
