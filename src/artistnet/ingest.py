"""Loading and cleaning of the influence and song CSV datasets, and the
artifact codec: `write_table` and `read_columns` for every table (the
reader types a table with numpy's text reader a block at a time, reading a
table numpy rejects with the csv module, `read_numbered`), and `json_text`
for every JSON file, which encodes a dataclass by its fields and an ndarray
as a list. Only `cli.write_artifacts` calls the two encoders; the analysis
modules return values and records. Cleaned songs are one `SongTable`, held in
memory only: the `ingest` stage writes what is read off it (artist
profiles and genre-by-year feature means)."""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field, fields
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

ROWS_PER_BLOCK = 256  # rows numpy types at a time


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
    """Cleaned songs, one row per song: song r lists the artists
    `ids[indptr[r]:indptr[r + 1]]` (CSR), in listed order, a repeated id
    once, at its first place; `values` holds the numeric columns in NUMERIC
    order (the first 13 are FEATURES), with key, year, explicit and mode
    truncated toward zero as int() does."""
    ids: np.ndarray  # int64
    indptr: np.ndarray  # (len + 1,) int64
    values: np.ndarray  # (len, 15) float64

    def __len__(self) -> int:
        return len(self.values)

    @property
    def rows(self) -> np.ndarray:
        """The song of each entry of `ids`."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


@dataclass
class CleaningReport:
    rows_read: int = 0
    rows_dropped_loudness: int = 0
    rows_dropped_missing_artist: int = 0
    rows_dropped_missing_value: int = 0
    columns_dropped: list[str] = field(default_factory=lambda: list(DROPPED_COLUMNS))
    rows_flagged_unlinked: int = 0


def write_table(path, header, rows) -> None:
    """Write `header` and `rows` as CSV in the dialect of every artifact:
    UTF-8, LF line ends, csv.writer quoting (a field holding a comma, quote,
    CR or LF is quoted) and None as an empty cell. Cells are Python str,
    int, float or None: csv writes a float as its repr, which reads back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a field that holds a character of the line terminator,
        # so records are made with "\r\n" (quoting "\r" as well as "\n")
        # and written with "\n".
        sink = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _plain(obj):
    """The JSON value of an ndarray or dataclass (`fields` raises TypeError for other values)."""
    return obj.tolist() if isinstance(obj, np.ndarray) else {f.name: getattr(obj, f.name) for f in fields(obj)}


def json_text(obj) -> str:
    """`obj` as the text of a JSON artifact: keys sorted, two-space indent,
    a dataclass as the object of its fields and an ndarray as a list."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


def _picks(path, header: list[str], columns) -> list[int]:
    """Header position of each of `columns` (a repeated name's last)."""
    position = {c: k for k, c in enumerate(header)}
    missing = [c for c in columns if c not in position]
    if missing:
        raise IngestError(f"{path}: missing column(s) {missing}")
    return [position[c] for c in columns]


def read_numbered(path, columns):
    """(line, cells) for each row of a CSV file, read lazily by the csv
    module: `cells` are the row's string cells of `columns`, in that order,
    None where a short row ends; `line` is the reader's line number. A
    leading byte-order mark and blank lines are skipped. Raises IngestError
    when the header lacks one of `columns`, when a row has more cells than
    the header, or when the file is not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            picks, width = _picks(path, header, columns), len(header)
            for row in reader:
                if len(row) > width:
                    raise IngestError(f"{path}:{reader.line_num}: {len(row)} cells, header has {width}")
                if row:
                    row += [None] * (width - len(row))
                    yield reader.line_num, [row[k] for k in picks]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _typed_blocks(path, kinds: dict):
    """The columns of `kinds` (name: dtype) of each ROWS_PER_BLOCK rows of a
    CSV file, typed by numpy (the last block short or empty); ValueError where it fails."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # numpy given a path turns CR into LF
        header = next(csv.reader(fh), [])
        kind_at = dict(zip(_picks(path, header, kinds), kinds.values()))  # by header position
        # a field for every cell (others as text), so a row of the wrong length is rejected
        dtype = np.dtype([(f"c{k}", kind_at.get(k, object)) for k in range(len(header))])
        while True:
            with warnings.catch_warnings():  # numpy warns of the empty block after the last row
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(fh, dtype, comments=None, delimiter=",", quotechar='"',
                                   ndmin=1, max_rows=ROWS_PER_BLOCK)  # by default "#" cuts a row
            yield [block[f"c{k}"].copy() for k in kind_at]  # views would keep every cell's text
            if len(block) < ROWS_PER_BLOCK:
                return


def optional_float(cell: str) -> float:
    return float(cell or "nan")


# The array read_columns gives a column of each cell type; a list for others.
_ARRAYS = {int: np.int64, _int62: np.int64, float: np.float64, optional_float: np.float64, str: object}


def read_columns(path, columns) -> list:
    """The columns of a CSV file, `columns` mapping each to the function
    that types its cells (see _ARRAYS), typed by numpy a block at a time.
    A table numpy rejects (a bad or missing cell, a long row, number syntax
    only Python reads) is read by `read_numbered`, giving the same columns
    or naming the first bad row's path:line and its first missing column,
    or a cell its function rejects (or an int outside int64) and its text."""
    try:
        blocks = _typed_blocks(path, {c: _ARRAYS.get(f, object) for c, f in columns.items()})
        cols = [np.concatenate(parts) for parts in zip(*blocks)]
        if any(f is _int62 and ((c < -2**62) | (c >= 2**62)).any() for f, c in zip(columns.values(), cols)):
            raise ValueError("a cell _int62 rejects")
        return [c if f in _ARRAYS else list(map(f, c.tolist())) for f, c in zip(columns.values(), cols)]
    except (TypeError, ValueError):
        return _read_rows(path, columns)


def _read_rows(path, columns) -> list:
    """read_columns by `read_numbered`, a cell at a time."""
    names, converters = list(columns), list(columns.values())
    cols = [[] for _ in names]
    for line, cells in read_numbered(path, names):
        if None in cells:
            raise IngestError(f"{path}:{line}: missing {names[cells.index(None)]} cell")
        for col, column, convert, cell in zip(cols, names, converters, cells):
            try:
                col.append(convert(cell))
                if _ARRAYS.get(convert) is np.int64 and not -2**63 <= col[-1] < 2**63:
                    raise ValueError(cell)
            except (TypeError, ValueError):
                raise IngestError(f"{path}:{line}: bad {column} cell {cell!r}") from None
    return [np.array(c, _ARRAYS[f]) if f in _ARRAYS else c for c, f in zip(cols, converters)]


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


def _parse_artist_ids(text: str) -> list[int]:
    # Serialized as a bracketed comma-separated list, e.g. "[101, 202]".
    # ValueError for a part that is not an int (int() ignores the whitespace
    # around a part) or is outside int64.
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    ids = list(map(int, filter(str.strip, inner.split(","))))
    if not all(-2**63 <= a < 2**63 for a in ids):
        raise ValueError(text)
    return ids


# A block's artist_ids cells joined by ";", each as the writers make them:
# "[1, 2]", "[1,2]" or "[]", ids of at most 18 digits (so within int64).
_CELL = r"\[(?:\d{1,18}(?:, ?\d{1,18})*)?\]"
_CANONICAL_IDS = re.compile(f"{_CELL}(?:;{_CELL})*")


def _artist_id_pairs(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(row, id) int64 arrays of a block of artist_ids cells, each row's ids
    in listed order, an id repeated in a row kept at its first place. A
    block of canonical cells is parsed at once; another is made canonical a
    row at a time by `_parse_artist_ids` (ValueError for a bad cell)."""
    text = ";".join(cells)
    if text.count(";") != len(cells) - 1 or not _CANONICAL_IDS.fullmatch(text):  # or a cell holds a ";"
        text = ";".join(map(str, map(_parse_artist_ids, cells)))  # each as "[1, -2]"
    chars = np.frombuffer(text.encode(), np.uint8)
    digit = ((ord("0") <= chars) & (chars <= ord("9"))).view(np.int8)
    row = np.cumsum(chars == ord(";"))[np.diff(digit, prepend=0) == 1]  # at each id's first digit
    ids = np.fromstring(text.translate(str.maketrans("[],;", "    ")).strip(), np.int64, sep=" ")
    order = np.lexsort((ids, row))  # stable: a repeat sorts after its first place
    repeat = np.zeros(len(ids), bool)
    repeat[order[1:]] = (np.diff(row[order]) == 0) & (np.diff(ids[order]) == 0)
    return row[~repeat], ids[~repeat]


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
    artist id given two different active_start values, naming both (in a
    row, a negative id first, then the influencer, then the follower)."""
    a, a_start, b, b_start = read_columns(path, {c: f for c, f in INFLUENCE_COLUMNS.items() if f is _int62})
    ends = np.column_stack([a, b]).ravel()  # each row's influencer, then its follower
    starts = np.column_stack([a_start, b_start]).ravel()
    _, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    conflict = np.flatnonzero(starts != starts[first][inverse])
    negative = np.flatnonzero((a < 0) | (b < 0))
    if len(negative) or len(conflict):
        row = min(negative[:1].tolist() + (conflict[:1] // 2).tolist())
        where = f"{path}:" + next(str(n) for k, (n, _) in enumerate(read_numbered(path, [])) if k == row)
        if negative[:1].tolist() == [row]:
            raise IngestError(f"{where}: negative artist id")
        p = conflict[0]
        raise IngestError(f"{where}: artist {ends[p]} active_start {starts[p]} "
                          f"conflicts with {starts[first[inverse[p]]]} given earlier")
    mention, text, row = np.sort(first), [], 0
    ids, start = ends[mention].tolist(), starts[mention].tolist()
    del a_start, b_start, ends, starts, first, inverse  # freed before the text pass
    # (name, genre) at each first mention, read a block at a time: the text is never all held
    for block in _typed_blocks(path, {c: object for c, f in INFLUENCE_COLUMNS.items() if f is str}):
        lo, hi = np.searchsorted(mention, [2 * row, 2 * (row + len(block[0]))])
        text += np.column_stack(block).reshape(-1, 2)[mention[lo:hi] - 2 * row].tolist()
        row += len(block[0])
    artists = {i: (n, g, s) for i, (n, g), s in zip(ids, text, start)}
    # Stable sort: a repeated pair follows its first occurrence. Ids are >= 0 here, so -1 opens a run.
    order = np.lexsort((b, a))
    pairs = np.sort(order[(np.diff(a[order], prepend=-1) != 0) | (np.diff(b[order], prepend=-1) != 0)])
    return artists, a[pairs], b[pairs]


def load_songs(path, known_artist_ids=None) -> tuple[SongTable, CleaningReport]:
    """Load the song table, applying the cleaning rules.

    Rows with loudness outside [-60, 0], no artist (an empty or missing
    artist_ids cell) or a missing numeric cell are dropped and counted;
    `explicit` and `mode` are always marked dropped. A cell that does not
    parse as a finite number is an error naming its line and column. When
    `known_artist_ids` is given, songs none of whose artists appear in it
    are kept and counted as unlinked. The rules apply as masks to each
    block numpy types. A table numpy rejects (a blank cell, say) or with a
    bad cell is read a row at a time, which drops or names that row.
    """
    blocks = ((ids.tolist(), np.column_stack(cols))
              for *cols, ids in _typed_blocks(path, dict.fromkeys(NUMERIC, float) | {"artist_ids": object}))
    try:
        return _clean_songs(blocks, CleaningReport(), known_artist_ids)
    except ValueError:
        pass  # read a row at a time
    report, id_cells, flat = CleaningReport(), [], array("d")
    for lineno, (id_cell, *cells) in read_numbered(path, SONG_COLUMNS):
        if any((c or "").strip() == "" for c in cells):  # blank, or None where a short row ends
            report.rows_read += 1
            report.rows_dropped_missing_value += 1
            continue
        for col, cell in zip(NUMERIC, cells):
            if not _is_finite(cell):
                raise IngestError(f"{path}:{lineno}: numeric field {col}={cell!r} is not a finite number")
        try:
            id_cells.append(str(_parse_artist_ids(id_cell or "")))
        except ValueError:
            raise IngestError(f"{path}:{lineno}: bad artist_ids {id_cell!r}") from None
        flat.extend(map(float, cells))
    values = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(NUMERIC))
    return _clean_songs([(id_cells, values)], report, known_artist_ids)


def _clean_songs(blocks, report: CleaningReport, known_artist_ids) -> tuple[SongTable, CleaningReport]:
    """SongTable of the rows of (artist_ids cells, values) `blocks` that pass."""
    ids, counts, flat = [], [], array("d")  # values grown in place: no second copy of the table
    for cells, values in blocks:
        if not np.isfinite(values).all():
            raise ValueError("a cell that is not a finite number")
        row, artist = _artist_id_pairs(cells)
        n = np.bincount(row, minlength=len(values))
        keep = (n > 0) & (-60.0 <= values[:, LOUDNESS]) & (values[:, LOUDNESS] <= 0.0)
        report.rows_read += len(values)
        report.rows_dropped_missing_artist += int((n == 0).sum())
        report.rows_dropped_loudness += int(((n > 0) & ~keep).sum())
        ids.append(artist[keep[row]])
        counts.append(n[keep])
        flat.frombytes(values[keep].tobytes())
    values = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(NUMERIC))
    for col in (values[:, k] for k in TRUNCATED):  # int() truncation, in place a column at a time
        np.trunc(col, out=col)
        col += 0.0  # adding 0.0 turns trunc's -0.0 into int()'s 0
    songs = SongTable(np.concatenate(ids), np.concatenate([[0], np.cumsum(np.concatenate(counts))]), values)
    if known_artist_ids is not None:
        known = np.sort(np.fromiter(known_artist_ids, np.int64, len(known_artist_ids)))
        linked = np.searchsorted(known, songs.ids, "right") > np.searchsorted(known, songs.ids)
        report.rows_flagged_unlinked = int((np.bincount(songs.rows[linked], minlength=len(songs)) == 0).sum())
    return songs, report


def build_artist_profiles(songs: SongTable) -> dict[int, np.ndarray]:
    """Per-artist mean of the 13 retained features over all songs listing
    that artist; a song with k artists contributes to all k profiles.
    Sums accumulate in song order from -0.0, the additive identity, so a
    profile is bit for bit the left-to-right sum of its songs divided by
    their count."""
    artists, slot = np.unique(songs.ids, return_inverse=True)
    sums = np.full((len(artists), len(FEATURES)), -0.0)
    for k in range(len(FEATURES)):  # a feature at a time: no entries x 13 gather
        np.add.at(sums[:, k], slot, np.repeat(songs.values[:, k], np.diff(songs.indptr)))
    means = sums / np.bincount(slot, minlength=len(artists))[:, None]
    return dict(zip(artists.tolist(), means))
