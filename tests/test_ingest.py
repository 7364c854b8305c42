import csv
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import artist_id_tuples, reference_build_artist_profiles, reference_load_songs

from artistnet import ingest
from artistnet.ingest import (
    FEATURES,
    IngestError,
    build_artist_profiles,
    load_influence,
    load_songs,
    read_columns,
    read_numbered,
    write_table,
)

INFLUENCE_HEADER = ",".join(ingest.INFLUENCE_COLUMNS)
SONG_HEADER = ",".join(ingest.SONG_COLUMNS)


def song_row(artist_ids="[1]", loudness=-10.0, danceability=0.5, year=1980, **over):
    values = {
        "artist_ids": f'"{artist_ids}"',
        "danceability": danceability,
        "energy": 0.6,
        "valence": 0.4,
        "tempo": 120.0,
        "loudness": loudness,
        "key": 5,
        "acousticness": 0.3,
        "instrumentalness": 0.1,
        "liveness": 0.2,
        "speechiness": 0.05,
        "duration_ms": 200000,
        "popularity": 50,
        "year": year,
        "explicit": 0,
        "mode": 1,
    }
    values.update(over)
    return ",".join(str(values[c]) for c in ingest.SONG_COLUMNS)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def influence_row(i, ig, iy, f, fg, fy):
    return f"{i},name{i},{ig},{iy},{f},name{f},{fg},{fy}"


class TestLoadInfluence:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            influence_row(1, "Jazz", 1950, 3, "Blues", 1965),
            influence_row(2, "Pop/Rock", 1970, 3, "Blues", 1965),
        ])
        artists, src, dst = load_influence(p)
        assert list(artists.items()) == [
            (1, ("name1", "Jazz", 1950)), (2, ("name2", "Pop/Rock", 1970)), (3, ("name3", "Blues", 1965))]
        assert src.dtype == dst.dtype == np.int64
        assert (src.tolist(), dst.tolist()) == ([1, 1, 2], [2, 3, 3])

    def test_duplicate_pair_deduplicated(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            influence_row(3, "Blues", 1940, 1, "Jazz", 1950),
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            influence_row(2, "Pop/Rock", 1970, 1, "Jazz", 1950),
        ])
        artists, src, dst = load_influence(p)
        assert (src.tolist(), dst.tolist()) == ([1, 3, 2], [2, 1, 1])  # first occurrences, in file order
        assert list(artists) == [1, 2, 3]

    def test_artist_keeps_its_first_name_and_genre(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 1, "Jazz", 1950),  # self-influence names artist 1
            "2,later,Blues,1940,1,renamed,Pop,1950",
        ])
        artists, src, dst = load_influence(p)
        assert artists == {1: ("name1", "Jazz", 1950), 2: ("later", "Blues", 1940)}
        assert (src.tolist(), dst.tolist()) == ([1, 2], [1, 1])

    def test_empty_table(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [INFLUENCE_HEADER])
        artists, src, dst = load_influence(p)
        assert artists == {} and src.shape == dst.shape == (0,) and src.dtype == np.int64

    @pytest.mark.parametrize("row, column, cell", [
        (f"{2**62},a,Jazz,1950,2,b,Pop,1970", "influencer_id", str(2**62)),
        (f"1,a,Jazz,1950,2,b,Pop,{-2**62 - 1}", "follower_active_start", str(-2**62 - 1)),
    ])
    def test_value_the_arrays_cannot_hold_is_an_error(self, tmp_path, row, column, cell):
        p = tmp_path / "inf.csv"
        write_lines(p, [INFLUENCE_HEADER, f"{2**62 - 1},a,Jazz,{-2**62},2,b,Pop,{2**62 - 1}", row])
        with pytest.raises(IngestError) as err:
            load_influence(p)
        assert str(err.value) == f"{p}:3: bad {column} cell '{cell}'"

    @pytest.mark.parametrize("row", ["-1,a,Jazz,1950,2,b,Pop,1970", "1,a,Jazz,1950,-2,b,Pop,1970"])
    def test_negative_id_is_an_error(self, tmp_path, row):
        p = tmp_path / "inf.csv"
        write_lines(p, [INFLUENCE_HEADER, influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970), row])
        with pytest.raises(IngestError) as err:
            load_influence(p)
        assert str(err.value) == f"{p}:3: negative artist id"

    def test_missing_column_is_schema_error(self, tmp_path):
        p = tmp_path / "inf.csv"
        header = INFLUENCE_HEADER.replace("follower_id,", "")
        write_lines(p, [header])
        with pytest.raises(IngestError, match="follower_id"):
            load_influence(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            "notanint,x,Jazz,1950,2,y,Pop,1970",
        ])
        with pytest.raises(IngestError, match=":3"):
            load_influence(p)

    def test_extra_cell_is_an_error(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            influence_row(1, "Jazz", 1950, 3, "Blues", 1965) + ",junk",
        ])
        with pytest.raises(IngestError, match=r"inf\.csv:3: 9 cells, header has 8$"):
            load_influence(p)


    def test_line_number_counts_blank_lines(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, [
            INFLUENCE_HEADER,
            influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970),
            "",
            "x,x,Jazz,1950,2,y,Pop,1970",
        ])
        with pytest.raises(IngestError, match=r"inf\.csv:4: bad influencer_id cell 'x'$"):
            load_influence(p)

    @pytest.mark.parametrize("rows, error", [
        ([influence_row(1, "Jazz", 1950, 2, "Pop/Rock", 1970), influence_row(3, "Blues", 1940, 2, "Pop/Rock", 1975)],
         "inf.csv:3: artist 2 active_start 1975 conflicts with 1970 given earlier"),
        ([influence_row(4, "Jazz", 1950, 4, "Jazz", 1951)],  # one self-influence row
         "inf.csv:2: artist 4 active_start 1951 conflicts with 1950 given earlier"),
    ])
    def test_conflicting_active_start_is_an_error(self, tmp_path, rows, error):
        p = tmp_path / "inf.csv"
        write_lines(p, [INFLUENCE_HEADER, *rows])
        with pytest.raises(IngestError) as err:
            load_influence(p)
        assert str(err.value) == f"{tmp_path}/{error}"


class TestLoadSongs:
    def test_loudness_below_range_dropped(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(loudness=-61.2), song_row(loudness=-5.0)])
        songs, report = load_songs(p)
        assert len(songs) == 1
        assert report.rows_dropped_loudness == 1

    def test_loudness_zero_boundary_kept(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(loudness=0.0)])
        songs, report = load_songs(p)
        assert len(songs) == 1
        assert report.rows_dropped_loudness == 0

    def test_columns_dropped_leaves_13_features(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row()])
        songs, report = load_songs(p)
        assert set(report.columns_dropped) == {"explicit", "mode"}
        assert len(FEATURES) == 13
        assert ingest.NUMERIC[:13] == FEATURES
        assert songs.values.shape == (1, 15)

    def test_unparsable_numeric_reports_line(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(tempo="fast")])
        with pytest.raises(IngestError, match=":2"):
            load_songs(p)

    def test_line_number_counts_blank_and_continued_lines(self, tmp_path):
        p = tmp_path / "songs.csv"
        # the first song's quoted artist list spans lines 2-3; line 4 is blank
        write_lines(p, [SONG_HEADER, song_row(artist_ids="[1,\n 2]"), "", song_row(tempo="fast")])
        with pytest.raises(IngestError, match=r"songs\.csv:5: numeric field tempo='fast'"):
            load_songs(p)

    def test_extra_cell_is_an_error(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(), song_row(mode="1,99,junk")])
        with pytest.raises(IngestError, match=r"songs\.csv:3: 18 cells, header has 16$"):
            load_songs(p)

    def test_missing_cell_dropped_and_counted(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(tempo=""), song_row()])
        songs, report = load_songs(p)
        assert len(songs) == 1
        assert report.rows_dropped_missing_value == 1

    def test_empty_artist_ids_dropped(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(artist_ids="[]"), song_row()])
        songs, report = load_songs(p)
        assert len(songs) == 1
        assert report.rows_dropped_missing_artist == 1

    def test_missing_artist_ids_cell_dropped(self, tmp_path):
        # artist_ids last, and a row that stops before it
        p = tmp_path / "songs.csv"
        cells = full_row(loudness="-1")[1:]
        write_table(p, ingest.NUMERIC + ["artist_ids"], [cells, cells + ["[4]"]])
        songs, report = load_songs(p)
        assert artist_id_tuples(songs) == [(4,)]
        assert report.rows_dropped_missing_artist == 1
        records, expected = reference_load_songs(p)
        assert [s.artist_ids for s in records] == [(4,)]
        assert report == expected

    def test_unlinked_flagging(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [SONG_HEADER, song_row(artist_ids="[1]"), song_row(artist_ids="[9]")])
        songs, report = load_songs(p, known_artist_ids={1})
        assert artist_id_tuples(songs) == [(1,), (9,)]  # both kept
        assert report.rows_flagged_unlinked == 1

    def test_report_counts_partition_drops(self, tmp_path):
        p = tmp_path / "songs.csv"
        write_lines(p, [
            SONG_HEADER,
            song_row(loudness=-99),
            song_row(artist_ids="[]"),
            song_row(valence=""),
            song_row(),
        ])
        songs, report = load_songs(p)
        drops = (report.rows_dropped_loudness + report.rows_dropped_missing_artist
                 + report.rows_dropped_missing_value)
        assert report.rows_read == 4
        assert drops == 3 and len(songs) == 1
        assert report.rows_read >= drops


class TestArtistProfiles:
    def make_songs(self, tmp_path, rows):
        p = tmp_path / "s.csv"
        write_lines(p, [SONG_HEADER] + rows)
        songs, _ = load_songs(p)
        return songs

    def test_single_song_profile_equals_song(self, tmp_path):
        songs = self.make_songs(tmp_path, [song_row(artist_ids="[7]")])
        profiles = build_artist_profiles(songs)
        np.testing.assert_allclose(profiles[7], songs.values[0, :13])

    def test_mean_of_two_songs(self, tmp_path):
        songs = self.make_songs(tmp_path, [
            song_row(artist_ids="[7]", danceability=0.2),
            song_row(artist_ids="[7]", danceability=0.6),
        ])
        profiles = build_artist_profiles(songs)
        assert profiles[7][FEATURES.index("danceability")] == pytest.approx(0.4)

    def test_shared_song_contributes_to_both(self, tmp_path):
        songs = self.make_songs(tmp_path, [song_row(artist_ids="[1, 2]")])
        profiles = build_artist_profiles(songs)
        # independent oracle: accumulate per artist by hand
        expected = songs.values[0, :13]
        for artist in (1, 2):
            np.testing.assert_allclose(profiles[artist], expected)

    def test_permutation_invariant(self, tmp_path):
        rows = [
            song_row(artist_ids="[3]", danceability=0.1),
            song_row(artist_ids="[3]", danceability=0.9),
            song_row(artist_ids="[3]", danceability=0.5),
        ]
        a = build_artist_profiles(self.make_songs(tmp_path, rows))
        b = build_artist_profiles(self.make_songs(tmp_path, rows[::-1]))
        np.testing.assert_allclose(a[3], b[3])

    def test_artist_listed_twice_counts_once(self, tmp_path):
        songs = self.make_songs(tmp_path, [
            song_row(artist_ids="[1, 1]", danceability=0.2),
            song_row(artist_ids="[2, 1, 2]", danceability=0.6),
        ])
        assert artist_id_tuples(songs) == [(1,), (2, 1)]
        profiles = build_artist_profiles(songs)
        assert profiles[1][FEATURES.index("danceability")] == (0.2 + 0.6) / 2
        assert profiles[2][FEATURES.index("danceability")] == 0.6

    def test_artist_with_no_songs_absent(self, tmp_path):
        songs = self.make_songs(tmp_path, [song_row(artist_ids="[1]")])
        assert 2 not in build_artist_profiles(songs)

    def test_negative_zeros_match_the_reference(self, tmp_path):
        path = tmp_path / "s.csv"
        write_table(path, ingest.SONG_COLUMNS, [[ids] + ["-0.0"] * len(ingest.NUMERIC)
                                                for ids in ("[1, 2]", "[2]", "[3, 1]", "[1]")])
        profiles = build_artist_profiles(load_songs(path)[0])
        expected = reference_build_artist_profiles(reference_load_songs(path)[0])
        assert list(profiles) == list(expected) == [1, 2, 3]
        for artist, profile in profiles.items():
            assert profile.tobytes() == expected[artist].tobytes()
        assert math.copysign(1.0, profiles[1][0]) == -1.0  # sums start from -0.0, not 0.0

    def test_no_entries_by_features_gather(self):
        entries = 40_000  # one artist a song, 500 artists
        songs = ingest.SongTable(np.arange(entries, dtype=np.int64) % 500, np.arange(entries + 1, dtype=np.int64),
                                 np.ones((entries, len(ingest.NUMERIC))))
        tracemalloc.start()
        try:
            build_artist_profiles(songs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < entries * len(FEATURES) * 8  # what one entries x 13 float gather takes


def full_row(ids="[7]", **cells):
    """A song row of strings: every numeric cell "1" unless given."""
    return [ids] + [cells.get(c, "1") for c in ingest.NUMERIC]


NUMBER_CELLS = st.sampled_from(["0", "-0.0", "0.0", "1", "-1.5", "2.5", "0.1", "7", "1e3", "-7.9", ""]) | (
    st.floats(-1e6, 1e6).map(repr))
LOUDNESS_CELLS = st.sampled_from(["-60", "-60.0", "60", "0", "-0.0", "0.0", "-60.000001", "-10", "-0.5", ""])
ID_CELLS = st.sampled_from(["[]", "[1, 1]", "[1]", "[2]", "[1, 2]", "[3, 2, 1]", "[ 4 ]", "", "[5]"])
# Whole rows, or short ones (the cells after the cut are missing).
SONG_ROWS = st.tuples(
    ID_CELLS, *(LOUDNESS_CELLS if c == "loudness" else NUMBER_CELLS for c in ingest.NUMERIC),
    st.just(16) | st.integers(1, 15),
).map(lambda t: list(t[:t[-1]]))
# An artist_ids cell of up to four ids, repeats allowed: canonical ("[1, 2]",
# "[1,2]", "[]") or in syntax only the row-at-a-time parser reads.
ID_LIST_CELLS = st.builds(
    lambda ids, part, sep, frame: frame.format(sep.join(part.format(a) for a in ids)),
    st.lists(st.integers(0, 6), max_size=4), st.sampled_from(["{}", "{}", "+{}", "00{}", "1_00{}"]),
    st.sampled_from([", ", ",", " ,", " , ", ";"]),
    st.sampled_from(["[{0}]", "[{0}]", "[ {0} ]", "{0}", "[{0}];[{0}]"]))
# At most one cell per file that is not a finite number: (row, column, text).
BAD_CELL = st.none() | st.tuples(st.integers(0, 7), st.sampled_from(ingest.NUMERIC),
                                 st.sampled_from(["nan", "inf", "-inf", "NaN", "x", "1e999"]))


class TestSongTableMatchesReference:
    """The song table against the per-row loader it replaced
    (`oracles.reference_load_songs`): the same rows, bit for bit, the same
    cleaning report, the same first error, and the same profiles."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(SONG_ROWS, max_size=8), known=st.none() | st.frozensets(st.integers(1, 5)),
           bad=BAD_CELL)
    @example(rows=[full_row("[7]", danceability="-0.0", key="-0.0"),
                   full_row("[7, 8]", danceability="-0.0", key="-0.5"),
                   full_row("[8]", danceability="0.0", year="-1.5")], known=None, bad=None)
    @example(rows=[full_row("[1]", loudness="-60"), full_row("[1, 1]", loudness="60"),
                   full_row("[2]", loudness="0"), full_row("[2]", loudness="-0.0"),
                   full_row("[]"), full_row("[3]")[:5]], known=frozenset({1}), bad=None)
    def test_load_and_profiles(self, rows, known, bad):
        if bad is not None and bad[0] < len(rows) and 1 + ingest.NUMERIC.index(bad[1]) < len(rows[bad[0]]):
            rows[bad[0]][1 + ingest.NUMERIC.index(bad[1])] = bad[2]
        self.check(rows, known)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(ID_LIST_CELLS, LOUDNESS_CELLS), max_size=10),
           known=st.none() | st.frozensets(st.integers(0, 1010)))
    @example(rows=[("[1, 1]", "-1"), ("[]", "-1"), ("[ 1 ,2 ]", "-1"), ("1, 2", "-1"),
                   ("+3", "-1"), ("[1_000, 3, 1_000]", "-1"), ("[2,2]", "-1")], known=frozenset({3}))
    @example(rows=[("[1]", "-1"), ("[1 2]", "-1")], known=None)  # an error, as int("1 2") is
    @example(rows=[("[1];[2]", "-1"), ("[3]", "-1"), ("[]", "-1")], known=None)  # a ";" in a cell: an error
    def test_artist_id_cells_in_blocks_cut_mid_table(self, rows, known):
        """Blocks of three rows, canonical cells in some and not in others."""
        with mock.patch.object(ingest, "ROWS_PER_BLOCK", 3):
            self.check([full_row(ids, loudness=loudness) for ids, loudness in rows], known)

    def check(self, rows, known):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "songs.csv"
            write_table(path, ingest.SONG_COLUMNS, rows)
            outcomes = []
            for load in (load_songs, reference_load_songs):
                try:
                    outcomes.append(load(path, known_artist_ids=known))
                except IngestError as exc:
                    outcomes.append(str(exc))
        table, expected = outcomes
        if isinstance(expected, str) or isinstance(table, str):
            assert table == expected
            return
        (table, report), (songs, expected_report) = table, expected
        assert report == expected_report
        assert len(table) == len(songs)
        assert table.ids.dtype == table.indptr.dtype == np.int64
        assert artist_id_tuples(table) == [s.artist_ids for s in songs]
        reference = np.array([[float(getattr(s, c)) for c in ingest.NUMERIC] for s in songs])
        assert table.values.tobytes() == reference.reshape(-1, 15).tobytes()
        profiles = build_artist_profiles(table)
        expected_profiles = reference_build_artist_profiles(songs)
        assert list(profiles) == list(expected_profiles)
        for artist, profile in profiles.items():
            assert repr(profile) == repr(expected_profiles[artist])
            assert profile.tobytes() == expected_profiles[artist].tobytes()


# Column kinds of every CSV artifact the pipeline writes: "s" text, "i"
# integer, "f" float, "f?" float or None.
PROFILE = ["i"] + ["f"] * 13
TABLE_LAYOUTS = {
    "artist_profiles.csv": PROFILE,
    "profiles_standardized.csv": PROFILE,
    "profiles_projected.csv": PROFILE[:6],
    "nodes.csv": ["i", "s", "s", "i"],
    "edges.csv": ["i", "i", "i", "f?"],
    "removed_edges.csv": ["i", "i", "i", "f?"],
    "centrality.csv": ["i", "s", "s", "f", "f", "f", "f", "i", "i", "i", "i"],
    "genre_clusters.csv": ["s", "i"],
    "debut_counts.csv": ["s", "i", "i"],
    "genre_influence_matrix.csv": ["s", "s", "f", "i"],
    "genre_year_means.csv": ["s", "i", "i"] + ["f"] * (len(FEATURES) - 1),
    "authenticity.csv": ["i", "f", "i", "f"],
    "revolution_labels.csv": ["i", "s", "s"],
}
# Text is any Unicode string, drawn so that the characters CSV treats
# specially (comma, quote, "\r", "\n") are common; NUL and non-ASCII text
# are included. Only surrogate code points (category Cs) are left out:
# they cannot be encoded as UTF-8, so no input file can hold them.
CELLS = {
    "s": st.text(st.sampled_from(list(',"\r\n ')) | st.characters(exclude_categories=["Cs"])),
    "i": st.integers(-2**63, 2**63 - 1),  # int columns read as int64 (2**63 is a bad cell)
    "f": st.floats(),
    "f?": st.none() | st.floats(),
}
PARSE = {"s": str, "i": int, "f": float, "f?": lambda cell: float(cell) if cell else None}


class TestTableCodec:
    @pytest.mark.parametrize("artifact", sorted(TABLE_LAYOUTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, artifact, data):
        kinds = TABLE_LAYOUTS[artifact]
        header = [f"col{i}" for i in range(len(kinds))]
        rows = data.draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / artifact
            write_table(path, header, rows)
            with open(path, newline="", encoding="utf-8") as fh:
                written_header = next(csv.reader(fh))
            cols = read_columns(path, {c: PARSE[k] for c, k in zip(header, kinds)})
            got = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols)))
        assert written_header == header
        # floats are compared by repr, so bit for bit, -0.0 and nan included
        exact = lambda row: tuple(repr(v) if isinstance(v, float) else v for v in row)
        assert [exact(row) for row in got] == [exact(row) for row in rows]

    def test_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["name", "x", "y"], [["a, b", 0.1, None], ['say "hi"\r', 1, 2.5]])
        assert path.read_bytes() == b'name,x,y\n"a, b",0.1,\n"say ""hi""\r",1,2.5\n'

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [])
        with pytest.raises(IngestError, match="'b'"):
            list(read_numbered(path, ["a", "b"]))

    def test_missing_cell_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c"], [[1, 2, 3], [4]])
        with pytest.raises(IngestError, match=r"t\.csv:3: missing c cell$"):
            read_columns(path, {"a": int, "c": int, "b": int})

    @pytest.mark.parametrize("cell", [str(2**63), str(-2**63 - 1)])
    def test_int_outside_int64_is_named(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[1, 2], [3, int(cell)]])
        with pytest.raises(IngestError, match=rf"t\.csv:3: bad b cell '{cell}'$"):
            read_columns(path, {"a": int, "b": int})

    def test_rejected_cell_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[1, 2], [3, "x"]])
        with pytest.raises(IngestError, match=r"t\.csv:3: bad b cell 'x'$"):
            read_columns(path, {"a": int, "b": int})


def numpy_rejects(path, kinds):
    raise ValueError("rejected")


class TestReadColumns:
    """numpy types a block of rows at a time; ROWS_PER_BLOCK is 3 here, so
    a table of a few rows spans several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "ROWS_PER_BLOCK", 3)

    def test_columns_span_blocks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + "".join(f"{k},x{k}\n\n" for k in range(7)), encoding="utf-8")
        b, a = read_columns(path, {"b": str, "a": int})
        assert b.tolist() == [f"x{k}" for k in range(7)]
        assert a.dtype == np.int64 and a.tolist() == list(range(7))

    def test_bad_cell_past_a_block_boundary_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[k, k] for k in range(4)] + [[4, "x"], [5, 5]])
        with pytest.raises(IngestError, match=r"t\.csv:6: bad b cell 'x'$"):
            read_columns(path, {"a": int, "b": int})

    def test_short_row_past_a_block_boundary_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[k, k] for k in range(6)] + [[6]])
        with pytest.raises(IngestError, match=r"t\.csv:8: missing b cell$"):
            read_columns(path, {"a": int, "b": int})

    @pytest.mark.parametrize("first, second", [(4, 5), (2, 5), (5, 4)])
    def test_first_of_two_bad_rows_is_named(self, tmp_path, first, second):
        rows = [[k, k] for k in range(7)]
        rows[first], rows[second] = [first, "x"], [second]
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], rows)
        message = "bad b cell 'x'" if first < second else "missing b cell"
        with pytest.raises(IngestError, match=rf"t\.csv:{min(first, second) + 2}: {message}$"):
            read_columns(path, {"a": int, "b": int})

    def test_bad_cell_is_named_before_a_later_long_row(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[0, 0], [1, 1], [2, 2], [3, "x"], [4, 4, 4]])
        with pytest.raises(IngestError, match=r"t\.csv:5: bad b cell 'x'$"):
            read_columns(path, {"a": int, "b": int})

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [])
        a, b = read_columns(path, {"a": int, "b": float})
        assert (a.dtype, a.shape, b.dtype, b.shape) == (np.int64, (0,), np.float64, (0,))


class TestReadColumnsByCsv(TestReadColumns):
    """The same tests on the csv module's path, which read_columns takes
    for a table numpy rejects."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "ROWS_PER_BLOCK", 3)
        monkeypatch.setattr(ingest, "_typed_blocks", numpy_rejects)


# Cells of the two-path property. Text mixes the characters the csv
# module or numpy's reader treat specially; numbers are ints and floats as
# write_table writes them and text that numpy reads as Python does (outer
# spaces, a sign, nan, inf, overflow to inf).
PARITY_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", " ", "#", "a", "Año", "東京"]),
                       max_size=4).map("".join) | st.characters(exclude_categories=["Cs"])
PARITY_NUMBERS = (st.integers(-2**63, 2**63 - 1).map(str) | st.floats().map(repr)
                  | st.sampled_from([" 5", "+5", "5 ", "-0", "nan", "-nan", "inf", "-Infinity", "1e400"]))
PARITY_KINDS = {"s": (str, PARITY_TEXT), "i": (int, PARITY_NUMBERS), "f": (float, PARITY_NUMBERS),
                "f?": (ingest.optional_float, PARITY_NUMBERS)}
# At most one cell per table that numpy rejects: (row, column, text).
PARITY_BAD = st.none() | st.tuples(st.integers(0, 6), st.integers(0, 3), st.sampled_from(
    ["1_000", "٣", "", "x", "5.0", "1e3", str(2**63), "#1"]))


class TestReadColumnsMatchesCsvPath:
    """read_columns, which takes numpy's path wherever numpy accepts a
    table, against the csv module's path alone (`ingest._read_rows`), on
    tables write_table writes with blank lines and a byte-order mark
    added: the same columns cell for cell (floats by their bits), or the
    same error."""

    @settings(max_examples=300, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(PARITY_KINDS)), min_size=1, max_size=4),
           bad=PARITY_BAD, resize=st.none() | st.tuples(st.integers(0, 6), st.sampled_from([-1, 1])),
           block=st.sampled_from([1, 2, 3, 256]), bom=st.booleans(), data=st.data())
    def test_same_columns_or_error(self, kinds, bad, resize, block, bom, data):
        header = [f"c{k}" for k in range(len(kinds))]
        rows = data.draw(st.lists(st.tuples(*(PARITY_KINDS[k][1] for k in kinds)).map(list), max_size=7))
        if bad is not None and bad[0] < len(rows) and bad[1] < len(kinds):
            rows[bad[0]][bad[1]] = bad[2]
        if resize is not None and resize[0] < len(rows):  # one row a cell short or long
            row = rows[resize[0]]
            rows[resize[0]] = row[:-1] if resize[1] < 0 else row + ["x"]
        order = data.draw(st.permutations(range(len(kinds))))
        columns = {header[k]: PARITY_KINDS[kinds[k]][0] for k in order[:data.draw(st.integers(0, len(order)))]}
        blank = data.draw(st.sets(st.integers(0, len(rows))))  # blank lines after these records
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "ROWS_PER_BLOCK", block)
            path = Path(tmp) / "t.csv"
            tables = []
            for k in range(len(rows) + 1):
                write_table(path, header, rows[:k])
                tables.append(path.read_bytes())
            path.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(
                table[len(before):] + b"\n" * (k in blank)
                for k, (before, table) in enumerate(zip([b""] + tables, tables))))
            for read in (read_columns, ingest._read_rows):
                try:
                    cols = read(path, columns)
                    outcomes.append([(c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in cols])
                except IngestError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


HEADER_NAMES = st.sampled_from(["a", "b", "c", "a b", "Año", 'say "x"'])
READ_CELLS = st.text(st.sampled_from(list(',"\r\n ')) | st.characters(exclude_categories=["Cs"]), max_size=5)


class TestReadNumberedMatchesDictReader:
    """read_numbered against csv.DictReader on tables write_table writes:
    awkward text, empty cells, blank lines (an empty row), short rows,
    rows longer than the header and a header that repeats a name."""

    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(HEADER_NAMES, min_size=1, max_size=4),
           rows=st.lists(st.lists(READ_CELLS, max_size=5), max_size=8), data=st.data())
    def test_same_cells_and_lines(self, header, rows, data):
        columns = data.draw(st.permutations(sorted(set(header))).flatmap(
            lambda names: st.integers(0, len(names)).map(lambda k: names[:k])))
        expected, got = [], []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_table(path, header, rows)
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                for row in reader:
                    if None in row:  # DictReader files the cells past the header under None
                        expected.append(("error", reader.line_num))
                        break
                    expected.append((reader.line_num, [row[c] for c in columns]))
            try:
                got.extend(read_numbered(path, columns))
            except IngestError as exc:
                got.append(("error", int(str(exc).rsplit(":", 2)[1])))
        assert got == expected
