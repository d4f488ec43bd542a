import csv
import io
import pickle
import re

import numpy as np
import pytest

from fedstudent.activity import KIND_SLOT, ActivityKind, quiz_responses
from fedstudent.dataio import (
    IngestError,
    load_records,
    read_students_csv,
    write_events_csv,
    write_students_csv,
    write_vector_csv,
)
from fedstudent.synthgen import CohortSpec, SubgroupProfile, generate_cohort, uniform_transition

N_VIDEOS = 4


def cohort():
    profile = SubgroupProfile(
        name="M", population=12, transition=uniform_transition(),
        video_access=np.full(N_VIDEOS, 0.25), quiz_correct_prob=0.5,
        length_mean=8.0, pass_intercept=0.0, pass_weight_correct=1.0,
    )
    spec = CohortSpec(n_videos=N_VIDEOS, quiz_videos={0, 1}, profiles=[profile])
    return spec, generate_cohort(spec, seed=4)


class TestRoundTrip:
    def test_records_survive_write_read(self, tmp_path):
        spec, records = cohort()
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        write_events_csv(records, str(events))
        write_students_csv(records, str(students))
        loaded = load_records(str(events), str(students), N_VIDEOS)
        assert len(loaded) == len(records)
        by_id = {r.student_id: r for r in loaded}
        for original in records:
            restored = by_id[original.student_id]
            assert restored.label == original.label
            assert restored.length == original.length
            assert quiz_responses(restored.sequence) == quiz_responses(original.sequence)
            for a, b in zip(original.sequence, restored.sequence):
                assert np.array_equal(a, b)

    def test_loaded_sequences_are_uint8_zero_one_matrices(self, tmp_path):
        _, records = cohort()
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        write_events_csv(records, str(events))
        write_students_csv(records, str(students))
        loaded = load_records(str(events), str(students), N_VIDEOS)
        for record in loaded:
            assert record.sequence.dtype == np.uint8
            assert record.sequence.shape[1] == N_VIDEOS + 7
            assert set(np.unique(record.sequence)) <= {0, 1}

    def test_sequence_cap_keeps_most_recent(self, tmp_path):
        spec, records = cohort()
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        write_events_csv(records, str(events))
        write_students_csv(records, str(students))
        capped = load_records(str(events), str(students), N_VIDEOS, max_sequence=3)
        by_id = {r.student_id: r for r in records}
        for r in capped:
            assert r.length <= 3
            original = by_id[r.student_id]
            tail = original.sequence[-r.length:]
            for a, b in zip(tail, r.sequence):
                assert np.array_equal(a, b)


def load_events(tmp_path, events_text, **options):
    """The records `load_records` builds, with `options`, from `events_text` and a
    one-student table (s1)."""
    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    events.write_text(events_text)
    students.write_text("student_id,gender,continent,birth_year,label\ns1,,,,1\n")
    return load_records(str(events), str(students), N_VIDEOS, **options)


class TestReaders:
    def test_bad_event_header_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="header"):
            load_events(tmp_path, "wrong,header\n")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="video_binge"):
            load_events(tmp_path,
                        "student_id,timestamp,kind,video_index,points,max_points\n"
                        "s1,0,video_binge,0,,\n")

    def test_generic_watch_resolved_by_outcome(self, tmp_path):
        [record] = load_events(tmp_path,
                               "student_id,timestamp,kind,video_index,points,max_points\n"
                               "s1,0,watch,1,1.0,1.0\n"
                               "s1,1,watch,2,,\n")
        slots = [int(row[N_VIDEOS:].argmax()) for row in record.sequence]
        assert slots == [KIND_SLOT[ActivityKind.WATCH_CORRECT], KIND_SLOT[ActivityKind.WATCH_NOQUIZ]]
        assert quiz_responses(record.sequence) == {1: 1}

    def test_a_row_the_cap_drops_leaves_no_response(self, tmp_path):
        text = ("student_id,timestamp,kind,video_index,points,max_points\n"
                "s1,0,watch_correct,3,1.0,1.0\n"
                "s1,1,watch_incorrect,1,0.0,1.0\n"
                "s1,2,watch_correct,1,1.0,1.0\n"
                "s1,3,forum_post,,,\n")
        [whole] = load_events(tmp_path, text)
        [capped] = load_events(tmp_path, text, max_sequence=3)
        assert list(quiz_responses(whole.sequence).items()) == [(3, 1), (1, 0)]
        assert list(quiz_responses(capped.sequence).items()) == [(1, 0)]

    def test_student_table_parses_blanks_as_unspecified(self, tmp_path):
        path = tmp_path / "students.csv"
        path.write_text(
            "student_id,gender,continent,birth_year,label\n"
            "s1,M,,1985,1\n"
            "s2,,,,0\n"
        )
        table = read_students_csv(str(path))
        assert table["s1"][0].gender == "M"
        assert table["s1"][0].birth_year == 1985
        assert table["s2"][0].gender is None
        assert table["s2"][1] == 0

    def test_event_for_unknown_student_rejected(self, tmp_path):
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        events.write_text(
            "student_id,timestamp,kind,video_index,points,max_points\n"
            "ghost,0,forum_view,,,\n"
        )
        students.write_text("student_id,gender,continent,birth_year,label\n")
        with pytest.raises(IngestError, match="ghost"):
            load_records(str(events), str(students), N_VIDEOS)

    def test_tie_timestamps_keep_file_order(self, tmp_path):
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        events.write_text(
            "student_id,timestamp,kind,video_index,points,max_points\n"
            "s1,5,forum_view,,,\n"
            "s1,5,forum_post,,,\n"
            "s1,5,forum_reply,,,\n"
        )
        students.write_text("student_id,gender,continent,birth_year,label\ns1,,,,1\n")
        [record] = load_records(str(events), str(students), N_VIDEOS)
        slots = [int(row[N_VIDEOS:].argmax()) for row in record.sequence]
        assert slots == [6, 4, 5]  # view, post, reply in file order


EVENTS_HEAD = "student_id,timestamp,kind,video_index,points,max_points\ns1,0,forum_view,,,\n"
STUDENTS_HEAD = "student_id,gender,continent,birth_year,label\ns1,,,,1\n"


# One row per class of malformed field: (events.csv line 3, students.csv line 3,
# the file that is at fault, the message after `path:line: `).
@pytest.mark.parametrize("event_row, student_row, bad_file, message", [
    ("s2,0,watch_correct,1,x,1", "s2,,,,0", "events", "could not convert string to float: 'x'"),
    ("s2,0,watch_correct,1,2,1", "s2,,,,0", "events", "points must lie in [0, 1.0], got 2.0"),
    ("s2,0,watch_correct,1,0,0", "s2,,,,0", "events", "max_points must be positive, got 0.0"),
    ("s2,0,watch_correct,1,nan,1", "s2,,,,0", "events",
     "points and max_points must be finite, got nan and 1.0"),
    ("s2,0,watch_correct,1,1,inf", "s2,,,,0", "events",
     "points and max_points must be finite, got 1.0 and inf"),
    ("s2,0,watch_correct,1,inf,inf", "s2,,,,0", "events",
     "points and max_points must be finite, got inf and inf"),
    ("s2,0,watch_noquiz,1.5,,", "s2,,,,0", "events", "invalid literal for int() with base 10: '1.5'"),
    ("s2,0,watch_noquiz,9,,", "s2,,,,0", "events", "video_index 9 out of range [0, 4)"),
    ("s2,0,watch_correct,,1,1", "s2,,,,0", "events", "watch_correct event requires a video_index"),
    ("s2,0,forum_post,1,,", "s2,,,,0", "events", "forum_post event must not carry a video_index"),
    ("s2,0,forum_post,,1,1", "s2,,,,0", "events", "quiz outcome supplied for a forum_post event"),
    ("s2,0,forum_view,,", "s2,,,,0", "events", "expected 6 fields"),
    ("s2,0,video_binge,,,", "s2,,,,0", "events", "unknown activity kind 'video_binge'"),
    ("s2,1.5,forum_view,,,", "s2,,,,0", "events", "invalid literal for int() with base 10: '1.5'"),
    ("s2,0,forum_view,,,", "s2,,,,2", "students", "label must be 0 or 1, got 2"),
    ("s2,0,forum_view,,,", "s1,F,,,0", "students", "student_id 's1' repeats line 2"),
    ("ghost,0,forum_view,,,", "s2,,,,0", "events", "event for unknown student 'ghost'"),
], ids=["points", "points_above_max", "max_points_zero", "points_nan", "max_points_inf",
        "points_and_max_inf", "video_not_int", "video_out_of_range", "watch_no_video",
        "forum_with_video", "forum_with_outcome", "field_count", "unknown_kind",
        "timestamp_not_int", "label", "duplicate_student", "unknown_student"])
def test_malformed_row_names_file_and_line(tmp_path, event_row, student_row, bad_file, message):
    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    events.write_text(EVENTS_HEAD + event_row + "\n")
    students.write_text(STUDENTS_HEAD + student_row + "\n")
    bad = events if bad_file == "events" else students
    with pytest.raises(IngestError) as info:
        load_records(str(events), str(students), N_VIDEOS)
    assert str(info.value) == f"{bad}:3: {message}"


# A field over the csv module's 131,072-character limit: the reader cannot parse its record.
HUGE = "x" * 200_000


@pytest.mark.parametrize("line", [2, 4])
@pytest.mark.parametrize("bad_file", ["students", "events"])
def test_unparseable_record_names_its_own_line(tmp_path, bad_file, line):
    """Line 2 is the first record after the header, and is blamed as such, as any later line is."""
    students_rows = ["s1,,,,1", "s2,,,,0", "s3,,,,1"]
    event_rows = ["s1,0,forum_view,,,", "s2,0,forum_post,,,", "s3,0,forum_reply,,,"]
    rows = students_rows if bad_file == "students" else event_rows
    rows[line - 2] = f"s1,{HUGE},forum_view,,,"
    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    events.write_text("student_id,timestamp,kind,video_index,points,max_points\n" + "\n".join(event_rows) + "\n")
    students.write_text("student_id,gender,continent,birth_year,label\n" + "\n".join(students_rows) + "\n")
    bad = events if bad_file == "events" else students
    expected = f"{bad}:{line}: field larger than field limit (131072)"
    if bad_file == "students":
        with pytest.raises(IngestError) as info:
            read_students_csv(str(students))
        assert str(info.value) == expected
    with pytest.raises(IngestError) as info:
        load_records(str(events), str(students), N_VIDEOS)
    assert str(info.value) == expected


def test_rows_with_one_video_slot_and_score_share_one_encoding(tmp_path, monkeypatch):
    """On the score-like file, which writes each (video, slot, score) with one set of
    four raw event fields, `event_columns` runs once per distinct triple, however
    many rows carry it, and the records are the same as uncounted."""
    from test_ingest_equivalence import CLEAN, RECORDS, SPEC, write_rows

    import fedstudent.dataio as dataio

    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    write_rows(events, CLEAN)
    write_students_csv(RECORDS, str(students))
    expected = load_records(str(events), str(students), SPEC.n_videos)
    calls = []
    encode = dataio.event_columns

    def counted(slot, video, score, n_videos):
        calls.append((video, slot, score))
        return encode(slot, video, score, n_videos)

    monkeypatch.setattr(dataio, "event_columns", counted)
    loaded = load_records(str(events), str(students), SPEC.n_videos)

    triples = set()
    for _, _, kind, video, points, max_points in CLEAN[1:]:
        score = int(points == max_points) if points != "" and max_points != "" else None
        triples.add((int(video) if video != "" else None, KIND_SLOT[ActivityKind(kind)], score))
    assert sorted(calls, key=repr) == sorted(triples, key=repr)
    assert len(calls) < len(CLEAN) - 1 == sum(r.length for r in loaded)
    assert [(r.student_id, r.sequence.tobytes(), quiz_responses(r.sequence)) for r in loaded] == \
        [(r.student_id, r.sequence.tobytes(), quiz_responses(r.sequence)) for r in expected]


def _score_like_files(tmp_path, rows):
    from test_ingest_equivalence import RECORDS, write_rows

    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    write_rows(events, rows)
    write_students_csv(RECORDS, str(students))
    return str(events), str(students)


def test_rules_two_to_four_run_once_per_distinct_event_fields(tmp_path, monkeypatch):
    """On the score-like file with generic watches, the kind lookup (rule 2) and the
    outcome check (rule 3) run once per distinct (kind, video_index, points,
    max_points), however many rows carry it, and the records are the same as unwatched."""
    from test_ingest_equivalence import SPEC, TIED

    import fedstudent.dataio as dataio

    events, students = _score_like_files(tmp_path, TIED)
    expected = load_records(events, students, SPEC.n_videos)
    lookups, scored = [], []

    class CountedSlots(dict):
        def get(self, kind, default=None):
            lookups.append(kind)
            return super().get(kind, default)

        def __getitem__(self, kind):
            lookups.append(kind)
            return super().__getitem__(kind)

    first_attempt = dataio.score_first_attempt

    def counted(points, max_points):
        scored.append((points, max_points))
        return first_attempt(points, max_points)

    monkeypatch.setattr(dataio, "_SLOT_OF", CountedSlots(dataio._SLOT_OF))
    monkeypatch.setattr(dataio, "score_first_attempt", counted)
    loaded = load_records(events, students, SPEC.n_videos)

    fields = {tuple(row[2:]) for row in TIED[1:] if row}
    with_outcome = {f for f in fields if f[2] != "" and f[3] != ""}
    assert len(lookups) == len(fields) < sum(1 for row in TIED[1:] if row)
    assert len(scored) == len(with_outcome)
    assert [(r.student_id, r.sequence.tobytes()) for r in loaded] == \
        [(r.student_id, r.sequence.tobytes()) for r in expected]


def test_one_demographics_per_distinct_raw_triple(tmp_path, monkeypatch):
    """students.csv rows with the same raw (gender, continent, birth_year) share one
    `Demographics`, built once; the values are the same as unwatched."""
    from test_ingest_equivalence import CLEAN

    import fedstudent.dataio as dataio

    _, students = _score_like_files(tmp_path, CLEAN)
    expected = read_students_csv(students)
    built = []
    make = dataio.Demographics

    def counted(**fields):
        built.append(fields)
        return make(**fields)

    monkeypatch.setattr(dataio, "Demographics", counted)
    table = read_students_csv(students)
    with open(students, newline="", encoding="utf-8") as fh:
        triples = {tuple(row[1:4]) for row in list(csv.reader(fh))[1:]}
    assert len(built) == len(triples) < len(table)
    assert table == expected
    assert len({id(demo) for demo, _ in table.values()}) == len(triples)


def test_build_subgroups_makes_one_key_per_tag(monkeypatch):
    """`build_subgroups` makes one `SubgroupKey` per group tag, however many records
    it files, and its groups are the same as unwatched."""
    import fedstudent.splits as splits
    from test_ingest_equivalence import RECORDS

    expected = splits.build_subgroups(RECORDS, "G", True)
    made = []
    key = splits.SubgroupKey

    def counted(variable, group):
        made.append(group)
        return key(variable, group)

    monkeypatch.setattr(splits, "SubgroupKey", counted)
    groups = splits.build_subgroups(RECORDS, "G", True)
    assert sorted(made) == sorted([*splits.canonical_groups("G"), "unspecified"])
    assert groups == expected and len(RECORDS) > len(made)


def test_ingested_matrices_behave_as_owned_ones(tmp_path):
    """Each ingested matrix is a C-contiguous uint8 (L, n_videos + 7) array that shares
    no cell with another record's, and a pickle round trip (how `--jobs` ships
    records where processes cannot fork) gives the same shape and bytes."""
    from test_ingest_equivalence import CLEAN, SPEC

    events, students = _score_like_files(tmp_path, CLEAN)
    loaded = load_records(events, students, SPEC.n_videos)
    for record in loaded:
        sequence = record.sequence
        assert sequence.flags.c_contiguous and sequence.dtype == np.uint8
        assert sequence.shape == (record.length, SPEC.n_videos + 7)
    assert not any(np.shares_memory(a.sequence, b.sequence) for a, b in zip(loaded, loaded[1:]))
    copies = pickle.loads(pickle.dumps(loaded))
    assert [(r.sequence.shape, r.sequence.dtype, r.sequence.tobytes()) for r in copies] == \
        [(r.sequence.shape, r.sequence.dtype, r.sequence.tobytes()) for r in loaded]
    assert all(r.sequence.flags.c_contiguous for r in copies)


# Text cells the csv module must quote, or write bare, and floats whose text is
# easy to get wrong.
VECTOR_CELLS = [["s1", "G:F"], ["a,b", 'say "hi"'], ["one\ntwo", "cr\ronly"], ["crlf\r\nend", "x"],
                ["", ""], [""], [" leading", "non-ASCII: é ✓"], ['"', ","]]
ODD_FLOATS = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300, 0.1 + 0.2]


@pytest.mark.parametrize("cells", VECTOR_CELLS, ids=repr)
def test_vector_rows_are_the_csv_module_bytes(tmp_path, cells):
    """Each row is what `csv.writer(...).writerow([*cells, *floats])` writes in this interpreter."""
    vectors = [np.array(ODD_FLOATS), np.array([1.5]), np.random.default_rng(3).normal(size=24)]
    header = ["student_id", "subgroup", "h_1"]
    path = tmp_path / "vectors.csv"
    write_vector_csv(str(path), header, [(cells, vector) for vector in vectors])
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    for vector in vectors:
        writer.writerow([*cells, *vector.tolist()])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
