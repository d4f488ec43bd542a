"""`dataio.load_records` against `reference.ingest_v0`, its dataclass-per-event predecessor.

Ingest now parses each events.csv row straight to `event_columns`' arguments,
and rows with the same four raw event fields share one checked, encoded event.
On every file below,
clean or faulty, it must do what the oracle does: build the same records
(order, ids, demographics, labels, sequence bytes and quiz responses in
insertion order) or raise an `IngestError` with the same text. The oracle
stores each record's `quiz_responses`; ingest's records keep none, so
`activity.quiz_responses` reads them off the ingested matrix. The oracle builds
float64 matrices and ingest uint8 ones, so the oracle's matrix is compared cast
to uint8 (exact for 0/1 cells, which is checked), and ingest's dtype must be
uint8. The faulty files are generated: each fault of `FAULTS` alone, pairs of
faults in one row or in two rows, faults in rows that the sequence cap drops,
one encoding fault in two rows that may share an event, and a changed
max_points in a row whose other event fields repeat an earlier row's.
"""

import csv
import os
import pathlib
import tempfile

import numpy as np
import pytest

from fedstudent.activity import quiz_responses
from fedstudent.dataio import (
    EVENT_HEADER,
    IngestError,
    load_records,
    write_events_csv,
    write_students_csv,
)
from fedstudent.synthgen import generate_cohort, load_cohort_spec
from reference import ingest_v0 as ref

EXAMPLE_SPEC = pathlib.Path(__file__).resolve().parents[1] / "examples_config" / "cohort.json"


def score_like_spec():
    """The example cohort with the benchmark's long-tailed lengths, at a small population."""
    spec = load_cohort_spec(str(EXAMPLE_SPEC))
    spec.quiz_videos = set(range(0, spec.n_videos, 2))  # leaves quizless videos too
    for profile in spec.profiles:
        profile.population = 20
        profile.length_dispersion = 0.5
    return spec


SPEC = score_like_spec()
RECORDS = generate_cohort(SPEC, seed=11)


def event_rows(records):
    """The rows `write_events_csv` emits for `records`, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))


def tied_rows(rows, seed=5):
    """`rows` shuffled across students, with few distinct timestamps and generic watches.

    Ties leave file order to break them. A quarter of the watch rows name the
    generic `watch` kind, which resolves from the outcome, and some blank rows
    are mixed in, which ingest skips.
    """
    rng = np.random.default_rng(seed)
    header, body = rows[0], [list(row) for row in rows[1:]]
    for row in body:
        row[1] = str(int(rng.integers(0, 4)))
        if row[2].startswith("watch") and rng.random() < 0.25:
            row[2] = "watch"
    body = [body[i] for i in rng.permutation(len(body))]
    for at in sorted(rng.choice(len(body), size=3, replace=False), reverse=True):
        body.insert(int(at), [])
    return [header] + body


CLEAN = event_rows(RECORDS)
TIED = tied_rows(CLEAN)


def as_uint8(matrix):
    """The oracle's float64 matrix as the one byte per cell records keep; exact for 0/1 cells."""
    stored = matrix.astype(np.uint8)
    assert np.array_equal(stored, matrix)
    return stored


def outcome(loader, events, students, cap, stored=lambda matrix: matrix,
            responses=lambda r: quiz_responses(r.sequence)):
    """What `loader` makes of the files: the error text, or every record in plain
    form, its matrix as `stored` gives it and its quiz responses as `responses` does."""
    kwargs = {} if cap is None else {"max_sequence": cap}
    try:
        records = loader(str(events), str(students), SPEC.n_videos, **kwargs)
    except IngestError as exc:
        return ("error", str(exc))
    matrices = [stored(r.sequence) for r in records]
    return ("records", [(r.student_id, r.demographics, r.label, m.shape, m.dtype.str,
                         m.tobytes(), list(responses(r).items())) for r, m in zip(records, matrices)])


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def assert_matches_oracle(tmp_path, rows, cap):
    events = tmp_path / "events.csv"
    students = tmp_path / "students.csv"
    write_rows(events, rows)
    write_students_csv(RECORDS, str(students))
    expected = outcome(ref.load_records, events, students, cap, as_uint8, lambda r: r.quiz_responses)
    assert outcome(load_records, events, students, cap) == expected
    return expected


@pytest.mark.parametrize("cap", [None, 1, 3], ids=["uncapped", "cap1", "cap3"])
@pytest.mark.parametrize("name", ["clean", "tied"])
def test_clean_files_load_as_the_oracle_does(tmp_path, name, cap):
    kind, records = assert_matches_oracle(tmp_path, CLEAN if name == "clean" else TIED, cap)
    assert kind == "records" and len(records) == len(RECORDS)
    if cap is not None:
        assert max(shape[0] for _, _, _, shape, _, _, _ in records) == cap


def _set(**fields):
    """A fault that overwrites named fields of a six-field row."""
    def apply(row):
        row = list(row)
        for name, value in fields.items():
            row[EVENT_HEADER.index(name)] = value
        return row
    return apply


# Row faults, each a function of the row it corrupts. video_out_of_range,
# video_negative and forum_with_outcome are caught only when an event is encoded
# (after the cap); points_without_max is not caught at all (a row without
# max_points has no outcome).
FAULTS = {
    "short_row": lambda row: row[:-1],
    "long_row": lambda row: row + [""],
    "unknown_kind": _set(kind="video_binge"),
    "timestamp_not_int": _set(timestamp="1.5"),
    "timestamp_blank": _set(timestamp=""),
    "points_not_number": _set(points="x", max_points="1.0"),
    "points_above_max": _set(points="2.0", max_points="1.0"),
    "points_negative": _set(points="-1.0", max_points="1.0"),
    "max_points_zero": _set(points="0.0", max_points="0"),
    "video_not_int": _set(video_index="1.5"),
    "watch_no_video": _set(kind="watch_noanswer", video_index=""),
    "generic_watch_no_video": _set(kind="watch", video_index=""),
    "forum_with_video": _set(kind="forum_view", video_index="0", points="", max_points=""),
    "unknown_student": _set(student_id="ghost"),
    "video_out_of_range": _set(kind="watch_noquiz", video_index=str(SPEC.n_videos)),
    "video_negative": _set(kind="watch_correct", video_index="-1"),
    "forum_with_outcome": _set(kind="forum_post", video_index="", points="1.0", max_points="1.0"),
    "points_nan": _set(kind="watch_correct", video_index="0", points="nan", max_points="1.0"),
    "points_without_max": _set(points="x", max_points=""),
}
CAUGHT_AFTER_CAP = ("video_out_of_range", "video_negative", "forum_with_outcome")
# Faults that change only max_points, for a row whose other three event fields
# repeat a row read before it (see `_repeated_fields_cases`).
REPEAT_FAULTS = {
    "max_points_above_points": _set(max_points="2.0"),
    "max_points_zero_only": _set(max_points="0"),
}


def _body_lines(rows):
    return [i for i in range(1, len(rows)) if rows[i]]


def _corrupt(rows, faults_at):
    rows = [list(row) for row in rows]
    for line, fault in faults_at:
        rows[line] = {**FAULTS, **REPEAT_FAULTS}[fault](rows[line])
    return rows


def _single_cases():
    rng = np.random.default_rng(17)
    lines = _body_lines(TIED)
    return [(f"{fault}-{cap}", [(int(rng.choice(lines)), fault)], cap, False)
            for fault in FAULTS for cap in (None, 3)]


def _pair_cases():
    rng = np.random.default_rng(23)
    lines = _body_lines(TIED)
    names = list(FAULTS)
    cases = []
    for i in range(24):
        first, second = (names[j] for j in rng.choice(len(names), size=2, replace=False))
        if i % 3 == 0:
            at = [int(rng.choice(lines))] * 2  # both faults in one row
        else:
            at = [int(line) for line in rng.choice(lines, size=2, replace=False)]
        cases.append((f"{first}+{second}-{i}", [(at[0], first), (at[1], second)], None, False))
    return cases


def _dropped_row_cases():
    """Each fault in the earliest row of a student whose sequence is longer than the cap.

    A fault caught only on encoding must then load without error.
    """
    per_student = {}
    for line in _body_lines(TIED):
        sid, ts = TIED[line][0], int(TIED[line][1])
        per_student.setdefault(sid, []).append((ts, line))
    cases = []
    for cap in (1, 3):
        long_ones = sorted(sid for sid, rows in per_student.items() if len(rows) > cap)
        for k, fault in enumerate(FAULTS):
            sid = long_ones[k % len(long_ones)]
            earliest = min(per_student[sid])[1]
            cases.append((f"{fault}-dropped-cap{cap}", [(earliest, fault)], cap, fault in CAUGHT_AFTER_CAP))
    return cases


def _shared_event_cases():
    """Each fault caught only on encoding, in two rows whose events can share one
    encoding, at caps None, 1 and 3.

    The rows are placed so that the row to blame at cap 3 is not the first of
    them in the file: the latest rows of two students, the one earlier in
    students.csv later in the file; the two latest rows of one student, the
    earlier in time later in the file; and a row the cap drops, ahead in the
    file of another student's latest row.
    """
    per_student = {}
    for line in _body_lines(TIED):
        per_student.setdefault(TIED[line][0], []).append((int(TIED[line][1]), line))
    in_time = [sorted(per_student[r.student_id]) for r in RECORDS if r.student_id in per_student]
    two_students = next([a[-1][1], b[-1][1]] for i, a in enumerate(in_time) for b in in_time[i + 1:]
                        if a[-1][1] > b[-1][1])
    one_student = next([rows[-2][1], rows[-1][1]] for rows in in_time
                       if len(rows) > 1 and rows[-2][1] > rows[-1][1])
    dropped = next([a[0][1], b[-1][1]] for a in in_time if len(a) > 3 for b in in_time
                   if b is not a and a[0][1] < b[-1][1])
    layouts = {"two_students": two_students, "one_student": one_student, "dropped": dropped}
    return [(f"{fault}-{layout}-{cap}", [(line, fault) for line in lines], cap, False)
            for fault in CAUGHT_AFTER_CAP for layout, lines in layouts.items() for cap in (None, 1, 3)]


def _repeated_fields_cases():
    """Each of `REPEAT_FAULTS` in the first watch_correct row whose four event fields
    repeat an earlier row's, so that its kind, video_index and points match a row
    already read and only max_points differs: it must load as a wrong answer, or
    fail rule 3. The cases above already put a fault in rows whose fields repeat an
    earlier row's (timestamp_not_int, unknown_student), in a row the cap drops
    (their -dropped- cases), and an encoding fault in a dropped row ahead of a kept
    one (the -dropped- layout of `_shared_event_cases`).
    """
    seen = set()
    for line in _body_lines(TIED):
        fields = tuple(TIED[line][2:])
        if fields[0] == "watch_correct" and fields in seen:
            break
        seen.add(fields)
    return [(f"{fault}-repeated-fields", [(line, fault)], None, fault == "max_points_above_points")
            for fault in REPEAT_FAULTS]


CASES = (_single_cases() + _pair_cases() + _dropped_row_cases() + _shared_event_cases()
         + _repeated_fields_cases())


@pytest.mark.parametrize("faults_at, cap, must_load", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_faulty_files_fail_or_load_as_the_oracle_does(tmp_path, faults_at, cap, must_load):
    kind, _ = assert_matches_oracle(tmp_path, _corrupt(TIED, faults_at), cap)
    assert kind == "records" or not must_load
