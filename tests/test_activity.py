import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

from fedstudent.activity import (
    DEMOGRAPHIC_VARIABLES,
    KIND_SLOT,
    ActivityKind,
    Demographics,
    EncodingError,
    StudentRecord,
    activity_matrix,
    demographic_variable,
    event_columns,
    quiz_responses,
    row_events,
    score_first_attempt,
)


class TestScoreFirstAttempt:
    def test_full_credit(self):
        assert score_first_attempt(1, 1) == 1

    def test_zero_credit(self):
        assert score_first_attempt(0, 1) == 0

    def test_partial_credit_is_not_full_credit(self):
        assert score_first_attempt(0.5, 1) == 0

    def test_points_above_max_rejected(self):
        with pytest.raises(ValueError):
            score_first_attempt(2, 1)

    def test_nonpositive_max_rejected(self):
        with pytest.raises(ValueError):
            score_first_attempt(0, 0)


def columns(kind, video, score, n_videos):
    """`event_columns` for an `ActivityKind`."""
    return event_columns(KIND_SLOT[kind], video, score, n_videos)


def encode(kind, video, score, n_videos):
    """The one-hot row `event_columns` describes."""
    row = np.zeros(n_videos + 7)
    row[list(columns(kind, video, score, n_videos))] = 1.0
    return row


class TestEncodeEvent:
    def test_watch_correct_layout(self):
        score = score_first_attempt(1, 1)
        assert columns(ActivityKind.WATCH_CORRECT, 2, score, n_videos=5) == (2, 6)
        assert encode(ActivityKind.WATCH_CORRECT, 2, score, 5).tolist() == [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_forum_view_zeroes_video_halves(self):
        assert columns(ActivityKind.FORUM_VIEW, None, None, n_videos=5) == (11,)
        assert encode(ActivityKind.FORUM_VIEW, None, None, 5).tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_width_is_n_plus_seven(self):
        # The first video and the last activity slot bound the n + 7 columns.
        assert columns(ActivityKind.WATCH_NOQUIZ, 0, None, n_videos=43) == (0, 43)
        assert columns(ActivityKind.FORUM_VIEW, None, None, n_videos=43) == (49,)

    def test_outcome_resolves_watch_kind(self):
        score = score_first_attempt(0, 2)
        # incorrect slot is the third activity-type position
        assert columns(ActivityKind.WATCH_NOQUIZ, 1, score, n_videos=3) == (1, 3 + 2)

    def test_noanswer_kept_without_outcome(self):
        assert columns(ActivityKind.WATCH_NOANSWER, 1, None, n_videos=3) == (1, 3 + 3)

    def test_video_index_out_of_range(self):
        with pytest.raises(EncodingError, match="video_index 7"):
            columns(ActivityKind.WATCH_NOQUIZ, 7, None, n_videos=5)
        with pytest.raises(EncodingError):
            columns(ActivityKind.WATCH_NOQUIZ, -1, None, n_videos=5)

    def test_outcome_for_forum_event_rejected(self):
        score = score_first_attempt(1, 1)
        with pytest.raises(EncodingError, match="forum_post"):
            columns(ActivityKind.FORUM_POST, None, score, n_videos=5)

    def test_set_bit_counts(self):
        rng = np.random.default_rng(0)
        n = 6
        for _ in range(50):
            if rng.random() < 0.5:
                kind = ActivityKind(list(ActivityKind)[rng.integers(0, 4)])
                has_outcome = kind not in (ActivityKind.WATCH_NOQUIZ, ActivityKind.WATCH_NOANSWER)
                score = score_first_attempt(float(rng.integers(0, 2)), 1) if has_outcome else None
                row = encode(kind, int(rng.integers(0, n)), score, n)
                assert row[:n].sum() == 1
                assert row[n:].sum() == 1
                assert row.sum() == 2
            else:
                kind = ActivityKind(list(ActivityKind)[4 + rng.integers(0, 3)])
                row = encode(kind, None, None, n)
                assert row[:n].sum() == 0
                assert row.sum() == 1


def matrix_of(events, n_videos=5):
    """The uint8 activity matrix of `events`, each a (kind, video, first-attempt score)."""
    hot_counts, hot_cols = [], []
    for kind, video, score in events:
        cols = columns(kind, video, score, n_videos)
        hot_counts.append(len(cols))
        hot_cols += cols
    [matrix] = activity_matrix([len(events)], n_videos, hot_counts, hot_cols)
    return matrix


K = ActivityKind
MIXED = [
    (K.WATCH_CORRECT, 3, 1),
    (K.FORUM_POST, None, None),
    (K.WATCH_INCORRECT, 0, 0),
    (K.WATCH_CORRECT, 3, 0),       # a second attempt at video 3 is not its first
    (K.WATCH_NOANSWER, 1, None),
    (K.WATCH_NOQUIZ, 4, None),
    (K.FORUM_VIEW, None, None),
    (K.WATCH_CORRECT, 0, 1),       # nor at video 0
    (K.FORUM_REPLY, None, None),
    (K.WATCH_CORRECT, 2, 1),
]


class TestActivityMatrix:
    def test_many_records_in_one_call_match_one_call_each(self):
        """One call over several records gives each the matrix a call of its own gives,
        as a C-contiguous view of one stacked array, in record order."""
        records = [MIXED[:3], MIXED[3:4], MIXED, MIXED[::-1][:6]]
        hot_counts, hot_cols = [], []
        for events in records:
            for kind, video, score in events:
                cols = columns(kind, video, score, 5)
                hot_counts.append(len(cols))
                hot_cols += cols
        matrices = activity_matrix([len(events) for events in records], 5, hot_counts, hot_cols)
        assert len(matrices) == len(records)
        for matrix, events in zip(matrices, records):
            alone = matrix_of(events)
            assert matrix.dtype == alone.dtype == np.uint8 and matrix.flags.c_contiguous
            assert matrix.shape == alone.shape and np.array_equal(matrix, alone)
        assert all(m.base is matrices[0].base for m in matrices)


class TestRowEvents:
    def test_decodes_each_rows_slot_and_video(self):
        slots, videos = row_events(matrix_of(MIXED))
        # A watch with a score resolves to correct or incorrect by the score.
        assert slots.tolist() == [1, 4, 2, 2, 3, 0, 6, 1, 5, 1]
        assert videos.tolist() == [3, -1, 0, 3, 1, 4, -1, 0, -1, 2]

    def test_inverts_every_encodable_event(self):
        n_videos = 3
        for kind in ActivityKind:
            watch = KIND_SLOT[kind] < 4
            for video in (range(n_videos) if watch else [None]):
                for score in ((None, 0, 1) if watch else [None]):
                    cols = columns(kind, video, score, n_videos)
                    slots, videos = row_events(matrix_of([(kind, video, score)], n_videos))
                    assert slots.tolist() == [cols[-1] - n_videos]
                    assert videos.tolist() == [video if watch else -1]


class TestQuizResponses:
    def test_first_scored_row_of_each_video_in_row_order(self):
        responses = quiz_responses(matrix_of(MIXED))
        assert list(responses.items()) == [(3, 1), (0, 0), (2, 1)]

    def test_unscored_watches_and_forum_rows_add_none(self):
        events = [(K.WATCH_NOANSWER, 1, None), (K.WATCH_NOQUIZ, 2, None),
                  (K.FORUM_POST, None, None), (K.FORUM_REPLY, None, None), (K.FORUM_VIEW, None, None)]
        assert quiz_responses(matrix_of(events)) == {}
        assert quiz_responses(matrix_of(events + [(K.WATCH_NOQUIZ, 1, 0)])) == {1: 0}

    def test_float64_copy_gives_the_same_results(self):
        matrix = matrix_of(MIXED)
        for got, want in zip(row_events(matrix.astype(np.float64)), row_events(matrix)):
            assert np.array_equal(got, want)
        assert list(quiz_responses(matrix.astype(np.float64)).items()) == list(quiz_responses(matrix).items())


class TestDemographics:
    def test_year_bands(self):
        year = DEMOGRAPHIC_VARIABLES["Y"]
        assert year.group(Demographics(birth_year=1980)) == "le1980"
        assert year.group(Demographics(birth_year=1981)) == "1981to1990"
        assert year.group(Demographics(birth_year=1990)) == "1981to1990"
        assert year.group(Demographics(birth_year=1991)) == "gt1990"

    def test_group_lookup(self):
        demo = Demographics(gender="F", continent="EU", birth_year=1985)
        assert DEMOGRAPHIC_VARIABLES["G"].group(demo) == "F"
        assert DEMOGRAPHIC_VARIABLES["C"].group(demo) == "EU"
        assert DEMOGRAPHIC_VARIABLES["Y"].group(demo) == "1981to1990"
        assert DEMOGRAPHIC_VARIABLES["G"].group(Demographics()) is None

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            Demographics(gender="X")
        with pytest.raises(ValueError):
            Demographics(continent="OC")

    def test_error_texts_name_the_tag_or_variable(self):
        with pytest.raises(ValueError, match="^unknown gender tag 'X'$"):
            Demographics(gender="X")
        with pytest.raises(ValueError, match="^unknown continent tag 'OC'$"):
            Demographics(continent="OC")
        unknown = re.escape("unknown demographic variable 'Z', expected one of ('G', 'C', 'Y')")
        with pytest.raises(ValueError, match=f"^{unknown}$"):
            demographic_variable("Z").group(Demographics())
        with pytest.raises(ValueError, match=f"^{unknown}$"):
            demographic_variable("Z").tags


def test_only_activity_compares_with_a_variable_letter():
    """No module but `activity.py` compares a value with "G", "C" or "Y": the variable
    table there is the one place that says what each letter means."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    comparers = {
        path.name for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in ("G", "C", "Y")
    }
    assert comparers <= {"activity.py"}


class TestStudentRecord:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            StudentRecord("s", Demographics(), sequence=np.zeros((0, 11)), label=0)

    def test_length(self):
        row = encode(ActivityKind.FORUM_VIEW, None, None, 4)
        rec = StudentRecord("s", Demographics(), sequence=np.stack([row, row]), label=1)
        assert rec.length == 2

    def test_stores_four_fields(self):
        assert [f.name for f in dataclasses.fields(StudentRecord)] == \
            ["student_id", "demographics", "sequence", "label"]
