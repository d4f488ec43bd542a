import numpy as np
import pytest

from fedstudent.activity import (
    KIND_SLOT,
    ActivityKind,
    Demographics,
    EncodingError,
    StudentRecord,
    demographic_group,
    event_columns,
    score_first_attempt,
    year_band,
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


class TestDemographics:
    def test_year_bands(self):
        assert year_band(1980) == "le1980"
        assert year_band(1981) == "1981to1990"
        assert year_band(1990) == "1981to1990"
        assert year_band(1991) == "gt1990"

    def test_group_lookup(self):
        demo = Demographics(gender="F", continent="EU", birth_year=1985)
        assert demographic_group(demo, "G") == "F"
        assert demographic_group(demo, "C") == "EU"
        assert demographic_group(demo, "Y") == "1981to1990"
        assert demographic_group(Demographics(), "G") is None

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            Demographics(gender="X")
        with pytest.raises(ValueError):
            Demographics(continent="OC")


class TestStudentRecord:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            StudentRecord("s", Demographics(), sequence=np.zeros((0, 11)), label=0)

    def test_length(self):
        row = encode(ActivityKind.FORUM_VIEW, None, None, 4)
        rec = StudentRecord("s", Demographics(), sequence=np.stack([row, row]), label=1)
        assert rec.length == 2
