import numpy as np
import pytest

from fedstudent.activity import (
    ActivityEvent,
    ActivityKind,
    Demographics,
    EncodingError,
    QuizOutcome,
    StudentRecord,
    demographic_group,
    encode_event,
    score_first_attempt,
    year_band,
)


def watch(kind, video, sid="s1", ts=0):
    return ActivityEvent(student_id=sid, timestamp=ts, kind=kind, video_index=video)


def forum(kind, sid="s1", ts=0):
    return ActivityEvent(student_id=sid, timestamp=ts, kind=kind)


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


class TestEncodeEvent:
    def test_watch_correct_layout(self):
        enc = encode_event(watch(ActivityKind.WATCH_CORRECT, 2), QuizOutcome(1, 1), n_videos=5)
        assert enc.bits.tolist() == [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_forum_view_zeroes_video_halves(self):
        enc = encode_event(forum(ActivityKind.FORUM_VIEW), None, n_videos=5)
        assert enc.bits.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_width_is_n_plus_seven(self):
        enc = encode_event(watch(ActivityKind.WATCH_NOQUIZ, 0), None, n_videos=43)
        assert enc.bits.shape == (50,)

    def test_outcome_resolves_watch_kind(self):
        enc = encode_event(watch(ActivityKind.WATCH_NOQUIZ, 1), QuizOutcome(0, 2), n_videos=3)
        # incorrect slot is the third activity-type position
        assert enc.bits[3 + 2] == 1.0

    def test_noanswer_kept_without_outcome(self):
        enc = encode_event(watch(ActivityKind.WATCH_NOANSWER, 1), None, n_videos=3)
        assert enc.bits[3 + 3] == 1.0

    def test_video_index_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_event(watch(ActivityKind.WATCH_NOQUIZ, 7), None, n_videos=5)

    def test_outcome_for_forum_event_rejected(self):
        with pytest.raises(EncodingError):
            encode_event(forum(ActivityKind.FORUM_POST), QuizOutcome(1, 1), n_videos=5)

    def test_set_bit_counts(self):
        rng = np.random.default_rng(0)
        n = 6
        for _ in range(50):
            if rng.random() < 0.5:
                kind = ActivityKind(list(ActivityKind)[rng.integers(0, 4)])
                has_outcome = kind not in (ActivityKind.WATCH_NOQUIZ, ActivityKind.WATCH_NOANSWER)
                outcome = QuizOutcome(float(rng.integers(0, 2)), 1) if has_outcome else None
                enc = encode_event(watch(kind, int(rng.integers(0, n))), outcome, n)
                assert enc.bits[:n].sum() == 1
                assert enc.bits[n:].sum() == 1
                assert enc.bits.sum() == 2
            else:
                kind = ActivityKind(list(ActivityKind)[4 + rng.integers(0, 3)])
                enc = encode_event(forum(kind), None, n)
                assert enc.bits[:n].sum() == 0
                assert enc.bits.sum() == 1


class TestEventValidation:
    def test_watch_requires_video(self):
        with pytest.raises(ValueError):
            ActivityEvent("s", 0, ActivityKind.WATCH_CORRECT)

    def test_forum_forbids_video(self):
        with pytest.raises(ValueError):
            ActivityEvent("s", 0, ActivityKind.FORUM_POST, video_index=1)


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
        enc = encode_event(forum(ActivityKind.FORUM_VIEW), None, 4)
        rec = StudentRecord("s", Demographics(), sequence=np.stack([enc.bits, enc.bits]), label=1)
        assert rec.length == 2
