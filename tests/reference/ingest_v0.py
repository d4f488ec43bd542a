"""CSV event ingest, as it was when every row became an `ActivityEvent`.

Kept as a test oracle. Each events.csv row is parsed into a frozen
`ActivityEvent` and an optional `QuizOutcome`, whose constructors check the
row; `load_records` then encodes each student's capped sequence event by event
with `event_columns`, which took an `ActivityKind` then. The package's ingest
must build the same records and raise the same `IngestError` text. The two
dataclasses are frozen here and also serve `synthgen_v0`. So is the header
check, whose message the package's reader has since extended with line 1, and
`StudentRecord` as it was when it also stored each student's `quiz_responses`,
which the package now reads off the sequence.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from fedstudent.activity import (
    DEFAULT_MAX_SEQUENCE,
    FORUM_KINDS,
    KIND_SLOT,
    N_KINDS,
    WATCH_KINDS,
    ActivityKind,
    Demographics,
    EncodingError,
    score_first_attempt,
)
from fedstudent.dataio import EVENT_HEADER, IngestError, read_students_csv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudentRecord:
    """One student as records were built then: five fields, the first-attempt quiz
    score of each quiz video stored beside the sequence."""

    student_id: str
    demographics: Demographics
    sequence: np.ndarray
    quiz_responses: dict[int, int]
    label: int


def _require_header(row, expected, path):
    if row != expected:
        raise IngestError(f"{path}: expected header {expected}, got {row}")


@dataclass(frozen=True)
class QuizOutcome:
    """Recorded end-of-video quiz result for one student/video pair."""

    points: float
    max_points: float

    def __post_init__(self):
        score_first_attempt(self.points, self.max_points)  # validates ranges

    @property
    def first_attempt_score(self) -> int:
        return score_first_attempt(self.points, self.max_points)


@dataclass(frozen=True)
class ActivityEvent:
    """One raw clickstream event: who, when, what, and (for watches) which video."""

    student_id: str
    timestamp: int
    kind: ActivityKind
    video_index: int | None = None

    def __post_init__(self):
        if self.kind in WATCH_KINDS and self.video_index is None:
            raise ValueError(f"{self.kind.value} event requires a video_index")
        if self.kind in FORUM_KINDS and self.video_index is not None:
            raise ValueError(f"{self.kind.value} event must not carry a video_index")


def event_columns(kind: ActivityKind, video_index: int | None, first_attempt_score: int | None,
                  n_videos: int) -> tuple[int, ...]:
    """The hot columns of one event's row in (video one-hot; watch bits; forum bits)."""
    if kind in FORUM_KINDS:
        if first_attempt_score is not None:
            raise EncodingError(f"quiz outcome supplied for a {kind.value} event")
        return (n_videos + KIND_SLOT[kind],)
    if video_index is None or not 0 <= video_index < n_videos:
        raise EncodingError(f"video_index {video_index} out of range [0, {n_videos})")
    if first_attempt_score is not None:
        kind = ActivityKind.WATCH_CORRECT if first_attempt_score else ActivityKind.WATCH_INCORRECT
    elif kind is not ActivityKind.WATCH_NOANSWER:
        kind = ActivityKind.WATCH_NOQUIZ
    return (video_index, n_videos + KIND_SLOT[kind])


def _parse_kind(raw: str, has_outcome: bool) -> ActivityKind:
    if raw == "watch":
        # Generic watch rows resolve from the recorded outcome; without one the
        # video is treated as quizless.
        return ActivityKind.WATCH_CORRECT if has_outcome else ActivityKind.WATCH_NOQUIZ
    try:
        return ActivityKind(raw)
    except ValueError as exc:
        raise ValueError(f"unknown activity kind {raw!r}") from exc


def _parse_event(row: list[str]) -> tuple[ActivityEvent, QuizOutcome | None]:
    if len(row) != len(EVENT_HEADER):
        raise ValueError(f"expected {len(EVENT_HEADER)} fields")
    sid, ts, kind_raw, video_raw, points_raw, max_raw = row
    has_outcome = points_raw != "" and max_raw != ""
    kind = _parse_kind(kind_raw, has_outcome)
    outcome = QuizOutcome(float(points_raw), float(max_raw)) if has_outcome else None
    video = int(video_raw) if video_raw != "" else None
    return ActivityEvent(sid, int(ts), kind, video_index=video), outcome


def _event_rows(path: str):
    """Yield (line number, ActivityEvent, QuizOutcome | None) in file order."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _require_header(header, EVENT_HEADER, path)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                event, outcome = _parse_event(row)
            except ValueError as exc:
                raise IngestError(f"{path}:{line_no}: {exc}") from exc
            yield line_no, event, outcome


def load_records(
    events_path: str,
    students_path: str,
    n_videos: int,
    max_sequence: int = DEFAULT_MAX_SEQUENCE,
) -> list[StudentRecord]:
    """Assemble student records from the two ingest tables.

    Events are ordered by timestamp with file position breaking ties; sequences
    longer than the cap keep their most recent events. Students with no events
    are dropped with a warning.
    """
    table = read_students_csv(students_path)
    per_student: dict[str, list] = {sid: [] for sid in table}
    for line_no, event, outcome in _event_rows(events_path):
        if event.student_id not in per_student:
            raise IngestError(f"{events_path}:{line_no}: event for unknown student {event.student_id!r}")
        per_student[event.student_id].append((event.timestamp, line_no, event, outcome))

    records = []
    for sid, (demo, label) in table.items():
        rows = sorted(per_student[sid], key=lambda item: (item[0], item[1]))
        if not rows:
            logger.warning("student %s has no events; dropped", sid)
            continue
        rows = rows[-max_sequence:]
        hot_rows: list[int] = []
        hot_cols: list[int] = []
        quiz_responses: dict[int, int] = {}
        for t, (_, line_no, event, outcome) in enumerate(rows):
            score = None if outcome is None else outcome.first_attempt_score
            try:
                columns = event_columns(event.kind, event.video_index, score, n_videos)
            except EncodingError as exc:
                raise IngestError(f"{events_path}:{line_no}: {exc}") from exc
            hot_rows.extend([t] * len(columns))
            hot_cols.extend(columns)
            if score is not None:
                quiz_responses.setdefault(event.video_index, score)
        sequence = np.zeros((len(rows), n_videos + N_KINDS))
        sequence[hot_rows, hot_cols] = 1.0
        records.append(StudentRecord(sid, demo, sequence, quiz_responses, label))
    return records
