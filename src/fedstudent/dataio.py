"""CSV ingest and emission for events and student tables.

events.csv columns: student_id, timestamp, kind, video_index, points, max_points
  (video_index only for watch kinds; points/max_points only when a quiz answer
   was recorded; kind may be the generic "watch", resolved from the outcome).
students.csv columns: student_id, gender, continent, birth_year, label
  (empty demographic cells mean unspecified).
"""

from __future__ import annotations

import csv
import logging

import numpy as np

from .activity import (
    N_KINDS,
    ActivityEvent,
    ActivityKind,
    Demographics,
    EncodingError,
    QuizOutcome,
    StudentRecord,
    event_columns,
)
from .synthgen import DEFAULT_MAX_SEQUENCE

logger = logging.getLogger(__name__)

EVENT_HEADER = ["student_id", "timestamp", "kind", "video_index", "points", "max_points"]
STUDENT_HEADER = ["student_id", "gender", "continent", "birth_year", "label"]


class IngestError(ValueError):
    """Raised when a CSV file does not match its declared schema."""


def _require_header(row, expected, path):
    if row != expected:
        raise IngestError(f"{path}: expected header {expected}, got {row}")


def write_events_csv(records: list[StudentRecord], path: str) -> None:
    """Emit encoded records back to the raw-event format.

    Kinds and video indices are recovered from the one-hot encoding, which is
    always possible for generated cohorts.
    """
    kinds = list(ActivityKind)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for record in records:
            n_videos = record.sequence.shape[1] - N_KINDS
            slots = record.sequence[:, n_videos:].argmax(axis=1)
            videos = record.sequence[:, :n_videos].argmax(axis=1)
            for timestamp, (slot, video) in enumerate(zip(slots, videos)):
                kind = kinds[slot]
                if kind.is_watch:
                    if kind is ActivityKind.WATCH_CORRECT:
                        points, max_points = "1.0", "1.0"
                    elif kind is ActivityKind.WATCH_INCORRECT:
                        points, max_points = "0.0", "1.0"
                    else:
                        points, max_points = "", ""
                    writer.writerow([record.student_id, timestamp, kind.value, int(video), points, max_points])
                else:
                    writer.writerow([record.student_id, timestamp, kind.value, "", "", ""])


def write_students_csv(records: list[StudentRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDENT_HEADER)
        for record in records:
            demo = record.demographics
            writer.writerow([
                record.student_id,
                demo.gender or "",
                demo.continent or "",
                demo.birth_year if demo.birth_year is not None else "",
                record.label,
            ])


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


def read_students_csv(path: str) -> dict[str, tuple[Demographics, int]]:
    table: dict[str, tuple[Demographics, int]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _require_header(header, STUDENT_HEADER, path)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(STUDENT_HEADER):
                    raise ValueError(f"expected {len(STUDENT_HEADER)} fields")
                sid, gender, continent, birth_year, label = row
                demo = Demographics(
                    gender=gender or None,
                    continent=continent or None,
                    birth_year=int(birth_year) if birth_year else None,
                )
                if int(label) not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label}")
                table[sid] = (demo, int(label))
            except ValueError as exc:
                raise IngestError(f"{path}:{line_no}: {exc}") from exc
    return table


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
