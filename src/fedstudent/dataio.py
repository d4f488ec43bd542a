"""CSV ingest and emission, and the only module that imports csv. `write_csv`
writes every table but embeddings.csv, whose float vectors `write_vector_csv`
joins as their shortest round-trip `repr`, the bytes the csv module writes.
events.csv is written from each record's matrix, decoded by `activity.row_events`.

events.csv columns: student_id, timestamp, kind, video_index, points, max_points.
students.csv columns: student_id, gender, continent, birth_year, label
  (empty demographic cells mean unspecified).

Both files are read by `csv_rows`, which counts the header as line 1 and each
CSV record after it as the next line. A header other than the one above (or an
empty file) fails at `path:1`, and a record the csv module cannot parse (a field
over its 128 KiB limit, say) at `path:line`. Bytes that are not UTF-8 fail with
the path alone: text is decoded in 8 KiB chunks, so the line being read when
decoding fails is not the bad one. Every other error names `path:line`.

students.csv is read first, so its errors win over any in events.csv; a
student_id may appear in it once. Each events.csv row is checked as it is read,
in file order, and its first failing rule wins (blank rows are skipped):
  1. the row has six fields;
  2. kind is one of the seven kinds, or the generic "watch": watch_correct if
     the row has an outcome, else watch_noquiz;
  3. the row has an outcome when points and max_points are both non-empty;
     then both parse as finite numbers, max_points > 0 and
     0 <= points <= max_points, and the first-attempt score is 1 for full
     marks only;
  4. video_index, when given, is an integer;
  5. timestamp is an integer;
  6. a watch kind has a video_index and a forum kind has none;
  7. student_id is in students.csv.
Each row's event is encoded as it is read, and every row with the same video,
slot and score shares one encoded event. Each student's events are then
ordered by timestamp, ties in file order, and cut to the `max_sequence` most
recent. Only the events kept are checked, students in students.csv order and
events in time order, so a row that the cap drops breaks neither rule:
  8. a watch's video_index lies in [0, n_videos);
  9. a forum event has no outcome.
"""

from __future__ import annotations

import csv
import io
import logging

from .activity import (
    DEFAULT_MAX_SEQUENCE,
    KIND_NAMES,
    N_WATCH,
    SLOT_CORRECT,
    SLOT_INCORRECT,
    Demographics,
    EncodingError,
    InputError,
    StudentRecord,
    activity_matrix,
    event_columns,
    row_events,
    score_first_attempt,
)

logger = logging.getLogger(__name__)

EVENT_HEADER = ["student_id", "timestamp", "kind", "video_index", "points", "max_points"]
STUDENT_HEADER = ["student_id", "gender", "continent", "birth_year", "label"]
# Raw kind string -> its slot; the generic "watch" is resolved before the lookup.
_SLOT_OF = {name: slot for slot, name in enumerate(KIND_NAMES)}
# The points and max_points written for a watch slot; other watches have none.
_WATCH_POINTS = {SLOT_CORRECT: ("1.0", "1.0"), SLOT_INCORRECT: ("0.0", "1.0")}


class IngestError(InputError):
    """Raised when a CSV file does not match its declared schema."""


def csv_rows(path: str, header: list[str], error: type[Exception]):
    """Yield (line, row) for each non-blank row after the header of the CSV file at `path`.

    Raises `error` naming `path:1` for a header other than `header`, `path:line`
    for a row the csv module cannot parse, and `path` alone for bytes that are
    not UTF-8 (text is decoded in chunks, so the line being read is not the bad one).
    """
    line_no = 0
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader, None)
                if first != header:
                    raise error(f"{path}:1: expected header {header}, got {first}")
                line_no = 1
                for line_no, row in enumerate(reader, start=2):
                    if row:
                        yield line_no, row
            except csv.Error as exc:
                raise error(f"{path}:{line_no + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def write_csv(path: str, header: list[str], rows) -> None:
    """Write `header`, then each row of the iterable `rows`, to the UTF-8 CSV file at `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_vector_csv(path: str, header: list[str], rows) -> None:
    """Write `header`, then each (cells, vector) of `rows`, with at least one of each, as
    `write_csv` writes `[*cells, *vector.tolist()]`: the floats as one join of their `repr`,
    the cells by a default-dialect writer (another line terminator leaves "\\n" unquoted)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        text = io.StringIO()
        writer = csv.writer(text)
        for cells, vector in rows:
            text.seek(0)
            text.truncate()
            writer.writerow([*cells, ""])  # ends in ",\r\n", so no lone empty cell is quoted
            fh.write(f"{text.getvalue()[:-2]}{','.join(map(repr, vector.tolist()))}\r\n")


def _event_rows(records: list[StudentRecord]):
    for record in records:
        slots, videos = row_events(record.sequence)
        for timestamp, (slot, video) in enumerate(zip(slots.tolist(), videos.tolist())):
            if slot < N_WATCH:
                yield [record.student_id, timestamp, KIND_NAMES[slot], video,
                       *_WATCH_POINTS.get(slot, ("", ""))]
            else:
                yield [record.student_id, timestamp, KIND_NAMES[slot], "", "", ""]


def write_events_csv(records: list[StudentRecord], path: str) -> None:
    """Emit encoded records back to the raw-event format.

    Kinds and video indices are decoded from each row by `row_events`, which
    is always possible for generated and ingested cohorts.
    """
    write_csv(path, EVENT_HEADER, _event_rows(records))


def write_students_csv(records: list[StudentRecord], path: str) -> None:
    write_csv(path, STUDENT_HEADER, (
        [
            record.student_id,
            record.demographics.gender or "",
            record.demographics.continent or "",
            "" if record.demographics.birth_year is None else record.demographics.birth_year,
            record.label,
        ]
        for record in records
    ))


def read_students_csv(path: str) -> dict[str, tuple[Demographics, int]]:
    table: dict[str, tuple[Demographics, int]] = {}
    first_line: dict[str, int] = {}
    for line_no, row in csv_rows(path, STUDENT_HEADER, IngestError):
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
            if sid in first_line:
                raise ValueError(f"student_id {sid!r} repeats line {first_line[sid]}")
            first_line[sid] = line_no
            table[sid] = (demo, int(label))
        except ValueError as exc:
            raise IngestError(f"{path}:{line_no}: {exc}") from exc
    return table


def _read_events(path: str, table: dict[str, tuple[Demographics, int]],
                 n_videos: int) -> dict[str, tuple[list[int], list[tuple]]]:
    """Check each events.csv row (rules 1-7) and file it under its student as its
    timestamp and its event (columns, problem), with a generic watch's slot resolved.

    Rows with the same (video, slot, score) share one event tuple, whose
    `event_columns` are worked out when the triple is first read. A triple that
    rule 8 or 9 refuses has no columns and its message as `problem`; each of
    its rows gets a tuple of its own, whose message names `path:line`, raised
    only if the row is kept. Otherwise `problem` is None.
    """
    per_student = {sid: ([], []) for sid in table}
    shared: dict[tuple, tuple] = {}
    for line_no, row in csv_rows(path, EVENT_HEADER, IngestError):
        try:
            if len(row) != len(EVENT_HEADER):
                raise ValueError(f"expected {len(EVENT_HEADER)} fields")
            sid, ts, kind, video, points, max_points = row
            has_outcome = points != "" and max_points != ""
            if kind == "watch":
                kind = "watch_correct" if has_outcome else "watch_noquiz"
            slot = _SLOT_OF.get(kind)
            if slot is None:
                raise ValueError(f"unknown activity kind {kind!r}")
            score = score_first_attempt(float(points), float(max_points)) if has_outcome else None
            video = int(video) if video != "" else None
            ts = int(ts)
            if slot < N_WATCH:
                if video is None:
                    raise ValueError(f"{kind} event requires a video_index")
            elif video is not None:
                raise ValueError(f"{kind} event must not carry a video_index")
        except ValueError as exc:
            raise IngestError(f"{path}:{line_no}: {exc}") from exc
        filed = per_student.get(sid)
        if filed is None:
            raise IngestError(f"{path}:{line_no}: event for unknown student {sid!r}")
        key = (video, slot, score)
        event = shared.get(key)
        if event is None:
            try:
                event = (event_columns(slot, video, score, n_videos), None)
            except EncodingError as exc:
                event = ((), str(exc))
            shared[key] = event
        if event[1] is not None:
            event = ((), f"{path}:{line_no}: {event[1]}")
        filed[0].append(ts)
        filed[1].append(event)
    return per_student


def load_records(
    events_path: str,
    students_path: str,
    n_videos: int,
    max_sequence: int = DEFAULT_MAX_SEQUENCE,
) -> list[StudentRecord]:
    """Assemble student records from the two ingest tables by the rules above.

    Students with no events are dropped with a warning.
    """
    table = read_students_csv(students_path)
    per_student = _read_events(events_path, table, n_videos)

    records = []
    for sid, (demo, label) in table.items():
        timestamps, events = per_student.pop(sid)  # freed as its record is built
        if not timestamps:
            logger.warning("student %s has no events; dropped", sid)
            continue
        # Stable: tied timestamps keep file order.
        kept = sorted(range(len(timestamps)), key=timestamps.__getitem__)[-max_sequence:]
        hot_rows: list[int] = []
        hot_cols: list[int] = []
        for t, i in enumerate(kept):
            columns, problem = events[i]
            if problem is not None:
                raise IngestError(problem)
            hot_rows += (t,) * len(columns)
            hot_cols += columns
        sequence = activity_matrix(len(kept), n_videos, hot_rows, hot_cols)
        records.append(StudentRecord(sid, demo, sequence, label))
    return records
