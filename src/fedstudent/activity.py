"""Clickstream event types and their fixed-length one-hot encodings.

An encoded activity is the concatenation (video id one-hot; 4 watch-type bits;
3 forum-type bits), giving a vector of length n_videos + 7. Watch events set
exactly one video bit and one watch bit; forum events set exactly one forum
bit and nothing else. `event_columns` names one event's set bits, and
`activity_matrix` writes the set bits of many records into one stacked array,
one byte per cell, in one write, and gives each record a view of its rows:
both record builders call the two, CSV ingest once for every record and the
generator once per student.
`row_events` reads each row back as its kind slot and video, and is the only
code that splits a matrix into its video and kind blocks; `quiz_responses`
reads a record's first-attempt quiz scores off it through `row_events`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np


class InputError(ValueError):
    """Raised for input the user wrote or named that cannot be used: a flag, a path, the
    config, the cohort spec, events.csv or students.csv. The command line exits 2 on it."""


class EncodingError(ValueError):
    """Raised when an event cannot be encoded under the declared layout."""


class ActivityKind(str, Enum):
    WATCH_NOQUIZ = "watch_noquiz"
    WATCH_CORRECT = "watch_correct"
    WATCH_INCORRECT = "watch_incorrect"
    WATCH_NOANSWER = "watch_noanswer"
    FORUM_POST = "forum_post"
    FORUM_REPLY = "forum_reply"
    FORUM_VIEW = "forum_view"


WATCH_KINDS = (
    ActivityKind.WATCH_NOQUIZ,
    ActivityKind.WATCH_CORRECT,
    ActivityKind.WATCH_INCORRECT,
    ActivityKind.WATCH_NOANSWER,
)
FORUM_KINDS = (
    ActivityKind.FORUM_POST,
    ActivityKind.FORUM_REPLY,
    ActivityKind.FORUM_VIEW,
)
# Position of each kind inside the 7 activity-type slots (4 watch then 3 forum).
KIND_SLOT = {kind: i for i, kind in enumerate(WATCH_KINDS + FORUM_KINDS)}
KIND_NAMES = tuple(kind.value for kind in KIND_SLOT)
SLOT_NOQUIZ, SLOT_CORRECT, SLOT_INCORRECT, SLOT_NOANSWER = (KIND_SLOT[kind] for kind in WATCH_KINDS)
N_WATCH = len(WATCH_KINDS)
N_KINDS = 7
# The most recent events a record keeps, by default, for generated and ingested cohorts.
DEFAULT_MAX_SEQUENCE = 256


def score_first_attempt(points: float, max_points: float) -> int:
    """Binary first-attempt credit: 1 only for full marks."""
    if not (math.isfinite(points) and math.isfinite(max_points)):
        raise ValueError(f"points and max_points must be finite, got {points} and {max_points}")
    if max_points <= 0:
        raise ValueError(f"max_points must be positive, got {max_points}")
    if points < 0 or points > max_points:
        raise ValueError(f"points must lie in [0, {max_points}], got {points}")
    return 1 if points == max_points else 0


def event_columns(slot: int, video_index: int | None, first_attempt_score: int | None,
                  n_videos: int) -> tuple[int, ...]:
    """The hot columns of one event's row in (video one-hot; watch bits; forum bits).

    `slot` is the event kind's `KIND_SLOT`. A forum event sets its forum
    column only. A watch sets its video's column and one watch column: with a
    first-attempt score it resolves to watch_correct or watch_incorrect;
    without one, watch_noanswer stays and anything else means the video had no
    quiz and becomes watch_noquiz.
    """
    if slot >= N_WATCH:
        if first_attempt_score is not None:
            raise EncodingError(f"quiz outcome supplied for a {KIND_NAMES[slot]} event")
        return (n_videos + slot,)
    if video_index is None or not 0 <= video_index < n_videos:
        raise EncodingError(f"video_index {video_index} out of range [0, {n_videos})")
    if first_attempt_score is not None:
        slot = SLOT_CORRECT if first_attempt_score else SLOT_INCORRECT
    elif slot != SLOT_NOANSWER:
        slot = SLOT_NOQUIZ
    return (video_index, n_videos + slot)


def activity_matrix(lengths: list[int], n_videos: int, hot_counts: list[int],
                    hot_cols: list[int]) -> list[np.ndarray]:
    """One (length, n_videos + 7) uint8 one-hot matrix per entry of `lengths`, all
    filled in one write.

    The records' rows are stacked in order, one `(sum(lengths), n_videos + 7)`
    array: row r of the stack has `hot_counts[r]` hot cells, at the next
    `hot_counts[r]` entries of `hot_cols`. Each record gets its own C-contiguous
    view of its rows. A cell only ever holds 0 or 1, so one byte keeps it
    exactly; the network casts a batch to float64 where it gathers it.
    """
    total = sum(lengths)
    stacked = np.zeros((total, n_videos + N_KINDS), dtype=np.uint8)
    hot_rows = np.arange(total).repeat(hot_counts)
    stacked[hot_rows, hot_cols] = 1
    return [stacked[end - length:end] for end, length in zip(accumulate(lengths), lengths)]


def row_events(sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the activity matrix `sequence` as its kind slot and its video index,
    -1 for a forum row: the inverse of `event_columns` and `activity_matrix`.

    Each row those build has one kind bit and, for a watch, one video bit, so
    each is its block's argmax, in any numeric dtype.
    """
    n_videos = sequence.shape[1] - N_KINDS
    slots = sequence[:, n_videos:].argmax(axis=1)
    videos = np.where(slots < N_WATCH, sequence[:, :n_videos].argmax(axis=1), -1)
    return slots, videos


def quiz_responses(sequence: np.ndarray) -> dict[int, int]:
    """Each quiz video's first-attempt score in the activity matrix `sequence`: 1 if
    its first watch_correct or watch_incorrect row is correct, else 0. Videos come
    in the order of their first such row."""
    slots, videos = row_events(sequence)
    responses: dict[int, int] = {}
    for slot, video in zip(slots.tolist(), videos.tolist()):
        if slot in (SLOT_CORRECT, SLOT_INCORRECT):
            responses.setdefault(video, int(slot == SLOT_CORRECT))
    return responses


@dataclass(frozen=True)
class Demographics:
    """Voluntarily provided attributes; None means the student left it unspecified."""

    gender: str | None = None
    continent: str | None = None
    birth_year: int | None = None

    def __post_init__(self):
        if self.gender is not None and self.gender not in GENDER_GROUPS:
            raise ValueError(f"unknown gender tag {self.gender!r}")
        if self.continent is not None and self.continent not in CONTINENT_GROUPS:
            raise ValueError(f"unknown continent tag {self.continent!r}")


GENDER_GROUPS = ("M", "F")
CONTINENT_GROUPS = ("AS", "AF", "EU", "NA", "SA")
# Birth-year bands: Y <= 1980, 1980 < Y <= 1990, Y > 1990.
YEAR_BANDS = ("le1980", "1981to1990", "gt1990")
UNSPECIFIED = "unspecified"
VARIABLES = ("G", "C", "Y")


def year_band(birth_year: int) -> str:
    if birth_year <= 1980:
        return YEAR_BANDS[0]
    if birth_year <= 1990:
        return YEAR_BANDS[1]
    return YEAR_BANDS[2]


def demographic_group(demo: Demographics, variable: str) -> str | None:
    """Subgroup tag of a student under one demographic variable, or None if unspecified."""
    if variable == "G":
        return demo.gender
    if variable == "C":
        return demo.continent
    if variable == "Y":
        return None if demo.birth_year is None else year_band(demo.birth_year)
    raise ValueError(f"unknown demographic variable {variable!r}, expected one of {VARIABLES}")


@dataclass
class StudentRecord:
    """One student: demographics, timestamp-ordered activities, pass label.

    `sequence` is the (L, n_videos + 7) matrix whose rows are the encoded
    activities, built once when the record is made. The generator and ingest
    build it as uint8 (`activity_matrix`); a matrix of any numeric dtype
    works, since the network casts each batch to float64. A quiz answer is
    the watch_correct or watch_incorrect row of its video, which
    `quiz_responses` reads.
    """

    student_id: str
    demographics: Demographics
    sequence: np.ndarray
    label: int = 0

    def __post_init__(self):
        if self.sequence.ndim != 2 or self.sequence.shape[0] == 0:
            raise ValueError(f"student {self.student_id} needs a non-empty (L, d) activity matrix, "
                             f"got shape {self.sequence.shape}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    @property
    def length(self) -> int:
        return self.sequence.shape[0]
