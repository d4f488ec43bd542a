"""Synthetic cohort generation, as it was before each categorical draw was made by hand.

Kept as a test oracle. Every categorical choice here is an `rng.choice(n, p=p)`
call, and every event becomes an `ActivityEvent`, an optional `QuizOutcome` and
a one-hot vector, stacked into the record's sequence matrix. The package's
generator must produce the same records, byte for byte. `encode_event`, which
the package no longer has, is frozen here with the generator; the two event
dataclasses and the five-field `StudentRecord`, also gone from the package,
are frozen in `ingest_v0`.
"""

from __future__ import annotations

import numpy as np

from fedstudent.activity import (
    FORUM_KINDS,
    KIND_SLOT,
    N_KINDS,
    WATCH_KINDS,
    ActivityKind,
    Demographics,
)
from fedstudent.splits import rng_for
from fedstudent.synthgen import CohortSpec, CohortSpecError, SubgroupProfile

from .ingest_v0 import ActivityEvent, QuizOutcome, StudentRecord

KIND_ORDER = WATCH_KINDS + FORUM_KINDS
YEAR_RANGES = {"le1980": (1955, 1980), "1981to1990": (1981, 1990), "gt1990": (1991, 2004)}


def encode_event(event: ActivityEvent, outcome: QuizOutcome | None, n_videos: int) -> np.ndarray:
    """Encode one event as (video one-hot; watch bits; forum bits)."""
    bits = np.zeros(n_videos + N_KINDS)
    if event.kind in FORUM_KINDS:
        if outcome is not None:
            raise ValueError(f"outcome supplied for forum event of {event.student_id}")
        bits[n_videos + KIND_SLOT[event.kind]] = 1.0
        return bits

    if event.video_index is None or not 0 <= event.video_index < n_videos:
        raise ValueError(
            f"video_index {event.video_index} out of range [0, {n_videos}) for {event.student_id}"
        )
    if outcome is not None:
        kind = ActivityKind.WATCH_CORRECT if outcome.first_attempt_score else ActivityKind.WATCH_INCORRECT
    elif event.kind is ActivityKind.WATCH_NOANSWER:
        kind = ActivityKind.WATCH_NOANSWER
    else:
        kind = ActivityKind.WATCH_NOQUIZ
    bits[event.video_index] = 1.0
    bits[n_videos + KIND_SLOT[kind]] = 1.0
    return bits


def _demographics_for(variable: str, group: str, rng: np.random.Generator) -> Demographics:
    if variable == "G":
        return Demographics(gender=group)
    if variable == "C":
        return Demographics(continent=group)
    lo, hi = YEAR_RANGES[group]
    return Demographics(birth_year=int(rng.integers(lo, hi + 1)))


def _draw_length(profile: SubgroupProfile, rng: np.random.Generator, cap: int) -> int:
    extra = max(0.0, profile.length_mean - 1.0)
    if extra == 0.0:
        return 1
    r = profile.length_dispersion
    p = r / (r + extra)
    length = 1 + int(rng.negative_binomial(r, p))
    return min(length, cap)


def _simulate_student(
    spec: CohortSpec,
    profile: SubgroupProfile,
    student_id: str,
    rng: np.random.Generator,
) -> StudentRecord:
    length = _draw_length(profile, rng, spec.max_sequence)
    # First kind follows the profile's average transition row.
    kind_idx = int(rng.choice(N_KINDS, p=profile.transition.mean(axis=0)))
    timestamp = 1_600_000_000 + int(rng.integers(0, 86_400))
    rows: list[np.ndarray] = []
    quiz_responses: dict[int, int] = {}
    n_watch = 0
    n_correct = 0
    n_forum = 0
    for _ in range(length):
        kind = KIND_ORDER[kind_idx]
        if kind in WATCH_KINDS:
            n_watch += 1
            video = int(rng.choice(spec.n_videos, p=profile.video_access))
            outcome = None
            if video not in spec.quiz_videos:
                event_kind = ActivityKind.WATCH_NOQUIZ
            elif kind is ActivityKind.WATCH_NOANSWER:
                event_kind = kind
            else:
                event_kind = kind
                correct = rng.random() < profile.quiz_correct_prob
                outcome = QuizOutcome(points=1.0 if correct else 0.0, max_points=1.0)
                if video not in quiz_responses:
                    quiz_responses[video] = outcome.first_attempt_score
                if correct:
                    n_correct += 1
            event = ActivityEvent(student_id, timestamp, event_kind, video_index=video)
        else:
            n_forum += 1
            event = ActivityEvent(student_id, timestamp, kind)
            outcome = None
        rows.append(encode_event(event, outcome, spec.n_videos))
        timestamp += int(rng.integers(1, 3600))
        kind_idx = int(rng.choice(N_KINDS, p=profile.transition[kind_idx]))

    correct_fraction = n_correct / max(1, n_watch)
    forum_fraction = n_forum / length
    logit = (
        profile.pass_intercept
        + profile.pass_weight_correct * correct_fraction
        + profile.pass_weight_forum * forum_fraction
    )
    pass_prob = 1.0 / (1.0 + np.exp(-logit))
    label = int(rng.random() < pass_prob)

    demo_rng_draw = rng.random()
    demo = (
        Demographics()
        if demo_rng_draw < spec.unspecified_fraction
        else _demographics_for(spec.demographic_variable, profile.name, rng)
    )
    return StudentRecord(
        student_id=student_id,
        demographics=demo,
        sequence=np.stack(rows),
        quiz_responses=quiz_responses,
        label=label,
    )


def generate_cohort(spec: CohortSpec, seed: int) -> list[StudentRecord]:
    """Sample every profile's population deterministically."""
    problems = spec.validate()
    if problems:
        raise CohortSpecError("invalid cohort spec: " + "; ".join(problems))
    records = []
    for p_idx, profile in enumerate(spec.profiles):
        for s_idx in range(profile.population):
            rng = rng_for(seed, p_idx, s_idx)
            student_id = f"{profile.name}-{s_idx:05d}"
            records.append(_simulate_student(spec, profile, student_id, rng))
    return records
