"""Synthetic cohort generation with controllable between-subgroup heterogeneity.

Each subgroup profile drives a Markov walk over the seven activity kinds.
Realized watch events pick a video from the profile's access distribution;
watches on quiz videos resolve to correct/incorrect by a Bernoulli draw
(noanswer passes through), watches elsewhere become noquiz. The pass label is
sampled from a logistic model on the student's realized correct and forum
fractions, so the label signal is carried by the sequence itself.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .activity import (
    N_KINDS,
    UNSPECIFIED,
    ActivityEvent,
    ActivityKind,
    Demographics,
    EncodedActivity,
    FORUM_KINDS,
    KIND_SLOT,
    QuizOutcome,
    StudentRecord,
    WATCH_KINDS,
    encode_event,
)
from .splits import canonical_groups, rng_for

logger = logging.getLogger(__name__)

KIND_ORDER = WATCH_KINDS + FORUM_KINDS
DEFAULT_MAX_SEQUENCE = 256
# Year sampled uniformly within the band for the Y variable.
YEAR_RANGES = {"le1980": (1955, 1980), "1981to1990": (1981, 1990), "gt1990": (1991, 2004)}


class CohortSpecError(ValueError):
    """Raised when a cohort specification violates its invariants."""


@dataclass
class SubgroupProfile:
    """Generative behavior of one demographic subgroup."""

    name: str
    population: int
    transition: np.ndarray            # (7, 7) row-stochastic over activity kinds
    video_access: np.ndarray          # (n_videos,) categorical
    quiz_correct_prob: float
    length_mean: float = 40.0
    length_dispersion: float = 1.0    # 1.0 = geometric; larger = tighter
    pass_intercept: float = 0.0
    pass_weight_correct: float = 0.0
    pass_weight_forum: float = 0.0

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.video_access = np.asarray(self.video_access, dtype=np.float64)

    def validate(self, n_videos: int) -> list[str]:
        problems = []
        if self.population < 1:
            problems.append(f"profile {self.name}: population must be >= 1")
        if self.transition.shape != (N_KINDS, N_KINDS):
            problems.append(f"profile {self.name}: transition must be 7x7")
        else:
            if np.any(self.transition < 0):
                problems.append(f"profile {self.name}: transition has negative entries")
            if np.any(np.abs(self.transition.sum(axis=1) - 1.0) > 1e-9):
                problems.append(f"profile {self.name}: transition rows must sum to 1")
        if self.video_access.shape != (n_videos,):
            problems.append(f"profile {self.name}: video_access must have length {n_videos}")
        elif np.any(self.video_access < 0) or abs(self.video_access.sum() - 1.0) > 1e-9:
            problems.append(f"profile {self.name}: video_access must be a distribution")
        if not 0.0 <= self.quiz_correct_prob <= 1.0:
            problems.append(f"profile {self.name}: quiz_correct_prob must lie in [0, 1]")
        if self.length_mean < 1.0:
            problems.append(f"profile {self.name}: length_mean must be >= 1")
        if self.length_dispersion <= 0.0:
            problems.append(f"profile {self.name}: length_dispersion must be > 0")
        return problems


@dataclass
class CohortSpec:
    """Full cohort description: video catalogue, quiz set, and subgroup profiles."""

    n_videos: int
    quiz_videos: set[int]
    profiles: list[SubgroupProfile]
    demographic_variable: str = "G"
    unspecified_fraction: float = 0.0
    max_sequence: int = DEFAULT_MAX_SEQUENCE

    def validate(self) -> list[str]:
        problems = []
        if self.n_videos < 1:
            problems.append("n_videos must be >= 1")
        if not set(self.quiz_videos) <= set(range(self.n_videos)):
            problems.append("quiz_videos must be a subset of [0, n_videos)")
        names = [p.name for p in self.profiles]
        if len(names) != len(set(names)):
            problems.append("profile names must be distinct")
        valid_tags = set(canonical_groups(self.demographic_variable))
        for p in self.profiles:
            problems.extend(p.validate(self.n_videos))
            if p.name not in valid_tags:
                problems.append(
                    f"profile {p.name}: name must be a {self.demographic_variable} group tag "
                    f"({sorted(valid_tags)})"
                )
        if not 0.0 <= self.unspecified_fraction < 1.0:
            problems.append("unspecified_fraction must lie in [0, 1)")
        if not self.profiles:
            problems.append("at least one profile is required")
        return problems


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
    sequence: list[EncodedActivity] = []
    quiz_responses: dict[int, int] = {}
    n_watch = 0
    n_correct = 0
    n_forum = 0
    for _ in range(length):
        kind = KIND_ORDER[kind_idx]
        if kind.is_watch:
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
        sequence.append(encode_event(event, outcome, spec.n_videos))
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
        sequence=sequence,
        quiz_responses=quiz_responses,
        label=label,
    )


def generate_cohort(spec: CohortSpec, seed: int) -> list[StudentRecord]:
    """Sample every profile's population deterministically.

    Per-student streams derive from (seed, profile index, student index), so
    any parallel evaluation order produces the same cohort. Student ids embed
    the generating profile for diagnostics.
    """
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


def profile_divergence(a: SubgroupProfile, b: SubgroupProfile) -> float:
    """Mean total variation across transition rows plus total variation of video access."""
    if a.video_access.shape != b.video_access.shape:
        raise ValueError("profiles describe different video catalogues")
    row_tv = 0.5 * np.abs(a.transition - b.transition).sum(axis=1).mean()
    access_tv = 0.5 * np.abs(a.video_access - b.video_access).sum()
    return float(row_tv + access_tv)


def activity_heatmap(records: list[StudentRecord], n_steps: int) -> np.ndarray:
    """(7, n_steps) fraction of still-active students doing each kind at each step.

    Diagnostic approximation: the denominator at step t counts students whose
    sequence is longer than t.
    """
    counts = np.zeros((N_KINDS, n_steps))
    active = np.zeros(n_steps)
    for record in records:
        for t, enc in enumerate(record.sequence[:n_steps]):
            counts[enc.kind_slot(), t] += 1.0
            active[t] += 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        heat = np.where(active > 0, counts / active, 0.0)
    return heat


def uniform_transition() -> np.ndarray:
    return np.full((N_KINDS, N_KINDS), 1.0 / N_KINDS)


def kind_biased_transition(watch_share: float, stay: float = 0.2) -> np.ndarray:
    """Rows mixing a sticky self-transition with a watch/forum split.

    watch mass spreads over the four watch kinds, the rest over the three
    forum kinds; `stay` adds extra weight on repeating the current kind.
    """
    base = np.empty(N_KINDS)
    base[:4] = watch_share / 4.0
    base[4:] = (1.0 - watch_share) / 3.0
    rows = np.tile(base, (N_KINDS, 1)) * (1.0 - stay)
    rows[np.diag_indices(N_KINDS)] += stay
    return rows


def profile_to_dict(profile: SubgroupProfile) -> dict:
    return {
        "name": profile.name,
        "population": profile.population,
        "transition": profile.transition.tolist(),
        "video_access": profile.video_access.tolist(),
        "quiz_correct_prob": profile.quiz_correct_prob,
        "length_mean": profile.length_mean,
        "length_dispersion": profile.length_dispersion,
        "pass_intercept": profile.pass_intercept,
        "pass_weight_correct": profile.pass_weight_correct,
        "pass_weight_forum": profile.pass_weight_forum,
    }


def spec_to_dict(spec: CohortSpec) -> dict:
    return {
        "version": 1,
        "n_videos": spec.n_videos,
        "quiz_videos": sorted(spec.quiz_videos),
        "demographic_variable": spec.demographic_variable,
        "unspecified_fraction": spec.unspecified_fraction,
        "max_sequence": spec.max_sequence,
        "profiles": [profile_to_dict(p) for p in spec.profiles],
    }


_PROFILE_KEYS = {
    "name", "population", "transition", "video_access", "quiz_correct_prob",
    "length_mean", "length_dispersion", "pass_intercept", "pass_weight_correct",
    "pass_weight_forum",
}
_SPEC_KEYS = {
    "version", "n_videos", "quiz_videos", "demographic_variable",
    "unspecified_fraction", "max_sequence", "profiles",
}


def spec_from_dict(data: dict) -> CohortSpec:
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise CohortSpecError(f"unknown cohort spec keys: {sorted(unknown)}")
    if data.get("version") != 1:
        raise CohortSpecError(f"unsupported cohort spec version: {data.get('version')!r}")
    profiles = []
    for entry in data.get("profiles", []):
        bad = set(entry) - _PROFILE_KEYS
        if bad:
            raise CohortSpecError(f"unknown profile keys: {sorted(bad)}")
        try:
            profiles.append(SubgroupProfile(**entry))
        except TypeError as exc:
            raise CohortSpecError(f"incomplete profile entry: {exc}") from exc
    try:
        spec = CohortSpec(
            n_videos=int(data["n_videos"]),
            quiz_videos=set(int(v) for v in data.get("quiz_videos", [])),
            profiles=profiles,
            demographic_variable=data.get("demographic_variable", "G"),
            unspecified_fraction=float(data.get("unspecified_fraction", 0.0)),
            max_sequence=int(data.get("max_sequence", DEFAULT_MAX_SEQUENCE)),
        )
    except KeyError as exc:
        raise CohortSpecError(f"missing cohort spec key: {exc}") from exc
    problems = spec.validate()
    if problems:
        raise CohortSpecError("invalid cohort spec: " + "; ".join(problems))
    return spec


def load_cohort_spec(path: str) -> CohortSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CohortSpecError(f"cohort spec {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(data)


def save_cohort_spec(spec: CohortSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
