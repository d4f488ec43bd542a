"""Synthetic cohort generation with controllable between-subgroup heterogeneity.

Each subgroup profile drives a Markov walk over the seven activity kinds.
Realized watch events pick a video from the profile's access distribution;
watches on quiz videos resolve to correct/incorrect by a Bernoulli draw
(noanswer passes through), watches elsewhere become noquiz. The pass label is
sampled from a logistic model on the student's realized correct and forum
fractions, so the label signal is carried by the sequence itself.

Every categorical choice is one `rng.random()` searched with `bisect_right` in
the distribution's CDF, `p.cumsum() / p.cumsum()[-1]`, computed once per
profile. That is the draw `rng.choice(n, p=p)` makes, so cohorts keep the
records that generator gave, bit for bit.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .activity import (
    N_KINDS,
    VARIABLES,
    ActivityKind,
    Demographics,
    FORUM_KINDS,
    StudentRecord,
    WATCH_KINDS,
    event_columns,
)
from .config import json_value
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

    def validate(self, n_videos: int, where: str = "profile") -> list[str]:
        """Every violated invariant, each naming its key under `where` (e.g. "profiles[0]").

        Probabilities are checked once here: the generator draws from them by hand.
        """
        problems = []
        if self.population < 1:
            problems.append(f"{where}.population must be >= 1")
        if self.transition.shape != (N_KINDS, N_KINDS):
            problems.append(f"{where}.transition must be 7x7")
        elif not np.all(np.isfinite(self.transition)):
            problems.append(f"{where}.transition has non-finite entries")
        else:
            if np.any(self.transition < 0):
                problems.append(f"{where}.transition has negative entries")
            if np.any(np.abs(self.transition.sum(axis=1) - 1.0) > 1e-9):
                problems.append(f"{where}.transition rows must sum to 1")
        if self.video_access.shape != (n_videos,):
            problems.append(f"{where}.video_access must have length {n_videos}")
        elif not np.all(np.isfinite(self.video_access)):
            problems.append(f"{where}.video_access has non-finite entries")
        elif np.any(self.video_access < 0) or abs(self.video_access.sum() - 1.0) > 1e-9:
            problems.append(f"{where}.video_access must be a distribution")
        if not 0.0 <= self.quiz_correct_prob <= 1.0:
            problems.append(f"{where}.quiz_correct_prob must lie in [0, 1]")
        if not self.length_mean >= 1.0:
            problems.append(f"{where}.length_mean must be >= 1")
        if not self.length_dispersion > 0.0:
            problems.append(f"{where}.length_dispersion must be > 0")
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
        if self.max_sequence < 1:
            problems.append("max_sequence must be >= 1")
        valid_tags = None
        if self.demographic_variable in VARIABLES:
            valid_tags = set(canonical_groups(self.demographic_variable))
        else:
            problems.append(f"demographic_variable must be one of {VARIABLES}")
        first_with_name: dict[str, int] = {}
        for i, p in enumerate(self.profiles):
            where = f"profiles[{i}]"
            problems.extend(p.validate(self.n_videos, where))
            if p.name in first_with_name:
                problems.append(f"{where}.name {p.name!r} repeats "
                                f"profiles[{first_with_name[p.name]}].name")
            else:
                first_with_name[p.name] = i
            if valid_tags is not None and p.name not in valid_tags:
                problems.append(
                    f"{where}.name {p.name!r} must be a {self.demographic_variable} group tag "
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


def _cdf(p: np.ndarray) -> list[float]:
    """The table `rng.choice(len(p), p=p)` searches: p's running sums over its total."""
    cdf = p.cumsum()
    return (cdf / cdf[-1]).tolist()


@dataclass(frozen=True)
class _ProfileTables:
    """A profile's categorical distributions as CDFs, built once per profile."""

    first_kind: list[float]          # the average transition row
    next_kind: list[list[float]]     # one per transition row
    video: list[float]

    @classmethod
    def of(cls, profile: SubgroupProfile) -> "_ProfileTables":
        return cls(_cdf(profile.transition.mean(axis=0)),
                   [_cdf(row) for row in profile.transition], _cdf(profile.video_access))


def _simulate_student(
    spec: CohortSpec,
    profile: SubgroupProfile,
    tables: _ProfileTables,
    student_id: str,
    rng: np.random.Generator,
) -> StudentRecord:
    length = _draw_length(profile, rng, spec.max_sequence)
    # First kind follows the profile's average transition row.
    kind_idx = bisect_right(tables.first_kind, rng.random())
    # Records keep no timestamps; the first and each next one are still drawn
    # so that every later draw stays where it was in the stream.
    rng.integers(0, 86_400)
    hot_rows: list[int] = []
    hot_cols: list[int] = []
    quiz_responses: dict[int, int] = {}
    n_watch = 0
    n_correct = 0
    n_forum = 0
    for t in range(length):
        kind = KIND_ORDER[kind_idx]
        video = score = None
        if kind.is_watch:
            n_watch += 1
            video = bisect_right(tables.video, rng.random())
            if video not in spec.quiz_videos:
                kind = ActivityKind.WATCH_NOQUIZ
            elif kind is not ActivityKind.WATCH_NOANSWER:
                correct = rng.random() < profile.quiz_correct_prob
                score = int(correct)
                quiz_responses.setdefault(video, score)
                n_correct += score
        else:
            n_forum += 1
        columns = event_columns(kind, video, score, spec.n_videos)
        hot_rows.extend([t] * len(columns))
        hot_cols.extend(columns)
        rng.integers(1, 3600)
        kind_idx = bisect_right(tables.next_kind[kind_idx], rng.random())

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
    sequence = np.zeros((length, spec.n_videos + N_KINDS))
    sequence[hot_rows, hot_cols] = 1.0
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
        tables = _ProfileTables.of(profile)
        for s_idx in range(profile.population):
            rng = rng_for(seed, p_idx, s_idx)
            student_id = f"{profile.name}-{s_idx:05d}"
            records.append(_simulate_student(spec, profile, tables, student_id, rng))
    return records


def profile_divergence(a: SubgroupProfile, b: SubgroupProfile) -> float:
    """Mean total variation across transition rows plus total variation of video access."""
    if a.video_access.shape != b.video_access.shape:
        raise ValueError("profiles describe different video catalogues")
    row_tv = 0.5 * np.abs(a.transition - b.transition).sum(axis=1).mean()
    access_tv = 0.5 * np.abs(a.video_access - b.video_access).sum()
    return float(row_tv + access_tv)


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


# The JSON type of every cohort spec and profile key, read as the experiment config is.
_SPEC_TYPES = {
    "version": "integer", "n_videos": "integer", "quiz_videos": "integer array",
    "demographic_variable": "string", "unspecified_fraction": "number",
    "max_sequence": "integer", "profiles": "object array",
}
_PROFILE_TYPES = {
    "name": "string", "population": "integer", "transition": "number array array",
    "video_access": "number array", "quiz_correct_prob": "number", "length_mean": "number",
    "length_dispersion": "number", "pass_intercept": "number", "pass_weight_correct": "number",
    "pass_weight_forum": "number",
}


def _typed(entry, types: dict, where: str, required: tuple) -> dict:
    """`entry`'s values, each checked against its JSON type in `types`; `where` names
    the entry in errors and prefixes its keys' names ("" for the spec itself)."""
    prefix = f"{where}." if where else ""
    where = where or "cohort spec"
    json_value(entry, "object", where, CohortSpecError)
    unknown = set(entry) - set(types)
    if unknown:
        raise CohortSpecError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in entry]
    if missing:
        raise CohortSpecError(f"{where} is missing keys: {missing}")
    return {key: json_value(value, types[key], prefix + key, CohortSpecError)
            for key, value in entry.items()}


def spec_from_dict(data: dict) -> CohortSpec:
    fields = _typed(data, _SPEC_TYPES, "", ("version", "n_videos"))
    if fields["version"] != 1:
        raise CohortSpecError(f"unsupported cohort spec version: {fields['version']!r}")
    profiles = []
    for i, entry in enumerate(fields.get("profiles", [])):
        profile = _typed(entry, _PROFILE_TYPES, f"profiles[{i}]",
                         ("name", "population", "transition", "video_access", "quiz_correct_prob"))
        if len({len(row) for row in profile["transition"]}) > 1:
            raise CohortSpecError(f"profiles[{i}].transition rows must have equal lengths")
        profiles.append(SubgroupProfile(**profile))
    spec = CohortSpec(
        n_videos=fields["n_videos"],
        quiz_videos=set(fields.get("quiz_videos", [])),
        profiles=profiles,
        demographic_variable=fields.get("demographic_variable", "G"),
        unspecified_fraction=fields.get("unspecified_fraction", 0.0),
        max_sequence=fields.get("max_sequence", DEFAULT_MAX_SEQUENCE),
    )
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
