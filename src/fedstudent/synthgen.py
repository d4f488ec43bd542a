"""Synthetic cohort generation with controllable between-subgroup heterogeneity.

Each subgroup profile drives a Markov walk over the seven activity kinds.
Realized watch events pick a video from the profile's access distribution;
watches on quiz videos resolve to correct/incorrect by a Bernoulli draw
(noanswer passes through), watches elsewhere become noquiz. The pass label is
drawn from the logistic of `pass_logit`, which reads the student's correct and
forum fractions off the activity matrix the network sees.

Every categorical choice is one `rng.random()` searched with `bisect_right` in
the distribution's CDF, `p.cumsum() / p.cumsum()[-1]`, computed once per
profile. That is the draw `rng.choice(n, p=p)` makes, so cohorts keep the
records that generator gave, bit for bit.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .activity import (
    DEFAULT_MAX_SEQUENCE,
    N_KINDS,
    N_WATCH,
    SLOT_CORRECT,
    SLOT_NOANSWER,
    SLOT_NOQUIZ,
    VARIABLES,
    Demographics,
    InputError,
    StudentRecord,
    activity_matrix,
    event_columns,
)
from .config import REQUIRED, Key, json_value, load_json, violation, write_json
from .splits import canonical_groups, rng_for

logger = logging.getLogger(__name__)

# Year sampled uniformly within the band for the Y variable.
YEAR_RANGES = {"le1980": (1955, 1980), "1981to1990": (1981, 1990), "gt1990": (1991, 2004)}


class CohortSpecError(InputError):
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
        """Every problem with the spec, each naming its dotted key (e.g. "profiles[0].population").

        The spec's plain form is checked against `SPEC_KEYS` and `PROFILE_KEYS`,
        types included, as a JSON spec is; then the shapes, sums and names the
        generator relies on. Probabilities are checked once here: the generator
        draws from them by hand.
        """
        plain = spec_to_dict(self)
        try:
            problems = _read(plain, SPEC_KEYS, "")[1]
            for i, profile in enumerate(plain["profiles"]):
                problems += _read(profile, PROFILE_KEYS, f"profiles[{i}]")[1]
        except CohortSpecError as exc:
            return [str(exc)]  # the checks below need finite values of the right types
        if not set(self.quiz_videos) <= set(range(self.n_videos)):
            problems.append("quiz_videos must be a subset of [0, n_videos)")
        valid_tags = None
        if self.demographic_variable in VARIABLES:
            valid_tags = set(canonical_groups(self.demographic_variable))
        first_with_name: dict[str, int] = {}
        for i, p in enumerate(self.profiles):
            where = f"profiles[{i}]"
            if p.transition.shape != (N_KINDS, N_KINDS):
                problems.append(f"{where}.transition must be 7x7")
            else:
                if np.any(p.transition < 0):
                    problems.append(f"{where}.transition has negative entries")
                if np.any(np.abs(p.transition.sum(axis=1) - 1.0) > 1e-9):
                    problems.append(f"{where}.transition rows must sum to 1")
            if p.video_access.shape != (self.n_videos,):
                problems.append(f"{where}.video_access must have length {self.n_videos}")
            elif np.any(p.video_access < 0) or abs(p.video_access.sum() - 1.0) > 1e-9:
                problems.append(f"{where}.video_access must be a distribution")
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
        if not self.profiles:
            problems.append("at least one profile is required")
        return problems


SPEC_VERSION = 1

# One row per cohort spec key and per profile key: its JSON type, its default
# when a JSON spec leaves it out (the dataclass's own where it has one), and
# its bounds.
SPEC_KEYS = (
    Key("version", "integer", choices=(SPEC_VERSION,)),
    Key("n_videos", "integer", low=1),
    Key("quiz_videos", "integer array", []),
    Key("demographic_variable", "string", CohortSpec.demographic_variable, choices=VARIABLES),
    Key("unspecified_fraction", "number", CohortSpec.unspecified_fraction, low=0, high=1),
    Key("max_sequence", "integer", CohortSpec.max_sequence, low=1),
    Key("profiles", "object array", []),
)
PROFILE_KEYS = (
    Key("name", "string"),
    Key("population", "integer", low=1),
    Key("transition", "number array array"),
    Key("video_access", "number array"),
    Key("quiz_correct_prob", "number", low=0, high=1, closed=True),
    Key("length_mean", "number", SubgroupProfile.length_mean, low=1),
    Key("length_dispersion", "number", SubgroupProfile.length_dispersion, low=0, strict=True),
    Key("pass_intercept", "number", SubgroupProfile.pass_intercept),
    Key("pass_weight_correct", "number", SubgroupProfile.pass_weight_correct),
    Key("pass_weight_forum", "number", SubgroupProfile.pass_weight_forum),
)


def _read(entry, keys: tuple[Key, ...], where: str) -> tuple[dict, list[str]]:
    """`entry`'s value for each of `keys`, a missing one at its default, and each value
    outside its row's bounds; `where` names the entry ("" for the spec itself) and
    prefixes its keys' names. An unknown key, a missing required key or a value of
    another JSON type raises `CohortSpecError`.
    """
    prefix = f"{where}." if where else ""
    json_value(entry, "object", where or "cohort spec", CohortSpecError)
    unknown = sorted(prefix + name for name in set(entry) - {key.name for key in keys})
    if unknown:
        raise CohortSpecError(f"unknown keys: {unknown}")
    values = {}
    for key in keys:
        raw = entry.get(key.name, key.default)
        if raw is REQUIRED:
            raise CohortSpecError(f"{prefix}{key.name} is required")
        values[key.name] = json_value(raw, key.type, prefix + key.name, CohortSpecError)
    return values, [problem for key in keys
                    if (problem := violation(key, values[key.name], prefix + key.name))]


def _raise_if(problems: list[str]) -> None:
    if problems:
        raise CohortSpecError("invalid cohort spec: " + "; ".join(problems))


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


def pass_logit(profile: SubgroupProfile, sequence: np.ndarray) -> float:
    """The logit of a student's pass probability under `profile`: its intercept, plus
    its weights on the correct first attempts per watch and the forum events per
    event, each kind counted once off the activity matrix `sequence`."""
    counts = sequence[:, -N_KINDS:].sum(axis=0).tolist()
    n_watch, n_correct, n_forum = sum(counts[:N_WATCH]), counts[SLOT_CORRECT], sum(counts[N_WATCH:])
    return (profile.pass_intercept
            + profile.pass_weight_correct * (n_correct / max(1, n_watch))
            + profile.pass_weight_forum * (n_forum / len(sequence)))


def _simulate_student(
    spec: CohortSpec,
    profile: SubgroupProfile,
    tables: _ProfileTables,
    student_id: str,
    rng: np.random.Generator,
) -> StudentRecord:
    """One student's walk as its activity matrix, labelled by the logistic of its `pass_logit`."""
    length = _draw_length(profile, rng, spec.max_sequence)
    # First kind follows the profile's average transition row.
    kind_idx = bisect_right(tables.first_kind, rng.random())
    # Records keep no timestamps; the first and each next one are still drawn
    # so that every later draw stays where it was in the stream.
    rng.integers(0, 86_400)
    hot_rows: list[int] = []
    hot_cols: list[int] = []
    quiz_responses: dict[int, int] = {}
    for t in range(length):
        slot = kind_idx
        video = score = None
        if slot < N_WATCH:
            video = bisect_right(tables.video, rng.random())
            if video not in spec.quiz_videos:
                slot = SLOT_NOQUIZ
            elif slot != SLOT_NOANSWER:
                correct = rng.random() < profile.quiz_correct_prob
                score = int(correct)
                quiz_responses.setdefault(video, score)
        columns = event_columns(slot, video, score, spec.n_videos)
        hot_rows.extend([t] * len(columns))
        hot_cols.extend(columns)
        rng.integers(1, 3600)
        kind_idx = bisect_right(tables.next_kind[kind_idx], rng.random())
    sequence = activity_matrix(length, spec.n_videos, hot_rows, hot_cols)
    pass_prob = 1.0 / (1.0 + np.exp(-pass_logit(profile, sequence)))
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
    _raise_if(spec.validate())
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


def _plain(value):
    """`value` as a cohort spec's JSON holds it: a profile as an object, a set as a
    sorted array, numpy arrays and scalars as lists and Python scalars."""
    if isinstance(value, SubgroupProfile):
        return {key.name: _plain(getattr(value, key.name)) for key in PROFILE_KEYS}
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def spec_to_dict(spec: CohortSpec) -> dict:
    """The spec's plain form: one value for every row of `SPEC_KEYS`."""
    return {"version": SPEC_VERSION,
            **{key.name: _plain(getattr(spec, key.name)) for key in SPEC_KEYS[1:]}}


def spec_from_dict(data: dict) -> CohortSpec:
    fields, problems = _read(data, SPEC_KEYS, "")
    _raise_if(problems)
    profiles = []
    for i, entry in enumerate(fields.pop("profiles")):
        profile, problems = _read(entry, PROFILE_KEYS, f"profiles[{i}]")
        _raise_if(problems)
        if len({len(row) for row in profile["transition"]}) > 1:
            raise CohortSpecError(f"profiles[{i}].transition rows must have equal lengths")
        profiles.append(SubgroupProfile(**profile))
    del fields["version"]
    spec = CohortSpec(quiz_videos=set(fields.pop("quiz_videos")), profiles=profiles, **fields)
    _raise_if(spec.validate())
    return spec


def load_cohort_spec(path: str) -> CohortSpec:
    return load_json(path, spec_from_dict, CohortSpecError)


def save_cohort_spec(spec: CohortSpec, path: str) -> None:
    write_json(path, spec_to_dict(spec))
