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
records that generator gave, bit for bit. A cohort spec, from JSON or built in
code, has one check, `_read_spec`: `config.read_keys` reads its keys, as the
experiment config's are, then the shapes, sums, names and length draws the
generator relies on are checked, and every fault is named in one error.
"""

from __future__ import annotations

import math
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
    DEMOGRAPHIC_VARIABLES,
    VARIABLES,
    Demographics,
    InputError,
    StudentRecord,
    activity_matrix,
    event_columns,
    row_events,
)
from .config import Key, load_json, read_keys, write_json
from .splits import rng_for

# The span a generated birth year is drawn from, uniformly, for each birth-year band.
YEAR_RANGES = {"le1980": (1955, 1980), "1981to1990": (1981, 1990), "gt1990": (1991, 2004)}

# numpy's largest Poisson mean: `negative_binomial` raises when a draw could need more.
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class CohortSpecError(InputError):
    """Raised when a cohort specification violates its invariants."""

    document = "cohort spec"


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
        """Every problem `_read_spec` finds in the spec's plain form, each naming its dotted
        key (e.g. "profiles[0].population"), or the one JSON-type fault that stops it."""
        try:
            return _read_spec(spec_to_dict(self))[2]
        except CohortSpecError as exc:
            return [str(exc)]


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


def _read_spec(data) -> tuple[dict, list[dict], list[str]]:
    """The cohort spec `data`'s values, each profile's values and every problem with them:
    first what `read_keys` finds against `SPEC_KEYS` and `PROFILE_KEYS`, then, in profile
    order, the faults of the shapes, sums, names and length draw the generator relies on.
    A check whose key had a fault is skipped."""
    fields, problems = read_keys(data, SPEC_KEYS, CohortSpecError)
    profiles = []
    for i, entry in enumerate(fields.pop("profiles")):
        profile, found = read_keys(entry, PROFILE_KEYS, CohortSpecError, f"profiles[{i}]")
        profiles.append(profile)
        problems += found
    n_videos = fields.get("n_videos")
    if n_videos and not all(0 <= v < n_videos for v in fields["quiz_videos"]):
        problems.append("quiz_videos must be a subset of [0, n_videos)")
    variable = DEMOGRAPHIC_VARIABLES.get(fields.get("demographic_variable"))
    first_with_name: dict[str, int] = {}
    for i, p in enumerate(profiles):
        where, name, transition = f"profiles[{i}]", p.get("name"), p.get("transition")
        if transition is not None and {len(transition), *map(len, transition)} != {N_KINDS}:
            problems.append(f"{where}.transition must be 7x7")
        elif transition is not None:
            if np.any(np.array(transition) < 0):
                problems.append(f"{where}.transition has negative entries")
            if np.any(np.abs(np.sum(transition, axis=1) - 1.0) > 1e-9):
                problems.append(f"{where}.transition rows must sum to 1")
        if "video_access" in p:
            access = np.array(p["video_access"])
            if n_videos and len(access) != n_videos:
                problems.append(f"{where}.video_access must have length {n_videos}")
            elif np.any(access < 0) or abs(access.sum() - 1.0) > 1e-9:
                problems.append(f"{where}.video_access must be a distribution")
        if name is not None and first_with_name.setdefault(name, i) != i:
            problems.append(f"{where}.name {name!r} repeats profiles[{first_with_name[name]}].name")
        if name is not None and variable is not None and name not in variable.tags:
            problems.append(f"{where}.name {name!r} must be a {fields['demographic_variable']} "
                            f"group tag ({sorted(variable.tags)})")
        if "length_mean" in p and "length_dispersion" in p:
            # numpy's own test in negative_binomial, on the p that _draw_length passes it.
            r = p["length_dispersion"]
            p_nb = r / (r + (p["length_mean"] - 1.0))
            if p_nb == 0 or (1 - p_nb) / p_nb * (r + 10 * math.sqrt(r)) > POISSON_LAM_MAX:
                problems.append(f"{where}.length_mean {p['length_mean']!r} with {where}.length_dispersion "
                                f"{r!r} is outside the length draw's domain")
    if not profiles:
        problems.append("at least one profile is required")
    return fields, profiles, problems


def _raise_if(problems: list[str]) -> None:
    if problems:
        raise CohortSpecError("invalid cohort spec: " + "; ".join(problems))


def _demographics_for(variable: str, group: str, rng: np.random.Generator) -> Demographics:
    row = DEMOGRAPHIC_VARIABLES[variable]
    value = group
    if row.edges:
        lo, hi = YEAR_RANGES[group]
        value = int(rng.integers(lo, hi + 1))
    return Demographics(**{row.field: value})


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
    counts = np.bincount(row_events(sequence)[0], minlength=N_KINDS).tolist()
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
    hot_counts: list[int] = []
    hot_cols: list[int] = []
    for _ in range(length):
        slot = kind_idx
        video = score = None
        if slot < N_WATCH:
            video = bisect_right(tables.video, rng.random())
            if video not in spec.quiz_videos:
                slot = SLOT_NOQUIZ
            elif slot != SLOT_NOANSWER:
                score = int(rng.random() < profile.quiz_correct_prob)
        columns = event_columns(slot, video, score, spec.n_videos)
        hot_counts.append(len(columns))
        hot_cols.extend(columns)
        rng.integers(1, 3600)
        kind_idx = bisect_right(tables.next_kind[kind_idx], rng.random())
    [sequence] = activity_matrix([length], spec.n_videos, hot_counts, hot_cols)
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
    fields, profiles, problems = _read_spec(data)
    _raise_if(problems)
    del fields["version"]
    return CohortSpec(quiz_videos=set(fields.pop("quiz_videos")),
                      profiles=[SubgroupProfile(**profile) for profile in profiles], **fields)


def load_cohort_spec(path: str) -> CohortSpec:
    return load_json(path, spec_from_dict, CohortSpecError)


def save_cohort_spec(spec: CohortSpec, path: str) -> None:
    write_json(path, spec_to_dict(spec))
