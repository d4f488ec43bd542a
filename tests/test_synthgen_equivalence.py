"""The generator against `reference.synthgen_v0`, its frozen `rng.choice` predecessor.

Every categorical draw is now one uniform searched in a precomputed CDF, the
draw `rng.choice` makes itself, and each record's matrix is written in place.
So every cohort must match the oracle's byte for byte: ids, demographics,
labels, quiz responses (in insertion order) and sequence bytes. The oracle
builds float64 matrices and the generator uint8 ones, so the oracle's matrix
is compared cast to uint8 (exact for 0/1 cells, which is checked), and the
generator's dtype must be uint8. The oracle stores each record's quiz
responses; the package's records keep none, so `activity.quiz_responses`
reads them off the generated matrix.
"""

import pathlib

import numpy as np
import pytest

from fedstudent.activity import Demographics, quiz_responses
from fedstudent.synthgen import (
    CohortSpec,
    SubgroupProfile,
    generate_cohort,
    kind_biased_transition,
    load_cohort_spec,
    uniform_transition,
)
from reference import synthgen_v0 as ref

N_VIDEOS = 7
EXAMPLE_SPEC = pathlib.Path(__file__).resolve().parents[1] / "examples_config" / "cohort.json"


def profile(name, population=25, **overrides):
    fields = dict(
        name=name, population=population, transition=kind_biased_transition(0.6),
        video_access=np.arange(1.0, N_VIDEOS + 1) / np.arange(1.0, N_VIDEOS + 1).sum(),
        quiz_correct_prob=0.55, length_mean=9.0, length_dispersion=1.5,
        pass_intercept=-1.0, pass_weight_correct=2.5, pass_weight_forum=1.0,
    )
    fields.update(overrides)
    return SubgroupProfile(**fields)


def spec(profiles, **overrides):
    fields = dict(n_videos=N_VIDEOS, quiz_videos={0, 2, 3, 6}, profiles=profiles,
                  demographic_variable="G")
    fields.update(overrides)
    return CohortSpec(**fields)


def edge_mass_profile(name):
    """Zero mass on the first and last video and on the first and last kind."""
    access = np.array([0.0, 0.1, 0.3, 0.2, 0.15, 0.25, 0.0])
    transition = np.zeros((7, 7))
    transition[:, 1:6] = 0.2
    return profile(name, transition=transition, video_access=access)


def random_profile(name, seed):
    rng = np.random.default_rng(seed)
    return profile(name, transition=rng.dirichlet(np.ones(7), size=7),
                   video_access=rng.dirichlet(np.full(N_VIDEOS, 0.5)),
                   quiz_correct_prob=float(rng.random()), length_mean=float(rng.uniform(1, 30)))


CASES = {
    "gender": spec([profile("M"), profile("F", transition=uniform_transition())]),
    "continent": spec([profile("AS"), profile("EU"), profile("SA", population=5)],
                      demographic_variable="C"),
    "birth_year": spec([profile("le1980"), profile("1981to1990"), profile("gt1990")],
                       demographic_variable="Y"),
    "unspecified": spec([profile("M", population=60), profile("F", population=60)],
                        unspecified_fraction=0.35),
    "unspecified_years": spec([profile("le1980", population=60)], demographic_variable="Y",
                              unspecified_fraction=0.4),
    "capped": spec([profile("M", length_mean=200.0)], max_sequence=24),
    "length_one": spec([profile("M", length_mean=1.0)]),
    "no_quiz_videos": spec([profile("M")], quiz_videos=set()),
    "always_wrong_always_right": spec([profile("M", quiz_correct_prob=0.0),
                                       profile("F", quiz_correct_prob=1.0)]),
    "zero_mass_edges": spec([edge_mass_profile("M")]),
    "random": spec([random_profile("M", 1), random_profile("F", 2)]),
}


def as_uint8(matrix):
    """The oracle's float64 matrix as the one byte per cell records keep; exact for 0/1 cells."""
    stored = matrix.astype(np.uint8)
    assert np.array_equal(stored, matrix)
    return stored


def records_bytes(records, stored=lambda matrix: matrix, responses=lambda r: quiz_responses(r.sequence)):
    matrices = [stored(r.sequence) for r in records]
    return [(r.student_id, r.demographics, r.label, list(responses(r).items()),
             m.dtype.str, m.shape, m.tobytes()) for r, m in zip(records, matrices)]


def assert_matches_oracle(cohort, seed):
    got = records_bytes(generate_cohort(cohort, seed))
    assert got == records_bytes(ref.generate_cohort(cohort, seed), as_uint8, lambda r: r.quiz_responses)
    assert {dtype for *_, dtype, _, _ in got} == {np.dtype(np.uint8).str}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_matches_frozen_reference(name, seed):
    assert_matches_oracle(CASES[name], seed)


@pytest.mark.parametrize("seed", [7, 314])
def test_example_cohort_matches_frozen_reference(seed):
    assert_matches_oracle(load_cohort_spec(str(EXAMPLE_SPEC)), seed)


def test_cases_reach_their_edges():
    """The cases above exercise what their names say."""
    records = {name: generate_cohort(cohort, 0) for name, cohort in CASES.items()}
    assert max(r.length for r in records["capped"]) == 24
    assert {r.length for r in records["length_one"]} == {1}
    assert not any(quiz_responses(r.sequence) for r in records["no_quiz_videos"])
    scores = {"M": set(), "F": set()}
    for r in records["always_wrong_always_right"]:
        scores[r.student_id[0]].update(quiz_responses(r.sequence).values())
    assert scores == {"M": {0}, "F": {1}}
    edges = np.concatenate([r.sequence for r in records["zero_mass_edges"]])
    # No first or last video, and no forum_view (the last kind); watch_noquiz
    # (the first kind) still appears, as non-quiz videos resolve to it.
    assert edges[:, [0, N_VIDEOS - 1, N_VIDEOS + 6]].sum() == 0
    assert edges[:, 1:N_VIDEOS - 1].sum() > 0
    years = [r.demographics.birth_year for r in records["birth_year"]]
    assert all(y is not None for y in years) and len(set(years)) > 3
    unspecified = records["unspecified"] + records["unspecified_years"]
    assert 0 < sum(r.demographics == Demographics() for r in unspecified) < len(unspecified)
