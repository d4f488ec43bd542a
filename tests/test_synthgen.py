import re

import numpy as np
import pytest

from fedstudent.activity import (
    ActivityKind,
    KIND_SLOT,
    N_KINDS,
    activity_matrix,
    demographic_group,
    event_columns,
    quiz_responses,
    row_events,
)
from fedstudent.synthgen import (
    CohortSpec,
    CohortSpecError,
    SubgroupProfile,
    generate_cohort,
    kind_biased_transition,
    pass_logit,
    profile_divergence,
    uniform_transition,
)

N_VIDEOS = 6


def make_profile(name="M", population=10, **overrides):
    fields = dict(
        name=name,
        population=population,
        transition=uniform_transition(),
        video_access=np.full(N_VIDEOS, 1.0 / N_VIDEOS),
        quiz_correct_prob=0.6,
        length_mean=12.0,
        pass_intercept=0.0,
        pass_weight_correct=2.0,
        pass_weight_forum=0.0,
    )
    fields.update(overrides)
    return SubgroupProfile(**fields)


def make_spec(profiles, **overrides):
    fields = dict(
        n_videos=N_VIDEOS,
        quiz_videos=set(range(N_VIDEOS)),
        profiles=profiles,
        demographic_variable="G",
        unspecified_fraction=0.0,
    )
    fields.update(overrides)
    return CohortSpec(**fields)


def activity_heatmap(records, n_steps):
    """(7, n_steps) fraction of still-active students doing each kind at each step.

    The denominator at step t counts students whose sequence is longer than t.
    """
    counts = np.zeros((N_KINDS, n_steps))
    active = np.zeros(n_steps)
    for record in records:
        slots, _ = row_events(record.sequence[:n_steps])
        counts[slots, np.arange(len(slots))] += 1.0
        active[:len(slots)] += 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(active > 0, counts / active, 0.0)


def cohort_fingerprint(records):
    parts = []
    for r in records:
        parts.append((r.student_id, r.label, r.sequence.tobytes(), tuple(sorted(quiz_responses(r.sequence).items()))))
    return parts


class TestGenerateCohort:
    def test_determinism_byte_identical(self):
        spec = make_spec([make_profile("M"), make_profile("F")])
        a = generate_cohort(spec, seed=42)
        b = generate_cohort(spec, seed=42)
        assert cohort_fingerprint(a) == cohort_fingerprint(b)

    def test_different_seeds_differ(self):
        spec = make_spec([make_profile("M", population=20)])
        a = generate_cohort(spec, seed=1)
        b = generate_cohort(spec, seed=2)
        assert cohort_fingerprint(a) != cohort_fingerprint(b)

    def test_degenerate_bernoulli_all_watches_correct(self):
        watch_only = np.zeros((7, 7))
        # mass only on watch_noquiz/watch_correct/watch_incorrect columns
        watch_only[:, :3] = 1.0 / 3.0
        profile = make_profile("M", population=30, transition=watch_only, quiz_correct_prob=1.0)
        spec = make_spec([profile])
        records = generate_cohort(spec, seed=7)
        correct_slot = KIND_SLOT[ActivityKind.WATCH_CORRECT]
        for record in records:
            for row in record.sequence:
                if row[:N_VIDEOS].sum() == 1:  # watch event
                    assert row[N_VIDEOS + correct_slot] == 1.0
            assert all(v == 1 for v in quiz_responses(record.sequence).values())

    def test_very_negative_intercept_suppresses_passing(self):
        profile = make_profile(
            "M", population=1000, pass_intercept=-20.0, pass_weight_correct=0.0
        )
        records = generate_cohort(make_spec([profile]), seed=3)
        rate = sum(r.label for r in records) / len(records)
        assert rate < 0.01

    def test_sequences_are_uint8_zero_one_matrices(self):
        spec = make_spec([make_profile("M", population=40), make_profile("F", population=40)])
        for record in generate_cohort(spec, seed=5):
            assert record.sequence.dtype == np.uint8
            assert record.sequence.shape[1] == N_VIDEOS + N_KINDS
            assert set(np.unique(record.sequence)) <= {0, 1}

    def test_encoding_invariants_hold_for_generated_sequences(self):
        spec = make_spec([make_profile("M", population=40), make_profile("F", population=40)])
        for record in generate_cohort(spec, seed=5):
            for row in record.sequence:
                video_bits = row[:N_VIDEOS].sum()
                type_bits = row[N_VIDEOS:].sum()
                assert type_bits == 1.0
                assert video_bits in (0.0, 1.0)
                if row[N_VIDEOS + 4:].sum() == 1.0:  # forum
                    assert video_bits == 0.0
                else:
                    assert video_bits == 1.0

    def test_unspecified_fraction_blanks_demographics(self):
        spec = make_spec([make_profile("M", population=400)], unspecified_fraction=0.3)
        records = generate_cohort(spec, seed=9)
        missing = sum(1 for r in records if demographic_group(r.demographics, "G") is None)
        assert 0.2 < missing / len(records) < 0.4

    def test_invalid_spec_lists_all_violations(self):
        bad_profile = make_profile("M", population=0, quiz_correct_prob=1.5)
        with pytest.raises(CohortSpecError) as err:
            generate_cohort(make_spec([bad_profile]), seed=0)
        message = str(err.value)
        assert "population" in message and "quiz_correct_prob" in message

    def test_profile_name_must_match_variable(self):
        with pytest.raises(CohortSpecError, match="group tag"):
            generate_cohort(make_spec([make_profile("AS")]), seed=0)

    def test_violations_name_their_dotted_key(self):
        spec = make_spec([make_profile("M"), make_profile("M", population=0, length_mean=0.5)])
        problems = spec.validate()
        assert "profiles[1].population must be >= 1, got 0" in problems
        assert "profiles[1].length_mean must be >= 1, got 0.5" in problems
        assert "profiles[1].name 'M' repeats profiles[0].name" in problems
        assert not any(p.startswith("profiles[0].") for p in problems)

    @pytest.mark.parametrize("array", ["transition", "video_access"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, array, bad):
        profile = make_profile("F")
        values = getattr(profile, array).copy()
        values.flat[-1] = bad
        spec = make_spec([make_profile("M"), make_profile("F", **{array: values})])
        last = "[6][6]" if array == "transition" else f"[{N_VIDEOS - 1}]"
        message = f"profiles[1].{array}{last} must be a finite number, got {bad}"
        assert spec.validate() == [message]
        with pytest.raises(CohortSpecError, match=re.escape(message)):
            generate_cohort(spec, seed=0)

    # A profile built in code faces the checks a JSON spec does, types included: each
    # of these used to pass `validate()` and label every student 0, stop in numpy, or
    # generate one student.
    @pytest.mark.parametrize("key, value", [
        ("pass_intercept", np.nan), ("length_mean", np.inf), ("population", True),
    ])
    def test_code_built_profile_is_type_checked(self, key, value):
        spec = make_spec([make_profile("M", **{key: value})])
        with pytest.raises(CohortSpecError, match=rf"profiles\[0\]\.{key} must be "):
            generate_cohort(spec, seed=0)

    def test_pass_rate_matches_independent_oracle(self):
        # Direct re-derivation of the generative story with independent code:
        # walk the chain, track fractions, average the logistic pass probability.
        profile = make_profile(
            "M",
            population=2000,
            transition=kind_biased_transition(0.7),
            quiz_correct_prob=0.55,
            length_mean=15.0,
            pass_intercept=-1.0,
            pass_weight_correct=2.5,
            pass_weight_forum=1.0,
        )
        spec = make_spec([profile])
        records = generate_cohort(spec, seed=13)
        empirical = sum(r.label for r in records) / len(records)

        oracle_rng = np.random.default_rng(997)
        total_prob = 0.0
        n_mc = 4000
        for _ in range(n_mc):
            extra = profile.length_mean - 1.0
            p_nb = profile.length_dispersion / (profile.length_dispersion + extra)
            length = min(1 + oracle_rng.negative_binomial(profile.length_dispersion, p_nb), 256)
            kind = oracle_rng.choice(7, p=profile.transition.mean(axis=0))
            watches = corrects = forums = 0
            for _ in range(length):
                if kind < 4:
                    watches += 1
                    video = oracle_rng.choice(N_VIDEOS, p=profile.video_access)
                    if video in spec.quiz_videos and kind != 3:
                        if oracle_rng.random() < profile.quiz_correct_prob:
                            corrects += 1
                else:
                    forums += 1
                kind = oracle_rng.choice(7, p=profile.transition[kind])
            cf = corrects / max(1, watches)
            ff = forums / length
            logit = (
                profile.pass_intercept
                + profile.pass_weight_correct * cf
                + profile.pass_weight_forum * ff
            )
            total_prob += 1.0 / (1.0 + np.exp(-logit))
        assert abs(empirical - total_prob / n_mc) < 0.03

    def test_sequence_cap_respected(self):
        profile = make_profile("M", population=30, length_mean=500.0)
        spec = make_spec([profile], max_sequence=64)
        records = generate_cohort(spec, seed=2)
        assert max(r.length for r in records) <= 64

    def test_parallel_stream_independence(self):
        # Student k's record does not depend on how many students precede it.
        spec_small = make_spec([make_profile("M", population=3)])
        spec_large = make_spec([make_profile("M", population=10)])
        small = generate_cohort(spec_small, seed=21)
        large = generate_cohort(spec_large, seed=21)
        assert cohort_fingerprint(small) == cohort_fingerprint(large)[:3]


def hand_built_matrix(events):
    """The activity matrix of `events`, each a (kind, video, first-attempt score)."""
    hot_counts, hot_cols = [], []
    for kind, video, score in events:
        columns = event_columns(KIND_SLOT[kind], video, score, N_VIDEOS)
        hot_counts.append(len(columns))
        hot_cols.extend(columns)
    [matrix] = activity_matrix([len(events)], N_VIDEOS, hot_counts, hot_cols)
    return matrix


class TestPassLogit:
    A, WC, WF = -0.7, 2.5, 1.3

    def profile(self):
        return make_profile(pass_intercept=self.A, pass_weight_correct=self.WC,
                            pass_weight_forum=self.WF)

    def mixed_matrix(self):
        return hand_built_matrix([
            (ActivityKind.WATCH_CORRECT, 0, 1),
            (ActivityKind.WATCH_INCORRECT, 1, 0),
            (ActivityKind.WATCH_NOQUIZ, 2, None),
            (ActivityKind.FORUM_POST, None, None),
            (ActivityKind.FORUM_VIEW, None, None),
        ])

    def test_fractions_count_each_kind_off_the_matrix(self):
        # One correct first attempt in three watches; two forum events in five.
        expected = self.A + self.WC * (1 / 3) + self.WF * (2 / 5)
        assert pass_logit(self.profile(), self.mixed_matrix()) == expected

    def test_no_watches_gives_a_zero_correct_fraction(self):
        matrix = hand_built_matrix([(ActivityKind.FORUM_REPLY, None, None)] * 3)
        assert pass_logit(self.profile(), matrix) == self.A + self.WF * 1.0

    def test_float64_matrix_gives_the_same_float(self):
        matrix = self.mixed_matrix()
        profile = self.profile()
        assert pass_logit(profile, matrix.astype(np.float64)) == pass_logit(profile, matrix)


class TestProfileDivergence:
    def test_identical_profiles_zero(self):
        p = make_profile("M")
        assert profile_divergence(p, p) == 0.0

    def test_disjoint_unit_mass_rows(self):
        t_a = np.zeros((7, 7))
        t_b = np.zeros((7, 7))
        t_a[:, 0] = 1.0
        t_b[:, 1] = 1.0
        a = make_profile("M", transition=t_a)
        b = make_profile("F", transition=t_b)
        assert profile_divergence(a, b) == pytest.approx(1.0)

    def test_matches_brute_force_total_variation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ta = rng.dirichlet(np.ones(7), size=7)
            tb = rng.dirichlet(np.ones(7), size=7)
            va = rng.dirichlet(np.ones(N_VIDEOS))
            vb = rng.dirichlet(np.ones(N_VIDEOS))
            a = make_profile("M", transition=ta, video_access=va)
            b = make_profile("F", transition=tb, video_access=vb)
            rows = [0.5 * sum(abs(ta[i][j] - tb[i][j]) for j in range(7)) for i in range(7)]
            expected = sum(rows) / 7 + 0.5 * sum(abs(va[i] - vb[i]) for i in range(N_VIDEOS))
            assert profile_divergence(a, b) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = make_profile("M")
        b = make_profile("F", video_access=np.full(4, 0.25))
        with pytest.raises(ValueError):
            profile_divergence(a, b)


class TestHeatmapOrdering:
    def test_heatmap_gap_nondecreasing_in_divergence(self):
        base_access = np.full(N_VIDEOS, 1.0 / N_VIDEOS)
        gaps = []
        divergences = []
        for mix in (0.0, 0.5, 1.0):
            t_a = kind_biased_transition(0.9, stay=0.0)
            t_far = kind_biased_transition(0.1, stay=0.0)
            t_b = (1.0 - mix) * t_a + mix * t_far
            a = make_profile("M", population=120, transition=t_a, video_access=base_access)
            b = make_profile("F", population=120, transition=t_b, video_access=base_access)
            divergences.append(profile_divergence(a, b))
            seed_gaps = []
            for seed in range(5):
                records = generate_cohort(make_spec([a, b]), seed=seed)
                rec_a = [r for r in records if r.student_id.startswith("M-")]
                rec_b = [r for r in records if r.student_id.startswith("F-")]
                gap = np.abs(activity_heatmap(rec_a, 10) - activity_heatmap(rec_b, 10)).sum()
                seed_gaps.append(gap)
            gaps.append(np.mean(seed_gaps))
        assert divergences[0] < divergences[1] < divergences[2]
        assert gaps[0] <= gaps[1] + 1e-9
        assert gaps[1] <= gaps[2] + 1e-9
