import numpy as np
import pytest

from fedstudent.activity import (
    KIND_SLOT,
    SLOT_CORRECT,
    SLOT_INCORRECT,
    SLOT_NOANSWER,
    SLOT_NOQUIZ,
    ActivityKind,
    Demographics,
    StudentRecord,
    activity_matrix,
    event_columns,
)
from fedstudent.irt import (
    PRIOR_WEIGHT,
    RaschFit,
    ResponseMatrix,
    ResponseMatrixError,
    _penalized_ll,
    build_response_matrix,
    fit_rasch,
    irt_confidence,
)
from fedstudent.splits import SubgroupKey
from fedstudent.tracking import AccessMonitor, track_records


def simulate_matrix(n_students, n_items, seed, theta=None, b=None):
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = rng.normal(0.0, 1.0, size=n_students)
    if b is None:
        b = rng.normal(0.0, 1.0, size=n_items)
    b = b - b.mean()
    p = 1.0 / (1.0 + np.exp(-(theta[:, None] - b[None, :])))
    responses = (rng.random((n_students, n_items)) < p).astype(float)
    matrix = ResponseMatrix(
        student_ids=[f"s{i}" for i in range(n_students)],
        item_ids=list(range(n_items)),
        responses=responses,
    )
    return matrix, theta, b


def predict(fit, student_id, item_id):
    """The Rasch model's probability that `student_id` answers `item_id` correctly."""
    return float(1.0 / (1.0 + np.exp(-(fit.abilities[student_id] - fit.difficulties[item_id]))))


class TestFitRasch:
    def test_equal_ability_and_difficulty_predicts_half(self):
        fit = RaschFit(abilities={"s": 0.7}, difficulties={0: 0.7},
                       mean_log_likelihood=0.0, converged=True)
        assert predict(fit, "s", 0) == pytest.approx(0.5)

    def test_all_correct_student_has_finite_ability(self):
        rng = np.random.default_rng(0)
        responses = rng.integers(0, 2, size=(30, 8)).astype(float)
        responses[0] = 1.0
        matrix = ResponseMatrix(
            student_ids=[f"s{i}" for i in range(30)],
            item_ids=list(range(8)),
            responses=responses,
        )
        fit = fit_rasch(matrix, max_iters=200, tol=1e-8)
        assert np.isfinite(fit.abilities["s0"])
        for item in fit.difficulties:
            assert 0.0 < predict(fit, "s0", item) < 1.0

    def test_parameter_recovery_on_synthetic_data(self):
        matrix, theta_true, b_true = simulate_matrix(200, 20, seed=5)
        fit = fit_rasch(matrix, max_iters=200, tol=1e-7)
        b_hat = np.array([fit.difficulties[i] for i in range(20)])
        corr = np.corrcoef(b_hat, b_true)[0, 1]
        rmse = float(np.sqrt(np.mean((b_hat - b_true) ** 2)))
        assert corr >= 0.9
        assert rmse <= 0.3

    def test_objective_monotone_nondecreasing(self):
        matrix, _, _ = simulate_matrix(60, 10, seed=9)
        fit = fit_rasch(matrix, max_iters=100, tol=1e-8)
        history = np.array(fit.objective_history)
        assert np.all(np.diff(history) >= -1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_when_abilities_sit_off_centre(self, seed):
        """A 250 x 6 table, 30% missing, abilities from N(1, 1.5^2): the likelihood is flat
        along a common shift of abilities and difficulties, which only the prior pins, and
        without re-centring the alternating steps crawl along it past max_iters."""
        rng = np.random.default_rng(seed)
        matrix, _, _ = simulate_matrix(250, 6, seed, theta=rng.normal(1.0, 1.5, size=250))
        responses = matrix.responses.copy()
        responses[rng.random(responses.shape) < 0.3] = np.nan
        keep = ~np.isnan(responses).all(axis=1)
        matrix = ResponseMatrix([s for s, k in zip(matrix.student_ids, keep) if k],
                                matrix.item_ids, responses[keep])
        fit = fit_rasch(matrix)
        assert fit.converged
        assert np.all(np.diff(fit.objective_history) >= 0.0)

    def test_difficulties_anchored_to_zero_mean(self):
        matrix, _, _ = simulate_matrix(80, 12, seed=3)
        fit = fit_rasch(matrix)
        values = np.array(list(fit.difficulties.values()))
        assert abs(values.mean()) < 1e-9

    def test_shift_invariance_of_predictions(self):
        matrix, _, _ = simulate_matrix(40, 6, seed=4)
        fit = fit_rasch(matrix)
        c = 2.5
        for sid in list(fit.abilities)[:5]:
            for item in fit.difficulties:
                shifted = 1.0 / (1.0 + np.exp(-((fit.abilities[sid] + c) - (fit.difficulties[item] + c))))
                assert shifted == pytest.approx(predict(fit, sid, item))

    def test_missing_entries_supported(self):
        matrix, _, _ = simulate_matrix(50, 8, seed=6)
        responses = matrix.responses.copy()
        rng = np.random.default_rng(0)
        mask = rng.random(responses.shape) < 0.3
        responses[mask] = np.nan
        keep = ~np.isnan(responses).all(axis=1)
        matrix2 = ResponseMatrix(
            student_ids=[s for s, k in zip(matrix.student_ids, keep) if k],
            item_ids=matrix.item_ids,
            responses=responses[keep],
        )
        fit = fit_rasch(matrix2)
        assert len(fit.abilities) == int(keep.sum())

    def test_all_missing_row_rejected(self):
        responses = np.array([[1.0, 0.0], [np.nan, np.nan]])
        matrix = ResponseMatrix(student_ids=["a", "b"], item_ids=[0, 1], responses=responses)
        with pytest.raises(ResponseMatrixError, match="no observed"):
            fit_rasch(matrix)


class TestIrtConfidence:
    def fit_with_ll(self, ll):
        return RaschFit(abilities={}, difficulties={}, mean_log_likelihood=ll, converged=True)

    def test_identical_fits_equal_weights(self):
        fits = {
            SubgroupKey("G", "M"): self.fit_with_ll(-0.5),
            SubgroupKey("G", "F"): self.fit_with_ll(-0.5),
        }
        weights = irt_confidence(fits)
        assert all(w == pytest.approx(0.5) for w in weights.values())

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        fits = {
            SubgroupKey("C", tag): self.fit_with_ll(float(-rng.random()))
            for tag in ("AS", "AF", "EU", "NA")
        }
        weights = irt_confidence(fits)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_normalization_formula(self):
        fits = {
            SubgroupKey("G", "M"): self.fit_with_ll(-0.4),
            SubgroupKey("G", "F"): self.fit_with_ll(-0.8),
        }
        weights = irt_confidence(fits)
        e1, e2 = np.exp(-0.4), np.exp(-0.8)
        assert weights[SubgroupKey("G", "M")] == pytest.approx(e1 / (e1 + e2), rel=1e-9)
        assert weights[SubgroupKey("G", "F")] == pytest.approx(e2 / (e1 + e2), rel=1e-9)


def quiz_record(sid, events, n_videos=4):
    """A record whose matrix holds `events`, each a (kind slot, video, first-attempt score)."""
    hot_counts, hot_cols = [], []
    for slot, video, score in events:
        columns = event_columns(slot, video, score, n_videos)
        hot_counts.append(len(columns))
        hot_cols += columns
    [matrix] = activity_matrix([len(events)], n_videos, hot_counts, hot_cols)
    return StudentRecord(sid, Demographics(), matrix)


class TestBuildResponseMatrix:
    def records(self):
        return [
            quiz_record("a", [(SLOT_CORRECT, 0, 1), (SLOT_INCORRECT, 2, 0), (SLOT_CORRECT, 0, 0)]),
            quiz_record("b", [(SLOT_NOQUIZ, 1, None), (SLOT_CORRECT, 2, 1)]),
            quiz_record("c", [(SLOT_NOANSWER, 3, None), (KIND_SLOT[ActivityKind.FORUM_POST], None, None)]),
        ]

    def test_builds_from_records(self):
        matrix = build_response_matrix(self.records())
        assert matrix.student_ids == ["a", "b"]
        assert matrix.item_ids == [0, 2]
        assert matrix.responses[0, 0] == 1.0  # the first attempt, not the later miss
        assert matrix.responses[0, 1] == 0.0
        assert np.isnan(matrix.responses[1, 0])
        assert matrix.responses[1, 1] == 1.0

    def test_no_responses_rejected(self):
        with pytest.raises(ResponseMatrixError):
            build_response_matrix([quiz_record("a", [(SLOT_NOQUIZ, 0, None)])])

    def test_reads_each_tracked_sequence_once_in_the_current_phase(self):
        monitor = AccessMonitor()
        tracked = track_records(self.records(), monitor)
        with monitor.phase("train"):
            build_response_matrix(list(tracked.values()))
        assert monitor.counts == {("train", sid, "sequence"): 1 for sid in "abc"}


def two_log_ll(theta, b, filled, obs):
    """The log-likelihood summed as r * log p + (1 - r) * log(1 - p), two logs per cell."""
    p = np.clip(1.0 / (1.0 + np.exp(-np.clip(theta[:, None] - b[None, :], -500, 500))), 1e-12, 1.0 - 1e-12)
    return np.where(obs, filled * np.log(p) + (1.0 - filled) * np.log(1.0 - p), 0.0).sum()


def test_one_log_per_cell_gives_the_two_log_sums_bit_for_bit():
    """Responses are exactly 0 or 1, so log(p or 1 - p) is each cell's two-log value: the
    penalized objective and the fit's mean log-likelihood come out bit-equal on random
    tables with missing cells."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_students, n_items = rng.integers(2, 40), rng.integers(2, 12)
        matrix, _, _ = simulate_matrix(n_students, n_items, seed, theta=rng.normal(0, 2, n_students))
        responses = matrix.responses.copy()
        responses[rng.random(responses.shape) < 0.3] = np.nan
        responses[np.arange(n_students), rng.integers(0, n_items, n_students)] = 1.0
        responses[rng.integers(0, n_students, n_items), np.arange(n_items)] = 0.0
        matrix = ResponseMatrix(matrix.student_ids, matrix.item_ids, responses)
        obs = matrix.observed()
        filled = np.where(obs, responses, 0.0)
        theta, b = rng.normal(0, 3, n_students), rng.normal(0, 3, n_items)
        penalty = 0.5 * PRIOR_WEIGHT * (theta @ theta + b @ b)
        assert _penalized_ll(theta, b, filled, obs) == float(two_log_ll(theta, b, filled, obs) - penalty)
        fit = fit_rasch(matrix)
        theta = np.array([fit.abilities[s] for s in matrix.student_ids])
        b = np.array([fit.difficulties[i] for i in matrix.item_ids])
        assert fit.mean_log_likelihood == float(two_log_ll(theta, b, filled, obs) / obs.sum())
