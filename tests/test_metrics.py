import numpy as np
import pytest

from fedstudent.metrics import UndefinedAUCError, auc


def brute_force_auc(scores, labels):
    """Count correctly ordered positive/negative pairs, ties as one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_perfect_separation():
    assert auc([0.9, 0.1], [1, 0]) == 1.0


def test_all_ties_is_half():
    assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5


def test_hand_counted_pairs():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_single_class_rejected():
    with pytest.raises(UndefinedAUCError):
        auc([0.2, 0.4], [1, 1])


def test_matches_brute_force_on_random_instances_exactly():
    """Uniform scores, or scores with ties; and for each, -0.0 / +0.0 and all-tied tables."""
    rng = np.random.default_rng(0)
    zeros = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 2 == 0:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 5, size=n) / 4.0  # force ties
        got = auc(scores.tolist(), labels.tolist())
        expected = brute_force_auc(scores.tolist(), labels.tolist())
        assert got == expected
        signed_zeros = zeros.choice([-0.0, 0.0, 0.5], size=n)   # -0.0 ties +0.0
        for table in (signed_zeros, np.full(n, scores[0])):
            assert auc(table, labels) == brute_force_auc(table.tolist(), labels.tolist())


def test_invariance_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    base = auc(scores.tolist(), labels.tolist())
    for transform in (lambda x: 2 * x + 3, np.exp, lambda x: x ** 3):
        moved = transform(scores)
        assert auc(moved.tolist(), labels.tolist()) == base
