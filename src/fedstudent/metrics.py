"""Rank-based AUC with midrank tie handling, over an array of scores and one of 0/1 labels."""

from __future__ import annotations

import numpy as np


class UndefinedAUCError(ValueError):
    """Raised when AUC is requested for a single-class sample."""


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied scores sharing the mean of their ranks; each NaN ranks alone."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError(
            f"AUC undefined: {n_pos} positive and {n_neg} negative labels"
        )
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
