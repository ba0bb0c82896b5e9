"""Accuracy metrics and a confidence-based membership-inference attack."""

from __future__ import annotations

import numpy as np

from .model import (
    Architecture,
    ModelParams,
    predict_proba_batch,
)
from .oracle import RetrainConfig, retrain

MIA_MAX_PER_SIDE = 10000


def accuracy(params: ModelParams, X: np.ndarray, y: np.ndarray) -> float | None:
    """Fraction of argmax-correct predictions; None on empty data.

    np.argmax breaks ties toward the lowest class index, as required.
    """
    if len(X) == 0:
        return None
    p = predict_proba_batch(params, X)
    return float((p.argmax(axis=1) == y).mean())


def confidence_features(params: ModelParams, X: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Per-sample attack features: max probability, true-class probability,
    prediction entropy."""
    p = predict_proba_batch(params, X)
    max_p = p.max(axis=1)
    true_p = p[np.arange(len(y)), y]
    ent = -(p * np.log(np.maximum(p, 1e-12))).sum(axis=1)
    return np.column_stack([max_p, true_p, ent])


def mia_attack(params: ModelParams,
               member_X: np.ndarray, member_y: np.ndarray,
               nonmember_X: np.ndarray, nonmember_y: np.ndarray,
               forget_X: np.ndarray, forget_y: np.ndarray,
               seed: int = 0) -> float:
    """Membership-inference attack accuracy on the forgotten points.

    A seeded logistic attacker is trained on confidence features, with a
    sample of remaining data as the member class and test data as the
    non-member class (at most 10000 a side). Returns the fraction of
    forgotten points the attacker labels as members.
    """
    rng = np.random.default_rng(seed)

    def sample(X, y):
        if len(X) > MIA_MAX_PER_SIDE:
            idx = rng.choice(len(X), MIA_MAX_PER_SIDE, replace=False)
            return X[idx], y[idx]
        return X, y

    mX, my = sample(member_X, member_y)
    nX, ny = sample(nonmember_X, nonmember_y)
    feats = np.vstack([
        confidence_features(params, mX, my),
        confidence_features(params, nX, ny),
    ])
    labels = np.concatenate([
        np.ones(len(mX), dtype=np.int64),
        np.zeros(len(nX), dtype=np.int64),
    ])

    attacker_arch = Architecture(input_dim=3, n_classes=2)
    attacker = retrain(
        feats, labels, attacker_arch,
        RetrainConfig(epochs=200, lr=0.5, seed=seed),
    )
    forget_feats = confidence_features(params, forget_X, forget_y)
    pred = predict_proba_batch(attacker, forget_feats).argmax(axis=1)
    return float((pred == 1).mean())
