"""Accuracy metrics and a loss-threshold membership-inference attack.

The attack (Yeom et al. 2018, arXiv 1709.01604) calls a row a member when
the model's cross-entropy loss on it is at most the model's mean loss on
known members. It trains no attacker, so it cannot learn the member /
non-member prior of an unbalanced split. Its rate means something only next
to its references (Carlini et al. 2022, arXiv 2112.03570): the same attack
on rows the model never saw is its false-positive rate, and the runner
reports both.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, cross_entropy_rows, predict_proba_batch

# the attack trains nothing; retrain stays importable here because the
# benchmark's tracer (perfbench/tracing.py) wraps it by this module path
from .oracle import retrain  # noqa: F401


def accuracy(params: ModelParams, X: np.ndarray, y: np.ndarray) -> float | None:
    """Fraction of argmax-correct predictions; None on empty data.

    np.argmax breaks ties toward the lowest class index, as required.
    """
    if len(X) == 0:
        return None
    p = predict_proba_batch(params, X)
    return float((p.argmax(axis=1) == y).mean())


def mia_attack(params: ModelParams, member_X: np.ndarray, member_y: np.ndarray,
               X: np.ndarray, y: np.ndarray) -> float | None:
    """Loss-threshold membership inference (Yeom et al. 2018): the fraction
    of rows (X, y) whose cross-entropy loss under ``params`` is at most the
    mean loss on the member rows, a tie counting as a member. None on empty
    rows. It trains nothing and draws no random numbers."""
    if len(X) == 0:
        return None
    member = cross_entropy_rows(params, member_X, member_y)
    # the mean of n equal losses can round one ulp below them; clipping into
    # [min, max], where the exact mean lies, keeps the tie rule exact
    threshold = np.clip(member.mean(), member.min(), member.max())
    return float((cross_entropy_rows(params, X, y) <= threshold).mean())
