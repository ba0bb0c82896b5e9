"""Accuracy metrics and a loss-threshold membership-inference attack, read
from one forward pass of a model over a labelled split.

``score_rows`` runs the pass and keeps, per row, whether the prediction is
correct and the cross-entropy loss -log p_y; every metric is a reduction of
those over a subset of the split's rows, so the runner scores each model
once per split and round, however many metrics it reports.

The attack (Yeom et al. 2018, arXiv 1709.01604) calls a row a member when
the model's cross-entropy loss on it is at most the model's mean loss on
known members. It trains no attacker, so it cannot learn the member /
non-member prior of an unbalanced split. Its rate means something only next
to its references (Carlini et al. 2022, arXiv 2112.03570): the same attack
on rows the model never saw is its false-positive rate, and the runner
reports both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, forward_proba, neg_log_prob

# the attack trains nothing; retrain stays importable here because the
# benchmark's tracer (perfbench/tracing.py) wraps it by this module path
from .oracle import retrain  # noqa: F401


@dataclass
class RowScores:
    """One forward pass of a model over labelled rows, reduced per row:
    ``proba``, the class-major (C, n) probabilities; ``correct``, whether the
    argmax prediction (ties broken toward the lowest class, as ``np.argmax``
    breaks them) is the label; and ``loss``, -log p_y, computed on first
    use."""

    proba: np.ndarray
    correct: np.ndarray
    p_y: np.ndarray

    @functools.cached_property
    def loss(self) -> np.ndarray:
        return neg_log_prob(self.p_y)


def score_rows(params: ModelParams, X: np.ndarray, y: np.ndarray) -> RowScores:
    """The forward pass of ``params`` over the rows X with labels y."""
    y = np.asarray(y, dtype=np.int64)
    p = forward_proba(params, X)[0]
    C, n = p.shape
    # p_y read from the flat class-major buffer: a gather of one value per
    # row, where p[y, arange(n)] costs three times as much
    p_y = p.ravel().take(y * n + np.arange(n))
    top = p.max(axis=0)
    correct = p_y == top
    # a lower class that reaches the top takes the argmax from y; these
    # passes cost about a quarter of the strided argmax over the (n, C) view
    for c in range(C - 1):
        correct &= (p[c] != top) | (y <= c)
    return RowScores(p, correct, p_y)


def accuracy(correct: np.ndarray) -> float | None:
    """Fraction of correct predictions among the rows of ``correct``, a
    subset of ``RowScores.correct``; None on no rows."""
    if len(correct) == 0:
        return None
    return float(correct.mean())


def mia_attack(member_loss: np.ndarray, loss: np.ndarray) -> float | None:
    """Loss-threshold membership inference (Yeom et al. 2018): the fraction
    of rows whose loss is at most the mean of ``member_loss``, the losses of
    the same model on its member rows, a tie counting as a member. None on
    no rows. It trains nothing and draws no random numbers."""
    if len(loss) == 0:
        return None
    # the mean of n equal losses can round one ulp below them; clipping into
    # [min, max], where the exact mean lies, keeps the tie rule exact
    threshold = np.clip(member_loss.mean(), member_loss.min(), member_loss.max())
    return float((loss <= threshold).mean())
