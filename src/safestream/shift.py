"""Posterior-shift estimation: approximate the retrained model's predictions
by reweighting the initial model with label and class-conditional density
ratios, then renormalizing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .gaussian import ClassConditionalGaussians
# the shift layer takes the w_0 predictions as input and runs no forward
# pass; predict_proba_batch stays importable here because the benchmark's
# tracer (perfbench/tracing.py) captures it by this module path
from .model import predict_proba_batch  # noqa: F401

RATIO_FLOOR = 1e-6
RATIO_CEIL = 1e6


def label_ratio(n_t_y: int, n_0_y: int, size_dt: int, size_d0: int) -> float:
    """(n_t(y)/n_0(y)) * (|D_0|/|D_t|); floored when the class is exhausted."""
    if n_0_y <= 0:
        raise ConfigError(f"initial class count must be positive, got {n_0_y}")
    if size_dt <= 0:
        raise ConfigError(f"remaining-data size must be positive, got {size_dt}")
    if n_t_y == 0:
        return RATIO_FLOOR  # class fully forgotten; keep the target well-defined
    return (n_t_y / n_0_y) * (size_d0 / size_dt)


def density_ratio(Z: np.ndarray, gaussians: ClassConditionalGaussians,
                  i) -> np.ndarray:
    """Current-vs-initial Gaussian density ratio N(z | mu_t, Sigma_t) /
    N(z | 0, I) at standardized rows Z under the classes of the slabs i of
    ``gaussians``, from their stacked log-ratio coefficients
    (``ClassConditionalGaussians.log_ratio``), clipped to [1e-6, 1e6]."""
    with np.errstate(over="ignore"):
        return np.clip(np.exp(gaussians.log_ratio(Z, i)), RATIO_FLOOR, RATIO_CEIL)


class ShiftEstimator:
    """Builds per-class shift ratios q_t and the resulting prediction targets.

    Ratios multiply the initial model's class probabilities componentwise and
    the result is renormalized. No row's mass can vanish or overflow: every
    q is a density ratio clipped to [1e-6, 1e6] times a positive label
    ratio, and every column of w_0 probabilities has an entry >= 1/C. It
    owns the initial class counts and |D_0|.
    """

    def __init__(self, gaussians: ClassConditionalGaussians,
                 counts0: dict[int, int]):
        self.gaussians = gaussians
        self.counts0 = dict(counts0)
        self.size_d0 = sum(self.counts0.values())

    def class_ratio_matrix(self, ledger, counts_t: dict[int, int],
                           size_dt: int) -> np.ndarray:
        """(n, C) matrix of q_t^{(c)}(x_i) over the n rows of ``ledger`` (an
        ``engine.ForgettingLedger``) and every class c: each class's label
        ratio times the ledger's clipped density ratios, refreshed first
        (``refresh_ratios``); a transposed view of the class-major array it
        fills."""
        ratios = ledger.refresh_ratios(self.gaussians)
        q = np.full((max(self.counts0) + 1, ledger.count), RATIO_FLOOR)
        q[self.gaussians.classes] = np.array(self.label_ratios(counts_t, size_dt))[:, None] * ratios
        return q.T

    def label_ratios(self, counts_t: dict[int, int], size_dt: int) -> list[float]:
        """``label_ratio`` of every fitted class, in the order of
        ``gaussians.classes``, at the current counts and |D_t|."""
        return [label_ratio(counts_t.get(label, 0), self.counts0[label], size_dt,
                            self.size_d0)
                for label in self.gaussians.classes]

    def target_predictions(self, ledger, counts_t: dict[int, int],
                           size_dt: int) -> np.ndarray:
        """(n, C) reweighted, renormalized stand-ins for the retrained
        predictions at the n rows of ``ledger``, from their class-major
        (C, n) w_0 probabilities ``ledger.P0`` and ``class_ratio_matrix``."""
        raw = ledger.P0 * self.class_ratio_matrix(ledger, counts_t, size_dt).T
        return (raw / raw.sum(axis=0)).T
