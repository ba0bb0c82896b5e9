"""Ground-truth machinery: retrain-from-scratch exact unlearning, direct risk
evaluation, and dynamic-regret / path-length accounting.

The streaming engine never touches the training data after initialization;
everything here runs on retained data and exists to measure the engine, whose
losses, predictions and targets it reads only from the arrays it is passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    init_params,
    kl_rows,
    mean_cross_entropy,
    prepare_rows,
)


# full-batch descent stops once the gradient norm falls below this
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class RetrainConfig:
    """Full-batch gradient descent settings for the oracle, checked when built."""

    epochs: int = 300
    lr: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.epochs >= 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def retrain(X: np.ndarray, y: np.ndarray, arch: Architecture,
            config: RetrainConfig) -> ModelParams:
    """Train from a seeded fresh initialization until max epochs or the
    gradient norm drops below ``GRAD_TOL``."""
    # rows prepared once, before the first epoch; each epoch updates theta in place
    rows = prepare_rows(arch, X, y)
    params = init_params(arch, np.random.default_rng(config.seed))
    for _ in range(config.epochs):
        g = grad_cross_entropy(params, rows)
        # np.linalg.norm of a 1-d float vector is this same sqrt(g @ g); a
        # square that is not finite leaves g finite only when it overflowed
        sq = g @ g
        if not np.isfinite(sq) and not np.all(np.isfinite(g)):
            raise NumericalError("retrain diverged: non-finite gradient")
        if np.sqrt(sq) < GRAD_TOL:
            break
        params.theta -= config.lr * g
    if not np.isfinite(mean_cross_entropy(params, rows)):
        raise NumericalError("retrain diverged: non-finite loss")
    return params


def true_risk(retained_loss: np.ndarray, p_led: np.ndarray, q_led: np.ndarray,
              lam: float) -> float:
    """The mean of ``retained_loss``, the model's per-row losses on the
    remaining data, plus the mean KL, weighted by ``lam``, from the model's
    predictions ``p_led`` to the retrained model's ``q_led`` over all
    forgotten points, both (count, C) in ledger order. No forgotten points ->
    retention-only risk."""
    risk = float(retained_loss.mean())
    if len(p_led):
        risk += (lam / len(p_led)) * kl_rows(p_led, q_led).sum()
    return float(risk)


def surrogate_risk(loss0: np.ndarray, loss_led: np.ndarray, p_led: np.ndarray,
                   targets: np.ndarray | None, size_dt: int, lam: float) -> float:
    """The engine-side risk estimate: the retention decomposition

        (|D_0|/|D_t|) R_0(w) - (1/|D_t|) sum_forgotten loss(w)

    plus the forgetting term, weighted by ``lam``, toward ``targets``, the
    shift targets of the ledger rows at the round's class statistics and
    counts (``ShiftEstimator.target_predictions``, which ``run`` calls for
    this estimate alone), in place of the retrained model. R_0 is the mean
    of ``loss0``, the model's per-row losses on the initial data D_0;
    ``loss_led`` and ``p_led`` are its losses and (count, C) predictions on
    the forgotten points in ledger order. Requires the retained initial
    data, so only ``run`` in oracle mode calls it."""
    r0 = float(loss0.mean())
    risk = (len(loss0) / size_dt) * r0
    if len(p_led):
        risk -= loss_led.sum() / size_dt
        risk += (lam / len(p_led)) * kl_rows(p_led, targets).sum()
    return float(risk)


def theorem_gap_bound(n_classes: int, total_forgotten: int, size_dt: int) -> float:
    """Diagnostic bound C * sum|F_i| / |D_t|^{3/2} for the surrogate-vs-true
    risk gap; reported alongside the measured gap, never asserted."""
    return n_classes * total_forgotten / size_dt**1.5


@dataclass
class RegretAccount:
    """Per-round regret bookkeeping against the retrain oracle."""

    rounds: int = 0
    cumulative: float = 0.0
    v_t: float = 0.0
    _prev_star: np.ndarray | None = None

    def start(self, w0_star: ModelParams) -> None:
        self._prev_star = w0_star.theta.copy()

    def update(self, risk_w: float, risk_star: float,
               params_star: ModelParams) -> None:
        self.rounds += 1
        self.cumulative += risk_w - risk_star
        if self._prev_star is not None:
            self.v_t += float(np.linalg.norm(params_star.theta - self._prev_star))
        self._prev_star = params_star.theta.copy()

    @property
    def mean_regret(self) -> float:
        return self.cumulative / self.rounds if self.rounds else 0.0
