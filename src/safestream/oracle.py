"""Ground-truth machinery: retrain-from-scratch exact unlearning, direct risk
evaluation, and dynamic-regret / path-length accounting.

The streaming engine never touches the training data after initialization;
everything here runs on retained data and exists to measure the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ForgettingLedger
from .errors import ConfigError, NumericalError
from .model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    init_params,
    kl_rows,
    mean_cross_entropy,
    neg_log_prob,
    predict_proba_batch,
    prepare_rows,
)


# full-batch descent stops once the gradient norm falls below this
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class RetrainConfig:
    """Full-batch gradient descent settings for the exact-unlearning oracle."""

    epochs: int = 300
    lr: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.lr <= 0:
            raise ConfigError(f"invalid retrain config {self}")


def retrain(X: np.ndarray, y: np.ndarray, arch: Architecture,
            config: RetrainConfig) -> ModelParams:
    """Train from a seeded fresh initialization until max epochs or the
    gradient norm drops below ``GRAD_TOL``."""
    config.validate()
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


def true_risk(params: ModelParams, X_t: np.ndarray, y_t: np.ndarray,
              ledger: ForgettingLedger, params_star: ModelParams) -> float:
    """Mean retention loss on the remaining data plus the mean KL, weighted
    by ``ledger.lam``, from the model's predictions to the retrained model's
    predictions over all forgotten points. Empty ledger -> retention-only
    risk."""
    risk = mean_cross_entropy(params, X_t, y_t)
    if ledger.count:
        p = predict_proba_batch(params, ledger.X)
        q = predict_proba_batch(params_star, ledger.X)
        risk += (ledger.lam / ledger.count) * kl_rows(p, q).sum()
    return float(risk)


def surrogate_risk(params: ModelParams, X0: np.ndarray, y0: np.ndarray,
                   ledger: ForgettingLedger, targets: np.ndarray | None,
                   size_dt: int) -> float:
    """The engine-side risk estimate: the retention decomposition

        (|D_0|/|D_t|) R_0(w) - (1/|D_t|) sum_forgotten loss(w)

    plus the forgetting term toward ``targets``, the shift targets the
    engine built this round (``RoundResult.targets``), in place of the
    retrained model. Requires the retained initial data, so only ``run`` in
    oracle mode calls it."""
    r0 = mean_cross_entropy(params, X0, y0)
    risk = (len(X0) / size_dt) * r0
    if ledger.count:
        p_led = predict_proba_batch(params, ledger.X)
        # the ledger losses read p_y from the same forward pass as the KL term
        p_y = p_led[np.arange(ledger.count), ledger.y]
        risk -= neg_log_prob(p_y).sum() / size_dt
        risk += (ledger.lam / ledger.count) * kl_rows(p_led, targets).sum()
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
