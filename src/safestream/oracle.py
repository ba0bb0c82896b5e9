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
    predict_proba_batch,
    prepare_rows,
)


@dataclass(frozen=True)
class RetrainConfig:
    """Gradient descent settings for the exact-unlearning oracle.

    ``batch_size`` of None means full batch, which every preset uses, MLP
    ones included. A config that sets ``batch_size`` gets seeded mini-batch
    descent instead.
    """

    epochs: int = 300
    lr: float = 1.0
    batch_size: int | None = None
    seed: int = 0
    grad_tol: float = 1e-7

    def validate(self) -> None:
        if self.epochs < 1 or self.lr <= 0:
            raise ConfigError(f"invalid retrain config {self}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"invalid batch_size {self.batch_size}")


def retrain(X: np.ndarray, y: np.ndarray, arch: Architecture,
            config: RetrainConfig) -> ModelParams:
    """Train from a seeded fresh initialization until max epochs or the
    gradient norm drops below ``grad_tol``."""
    config.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(X)
    if n == 0:
        raise ConfigError("cannot retrain on empty data")
    rng = np.random.default_rng(config.seed)
    params = init_params(arch, rng)
    theta = params.theta

    if config.batch_size is None:
        # the rows are prepared once, before the first epoch; params views
        # theta, which each epoch updates in place
        rows = prepare_rows(arch, X, y)
        for _ in range(config.epochs):
            g = grad_cross_entropy(params, rows)
            if not np.all(np.isfinite(g)):
                raise NumericalError("retrain diverged: non-finite gradient")
            if np.linalg.norm(g) < config.grad_tol:
                break
            theta -= config.lr * g
    else:
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                params = ModelParams(arch, theta)
                g = grad_cross_entropy(params, X[idx], y[idx])
                if not np.all(np.isfinite(g)):
                    raise NumericalError("retrain diverged: non-finite gradient")
                theta = theta - config.lr * g

    out = ModelParams(arch, theta)
    if not np.isfinite(mean_cross_entropy(out, X, y)):
        raise NumericalError("retrain diverged: non-finite loss")
    return out


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
        losses = -np.log(np.maximum(
            p_led[np.arange(ledger.count), ledger.y], 1e-12
        ))
        risk -= losses.sum() / size_dt
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
