"""The streaming unlearning engine: one perturbed, normalized gradient step
per deletion round, anchored at the initially trained parameters.

Per round the engine (i) updates the recursive retention gradient, (ii)
downdates the per-class Gaussian statistics, (iii) rebuilds the shift targets
for every point forgotten so far, (iv) assembles the total gradient and emits

    w_t = w_0 - gamma * g_t / ||g_t||_2 - b_t,

with b_t drawn i.i.d. N(0, phi^2) per coordinate. The engine never reads the
training set after initialization; it keeps only the surviving id set, the
forgotten points, and O(1)-per-class statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, StreamError
from .gaussian import ClassConditionalGaussians
from .model import ModelParams, grad_cross_entropy, sum_grad_kl_to_targets
from .shift import ShiftEstimator

ZERO_GRAD_TOL = 1e-12


@dataclass(frozen=True)
class SafeConfig:
    """Schedule and budget knobs for the streaming unlearner.

    ``W`` is the parameter-norm bound; when None it resolves to ||w_0||_2 at
    engine construction. ``lam`` weights the forgetting term against
    retention. ``proj_dim`` of None means min(input_dim, 32).
    """

    K: float = 2.5
    T: int = 20
    W: float | None = None
    epsilon: float = 5.0
    delta: float = 1e-5
    lam: float = 1000.0
    proj_dim: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.K <= 0:
            raise ConfigError(f"K must be positive, got {self.K}")
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.W is not None and self.W <= 0:
            raise ConfigError(f"W must be positive, got {self.W}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.lam < 0:
            raise ConfigError(f"lambda weight must be >= 0, got {self.lam}")
        if self.proj_dim is not None and self.proj_dim < 1:
            raise ConfigError(f"proj_dim must be >= 1, got {self.proj_dim}")


def learning_rate(config: SafeConfig) -> float:
    """gamma = sqrt(W) / (K sqrt(T)); requires a resolved W."""
    config.validate()
    if config.W is None:
        raise ConfigError("learning_rate needs a resolved W")
    return math.sqrt(config.W) / (config.K * math.sqrt(config.T))


def perturbation_scale(config: SafeConfig) -> float:
    """phi = W sqrt(2 ln(1.25/delta)) / epsilon, used as the per-coordinate
    standard deviation of the Gaussian perturbation."""
    config.validate()
    if config.W is None:
        raise ConfigError("perturbation_scale needs a resolved W")
    return config.W * math.sqrt(2.0 * math.log(1.25 / config.delta)) / config.epsilon


@dataclass
class RetentionGradState:
    """Recursively maintained mean gradient over the surviving data at w_0."""

    grad: np.ndarray
    size_dt: int
    size_d0: int


def update_retention_grad(state: RetentionGradState, grad_sum_ft: np.ndarray,
                          m: int) -> RetentionGradState:
    """One deletion round of the retention recursion:

    grad_t = (|D_{t-1}|/|D_t|) grad_{t-1} - (1/|D_t|) sum_{F_t} grad.

    ``grad_sum_ft`` is the *sum* (not mean) of per-sample gradients at w_0.
    """
    if m == 0:
        return RetentionGradState(state.grad.copy(), state.size_dt, state.size_d0)
    size_new = state.size_dt - m
    if size_new <= 0:
        raise StreamError(
            f"request of {m} points would empty the remaining data "
            f"({state.size_dt} left)"
        )
    grad = (state.size_dt / size_new) * state.grad - grad_sum_ft / size_new
    return RetentionGradState(grad, size_new, state.size_d0)


@dataclass
class ForgettingLedger:
    """All points forgotten so far, as raw features and labels, plus the
    trade-off weight lambda. Membership lives in the engine's surviving id
    set, so each point enters at most once. Targets are not stored; they are
    recomputed per round."""

    lam: float
    X: np.ndarray | None = None
    y: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def count(self) -> int:
        return len(self.y)

    def append(self, X: np.ndarray, y: np.ndarray) -> None:
        if len(y) == 0:
            return
        X = np.atleast_2d(X)
        self.X = X.copy() if self.X is None else np.vstack([self.X, X])
        self.y = np.concatenate([self.y, np.asarray(y, dtype=np.int64)])


def forgetting_gradient(params0: ModelParams, ledger: ForgettingLedger,
                        shift: ShiftEstimator, counts_t: dict[int, int],
                        size_dt: int) -> np.ndarray:
    """(lam / sum |F_i|) * sum over forgotten points of the KL gradient toward
    the current shift targets; zero vector for an empty ledger."""
    if ledger.count == 0:
        return np.zeros(params0.arch.n_params)
    targets = shift.target_predictions(params0, ledger.X, counts_t, size_dt)
    g = sum_grad_kl_to_targets(params0, ledger.X, targets)
    return (ledger.lam / ledger.count) * g


@dataclass
class RoundResult:
    params: ModelParams
    round: int
    accepted: int                # request size after filtering
    dropped: int                 # repeated ids (first kept) / non-members
    grad_norm: float
    perturbation: np.ndarray
    exhausted_classes: list[int]


class SafeUnlearner:
    """Single-writer state machine processing one deletion request per round."""

    def __init__(self, params0: ModelParams, config: SafeConfig,
                 retention: RetentionGradState,
                 gaussians: ClassConditionalGaussians,
                 class_counts: dict[int, int],
                 surviving_ids: np.ndarray):
        config.validate()
        if config.W is None:
            config = replace(config, W=float(np.linalg.norm(params0.theta)))
            if config.W <= 0:
                raise ConfigError("cannot resolve W from zero initial parameters")
        self.config = config
        self.params0 = params0.copy()
        self.retention = retention
        self.gaussians = gaussians
        self.class_counts = dict(class_counts)
        self.counts0 = dict(class_counts)
        self.surviving = set(int(i) for i in surviving_ids)
        self.ledger = ForgettingLedger(lam=config.lam)
        self.shift = ShiftEstimator(gaussians, self.counts0, retention.size_d0)
        self.gamma = learning_rate(config)
        self.phi = perturbation_scale(config)
        self.round = 0

    def _round_rng(self, t: int) -> np.random.Generator:
        # keyed by (seed, round), so a replay of the same requests draws the
        # same perturbation in every round
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.config.seed, spawn_key=(t,))
        )

    def draw_perturbation(self, t: int) -> np.ndarray:
        return self._round_rng(t).normal(
            0.0, self.phi, size=self.params0.arch.n_params
        )

    def process_request(self, X: np.ndarray, y: np.ndarray,
                        ids: np.ndarray) -> RoundResult:
        t = self.round + 1
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        # the whole request is checked before any state changes
        if not (len(X) == len(y) == len(ids)):
            raise StreamError("request features, labels, and ids disagree in length")
        if not np.all(np.isfinite(X)):
            raise StreamError("request features contain non-finite values")
        unknown = set(y.tolist()) - self.counts0.keys()
        if unknown:
            raise StreamError(f"request labels {sorted(unknown)} are not fitted classes")

        # containment rule: keep the first occurrence of each id in D_{t-1}
        keep = np.zeros(len(ids), dtype=bool)
        keep[np.unique(ids, return_index=True)[1]] = True
        keep &= np.fromiter(
            (i in self.surviving for i in ids.tolist()), dtype=bool, count=len(ids)
        )
        dropped = int((~keep).sum())
        X, y, ids = X[keep], y[keep], ids[keep]
        m = len(y)

        if m:
            grad_sum = grad_cross_entropy(self.params0, X, y) * m
        else:
            grad_sum = np.zeros(self.params0.arch.n_params)
        retention = update_retention_grad(self.retention, grad_sum, m)

        exhausted = self.gaussians.remove(X, y) if m else []
        self.retention = retention

        for label in y:
            self.class_counts[int(label)] -= 1
        self.surviving.difference_update(int(i) for i in ids)
        self.ledger.append(X, y)

        g = self.retention.grad + forgetting_gradient(
            self.params0, self.ledger, self.shift,
            self.class_counts, self.retention.size_dt,
        )
        b = self.draw_perturbation(t)
        gnorm = float(np.linalg.norm(g))
        theta = self.params0.theta - b
        if gnorm >= ZERO_GRAD_TOL:  # Eq. would divide by ~0 otherwise
            theta = theta - self.gamma * (g / gnorm)
        self.round = t
        return RoundResult(
            params=ModelParams(self.params0.arch, theta),
            round=t,
            accepted=m,
            dropped=dropped,
            grad_norm=gnorm,
            perturbation=b,
            exhausted_classes=exhausted,
        )
