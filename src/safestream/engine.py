"""The streaming unlearning engine: one perturbed, normalized gradient step
per deletion round, anchored at the initially trained parameters.

Per round the engine (i) updates the recursive retention gradient, (ii)
downdates the per-class Gaussian statistics, (iii) re-evaluates the shift
targets of every point forgotten so far against the current statistics, from
the per-class projections cached when each point entered the ledger, (iv)
assembles the total gradient and emits

    w_t = w_0 - gamma * g_t / ||g_t||_2 - b_t,

with b_t drawn i.i.d. N(0, phi^2) per coordinate. The engine never reads the
training set after initialization; it keeps only the surviving id set, the
forgotten points with their frozen per-class standardized projections, and
O(1)-per-class statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def update_retention_grad(state: RetentionGradState, grad_sum_ft: np.ndarray,
                          m: int) -> RetentionGradState:
    """One deletion round of the retention recursion:

    grad_t = (|D_{t-1}|/|D_t|) grad_{t-1} - (1/|D_t|) sum_{F_t} grad.

    ``grad_sum_ft`` is the *sum* (not mean) of per-sample gradients at w_0.
    """
    if m == 0:
        return RetentionGradState(state.grad.copy(), state.size_dt)
    size_new = state.size_dt - m
    if size_new <= 0:
        raise StreamError(
            f"request of {m} points would empty the remaining data "
            f"({state.size_dt} left)"
        )
    grad = (state.size_dt / size_new) * state.grad - grad_sum_ft / size_new
    return RetentionGradState(grad, size_new)


class ForgettingLedger:
    """All points forgotten so far, as raw features X and labels y, plus the
    trade-off weight lambda. Membership lives in the engine's surviving id
    set, so each point enters at most once.

    Z caches each point's standardized projection under every fitted class,
    the (n_classes, count, k) ``ClassConditionalGaussians.standardize_all``
    stack. That transform is frozen at t=0, so a row's Z never changes once
    it is appended. The targets depend on the current class statistics and
    counts; they are not stored and are recomputed from Z each round.

    Rows live in buffers whose capacity doubles when full, so an append
    copies only its own rows (amortized); X, y and Z are views of the filled
    prefix, X and Z None while the ledger is empty."""

    def __init__(self, lam: float):
        self.lam = lam
        self.count = 0
        self._X: np.ndarray | None = None
        self._y = np.empty(0, dtype=np.int64)
        self._Z: np.ndarray | None = None

    @property
    def X(self) -> np.ndarray | None:
        return None if self._X is None else self._X[: self.count]

    @property
    def y(self) -> np.ndarray:
        return self._y[: self.count]

    @property
    def Z(self) -> np.ndarray | None:
        return None if self._Z is None else self._Z[:, : self.count]

    def append(self, X: np.ndarray, y: np.ndarray, Z: np.ndarray | None) -> None:
        """Append rows X, labels y and their ``standardize_all`` stack Z;
        a call with no labels changes nothing."""
        m = len(y)
        if m == 0:
            return
        X = np.atleast_2d(X)
        lo, hi = self.count, self.count + m
        if hi > len(self._y):
            cap = max(hi, 2 * len(self._y))
            X_buf = np.empty((cap, X.shape[1]))
            y_buf = np.empty(cap, dtype=np.int64)
            Z_buf = np.empty((Z.shape[0], cap, Z.shape[2]))
            if lo:
                X_buf[:lo], y_buf[:lo], Z_buf[:, :lo] = self.X, self.y, self.Z
            self._X, self._y, self._Z = X_buf, y_buf, Z_buf
        self._X[lo:hi] = X
        self._y[lo:hi] = y
        self._Z[:, lo:hi] = Z
        self.count = hi


def forgetting_gradient(params0: ModelParams, ledger: ForgettingLedger,
                        shift: ShiftEstimator, counts_t: dict[int, int],
                        size_dt: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``(gradient, targets)``: (lam / sum |F_i|) * sum over forgotten points
    of the KL gradient toward the current shift targets, and those (n, C)
    targets; a zero vector and None for an empty ledger."""
    if ledger.count == 0:
        return np.zeros(params0.arch.n_params), None
    targets = shift.target_predictions(params0, ledger.X, ledger.Z, counts_t,
                                       size_dt)
    g = sum_grad_kl_to_targets(params0, ledger.X, targets)
    return (ledger.lam / ledger.count) * g, targets


@dataclass
class RoundResult:
    params: ModelParams
    accepted: int                # request size after filtering
    dropped: int                 # repeated ids (first kept) / non-members
    grad_norm: float
    perturbation: np.ndarray
    exhausted_classes: list[int]
    targets: np.ndarray | None   # shift targets per ledger row; None if empty


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
        self.surviving = set(int(i) for i in surviving_ids)
        self.ledger = ForgettingLedger(lam=config.lam)
        self.shift = ShiftEstimator(gaussians, class_counts)
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
        unknown = set(y.tolist()) - self.shift.counts0.keys()
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
        Z = self.gaussians.standardize_all(X) if m else None

        exhausted = self.gaussians.remove(X, y) if m else []
        self.retention = retention

        for label in y:
            self.class_counts[int(label)] -= 1
        self.surviving.difference_update(int(i) for i in ids)
        self.ledger.append(X, y, Z)

        g_forget, targets = forgetting_gradient(
            self.params0, self.ledger, self.shift,
            self.class_counts, self.retention.size_dt,
        )
        g = self.retention.grad + g_forget
        b = self.draw_perturbation(t)
        gnorm = float(np.linalg.norm(g))
        theta = self.params0.theta - b
        if gnorm >= ZERO_GRAD_TOL:  # Eq. would divide by ~0 otherwise
            theta = theta - self.gamma * (g / gnorm)
        self.round = t
        return RoundResult(
            params=ModelParams(self.params0.arch, theta),
            accepted=m,
            dropped=dropped,
            grad_norm=gnorm,
            perturbation=b,
            exhausted_classes=exhausted,
            targets=targets,
        )
