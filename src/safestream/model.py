"""Differentiable multiclass classifiers with analytic gradients.

Two desk-scale backbones: a softmax-linear head and a one-hidden-layer tanh
MLP. Parameters live in a single flat float64 vector so the unlearning engine
can treat every architecture as a point in R^p. All gradients are analytic
and are checked against central finite differences in the test suite.

Layout: the kernels work class-major. Logits, probabilities and their
gradients are (C, n) arrays, one row per class, and MLP hidden activations
are (h, n), so every softmax reduction runs along a long contiguous axis
rather than across the 2-10 classes of each row. The public functions keep
row-major shapes: inputs X are (n, d), ``predict_proba_batch`` returns
(n, C) (a transposed view) and ``sum_grad_kl_to_targets`` takes (n, C)
targets. ``forward_proba`` is the exception: it returns the class-major
forward pass itself, so a caller can keep it and hand it back to the KL
backward.

Prepared rows: ``prepare_rows`` is the one label check. It rejects an empty
batch or a label outside [0, C), and builds the class-major one-hot labels
(C, n) as floats, which subtract in about half the time of a boolean
compare. Both cross-entropy functions read their labels through it. A
full-batch fit prepares its rows once, before the first epoch, and hands
them to ``grad_cross_entropy`` every epoch; a one-off call prepares its own
and runs the same kernel, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Architecture:
    """Shape descriptor: input dim, class count, optional hidden width."""

    input_dim: int
    n_classes: int
    hidden_dim: int | None = None

    def __post_init__(self):
        if self.input_dim < 1 or self.n_classes < 2:
            raise ConfigError(f"invalid architecture {self}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ConfigError(f"invalid hidden_dim {self.hidden_dim}")

    @property
    def n_params(self) -> int:
        d, c, h = self.input_dim, self.n_classes, self.hidden_dim
        if h is None:
            return c * (d + 1)
        return h * (d + 1) + c * (h + 1)


@dataclass
class ModelParams:
    """Flat parameter vector plus its architecture."""

    arch: Architecture
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.arch.n_params,):
            raise ConfigError(
                f"theta has shape {self.theta.shape}, arch requires ({self.arch.n_params},)"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ConfigError("theta contains non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.theta.copy())


def init_params(arch: Architecture, rng: np.random.Generator) -> ModelParams:
    """Fresh initialization: zeros for the convex linear head, scaled
    Gaussian for the MLP (which needs symmetry breaking)."""
    if arch.hidden_dim is None:
        return ModelParams(arch, np.zeros(arch.n_params))
    d, c, h = arch.input_dim, arch.n_classes, arch.hidden_dim
    w1 = rng.standard_normal((h, d)) / np.sqrt(d)
    w2 = rng.standard_normal((c, h)) / np.sqrt(h)
    theta = np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])
    return ModelParams(arch, theta)


def _linear_views(arch: Architecture, theta: np.ndarray):
    d, c = arch.input_dim, arch.n_classes
    return theta[: c * d].reshape(c, d), theta[c * d :]


def _mlp_views(arch: Architecture, theta: np.ndarray):
    d, c, h = arch.input_dim, arch.n_classes, arch.hidden_dim
    o = 0
    w1 = theta[o : o + h * d].reshape(h, d)
    o += h * d
    b1 = theta[o : o + h]
    o += h
    w2 = theta[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = theta[o : o + c]
    return w1, b1, w2, b2


def _forward(params: ModelParams, X: np.ndarray):
    """Class-major logits (C, n) for the rows of X (n, d); returns
    (logits, hidden) with hidden (h, n), None for the linear head."""
    arch = params.arch
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ConfigError(f"input has shape {X.shape}, arch expects (*, {arch.input_dim})")
    # biases are added in place: the same sums, one (C, n) temporary fewer
    if arch.hidden_dim is None:
        w, b = _linear_views(arch, params.theta)
        logits = w @ X.T
        logits += b[:, None]
        return logits, None
    w1, b1, w2, b2 = _mlp_views(arch, params.theta)
    hidden = w1 @ X.T
    hidden += b1[:, None]
    np.tanh(hidden, out=hidden)
    logits = w2 @ hidden
    logits += b2[:, None]
    return logits, hidden


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of (C, n) logits, computed in place."""
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def forward_proba(params: ModelParams, X: np.ndarray):
    """The forward pass over the rows of X: class-major (C, n) probabilities
    and the (h, n) hidden activations, None for the linear head."""
    logits, hidden = _forward(params, np.atleast_2d(X))
    return _softmax(logits), hidden


def predict_proba_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """(n, C) class probabilities for the rows of X."""
    return forward_proba(params, X)[0].T


def mean_cross_entropy(params: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Mean of -log p_y over a batch, each p_y clamped at 1e-12 before the log."""
    rows = prepare_rows(params.arch, X, y)
    p, _ = forward_proba(params, rows.X)
    # each one-hot column has one nonzero entry, so its sum is p_y exactly
    py = np.maximum((p * rows.onehot).sum(axis=0), PROB_FLOOR)
    return float(-np.log(py).mean())


def _backprop_sum(params: ModelParams, X: np.ndarray, dlogits: np.ndarray,
                  hidden: np.ndarray | None) -> np.ndarray:
    """Flat gradient of sum_i L_i given the class-major (C, n) dL_i/dlogits_i
    columns and the (h, n) hidden activations."""
    arch = params.arch
    if arch.hidden_dim is None:
        gw = dlogits @ X
        gb = dlogits.sum(axis=1)
        return np.concatenate([gw.ravel(), gb])
    w1, b1, w2, b2 = _mlp_views(arch, params.theta)
    gw2 = dlogits @ hidden.T
    gb2 = dlogits.sum(axis=1)
    dpre = (w2.T @ dlogits) * (1.0 - hidden * hidden)
    gw1 = dpre @ X
    gb1 = dpre.sum(axis=1)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


@dataclass
class TrainingRows:
    """A labelled batch prepared by ``prepare_rows``: the rows X (n, d),
    their labels checked once and held as class-major one-hot floats
    (C, n)."""

    X: np.ndarray
    onehot: np.ndarray


def prepare_rows(arch: Architecture, X: np.ndarray, y: np.ndarray) -> TrainingRows:
    """The rows X with labels y, ready for ``grad_cross_entropy``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if len(X) == 0:
        raise ConfigError("empty batch")
    if len(y) != len(X):
        raise ConfigError(f"{len(y)} labels for {len(X)} rows")
    onehot = y == np.arange(arch.n_classes)[:, None]
    # an in-range label sets exactly one entry of its column, any other none
    if np.count_nonzero(onehot) != len(y):
        raise ConfigError(f"labels outside [0, {arch.n_classes})")
    # X keeps its layout: a contiguous copy of Xᵀ makes the linear head's
    # forward GEMM about 2.5x faster, but OpenBLAS then runs another kernel,
    # whose logits differ in the last bits for many n (at 5 classes and 16
    # features, whenever n % 8 is 1 to 4)
    return TrainingRows(X, onehot.astype(np.float64))


def grad_cross_entropy(params: ModelParams, X: np.ndarray | TrainingRows,
                       y: np.ndarray | None = None) -> np.ndarray:
    """Mean analytic gradient of the cross-entropy over a batch: the rows X
    with labels y, or the ``TrainingRows`` X, with y left None."""
    rows = X if isinstance(X, TrainingRows) else prepare_rows(params.arch, X, y)
    logits, hidden = _forward(params, rows.X)
    dlogits = _softmax(logits)
    dlogits -= rows.onehot
    return _backprop_sum(params, rows.X, dlogits, hidden) / len(rows.X)


def kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per-row KL(P_i || Q_i) = sum_c p_c log(p_c / q_c), q clamped below at
    1e-12; entries with p_c = 0 contribute 0."""
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape:
        raise ConfigError(f"shape mismatch: {P.shape} vs {Q.shape}")
    logq = np.log(np.maximum(Q, PROB_FLOOR))
    terms = np.where(P > 0.0, P * (np.log(np.maximum(P, PROB_FLOOR)) - logq), 0.0)
    return terms.sum(axis=1)


def _kl_dlogits(p: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Class-major (C, n) dKL(p||t)/dlogits for batched p, t: p_k (log(p_k/t_k) - KL)."""
    logp = np.log(np.maximum(p, PROB_FLOOR))
    logt = np.log(np.maximum(target, PROB_FLOOR))
    kl = (p * (logp - logt)).sum(axis=0)
    return p * (logp - logt - kl)


def sum_grad_kl_to_targets(params: ModelParams, X: np.ndarray,
                           targets: np.ndarray, forward=None) -> np.ndarray:
    """Gradient w.r.t. theta of sum_i KL(p_i || target_i), p_i the predicted
    probabilities of row i and targets (n, C). Targets are constants: no
    gradient flows through them.

    ``forward`` is the ``forward_proba(params, X)`` pair, when the caller
    already holds it: the backward pass then reads those probabilities and
    hidden activations, and X only for the gradient of the weights applied
    to X. The engine passes the pair it cached when each ledger row was
    appended, since its params are always w_0. Left None, the forward pass
    runs here."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    p, hidden = forward_proba(params, X) if forward is None else forward
    dlogits = _kl_dlogits(p, np.asarray(targets, dtype=np.float64).T)
    return _backprop_sum(params, X, dlogits, hidden)
