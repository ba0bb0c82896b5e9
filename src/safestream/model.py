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

Prepared rows: one check covers every labelled batch (no empty batch, one
label per row, every label in [0, C)) and builds the class-major one-hot
labels (C, n) as floats, which subtract in about half the time of a boolean
compare. ``prepare_rows`` adds what a gradient reads: ``Xt1``, a contiguous
copy of Xᵀ with a row of ones under it, (d+1, n). The first layer of either
head then runs as one GEMM, ``[W | b] @ Xt1``, and its weight and bias
gradients come from one GEMM, ``dpre @ Xt1.T``: no bias add, no sum over
rows, and the forward GEMM reads a contiguous operand. A full-batch fit
prepares its rows once, before the first epoch, and hands them to
``grad_cross_entropy`` every epoch and to its final loss check; a one-off
call prepares its own and runs the same kernel, so both give the same bits.
Forward-only calls (``forward_proba``, the cross-entropy of raw rows, the KL
backward over the ledger) keep the rows X (n, d) and ``w @ X.T``: each runs
one GEMM over its rows, so a transposed copy would cost more than the faster
GEMM saves.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def _first_layer_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays between the first layer's slice of theta, its
        (out, d) weights then its out biases, and the (out, d+1) matrix
        [W | b]: theta[take] is [W | b], and G.ravel()[back] lays an
        (out, d+1) gradient out in theta's order."""
        d = self.input_dim
        out = self.n_classes if self.hidden_dim is None else self.hidden_dim
        take = np.empty((out, d + 1), dtype=np.intp)
        take[:, :d] = np.arange(out * d).reshape(out, d)
        take[:, d] = np.arange(out * d, out * (d + 1))
        return take, np.argsort(take.ravel())

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
    o1 = h * d
    o2 = o1 + h
    o3 = o2 + c * h
    return theta[:o1].reshape(h, d), theta[o1:o2], theta[o2:o3].reshape(c, h), theta[o3:]


def _check_input(arch: Architecture, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ConfigError(f"input has shape {X.shape}, arch expects (*, {arch.input_dim})")


def _first_layer(params: ModelParams, X: np.ndarray | TrainingRows) -> np.ndarray:
    """The (out, n) pre-activations of the first layer (the linear head's
    logits, the MLP's hidden layer) for the rows X (n, d) or the prepared
    ``TrainingRows`` X."""
    arch = params.arch
    if isinstance(X, TrainingRows):
        return params.theta[arch._first_layer_order[0]] @ X.Xt1
    _check_input(arch, X)
    views = _linear_views if arch.hidden_dim is None else _mlp_views
    w, b = views(arch, params.theta)[:2]
    pre = w @ X.T
    pre += b[:, None]  # in place: the same sums, one (out, n) temporary fewer
    return pre


def _forward(params: ModelParams, X: np.ndarray | TrainingRows):
    """Class-major logits (C, n) for the rows X (n, d) or the ``TrainingRows``
    X; returns (logits, hidden) with hidden (h, n), None for the linear head."""
    pre = _first_layer(params, X)
    if params.arch.hidden_dim is None:
        return pre, None
    _, _, w2, b2 = _mlp_views(params.arch, params.theta)
    hidden = np.tanh(pre, out=pre)
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


def neg_log_prob(p_y: np.ndarray) -> np.ndarray:
    """-log p_y, each p_y clamped at 1e-12 before the log."""
    return -np.log(np.maximum(p_y, PROB_FLOOR))


def cross_entropy_rows(params: ModelParams, X: np.ndarray | TrainingRows,
                       y: np.ndarray | None = None) -> np.ndarray:
    """Per-row -log p_y over a batch: the rows X with labels y, or the
    ``TrainingRows`` X, with y left None."""
    if isinstance(X, TrainingRows):
        onehot = X.onehot
    else:
        X, onehot = _checked_rows(params.arch, X, y)
    p = _softmax(_forward(params, X)[0])
    # each one-hot column has one nonzero entry, so its sum is p_y exactly
    return neg_log_prob((p * onehot).sum(axis=0))


def mean_cross_entropy(params: ModelParams, X: np.ndarray | TrainingRows,
                       y: np.ndarray | None = None) -> float:
    """Mean of ``cross_entropy_rows`` over a batch."""
    return float(cross_entropy_rows(params, X, y).mean())


def _first_layer_grad(arch: Architecture, X: np.ndarray | TrainingRows,
                      dpre: np.ndarray) -> np.ndarray:
    """Flat gradient of the first layer's weights then biases, given its
    (out, n) pre-activation gradients and the rows X (n, d) or the
    ``TrainingRows`` X."""
    if isinstance(X, TrainingRows):
        return (dpre @ X.Xt1.T).ravel()[arch._first_layer_order[1]]
    return np.concatenate([(dpre @ X).ravel(), dpre.sum(axis=1)])


def _backprop_sum(params: ModelParams, X: np.ndarray | TrainingRows,
                  dlogits: np.ndarray, hidden: np.ndarray | None) -> np.ndarray:
    """Flat gradient of sum_i L_i given the class-major (C, n) dL_i/dlogits_i
    columns, the (h, n) hidden activations and the rows X (n, d) or the
    ``TrainingRows`` X."""
    arch = params.arch
    if arch.hidden_dim is None:
        return _first_layer_grad(arch, X, dlogits)
    w2 = _mlp_views(arch, params.theta)[2]
    gw2 = dlogits @ hidden.T
    gb2 = dlogits.sum(axis=1)
    dpre = w2.T @ dlogits
    dpre *= 1.0 - hidden * hidden
    return np.concatenate([_first_layer_grad(arch, X, dpre), gw2.ravel(), gb2])


@dataclass
class TrainingRows:
    """A labelled batch prepared by ``prepare_rows``: the rows as ``Xt1``,
    Xᵀ with a row of ones under it (d+1, n), and their labels checked once
    and held as class-major one-hot floats (C, n)."""

    Xt1: np.ndarray
    onehot: np.ndarray

    def __len__(self) -> int:
        return self.onehot.shape[1]


def _checked_rows(arch: Architecture, X: np.ndarray, y: np.ndarray):
    """The rows X (n, d) as floats and their class-major one-hot labels,
    after the one check of a labelled batch."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    # a single row or label is a batch of one
    if X.ndim < 2:
        X = X.reshape(1, -1)
    if y.ndim < 1:
        y = y.reshape(1)
    if len(X) == 0:
        raise ConfigError("empty batch")
    if len(y) != len(X):
        raise ConfigError(f"{len(y)} labels for {len(X)} rows")
    _check_input(arch, X)
    onehot = y == np.arange(arch.n_classes)[:, None]
    # an in-range label sets exactly one entry of its column, any other none
    if np.count_nonzero(onehot) != len(y):
        raise ConfigError(f"labels outside [0, {arch.n_classes})")
    return X, onehot.astype(np.float64)


def prepare_rows(arch: Architecture, X: np.ndarray, y: np.ndarray) -> TrainingRows:
    """The rows X with labels y, ready for ``grad_cross_entropy``."""
    X, onehot = _checked_rows(arch, X, y)
    # Xt1, built once per fit, turns the first layer into one GEMM each way:
    # [W | b] @ Xt1 replaces the forward GEMM against the strided Xᵀ (at
    # 5x16x3960, 21 against 60 µs) and the bias add, and dpre @ Xt1.T gives
    # the bias gradient with the weights', in place of a sum over rows. On a
    # contiguous operand OpenBLAS runs another kernel, so the logits differ
    # from w @ X.T + b in the last bits (at 5 classes and 16 features,
    # whenever n % 8 is 1 to 4). Forward-only calls keep X and w @ X.T: a
    # call runs one GEMM, and at 4000 rows the copy would cost 78 µs to save
    # 13.
    n, d = X.shape
    Xt1 = np.empty((d + 1, n))
    Xt1[:d] = X.T
    Xt1[d] = 1.0
    return TrainingRows(Xt1, onehot)


def grad_cross_entropy(params: ModelParams, X: np.ndarray | TrainingRows,
                       y: np.ndarray | None = None) -> np.ndarray:
    """Mean analytic gradient of the cross-entropy over a batch: the rows X
    with labels y, or the ``TrainingRows`` X, with y left None."""
    rows = X if isinstance(X, TrainingRows) else prepare_rows(params.arch, X, y)
    logits, hidden = _forward(params, rows)
    dlogits = _softmax(logits)
    dlogits -= rows.onehot
    g = _backprop_sum(params, rows, dlogits, hidden)
    g /= len(rows)
    return g


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
