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
(n, C) (a transposed view). Two functions are class-major at their
boundary: ``forward_proba`` returns the forward pass itself, so a caller can
keep it and hand it back to the KL backward, and ``sum_grad_kl_to_targets``
takes its log ratios as (C, n).

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
``prepare_rows`` also fixes the rows' blocks: ``grad_cross_entropy`` walks
``Xt1`` and the one-hot labels in column blocks small enough to stay in
cache, runs the forward pass, softmax and backward pass on each, adds the
blocks' gradient sums in row order and divides by n once. A batch of one
block runs exactly the unblocked operations. A block's softmax skips the
max shift when ``_logit_bound``, from the parameters and the rows'
``norm_max``, rules out overflow; every other softmax shifts.
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
# the largest bound on |logit| at which ``_softmax`` skips the max shift: exp
# overflows past 709.78 and leaves the normal range below -708.4
_EXP_SAFE = 700.0
# the bytes one block of ``grad_cross_entropy`` may keep in cache (see
# ``prepare_rows``)
_BLOCK_BYTES = 1 << 20


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


def _softmax(logits: np.ndarray, bound: float = np.inf) -> np.ndarray:
    """Softmax over the class axis of (C, n) logits, computed in place. With
    ``bound`` (``_logit_bound``) within ``_EXP_SAFE`` no exp can overflow, so
    the logits go unshifted; else each column is shifted by its max first.
    One reciprocal of each column's sum then scales the column."""
    if not bound <= _EXP_SAFE:  # a NaN bound shifts too
        logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    sums = logits.sum(axis=0)
    logits *= np.reciprocal(sums, out=sums)
    return logits


def _logit_bound(params: ModelParams, rows: TrainingRows) -> float:
    """A bound on every |logit| over the ``TrainingRows`` rows that reads no
    logit: ||theta||_2 max_i ||[x_i, 1]|| for the linear head (by
    Cauchy-Schwarz), max_c ||w2_c||_1 + max |b2| for the MLP (|tanh| <= 1)."""
    if params.arch.hidden_dim is None:
        return float(np.sqrt(params.theta @ params.theta)) * rows.norm_max
    _, _, w2, b2 = _mlp_views(params.arch, params.theta)
    return float(np.abs(w2).sum(axis=1).max() + np.abs(b2).max())


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
        X, _, onehot = _checked_rows(params.arch, X, y)
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
    """A labelled batch prepared by ``prepare_rows``: the rows X (n, d) and
    labels y as checked once, the rows as ``Xt1``, Xᵀ with a row of ones
    under it (d+1, n), the labels as class-major one-hot floats (C, n),
    ``block``, the most columns ``grad_cross_entropy`` reads at a time, and
    ``norm_max``, the largest ||[x_i, 1]|| over all the rows."""

    X: np.ndarray
    y: np.ndarray
    Xt1: np.ndarray
    onehot: np.ndarray
    block: int
    norm_max: float

    def __len__(self) -> int:
        return len(self.y)

    def blocks(self) -> list[TrainingRows]:
        """The rows in order as consecutive blocks of ``block`` rows, the
        last one shorter: these rows themselves when they are one block,
        else views of theirs."""
        b = self.block
        if len(self) <= b:
            return [self]
        return [TrainingRows(self.X[lo:lo + b], self.y[lo:lo + b],
                             self.Xt1[:, lo:lo + b], self.onehot[:, lo:lo + b], b,
                             self.norm_max)
                for lo in range(0, len(self), b)]


def _checked_rows(arch: Architecture, X: np.ndarray, y: np.ndarray):
    """The rows X (n, d) as floats, their labels y as integers and
    class-major one-hot floats, after the one check of a labelled batch."""
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
    return X, y, onehot.astype(np.float64)


def prepare_rows(arch: Architecture, X: np.ndarray, y: np.ndarray) -> TrainingRows:
    """The rows X with labels y, ready for ``grad_cross_entropy``."""
    X, y, onehot = _checked_rows(arch, X, y)
    # Xt1, built once per fit, turns the first layer into one GEMM each way:
    # [W | b] @ Xt1 replaces the forward GEMM against the strided Xᵀ (at
    # 5x16x3960, 21 against 60 µs) and the bias add, and dpre @ Xt1.T gives
    # the bias gradient with the weights', in place of a sum over rows. On a
    # contiguous operand OpenBLAS runs another kernel, so the logits differ
    # from w @ X.T + b in the last bits (at 5 classes and 16 features,
    # whenever n % 8 is 1 to 4). Forward-only calls keep X and w @ X.T: a
    # call runs one GEMM, and at 4000 rows the copy would cost 78 µs to save
    # 13.
    #
    # A block holds as many columns as fit _BLOCK_BYTES at 8 bytes for each
    # of its rows of Xt1 and logits, so the forward GEMM leaves its slice of
    # Xt1 in cache for the backward GEMM and the softmax runs in cache too.
    # Epoch medians, 1 BLAS thread, 2 MiB of L2 per core: at 16000 x 16 in
    # 5 classes (Xt1 is 2.2 MB) one block takes 681 µs, and budgets of
    # 2 MiB, 1 MiB, 512 KiB and 256 KiB take 663, 426, 468 and 539; at 3960
    # x 16 one block (86 µs) beats two (112), so the budget keeps a fit
    # that size whole. The MLP's hidden layer is not counted: its first
    # layer's GEMMs do 32 multiply-adds per entry of Xt1 they read, so they
    # run compute-bound even from memory (1.8 ms of a 4.4 ms epoch for the
    # 8000 x 64 MLP with 32 hidden units and 10 classes), and counting it
    # cut that fit into 943-column blocks instead of 1747, whose extra calls
    # made set-ups slower in raw time. At that shape one block takes 6.9 ms
    # and 1 MiB ones 3.7 while the heap hands out fresh pages, about 4.4
    # either way once it reuses them.
    n, d = X.shape
    Xt1 = np.empty((d + 1, n))
    Xt1[:d] = X.T
    Xt1[d] = 1.0
    block = max(1, _BLOCK_BYTES // (8 * (d + 1 + arch.n_classes)))
    norm_max = float(np.sqrt(np.einsum("ij,ij->j", Xt1, Xt1).max()))
    return TrainingRows(X, y, Xt1, onehot, block, norm_max)


def grad_cross_entropy(params: ModelParams, X: np.ndarray | TrainingRows,
                       y: np.ndarray | None = None) -> np.ndarray:
    """Mean analytic gradient of the cross-entropy over a batch: the rows X
    with labels y, or the ``TrainingRows`` X, with y left None. It sums the
    gradient over each of the rows' blocks in order, then divides by n."""
    rows = X if isinstance(X, TrainingRows) else prepare_rows(params.arch, X, y)
    first, *rest = rows.blocks()
    g = _grad_sum(params, first)
    for block in rest:
        g += _grad_sum(params, block)
    g /= len(rows)
    return g


def _grad_sum(params: ModelParams, rows: TrainingRows) -> np.ndarray:
    """Flat gradient of the summed cross-entropy over the ``TrainingRows``
    rows, in one pass."""
    logits, hidden = _forward(params, rows)
    dlogits = _softmax(logits, _logit_bound(params, rows))
    dlogits -= rows.onehot
    return _backprop_sum(params, rows, dlogits, hidden)


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


def sum_grad_kl_to_targets(params: ModelParams, X: np.ndarray,
                           logq: np.ndarray, forward=None) -> np.ndarray:
    """Gradient w.r.t. theta of sum_i KL(p_i || t_i), p_i the predicted
    probabilities of row i and t_i = p_i q_i / (p_i . q_i) its target, the
    predictions reweighted by the positive ratios q_i, given as class-major
    (C, n) log ratios ``logq``. Targets are constants: no gradient flows
    through them.

    The target's normalizer cancels, so the logit gradient of row i is
    exactly p_i (p_i . log q_i - log q_i) = -A_i log q_i, with A_i = diag p_i
    - p_i p_i' the softmax Jacobian: no target is formed, and none is
    floored however small it is.

    ``forward`` is the ``forward_proba(params, X)`` pair, when the caller
    already holds it: the backward pass then reads those probabilities and
    hidden activations, and X only for the gradient of the weights applied
    to X. The engine passes the pair it cached when each ledger row was
    appended, since its params are always w_0. Left None, the forward pass
    runs here."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    p, hidden = forward_proba(params, X) if forward is None else forward
    dlogits = p * ((p * logq).sum(axis=0) - logq)
    return _backprop_sum(params, X, dlogits, hidden)
