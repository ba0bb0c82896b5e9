"""The streaming unlearning engine: one perturbed, normalized gradient step
per deletion round, anchored at the initially trained parameters.

Per round the engine (i) updates the recursive retention gradient, (ii)
downdates the per-class Gaussian statistics, (iii) builds the forgetting
gradient over every point forgotten so far against the current statistics.
Its target for row i is the w_0 prediction p_i reweighted by the ratios q_i
and renormalized, and at w_0 the KL logit gradient toward it is exactly
-A_i log q_i, with A_i = diag p_i - p_i p_i' the softmax Jacobian; no target
is formed. The gradient takes one of two paths:

- ``"sums"``, for the linear head where no density ratio can clip and
  folding a round's rows costs less than re-evaluating the ledger's: one
  contraction of per-class sums, into which the ledger folds each row once,
  with each class's current log-ratio coefficients. Its cost is set by the
  classes, the parameters, the projection dimension and the round's rows,
  not by the ledger;
- ``"rows"``, otherwise: it re-evaluates log q at every ledger row,
  refreshing the ledger's density ratio column from the per-class
  projections cached when each point entered the ledger (recomputing every
  row of a class whose statistics moved since the column was last refreshed
  and only the newer rows of any other class), and runs the KL backward
  over the ledger from the w_0 forward pass it cached;

(iv) assembles the total gradient and emits

    w_t = w_0 - gamma * g_t / ||g_t||_2 - b_t,

with b_t drawn i.i.d. N(0, phi^2) per coordinate. The engine reads the
training set once, in its constructor; it keeps only an index of the training
ids, a mask of the rows still alive, O(1)-per-class statistics and the ledger:
of each forgotten point its features, training row and what is frozen at w_0
and t=0 (per-class standardized projections, w_0 class probabilities and,
for the MLP, w_0 hidden activations), but no label.
Each of those is computed once, when its row enters the ledger, so a round
runs no forward pass over the ledger. Beside them the ledger keeps each row's
density ratio under every class and, for the linear head, the per-class
sums; a round brings either up to date only on the path that reads it. A
request that keeps no row changes no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, StreamError
from .gaussian import ClassConditionalGaussians, quadratic_features, slabs, sq_norms
from .model import (
    Architecture,
    ModelParams,
    TrainingRows,
    forward_proba,
    grad_cross_entropy,
    sum_grad_kl_to_targets,
)
from .shift import RATIO_CEIL, ShiftEstimator, density_ratio

ZERO_GRAD_TOL = 1e-12


@dataclass(frozen=True)
class SafeConfig:
    """Schedule and budget knobs for the streaming unlearner, checked when built.

    ``W`` is the parameter-norm bound; when None it resolves to ||w_0||_2 at
    engine construction, by a ``replace`` that checks it again. ``lam``
    weights the forgetting term against retention. ``proj_dim`` of None
    means min(input_dim, 32).
    """

    K: float = 2.5
    T: int = 20
    W: float | None = None
    epsilon: float = 5.0
    delta: float = 1e-5
    lam: float = 1000.0
    proj_dim: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.K > 0:
            raise ConfigError(f"K must be positive, got {self.K}")
        if not self.T >= 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.W is not None and not self.W > 0:
            raise ConfigError(f"W must be positive, got {self.W}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.lam >= 0:
            raise ConfigError(f"lambda weight must be >= 0, got {self.lam}")
        if self.proj_dim is not None and not self.proj_dim >= 1:
            raise ConfigError(f"proj_dim must be >= 1, got {self.proj_dim}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def learning_rate(config: SafeConfig) -> float:
    """gamma = sqrt(W) / (K sqrt(T)); requires a resolved W."""
    if config.W is None:
        raise ConfigError("learning_rate needs a resolved W")
    return math.sqrt(config.W) / (config.K * math.sqrt(config.T))


def perturbation_scale(config: SafeConfig) -> float:
    """phi = W sqrt(2 ln(1.25/delta)) / epsilon, used as the per-coordinate
    standard deviation of the Gaussian perturbation."""
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
    size_new = state.size_dt - m
    if size_new <= 0:
        raise StreamError(
            f"request of {m} points would empty the remaining data "
            f"({state.size_dt} left)"
        )
    grad = (state.size_dt / size_new) * state.grad - grad_sum_ft / size_new
    return RetentionGradState(grad, size_new)


# the axis along which each ledger column stacks its rows: X and rows are
# row-major, the other columns are per class (or per hidden unit) first
_ROW_AXIS = {"X": 0, "rows": 0, "Z": 1, "P0": 1, "H": 1, "R": 1}


def _along(axis: int, lo: int, hi: int) -> tuple:
    return (slice(None),) * axis + (slice(lo, hi),)


class ForgettingLedger:
    """All points forgotten so far, as raw features X and their training row
    indices ``rows``. Membership lives in the engine's id index and alive
    mask, so each point enters at most once.

    Beside each row it keeps what the forgetting gradient needs of it that is
    frozen once the row is appended (``frozen_columns``), with its cost per
    row in floats:

    - Z: the standardized projection under every fitted class, the
      (n_classes, count, k) ``ClassConditionalGaussians.standardize_all``
      stack; n_classes * k;
    - P0: the class-major (C, count) w_0 probabilities; C;
    - H: the (h, count) w_0 hidden activations of the MLP, None for the
      linear head; h.

    One column is not frozen: R, the (n_classes, count) clipped density
    ratio of each row under every class's current statistics
    (``density_ratio``); n_classes. It is appended unset (NaN) with Z and
    set by ``refresh_ratios``, which the per-row gradient's
    ``class_ratio_matrix`` runs first. Beside it, ``ratio_version`` records
    the classes' ``ClassConditionalGaussians.version`` at the last refresh
    and ``ratio_rows`` how many rows it covered. A class whose version
    moved since gets every row recomputed; any other class, a frozen one
    included, only the rows appended since.

    A ledger built with ``sums`` (the engine's choice, ``keeps_sums``) also
    keeps, for the linear head with classes 0..C-1:

    - S: the per-class sums S_c = sum_i phi(z_i^c) (A_i[:C-1, c] (x)
      [x_i, 1])', (n_classes, F, P), with A_i = diag p0_i - p0_i p0_i' the
      w_0 softmax Jacobian, phi(z) = (1, z, the upper triangle of z z') of
      the row's projection under class c, F features
      (``quadratic_features``), and P = (C - 1)(d + 1) the first C - 1 rows
      of the linear head's [W | b]: every column of A sums to zero, so the
      last row's gradient is minus the sum of the others'. ``fold_sums``
      folds the rows appended since it last ran, ``sums_rows`` of them so
      far, so S costs nothing until the sums path first reads it;
    - rho2: per class, the largest squared norm ||z||^2 of any row's
      projection, a running max that ``append`` keeps;
    - appended: the rows of the latest append, what a round on the sums
      path folds.

    ``forgetting_gradient`` contracts S only while ``sums_exact`` (no ratio
    can clip) and ``sums_cheaper`` hold.

    The shift ratios depend on the current class statistics and counts; they
    are recomputed from these columns when read.

    Rows live in buffers whose capacity doubles when full, so an append
    copies only its own rows (amortized); each column is a view of the
    filled prefix, None while the ledger is empty (rows is then empty). Each
    buffer takes the dtype of its column."""

    def __init__(self, sums: bool = False):
        self.count = 0
        self._buf: dict[str, np.ndarray] = {"rows": np.empty(0, dtype=np.intp)}
        self.ratio_version: np.ndarray | None = None
        self.ratio_rows = 0
        self.sums = sums
        self.rho2: np.ndarray | None = None
        self.S: np.ndarray | None = None
        self.sums_rows = 0
        self.appended = 0

    def _rows(self, name: str) -> np.ndarray | None:
        buf = self._buf.get(name)
        return None if buf is None else buf[_along(_ROW_AXIS[name], 0, self.count)]

    X = property(lambda self: self._rows("X"))
    rows = property(lambda self: self._rows("rows"))
    Z = property(lambda self: self._rows("Z"))
    P0 = property(lambda self: self._rows("P0"))
    H = property(lambda self: self._rows("H"))
    R = property(lambda self: self._rows("R"))

    def append(self, X: np.ndarray, rows: np.ndarray, **frozen) -> None:
        """Append m >= 1 rows: features X, training row indices ``rows`` and,
        by name, their frozen columns (see ``frozen_columns``; a column given
        as None is not kept). Rows appended with Z get unset ratios in R
        and, in a ledger that keeps sums, enter rho2."""
        cols = {"X": X, "rows": rows,
                **{name: v for name, v in frozen.items() if v is not None}}
        if "Z" in cols:
            cols["R"] = np.full(cols["Z"].shape[:2], np.nan)
            if self.sums:
                top = sq_norms(cols["Z"]).max(axis=1)
                self.rho2 = top if self.rho2 is None else np.maximum(self.rho2, top)
        lo, hi = self.count, self.count + len(rows)
        if hi > len(self._buf["rows"]):
            cap = max(hi, 2 * len(self._buf["rows"]))
            for name, col in cols.items():
                axis = _ROW_AXIS[name]
                shape = col.shape[:axis] + (cap,) + col.shape[axis + 1:]
                buf = np.empty(shape, dtype=col.dtype)
                if lo:
                    buf[_along(axis, 0, lo)] = self._rows(name)
                self._buf[name] = buf
        for name, col in cols.items():
            self._buf[name][_along(_ROW_AXIS[name], lo, hi)] = col
        self.count = hi
        self.appended = len(rows)

    def stale_from(self, version: np.ndarray) -> np.ndarray:
        """Per class, the first row whose ratio is out of date with the
        statistics at ``version``: every row if the class's version moved
        since its ratios were computed, else only the rows appended since."""
        return np.where(self.ratio_version == version, self.ratio_rows, 0)

    def refresh_ratios(self, gaussians: ClassConditionalGaussians) -> np.ndarray:
        """Bring the R column up to date with the current class statistics
        (see the class docstring) and return it; ``gaussians`` must be the
        model whose ``standardize_all`` stack Z holds."""
        Z, R = self.Z, self.R
        stale = self.stale_from(gaussians.version).tolist()
        # the classes that share a first stale row, in one stacked pass
        for lo in sorted(set(stale)):
            if lo < self.count:
                idx = slabs([i for i, first in enumerate(stale) if first == lo])
                R[idx, lo:] = density_ratio(Z[idx, lo:], gaussians, idx)
        self.ratio_version = gaussians.version.copy()
        self.ratio_rows = self.count
        return R

    def fold_sums(self) -> np.ndarray:
        """Fold the rows appended since the last call into S (see the class
        docstring) and return it.

        Each row's column c of A but its last entry, times [x, 1], is laid
        out as the first C - 1 rows of the (C, d + 1) matrix [W | b], one
        (m, P) slab per class, so a fold is one stacked GEMM with the rows'
        ``quadratic_features``. Rows are folded at most as many at a time as
        the latest append brought, so the rows the sums path finds unfolded
        when it is first taken need no more temporary memory than a round's
        own."""
        step = max(self.appended, 1)
        for lo in range(self.sums_rows, self.count, step):
            hi = min(lo + step, self.count)
            X, P0t = self.X[lo:hi], self.P0[:, lo:hi].T
            C, m = P0t.shape[1], hi - lo
            # A_i[j, c] = p_j (delta_jc - p_c), one (m, C) slab per class c
            A = P0t * (np.eye(C)[:, None, :] - P0t.T[:, :, None])
            X1 = np.concatenate([X, np.ones((m, 1))], axis=1)
            M = (A[..., :-1, None] * X1[:, None, :]).reshape(C, m, -1)
            folded = quadratic_features(self.Z[:, lo:hi]) @ M
            if self.S is None:
                self.S = folded
            else:
                self.S += folded
        self.sums_rows = self.count
        return self.S


def keeps_sums(arch: Architecture, class_counts: dict[int, int], k: int) -> bool:
    """Whether an engine's ledger keeps the per-class sums: only for the
    linear head with a fitted class at every label 0..C-1, and only where
    each class's F x P block of S is no larger than the n_train x k slab of
    Z with every training row forgotten."""
    if arch.hidden_dim is not None or sorted(class_counts) != list(range(arch.n_classes)):
        return False
    n_train = sum(class_counts.values())
    return (arch.n_classes - 1) * (arch.input_dim + 1) * (k + 1) * (k + 2) // 2 <= n_train * k


def sums_exact(ledger: ForgettingLedger,
               gaussians: ClassConditionalGaussians) -> bool:
    """Whether no density ratio of a ledger row can clip under the current
    statistics: every class's ``log_ratio_bounds`` at the rows' largest
    squared norm rho2 lies below log RATIO_CEIL (= -log RATIO_FLOOR)."""
    return bool(np.all(gaussians.log_ratio_bounds(ledger.rho2) < math.log(RATIO_CEIL)))


def sums_cheaper(ledger: ForgettingLedger) -> bool:
    """Whether a round costs less on the sums path than on the rows path, by
    their multiply-adds per class: the sums path folds the m rows of the
    latest append into S at F * P each, where the rows path re-evaluates all
    L ledger rows, each at k^2 for its log ratio and d + 1 for its share of
    the backward pass. The rows folded when the sums path is first taken are
    paid once, as the rows path's refresh is when it is taken again."""
    C, L = ledger.P0.shape
    k, d = ledger.Z.shape[2], ledger.X.shape[1]
    fold = ledger.appended * (k + 1) * (k + 2) // 2 * (C - 1) * (d + 1)
    return fold <= L * (k * k + d + 1)


def frozen_columns(params0: ModelParams, gaussians: ClassConditionalGaussians,
                   X: np.ndarray) -> dict[str, np.ndarray | None]:
    """The ledger columns of rows X (Z, P0, H; see ``ForgettingLedger``):
    one frozen projection and one forward pass at w_0 over these rows only."""
    Z = gaussians.standardize_all(X)
    P0, H = forward_proba(params0, X)
    return {"Z": Z, "P0": P0, "H": H}


def _sums_kl_gradient(ledger: ForgettingLedger, shift: ShiftEstimator,
                      counts_t: dict[int, int], size_dt: int) -> np.ndarray:
    """sum_i dKL(p_i || target_i)/dtheta at w_0 from the ledger's sums.

    The KL logit gradient of row i is -A_i log q_i
    (``sum_grad_kl_to_targets``), and wherever no ratio clips log q_i[c] is
    log lr_c plus the quadratic ``log_ratio_forms`` gives at z = z_i^c. The
    gradient of the first C - 1 rows of [W | b] is then -sum_c coef_c' S_c,
    and the last row's is minus their sum, since every row of A sums to
    zero."""
    S = ledger.fold_sums()
    coef = shift.gaussians.log_ratio_forms.copy()
    coef[:, 0] += np.log(shift.label_ratios(counts_t, size_dt))
    C, d = ledger.P0.shape[0], ledger.X.shape[1]
    G = np.empty((C, d + 1))
    G[:-1] = -(coef[:, None, :] @ S).sum(axis=0).reshape(C - 1, d + 1)
    G[-1] = -G[:-1].sum(axis=0)
    return np.concatenate([G[:, :d].ravel(), G[:, d]])


def forgetting_gradient(params0: ModelParams, ledger: ForgettingLedger,
                        shift: ShiftEstimator, counts_t: dict[int, int],
                        size_dt: int, lam: float) -> tuple[np.ndarray, str | None]:
    """(lam / sum |F_i|) * the sum over forgotten points of the KL gradient
    toward the current shift targets, and the path that computed it; a zero
    vector and None for an empty ledger.

    ``"sums"`` contracts the ledger's per-class sums with the current
    log-ratio coefficients; ``"rows"`` takes the log of
    ``ShiftEstimator.class_ratio_matrix``, which refreshes the ledger's
    density ratio column, and runs the backward pass over the w_0 forward
    pass the ledger keeps, so it runs none of its own. Both compute -A log q
    at every row, exactly, and neither builds targets."""
    if ledger.count == 0:
        return np.zeros(params0.arch.n_params), None
    if ledger.sums and sums_cheaper(ledger) and sums_exact(ledger, shift.gaussians):
        path, g = "sums", _sums_kl_gradient(ledger, shift, counts_t, size_dt)
    else:
        logq = np.log(shift.class_ratio_matrix(ledger, counts_t, size_dt).T)
        path, g = "rows", sum_grad_kl_to_targets(params0, ledger.X, logq,
                                                 forward=(ledger.P0, ledger.H))
    return (lam / ledger.count) * g, path


def _index_column(values, what: str) -> np.ndarray:
    """Request ids or labels as a 1-d int64 array; a StreamError unless they
    are 1-d, numeric and every entry is a whole number."""
    a = np.atleast_1d(np.asarray(values))
    if a.ndim != 1 or a.dtype.kind not in "iuf":
        raise StreamError(f"request {what} must be a 1-d integer array, "
                          f"got {a.dtype} of shape {a.shape}")
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64, copy=False)
    if a.dtype.kind != "i" and not np.array_equal(out, a):
        raise StreamError(f"request {what} must be whole numbers, "
                          f"got {a[out != a][:3].tolist()}")
    return out


@dataclass
class RoundResult:
    """One round's emitted model and what the round did to reach it; its
    forgetting gradient took ``grad_path`` (see ``forgetting_gradient``).
    No round builds the shift targets: a caller that needs them builds them
    with ``ShiftEstimator.target_predictions``."""

    params: ModelParams
    accepted: int                # request size after filtering
    dropped: int                 # repeated ids (first kept) / non-members
    grad_norm: float
    perturbation: np.ndarray
    exhausted_classes: list[int]
    grad_path: str | None        # "sums" / "rows"; None for an empty ledger


class SafeUnlearner:
    """Single-writer state machine processing one deletion request per round.

    The constructor is given the training rows D_0 (``prepare_rows``, as
    for the fit of w_0) and their ids, and reads them there and never
    again. From them it derives the whole initial state: the retention
    gradient at w_0, the class counts, the per-class Gaussians under
    ``projection``, the shift estimator, an index of the row ids and
    ``alive``, the boolean mask of the training rows no accepted request
    has taken yet. A request that ``process_request``
    rejects leaves that state unchanged.
    """

    def __init__(self, params0: ModelParams, config: SafeConfig,
                 projection: np.ndarray, rows: TrainingRows, ids: np.ndarray):
        if config.W is None:
            w0_norm = float(np.linalg.norm(params0.theta))
            if not w0_norm > 0:
                raise ConfigError("cannot resolve W from zero initial parameters")
            config = replace(config, W=w0_norm)
        self.config = config
        self.params0 = params0.copy()
        self.retention = RetentionGradState(grad_cross_entropy(params0, rows), len(rows))
        self.gaussians = ClassConditionalGaussians.fit(rows.X, rows.y, projection)
        self.class_counts = dict(zip(self.gaussians.classes, self.gaussians.n.tolist()))
        ids = np.asarray(ids)
        self._order = np.argsort(ids)
        self._sorted_ids = ids[self._order]
        self.alive = np.ones(len(ids), dtype=bool)
        self.ledger = ForgettingLedger(
            sums=keeps_sums(params0.arch, self.class_counts, projection.shape[1]))
        self.shift = ShiftEstimator(self.gaussians, self.class_counts)
        self.gamma = learning_rate(config)
        self.phi = perturbation_scale(config)
        self.round = 0

    def draw_perturbation(self, t: int) -> np.ndarray:
        # keyed by (seed, round), so a replay of the same requests draws the
        # same perturbation in every round
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.config.seed, spawn_key=(t,))
        )
        return rng.normal(0.0, self.phi, size=self.params0.arch.n_params)

    def _lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each id's training row, and whether the id names one at all (the
        row of an id that does not is meaningless)."""
        pos = np.minimum(np.searchsorted(self._sorted_ids, ids), len(self.alive) - 1)
        return self._order[pos], self._sorted_ids[pos] == ids

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The training rows ``ids`` names, each once and in ascending order:
        repeated ids give one row, ids of no training row none, and ids
        already forgotten their rows again."""
        rows, hit = self._lookup(np.asarray(ids))
        return np.unique(rows[hit])

    def process_request(self, X: np.ndarray, y: np.ndarray,
                        ids: np.ndarray) -> RoundResult:
        t = self.round + 1
        # the whole request is checked before any state changes
        try:
            X = np.asarray(X)
        except (ValueError, TypeError) as e:  # ragged rows, for one
            raise StreamError(f"request features are not one array: {e}") from None
        if X.dtype.kind not in "biuf":
            raise StreamError(f"request features must be real numbers, got {X.dtype}")
        X = np.atleast_2d(X.astype(np.float64, copy=False))
        y = _index_column(y, "labels")
        ids = _index_column(ids, "ids")
        if not (len(X) == len(y) == len(ids)):
            raise StreamError("request features, labels, and ids disagree in length")
        d = self.params0.arch.input_dim
        if X.ndim != 2 or X.shape[1] != d:
            raise StreamError(f"request features have shape {X.shape}, "
                              f"expected (*, {d})")
        if not np.all(np.isfinite(X)):
            raise StreamError("request features contain non-finite values")
        unknown = set(y.tolist()) - self.shift.counts0.keys()
        if unknown:
            raise StreamError(f"request labels {sorted(unknown)} are not fitted classes")

        # containment rule: keep the first occurrence of each id in D_{t-1}
        rows, hit = self._lookup(ids)
        keep = np.zeros(len(ids), dtype=bool)
        keep[np.unique(ids, return_index=True)[1]] = True
        keep &= hit & self.alive[rows]
        dropped = int((~keep).sum())
        X, y, rows = X[keep], y[keep], rows[keep]
        m = len(y)

        # an empty round changes no state: the step below reads it as it is
        exhausted = []
        if m:
            retention = update_retention_grad(
                self.retention, grad_cross_entropy(self.params0, X, y) * m, m)
            frozen = frozen_columns(self.params0, self.gaussians, X)
            # remove commits all of its class statistics or none of them
            exhausted, removed = self.gaussians.remove(frozen["Z"], y)
            self.retention = retention
            for label, k in zip(self.gaussians.classes, removed.tolist()):
                self.class_counts[label] -= k
            self.alive[rows] = False
            self.ledger.append(X, rows, **frozen)

        g_forget, path = forgetting_gradient(
            self.params0, self.ledger, self.shift,
            self.class_counts, self.retention.size_dt, self.config.lam,
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
            grad_path=path,
        )
