"""Random projection, per-class Gaussian statistics with exact downdating,
Gaussian log-density ratios, and Mardia's multivariate normality test.

``ClassConditionalGaussians`` keeps each class's Gaussians as one slab of
stacks: the t=0 fit of its projected training rows, and its current
statistics in a *standardized* space frozen at initialization: raw inputs
are projected with a fixed Gaussian matrix, then whitened by the class's
t=0 fit. There every class's initial distribution is N(0, I) exactly, which
makes the later density-ratio denominators closed-form. Every whitening is
one GEMM against the explicit k x k inverse of a Cholesky factor, not a
triangular solve over every row. ``factor`` factors every covariance, a
stack at a time, and gives the Gaussians' log density ratios against
N(0, I), quadratic forms in z held as coefficients over
``quadratic_features`` (``log_ratio_forms``):
``ClassConditionalGaussians.log_ratio`` evaluates them at rows, the
engine's sums path contracts them, and ``log_ratio_bounds`` bounds them
over a ball.

The covariance downdate uses the exact sum-of-squares group identity

    (n_t - 1) S_t = (n_{t-1} - 1) S_{t-1} - (m - 1) S_rm
                    - (n_t m / n_{t-1}) (mu_t - mu_rm)(mu_t - mu_rm)^T

whose binding contract is equality with a fresh two-pass recomputation over
the surviving points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import stats as spstats
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import ConfigError, StatsError

CHOL_JITTER = 1e-6


def make_projection(input_dim: int, proj_dim: int, seed: int) -> np.ndarray:
    """(input_dim, proj_dim) matrix with i.i.d. standard normal entries."""
    if proj_dim < 1:
        raise ConfigError(f"proj_dim must be >= 1, got {proj_dim}")
    if proj_dim > input_dim:
        raise ConfigError(f"proj_dim={proj_dim} exceeds input_dim={input_dim}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((input_dim, proj_dim))


def cholesky_with_jitter(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; on failure adds 1e-6*I and retries once."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(sigma + CHOL_JITTER * np.eye(sigma.shape[0]))
    except np.linalg.LinAlgError:
        raise StatsError("covariance not positive definite even after jitter") from None


def inverse_cholesky(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower Cholesky factor, by LAPACK's triangular inverse."""
    inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise StatsError(f"Cholesky factor is not invertible (dtrtri info {info})")
    return inv


def slabs(indices: list[int]) -> slice | np.ndarray:
    """Ascending slab indices as a basic slice when they are consecutive (one
    class, or every class), so stacks are read and written as views; else
    as an index array."""
    lo, hi = indices[0], indices[-1] + 1
    return slice(lo, hi) if hi - lo == len(indices) else np.array(indices)


def downdate_mean(n, mu: np.ndarray, m, mu_rm: np.ndarray) -> tuple:
    """Count and mean after removing a batch of 1 <= m < n points with mean
    mu_rm; for a leading class axis of mu and mu_rm (s, k), n and m are
    (s, 1)."""
    n_new = n - m
    return n_new, (n * mu - m * mu_rm) / n_new


def downdate_cov(n, sigma: np.ndarray, mu_new: np.ndarray, m,
                 mu_rm: np.ndarray, sigma_rm: np.ndarray) -> np.ndarray:
    """Bessel-corrected covariance after removing a batch of m >= 1 points
    that leaves n - m >= 2; for a leading class axis of sigma and sigma_rm
    (s, k, k), n and m are (s, 1, 1).

    sigma_rm is the Bessel-corrected covariance of the removed batch and must
    be the zero matrix when m == 1. Entries (a, b) and (b, a) take the same
    operations, so symmetric sigma and sigma_rm give a symmetric result.
    """
    n_new = n - m
    diff = mu_new - mu_rm
    s_new = (n - 1) * sigma
    s_new -= (m - 1) * sigma_rm
    s_new -= (n_new * m / n) * (diff[..., :, None] * diff[..., None, :])
    s_new /= n_new - 1
    return s_new


def sq_norms(Z: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row, along the last axis of Z: (n, k)
    rows give (n,), a (n_classes, n, k) stack gives (n_classes, n). A row's
    value does not depend on the rows beside it."""
    return np.einsum("...j,...j->...", Z, Z)


def batch_mean_cov(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean and Bessel-corrected covariance; zero matrix for m == 1."""
    Z = np.atleast_2d(Z)
    m, d = Z.shape
    mu = Z.mean(axis=0)
    if m == 1:
        return mu, np.zeros((d, d))
    centered = Z - mu
    return mu, centered.T @ centered / (m - 1)


@functools.lru_cache(maxsize=None)
def _upper_triangle(k: int) -> tuple[np.ndarray, ...]:
    """Row and column indices of the upper triangle of a k x k matrix in
    ``np.triu_indices`` order, their flat indices, the weight of each entry
    in a quadratic form (1 on the diagonal, 2 off it), and 0.5 I_k;
    read-only."""
    iu, ju = np.triu_indices(k)
    out = iu, ju, iu * k + ju, np.where(iu == ju, 1.0, 2.0), 0.5 * np.eye(k)
    for a in out:
        a.setflags(write=False)
    return out


def quadratic_features(Z: np.ndarray) -> np.ndarray:
    """phi(z) = (1, z, z_a z_b for a <= b in ``np.triu_indices`` order) of
    every row of the (..., m, k) rows Z, as a feature-major (..., F, m)
    stack with F = (k + 1)(k + 2)/2: a quadratic in z is a dot product with
    phi(z) (``ClassConditionalGaussians.log_ratio_forms``)."""
    Zt = np.ascontiguousarray(np.swapaxes(Z, -1, -2))
    k, m = Zt.shape[-2:]
    iu, ju = _upper_triangle(k)[:2]
    phi = np.empty(Zt.shape[:-2] + (len(iu) + k + 1, m))
    phi[..., 0, :] = 1.0
    phi[..., 1:k + 1, :] = Zt
    # take copies whole rows of m; a fancy index is several times slower
    np.multiply(np.take(Zt, iu, axis=-2), np.take(Zt, ju, axis=-2),
                out=phi[..., k + 1:, :])
    return phi


def factor(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the Gaussians N(mu, Sigma) of the stacks mu and sigma: inv_chol,
    the inverse lower Cholesky factors (one ``dpotrf`` and ``dtrtri`` per
    slab; only a slab ``dpotrf`` fails on goes to ``cholesky_with_jitter``),
    and the log ratios against N(0, I), c + h.z + z'Bz with P = inv_chol'
    inv_chol, h = P mu, B = (I - P)/2, c = -(log det Sigma + mu'h)/2, as the
    (s, F) coefficients of ``quadratic_features`` (c, h, B's upper triangle
    with off-diagonal entries doubled) and the stack B."""
    s, k = mu.shape
    _, _, flat, weight, half_eye = _upper_triangle(k)
    # slabs Fortran-ordered, as LAPACK returns them: a whitening's GEMM
    # against inv.T then reads a C-ordered operand
    inv = np.empty(sigma.shape).swapaxes(1, 2)
    for i, S in enumerate(sigma):
        L, info = dpotrf(S, lower=1)
        inv[i] = inverse_cholesky(cholesky_with_jitter(S) if info else L)
    logdet = -2.0 * np.log(inv.diagonal(axis1=1, axis2=2)).sum(axis=1)  # 1/diag(L)
    prec = inv.swapaxes(1, 2) @ inv
    h = prec @ mu[..., None]
    B = half_eye - 0.5 * prec  # the bits of 0.5 (I - prec)
    coef = np.empty((s, len(flat) + k + 1))
    coef[:, 0] = -0.5 * (logdet + (mu[:, None] @ h)[:, 0, 0])
    coef[:, 1:k + 1] = h[..., 0]
    np.multiply(B.reshape(s, k * k).take(flat, axis=1), weight, out=coef[:, k + 1:])
    return inv, coef, B


def schatten_bound(B: np.ndarray) -> np.ndarray:
    """An upper bound on the spectral norm of each symmetric (k, k) matrix
    of the stack B: the Schatten 32-norm (sum_i |lambda_i|^32)^(1/32) =
    ||B^16||_F^(1/16), by four squarings of B scaled to unit Frobenius
    norm, so nothing overflows. It exceeds ||B||_2 by at most a factor
    k^(1/32) (1.09 at k = 16), and costs a few small GEMMs where an
    eigensolver costs several times more."""
    sq = np.einsum("...ij,...ij->...", B, B)
    Bn = B / np.sqrt(np.where(sq > 0.0, sq, 1.0))[..., None, None]
    for _ in range(4):
        Bn = Bn @ Bn
    return np.sqrt(sq) * np.einsum("...ij,...ij->...", Bn, Bn) ** (1.0 / 32.0)


@dataclass
class ClassStats:
    """One class's Gaussian N(mu, sigma) over n points, as plain values, so
    ``asdict`` gives exactly n, mu, sigma and frozen."""

    n: int
    mu: np.ndarray
    sigma: np.ndarray
    frozen: bool = False


class ClassConditionalGaussians:
    """Projected, per-class Gaussian model of the surviving training data,
    one slab of each stack per class, in the order of ``classes``: the
    frozen t=0 transform (the projection, ``base_mu`` (C, k) and
    ``base_inv_chol`` (C, k, k)), and the statistics tracked under deletion,
    ``n`` (C,), ``mu`` (C, k), ``sigma`` (C, k, k), the log ratios their
    ``factor`` gives (``log_ratio_forms`` (C, F) and B) and ``frozen``,
    which ``stats`` copies out per class. ``version`` (C,) counts each
    class's downdates: what is derived from a class's statistics is current
    while its version is. ``remove`` alone decides when a class freezes:
    once its count would fall below ``min_class_count``, it keeps its last
    statistics."""

    def __init__(self, projection: np.ndarray, base_mu: np.ndarray,
                 base_inv_chol: np.ndarray, stats: dict[int, ClassStats]):
        self.projection = projection
        self.base_mu, self.base_inv_chol = base_mu, base_inv_chol
        self.classes = sorted(stats)
        self._label_col = np.array(self.classes)[:, None]  # see remove
        self.n, self.mu, self.sigma, self.frozen = (
            np.array([getattr(stats[c], f) for c in self.classes])
            for f in ("n", "mu", "sigma", "frozen"))
        self.log_ratio_forms, self.B = factor(self.mu, self.sigma)[1:]
        self.version = np.zeros(len(self.classes), dtype=np.int64)

    @property
    def proj_dim(self) -> int:
        return self.projection.shape[1]

    @property
    def min_class_count(self) -> int:
        """The fewest points a class may keep, proj_dim + 2: ``fit`` rejects
        a smaller class and ``remove`` freezes a class rather than go below
        it."""
        return self.proj_dim + 2

    @property
    def stats(self) -> dict[int, ClassStats]:
        """Each class's current statistics by label, copied from the stacks."""
        return {c: ClassStats(int(n), mu.copy(), sigma.copy(), bool(frozen))
                for c, n, mu, sigma, frozen in zip(self.classes, self.n, self.mu,
                                                   self.sigma, self.frozen)}

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray,
            projection: np.ndarray) -> "ClassConditionalGaussians":
        """Each class's t=0 fit of its rows X @ projection, and its statistics
        in the space that fit whitens."""
        proj_dim = projection.shape[1]
        U = X @ projection
        labels, counts = np.unique(y, return_counts=True)
        for label, count in zip(labels.tolist(), counts.tolist()):
            if count < proj_dim + 2:
                raise ConfigError(
                    f"class {label} has {count} samples, "
                    f"needs >= {proj_dim + 2} for a {proj_dim}-dim Gaussian"
                )
        # a class's rows are gathered where read: one class's copy at a time
        mu, sigma = map(np.array, zip(*(batch_mean_cov(U[y == c]) for c in labels)))
        inv_chol = factor(mu, sigma)[0]
        stats = {int(c): ClassStats(n, *batch_mean_cov((U[y == c] - m) @ L.T))
                 for c, n, m, L in zip(labels, counts.tolist(), mu, inv_chol)}
        return cls(projection, mu, inv_chol, stats)

    def standardize_batch(self, X: np.ndarray, label: int) -> np.ndarray:
        """Frozen t=0 transform of raw inputs under the given class."""
        if label not in self.classes:
            raise StatsError(f"no statistics for class {label}")
        i = self.classes.index(label)
        return (np.atleast_2d(X) @ self.projection - self.base_mu[i]) @ self.base_inv_chol[i].T

    def standardize_all(self, X: np.ndarray) -> np.ndarray:
        """(n_classes, n, k) stack of ``standardize_batch(X, c)`` over the
        fitted classes, in the order of ``classes``: X is projected once and
        whitened under every class in one stacked product."""
        U = np.atleast_2d(X) @ self.projection
        return (U - self.base_mu[:, None]) @ self.base_inv_chol.swapaxes(1, 2)

    def remove(self, Z: np.ndarray, y: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Downdate, in one stacked pass, every class a deletion batch of
        rows labelled y moves, all or nothing. Z is the batch's
        ``standardize_all`` stack (n_classes, m, k).

        A class the batch would leave with fewer than ``min_class_count``
        points freezes at its current statistics; frozen classes are
        skipped. The moved classes' new slabs are all computed before any is
        written, so a ``StatsError`` leaves every class as it was; each
        moved class's ``version`` goes up by one. Returns the labels frozen
        by this call and the batch's rows per class, in ``classes`` order.
        """
        hit = y == self._label_col
        counts = hit.sum(axis=1)
        named = counts.tolist()
        if sum(named) < len(y):
            raise StatsError(
                f"deletion names unknown class {np.setdiff1d(y, self.classes)[0]}")
        moved, exhausted = [], []
        for i, (m, n, frozen) in enumerate(zip(named, self.n.tolist(),
                                               self.frozen.tolist())):
            if m and not frozen:
                (moved if n - m >= self.min_class_count else exhausted).append(i)
        if moved:
            idx = slabs(moved)
            w, Zm = hit[idx, None].astype(float), Z[idx]
            m = w.sum(axis=2)
            # the removed rows' means and scatter, one stacked GEMM each over
            # the whole batch, the other classes' rows weighted zero
            mu_rm = (w @ Zm)[:, 0] / m
            D = (Zm - mu_rm[:, None]) * w.swapaxes(1, 2)
            sigma_rm = D.swapaxes(1, 2) @ D / np.maximum(m - 1, 1)[..., None]
            n0 = self.n[idx, None].astype(float)
            n, mu = downdate_mean(n0, self.mu[idx], m, mu_rm)
            sigma = downdate_cov(n0[..., None], self.sigma[idx], mu, m[..., None],
                                 mu_rm, sigma_rm)
            new = (n[:, 0], mu, sigma, *factor(mu, sigma)[1:])
            for name, value in zip(("n", "mu", "sigma", "log_ratio_forms", "B"), new):
                getattr(self, name)[idx] = value
            self.version[idx] += 1
        if exhausted:
            self.frozen[exhausted] = True
        return [self.classes[i] for i in exhausted], counts

    def log_ratio(self, Z: np.ndarray, i) -> np.ndarray:
        """log N(z | mu, sigma) - log N(z | 0, I), c + h.z + z'Bz, at the rows
        Z (n, k) under the class of slab i, or at each slab of a stack Z (s,
        n, k) under its class of the slabs i (as ``slabs`` gives them)."""
        form = self.log_ratio_forms[i]
        c, h = form[..., :1], form[..., 1:self.proj_dim + 1, None]
        return c + (Z @ h)[..., 0] + np.einsum("...ij,...ij->...i", Z @ self.B[i], Z)

    def log_ratio_bounds(self, rho2: np.ndarray) -> np.ndarray:
        """Per class, in the order of ``classes``, an upper bound on
        |log N(z | mu_t, Sigma_t) - log N(z | 0, I)| over every z with
        ||z||^2 <= rho2[class]: |c| + ||h|| rho + ||B||_2 rho^2, in the
        terms of ``log_ratio_forms``; |z'Bz| <= ||B||_2 ||z||^2, with
        ||B||_2 bounded by ``schatten_bound`` over the whole B stack."""
        c, h = self.log_ratio_forms[:, 0], self.log_ratio_forms[:, 1:self.proj_dim + 1]
        return (np.abs(c) + np.sqrt((h * h).sum(axis=1)) * np.sqrt(rho2)
                + schatten_bound(self.B) * rho2)


def mardia_test(Z: np.ndarray) -> tuple[float, float]:
    """Mardia's multivariate normality test: (skewness p, kurtosis p).

    Skewness statistic n*b1/6 is referred to chi-squared with
    p(p+1)(p+2)/6 degrees of freedom; the kurtosis statistic is the two-sided
    normal z-score of b2 against mean p(p+2) and variance 8p(p+2)/n. Uses the
    classical maximum-likelihood (1/n) covariance.

    Under normality each p-value is asymptotically Uniform(0,1), so each
    rejects a fraction alpha of normal samples at level alpha. The two
    statistics are asymptotically independent, so both pass at level alpha
    for about (1-alpha)^2 of normal samples (0.9025 at alpha = 0.05), not
    1-alpha.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n, p = Z.shape
    if n < p + 2:
        raise StatsError(f"need at least {p + 2} rows for dimension {p}, got {n}")
    centered = Z - Z.mean(axis=0)
    sigma = centered.T @ centered / n
    chol = cholesky_with_jitter(sigma)
    W = solve_triangular(chol, centered.T, lower=True).T

    # b1 = (1/n^2) sum_ij (w_i . w_j)^3 = ||T||^2 / n^2 with
    # T_abc = sum_i w_ia w_ib w_ic, avoiding the n x n distance matrix.
    T = np.einsum("ia,ib,ic->abc", W, W, W)
    b1 = float((T * T).sum()) / n**2
    b2 = float(((W * W).sum(axis=1) ** 2).mean())

    skew_stat = n * b1 / 6.0
    df = p * (p + 1) * (p + 2) / 6.0
    p_skew = float(spstats.chi2.sf(skew_stat, df))

    kurt_z = (b2 - p * (p + 2)) / np.sqrt(8.0 * p * (p + 2) / n)
    p_kurt = float(2.0 * spstats.norm.sf(abs(kurt_z)))
    return p_skew, p_kurt
