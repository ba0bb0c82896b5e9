"""Random projection, per-class Gaussian statistics with exact downdating,
Gaussian log-density ratios, and Mardia's multivariate normality test.

Every Gaussian is a ``ClassStats``, the one place a covariance is factored.
Per class there are two: the t=0 fit of the projected training rows, and
the current statistics in a *standardized* space frozen at initialization:
raw inputs are projected with a fixed Gaussian matrix, then whitened by the
class's t=0 fit. There every class's initial distribution is N(0, I)
exactly, which makes the later density-ratio denominators closed-form.
Every whitening is ``ClassStats.whiten``, one GEMM against the explicit
k x k inverse of a Cholesky factor, not a triangular solve over every row.
Every log density ratio against N(0, I) is the quadratic form in z that
``ClassStats.log_ratio_form`` holds: ``ClassStats.log_ratio`` evaluates it
at rows, ``ClassConditionalGaussians.log_ratio_forms`` stacks every class's
as a dot product with ``quadratic_features`` for the engine's sums path,
and ``log_ratio_bounds`` bounds it over a ball.

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
from scipy.linalg.lapack import dtrtri

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


def downdate_mean(n: int, mu: np.ndarray, m: int,
                  mu_rm: np.ndarray) -> tuple[int, np.ndarray]:
    """Count and mean after removing a batch of 1 <= m < n points with mean
    mu_rm."""
    n_new = n - m
    return n_new, (n * mu - m * mu_rm) / n_new


def downdate_cov(n: int, sigma: np.ndarray, mu_new: np.ndarray, m: int,
                 mu_rm: np.ndarray, sigma_rm: np.ndarray) -> np.ndarray:
    """Bessel-corrected covariance after removing a batch of m >= 1 points
    that leaves n - m >= 2.

    sigma_rm is the Bessel-corrected covariance of the removed batch and must
    be the zero matrix when m == 1.
    """
    n_new = n - m
    diff = mu_new - mu_rm
    s_new = (
        (n - 1) * sigma
        - (m - 1) * sigma_rm
        - (n_new * m / n) * np.outer(diff, diff)
    )
    sigma_new = s_new / (n_new - 1)
    return 0.5 * (sigma_new + sigma_new.T)  # kill asymmetric rounding


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
def _upper_triangle(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a k x k matrix in
    ``np.triu_indices`` order, their flat indices, and the weight of each
    entry in a quadratic form (1 on the diagonal, 2 off it); read-only."""
    iu, ju = np.triu_indices(k)
    out = iu, ju, iu * k + ju, np.where(iu == ju, 1.0, 2.0)
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
    iu, ju, _, _ = _upper_triangle(k)
    phi = np.empty(Zt.shape[:-2] + (len(iu) + k + 1, m))
    phi[..., 0, :] = 1.0
    phi[..., 1:k + 1, :] = Zt
    # take copies whole rows of m; a fancy index is several times slower
    np.multiply(np.take(Zt, iu, axis=-2), np.take(Zt, ju, axis=-2),
                out=phi[..., k + 1:, :])
    return phi


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
    """A Gaussian N(mu, sigma) over n points: a class's t=0 fit in the
    projected space, or its running statistics in the standardized space.

    Construction factors sigma (``cholesky_with_jitter``) and keeps the
    factor's inverse ``inv_chol`` and sigma's log-determinant ``logdet`` as
    plain attributes, not fields, so ``asdict`` gives n, mu, sigma and
    frozen; a downdate builds new statistics instead, so nothing derived
    from mu and sigma (the factor, ``log_ratio_form``) goes stale."""

    n: int
    mu: np.ndarray
    sigma: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        chol = cholesky_with_jitter(self.sigma)
        self.inv_chol = inverse_cholesky(chol)
        self.logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        self._form = None  # see log_ratio_form
        self._row = None  # its rows of ClassConditionalGaussians.log_ratio_forms

    def whiten(self, U: np.ndarray) -> np.ndarray:
        """Rows U mapped to inv_chol (U - mu): N(mu, sigma) becomes N(0, I)."""
        return (U - self.mu) @ self.inv_chol.T

    @property
    def log_ratio_form(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(c, h, B) with log N(z | mu, sigma) - log N(z | 0, I) = c + h.z +
        z'Bz: h = Sigma^-1 mu, B = (I - Sigma^-1)/2 and c = -(logdet +
        mu'h)/2, where Sigma^-1 = inv_chol' inv_chol; computed on first use
        and kept, like ``inv_chol``, for the life of these statistics."""
        if self._form is None:
            prec = self.inv_chol.T @ self.inv_chol
            h = prec @ self.mu
            B = 0.5 * (np.eye(len(h)) - prec)
            self._form = -0.5 * (self.logdet + float(self.mu @ h)), h, B
        return self._form

    def log_ratio(self, Z: np.ndarray) -> np.ndarray:
        """log N(z | mu, sigma) - log N(z | 0, I) at each row z of the (n, k)
        rows Z, from ``log_ratio_form``."""
        c, h, B = self.log_ratio_form
        return c + Z @ h + np.einsum("ij,ij->i", Z @ B, Z)


class ClassConditionalGaussians:
    """Projected, per-class Gaussian model of the surviving training data.

    Holds the frozen initial transform (the projection and each class's t=0
    fit, ``base``) and the per-class statistics tracked under deletion,
    ``stats``. ``remove`` alone decides when a class freezes: once its count
    would fall below ``min_class_count``, it keeps its last statistics.
    """

    def __init__(self, projection: np.ndarray, base: dict[int, ClassStats],
                 stats: dict[int, ClassStats]):
        self.projection = projection
        self.base = base
        self.stats = stats
        self._forms: tuple | None = None  # see log_ratio_forms

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
    def classes(self) -> list[int]:
        return sorted(self.stats)

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray,
            projection: np.ndarray) -> "ClassConditionalGaussians":
        proj_dim = projection.shape[1]
        U = X @ projection
        base: dict[int, ClassStats] = {}
        stats: dict[int, ClassStats] = {}
        for label in np.unique(y):
            label = int(label)
            rows = U[y == label]
            if len(rows) < proj_dim + 2:
                raise ConfigError(
                    f"class {label} has {len(rows)} samples, "
                    f"needs >= {proj_dim + 2} for a {proj_dim}-dim Gaussian"
                )
            base[label] = ClassStats(len(rows), *batch_mean_cov(rows))
            stats[label] = ClassStats(len(rows),
                                      *batch_mean_cov(base[label].whiten(rows)))
        return cls(projection, base, stats)

    def standardize_batch(self, X: np.ndarray, label: int) -> np.ndarray:
        """Frozen t=0 transform of raw inputs under the given class."""
        if label not in self.base:
            raise StatsError(f"no statistics for class {label}")
        return self.base[label].whiten(np.atleast_2d(X) @ self.projection)

    def standardize_all(self, X: np.ndarray) -> np.ndarray:
        """(n_classes, n, k) stack of ``standardize_batch(X, c)`` over the
        fitted classes, in the order of ``classes``; X is projected once."""
        U = np.atleast_2d(X) @ self.projection
        return np.stack([self.base[label].whiten(U) for label in self.classes])

    def remove(self, Z: np.ndarray, y: np.ndarray) -> list[int]:
        """Downdate the per-class statistics for a deletion batch of rows
        labelled y, all or nothing. Z is the batch's ``standardize_all``
        stack, (n_classes, m, k): the rows of class c are read from the
        slab of c.

        A class the batch would leave with fewer than ``min_class_count``
        points freezes at its current statistics; already frozen classes are
        skipped. Every other class's count, mean, covariance and Cholesky
        factor is computed before any class changes, so a ``StatsError``
        leaves every class as it was. A class's statistics change only by
        replacing its ``ClassStats`` (freezing one sets its flag, nothing
        else): the ledger's ratio refresh relies on that. Returns the labels
        frozen by this call.
        """
        exhausted: list[int] = []
        updated: dict[int, ClassStats] = {}
        slab = {label: i for i, label in enumerate(self.classes)}
        for label in np.unique(y):
            label = int(label)
            st = self.stats.get(label)
            if st is None:
                raise StatsError(f"deletion names unknown class {label}")
            if st.frozen:
                continue
            Zc = Z[slab[label]][y == label]
            if st.n - len(Zc) < self.min_class_count:
                exhausted.append(label)
                continue
            mu_rm, sigma_rm = batch_mean_cov(Zc)
            n_new, mu_new = downdate_mean(st.n, st.mu, len(Zc), mu_rm)
            sigma_new = downdate_cov(st.n, st.sigma, mu_new, len(Zc), mu_rm, sigma_rm)
            updated[label] = ClassStats(n_new, mu_new, sigma_new)
        for label in exhausted:
            self.stats[label].frozen = True
        self.stats.update(updated)
        return exhausted

    def log_ratio_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(coef, terms)`` of every class, in the order of ``classes``, from
        each class's ``ClassStats.log_ratio_form`` (c, h, B).

        coef (n_classes, F): c + h.z + z'Bz is ``coef[i] @
        quadratic_features(z)``, so coef[i, 0] is c and coef[i, 1:k+1] is h.
        terms (n_classes, 3): |c|, ||h|| and ``schatten_bound(B)`` >=
        ||B||_2, which ``log_ratio_bounds`` combines.

        A class's rows are computed once per statistics object and kept on
        it, those of every class that lacks them in one stacked pass, and
        the stacks once per set of statistics objects: a round that replaces
        one class's statistics computes that class's rows alone, and a round
        that replaces none (a frozen class keeps its object) reuses the
        stacks."""
        stats = [self.stats[label] for label in self.classes]
        if self._forms is not None and all(a is b for a, b in zip(self._forms[0], stats)):
            return self._forms[1:]
        stale = [st for st in stats if st._row is None]
        if stale:
            k = self.proj_dim
            _, _, flat, weight = _upper_triangle(k)
            coef = np.empty((len(stale), len(flat) + k + 1))
            B = np.empty((len(stale), k, k))
            for i, st in enumerate(stale):
                coef[i, 0], coef[i, 1:k + 1], B[i] = st.log_ratio_form
            np.multiply(np.take(B.reshape(len(stale), k * k), flat, axis=1), weight,
                        out=coef[:, k + 1:])
            c, h = coef[:, 0], coef[:, 1:k + 1]
            terms = np.stack([np.abs(c), np.sqrt((h * h).sum(axis=1)),
                              schatten_bound(B)], axis=1)
            for st, row, bound in zip(stale, coef, terms):
                st._row = row, bound
        if len(stale) < len(stats):
            coef = np.array([st._row[0] for st in stats])
            terms = np.array([st._row[1] for st in stats])
        self._forms = (stats, coef, terms)
        return self._forms[1:]

    def log_ratio_bounds(self, rho2: np.ndarray) -> np.ndarray:
        """Per class, in the order of ``classes``, an upper bound on
        |log N(z | mu_t, Sigma_t) - log N(z | 0, I)| over every z with
        ||z||^2 <= rho2[class]: |c| + ||h|| rho + ||B||_2 rho^2, in the
        terms of ``log_ratio_forms``; |z'Bz| <= ||B||_2 ||z||^2 and ||B||_2
        = ||I - Sigma^-1||_2 / 2."""
        c_abs, h_norm, B_norm = self.log_ratio_forms()[1].T
        return c_abs + h_norm * np.sqrt(rho2) + B_norm * rho2


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
