from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from safestream.errors import ConfigError, StatsError
from safestream.gaussian import (
    ClassConditionalGaussians,
    ClassStats,
    batch_mean_cov,
    cholesky_with_jitter,
    downdate_cov,
    downdate_mean,
    inverse_cholesky,
    make_projection,
    mardia_test,
    sq_norms,
)

LOG_2PI = np.log(2.0 * np.pi)


def log_ratio(Z, mu, sigma):
    """log N(z | mu, sigma) - log N(z | 0, I) per row, from a one-class model
    whose frozen transform is the identity."""
    d = len(mu)
    unit = ClassStats(50, np.zeros(d), np.eye(d))
    g = ClassConditionalGaussians(np.eye(d), {0: unit}, {0: ClassStats(50, mu, sigma)})
    Z = np.atleast_2d(Z)
    return g.log_density_vs_base_batch(Z, sq_norms(Z), 0)


def std_normal_log(z):
    return -0.5 * (len(z) * LOG_2PI + z @ z)


def test_projection_deterministic():
    a = make_projection(20, 8, seed=3)
    b = make_projection(20, 8, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_projection(20, 8, seed=4))


def test_projection_standard_normal_moments():
    v = make_projection(1000, 100, seed=0)  # 1e5 entries
    assert abs(v.mean()) < 0.02
    assert abs(v.std() - 1.0) < 0.02


def test_projection_degenerate_shape():
    assert make_projection(1, 1, seed=0).shape == (1, 1)


def test_projection_too_wide_rejected():
    with pytest.raises(ConfigError):
        make_projection(4, 5, seed=0)


def scalar_downdate(data, remove):
    """Two-pass oracle plus the recursive path on 1-d data."""
    data = np.asarray(data, dtype=float)[:, None]
    remove = np.asarray(remove, dtype=float)[:, None]
    mu, sigma = batch_mean_cov(data)
    mu_rm, sigma_rm = batch_mean_cov(remove) if len(remove) else (np.zeros(1), np.zeros((1, 1)))
    n_new, mu_new = downdate_mean(len(data), mu, len(remove), mu_rm)
    sigma_new = downdate_cov(len(data), sigma, mu_new, len(remove), mu_rm, sigma_rm)
    return n_new, float(mu_new[0]), float(sigma_new[0, 0])


def test_downdate_mean_scalar_example():
    n, mu, _ = scalar_downdate([1, 1, 1, 5], [5])
    assert n == 3 and mu == pytest.approx(1.0, abs=1e-14)


def test_downdate_cov_scalar_example():
    # {0,2,4,10} has sample variance 56/3; removing {10} leaves variance 4
    data = np.array([0.0, 2.0, 4.0, 10.0])[:, None]
    _, sigma = batch_mean_cov(data)
    assert sigma[0, 0] == pytest.approx(56.0 / 3.0)
    _, _, var = scalar_downdate([0, 2, 4, 10], [10])
    assert var == pytest.approx(4.0, abs=1e-12)


def test_downdate_centroid_removal_keeps_mean():
    data = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
    mu, _ = batch_mean_cov(data)  # (0, 0)
    _, mu_new = downdate_mean(3, mu, 1, np.zeros(2))
    assert np.allclose(mu_new, mu, atol=1e-15)


def test_sequential_downdates_match_two_pass():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((1000, 8))
    alive = np.ones(1000, dtype=bool)
    mu, sigma = batch_mean_cov(data)
    n = 1000
    for _ in range(20):
        idx = rng.choice(np.flatnonzero(alive), 10, replace=False)
        mu_rm, sigma_rm = batch_mean_cov(data[idx])
        n, mu = downdate_mean(n, mu, len(idx), mu_rm)
        sigma = downdate_cov(n + len(idx), sigma, mu, len(idx), mu_rm, sigma_rm)
        alive[idx] = False
    mu_direct, sigma_direct = batch_mean_cov(data[alive])
    assert n == alive.sum()
    assert np.abs(mu - mu_direct).max() < 1e-8
    assert np.abs(sigma - sigma_direct).max() < 1e-8


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_downdate_order_independent(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((60, 3))
    a, b = data[:5], data[5:9]

    def remove_batches(batches):
        n = len(data)
        mu, sigma = batch_mean_cov(data)
        for batch in batches:
            mu_rm, sigma_rm = batch_mean_cov(batch)
            n, mu = downdate_mean(n, mu, len(batch), mu_rm)
            sigma = downdate_cov(n + len(batch), sigma, mu, len(batch), mu_rm, sigma_rm)
        return mu, sigma

    mu_ab, sigma_ab = remove_batches([a, b])
    mu_ba, sigma_ba = remove_batches([b, a])
    mu_u, sigma_u = remove_batches([np.vstack([a, b])])
    assert np.abs(mu_ab - mu_ba).max() < 1e-10
    assert np.abs(sigma_ab - sigma_ba).max() < 1e-10
    assert np.abs(mu_ab - mu_u).max() < 1e-10
    assert np.abs(sigma_ab - sigma_u).max() < 1e-10


def test_gaussian_logpdf_closed_forms():
    # N(0, 4) against N(0, 1) in one dimension: -log 2 + z^2 (1/2 - 1/8)
    got = log_ratio(np.array([[0.0], [1.0]]), np.zeros(1), np.array([[4.0]]))
    assert got == pytest.approx([-np.log(2.0), -np.log(2.0) + 0.375], abs=1e-12)
    # log-density at the mean of N(0, I_2) is -log 2 pi
    at_mean = log_ratio(np.zeros(2), np.zeros(2), np.eye(2))[0] + std_normal_log(np.zeros(2))
    assert at_mean == pytest.approx(-LOG_2PI)


def test_gaussian_logpdf_matches_explicit_inverse():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 0.5 * np.eye(4)
        mu = rng.standard_normal(4)
        z = rng.standard_normal(4)
        diff = z - mu
        direct = -0.5 * (
            4 * LOG_2PI
            + np.log(np.linalg.det(sigma))
            + diff @ np.linalg.inv(sigma) @ diff
        ) - std_normal_log(z)
        assert abs(log_ratio(z, mu, sigma)[0] - direct) < 1e-10


def test_gaussian_logpdf_maximized_at_mean():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 0.5 * np.eye(3)
    mu = rng.standard_normal(3)

    def logpdf(z):
        return log_ratio(z, mu, sigma)[0] + std_normal_log(z)

    at_mu = logpdf(mu)
    for _ in range(20):
        assert logpdf(mu + rng.standard_normal(3)) <= at_mu


def test_cholesky_jitter_recovers_singular():
    sigma = np.zeros((3, 3))
    chol = cholesky_with_jitter(sigma)
    assert np.all(np.isfinite(chol))


def test_inverse_cholesky_rejects_singular_factor():
    with pytest.raises(StatsError, match="not invertible"):
        inverse_cholesky(np.diag([1.0, 0.0, 2.0]))


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(12)
    X = np.vstack([
        rng.standard_normal((400, 12)) + 3.0,
        rng.standard_normal((400, 12)) - 3.0,
    ])
    y = np.repeat([0, 1], 400)
    projection = make_projection(12, 6, seed=2)
    return X, y, ClassConditionalGaussians.fit(X, y, projection)


class TestClassGaussians:

    def test_standardized_slice_is_unit_gaussian(self, fitted):
        X, y, g = fitted
        for label in (0, 1):
            Z = g.standardize_batch(X[y == label], label)
            mu, sigma = batch_mean_cov(Z)
            assert np.abs(mu).max() < 1e-8
            assert np.abs(sigma - np.eye(6)).max() < 1e-8

    def test_point_at_class_mean_maps_to_zero(self, fitted):
        _, _, g = fitted
        # minimum-norm preimage x with V^T x = mu0, so standardize(x) = 0
        v = g.projection
        x = v @ np.linalg.solve(v.T @ v, g.base[0].mu)
        assert np.abs(g.standardize_batch(x[None, :], 0)).max() < 1e-9

    def test_identity_transform_when_unit_stats(self, fitted):
        X, y, g = fitted
        # with mu0 = 0 and chol0 = I the transform is V^T x
        unit = ClassStats(50, np.zeros(6), np.eye(6))
        g2 = ClassConditionalGaussians(g.projection, {0: unit}, {0: g.stats[0]})
        x = X[0]
        assert np.allclose(g2.standardize_batch(x[None, :], 0), x @ g.projection, atol=1e-12)

    def test_standardize_all_matches_triangular_solve(self, fitted):
        # against each class's t=0 mean and Cholesky factor recomputed from
        # its rows, not read from the fit
        X, y, g = fitted
        Z = g.standardize_all(X)
        assert Z.shape == (2, len(X), 6)
        for j, label in enumerate(g.classes):
            mu, sigma = batch_mean_cov(X[y == label] @ g.projection)
            U = X @ g.projection - mu
            want = solve_triangular(np.linalg.cholesky(sigma), U.T, lower=True).T
            assert np.abs(Z[j] - want).max() < 1e-12

    def test_undersized_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 12))
        y = np.zeros(10, dtype=int)  # needs >= 8 for proj_dim 6: ok; 4 fails
        projection = make_projection(12, 8, seed=0)
        with pytest.raises(ConfigError):
            ClassConditionalGaussians.fit(X[:6], y[:6], projection)

    def test_single_class_dataset(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 12))
        y = np.zeros(50, dtype=int)
        g = ClassConditionalGaussians.fit(X, y, make_projection(12, 4, seed=1))
        assert g.classes == [0]

    def test_removal_tracks_two_pass(self, fitted):
        X, y, _ = fitted
        g = ClassConditionalGaussians.fit(X, y, make_projection(12, 6, seed=2))
        rng = np.random.default_rng(3)
        alive = np.ones(len(y), dtype=bool)
        for _ in range(15):
            idx = rng.choice(np.flatnonzero(alive), 8, replace=False)
            g.remove(g.standardize_all(X[idx]), y[idx])
            alive[idx] = False
        for label in (0, 1):
            rows = X[alive & (y == label)]
            Z = g.standardize_batch(rows, label)
            mu, sigma = batch_mean_cov(Z)
            st = g.stats[label]
            assert st.n == len(rows)
            assert np.abs(st.mu - mu).max() < 1e-8
            assert np.abs(st.sigma - sigma).max() < 1e-8

    def test_remove_freezes_only_below_min_class_count(self):
        # a batch that leaves exactly min_class_count points downdates; one
        # that would leave one fewer freezes the class where it stands
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 5))
        y = np.zeros(40, dtype=int)
        g = ClassConditionalGaussians.fit(X, y, make_projection(5, 3, seed=5))
        assert g.min_class_count == 5
        assert g.remove(g.standardize_all(X[:35]), y[:35]) == []
        st = g.stats[0]
        mu, sigma = batch_mean_cov(g.standardize_batch(X[35:], 0))
        assert st.n == 5 and not st.frozen
        assert np.abs(st.mu - mu).max() < 1e-8
        assert np.abs(st.sigma - sigma).max() < 1e-8
        before = asdict(st)
        assert g.remove(g.standardize_all(X[35:36]), y[35:36]) == [0]
        after = asdict(g.stats[0])
        assert after.pop("frozen") and not before.pop("frozen")
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_exhaustion_freezes_stats(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 5)) + 1.0
        y = np.zeros(40, dtype=int)
        g = ClassConditionalGaussians.fit(X, y, make_projection(5, 3, seed=5))
        before = g.stats[0].mu.copy()
        # would leave 2 < proj_dim + 2
        exhausted = g.remove(g.standardize_all(X[:38]), y[:38])
        assert exhausted == [0]
        assert g.stats[0].frozen
        assert np.array_equal(g.stats[0].mu, before)
        # further removals are ignored silently
        assert g.remove(g.standardize_all(X[38:]), y[38:]) == []


def test_mardia_positive_control_frozen_rate():
    # frozen from the Monte-Carlo oracle at this exact protocol: the joint
    # rate of a calibrated test is ~0.95^2, not the nominal per-test 95%
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps, pk = mardia_test(rng.standard_normal((5000, 4)))
        wins += (ps > 0.05 and pk > 0.05)
    assert wins == 94


def test_mardia_negative_control_rejects_skew():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ps, _ = mardia_test(rng.exponential(1.0, (5000, 4)))
        hits += ps < 0.01
    assert hits == 50


def test_mardia_requires_enough_rows():
    with pytest.raises(StatsError):
        mardia_test(np.random.default_rng(0).standard_normal((4, 4)))


def test_std_normal_logpdf_matches_identity_gaussian():
    # the base density is N(0, I), so the log-ratio of N(0, I) to it is zero
    z = np.random.default_rng(2).standard_normal(5)
    assert log_ratio(z, np.zeros(5), np.eye(5))[0] == pytest.approx(0.0, abs=1e-12)
