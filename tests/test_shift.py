import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from safestream.engine import ForgettingLedger, frozen_columns
from safestream.errors import ConfigError
from safestream.gaussian import (
    ClassConditionalGaussians,
    ClassStats,
    make_projection,
    sq_norms,
)
from safestream.model import Architecture, ModelParams
from safestream.shift import (
    RATIO_FLOOR,
    ShiftEstimator,
    density_ratio,
    label_ratio,
)


def test_label_ratio_proportional_deletion_cancels():
    assert label_ratio(90, 100, 900, 1000) == pytest.approx(1.0)


def test_label_ratio_closed_form():
    assert label_ratio(80, 100, 980, 1000) == pytest.approx(0.81633, abs=1e-5)


def test_label_ratio_no_deletions_is_identity():
    for n0 in (10, 100, 550):
        assert label_ratio(n0, n0, 1000, 1000) == pytest.approx(1.0)


def test_label_ratio_exhausted_class_floored():
    assert label_ratio(0, 100, 900, 1000) == RATIO_FLOOR


def test_label_ratio_validates_inputs():
    with pytest.raises(ConfigError):
        label_ratio(5, 0, 900, 1000)
    with pytest.raises(ConfigError):
        label_ratio(5, 10, 0, 1000)


@pytest.fixture(scope="module")
def gaussian_setup():
    rng = np.random.default_rng(21)
    X = np.vstack([
        rng.standard_normal((300, 8)) + 2.0,
        rng.standard_normal((300, 8)) - 2.0,
    ])
    y = np.repeat([0, 1], 300)
    g = ClassConditionalGaussians.fit(X, y, make_projection(8, 4, seed=6))
    return X, y, g


def ledger_of(params, g, X):
    """A ledger holding the rows X with the columns the engine gives them."""
    ledger = ForgettingLedger(lam=1.0)
    ledger.append(X, np.arange(len(X)), **frozen_columns(params, g, X))
    return ledger


def test_density_ratio_one_without_deletions(gaussian_setup):
    X, y, g = gaussian_setup
    for x, label in zip(X[:20], y[:20]):
        z = g.standardize_batch(x[None, :], int(label))
        got = density_ratio(z, sq_norms(z), g, int(label))
        assert got == pytest.approx([1.0], abs=1e-6)


def test_density_ratio_closed_form_mean_shift():
    # mu_t = (delta, 0, ...), Sigma_t = I, z = 0 -> exp(-delta^2 / 2)
    delta = 0.7
    dim = 3
    mu = np.zeros(dim)
    mu[0] = delta
    unit = {0: ClassStats(50, np.zeros(dim), np.eye(dim))}
    stats = {0: ClassStats(50, mu, np.eye(dim))}
    g = ClassConditionalGaussians(np.eye(dim), unit, stats)
    got = density_ratio(np.zeros((1, dim)), np.zeros(1), g, 0)
    assert got == pytest.approx([np.exp(-delta * delta / 2.0)], abs=1e-12)


def test_density_ratio_matches_direct_two_density(gaussian_setup):
    X, y, _ = gaussian_setup
    g = ClassConditionalGaussians.fit(X, y, make_projection(8, 4, seed=6))
    rng = np.random.default_rng(7)
    gone = X[rng.choice(300, 40, replace=False)]
    g.remove(g.standardize_all(gone), np.zeros(40, dtype=int))
    st = g.stats[0]
    for x in X[250:270]:
        z = g.standardize_batch(x[None, :], 0)
        direct = np.exp(multivariate_normal(st.mu, st.sigma).logpdf(z)
                        - multivariate_normal(np.zeros(4), np.eye(4)).logpdf(z))
        got = density_ratio(z, sq_norms(z), g, 0)
        assert got == pytest.approx([float(direct)], abs=1e-10)


def test_density_ratio_clipped_positive_finite():
    dim = 2
    far_mu = np.full(dim, 80.0)
    unit = {0: ClassStats(50, np.zeros(dim), np.eye(dim))}
    stats = {0: ClassStats(50, far_mu, np.eye(dim))}
    g = ClassConditionalGaussians(np.eye(dim), unit, stats)
    Z = np.vstack([np.zeros(dim), far_mu])
    low, high = density_ratio(Z, sq_norms(Z), g, 0)
    assert low == 1e-6 and high == 1e6


def test_target_identity_when_ratios_one(gaussian_setup):
    X, y, g = gaussian_setup
    counts0 = {0: 300, 1: 300}
    est = ShiftEstimator(g, counts0)
    arch = Architecture(8, 2)
    params = ModelParams(arch, np.random.default_rng(1).standard_normal(arch.n_params))
    targets = est.target_predictions(ledger_of(params, g, X[:10]), counts0, 600)
    from safestream.model import predict_proba_batch

    assert np.abs(targets - predict_proba_batch(params, X[:10])).max() < 1e-6


def test_target_closed_form_reweighting():
    # f = (0.5, 0.5), ratios (1, 3) -> (0.25, 0.75)
    probs = np.array([0.5, 0.5])
    ratios = np.array([1.0, 3.0])
    raw = probs * ratios
    assert np.allclose(raw / raw.sum(), [0.25, 0.75])


def test_target_normalization_invariance(gaussian_setup):
    X, y, g = gaussian_setup
    counts0 = {0: 300, 1: 300}
    est = ShiftEstimator(g, counts0)
    arch = Architecture(8, 2)
    params = ModelParams(arch, np.random.default_rng(2).standard_normal(arch.n_params))
    q = est.class_ratio_matrix(ledger_of(params, g, X[:5]), counts0, 600)
    from safestream.model import predict_proba_batch

    probs = predict_proba_batch(params, X[:5])
    base = probs * q
    base = base / base.sum(axis=1, keepdims=True)
    scaled = probs * (17.5 * q)
    scaled = scaled / scaled.sum(axis=1, keepdims=True)
    assert np.abs(base - scaled).max() < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_target_monotone_in_ratio(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(4))
    ratios = rng.uniform(0.2, 5.0, 4)
    raw = probs * ratios
    target = raw / raw.sum()
    boosted = ratios.copy()
    boosted[2] *= 3.0
    raw2 = probs * boosted
    target2 = raw2 / raw2.sum()
    assert target2[2] >= target[2] - 1e-15
    assert abs(target.sum() - 1.0) < 1e-12


def test_degenerate_row_falls_back_to_initial(gaussian_setup):
    X, y, g = gaussian_setup
    est = ShiftEstimator(g, {0: 300, 1: 300})
    arch = Architecture(8, 2)
    params = ModelParams(arch, np.zeros(arch.n_params))

    class AllZeroRatios(ShiftEstimator):
        def class_ratio_matrix(self, ledger, counts_t, size_dt):
            return np.zeros((ledger.count, 2))

    est2 = AllZeroRatios(g, {0: 300, 1: 300})
    targets = est2.target_predictions(ledger_of(params, g, X[:3]),
                                      {0: 300, 1: 300}, 600)
    assert np.allclose(targets, 0.5)
    one = est.target_predictions(ledger_of(params, g, X[:1]), {0: 300, 1: 300}, 600)
    assert one.shape == (1, 2)


def test_ratios_and_targets_are_rows_by_classes(gaussian_setup):
    # both return (n, C): a caller reads class c's ratios as q[:, c]
    X, y, g = gaussian_setup
    counts0, counts_t = {0: 300, 1: 300}, {0: 250, 1: 300}
    est = ShiftEstimator(g, counts0)
    arch = Architecture(8, 2)
    params = ModelParams(arch, np.random.default_rng(5).standard_normal(arch.n_params))
    Z = g.standardize_all(X[:7])
    zz = sq_norms(Z)
    ledger = ledger_of(params, g, X[:7])
    q = est.class_ratio_matrix(ledger, counts_t, 550)
    assert q.shape == (7, 2)
    for j, label in enumerate(g.classes):
        want = (label_ratio(counts_t[label], 300, 550, 600)
                * density_ratio(Z[j], zz[j], g, label))
        assert np.array_equal(q[:, label], want)
    targets = est.target_predictions(ledger, counts_t, 550)
    assert targets.shape == (7, 2)
    W, b = params.theta[:16].reshape(2, 8), params.theta[16:]
    logits = X[:7] @ W.T + b
    p0 = np.exp(logits - logits.max(axis=1, keepdims=True))
    raw = p0 * q
    assert np.abs(targets - raw / raw.sum(axis=1, keepdims=True)).max() < 1e-12
