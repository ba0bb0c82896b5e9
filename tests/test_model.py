import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

import safestream.model
from safestream.errors import ConfigError
from safestream.model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    init_params,
    kl_rows,
    mean_cross_entropy,
    predict_proba_batch,
    prepare_rows,
    sum_grad_kl_to_targets,
)

from conftest import central_difference, relative_error, textbook_grad


def random_model(seed, arch=None):
    rng = np.random.default_rng(seed)
    if arch is None:
        arch = Architecture(6, 3)
    params = ModelParams(arch, rng.standard_normal(arch.n_params))
    x = rng.standard_normal(arch.input_dim)
    return params, x, rng


def test_zero_params_predict_uniform():
    arch = Architecture(4, 3)
    params = ModelParams(arch, np.zeros(arch.n_params))
    p = predict_proba_batch(params, np.array([[1.0, -2.0, 0.5, 3.0]]))
    assert np.allclose(p, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_closed_form():
    # logits (0, ln 3) -> (0.25, 0.75)
    arch = Architecture(1, 2)
    theta = np.array([0.0, np.log(3.0), 0.0, 0.0])  # weights then biases
    p = predict_proba_batch(ModelParams(arch, theta), np.array([[1.0]]))
    assert np.allclose(p, [[0.25, 0.75]], atol=1e-12)


def test_predict_dimension_mismatch():
    params, _, _ = random_model(0)
    with pytest.raises(ConfigError):
        predict_proba_batch(params, np.ones((1, 5)))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_predict_proba_normalized(seed):
    params, x, _ = random_model(seed)
    p = predict_proba_batch(params, x[None, :])[0]
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


@pytest.mark.parametrize("hidden", [None, 4])
def test_predict_proba_batch_is_rows_by_classes(hidden):
    arch = Architecture(6, 3, hidden)
    params, _, rng = random_model(8, arch)
    X = rng.standard_normal((7, 6))
    p = predict_proba_batch(params, X)
    assert p.shape == (7, 3)
    H = X
    if hidden is not None:
        w1, b1 = params.theta[:24].reshape(4, 6), params.theta[24:28]
        H = np.tanh(X @ w1.T + b1)
    k = H.shape[1]
    W, b = params.theta[-3 * (k + 1):-3].reshape(3, k), params.theta[-3:]
    e = np.exp(H @ W.T + b)
    assert np.abs(p - e / e.sum(axis=1, keepdims=True)).max() < 1e-12


def test_cross_entropy_perfect_prediction():
    arch = Architecture(1, 2)
    theta = np.array([50.0, -50.0, 0.0, 0.0])
    assert mean_cross_entropy(ModelParams(arch, theta), np.array([[1.0]]), [0]) < 1e-9


def test_cross_entropy_closed_forms():
    arch = Architecture(1, 2)
    theta = np.array([0.0, np.log(3.0), 0.0, 0.0])
    loss = mean_cross_entropy(ModelParams(arch, theta), np.array([[1.0]]), [0])
    assert np.isclose(loss, np.log(4.0), atol=1e-12)

    arch10 = Architecture(4, 10)
    zero = ModelParams(arch10, np.zeros(arch10.n_params))
    loss = mean_cross_entropy(zero, np.ones((1, 4)), [7])
    assert np.isclose(loss, np.log(10.0), atol=1e-12)


def test_cross_entropy_label_range():
    params, x, _ = random_model(1)
    with pytest.raises(ConfigError):
        mean_cross_entropy(params, x[None, :], [3])
    with pytest.raises(ConfigError):
        mean_cross_entropy(params, np.vstack([x, x, x]), [-1, 0, 1])
    # the gradient subtracts the one-hot labels by comparison, so an
    # out-of-range label would otherwise subtract nothing
    with pytest.raises(ConfigError):
        grad_cross_entropy(params, x[None, :], [3])
    with pytest.raises(ConfigError):
        grad_cross_entropy(params, np.vstack([x, x, x]), [-1, 0, 1])
    # an empty batch has no mean, and a label count that differs from the
    # row count pairs no row with its label
    with pytest.raises(ConfigError, match="empty batch"):
        mean_cross_entropy(params, np.empty((0, 6)), [])
    with pytest.raises(ConfigError, match="2 labels for 3 rows"):
        mean_cross_entropy(params, np.vstack([x, x, x]), [0, 1])


def test_grad_zero_at_perfect_prediction():
    arch = Architecture(1, 2)
    theta = np.array([500.0, -500.0, 0.0, 0.0])
    g = grad_cross_entropy(ModelParams(arch, theta), np.array([[1.0]]), np.array([0]))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_grad_empty_batch_rejected():
    params, _, _ = random_model(2)
    with pytest.raises(ConfigError):
        grad_cross_entropy(params, np.empty((0, 6)), np.empty(0, dtype=int))


def test_grad_duplicate_batch_equals_single():
    params, x, _ = random_model(3)
    single = grad_cross_entropy(params, x[None, :], np.array([1]))
    double = grad_cross_entropy(params, np.vstack([x, x]), np.array([1, 1]))
    assert np.allclose(single, double, atol=1e-15)


@pytest.mark.parametrize("hidden", [None, 4])
@pytest.mark.parametrize("n", [1, 7, 300])
def test_prepared_rows_grad_equals_one_off_grad(hidden, n):
    # retrain prepares its rows once and reuses them every epoch; the bits
    # must be those of a gradient over the same rows taken once. Class 1 of
    # 3 never appears, so its one-hot row is all zeros.
    params, _, rng = random_model(11, Architecture(6, 3, hidden))
    X = rng.standard_normal((n, 6))
    y = rng.choice([0, 2], n)
    rows = prepare_rows(params.arch, X, y)
    assert np.array_equal(grad_cross_entropy(params, rows),
                          grad_cross_entropy(params, X, y))
    assert np.array_equal(grad_cross_entropy(params, rows),
                          grad_cross_entropy(params, rows))


@pytest.mark.parametrize("hidden", [None, 4])
def test_prepared_grad_matches_row_major_reference_for_every_n_mod_8(hidden):
    # the prepared rows run the first layer against a contiguous Xᵀ with a
    # row of ones, so OpenBLAS may pick another kernel for some n % 8; the
    # gradient may move in its last bits only
    arch = Architecture(16, 5, hidden)
    params, _, rng = random_model(21, arch)
    for n in range(600, 616):
        X = rng.standard_normal((n, 16))
        y = rng.integers(0, 5, n)
        got = grad_cross_entropy(params, prepare_rows(arch, X, y))
        want = textbook_grad(arch, params.theta, X, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n


def single_pass_grad(params, rows):
    """The mean gradient over prepared rows in one pass, unblocked, with the
    same logit bound as ``grad_cross_entropy``."""
    logits, hidden = safestream.model._forward(params, rows)
    dlogits = safestream.model._softmax(
        logits, safestream.model._logit_bound(params, rows))
    dlogits -= rows.onehot
    g = safestream.model._backprop_sum(params, rows, dlogits, hidden)
    g /= len(rows)
    return g


@pytest.mark.parametrize("hidden", [None, 4])
def test_blocked_grad_matches_row_major_reference_at_block_edges(hidden,
                                                                 monkeypatch):
    # a shrunken budget cuts the rows into blocks of B columns; every block
    # count and a one-column last block must give the textbook gradient
    monkeypatch.setattr(safestream.model, "_BLOCK_BYTES", 8192)
    arch = Architecture(16, 5, hidden)
    params, _, rng = random_model(23, arch)
    B = prepare_rows(arch, np.zeros((1, 16)), [0]).block
    assert B == 8192 // (8 * (16 + 1 + 5))
    for n, count in [(B - 1, 1), (B, 1), (B + 1, 2), (3 * B + 1, 4)]:
        X = rng.standard_normal((n, 16))
        y = rng.integers(0, 5, n)
        rows = prepare_rows(arch, X, y)
        assert len(rows.blocks()) == count, n
        got = grad_cross_entropy(params, rows)
        want = textbook_grad(arch, params.theta, X, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n
        if count == 1:
            assert np.array_equal(got, single_pass_grad(params, rows)), n


@given(st.integers(0, 10_000), st.sampled_from([None, 4]),
       st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_logit_bound_holds_for_both_heads(seed, hidden, log_theta, log_x):
    # scales up to 1e3 carry the bound far past _EXP_SAFE; the 1e-12 allows
    # for the round-off of bound and logits near Cauchy-Schwarz equality
    arch = Architecture(6, 3, hidden)
    rng = np.random.default_rng(seed)
    params = ModelParams(arch, 10.0**log_theta * rng.standard_normal(arch.n_params))
    n = int(rng.integers(1, 40))
    rows = prepare_rows(arch, 10.0**log_x * rng.standard_normal((n, 6)),
                        rng.integers(0, 3, n))
    logits = safestream.model._forward(params, rows)[0]
    bound = safestream.model._logit_bound(params, rows)
    assert isinstance(bound, float)
    assert np.abs(logits).max() <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("hidden", [None, 2])
def test_logits_near_800_take_the_shifted_epoch(hidden):
    # unshifted, exp(800) overflows; the bound passes _EXP_SAFE, so the
    # epoch shifts, warns of nothing, and still gives the textbook gradient
    arch = Architecture(2, 2, hidden)
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    if hidden is None:
        theta = np.array([800.0, 0.0, -800.0, 0.0, 0.0, 0.0])
    else:  # tanh(±40) is ±1 to the last bit, so the logits are near ±800
        theta = np.array([40.0, 0.0, 0.0, 40.0, 0.0, 0.0,
                          400.0, 400.0, -400.0, -400.0, 0.0, 0.0])
    params = ModelParams(arch, theta)
    rows = prepare_rows(arch, X, y)
    assert np.abs(safestream.model._forward(params, rows)[0]).max() >= 790.0
    assert safestream.model._logit_bound(params, rows) > safestream.model._EXP_SAFE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grad_cross_entropy(params, rows)
    want = textbook_grad(arch, theta, X, y)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("span", [1.0, 50.0, 690.0])
def test_unshifted_softmax_matches_shifted(span):
    # within _EXP_SAFE the exp needs no shift: the same probabilities to
    # round-off, each column summing to 1
    logits = np.random.default_rng(5).uniform(-span, span, (5, 3000))
    shifted = safestream.model._softmax(logits.copy())
    unshifted = safestream.model._softmax(logits.copy(), span)
    assert np.abs(unshifted - shifted).max() <= 1e-14
    for p in shifted, unshifted:
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-14


def test_prepared_rows_carry_their_largest_row_norm(monkeypatch):
    # ||[x, 1]|| of [2, 2, -4] is 5 exactly; every block view carries the
    # maximum over all the rows, not over its own
    monkeypatch.setattr(safestream.model, "_BLOCK_BYTES", 8 * (3 + 1 + 2) * 2)
    arch = Architecture(3, 2)
    X = np.array([[1.0, 0.0, 0.0], [0.5, -1.0, 2.0], [2.0, 2.0, -4.0],
                  [0.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
    rows = prepare_rows(arch, X, np.zeros(5, dtype=int))
    assert type(rows.norm_max) is float and rows.norm_max == 5.0
    blocks = rows.blocks()
    assert len(blocks) == 3
    assert [b.norm_max for b in blocks] == [5.0] * 3
    X = np.random.default_rng(9).standard_normal((300, 7))
    want = max(np.linalg.norm(np.append(x, 1.0)) for x in X)
    got = prepare_rows(Architecture(7, 2), X, np.zeros(300, dtype=int)).norm_max
    assert abs(got - want) <= 2e-16 * want


def test_budget_keeps_standard_preset_fit_in_one_block():
    # 4400 rows of 16 features in 5 classes covers the CLI standard preset's
    # fits and the oracle-preset benchmark's; blocking fits this small made
    # them slower
    arch = Architecture(16, 5)
    rows = prepare_rows(arch, np.zeros((4400, 16)), np.zeros(4400, dtype=int))
    assert len(rows.blocks()) == 1


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_batch_grad_is_mean_of_per_sample_grads(seed):
    params, _, rng = random_model(seed)
    X = rng.standard_normal((5, 6))
    y = rng.integers(0, 3, 5)
    whole = grad_cross_entropy(params, X, y)
    singles = [grad_cross_entropy(params, X[i : i + 1], y[i : i + 1]) for i in range(5)]
    assert np.abs(whole - np.mean(singles, axis=0)).max() < 1e-12


@pytest.mark.parametrize("hidden", [None, 4])
def test_cross_entropy_grad_matches_finite_differences(hidden):
    arch = Architecture(5, 3, hidden)
    rng = np.random.default_rng(42)
    for _ in range(10):
        theta = rng.standard_normal(arch.n_params)
        X = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, 4)
        analytic = grad_cross_entropy(ModelParams(arch, theta), X, y)

        def f(t):
            p = predict_proba_batch(ModelParams(arch, t), X)
            return -np.log(p[np.arange(4), y]).mean()

        assert relative_error(analytic, central_difference(f, theta)) < 1e-6


def test_kl_identical_is_zero():
    p = np.array([[0.2, 0.5, 0.3]])
    assert kl_rows(p, p)[0] == pytest.approx(0.0, abs=1e-15)


def test_kl_closed_form():
    # a zero in p contributes 0; a zero in q is floored at 1e-12
    got = kl_rows(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert np.allclose(got, [np.log(2.0), -np.log(1e-12)], atol=1e-12)


def test_kl_length_mismatch():
    with pytest.raises(ConfigError):
        kl_rows(np.array([[1.0, 0.0]]), np.array([[0.5, 0.25, 0.25]]))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4), size=3)
    q = rng.dirichlet(np.ones(4), size=3)
    got = kl_rows(p, q)
    assert np.all(got >= 0.0)
    assert np.abs(got - rel_entr(p, q).sum(axis=1)).max() < 1e-12


def test_grad_kl_zero_at_target():
    # constant log ratios reweight no class: every target is the prediction
    params, x, _ = random_model(5)
    g = sum_grad_kl_to_targets(params, x[None, :], np.full((3, 1), 0.7))
    assert np.abs(g).max() < 1e-12


def test_grad_kl_zero_for_uniform_zero_model():
    arch = Architecture(3, 4)
    params = ModelParams(arch, np.zeros(arch.n_params))
    g = sum_grad_kl_to_targets(params, np.array([[1.0, 2.0, 3.0]]),
                               np.zeros((4, 1)))
    assert np.abs(g).max() < 1e-15


@pytest.mark.parametrize("hidden", [None, 4])
def test_kl_grad_matches_finite_differences(hidden):
    # the gradient of sum_i KL(p_i || t_i) with t_i = p_i q_i / (p_i . q_i)
    # built at theta and held constant, for random log ratios
    arch = Architecture(5, 3, hidden)
    rng = np.random.default_rng(43)
    for _ in range(10):
        theta = rng.standard_normal(arch.n_params)
        X = rng.standard_normal((2, 5))
        logq = 3.0 * rng.standard_normal((3, 2))
        analytic = sum_grad_kl_to_targets(ModelParams(arch, theta), X, logq)
        raw = predict_proba_batch(ModelParams(arch, theta), X) * np.exp(logq.T)
        target = raw / raw.sum(axis=1, keepdims=True)

        def f(t):
            return rel_entr(predict_proba_batch(ModelParams(arch, t), X), target).sum()

        assert relative_error(analytic, central_difference(f, theta)) < 1e-6


def test_theta_length_validated():
    with pytest.raises(ConfigError):
        ModelParams(Architecture(4, 3), np.zeros(7))


def test_theta_finite_validated():
    arch = Architecture(2, 2)
    theta = np.zeros(arch.n_params)
    theta[0] = np.nan
    with pytest.raises(ConfigError):
        ModelParams(arch, theta)


def test_mlp_init_seeded():
    arch = Architecture(6, 3, hidden_dim=5)
    a = init_params(arch, np.random.default_rng(1))
    b = init_params(arch, np.random.default_rng(1))
    assert np.array_equal(a.theta, b.theta)
    assert predict_proba_batch(a, np.random.default_rng(0).standard_normal((3, 6))).shape == (3, 3)
