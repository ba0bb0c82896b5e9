import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safestream.evaluation import accuracy, mia_attack, score_rows
from safestream.model import (
    Architecture,
    ModelParams,
    cross_entropy_rows,
    predict_proba_batch,
)


def acc(params, X, y):
    return accuracy(score_rows(params, X, y).correct)


def attack(params, mX, my, X, y):
    """The attack's rate on (X, y) with (mX, my) as the members."""
    return mia_attack(score_rows(params, mX, my).loss, score_rows(params, X, y).loss)


def uniform_model(d=4, c=10):
    arch = Architecture(d, c)
    return ModelParams(arch, np.zeros(arch.n_params))


def test_uniform_model_on_balanced_labels_is_chance():
    # argmax ties break to class 0, so accuracy equals class-0 frequency
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5000, 4))
    y = rng.integers(0, 10, 5000)
    rate = acc(uniform_model(), X, y)
    assert abs(rate - 0.1) < 0.02


def test_separable_fit_reaches_one(blob_task):
    train, _, params0 = blob_task
    assert acc(params0, train.X, train.y) >= 0.99


def test_single_correct_sample():
    arch = Architecture(1, 2)
    params = ModelParams(arch, np.array([5.0, -5.0, 0.0, 0.0]))
    assert acc(params, np.array([[1.0]]), np.array([0])) == 1.0


def test_empty_data_reports_absent():
    assert acc(uniform_model(), np.empty((0, 4)), np.empty(0, int)) is None


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_accuracy_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    arch = Architecture(3, 4)
    params = ModelParams(arch, rng.standard_normal(arch.n_params))
    X = rng.standard_normal((40, 3))
    y = rng.integers(0, 4, 40)
    perm = rng.permutation(40)
    assert acc(params, X, y) == acc(params, X[perm], y[perm])


@given(st.integers(0, 10_000), st.sampled_from([None, 3]))
@settings(max_examples=40, deadline=None)
def test_scores_match_argmax_and_loss_with_ties(seed, hidden):
    # classes given the same weights tie exactly, so the first of them must
    # win, as np.argmax picks it on the row-major probabilities
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 6))
    arch = Architecture(3, c, hidden)
    theta = rng.standard_normal(arch.n_params)
    twin = rng.integers(0, c, 2)
    w_last = theta[arch.n_params - c * ((hidden or 3) + 1):]
    W, b = w_last[: c * (hidden or 3)].reshape(c, -1), w_last[c * (hidden or 3):]
    W[twin[1]], b[twin[1]] = W[twin[0]], b[twin[0]]
    params = ModelParams(arch, theta)
    X = rng.standard_normal((int(rng.integers(0, 60)), 3))
    y = rng.integers(0, c, len(X))
    scores = score_rows(params, X, y)
    p = predict_proba_batch(params, X)
    assert np.array_equal(scores.correct, p.argmax(axis=1) == y)
    if len(X):
        assert np.array_equal(scores.loss, cross_entropy_rows(params, X, y))
        assert np.array_equal(scores.proba, p.T)


def reference_losses(params, X, y):
    """-log p_y of a linear head, written out with numpy."""
    c, d = params.arch.n_classes, params.arch.input_dim
    W, b = params.theta[: c * d].reshape(c, d), params.theta[c * d:]
    z = X @ W.T + b
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    return -np.log(np.maximum(p[np.arange(len(y)), y], 1e-12))


def reference_rate(params, mX, my, X, y):
    """Share of rows whose loss is at most the members' mean loss."""
    threshold = reference_losses(params, mX, my).mean()
    return float((reference_losses(params, X, y) <= threshold).mean())


def test_mia_unseen_rows_within_band_of_held_out_members(blob_task):
    # a linear head on well-separated blobs does not overfit: its losses on
    # test rows it never saw follow the same law as on its own training rows
    train, test, params0 = blob_task
    mX, my = train.X[:900], train.y[:900]
    hX, hy = train.X[900:], train.y[900:]
    member_rate = attack(params0, mX, my, hX, hy)
    test_rate = attack(params0, mX, my, test.X, test.y)
    assert member_rate == reference_rate(params0, mX, my, hX, hy)
    assert test_rate == reference_rate(params0, mX, my, test.X, test.y)
    assert 0.0 < test_rate < 1.0
    n1, n2 = len(hX), len(test.X)
    pooled = (member_rate * n1 + test_rate * n2) / (n1 + n2)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    assert abs(member_rate - test_rate) <= 4.0 * se


def confident_axis_model():
    # logits +-10 x0: confident far from the x0 = 0 boundary
    arch = Architecture(2, 2)
    theta = np.array([10.0, 0.0, -10.0, 0.0, 0.0, 0.0])
    return ModelParams(arch, theta)


def test_mia_flags_memorized_members():
    rng = np.random.default_rng(2)
    params = confident_axis_model()
    # members sit far from the boundary (loss ~0), other rows near it (~log 2)
    mX = np.column_stack([rng.choice([-2.0, 2.0], 400), rng.normal(0, 1, 400)])
    my = (mX[:, 0] < 0).astype(int)
    nX = np.column_stack([rng.normal(0.0, 0.02, 400), rng.normal(0, 1, 400)])
    ny = (nX[:, 0] < 0).astype(int)
    assert attack(params, mX, my, mX, my) == 1.0
    near = attack(params, mX, my, nX, ny)
    assert near == reference_rate(params, mX, my, nX, ny)
    assert near <= 0.05


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mia_permutation_invariant_and_repeatable(seed):
    rng = np.random.default_rng(seed)
    arch = Architecture(3, 4)
    params = ModelParams(arch, rng.standard_normal(arch.n_params))
    mX, my = rng.standard_normal((60, 3)), rng.integers(0, 4, 60)
    X, y = rng.standard_normal((40, 3)), rng.integers(0, 4, 40)
    perm = rng.permutation(40)
    rate = attack(params, mX, my, X, y)
    assert rate == attack(params, mX, my, X[perm], y[perm])
    assert rate == attack(params, mX, my, X, y)


@pytest.mark.parametrize("n_members", [8, 20, 57])
def test_mia_tie_counts_as_member(n_members):
    # a uniform model gives every row the same loss, -log 0.1, which is the
    # members' mean loss: a tie. In float64 the mean of 20 or 57 copies of
    # that loss rounds one ulp below it, so these counts also check rounding
    rng = np.random.default_rng(3)
    params = uniform_model(d=2, c=10)
    mX, my = rng.standard_normal((n_members, 2)), rng.integers(0, 10, n_members)
    X, y = rng.standard_normal((100, 2)) + 1.0, rng.integers(0, 10, 100)
    assert attack(params, mX, my, X, y) == 1.0


def test_mia_empty_rows_report_absent():
    X, y = np.ones((5, 4)), np.zeros(5, int)
    assert attack(uniform_model(), X, y, np.empty((0, 4)), np.empty(0, int)) is None
