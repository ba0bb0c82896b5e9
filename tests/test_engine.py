import numpy as np
import pytest
from scipy.special import rel_entr

from safestream.engine import (
    ForgettingLedger,
    RetentionGradState,
    SafeConfig,
    SafeUnlearner,
    forgetting_gradient,
    learning_rate,
    perturbation_scale,
    update_retention_grad,
)
from safestream.errors import ConfigError, StreamError
from safestream.model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    predict_proba_batch,
)
from safestream.shift import ShiftEstimator

from conftest import build_engine, central_difference, relative_error


class TestSchedules:
    def test_learning_rate_closed_forms(self):
        assert learning_rate(SafeConfig(K=2.5, T=20, W=1.0)) == pytest.approx(
            0.089443, abs=1e-6
        )
        assert learning_rate(SafeConfig(K=1.0, T=1, W=1.0)) == pytest.approx(1.0)
        assert learning_rate(SafeConfig(K=2.0, T=4, W=4.0)) == pytest.approx(0.5)

    def test_perturbation_scale_closed_forms(self):
        got = perturbation_scale(SafeConfig(W=1.0, delta=0.05, epsilon=1.0))
        assert got == pytest.approx(2.5373, abs=1e-4)
        got = perturbation_scale(SafeConfig(W=2.0, delta=1e-5, epsilon=5.0))
        assert got == pytest.approx(2.0 * np.sqrt(2.0 * np.log(1.25e5)) / 5.0)
        assert got == pytest.approx(1.93792, abs=1e-5)

    def test_delta_boundary_rejected(self):
        with pytest.raises(ConfigError):
            SafeConfig(delta=1.25).validate()
        with pytest.raises(ConfigError):
            SafeConfig(delta=1.0).validate()

    def test_unresolved_w_rejected(self):
        with pytest.raises(ConfigError):
            learning_rate(SafeConfig(W=None))

    @pytest.mark.parametrize(
        "kwargs", [{"K": 0.0}, {"T": 0}, {"W": -1.0}, {"epsilon": 0.0}, {"lam": -1.0}]
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SafeConfig(**kwargs).validate()


class TestRetentionRecursion:
    def test_empty_request_is_noop(self):
        state = RetentionGradState(np.array([1.0, 2.0]), 100, 100)
        out = update_retention_grad(state, np.zeros(2), 0)
        assert np.array_equal(out.grad, state.grad)
        assert out.size_dt == 100

    def test_matches_direct_mean_gradient(self, blob_task):
        train, _, params0 = blob_task
        state = RetentionGradState(
            grad_cross_entropy(params0, train.X, train.y), train.n, train.n
        )
        rng = np.random.default_rng(0)
        alive = np.ones(train.n, dtype=bool)
        for _ in range(12):
            idx = rng.choice(np.flatnonzero(alive), 25, replace=False)
            grad_sum = grad_cross_entropy(params0, train.X[idx], train.y[idx]) * len(idx)
            state = update_retention_grad(state, grad_sum, len(idx))
            alive[idx] = False
            direct = grad_cross_entropy(params0, train.X[alive], train.y[alive])
            assert np.abs(state.grad - direct).max() < 1e-10
            assert state.size_dt == alive.sum()

    def test_two_requests_equal_their_union(self, blob_task):
        train, _, params0 = blob_task
        start = RetentionGradState(
            grad_cross_entropy(params0, train.X, train.y), train.n, train.n
        )
        a = np.arange(0, 30)
        b = np.arange(30, 50)

        def sum_grad(idx):
            return grad_cross_entropy(params0, train.X[idx], train.y[idx]) * len(idx)

        seq = update_retention_grad(start, sum_grad(a), len(a))
        seq = update_retention_grad(seq, sum_grad(b), len(b))
        u = np.concatenate([a, b])
        union = update_retention_grad(start, sum_grad(u), len(u))
        assert np.abs(seq.grad - union.grad).max() < 1e-12
        assert seq.size_dt == union.size_dt

    def test_emptying_request_rejected(self):
        state = RetentionGradState(np.zeros(2), 10, 10)
        with pytest.raises(StreamError):
            update_retention_grad(state, np.zeros(2), 10)


class TestForgettingGradient:
    def test_empty_ledger_zero_vector(self, blob_task):
        train, _, params0 = blob_task
        engine = build_engine(train, params0, SafeConfig(T=5, lam=100.0))
        g = forgetting_gradient(
            params0, engine.ledger, engine.shift, engine.class_counts, train.n
        )
        assert np.array_equal(g, np.zeros(params0.arch.n_params))

    def test_zero_when_target_equals_prediction(self, blob_task):
        train, _, params0 = blob_task

        class IdentityShift:
            def target_predictions(self, params, X, counts, size):
                return predict_proba_batch(params, X)

        ledger = ForgettingLedger(lam=10.0)
        ledger.append(train.X[:1], train.y[:1])
        g = forgetting_gradient(params0, ledger, IdentityShift(), {}, train.n)
        assert np.abs(g).max() < 1e-12

    def test_matches_finite_difference_of_assembled_risk(self, blob_task):
        train, _, _ = blob_task
        arch = Architecture(train.dim, train.n_classes)
        rng = np.random.default_rng(3)
        params0 = ModelParams(arch, 0.3 * rng.standard_normal(arch.n_params))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=50.0, proj_dim=4))

        idx = rng.choice(train.n, 12, replace=False)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        ledger = engine.ledger
        counts = dict(engine.class_counts)
        size_dt = engine.retention.size_dt
        targets = engine.shift.target_predictions(params0, ledger.X, counts, size_dt)

        analytic = forgetting_gradient(params0, ledger, engine.shift, counts, size_dt)

        def assembled(theta):
            p = predict_proba_batch(ModelParams(arch, theta), ledger.X)
            return (ledger.lam / ledger.count) * rel_entr(p, targets).sum()

        fd = central_difference(assembled, params0.theta.copy())
        assert relative_error(analytic, fd) < 1e-6


def engine_state(eng):
    """Everything process_request may change, in comparable form."""
    led = eng.ledger
    return {
        "retention": (eng.retention.grad.tolist(), eng.retention.size_dt),
        "class_counts": dict(eng.class_counts),
        "stats": eng.gaussians.snapshot(),
        "ledger": (None if led.X is None else led.X.tolist(), led.y.tolist()),
        "surviving": set(eng.surviving),
        "round": eng.round,
    }


@pytest.fixture()
def engine(blob_task):
    train, _, params0 = blob_task
    return build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))


class TestProcessRequest:
    def test_step_norm_contract_on_empty_requests(self, engine, blob_task):
        train, _, params0 = blob_task
        empty = np.empty((0, train.dim))
        for _ in range(4):
            res = engine.process_request(empty, np.empty(0, int), np.empty(0, int))
            step = res.params.theta - params0.theta + res.perturbation
            assert abs(np.linalg.norm(step) - engine.gamma) < 1e-10

    def test_step_norm_contract_under_stream(self, engine, blob_task):
        train, _, params0 = blob_task
        rng = np.random.default_rng(1)
        alive = np.arange(train.n)
        for _ in range(10):
            pick = rng.choice(len(alive), 20, replace=False)
            idx = alive[pick]
            alive = np.delete(alive, pick)
            res = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
            step = res.params.theta - params0.theta + res.perturbation
            assert abs(np.linalg.norm(step) - engine.gamma) < 1e-10

    def test_zero_gradient_skips_normalized_step(self):
        # two identical inputs with different labels make the mean gradient
        # exactly zero at theta = 0
        arch = Architecture(2, 2)
        params0 = ModelParams(arch, np.zeros(arch.n_params))
        X = np.array([[1.0, 2.0], [1.0, 2.0], [-1.0, 0.5], [-1.0, 0.5]])
        y = np.array([0, 1, 0, 1])
        from safestream.gaussian import ClassConditionalGaussians, make_projection

        g = ClassConditionalGaussians.fit(
            np.vstack([X] * 3), np.tile(y, 3), make_projection(2, 1, 0),
            min_class_count=1,
        )
        retention = RetentionGradState(
            grad_cross_entropy(params0, X, y), len(X), len(X)
        )
        eng = SafeUnlearner(
            params0, SafeConfig(T=3, W=1.0, seed=9), retention, g,
            {0: 2, 1: 2}, np.arange(4),
        )
        res = eng.process_request(np.empty((0, 2)), np.empty(0, int), np.empty(0, int))
        assert res.grad_norm < 1e-12
        assert np.allclose(res.params.theta, params0.theta - res.perturbation)

    def test_duplicates_and_foreign_ids_dropped(self, engine, blob_task):
        train, _, _ = blob_task
        idx = np.arange(10)
        r1 = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        assert r1.accepted == 10 and r1.dropped == 0
        # same ids again plus an id that never existed
        X = np.vstack([train.X[idx], np.zeros((1, train.dim))])
        y = np.concatenate([train.y[idx], [0]])
        ids = np.concatenate([train.ids[idx], [10_000_000]])
        r2 = engine.process_request(X, y, ids)
        assert r2.accepted == 0 and r2.dropped == 11
        assert engine.ledger.count == 10

    def test_repeated_id_counted_once(self, engine, blob_task):
        train, _, params0 = blob_task
        twin = build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))
        idx = np.array([5, 5])
        res = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        want = twin.process_request(train.X[5:6], train.y[5:6], train.ids[5:6])
        assert res.accepted == 1 and res.dropped == 1
        assert engine_state(engine) == engine_state(twin)
        assert np.array_equal(res.params.theta, want.params.theta)

    def test_nonfinite_feature_rejected_before_any_change(self, engine, blob_task):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        X = train.X[4:8].copy()
        X[2, 1] = np.nan
        with pytest.raises(StreamError, match="non-finite"):
            engine.process_request(X, train.y[4:8], train.ids[4:8])
        assert engine_state(engine) == before

    @pytest.mark.parametrize("label", [7, -1])
    def test_unfitted_label_rejected_before_any_change(self, engine, blob_task, label):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        y = train.y[4:8].copy()
        y[2] = label
        with pytest.raises(StreamError, match="not fitted classes"):
            engine.process_request(train.X[4:8], y, train.ids[4:8])
        assert engine_state(engine) == before

    def test_w0_never_mutated(self, engine, blob_task):
        train, _, params0 = blob_task
        before = params0.theta.copy()
        engine.process_request(train.X[:5], train.y[:5], train.ids[:5])
        assert np.array_equal(engine.params0.theta, before)

    def test_replay_is_bit_identical(self, blob_task):
        train, _, params0 = blob_task
        outs = []
        for _ in range(2):
            eng = build_engine(train, params0, SafeConfig(T=6, lam=100.0, seed=3))
            thetas = []
            for t in range(6):
                idx = np.arange(t * 15, (t + 1) * 15)
                res = eng.process_request(train.X[idx], train.y[idx], train.ids[idx])
                thetas.append(res.params.theta)
            outs.append(np.vstack(thetas))
        assert np.array_equal(outs[0], outs[1])

    def test_w_resolution_from_params(self, blob_task):
        train, _, params0 = blob_task
        eng = build_engine(train, params0, SafeConfig(T=10))
        assert eng.config.W == pytest.approx(float(np.linalg.norm(params0.theta)))

    def test_perturbation_calibration_small(self, engine):
        draws = np.concatenate([engine.draw_perturbation(t) for t in range(1, 2000)])
        assert abs(draws.std() / engine.phi - 1.0) < 0.02


def test_ledger_counts_and_rounds():
    ledger = ForgettingLedger(lam=1.0)
    assert ledger.count == 0
    ledger.append(np.ones((2, 3)), np.array([0, 1]))
    ledger.append(np.zeros((0, 3)), np.array([], dtype=np.int64))
    ledger.append(np.zeros((1, 3)), np.array([1]))
    assert ledger.count == 3
    # rows stay in the order of the rounds that forgot them
    assert ledger.y.tolist() == [0, 1, 1]
    assert ledger.X.tolist() == [[1.0] * 3, [1.0] * 3, [0.0] * 3]
