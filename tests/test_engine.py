import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

import safestream.engine
import safestream.gaussian
import safestream.model
from safestream.data import make_synthetic
from safestream.engine import (
    ForgettingLedger,
    RetentionGradState,
    SafeConfig,
    SafeUnlearner,
    forgetting_gradient,
    frozen_columns,
    learning_rate,
    perturbation_scale,
    update_retention_grad,
)
from safestream.errors import ConfigError, StatsError, StreamError
from safestream.gaussian import (
    ClassConditionalGaussians,
    batch_mean_cov,
    make_projection,
    sq_norms,
)
from safestream.model import (
    Architecture,
    ModelParams,
    forward_proba,
    grad_cross_entropy,
    init_params,
    predict_proba_batch,
    prepare_rows,
)
from safestream.oracle import RetrainConfig, retrain
from safestream.shift import RATIO_CEIL

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
            SafeConfig(delta=1.25)
        with pytest.raises(ConfigError):
            SafeConfig(delta=1.0)

    def test_unresolved_w_rejected(self):
        with pytest.raises(ConfigError):
            learning_rate(SafeConfig(W=None))

    def test_w_from_zero_initial_parameters_rejected(self, blob_task):
        # the engine's own message, not SafeConfig's "W must be positive"
        train, _, params0 = blob_task
        zero = ModelParams(params0.arch, np.zeros_like(params0.theta))
        with pytest.raises(ConfigError, match="zero initial parameters"):
            build_engine(train, zero, SafeConfig(W=None, proj_dim=4))

    @pytest.mark.parametrize(
        "kwargs", [{"K": 0.0}, {"T": 0}, {"W": -1.0}, {"epsilon": 0.0}, {"lam": -1.0}]
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SafeConfig(**kwargs)


class TestRetentionRecursion:
    def test_empty_request_is_noop(self):
        state = RetentionGradState(np.array([1.0, 2.0]), 100)
        out = update_retention_grad(state, np.zeros(2), 0)
        assert np.array_equal(out.grad, state.grad)
        assert out.size_dt == 100

    def test_matches_direct_mean_gradient(self, blob_task):
        train, _, params0 = blob_task
        state = RetentionGradState(
            grad_cross_entropy(params0, train.X, train.y), train.n
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
            grad_cross_entropy(params0, train.X, train.y), train.n
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
        state = RetentionGradState(np.zeros(2), 10)
        with pytest.raises(StreamError):
            update_retention_grad(state, np.zeros(2), 10)


class TestForgettingGradient:
    def test_empty_ledger_zero_vector(self, blob_task):
        train, _, params0 = blob_task
        engine = build_engine(train, params0, SafeConfig(T=5, lam=100.0))
        g, path = forgetting_gradient(
            params0, engine.ledger, engine.shift, engine.class_counts, train.n,
            engine.config.lam
        )
        assert np.array_equal(g, np.zeros(params0.arch.n_params))
        assert path is None

    def test_zero_when_target_equals_prediction(self, blob_task):
        train, _, params0 = blob_task
        engine = build_engine(train, params0, SafeConfig(T=5))

        class IdentityShift:
            # ratios of one: every target is the row's own w_0 prediction
            def class_ratio_matrix(self, ledger, counts_t, size_dt):
                return np.ones((ledger.count, params0.arch.n_classes))

        ledger = ForgettingLedger()
        ledger.append(train.X[:1], np.arange(1),
                      **frozen_columns(params0, engine.gaussians, train.X[:1]))
        g = forgetting_gradient(params0, ledger, IdentityShift(), {}, train.n, 10.0)[0]
        assert np.abs(g).max() < 1e-12

    def test_matches_finite_difference_of_assembled_risk(self, blob_task,
                                                         monkeypatch):
        train, _, _ = blob_task
        arch = Architecture(train.dim, train.n_classes)
        rng = np.random.default_rng(3)
        params0 = ModelParams(arch, 0.3 * rng.standard_normal(arch.n_params))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=50.0, proj_dim=4))

        idx = rng.choice(train.n, 12, replace=False)
        result = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        ledger = engine.ledger
        counts = dict(engine.class_counts)
        size_dt = engine.retention.size_dt
        targets = engine.shift.target_predictions(ledger, counts, size_dt)

        def assembled(theta):
            p = predict_proba_batch(ModelParams(arch, theta), ledger.X)
            return (engine.config.lam / ledger.count) * rel_entr(p, targets).sum()

        fd = central_difference(assembled, params0.theta.copy())
        # both paths: the sums, on a ledger this small only when the
        # crossover is overridden, then the rows
        assert result.grad_path == "rows"
        monkeypatch.setattr(safestream.engine, "sums_cheaper", lambda *a: True)
        for path in ("sums", "rows"):
            if path == "rows":
                monkeypatch.setattr(safestream.engine, "sums_exact", lambda *a: False)
            analytic, took = forgetting_gradient(params0, ledger, engine.shift,
                                                 counts, size_dt, engine.config.lam)
            assert took == path
            assert relative_error(analytic, fd) < 1e-6

    @pytest.mark.parametrize("hidden", [None, 4])
    def test_exact_where_a_target_falls_below_every_floor(self, blob_task,
                                                          monkeypatch, hidden):
        # ratios (1e-12, 1, 1e6) at every row put each row's class-0 target
        # near 1e-18: the gradient is still that of the KL toward the
        # unfloored targets, where a floor at 1e-12 would move a logit
        # gradient by O(1)
        train = blob_task[0]
        arch = Architecture(train.dim, train.n_classes, hidden)
        rng = np.random.default_rng(8)
        params0 = ModelParams(arch, 0.3 * rng.standard_normal(arch.n_params))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=50.0, proj_dim=4))
        idx = rng.choice(train.n, 12, replace=False)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        ledger = engine.ledger
        q = np.tile([1e-12, 1.0, 1e6], (ledger.count, 1))
        monkeypatch.setattr(engine.shift, "class_ratio_matrix", lambda *a: q)
        analytic, path = forgetting_gradient(params0, ledger, engine.shift,
                                             engine.class_counts,
                                             engine.retention.size_dt,
                                             engine.config.lam)
        assert path == "rows"
        p0 = predict_proba_batch(params0, ledger.X)
        targets = p0 * q / (p0 * q).sum(axis=1, keepdims=True)
        assert targets.min() < 1e-16

        def assembled(theta):
            p = predict_proba_batch(ModelParams(arch, theta), ledger.X)
            return (engine.config.lam / ledger.count) * rel_entr(p, targets).sum()

        fd = central_difference(assembled, params0.theta.copy())
        assert relative_error(analytic, fd) < 1e-6


def engine_state(eng):
    """A deep copy of everything process_request may change; compare two
    with ``same_state``."""
    led = eng.ledger
    return copy.deepcopy({
        # the class versions the ratios were computed at, and their rows
        "ratio": (led.ratio_rows, led.ratio_version),
        "retention": (eng.retention.grad, eng.retention.size_dt),
        "class_counts": dict(eng.class_counts),
        # every stack of the class statistics: moments, factors, forms,
        # frozen flags and versions
        "gaussians": {name: v for name, v in vars(eng.gaussians).items()
                      if isinstance(v, np.ndarray)},
        "ledger": (led.rows, led.X, led.Z, led.P0, led.H, led.R),
        # the per-class sums, the rows folded into them, the rows of the
        # latest append and the largest squared norms per class
        "sums": (led.S, led.sums_rows, led.appended, led.rho2),
        "alive": eng.alive,
        "round": eng.round,
    })


def same_state(a, b) -> bool:
    """Two ``engine_state`` values agree: arrays by ``np.array_equal`` (NaN,
    a ratio not yet set, equal to NaN), everything else by ``==``."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_state, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.fixture()
def engine(blob_task):
    train, _, params0 = blob_task
    return build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))


def build_mlp_engine(blob_task):
    """The ``engine`` fixture's config over a seeded, untrained 8-unit MLP."""
    train, _, _ = blob_task
    arch = Architecture(train.dim, train.n_classes, 8)
    params0 = init_params(arch, np.random.default_rng(4))
    return build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))


@pytest.fixture(params=["softmax", "mlp"])
def any_engine(request, engine, blob_task):
    return engine if request.param == "softmax" else build_mlp_engine(blob_task)


@pytest.fixture()
def evaluated(monkeypatch):
    """(label, rows) of every density ratio evaluation, in call order: the
    class whose current statistics each call read."""
    calls = []
    exact = safestream.engine.density_ratio

    def recording(Z, gaussians, i):
        # a stacked call evaluates the rows of each of the slabs i
        for j in np.arange(len(gaussians.classes))[i].reshape(-1):
            calls.append((gaussians.classes[j], Z.shape[-2]))
        return exact(Z, gaussians, i)

    monkeypatch.setattr(safestream.engine, "density_ratio", recording)
    return calls


def max_rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def check_frozen_columns_through_requests(engine, train):
    """The ledger's frozen columns, and the shift targets of its rows after
    each round, must equal a fresh standardization, a fresh forward pass at
    w_0 and a fresh target build, every class's ratios computed anew, from
    the ledger rows through every kind of request: bit for bit, except the
    MLP's forward pass, whose per-request GEMMs may round differently from
    one over the whole ledger (to 1e-14 relative)."""
    params0 = engine.params0
    assert engine.shift.size_d0 == train.n
    empty = (np.empty((0, train.dim)), np.empty(0, int), np.empty(0, int))
    class0 = np.flatnonzero(train.y == 0)
    others = np.flatnonzero(train.y != 0)
    repeated = np.array([others[0], others[0], others[1]])
    foreign = (np.zeros((1, train.dim)), np.array([1]), np.array([10_000_000]))
    requests = [
        empty,  # the ledger is still empty, so there is no gradient path
        (train.X[repeated], train.y[repeated], train.ids[repeated]),
        foreign,
        empty,
        # drains class 0 below its minimum count, so it freezes
        (train.X[class0[:-3]], train.y[class0[:-3]], train.ids[class0[:-3]]),
        (train.X[others[2:30]], train.y[others[2:30]], train.ids[others[2:30]]),
    ]
    exhausted = []
    for X, y, ids in requests:
        result = engine.process_request(X, y, ids)
        exhausted += result.exhausted_classes
        led = engine.ledger
        if not led.count:
            assert result.grad_path is None
            continue
        Z = engine.gaussians.standardize_all(led.X)
        P0, H = forward_proba(params0, led.X)
        assert np.array_equal(led.Z, Z)
        if params0.arch.hidden_dim is None:
            assert np.array_equal(led.P0, P0) and led.H is None
        else:
            assert max_rel_err(led.P0, P0) <= 1e-14
            assert max_rel_err(led.H, H) <= 1e-14
        fresh = ForgettingLedger()
        fresh.append(led.X, led.rows, Z=Z, P0=led.P0)
        counts, size_dt = engine.class_counts, engine.retention.size_dt
        assert np.array_equal(engine.shift.target_predictions(led, counts, size_dt),
                              engine.shift.target_predictions(fresh, counts, size_dt))
    assert exhausted == [0] and engine.gaussians.stats[0].frozen
    rows = 2 + len(class0) - 3 + 28
    assert engine.ledger.Z.shape == (3, rows, 10)
    assert engine.ledger.R.shape == engine.ledger.P0.shape == (3, rows)
    if params0.arch.hidden_dim is not None:
        assert engine.ledger.H.shape == (8, rows)


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
        # identical inputs with different labels make the mean gradient
        # exactly zero at theta = 0
        arch = Architecture(2, 2)
        params0 = ModelParams(arch, np.zeros(arch.n_params))
        X = np.vstack([[[1.0, 2.0], [1.0, 2.0], [-1.0, 0.5], [-1.0, 0.5]]] * 3)
        y = np.tile([0, 1, 0, 1], 3)
        eng = SafeUnlearner(params0, SafeConfig(T=3, W=1.0, seed=9),
                            make_projection(2, 1, 0), prepare_rows(arch, X, y),
                            np.arange(12))
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
        before = engine_state(engine)
        r2 = engine.process_request(X, y, ids)
        assert r2.accepted == 0 and r2.dropped == 11
        assert engine.ledger.count == 10
        # a round that keeps no row only advances the round counter
        after = engine_state(engine)
        assert after.pop("round") == before.pop("round") + 1
        assert same_state(after, before)

    def test_repeated_id_counted_once(self, engine, blob_task):
        train, _, params0 = blob_task
        twin = build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))
        idx = np.array([5, 5])
        res = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        want = twin.process_request(train.X[5:6], train.y[5:6], train.ids[5:6])
        assert res.accepted == 1 and res.dropped == 1
        assert same_state(engine_state(engine), engine_state(twin))
        assert np.array_equal(res.params.theta, want.params.theta)

    def test_nonfinite_feature_rejected_before_any_change(self, engine, blob_task):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        X = train.X[4:8].copy()
        X[2, 1] = np.nan
        with pytest.raises(StreamError, match="non-finite"):
            engine.process_request(X, train.y[4:8], train.ids[4:8])
        assert same_state(engine_state(engine), before)

    @pytest.mark.parametrize("features", [
        lambda X: X.astype(str),
        lambda X: np.full(X.shape, "x"),
        lambda X: [list(X[0]), list(X[1, :-1]), list(X[2]), list(X[3])],
        lambda X: X + 1j,
        lambda X: X.astype(complex),
    ], ids=["numeric-strings", "strings", "ragged", "complex", "complex-real-valued"])
    def test_non_real_features_rejected_before_any_change(self, engine, blob_task,
                                                          features):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        with pytest.raises(StreamError, match="request features"):
            engine.process_request(features(train.X[4:8]), train.y[4:8],
                                   train.ids[4:8])
        assert same_state(engine_state(engine), before)

    @pytest.mark.parametrize("cast", [bool, np.int32, np.float32, list])
    def test_bool_integer_and_float_features_pass(self, engine, blob_task, cast):
        # features of any real dtype, or a nested list of them, are the
        # float64 rows of the same values
        train, _, params0 = blob_task
        twin = build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))
        X = np.rint(train.X[:4])
        given = X.tolist() if cast is list else X.astype(cast)
        got = engine.process_request(given, train.y[:4], train.ids[:4])
        want = twin.process_request(np.asarray(given, dtype=np.float64),
                                    train.y[:4], train.ids[:4])
        assert np.array_equal(got.params.theta, want.params.theta)
        assert same_state(engine_state(engine), engine_state(twin))

    @pytest.mark.parametrize("shape", [lambda d: (4, d - 1), lambda d: (4, d + 1),
                                       lambda d: (4, 1, d)],
                             ids=["narrow", "wide", "3-d"])
    def test_wrong_feature_shape_rejected_before_any_change(self, engine, blob_task,
                                                            shape):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        X = np.ones(shape(train.dim))
        with pytest.raises(StreamError, match="request features have shape"):
            engine.process_request(X, train.y[4:8], train.ids[4:8])
        assert same_state(engine_state(engine), before)

    @pytest.mark.parametrize("label", [7, -1])
    def test_unfitted_label_rejected_before_any_change(self, engine, blob_task, label):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        y = train.y[4:8].copy()
        y[2] = label
        with pytest.raises(StreamError, match="not fitted classes"):
            engine.process_request(train.X[4:8], y, train.ids[4:8])
        assert same_state(engine_state(engine), before)

    @pytest.mark.parametrize("column, value", [
        ("ids", lambda a: a + np.array([0.0, 0.5, 0.0, 0.0])),
        ("labels", lambda a: np.where(np.arange(4) == 2, 1.7, a)),
        ("ids", lambda a: np.where(np.arange(4) == 1, np.nan, a)),
        ("labels", lambda a: np.where(np.arange(4) == 3, np.inf, a)),
        ("ids", lambda a: np.full(4, 2.0**63)),
        ("ids", lambda a: a.reshape(2, 2)),
        ("labels", lambda a: a.reshape(2, 2)),
        ("ids", lambda a: a.astype(str)),
    ], ids=["fractional-id", "fractional-label", "nan-id", "inf-label",
            "id-past-int64", "2d-ids", "2d-labels", "string-ids"])
    def test_non_integer_ids_or_labels_rejected_before_any_change(
        self, engine, blob_task, column, value
    ):
        train, _, _ = blob_task
        engine.process_request(train.X[:4], train.y[:4], train.ids[:4])
        before = engine_state(engine)
        y, ids = train.y[4:8], train.ids[4:8]
        if column == "ids":
            ids = value(ids)
        else:
            y = value(y)
        with pytest.raises(StreamError, match=f"request {column}"):
            engine.process_request(train.X[4:8], y, ids)
        assert same_state(engine_state(engine), before)

    def test_whole_float_ids_and_labels_pass(self, engine, blob_task):
        train, _, params0 = blob_task
        twin = build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))
        empty = np.empty((0, train.dim))
        for eng, cast in ((engine, float), (twin, int)):
            eng.process_request(empty, np.empty(0, cast), np.empty(0, cast))
            eng.process_request(train.X[:4], train.y[:4].astype(cast),
                                train.ids[:4].astype(cast))
        assert engine.ledger.count == 4
        assert same_state(engine_state(engine), engine_state(twin))

    def test_ledger_projection_cache_matches_fresh_standardization(
        self, engine, blob_task
    ):
        check_frozen_columns_through_requests(engine, blob_task[0])

    def test_ledger_forward_cache_matches_fresh_forward_on_mlp(self, blob_task):
        check_frozen_columns_through_requests(build_mlp_engine(blob_task),
                                              blob_task[0])

    def test_round_forwards_only_the_request_rows(self, any_engine, blob_task,
                                                  monkeypatch):
        # an accepted request of m rows runs the model forward over those m
        # rows twice (the retention gradient, the ledger's frozen columns)
        # and never over the L rows the ledger already holds
        engine, (train, _, _) = any_engine, blob_task
        L, m = 200, 10
        engine.process_request(train.X[:L], train.y[:L], train.ids[:L])
        forwarded = []
        exact = safestream.model._forward

        def recording(params, X):
            forwarded.append(len(X))
            return exact(params, X)

        monkeypatch.setattr(safestream.model, "_forward", recording)
        rows = slice(L, L + m)
        result = engine.process_request(train.X[rows], train.y[rows], train.ids[rows])
        assert result.accepted == m and engine.ledger.count == L + m
        assert sum(forwarded) <= 2 * m, forwarded

    def test_class_stream_reevaluates_only_the_drained_class(
        self, any_engine, blob_task, evaluated
    ):
        # draining class 0 in requests of 30 rows: while the round replaces
        # class 0's statistics it is evaluated over the whole ledger, every
        # other class over the request's rows; once class 0 freezes, no
        # class is replaced and every class sees the request's rows only
        engine, (train, _, _) = any_engine, blob_task
        classes = engine.gaussians.classes
        class0 = np.flatnonzero(train.y == 0)
        after_freeze = 0
        for lo in range(0, len(class0), 30):
            rows = class0[lo:lo + 30]
            evaluated.clear()
            engine.process_request(train.X[rows], train.y[rows], train.ids[rows])
            want = {c: len(rows) for c in classes}
            if engine.gaussians.stats[0].frozen:
                after_freeze += 1
            else:
                want[0] = engine.ledger.count
            assert sorted(evaluated) == sorted(want.items()), lo
        assert after_freeze >= 2

    def test_random_subset_reevaluates_every_class(self, any_engine, blob_task,
                                                  evaluated):
        # each request names every class, so every class's statistics are
        # replaced and its ratios evaluated over the whole ledger
        engine, (train, _, _) = any_engine, blob_task
        rng = np.random.default_rng(2)
        for _ in range(4):
            rows = rng.choice(np.flatnonzero(engine.alive), 40, replace=False)
            assert set(train.y[rows]) == set(engine.gaussians.classes)
            evaluated.clear()
            engine.process_request(train.X[rows], train.y[rows], train.ids[rows])
            assert sorted(evaluated) == [
                (c, engine.ledger.count) for c in engine.gaussians.classes]

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


def test_failed_downdate_leaves_every_class_unchanged(engine, blob_task,
                                                      monkeypatch):
    # LAPACK fails to factor either class of a two-class request, and the
    # retry factors the first class and fails on the second: the class
    # factored first must not keep its new statistics
    train, _, params0 = blob_task
    twin = build_engine(train, params0, SafeConfig(T=10, lam=100.0, seed=5))
    for eng in (engine, twin):
        eng.process_request(train.X[:4], train.y[:4], train.ids[:4])
    before = engine_state(engine)
    idx = np.concatenate([4 + np.flatnonzero(train.y[4:] == c)[:5] for c in (0, 1)])
    calls = []
    exact = safestream.gaussian.cholesky_with_jitter

    def second_call_fails(sigma):
        calls.append(sigma)
        if len(calls) == 2:
            raise StatsError("injected failure")
        return exact(sigma)

    monkeypatch.setattr(safestream.gaussian, "dpotrf", lambda sigma, lower: (sigma, 1))
    monkeypatch.setattr(safestream.gaussian, "cholesky_with_jitter", second_call_fails)
    with pytest.raises(StatsError, match="injected"):
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
    assert len(calls) == 2
    assert same_state(engine_state(engine), before)
    # the rejected request leaves an engine that goes on like one that
    # never saw it
    monkeypatch.undo()
    for eng in (engine, twin):
        eng.process_request(train.X[idx], train.y[idx], train.ids[idx])
    assert same_state(engine_state(engine), engine_state(twin))


@pytest.fixture(scope="module")
def small_task():
    train, _ = make_synthetic(240, 6, 3, 4.0, seed=21)
    arch = Architecture(train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=40, lr=1.0, seed=0))
    return train, params0


FOREIGN_ID = 10_000_000

# one request:
# - rows: training rows by index (repeats allowed, taken modulo n);
# - drain: (label, leave) adds every row of class ``label`` (of every class
#   when None) but the first ``leave``; with min_class_count 5 this drains a
#   class to its minimum or past it, or asks to empty the data;
# - foreign: adds an id the engine never had;
# - fault: adds one bad row that must get the whole request rejected
REQUEST = st.fixed_dictionaries({
    "rows": st.lists(st.integers(0, 10_000), max_size=25),
    "drain": st.none() | st.tuples(st.sampled_from([0, 1, 2, None]),
                                   st.sampled_from([0, 1, 4, 5, 6])),
    "foreign": st.booleans(),
    "fault": st.sampled_from([None, None, "nan-row", "unknown-label",
                              "fractional-id"]),
})


def build_request(train, req):
    """The request's (X, y, ids) and the training row indices it names."""
    idx = np.array(req["rows"], dtype=np.int64) % train.n
    if req["drain"] is not None:
        label, leave = req["drain"]
        rows = np.arange(train.n) if label is None else np.flatnonzero(train.y == label)
        idx = np.concatenate([idx, rows[leave:]])
    X, y, ids = train.X[idx], train.y[idx], train.ids[idx]
    extra = []
    if req["foreign"]:
        extra.append((np.zeros(train.dim), 0, FOREIGN_ID))
    if req["fault"] == "nan-row":
        extra.append((np.full(train.dim, np.nan), 0, train.ids[0]))
    elif req["fault"] == "unknown-label":
        extra.append((train.X[0], 7, train.ids[0]))
    elif req["fault"] == "fractional-id":
        extra.append((train.X[0], train.y[0], 0.5))
    for x, label, i in extra:
        X, y, ids = np.vstack([X, x]), np.append(y, label), np.append(ids, i)
    return X, y, ids, idx


def check_stream_invariants(engine, train, params0, alive, counts0):
    size = int(alive.sum())
    assert engine.retention.size_dt == engine.alive.sum() == size
    assert sum(engine.class_counts.values()) == size
    assert np.array_equal(engine.alive, alive)
    if engine.ledger.count:
        assert np.array_equal(train.X[engine.ledger.rows], engine.ledger.X)
    spent = np.bincount(train.y[engine.ledger.rows], minlength=len(counts0))
    assert engine.class_counts == {c: n - int(spent[c]) for c, n in counts0.items()}
    gaussians = engine.gaussians
    for label, stats in gaussians.stats.items():
        count = engine.class_counts[label]
        assert stats.frozen == (count < gaussians.min_class_count)
        if stats.frozen:
            continue
        assert stats.n == count
        Z = gaussians.standardize_batch(train.X[alive & (train.y == label)], label)
        mu, sigma = batch_mean_cov(Z)
        assert np.abs(stats.mu - mu).max() < 1e-8
        assert np.abs(stats.sigma - sigma).max() < 1e-8
    direct = grad_cross_entropy(params0, train.X[alive], train.y[alive])
    assert np.abs(engine.retention.grad - direct).max() < 1e-10


def full_refresh_targets(engine):
    """The targets of the engine's ledger with every class's ratios
    recomputed over every row, as if every class's statistics had moved."""
    full = copy.deepcopy(engine.ledger)
    full.ratio_version = None
    full.ratio_rows = 0
    return engine.shift.target_predictions(full, engine.class_counts,
                                           engine.retention.size_dt)


def drain(label, leave):
    return {"rows": [], "drain": (label, leave), "foreign": False, "fault": None}


@given(requests=st.lists(REQUEST, max_size=6))
# always cover: a class drained to exactly its minimum, then past it; a
# request that would empty the data
@example(requests=[drain(0, 5), drain(0, 4), drain(None, 0)])
@settings(max_examples=60, deadline=None)
def test_request_stream_invariants(small_task, requests):
    train, params0 = small_task
    engine = build_engine(train, params0,
                          SafeConfig(T=6, lam=100.0, proj_dim=3, seed=1))
    counts0 = dict(engine.class_counts)
    alive = np.ones(train.n, dtype=bool)
    for req in requests:
        X, y, ids, idx = build_request(train, req)
        hit = np.unique(idx[alive[idx]])
        before = engine_state(engine)
        frozen_before = {c for c, s in engine.gaussians.stats.items() if s.frozen}
        if req["fault"] is not None or len(hit) == alive.sum():
            with pytest.raises(StreamError):
                engine.process_request(X, y, ids)
            assert same_state(engine_state(engine), before)
        else:
            result = engine.process_request(X, y, ids)
            assert result.accepted == len(hit)
            assert result.dropped == len(y) - len(hit)
            frozen = {c for c, s in engine.gaussians.stats.items() if s.frozen}
            assert result.exhausted_classes == sorted(frozen - frozen_before)
            alive[hit] = False
            # the ledger's targets as every class's ratios recomputed over
            # the whole ledger, up to BLAS rounding a short product (a
            # one-row gemv) differently from the same rows of a longer one
            if engine.ledger.count:
                want = full_refresh_targets(engine)
                got = engine.shift.target_predictions(
                    engine.ledger, engine.class_counts, engine.retention.size_dt)
                assert np.abs(got - want).max() <= 1e-13
        check_stream_invariants(engine, train, params0, alive, counts0)


def test_ledger_counts_and_rounds():
    ledger = ForgettingLedger()
    assert ledger.count == 0
    assert ledger.rows.tolist() == []
    ledger.append(np.ones((2, 3)), np.array([4, 2]), Z=np.ones((2, 2, 1)))
    ledger.append(np.zeros((1, 3)), np.array([3]), Z=np.zeros((2, 1, 1)))
    assert ledger.count == 3
    # rows stay in the order of the rounds that forgot them
    assert ledger.rows.tolist() == [4, 2, 3]
    assert ledger.X.tolist() == [[1.0] * 3, [1.0] * 3, [0.0] * 3]
    # the projection cache grows along its row axis, one slab per class
    assert ledger.Z.tolist() == [[[1.0], [1.0], [0.0]]] * 2


def test_ledger_appends_match_concatenation():
    # the capacity buffers must hold exactly the rows appended, in order,
    # through every regrowth, and never alias the caller's arrays; a column
    # given as None is not kept
    rng = np.random.default_rng(0)
    ledger = ForgettingLedger()
    Xs, rows_s, Zs, P0s = [], [], [], []
    for m in (3, 1, 5, 2, 9, 1, 16):
        X, rows = rng.standard_normal((m, 4)), rng.integers(0, 100, m)
        Z, P0 = rng.standard_normal((3, m, 2)), rng.standard_normal((5, m))
        ledger.append(X, rows, Z=Z, P0=P0, H=None)
        Xs.append(X.copy()), rows_s.append(rows.copy())
        Zs.append(Z.copy()), P0s.append(P0.copy())
        X[:], rows[:], Z[:], P0[:] = 0.0, 7, 0.0, 0.0
        assert ledger.count == sum(len(v) for v in rows_s)
        assert np.array_equal(ledger.X, np.concatenate(Xs))
        assert np.array_equal(ledger.rows, np.concatenate(rows_s))
        assert np.array_equal(ledger.Z, np.concatenate(Zs, axis=1))
        assert np.array_equal(ledger.P0, np.concatenate(P0s, axis=1))
        assert ledger.H is None
        # R, the ratio column, is allocated unset with Z
        assert ledger.R.shape == ledger.Z.shape[:2]
        assert np.isnan(ledger.R).all()


def test_refresh_recomputes_a_class_only_when_its_version_moved(evaluated):
    # after a downdate that moves class 1 alone, a refresh recomputes class
    # 1's ratios over every row and the other classes' over the rows
    # appended since; the column matches a refresh from scratch
    rng = np.random.default_rng(8)
    X = rng.standard_normal((90, 6)) + np.repeat([0.0, 2.0, 4.0], 30)[:, None]
    y = np.repeat([0, 1, 2], 30)
    g = ClassConditionalGaussians.fit(X, y, make_projection(6, 3, seed=2))
    ledger = ForgettingLedger()
    first, later = [0, 31, 62, 63], [1, 64]
    ledger.append(X[first], np.array(first), Z=g.standardize_all(X[first]))
    ledger.refresh_ratios(g)
    g.remove(g.standardize_all(X[[32, 33]]), y[[32, 33]])
    ledger.append(X[later], np.array(later), Z=g.standardize_all(X[later]))
    evaluated.clear()
    R = ledger.refresh_ratios(g)
    assert g.version.tolist() == [0, 1, 0]
    assert sorted(evaluated) == [(0, 2), (1, 6), (2, 2)]
    fresh = ForgettingLedger()
    fresh.append(ledger.X, ledger.rows, Z=ledger.Z)
    assert np.abs(R - fresh.refresh_ratios(g)).max() <= 1e-13 * np.abs(R).max()


def run_stream(engine, train, rng, rounds, per_round):
    """Send ``rounds`` random requests of ``per_round`` live rows through
    ``engine``, yielding each round's result."""
    for _ in range(rounds):
        alive = np.flatnonzero(engine.alive)
        rows = rng.choice(alive, min(per_round, len(alive) - 1), replace=False)
        yield engine.process_request(train.X[rows], train.y[rows], train.ids[rows])


@given(seed=st.integers(0, 10_000), n_classes=st.integers(2, 4),
       dim=st.integers(4, 7), proj_dim=st.integers(1, 4),
       per_round=st.integers(1, 30), rounds=st.integers(1, 4),
       epochs=st.sampled_from([10, 200]))
@settings(max_examples=25, deadline=None)
def test_sums_gradient_matches_per_row_gradient(seed, n_classes, dim, proj_dim,
                                                per_round, rounds, epochs):
    # at every round of a small softmax stream, with the crossover forced
    # open: the clip bound covers every ledger row's |log ratio|, and where
    # it lies below the ceiling the sums path's gradient is the per-row
    # one, to round-off
    train, _ = make_synthetic(40 * n_classes, max(dim, n_classes), n_classes, 3.0,
                              seed=seed)
    arch = Architecture(train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=epochs, seed=0))
    engine = build_engine(train, params0, SafeConfig(T=rounds, lam=50.0,
                                                     proj_dim=proj_dim, seed=seed))
    assert engine.ledger.sums
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(safestream.engine, "sums_cheaper", lambda *a: True)
        for result in run_stream(engine, train, rng, rounds, per_round):
            led, g = engine.ledger, engine.gaussians
            logr = np.array([np.abs(g.log_ratio(Zc, i)).max()
                             for i, Zc in enumerate(led.Z)])
            bounds = g.log_ratio_bounds(led.rho2)
            # the bound holds up to the log ratios' own round-off
            assert np.all(logr <= bounds + 1e-12)
            assert result.grad_path == ("sums" if bounds.max() < np.log(RATIO_CEIL)
                                        else "rows")
            if result.grad_path == "rows":
                continue
            args = (params0, led, engine.shift, engine.class_counts,
                    engine.retention.size_dt, engine.config.lam)
            sums = forgetting_gradient(*args)[0]
            mp.setattr(safestream.engine, "sums_exact", lambda *a: False)
            rows = forgetting_gradient(*args)[0]
            mp.undo()
            mp.setattr(safestream.engine, "sums_cheaper", lambda *a: True)
            err = np.abs(sums - rows).max() / max(1.0, np.abs(rows).max())
            assert err <= 1e-12, err


def test_mlp_engine_never_takes_the_sums_path(blob_task, monkeypatch):
    # the MLP keeps no sums, so no crossover or bound can route it there
    monkeypatch.setattr(safestream.engine, "sums_cheaper", lambda *a: True)
    engine = build_mlp_engine(blob_task)
    assert not engine.ledger.sums
    paths = [r.grad_path for r in run_stream(engine, blob_task[0],
                                             np.random.default_rng(1), 4, 40)]
    assert paths == ["rows"] * 4
    assert engine.ledger.S is None and engine.ledger.rho2 is None


def test_sums_follow_the_ledger_through_every_fold(engine, blob_task, monkeypatch):
    # S as rebuilt from the ledger's rows in one fold, whether the rows were
    # folded round by round or caught up in chunks when the sums path is
    # first taken, and rho2 as the largest squared norm of every row
    # appended, on either path; a rejected request touches neither
    train = blob_task[0]
    rng = np.random.default_rng(3)
    paths = [r.grad_path for r in run_stream(engine, train, rng, 3, 30)]
    led = engine.ledger
    assert paths == ["rows"] * 3 and led.S is None
    assert np.array_equal(led.rho2, sq_norms(led.Z).max(axis=1))
    monkeypatch.setattr(safestream.engine, "sums_cheaper", lambda *a: True)
    paths = [r.grad_path for r in run_stream(engine, train, rng, 3, 25)]
    assert paths == ["sums"] * 3 and led.sums_rows == led.count == 165
    fresh = ForgettingLedger(sums=True)
    fresh.append(led.X, led.rows, Z=led.Z, P0=led.P0)
    want = fresh.fold_sums()
    assert np.abs(led.S - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(led.rho2, sq_norms(led.Z).max(axis=1))
    before = engine_state(engine)
    X = train.X[:2].copy()
    X[1, 0] = np.nan
    with pytest.raises(StreamError):
        engine.process_request(X, train.y[:2], train.ids[:2])
    assert same_state(engine_state(engine), before)
