import numpy as np
import pytest
from scipy.special import rel_entr

from safestream.data import make_synthetic
from safestream.engine import ForgettingLedger, SafeConfig
from safestream.errors import ConfigError
from safestream.evaluation import accuracy
from safestream.model import (
    Architecture,
    ModelParams,
    mean_cross_entropy,
    predict_proba_batch,
)
from safestream.oracle import (
    RegretAccount,
    RetrainConfig,
    retrain,
    surrogate_risk,
    theorem_gap_bound,
    true_risk,
)

from conftest import build_engine


@pytest.fixture(scope="module")
def small_task():
    train, test = make_synthetic(600, 8, 2, 10.0, seed=3)
    arch = Architecture(train.dim, train.n_classes)
    return train, test, arch


class TestRetrain:
    def test_separable_blobs_reach_high_accuracy(self, small_task):
        train, _, arch = small_task
        params = retrain(train.X, train.y, arch, RetrainConfig(epochs=120, seed=0))
        assert accuracy(params, train.X, train.y) >= 0.99

    def test_full_data_retrain_is_bit_deterministic(self, small_task):
        train, _, arch = small_task
        cfg = RetrainConfig(epochs=60, seed=4)
        a = retrain(train.X, train.y, arch, cfg)
        b = retrain(train.X, train.y, arch, cfg)
        assert np.array_equal(a.theta, b.theta)

    def test_convex_final_loss_seed_independent(self, small_task):
        train, _, arch = small_task
        a = retrain(train.X, train.y, arch, RetrainConfig(epochs=120, seed=1))
        b = retrain(train.X, train.y, arch, RetrainConfig(epochs=120, seed=2))
        la = mean_cross_entropy(a, train.X, train.y)
        lb = mean_cross_entropy(b, train.X, train.y)
        assert abs(la - lb) < 1e-6

    def test_minibatch_path_seeded(self, small_task):
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden_dim=6)
        cfg = RetrainConfig(epochs=5, lr=0.1, batch_size=64, seed=7)
        a = retrain(train.X, train.y, arch, cfg)
        b = retrain(train.X, train.y, arch, cfg)
        assert np.array_equal(a.theta, b.theta)
        assert accuracy(a, train.X, train.y) >= 0.9

    def test_empty_data_rejected(self, small_task):
        _, _, arch = small_task
        with pytest.raises(ConfigError):
            retrain(np.empty((0, 8)), np.empty(0, int), arch, RetrainConfig())


class TestTrueRisk:
    def test_self_evaluation_with_empty_ledger(self, small_task):
        train, _, arch = small_task
        star = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        ledger = ForgettingLedger(lam=100.0)
        risk = true_risk(star, train.X, train.y, ledger, star, 100.0)
        assert risk == pytest.approx(mean_cross_entropy(star, train.X, train.y))

    def test_forgetting_term_vanishes_at_star(self, small_task):
        train, _, arch = small_task
        star = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        ledger = ForgettingLedger(lam=100.0)
        ledger.append(train.X[:20], train.y[:20])
        risk = true_risk(star, train.X[20:], train.y[20:], ledger, star, 100.0)
        assert risk == pytest.approx(
            mean_cross_entropy(star, train.X[20:], train.y[20:]), abs=1e-12
        )

    def test_matches_termwise_recomputation(self, small_task):
        train, _, arch = small_task
        rng = np.random.default_rng(11)
        w = ModelParams(arch, rng.standard_normal(arch.n_params))
        star = ModelParams(arch, rng.standard_normal(arch.n_params))
        keep, forget = train.take(np.arange(200)), train.take(np.arange(200, 240))
        ledger = ForgettingLedger(lam=5.0)
        ledger.append(forget.X, forget.y)
        got = true_risk(w, keep.X, keep.y, ledger, star, 5.0)

        p_keep = predict_proba_batch(w, keep.X)
        retention = -np.log(p_keep[np.arange(keep.n), keep.y]).mean()
        kls = rel_entr(predict_proba_batch(w, forget.X), predict_proba_batch(star, forget.X))
        want = retention + (5.0 / forget.n) * kls.sum()
        assert got == pytest.approx(want, rel=1e-12)


class TestSurrogateRisk:
    def test_equals_initial_risk_before_deletions(self, small_task):
        train, _, arch = small_task
        params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=7.0))
        rng = np.random.default_rng(2)
        w = ModelParams(arch, rng.standard_normal(arch.n_params))
        got = surrogate_risk(
            w, train.X, train.y, engine.ledger, engine.shift, params0,
            engine.class_counts, train.n,
        )
        assert got == pytest.approx(mean_cross_entropy(w, train.X, train.y))

    def test_collapses_to_true_risk_with_forced_targets(self, small_task):
        train, _, arch = small_task
        params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=7.0))
        idx = np.arange(30)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        star = retrain(
            train.X[30:], train.y[30:], arch, RetrainConfig(epochs=80, seed=0)
        )

        class ForcedTargets:
            def target_predictions(self, params, X, counts, size):
                return predict_proba_batch(star, X)

        w = ModelParams(arch, np.random.default_rng(5).standard_normal(arch.n_params))
        surro = surrogate_risk(
            w, train.X, train.y, engine.ledger, ForcedTargets(), params0,
            engine.class_counts, engine.retention.size_dt,
        )
        true = true_risk(
            w, train.X[30:], train.y[30:], engine.ledger, star, 7.0
        )
        assert surro == pytest.approx(true, abs=1e-12)


def test_theorem_gap_bound_value():
    assert theorem_gap_bound(5, 400, 4000) == pytest.approx(
        5 * 400 / 4000**1.5
    )


class TestRegretAccount:
    def test_perfect_unlearner_zero_regret(self):
        account = RegretAccount()
        arch = Architecture(3, 2)
        star = ModelParams(arch, np.ones(arch.n_params))
        account.start(star)
        for _ in range(5):
            account.update(0.7, 0.7, star)
        assert account.cumulative == pytest.approx(0.0)
        assert account.v_t == pytest.approx(0.0)

    def test_static_optimum_zero_path_length(self):
        account = RegretAccount()
        arch = Architecture(3, 2)
        star = ModelParams(arch, np.full(arch.n_params, 2.0))
        account.start(star)
        for k in range(4):
            account.update(1.0 + k, 1.0, star)
        assert account.v_t == pytest.approx(0.0)
        assert account.cumulative == pytest.approx(sum(range(4)))

    def test_v_t_matches_recomputation(self):
        rng = np.random.default_rng(6)
        arch = Architecture(4, 2)
        stars = [ModelParams(arch, rng.standard_normal(arch.n_params)) for _ in range(21)]
        account = RegretAccount()
        account.start(stars[0])
        for s in stars[1:]:
            account.update(1.0, 0.5, s)
        want = sum(
            float(np.linalg.norm(stars[t].theta - stars[t - 1].theta))
            for t in range(1, 21)
        )
        assert account.v_t == pytest.approx(want, rel=1e-12)
        assert account.mean_regret == pytest.approx(0.5)
