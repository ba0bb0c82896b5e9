import numpy as np
import pytest
from scipy.special import rel_entr

import safestream.model
import safestream.oracle
from safestream.data import make_synthetic
from safestream.engine import ForgettingLedger, SafeConfig
from safestream.errors import ConfigError, NumericalError
from safestream.evaluation import accuracy
from safestream.model import (
    Architecture,
    ModelParams,
    cross_entropy_rows,
    kl_rows,
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

from conftest import build_engine, textbook_grad


@pytest.fixture(scope="module")
def small_task():
    train, test = make_synthetic(600, 8, 2, 10.0, seed=3)
    arch = Architecture(train.dim, train.n_classes)
    return train, test, arch


def forgotten(train, rows, lam):
    """Ledger holding the given training rows. The oracle's risks read only
    their features and labels, so none of the engine's frozen columns are
    appended."""
    ledger = ForgettingLedger(lam=lam)
    ledger.append(train.X[rows], train.y[rows])
    return ledger


def textbook_init(arch, seed):
    """Zeros for the linear head; for the MLP, seeded N(0, 1/fan_in) weights
    drawn hidden layer first, zero biases."""
    d, c, h = arch.input_dim, arch.n_classes, arch.hidden_dim
    if h is None:
        return np.zeros(c * (d + 1))
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((h, d)) / np.sqrt(d)
    w2 = rng.standard_normal((c, h)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def textbook_descent(X, y, arch, cfg):
    """Full-batch gradient descent on the mean cross-entropy, row-major:
    one row of logits per sample, the gradient written out layer by layer."""
    theta = textbook_init(arch, cfg.seed)
    for _ in range(cfg.epochs):
        theta = theta - cfg.lr * textbook_grad(arch, theta, X, y)
    return theta


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

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_full_batch_matches_row_major_descent(self, small_task, hidden,
                                                  monkeypatch):
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden)
        monkeypatch.setattr(safestream.oracle, "GRAD_TOL", 0.0)
        cfg = RetrainConfig(epochs=40, lr=0.5, seed=9)
        got = retrain(train.X, train.y, arch, cfg).theta
        want = textbook_descent(train.X, train.y, arch, cfg)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_nonfinite_feature_raises(self, small_task, hidden):
        train, _, _ = small_task
        X = train.X.copy()
        X[3, 2] = np.nan
        arch = Architecture(train.dim, train.n_classes, hidden)
        with pytest.raises(NumericalError, match="non-finite gradient"):
            retrain(X, train.y, arch, RetrainConfig(epochs=5))

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_grad_tol_stops_before_first_step(self, small_task, hidden,
                                              monkeypatch):
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden)
        monkeypatch.setattr(safestream.oracle, "GRAD_TOL", 1e9)
        cfg = RetrainConfig(epochs=50, seed=4)
        got = retrain(train.X, train.y, arch, cfg).theta
        assert np.array_equal(got, textbook_init(arch, cfg.seed))

    def test_empty_data_rejected(self, small_task):
        _, _, arch = small_task
        with pytest.raises(ConfigError):
            retrain(np.empty((0, 8)), np.empty(0, int), arch, RetrainConfig())

    @staticmethod
    def count_epoch_calls(monkeypatch):
        # the benchmark's epoch probe hooks this same module attribute
        calls = []
        exact = safestream.oracle.grad_cross_entropy

        def counting(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(safestream.oracle, "grad_cross_entropy", counting)
        return calls

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_full_batch_takes_one_gradient_per_epoch(self, small_task, hidden,
                                                     monkeypatch):
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden)
        calls = self.count_epoch_calls(monkeypatch)
        monkeypatch.setattr(safestream.oracle, "GRAD_TOL", 0.0)
        retrain(train.X, train.y, arch, RetrainConfig(epochs=17, lr=0.5))
        assert len(calls) == 17

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_fit_prepares_its_rows_once(self, small_task, hidden, monkeypatch):
        # the final finite-loss check reads the fit's prepared rows too
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden)
        calls = []
        exact = safestream.model.prepare_rows

        def counting(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(safestream.model, "prepare_rows", counting)
        monkeypatch.setattr(safestream.oracle, "prepare_rows", counting)
        retrain(train.X, train.y, arch, RetrainConfig(epochs=5))
        assert len(calls) == 1

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_overflowing_square_norm_of_finite_gradient_keeps_going(
            self, small_task, hidden, monkeypatch):
        # g @ g overflows to inf while every entry of g is finite: the stop
        # test reads inf (not converged) and the fit steps, as np.linalg.norm
        # did; only a gradient with a non-finite entry raises
        train, _, _ = small_task
        arch = Architecture(train.dim, train.n_classes, hidden)
        calls = []

        def huge(params, rows):
            calls.append(1)
            return np.full_like(params.theta, 1e160)

        monkeypatch.setattr(safestream.oracle, "grad_cross_entropy", huge)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = retrain(train.X, train.y, arch, RetrainConfig(epochs=2, lr=0.5))
        assert len(calls) == 2
        assert np.array_equal(got.theta, textbook_init(arch, 0) - 1e160)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_full_batch_bad_label_rejected_before_first_epoch(self, small_task, bad,
                                                              monkeypatch):
        train, _, arch = small_task
        y = train.y.copy()
        y[5] = bad  # the task has 2 classes
        calls = self.count_epoch_calls(monkeypatch)
        with pytest.raises(ConfigError, match="labels outside"):
            retrain(train.X, y, arch, RetrainConfig(epochs=5))
        assert calls == []


class TestTrueRisk:
    def test_self_evaluation_with_empty_ledger(self, small_task):
        train, _, arch = small_task
        star = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        ledger = ForgettingLedger(lam=100.0)
        risk = true_risk(star, train.X, train.y, ledger, star)
        assert risk == pytest.approx(mean_cross_entropy(star, train.X, train.y))

    def test_forgetting_term_vanishes_at_star(self, small_task):
        train, _, arch = small_task
        star = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        ledger = forgotten(train, np.arange(20), 100.0)
        risk = true_risk(star, train.X[20:], train.y[20:], ledger, star)
        assert risk == pytest.approx(
            mean_cross_entropy(star, train.X[20:], train.y[20:]), abs=1e-12
        )

    def test_matches_termwise_recomputation(self, small_task):
        train, _, arch = small_task
        rng = np.random.default_rng(11)
        w = ModelParams(arch, rng.standard_normal(arch.n_params))
        star = ModelParams(arch, rng.standard_normal(arch.n_params))
        keep, forget = train.take(np.arange(200)), train.take(np.arange(200, 240))
        ledger = forgotten(train, np.arange(200, 240), 5.0)
        got = true_risk(w, keep.X, keep.y, ledger, star)

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
        got = surrogate_risk(w, train.X, train.y, engine.ledger, None, train.n)
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
        w = ModelParams(arch, np.random.default_rng(5).standard_normal(arch.n_params))
        surro = surrogate_risk(
            w, train.X, train.y, engine.ledger,
            predict_proba_batch(star, engine.ledger.X), engine.retention.size_dt,
        )
        true = true_risk(w, train.X[30:], train.y[30:], engine.ledger, star)
        assert surro == pytest.approx(true, abs=1e-12)

    def test_one_forward_pass_over_the_ledger(self, small_task, monkeypatch):
        # the ledger losses and the KL term read the same probabilities, so
        # the risk keeps the bits of the two-pass formula
        train, _, arch = small_task
        params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=7.0))
        idx = np.arange(30)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        ledger, size_dt = engine.ledger, engine.retention.size_dt
        w = ModelParams(arch, np.random.default_rng(5).standard_normal(arch.n_params))
        targets = np.full((30, arch.n_classes), 1.0 / arch.n_classes)
        want = (len(train.X) / size_dt) * mean_cross_entropy(w, train.X, train.y)
        want -= cross_entropy_rows(w, ledger.X, ledger.y).sum() / size_dt
        want += (ledger.lam / 30) * kl_rows(predict_proba_batch(w, ledger.X),
                                            targets).sum()
        forwarded = []
        exact = safestream.model._forward

        def recording(params, X):
            forwarded.append(len(X))
            return exact(params, X)

        monkeypatch.setattr(safestream.model, "_forward", recording)
        got = surrogate_risk(w, train.X, train.y, ledger, targets, size_dt)
        assert got == float(want)
        assert sorted(forwarded) == [30, len(train.X)]


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
