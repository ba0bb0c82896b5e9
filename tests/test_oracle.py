import tracemalloc

import numpy as np
import pytest
from scipy.special import rel_entr

import safestream.engine
import safestream.model
import safestream.oracle
import safestream.runner
from safestream.data import make_synthetic
from safestream.engine import SafeConfig
from safestream.errors import ConfigError, NumericalError
from safestream.evaluation import accuracy, score_rows
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
        assert accuracy(score_rows(params, train.X, train.y).correct) >= 0.99

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

    def test_fit_runs_under_the_names_the_benchmark_hooks(self):
        # perfbench probes each epoch at oracle.grad_cross_entropy and traces
        # runner.retrain and engine.grad_cross_entropy: all three must stay
        # module attributes naming these functions
        assert safestream.oracle.grad_cross_entropy is safestream.model.grad_cross_entropy
        assert safestream.engine.grad_cross_entropy is safestream.model.grad_cross_entropy
        assert safestream.runner.retrain is retrain

    @pytest.mark.parametrize("hidden", [None, 8])
    def test_blocked_fit_takes_one_gradient_and_no_full_width_array_per_epoch(
            self, hidden, monkeypatch):
        # rows cut into at least 4 blocks: still one gradient call per epoch,
        # and no epoch allocates a temporary of one float per row, the
        # smallest array as wide as Xt1 and onehot
        rng = np.random.default_rng(31)
        n = 32000
        X, y = rng.standard_normal((n, 16)), rng.integers(0, 5, n)
        arch = Architecture(16, 5, hidden)
        monkeypatch.setattr(safestream.model, "_BLOCK_BYTES", 1 << 16)
        assert len(safestream.model.prepare_rows(arch, X, y).blocks()) >= 4
        peaks = []
        exact = safestream.oracle.grad_cross_entropy

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = exact(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return g

        monkeypatch.setattr(safestream.oracle, "grad_cross_entropy", traced)
        monkeypatch.setattr(safestream.oracle, "GRAD_TOL", 0.0)
        tracemalloc.start()
        try:
            retrain(X, y, arch, RetrainConfig(epochs=6, lr=0.5))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks) < 8 * n, peaks

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
        none = np.empty((0, arch.n_classes))
        risk = true_risk(cross_entropy_rows(star, train.X, train.y), none, none, 100.0)
        assert risk == pytest.approx(mean_cross_entropy(star, train.X, train.y))

    def test_forgetting_term_vanishes_at_star(self, small_task):
        train, _, arch = small_task
        star = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        p_led = predict_proba_batch(star, train.X[:20])
        risk = true_risk(cross_entropy_rows(star, train.X[20:], train.y[20:]),
                         p_led, p_led, 100.0)
        assert risk == pytest.approx(
            mean_cross_entropy(star, train.X[20:], train.y[20:]), abs=1e-12
        )

    def test_matches_termwise_recomputation(self, small_task):
        train, _, arch = small_task
        rng = np.random.default_rng(11)
        w = ModelParams(arch, rng.standard_normal(arch.n_params))
        star = ModelParams(arch, rng.standard_normal(arch.n_params))
        keep, forget = train.take(np.arange(200)), train.take(np.arange(200, 240))
        got = true_risk(cross_entropy_rows(w, keep.X, keep.y),
                        predict_proba_batch(w, forget.X),
                        predict_proba_batch(star, forget.X), 5.0)

        p_keep = predict_proba_batch(w, keep.X)
        retention = -np.log(p_keep[np.arange(keep.n), keep.y]).mean()
        kls = rel_entr(predict_proba_batch(w, forget.X), predict_proba_batch(star, forget.X))
        want = retention + (5.0 / forget.n) * kls.sum()
        assert got == pytest.approx(want, rel=1e-12)


class TestSurrogateRisk:
    def test_equals_initial_risk_before_deletions(self, small_task):
        train, _, arch = small_task
        rng = np.random.default_rng(2)
        w = ModelParams(arch, rng.standard_normal(arch.n_params))
        got = surrogate_risk(cross_entropy_rows(w, train.X, train.y), np.empty(0),
                             np.empty((0, arch.n_classes)), None, train.n, 7.0)
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
        led = engine.ledger
        loss = cross_entropy_rows(w, train.X, train.y)
        p_led = predict_proba_batch(w, led.X)
        q_led = predict_proba_batch(star, led.X)
        surro = surrogate_risk(loss, loss[led.rows], p_led, q_led,
                               engine.retention.size_dt, engine.config.lam)
        true = true_risk(cross_entropy_rows(w, train.X[30:], train.y[30:]),
                         p_led, q_led, engine.config.lam)
        assert surro == pytest.approx(true, abs=1e-12)

    def test_one_forward_pass_over_the_ledger(self, small_task, monkeypatch):
        # the one pass over the training rows gives R_0, the ledger losses
        # and the KL term's probabilities, so surrogate_risk runs no pass of
        # its own and matches the formula's separate passes to round-off
        train, _, arch = small_task
        params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=80, seed=0))
        engine = build_engine(train, params0, SafeConfig(T=5, lam=7.0))
        idx = np.arange(30)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        ledger, size_dt = engine.ledger, engine.retention.size_dt
        w = ModelParams(arch, np.random.default_rng(5).standard_normal(arch.n_params))
        targets = np.full((30, arch.n_classes), 1.0 / arch.n_classes)
        want = (len(train.X) / size_dt) * mean_cross_entropy(w, train.X, train.y)
        want -= cross_entropy_rows(w, ledger.X, train.y[ledger.rows]).sum() / size_dt
        want += (engine.config.lam / 30) * kl_rows(predict_proba_batch(w, ledger.X),
                                            targets).sum()
        forwarded = []
        exact = safestream.model._forward

        def recording(params, X):
            forwarded.append(len(X))
            return exact(params, X)

        monkeypatch.setattr(safestream.model, "_forward", recording)
        scores = score_rows(w, train.X, train.y)
        got = surrogate_risk(scores.loss, scores.loss[idx], scores.proba[:, idx].T,
                             targets, size_dt, engine.config.lam)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)
        assert forwarded == [len(train.X)]


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
