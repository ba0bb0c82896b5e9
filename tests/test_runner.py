import copy
import functools
import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safestream.engine
import safestream.evaluation
import safestream.gaussian
import safestream.model
import safestream.runner
from safestream.cli import main
from safestream.data import Dataset, make_synthetic
from safestream.engine import SafeConfig, SafeUnlearner
from safestream.errors import ConfigError, DataError
from safestream.gaussian import ClassConditionalGaussians, ClassStats
from safestream.oracle import RetrainConfig
from safestream.runner import (
    K_SWEEP_GRID,
    DatasetSpec,
    RunConfig,
    RunState,
    build_dataset,
    config_from_dict,
    config_hash,
    derive_seed,
    initialize,
    load_config,
    round_loop,
    run,
    sweep,
    verify,
)
from safestream.streams import StreamSpec

BASE = {
    "dataset": {"kind": "synthetic", "n": 900, "dim": 10, "classes": 3,
                "separation": 4.0},
    "safe": {"K": 2.5, "T": 5, "lam": 200.0, "epsilon": 2000.0, "delta": 1e-5,
             "proj_dim": 4},
    "stream": {"rounds": 5, "per_round": 20},
    "retrain": {"epochs": 80, "lr": 1.0},
    "evaluate_mia": False,
    "seed": 11,
}


def base_config(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return config_from_dict(raw)


ROUND_KEYS = {"type", "t", "request_size", "wall_ms", "grad_norm",
              "exhausted_classes", "ra", "fa", "ta", "mia", "mia_test",
              "config_hash"}
ORACLE_KEYS = {"risk_w", "risk_star", "regret", "cumulative_regret", "v_t",
               "ra_star", "fa_star", "ta_star", "mia_star", "surrogate_risk",
               "risk_gap",
               "gap_bound", "retrain_ms", "oracle_ms"}


NAN = float("nan")
IDX = {"kind": "idx", "images": "i.idx", "labels": "l.idx"}
# RunConfig built from default sections, so its own checks are the ones hit
RUN_CONFIG = functools.partial(RunConfig, DatasetSpec(), SafeConfig(),
                               RetrainConfig(), StreamSpec())
INVALID = [
    (SafeConfig, {"K": 0.0}), (SafeConfig, {"K": NAN}), (SafeConfig, {"T": 0}),
    (SafeConfig, {"W": -1.0}), (SafeConfig, {"W": NAN}),
    (SafeConfig, {"epsilon": 0.0}), (SafeConfig, {"epsilon": NAN}),
    (SafeConfig, {"delta": 0.0}), (SafeConfig, {"delta": 1.0}),
    (SafeConfig, {"delta": NAN}), (SafeConfig, {"lam": -1.0}),
    (SafeConfig, {"lam": NAN}), (SafeConfig, {"proj_dim": 0}),
    (SafeConfig, {"seed": -1}),
    (RetrainConfig, {"epochs": 0}), (RetrainConfig, {"lr": 0.0}),
    (RetrainConfig, {"lr": NAN}), (RetrainConfig, {"seed": -1}),
    (StreamSpec, {"mode": "bogus"}), (StreamSpec, {"mode": "class-stream"}),
    (StreamSpec, {"rounds": -1}), (StreamSpec, {"per_round": -1}),
    (StreamSpec, {"seed": -1}),
    (DatasetSpec, {"kind": "bogus"}), (DatasetSpec, {"kind": "idx"}),
    (DatasetSpec, {**IDX, "test_images": "ti.idx"}),
    (DatasetSpec, {**IDX, "test_labels": "tl.idx"}),
    (DatasetSpec, {"kind": "csv"}), (DatasetSpec, {"test_fraction": -0.1}),
    (DatasetSpec, {"test_fraction": 1.0}), (DatasetSpec, {"test_fraction": NAN}),
    (RUN_CONFIG, {"arch": "transformer"}),
    (RUN_CONFIG, {"arch": "mlp", "hidden_dim": 0}),
]


def _invalid_id(case):
    build, kwargs = case
    name = getattr(build, "__name__", "RunConfig")
    return "-".join([name, *(f"{k}={v}" for k, v in kwargs.items())])


# arbitrary JSON objects over the config's section and field names
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.text(max_size=4),
    st.sampled_from(["synthetic", "idx", "csv", "random-subset", "class-stream",
                     "softmax", "mlp"]),
)


def _json_object(names):
    return st.dictionaries(st.sampled_from([*names, "bogus"]), _JSON_VALUES,
                           max_size=4)


_SECTION_TYPES = {"dataset": DatasetSpec, "safe": SafeConfig,
                  "retrain": RetrainConfig, "stream": StreamSpec}
_RAW_CONFIGS = st.builds(
    lambda top, sections: {**top, **sections},
    _json_object([f.name for f in fields(RunConfig) if f.name not in _SECTION_TYPES]),
    st.fixed_dictionaries({}, optional={
        name: st.one_of(_JSON_VALUES, _json_object([f.name for f in fields(cls)]))
        for name, cls in _SECTION_TYPES.items()
    }),
)


def run_to_records(cfg):
    buf = io.StringIO()
    run(cfg, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({**BASE, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown safe keys"):
            config_from_dict({**BASE, "safe": {"gamma": 2}})

    def test_validation_before_compute(self):
        with pytest.raises(ConfigError):
            config_from_dict({**BASE, "safe": {"K": -1}})
        with pytest.raises(ConfigError):
            config_from_dict({**BASE, "arch": "transformer"})

    def test_badly_typed_flags_rejected(self):
        for flag in ("evaluate_mia", "oracle", "measure_time"):
            with pytest.raises(ConfigError, match=flag):
                config_from_dict({**BASE, flag: "false"})
        with pytest.raises(ConfigError, match="hidden_dim"):
            config_from_dict({**BASE, "arch": "mlp", "hidden_dim": "x"})

    @pytest.mark.parametrize("case", INVALID, ids=_invalid_id)
    def test_invalid_config_cannot_be_built(self, case):
        # NaN fails every bound, and a negative seed is refused here rather
        # than by numpy once the run reaches it
        build, kwargs = case
        with pytest.raises(ConfigError):
            build(**kwargs)
        with pytest.raises(ConfigError):
            replace(build(), **kwargs)

    @settings(max_examples=300, deadline=None)
    @given(raw=_RAW_CONFIGS)
    def test_json_errors_stay_in_taxonomy(self, raw):
        try:
            cfg = config_from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    def test_substream_seeds_derived_from_master(self):
        a = config_from_dict(json.loads(json.dumps(BASE)))
        b = config_from_dict({**json.loads(json.dumps(BASE)), "seed": 12})
        assert a.safe.seed != b.safe.seed
        assert a.stream.seed != b.stream.seed

    def test_explicit_substream_seed_wins(self):
        raw = json.loads(json.dumps(BASE))
        raw["stream"] = {**raw["stream"], "seed": 777}
        cfg = config_from_dict(raw)
        assert cfg.stream.seed == 777

    def test_hash_stable_and_sensitive(self):
        a, b = base_config(), base_config()
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(base_config(seed=99))

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(BASE))
        assert config_hash(load_config(str(p))) == config_hash(base_config())
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(bad))


class TestRun:
    def test_round_records_and_summary(self):
        records = run_to_records(base_config())
        rounds = [r for r in records if r["type"] == "round"]
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(rounds) == 5 and len(summaries) == 1
        for r in rounds:
            assert set(r) == ROUND_KEYS
            assert 0.0 <= r["ra"] <= 1.0 and 0.0 <= r["fa"] <= 1.0
            assert r["config_hash"] == summaries[0]["config_hash"]
        assert summaries[0]["config"]["safe"]["K"] == 2.5
        assert summaries[0]["rounds"] == 5

    def test_synthetic_without_test_rows(self):
        train, test = build_dataset(base_config(
            dataset={**BASE["dataset"], "test_fraction": 0.0}))
        assert train.n == BASE["dataset"]["n"] and test.n == 0

    def test_zero_rounds_summary_only(self):
        cfg = base_config(stream={"rounds": 0, "per_round": 0})
        records = run_to_records(cfg)
        assert len(records) == 1
        assert records[0]["type"] == "summary"
        assert records[0]["rounds"] == 0

    def test_replay_byte_identical_without_timing(self):
        cfg = base_config(measure_time=False)
        a, b = io.StringIO(), io.StringIO()
        run(cfg, a)
        run(cfg, b)
        assert a.getvalue() == b.getvalue()
        assert '"wall_ms": null' in a.getvalue()

    def test_oracle_block_present_when_enabled(self):
        records = run_to_records(base_config(oracle=True))
        rounds = [r for r in records if r["type"] == "round"]
        for r in rounds:
            assert set(r) == ROUND_KEYS | {"oracle"}
            assert set(r["oracle"]) == ORACLE_KEYS
            assert r["oracle"]["regret"] >= -1e-8  # retrained model is optimal
        summary = records[-1]
        assert "oracle" in summary and summary["oracle"]["v_t"] >= 0.0

    def test_mia_reported_without_test_rows(self, tmp_path):
        # the loss-threshold attack needs no non-members: a run with an
        # empty test split still reports mia, and only its test reference
        # is absent
        rng = np.random.default_rng(5)
        y = np.repeat(np.arange(3), 100)
        X = rng.normal(0.0, 1.0, (300, 4)) + 3.0 * y[:, None]
        p = tmp_path / "rows.csv"
        lines = ["a,b,c,d,label"] + [
            ",".join(f"{v:.6f}" for v in row) + f",{lab}" for row, lab in zip(X, y)
        ]
        p.write_text("\n".join(lines) + "\n")
        cfg = base_config(
            dataset={"kind": "csv", "path": str(p), "label_column": "label",
                     "test_fraction": 0.0},
            stream={"rounds": 3, "per_round": 10},
            evaluate_mia=True, oracle=True,
        )
        records = run_to_records(cfg)
        rounds = [r for r in records if r["type"] == "round"]
        assert len(rounds) == 3
        for r in rounds:
            assert 0.0 <= r["mia"] <= 1.0 and r["mia_test"] is None
            assert 0.0 <= r["oracle"]["mia_star"] <= 1.0
        summary = records[-1]
        assert summary["means"]["mia"] is not None
        assert summary["means"]["mia_test"] is None
        assert summary["final"]["mia_test"] is None

    def test_wall_time_scales_with_request_not_dataset(self):
        small = run_to_records(base_config())
        big = run_to_records(base_config(
            dataset={**BASE["dataset"], "n": 3600}
        ))
        # engine step never touches the training set, so per-round cost is
        # driven by |F_t| + ledger size; allow generous slack for noise
        small_ms = np.median([r["wall_ms"] for r in small if r["type"] == "round"])
        big_ms = np.median([r["wall_ms"] for r in big if r["type"] == "round"])
        assert big_ms < 10 * max(small_ms, 0.05)


@pytest.fixture(scope="module")
def loop_state():
    """A set-up with no stream of its own: 240 training and 60 test rows."""
    return initialize(base_config(dataset={**BASE["dataset"], "n": 300},
                                  stream={"rounds": 0, "per_round": 0}))


def id_pool(state):
    # training ids, test ids and ids of no row at all, few enough that
    # requests repeat them within a round and across rounds
    return (state.train.ids[:12].tolist() + state.test.ids[:3].tolist()
            + [-1, 10**6])


REQUEST_STREAMS = st.lists(st.lists(st.integers(0, 16), max_size=8), max_size=6)


@given(streams=REQUEST_STREAMS)
@settings(max_examples=60, deadline=None)
def test_round_loop_matches_id_lookups(loop_state, streams):
    # duplicates, foreign ids, re-requested forgotten ids and empty rounds:
    # the engine's alive mask and each request must be what the id lookups
    # give
    train, pool = loop_state.train, id_pool(loop_state)
    requests = [np.array([pool[k] for k in req], dtype=np.int64) for req in streams]
    engine = copy.deepcopy(loop_state.engine)
    state = RunState(train, loop_state.test, loop_state.params0, engine, requests)
    requested = np.empty(0, dtype=np.int64)
    rounds = 0
    for t, request, result, _ in round_loop(state):
        ids = requests[t - 1]
        requested = np.concatenate([requested, ids])
        want = train.select_ids(ids)
        assert np.array_equal(train.take(engine.rows_of(ids)).ids, want.ids)
        for got_rows, want_rows in ((request, want),
                                    (train.subset(engine.alive),
                                     train.without_ids(requested))):
            assert np.array_equal(got_rows.X, want_rows.X)
            assert np.array_equal(got_rows.y, want_rows.y)
            assert np.array_equal(got_rows.ids, want_rows.ids)
        assert np.array_equal(engine.alive, ~np.isin(train.ids, requested))
        # the forgotten rows are the engine's ledger, in its order
        ledger = engine.ledger
        assert len(ledger.rows) == ledger.count
        if ledger.count:
            assert np.array_equal(train.X[ledger.rows], ledger.X)
        assert result.accepted + result.dropped == want.n
        rounds += 1
    assert rounds == len(requests)


def test_round_copies_no_surviving_rows(monkeypatch):
    # with the oracle and MIA off, a round scores w_t in one forward pass per
    # split and copies only the request's rows
    cfg = base_config(measure_time=False)
    state = initialize(cfg)  # before the hooks: w_0's fit is not a round's work
    monkeypatch.setattr(safestream.runner, "initialize", lambda _: state)
    passes, copies = [], []
    exact_forward = safestream.model._forward

    def forward(params, X):
        passes.append(len(X))
        return exact_forward(params, X)

    monkeypatch.setattr(safestream.model, "_forward", forward)
    for name in ("subset", "take"):
        exact = getattr(Dataset, name)

        def recording(self, rows, _exact=exact):
            sub = _exact(self, rows)
            copies.append(sub.n)
            return sub

        monkeypatch.setattr(Dataset, name, recording)
    run(cfg, io.StringIO())
    per_round, rounds = cfg.stream.per_round, cfg.stream.rounds
    # the engine's own passes cover the request's rows alone
    assert [n for n in passes if n > per_round] == [state.train.n, state.test.n] * rounds
    assert len(copies) == rounds and max(copies) <= per_round


def textbook_proba(arch, theta, X):
    """Row-major (n, C) probabilities, the layers written out."""
    d, c, h = arch.input_dim, arch.n_classes, arch.hidden_dim
    H = X
    if h is not None:
        W1, b1 = theta[: h * d].reshape(h, d), theta[h * d: h * d + h]
        H = np.tanh(X @ W1.T + b1)
        theta, d = theta[h * d + h:], h
    z = H @ theta[: c * d].reshape(c, d).T + theta[c * d:]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("hidden", [None, 6])
def test_round_metrics_match_numpy_recompute(monkeypatch, hidden):
    # every round metric recomputed from the rows without_ids and select_ids
    # give, with the models the run scored captured on the way
    cfg = base_config(arch="mlp" if hidden else "softmax", hidden_dim=hidden or 32,
                      oracle=True, evaluate_mia=True, measure_time=False)
    emitted, stars = [], []
    exact_request = SafeUnlearner.process_request
    exact_retrain = safestream.runner.retrain

    def request(self, *args):
        result = exact_request(self, *args)
        emitted.append(result.params)
        return result

    def retrain(*args):
        stars.append(exact_retrain(*args))
        return stars[-1]

    monkeypatch.setattr(SafeUnlearner, "process_request", request)
    monkeypatch.setattr(safestream.runner, "retrain", retrain)
    rounds = [r for r in run_to_records(cfg) if r["type"] == "round"]
    monkeypatch.undo()
    state = initialize(cfg)
    train, test, arch = state.train, state.test, state.params0.arch
    assert len(rounds) == len(emitted) == len(stars) - 1 == cfg.stream.rounds

    def scores(params, rows):
        p = textbook_proba(arch, params.theta, rows.X)
        loss = -np.log(np.maximum(p[np.arange(rows.n), rows.y], 1e-12))
        return p, float((p.argmax(axis=1) == rows.y).mean()), loss

    requested = np.empty(0, dtype=np.int64)
    for rec, ids, w, star in zip(rounds, state.requests, emitted, stars[1:]):
        requested = np.concatenate([requested, ids])
        keep, gone = train.without_ids(requested), train.select_ids(requested)
        _, ra, keep_loss = scores(w, keep)
        p_gone, fa, gone_loss = scores(w, gone)
        _, ta, test_loss = scores(w, test)
        _, _, keep_loss_star = scores(star, keep)
        q_gone = scores(star, gone)[0]
        threshold = keep_loss.mean()
        kl = (p_gone * np.log(p_gone / q_gone)).sum()
        assert (rec["ra"], rec["fa"], rec["ta"]) == (ra, fa, ta)
        assert rec["mia"] == float((gone_loss <= threshold).mean())
        assert rec["mia_test"] == float((test_loss <= threshold).mean())
        risk_w = keep_loss.mean() + cfg.safe.lam / gone.n * kl
        assert rec["oracle"]["risk_w"] == pytest.approx(risk_w, rel=1e-12)
        assert rec["oracle"]["risk_star"] == pytest.approx(keep_loss_star.mean(),
                                                           rel=1e-12)


def skew_class0_base(g):
    """``g`` with class 0's t=0 mean off by 0.1 in every coordinate and its
    standardized mean shifted to match, so every row still whitens to the
    statistics the engine tracks."""
    d = np.full(g.proj_dim, 0.1)
    base, st = g.base[0], g.stats[0]
    g.base[0] = ClassStats(base.n, base.mu + d, base.sigma)
    g.stats[0] = ClassStats(st.n, st.mu - d @ base.inv_chol.T, st.sigma)
    return g


class TestVerify:
    def test_verify_passes_on_preset(self, capsys):
        buf = io.StringIO()
        assert verify(base_config(), buf) is True
        lines = capsys.readouterr().out.splitlines()
        assert sum("PASS" in l for l in lines) == 6
        record = json.loads(buf.getvalue())
        assert record["type"] == "verify" and record["passed"] is True
        # exactly the statistics' dataclass fields: the cached factor
        # inverse and log-determinant are not fields
        assert set(record["stats"]["0"]) == {"frozen", "mu", "n", "sigma"}

    @pytest.mark.parametrize("suites, owner, name, bump", [
        pytest.param(["density_ratio"], ClassConditionalGaussians,
                     "log_density_vs_base_batch", lambda out: out + 1e-6,
                     id="density_ratio"),
        pytest.param(["retention_recursion"], safestream.engine,
                     "update_retention_grad",
                     lambda out: replace(out, grad=out.grad + 1e-6),
                     id="retention_recursion"),
        pytest.param(["downdate_two_pass"], safestream.gaussian, "downdate_cov",
                     lambda out: out + 1e-6, id="downdate_two_pass"),
        pytest.param(["downdate_two_pass"], safestream.gaussian, "downdate_mean",
                     lambda out: (out[0], out[1] + 1e-6),
                     id="downdate_two_pass-downdate_mean"),
        # a request's standardize_all stack feeds both its downdate and the
        # ledger's cached projections
        pytest.param(["downdate_two_pass", "forgetting_gradient"],
                     ClassConditionalGaussians, "standardize_all",
                     lambda out: out + 1e-6, id="forgetting_gradient"),
        # the forward pass that fills the ledger's cached w_0 probabilities
        pytest.param(["forgetting_gradient"], safestream.engine, "forward_proba",
                     lambda out: (out[0] + 1e-6, out[1]),
                     id="forgetting_gradient-forward_proba"),
        # a t=0 fit the engine stays consistent with: only the suites whose
        # references refit the base from the training rows can notice
        pytest.param(["downdate_two_pass", "forgetting_gradient"],
                     ClassConditionalGaussians, "fit", skew_class0_base, id="t0-fit"),
    ])
    def test_density_ratio_suite_catches_perturbed_log_ratio(
        self, monkeypatch, suites, owner, name, bump
    ):
        # each suite, fed through the shared round loop, must notice a 1e-6
        # error in the computation it checks while the suites that do not
        # read that computation still pass
        exact = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: bump(exact(*a, **kw)))
        lines = []
        assert verify(base_config(), io.StringIO(), report=lines.append) is False
        for suite in suites:
            assert any(l.startswith(f"VERIFY {suite}: FAIL") for l in lines)
        assert sum("PASS" in l for l in lines) == 6 - len(suites)

    @pytest.mark.parametrize("arch", ["softmax", "mlp"])
    def test_forgetting_gradient_suite_catches_stale_ratio_column(
        self, monkeypatch, arch
    ):
        # a class stream past the freeze: 80 training rows of class 1 in
        # rounds of 5, frozen in round 15 below proj_dim + 2 = 6 rows. A
        # refresh rule that never recomputes a class whose statistics moved
        # keeps ratios under old statistics, which the suite's recompute
        # from the raw rows with scipy's densities exposes
        cfg = base_config(
            dataset={**BASE["dataset"], "n": 300}, arch=arch,
            stream={"mode": "class-stream", "target_class": 1, "rounds": 16,
                    "per_round": 5},
        )
        lines, buf = [], io.StringIO()
        assert verify(cfg, buf, report=lines.append) is True
        assert sum("PASS" in l for l in lines) == 6
        assert json.loads(buf.getvalue())["stats"]["1"]["frozen"] is True
        monkeypatch.setattr(safestream.engine.ForgettingLedger, "stale_from",
                            lambda self, label, stats: self.ratio_rows)
        lines = []
        assert verify(cfg, io.StringIO(), report=lines.append) is False
        assert any(l.startswith("VERIFY forgetting_gradient: FAIL") for l in lines)
        assert sum("PASS" in l for l in lines) == 5


class TestSweep:
    def test_sweep_grid_outputs(self, tmp_path):
        out = tmp_path / "grid"
        cfg = base_config(stream={"rounds": 2, "per_round": 10})
        summaries = sweep(cfg, str(out), report=lambda *_: None)
        assert K_SWEEP_GRID == (1.0, 2.5, 5.0, 10.0)
        assert len(summaries) == 4
        for k in K_SWEEP_GRID:
            path = tmp_path / f"grid.K{k:g}.jsonl"
            assert path.exists()
            recs = [json.loads(l) for l in path.read_text().splitlines()]
            assert recs[-1]["config"]["safe"]["K"] == k


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        raw = json.loads(json.dumps(BASE))
        raw.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_run_writes_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "summary"

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, safe={"K": -3})
        assert main(["run", "--config", cfg]) == 1

    def test_data_error_exit_code(self, tmp_path):
        cfg = self.write_cfg(
            tmp_path,
            dataset={"kind": "idx", "images": "/nonexistent.idx",
                     "labels": "/nonexistent2.idx"},
        )
        code = main(["run", "--config", cfg, "--output", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_synthetic_split_leaving_no_training_row_exit_code(self, tmp_path):
        cfg = self.write_cfg(
            tmp_path, dataset={"kind": "synthetic", "n": 20, "dim": 5,
                               "classes": 5, "test_fraction": 0.9},
        )
        out = tmp_path / "o.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["error"] == "ConfigError" and "test_fraction" in rec["message"]

    def test_synthetic_test_class_missing_from_training_rejected(self, monkeypatch):
        # the missing-class check covers every dataset kind
        def split_without_class_2(*args):
            train, test = make_synthetic(*args)
            return train.subset(train.y != 2), test

        monkeypatch.setattr(safestream.runner, "make_synthetic",
                            split_without_class_2)
        with pytest.raises(DataError, match="class 2"):
            build_dataset(base_config())

    def test_non_finite_csv_cell_exit_code(self, tmp_path):
        # a nan cell is a data error, caught on load, not a retrain that
        # diverges later (exit 3)
        rng = np.random.default_rng(2)
        lines = ["a,b,label"] + [f"{u:.6f},{v:.6f},{i % 2}" for i, (u, v)
                                 in enumerate(rng.uniform(0, 1, (40, 2)))]
        lines[7] = "nan,0.5,0"
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = self.write_cfg(
            tmp_path,
            dataset={"kind": "csv", "path": str(data), "label_column": "label"},
            safe={"proj_dim": 1}, stream={"rounds": 1, "per_round": 2},
        )
        out = tmp_path / "o.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["error"] == "DataError" and "row 8, column 'a'" in rec["message"]

    @pytest.mark.parametrize("evaluate_mia", [True, False])
    def test_class_only_in_test_split_exit_code(self, tmp_path, monkeypatch,
                                                evaluate_mia):
        # the one row of class c lands in the test split: no model fitted to
        # the training split can score it, so the data is rejected before w_0
        # is trained, with or without the MIA
        rng = np.random.default_rng(3)
        labels = ["a"] * 60 + ["b"] * 60 + ["c"]
        lines = ["u,v,label"] + [f"{u:.6f},{v:.6f},{lab}" for (u, v), lab
                                 in zip(rng.uniform(0, 1, (121, 2)), labels)]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = self.write_cfg(
            tmp_path, seed=0, evaluate_mia=evaluate_mia,
            dataset={"kind": "csv", "path": str(data), "label_column": "label",
                     "test_fraction": 0.5},
            safe={"proj_dim": 1}, stream={"rounds": 1, "per_round": 2},
        )
        fits = []
        monkeypatch.setattr(safestream.runner, "retrain", lambda *a: fits.append(a))
        out = tmp_path / "o.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["error"] == "DataError"
        assert "test split" in rec["message"] and "class 2" in rec["message"]
        assert fits == []

    def test_error_record_written(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, stream={"rounds": 100, "per_round": 100})
        out = tmp_path / "err.jsonl"
        code = main(["run", "--config", cfg, "--output", str(out)])
        assert code == 1
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["type"] == "error" and rec["exit_code"] == 1
        assert "ConfigError" in rec["error"]

    def test_error_record_written_to_config_output(self, tmp_path):
        # the output named in the config file, not only --output, receives
        # the error record of a run that fails after the file was opened
        out = tmp_path / "cfg_out.jsonl"
        cfg = self.write_cfg(tmp_path, output=str(out),
                             stream={"rounds": 100, "per_round": 100})
        assert main(["run", "--config", cfg]) == 1
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 1
        assert recs[0]["type"] == "error" and recs[0]["error"] == "ConfigError"

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path, measure_time=False, evaluate_mia=False)
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        main(["run", "--config", cfg, "--output", str(a), "--seed", "5"])
        main(["run", "--config", cfg, "--output", str(b), "--seed", "5"])
        main(["run", "--config", cfg, "--output", str(c), "--seed", "6"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_seed_flag_keeps_explicit_section_seed(self, tmp_path):
        # --seed re-derives only the section seeds the file leaves unset
        cfg = self.write_cfg(tmp_path, stream={"rounds": 1, "per_round": 5, "seed": 7})
        out = tmp_path / "o.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out), "--seed", "3"]) == 0
        echo = json.loads(out.read_text().splitlines()[-1])["config"]
        assert echo["seed"] == 3 and echo["stream"]["seed"] == 7
        for name in ("safe", "retrain"):
            channel = safestream.runner._SECTIONS[name][1]
            assert echo[name]["seed"] == derive_seed(3, channel)

    def test_verify_subcommand(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        assert main(["verify", "--config", cfg,
                     "--output", str(tmp_path / "v.jsonl")]) == 0

    @pytest.mark.parametrize("overrides, names", [
        ({"seed": "x"}, "config seed"),
        ({"seed": 1.5}, "config seed"),
        ({"safe": {"K": "2"}}, "safe K"),
        ({"dataset": {"n": "100"}}, "dataset n"),
        ({"stream": {"rounds": 1.5}}, "stream rounds"),
        ({"safe": 5}, "safe section"),
        ({"checkpoint_in": "w0.json"}, "unknown config keys"),
        ({"safe": {"K": float("nan")}}, "safe K must be finite"),
        ({"retrain": {"lr": float("inf")}}, "retrain lr must be finite"),
        ({"dataset": {**BASE["dataset"], "test_fraction": -0.1}}, "test_fraction"),
        ({"dataset": {**BASE["dataset"], "test_fraction": 1.0}}, "test_fraction"),
        ({"retrain": {"batch_size": 64}}, "unknown retrain keys"),
        ({"retrain": {"grad_tol": 0.0}}, "unknown retrain keys"),
        ({"seed": -1}, "config seed must be a non-negative"),
        ({"safe": {"seed": -1}}, "safe seed must be a non-negative"),
        ({"retrain": {"seed": -2}}, "retrain seed must be a non-negative"),
        ({"stream": {**BASE["stream"], "seed": -1}},
         "stream seed must be a non-negative"),
        ({"dataset": {**IDX, "test_images": "ti.idx"}}, "'test_labels'"),
        ({"dataset": {**IDX, "test_labels": "tl.idx"}}, "'test_images'"),
    ], ids=["seed-str", "seed-float", "safe-K-str", "dataset-n-str",
            "stream-rounds-float", "safe-not-object", "checkpoint_in",
            "safe-K-nan", "retrain-lr-inf", "test-fraction-negative",
            "test-fraction-one", "retrain-batch-size", "retrain-grad-tol",
            "seed-negative", "safe-seed-negative", "retrain-seed-negative",
            "stream-seed-negative", "idx-test-images-only", "idx-test-labels-only"])
    def test_malformed_config_exit_code(self, tmp_path, overrides, names):
        cfg = self.write_cfg(tmp_path, **overrides)
        out = tmp_path / "err.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["type"] == "error" and rec["error"] == "ConfigError"
        # the message names what was wrong, not a later symptom of it
        assert names in rec["message"]

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 1
        rec = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rec["error"] == "ConfigError"
        assert "config seed must be a non-negative" in rec["message"]

    def test_non_object_config_with_seed_flag_exit_code(self, tmp_path, capsys):
        # the command line's overrides must not reach a root that is no object
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--seed", "3"]) == 1
        rec = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rec["error"] == "ConfigError"
        assert "config root must be a JSON object" in rec["message"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"seed": 1, "output": "caf\xe9.jsonl"}')
        assert main(["run", "--config", str(path)]) == 1
        rec = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rec["type"] == "error" and rec["error"] == "ConfigError"
        assert rec["exit_code"] == 1 and str(path) in rec["message"]

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_unopenable_output_exit_code(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path, stream={"rounds": 1, "per_round": 5})
        out = tmp_path / "no-such-dir" / "o.jsonl"
        assert main([command, "--config", cfg, "--output", str(out)]) == 1
        rec = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert rec["type"] == "error" and rec["error"] == "ConfigError"
        assert str(out) in rec["message"]

    def test_oracle_flags(self, tmp_path):
        cfg = self.write_cfg(tmp_path, stream={"rounds": 2, "per_round": 5})
        out = tmp_path / "o.jsonl"
        main(["run", "--config", cfg, "--output", str(out), "--oracle"])
        rec = json.loads(out.read_text().splitlines()[0])
        assert "oracle" in rec
