import io
import json
from dataclasses import replace

import numpy as np
import pytest

import safestream.engine
import safestream.gaussian
from safestream.cli import main
from safestream.errors import ConfigError
from safestream.gaussian import ClassConditionalGaussians
from safestream.runner import (
    K_SWEEP_GRID,
    config_from_dict,
    config_hash,
    load_config,
    run,
    sweep,
    verify,
)

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


class TestVerify:
    def test_verify_passes_on_preset(self, capsys):
        buf = io.StringIO()
        assert verify(base_config(), buf) is True
        lines = capsys.readouterr().out.splitlines()
        assert sum("PASS" in l for l in lines) == 6
        record = json.loads(buf.getvalue())
        assert record["type"] == "verify" and record["passed"] is True
        assert "0" in record["stats"] and "sigma" in record["stats"]["0"]

    @pytest.mark.parametrize("suite, owner, name, bump", [
        pytest.param("density_ratio", ClassConditionalGaussians,
                     "log_density_vs_base_batch", lambda out: out + 1e-6,
                     id="density_ratio"),
        pytest.param("retention_recursion", safestream.engine,
                     "update_retention_grad",
                     lambda out: replace(out, grad=out.grad + 1e-6),
                     id="retention_recursion"),
        pytest.param("downdate_two_pass", safestream.gaussian, "downdate_cov",
                     lambda out: out + 1e-6, id="downdate_two_pass"),
        pytest.param("downdate_two_pass", ClassConditionalGaussians,
                     "standardize_batch", lambda out: out + 1e-6,
                     id="downdate_two_pass-standardize_batch"),
        pytest.param("forgetting_gradient", ClassConditionalGaussians,
                     "standardize_all", lambda out: out + 1e-6,
                     id="forgetting_gradient"),
        # the forward pass that fills the ledger's cached w_0 probabilities
        pytest.param("forgetting_gradient", safestream.engine, "forward_proba",
                     lambda out: (out[0] + 1e-6, out[1]),
                     id="forgetting_gradient-forward_proba"),
    ])
    def test_density_ratio_suite_catches_perturbed_log_ratio(
        self, monkeypatch, suite, owner, name, bump
    ):
        # each suite, fed through the shared round loop, must notice a 1e-6
        # error in the computation it checks while the other five still pass
        exact = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: bump(exact(*a, **kw)))
        lines = []
        assert verify(base_config(), io.StringIO(), report=lines.append) is False
        assert any(l.startswith(f"VERIFY {suite}: FAIL") for l in lines)
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
    ], ids=["seed-str", "seed-float", "safe-K-str", "dataset-n-str",
            "stream-rounds-float", "safe-not-object", "checkpoint_in",
            "safe-K-nan", "retrain-lr-inf", "test-fraction-negative",
            "test-fraction-one", "retrain-batch-size", "retrain-grad-tol"])
    def test_malformed_config_exit_code(self, tmp_path, overrides, names):
        cfg = self.write_cfg(tmp_path, **overrides)
        out = tmp_path / "err.jsonl"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        rec = json.loads(out.read_text().splitlines()[-1])
        assert rec["type"] == "error" and rec["error"] == "ConfigError"
        # the message names what was wrong, not a later symptom of it
        assert names in rec["message"]

    def test_oracle_flags(self, tmp_path):
        cfg = self.write_cfg(tmp_path, stream={"rounds": 2, "per_round": 5})
        out = tmp_path / "o.jsonl"
        main(["run", "--config", cfg, "--output", str(out), "--oracle"])
        rec = json.loads(out.read_text().splitlines()[0])
        assert "oracle" in rec
