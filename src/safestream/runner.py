"""End-to-end experiment runner: configuration, the round loop wiring the
engine to oracles and evaluation, and newline-delimited JSON output.

Output format: one JSON object per round (RoundMetrics fields plus a config
hash, with an ``oracle`` sub-object when the oracle is on), then a final
summary record carrying means over rounds, final-round values, and the full
config echo. Identical configs (with timing capture disabled) produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.stats import multivariate_normal

from .data import Dataset, load_csv, load_idx, make_synthetic
from .engine import RetentionGradState, SafeConfig, SafeUnlearner
from .errors import ConfigError
from .evaluation import RoundMetrics, accuracy, mia_attack
from .gaussian import ClassConditionalGaussians, batch_mean_cov, make_projection
from .model import Architecture, ModelParams, grad_cross_entropy
from .oracle import (
    RegretAccount,
    RetrainConfig,
    retrain,
    surrogate_risk,
    theorem_gap_bound,
    true_risk,
)
from .shift import RATIO_CEIL, RATIO_FLOOR, density_ratio
from .streams import StreamSpec, generate_stream

K_SWEEP_GRID = (1.0, 2.5, 5.0, 10.0)

# seed-derivation channels off the master seed
_SEED_DATA, _SEED_TRAIN, _SEED_PROJ, _SEED_STREAM, _SEED_MIA, _SEED_RETRAIN, _SEED_ENGINE = range(1, 8)


def derive_seed(master: int, *channel: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(channel))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "synthetic"
    # synthetic
    n: int = 5000
    dim: int = 16
    classes: int = 5
    separation: float = 4.0
    # idx
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    # csv
    path: str | None = None
    label_column: str | None = None
    test_fraction: float = 0.2

    def validate(self) -> None:
        if self.kind not in ("synthetic", "idx", "csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "idx" and not (self.images and self.labels):
            raise ConfigError("idx dataset needs 'images' and 'labels' paths")
        if self.kind == "csv" and not (self.path and self.label_column):
            raise ConfigError("csv dataset needs 'path' and 'label_column'")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    safe: SafeConfig
    retrain: RetrainConfig
    stream: StreamSpec
    arch: str = "softmax"            # "softmax" | "mlp"
    hidden_dim: int = 32
    evaluate_mia: bool = True
    oracle: bool = False
    measure_time: bool = True
    seed: int = 0
    output: str | None = None
    checkpoint_in: str | None = None

    def validate(self) -> None:
        self.dataset.validate()
        self.safe.validate()
        self.retrain.validate()
        self.stream.validate()
        if self.arch not in ("softmax", "mlp"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.arch == "mlp" and self.hidden_dim < 1:
            raise ConfigError(f"invalid hidden_dim {self.hidden_dim}")

    def to_dict(self) -> dict:
        # the output path is routing, not experiment identity: leaving it out
        # keeps replays to different files byte-identical
        d = asdict(self)
        del d["output"]
        return d


def config_from_dict(raw: dict) -> RunConfig:
    """Build a validated RunConfig from parsed JSON, deriving any substream
    seeds the file left unset from the master seed."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    master = int(raw.get("seed", 0))

    def sub(name, cls, seed_channel=None):
        d = dict(raw.get(name, {}))
        bad = set(d) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown {name} keys: {sorted(bad)}")
        if "seed" not in d and "seed" in cls.__dataclass_fields__:
            d["seed"] = derive_seed(master, seed_channel)
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad {name} section: {e}") from None

    def typed(name, kind, default):
        value = raw.get(name, default)
        # bool is a subclass of int, and JSON true must not pass as a width
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
        return value

    cfg = RunConfig(
        dataset=sub("dataset", DatasetSpec),
        safe=sub("safe", SafeConfig, _SEED_ENGINE),
        retrain=sub("retrain", RetrainConfig, _SEED_TRAIN),
        stream=sub("stream", StreamSpec, _SEED_STREAM),
        arch=raw.get("arch", "softmax"),
        hidden_dim=typed("hidden_dim", int, 32),
        evaluate_mia=typed("evaluate_mia", bool, True),
        oracle=typed("oracle", bool, False),
        measure_time=typed("measure_time", bool, True),
        seed=master,
        output=raw.get("output"),
        checkpoint_in=raw.get("checkpoint_in"),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(raw)


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def build_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    spec = cfg.dataset
    if spec.kind == "synthetic":
        return make_synthetic(
            spec.n, spec.dim, spec.classes, spec.separation,
            derive_seed(cfg.seed, _SEED_DATA), spec.test_fraction,
        )
    if spec.kind == "idx":
        train = load_idx(spec.images, spec.labels)
        if spec.test_images and spec.test_labels:
            test = load_idx(spec.test_images, spec.test_labels)
            test = Dataset(test.X, test.y, test.ids + train.n, "test")
        else:
            test = Dataset(np.empty((0, train.dim)), [], [], "test")
        return train, test
    full = load_csv(spec.path, spec.label_column)
    rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_DATA))
    perm = rng.permutation(full.n)
    n_test = int(round(spec.test_fraction * full.n))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    train = full.take(train_idx)
    test = full.take(test_idx)
    return Dataset(train.X, train.y, train.ids, "train"), Dataset(
        test.X, test.y, test.ids, "test"
    )


def build_arch(cfg: RunConfig, input_dim: int, n_classes: int) -> Architecture:
    hidden = cfg.hidden_dim if cfg.arch == "mlp" else None
    return Architecture(input_dim, n_classes, hidden)


def resolved_proj_dim(cfg: SafeConfig, input_dim: int) -> int:
    return cfg.proj_dim if cfg.proj_dim is not None else min(input_dim, 32)


@dataclass
class RunState:
    """Everything the round loop needs, built once per run."""

    cfg: RunConfig
    train: Dataset
    test: Dataset
    arch: Architecture
    params0: ModelParams
    engine: SafeUnlearner
    requests: list[np.ndarray]


def initialize(cfg: RunConfig) -> RunState:
    cfg.validate()
    train, test = build_dataset(cfg)
    arch = build_arch(cfg, train.dim, train.n_classes)

    if cfg.checkpoint_in:
        with open(cfg.checkpoint_in) as f:
            ckpt = json.load(f)
        params0 = ModelParams(Architecture(**ckpt["arch"]), np.asarray(ckpt["theta0"]))
    else:
        params0 = retrain(train.X, train.y, arch, cfg.retrain)

    retention0 = RetentionGradState(
        grad=grad_cross_entropy(params0, train.X, train.y),
        size_dt=train.n,
        size_d0=train.n,
    )
    proj_dim = resolved_proj_dim(cfg.safe, train.dim)
    projection = make_projection(train.dim, proj_dim, derive_seed(cfg.seed, _SEED_PROJ))
    gaussians = ClassConditionalGaussians.fit(train.X, train.y, projection)
    safe = replace(cfg.safe, proj_dim=proj_dim)
    engine = SafeUnlearner(
        params0, safe, retention0, gaussians, train.class_counts(), train.ids
    )
    requests = generate_stream(train, cfg.stream, gaussians.min_class_count)
    return RunState(cfg, train, test, arch, params0, engine, requests)


def _mean(values: list) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def run(cfg: RunConfig, out) -> dict:
    """Execute the round loop, writing JSONL records to the ``out`` stream.

    Returns the summary record. Round wall time covers the engine update
    only; evaluation and oracles are timed separately inside the oracle
    sub-object.
    """
    state = initialize(cfg)
    engine, train, test = state.engine, state.train, state.test
    chash = config_hash(cfg)

    remaining = train
    account = RegretAccount()
    if cfg.oracle:
        account.start(state.params0)

    metrics_rows: list[RoundMetrics] = []
    for t, ids in enumerate(state.requests, start=1):
        request = train.select_ids(ids)

        t0 = time.perf_counter()
        result = engine.process_request(request.X, request.y, request.ids)
        wall_ms = (time.perf_counter() - t0) * 1e3

        remaining = remaining.without_ids(ids)
        led = engine.ledger
        m = RoundMetrics(round=t, request_size=result.accepted)
        m.wall_ms = wall_ms if cfg.measure_time else None
        m.grad_norm = result.grad_norm
        m.exhausted_classes = result.exhausted_classes
        m.ra = accuracy(result.params, remaining.X, remaining.y)
        m.ta = accuracy(result.params, test.X, test.y)
        if led.count:
            m.fa = accuracy(result.params, led.X, led.y)
            if cfg.evaluate_mia and test.n:
                m.mia = mia_attack(
                    result.params, remaining.X, remaining.y, test.X, test.y,
                    led.X, led.y, seed=derive_seed(cfg.seed, _SEED_MIA),
                )

        if cfg.oracle:
            o0 = time.perf_counter()
            star = retrain(
                remaining.X, remaining.y, state.arch,
                replace(cfg.retrain, seed=derive_seed(cfg.seed, _SEED_RETRAIN, t)),
            )
            retrain_ms = (time.perf_counter() - o0) * 1e3
            risk_w = true_risk(result.params, remaining.X, remaining.y,
                               led, star, cfg.safe.lam)
            risk_star = true_risk(star, remaining.X, remaining.y,
                                  led, star, cfg.safe.lam)
            account.update(risk_w, risk_star, star)
            surrogate = surrogate_risk(
                result.params, train.X, train.y, led, engine.shift,
                state.params0, engine.class_counts, engine.retention.size_dt,
            )
            oracle_ms = (time.perf_counter() - o0) * 1e3
            m.oracle = {
                "risk_w": risk_w,
                "risk_star": risk_star,
                "regret": risk_w - risk_star,
                "cumulative_regret": account.cumulative,
                "v_t": account.v_t,
                "ra_star": accuracy(star, remaining.X, remaining.y),
                "fa_star": accuracy(star, led.X, led.y) if led.count else None,
                "ta_star": accuracy(star, test.X, test.y),
                "surrogate_risk": surrogate,
                "risk_gap": abs(surrogate - risk_w),
                "gap_bound": theorem_gap_bound(
                    train.n_classes, led.count, engine.retention.size_dt
                ),
                "retrain_ms": retrain_ms if cfg.measure_time else None,
                "oracle_ms": oracle_ms if cfg.measure_time else None,
            }

        metrics_rows.append(m)
        rec = m.to_record()
        rec["config_hash"] = chash
        out.write(json.dumps(rec, sort_keys=True) + "\n")

    summary = {
        "type": "summary",
        "rounds": len(metrics_rows),
        "config_hash": chash,
        "config": cfg.to_dict(),
        "means": {
            "ra": _mean([m.ra for m in metrics_rows]),
            "fa": _mean([m.fa for m in metrics_rows]),
            "ta": _mean([m.ta for m in metrics_rows]),
            "mia": _mean([m.mia for m in metrics_rows]),
            "wall_ms": _mean([m.wall_ms for m in metrics_rows]),
        },
        "final": {
            "ra": metrics_rows[-1].ra if metrics_rows else None,
            "fa": metrics_rows[-1].fa if metrics_rows else None,
            "ta": metrics_rows[-1].ta if metrics_rows else None,
            "mia": metrics_rows[-1].mia if metrics_rows else None,
        },
    }
    if cfg.oracle:
        summary["oracle"] = {
            "mean_regret": account.mean_regret,
            "cumulative_regret": account.cumulative,
            "v_t": account.v_t,
            "mean_ra_star": _mean(
                [m.oracle["ra_star"] for m in metrics_rows if m.oracle]
            ),
            "mean_fa_star": _mean(
                [m.oracle["fa_star"] for m in metrics_rows if m.oracle]
            ),
            "mean_ta_star": _mean(
                [m.oracle["ta_star"] for m in metrics_rows if m.oracle]
            ),
            "mean_risk_gap": _mean(
                [m.oracle["risk_gap"] for m in metrics_rows if m.oracle]
            ),
            "mean_retrain_ms": _mean(
                [m.oracle["retrain_ms"] for m in metrics_rows if m.oracle]
            ),
            "mean_oracle_ms": _mean(
                [m.oracle["oracle_ms"] for m in metrics_rows if m.oracle]
            ),
        }
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return summary


VERIFY_TOLERANCES = {
    "downdate_two_pass": 1e-8,
    "retention_recursion": 1e-10,
    "step_norm": 1e-10,
    "density_ratio": 1e-10,
    "replay_determinism": 0.0,
}


def verify(cfg: RunConfig, out, report=print) -> bool:
    """Run the oracle-equivalence suites on the configured task, retaining the
    initial data purely for checking. Prints one PASS/FAIL line per suite and
    writes the final stats snapshot as JSON to ``out``."""
    state = initialize(cfg)
    engine, train = state.engine, state.train
    twin = initialize(cfg).engine  # replay twin, same seeds

    errs = {name: 0.0 for name in VERIFY_TOLERANCES}
    remaining = train
    for ids in state.requests:
        request = train.select_ids(ids)
        result = engine.process_request(request.X, request.y, request.ids)
        twin_result = twin.process_request(request.X, request.y, request.ids)
        remaining = remaining.without_ids(ids)

        # downdate vs fresh two-pass statistics over survivors
        for label in engine.gaussians.classes:
            st = engine.gaussians.stats[label]
            if st.frozen:
                continue
            rows = remaining.X[remaining.y == label]
            Z = engine.gaussians.standardize_batch(rows, label)
            mu, sigma = batch_mean_cov(Z)
            errs["downdate_two_pass"] = max(
                errs["downdate_two_pass"],
                abs(st.n - len(Z)),
                float(np.abs(st.mu - mu).max()),
                float(np.abs(st.sigma - sigma).max()),
            )

        direct = grad_cross_entropy(state.params0, remaining.X, remaining.y)
        errs["retention_recursion"] = max(
            errs["retention_recursion"],
            float(np.abs(engine.retention.grad - direct).max()),
        )

        if result.grad_norm >= 1e-12:
            step = result.params.theta - state.params0.theta + result.perturbation
            errs["step_norm"] = max(
                errs["step_norm"],
                abs(float(np.linalg.norm(step)) - engine.gamma),
            )

        errs["replay_determinism"] = max(
            errs["replay_determinism"],
            float(np.abs(result.params.theta - twin_result.params.theta).max()),
        )

    # density ratio vs scipy's two Gaussian densities on surviving points
    rng = np.random.default_rng(derive_seed(cfg.seed, 99))
    probe = remaining.take(rng.choice(remaining.n, min(50, remaining.n), replace=False))
    for label, st in engine.gaussians.stats.items():
        Z = engine.gaussians.standardize_batch(probe.X, label)
        k = Z.shape[1]
        logr = (multivariate_normal(st.mu, st.sigma).logpdf(Z)
                - multivariate_normal(np.zeros(k), np.eye(k)).logpdf(Z))
        with np.errstate(over="ignore"):
            want = np.clip(np.exp(logr), RATIO_FLOOR, RATIO_CEIL)
        got = density_ratio(Z, engine.gaussians, label)
        errs["density_ratio"] = max(errs["density_ratio"],
                                    float(np.abs(got - want).max()))

    all_ok = True
    for name, tol in VERIFY_TOLERANCES.items():
        ok = errs[name] <= tol
        all_ok &= ok
        report(f"VERIFY {name}: {'PASS' if ok else 'FAIL'} "
               f"(max err {errs[name]:.3e}, tol {tol:.1e})")
    out.write(json.dumps(
        {"type": "verify", "passed": all_ok,
         "errors": {k: float(v) for k, v in errs.items()},
         "stats": engine.gaussians.snapshot(),
         "config": cfg.to_dict()},
        sort_keys=True) + "\n")
    return all_ok


def sweep(cfg: RunConfig, out_path: str, ks=K_SWEEP_GRID, report=print) -> list[dict]:
    """Run once per K value, writing one JSONL file per grid point."""
    summaries = []
    for k in ks:
        k_cfg = replace(cfg, safe=replace(cfg.safe, K=float(k)))
        path = f"{out_path}.K{k:g}.jsonl"
        with open(path, "w") as f:
            summaries.append(run(k_cfg, f))
        report(f"SWEEP K={k:g}: wrote {path}")
    return summaries
