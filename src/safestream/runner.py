"""End-to-end experiment runner: configuration, the one round loop that
sends the stream through the engine, and its two consumers, ``run`` and
``verify``.

Output format of ``run``: one JSON object per round (the engine's result,
accuracies, MIA rates and config hash, with an ``oracle`` sub-object when the
oracle is on), then a final summary record carrying means over rounds,
final-round values, and the full config echo. Identical configs (with timing
capture disabled) produce byte-identical files.

The MIA keys are the loss-threshold attack of ``evaluation.mia_attack``,
with the remaining training rows as its members, and are null unless
``evaluate_mia`` is set:

- ``mia``: the emitted w_t on the forgotten rows (the ledger); null while
  the ledger is empty;
- ``mia_test``: w_t on the test rows, the attack's false-positive rate, so
  ``mia - mia_test`` is its advantage; null on an empty test split;
- ``mia_star`` in the oracle block: the retrained w* on the forgotten rows,
  the rate a model that never saw them gets.
"""

from __future__ import annotations

import hashlib
import json
import time
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from .data import Dataset, load_csv, load_idx, make_synthetic
from .engine import (
    ZERO_GRAD_TOL,
    RetentionGradState,
    SafeConfig,
    SafeUnlearner,
    forgetting_gradient,
)
from .errors import ConfigError
from .evaluation import accuracy, mia_attack
from .gaussian import (
    ClassConditionalGaussians,
    ClassStats,
    batch_mean_cov,
    make_projection,
    sq_norms,
)
from .model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    mean_cross_entropy,
    predict_proba_batch,
    sum_grad_kl_to_targets,
)
from .oracle import (
    RegretAccount,
    RetrainConfig,
    retrain,
    surrogate_risk,
    theorem_gap_bound,
    true_risk,
)
from .shift import RATIO_CEIL, RATIO_FLOOR, density_ratio, label_ratio
from .streams import StreamSpec, generate_stream

K_SWEEP_GRID = (1.0, 2.5, 5.0, 10.0)

# seed-derivation channels off the master seed. Channel 5 seeded the MIA
# attacker, which no longer draws random numbers; it stays unused so the
# later channels, and with them every oracle retrain seed and every engine
# perturbation, keep their numbers.
_SEED_DATA, _SEED_TRAIN, _SEED_PROJ, _SEED_STREAM = 1, 2, 3, 4
_SEED_RETRAIN, _SEED_ENGINE = 6, 7


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
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction {self.test_fraction} not in [0, 1)")


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


# config sections: dataclass and the seed channel that fills an unset seed
_SECTIONS = {
    "dataset": (DatasetSpec, None),
    "safe": (SafeConfig, _SEED_ENGINE),
    "retrain": (RetrainConfig, _SEED_TRAIN),
    "stream": (StreamSpec, _SEED_STREAM),
}
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               type(None): "null"}


def _check_fields(cls, values: dict, where: str) -> None:
    """Every key of ``values`` must be a field of dataclass ``cls`` and every
    value of the JSON type the field's annotation names: an integer passes
    as a number, null only where None is allowed, JSON true never as a
    number, and NaN or Infinity never at all."""
    hints = typing.get_type_hints(cls)
    unknown = set(values) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for name, value in values.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if isinstance(value, bool):
            ok = bool in kinds
        else:
            ok = isinstance(value, kinds) or (float in kinds and isinstance(value, int))
        if not ok:
            want = " or ".join(_JSON_NAMES[k] for k in kinds)
            raise ConfigError(f"{where} {name} must be a JSON {want}, got {value!r}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{where} {name} must be finite, got {value!r}")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a validated RunConfig from parsed JSON, deriving any substream
    seeds the file left unset from the master seed."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = {k: v for k, v in raw.items() if k not in _SECTIONS}
    _check_fields(RunConfig, top, "config")
    master = top.get("seed", 0)

    def section(name, cls, seed_channel):
        d = raw.get(name, {})
        if not isinstance(d, dict):
            raise ConfigError(f"{name} section must be a JSON object, got {d!r}")
        _check_fields(cls, d, name)
        if seed_channel is not None and "seed" not in d:
            d = {**d, "seed": derive_seed(master, seed_channel)}
        return cls(**d)

    cfg = RunConfig(
        **{name: section(name, *spec) for name, spec in _SECTIONS.items()}, **top
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
            test = Dataset(test.X, test.y, test.ids + train.n)
        else:
            test = Dataset(np.empty((0, train.dim)), [], [])
        return train, test
    full = load_csv(spec.path, spec.label_column)
    rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_DATA))
    perm = rng.permutation(full.n)
    n_test = int(round(spec.test_fraction * full.n))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return full.take(train_idx), full.take(test_idx)


def build_arch(cfg: RunConfig, input_dim: int, n_classes: int) -> Architecture:
    hidden = cfg.hidden_dim if cfg.arch == "mlp" else None
    return Architecture(input_dim, n_classes, hidden)


def resolved_proj_dim(cfg: SafeConfig, input_dim: int) -> int:
    return cfg.proj_dim if cfg.proj_dim is not None else min(input_dim, 32)


@dataclass
class RunState:
    """Everything the round loop needs, built once per run."""

    train: Dataset
    test: Dataset
    params0: ModelParams
    engine: SafeUnlearner
    requests: list[np.ndarray]


def initialize(cfg: RunConfig) -> RunState:
    cfg.validate()
    train, test = build_dataset(cfg)
    arch = build_arch(cfg, train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, cfg.retrain)
    retention0 = RetentionGradState(
        grad=grad_cross_entropy(params0, train.X, train.y),
        size_dt=train.n,
    )
    proj_dim = resolved_proj_dim(cfg.safe, train.dim)
    projection = make_projection(train.dim, proj_dim, derive_seed(cfg.seed, _SEED_PROJ))
    gaussians = ClassConditionalGaussians.fit(train.X, train.y, projection)
    safe = replace(cfg.safe, proj_dim=proj_dim)
    engine = SafeUnlearner(
        params0, safe, retention0, gaussians, train.class_counts(), train.ids
    )
    requests = generate_stream(train, cfg.stream, gaussians.min_class_count)
    return RunState(train, test, params0, engine, requests)


def round_loop(state: RunState):
    """Send each request of the stream through the engine, yielding
    ``(t, request, result, wall_ms, remaining)`` per round: ``wall_ms`` times
    ``process_request`` alone, and ``remaining`` is the training set less
    every id requested so far."""
    train, engine = state.train, state.engine
    remaining = train
    for t, ids in enumerate(state.requests, start=1):
        request = train.select_ids(ids)
        t0 = time.perf_counter()
        result = engine.process_request(request.X, request.y, request.ids)
        wall_ms = (time.perf_counter() - t0) * 1e3
        remaining = remaining.without_ids(ids)
        yield t, request, result, wall_ms, remaining


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
    led = engine.ledger
    chash = config_hash(cfg)
    account = RegretAccount()
    if cfg.oracle:
        account.start(state.params0)

    records: list[dict] = []
    for t, _, result, wall_ms, remaining in round_loop(state):
        rec = {
            "type": "round",
            "t": t,
            "request_size": result.accepted,
            "wall_ms": wall_ms if cfg.measure_time else None,
            "grad_norm": result.grad_norm,
            "exhausted_classes": result.exhausted_classes,
            "ra": accuracy(result.params, remaining.X, remaining.y),
            "ta": accuracy(result.params, test.X, test.y),
            "fa": None,
            "mia": None,
            "mia_test": None,
            "config_hash": chash,
        }
        # the attack's members: the training rows not yet forgotten
        members = (remaining.X, remaining.y)
        if led.count:
            rec["fa"] = accuracy(result.params, led.X, led.y)
            if cfg.evaluate_mia:
                rec["mia"] = mia_attack(result.params, *members, led.X, led.y)
        if cfg.evaluate_mia:
            rec["mia_test"] = mia_attack(result.params, *members, test.X, test.y)

        if cfg.oracle:
            o0 = time.perf_counter()
            star = retrain(
                remaining.X, remaining.y, state.params0.arch,
                replace(cfg.retrain, seed=derive_seed(cfg.seed, _SEED_RETRAIN, t)),
            )
            retrain_ms = (time.perf_counter() - o0) * 1e3
            risk_w = true_risk(result.params, remaining.X, remaining.y, led, star)
            # true_risk of w* itself: its KL term against itself is 0
            risk_star = mean_cross_entropy(star, remaining.X, remaining.y)
            account.update(risk_w, risk_star, star)
            surrogate = surrogate_risk(result.params, train.X, train.y, led,
                                       result.targets, engine.retention.size_dt)
            oracle_ms = (time.perf_counter() - o0) * 1e3
            rec["oracle"] = {
                "risk_w": risk_w,
                "risk_star": risk_star,
                "regret": risk_w - risk_star,
                "cumulative_regret": account.cumulative,
                "v_t": account.v_t,
                "ra_star": accuracy(star, remaining.X, remaining.y),
                "fa_star": accuracy(star, led.X, led.y) if led.count else None,
                "ta_star": accuracy(star, test.X, test.y),
                "mia_star": (mia_attack(star, *members, led.X, led.y)
                             if cfg.evaluate_mia and led.count else None),
                "surrogate_risk": surrogate,
                "risk_gap": abs(surrogate - risk_w),
                "gap_bound": theorem_gap_bound(
                    train.n_classes, led.count, engine.retention.size_dt
                ),
                "retrain_ms": retrain_ms if cfg.measure_time else None,
                "oracle_ms": oracle_ms if cfg.measure_time else None,
            }

        records.append(rec)
        out.write(json.dumps(rec, sort_keys=True) + "\n")

    last = records[-1] if records else {}
    summary = {
        "type": "summary",
        "rounds": len(records),
        "config_hash": chash,
        "config": cfg.to_dict(),
        "means": {k: _mean([r[k] for r in records])
                  for k in ("ra", "fa", "ta", "mia", "mia_test", "wall_ms")},
        "final": {k: last.get(k) for k in ("ra", "fa", "ta", "mia", "mia_test")},
    }
    if cfg.oracle:
        oracles = [r["oracle"] for r in records]
        summary["oracle"] = {
            "mean_regret": account.mean_regret,
            "cumulative_regret": account.cumulative,
            "v_t": account.v_t,
            **{f"mean_{k}": _mean([o[k] for o in oracles])
               for k in ("ra_star", "fa_star", "ta_star", "mia_star", "risk_gap",
                         "retrain_ms", "oracle_ms")},
        }
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return summary


VERIFY_TOLERANCES = {
    "downdate_two_pass": 1e-8,
    "retention_recursion": 1e-10,
    "step_norm": 1e-10,
    "density_ratio": 1e-10,
    "replay_determinism": 0.0,
    "forgetting_gradient": 1e-10,
}


def _reference_standardize(gaussians: ClassConditionalGaussians, X: np.ndarray,
                           label: int) -> np.ndarray:
    """The frozen t=0 transform by a triangular solve against the base
    Cholesky factor, independent of the engine's own whitening."""
    U = X @ gaussians.projection - gaussians.base_mu[label]
    return solve_triangular(gaussians.base_chol[label], U.T, lower=True).T


def _scipy_density_ratio(Z: np.ndarray, st: ClassStats) -> np.ndarray:
    """N(mu_t, Sigma_t) over N(0, I) at the standardized rows Z, from scipy's
    densities, clipped as the engine clips its ratios."""
    k = Z.shape[1]
    logr = (multivariate_normal(st.mu, st.sigma).logpdf(Z)
            - multivariate_normal(np.zeros(k), np.eye(k)).logpdf(Z))
    with np.errstate(over="ignore"):
        return np.clip(np.exp(logr), RATIO_FLOOR, RATIO_CEIL)


def _reference_forgetting_gradient(engine: SafeUnlearner) -> np.ndarray:
    """The engine's forgetting gradient recomputed from the raw ledger rows:
    a reference standardization per class, scipy's density ratios, the label
    ratios, the renormalized targets with the w_0 fallback, one backward
    pass with its own forward pass. It reads none of the ledger's frozen
    columns (projections, their norms, w_0 probabilities and hidden
    activations), nor the engine's density ratio or target code."""
    led, gaussians, est = engine.ledger, engine.gaussians, engine.shift
    p0 = predict_proba_batch(engine.params0, led.X)
    q = np.full((led.count, max(est.counts0) + 1), RATIO_FLOOR)
    for label, st in gaussians.stats.items():
        lr = label_ratio(engine.class_counts.get(label, 0), est.counts0[label],
                         engine.retention.size_dt, est.size_d0)
        Z = _reference_standardize(gaussians, led.X, label)
        q[:, label] = lr * _scipy_density_ratio(Z, st)
    raw = p0 * q
    norm = raw.sum(axis=1)
    ok = np.isfinite(norm) & (norm > 0.0)
    targets = p0.copy()
    targets[ok] = raw[ok] / norm[ok, None]
    grad = sum_grad_kl_to_targets(engine.params0, led.X, targets)
    return (led.lam / led.count) * grad


def verify(cfg: RunConfig, out, report=print) -> bool:
    """Run the oracle-equivalence suites on the configured task, retaining the
    initial data purely for checking. Prints one PASS/FAIL line per suite and
    writes the final stats snapshot as JSON to ``out``."""
    state = initialize(cfg)
    engine = state.engine
    twin = initialize(cfg).engine  # independently initialized replay twin

    errs = {name: 0.0 for name in VERIFY_TOLERANCES}
    remaining = state.train  # the density-ratio probe needs it for zero rounds too
    for _, request, result, _, remaining in round_loop(state):
        twin_result = twin.process_request(request.X, request.y, request.ids)

        # downdate vs fresh two-pass statistics over survivors
        for label in engine.gaussians.classes:
            st = engine.gaussians.stats[label]
            if st.frozen:
                continue
            rows = remaining.X[remaining.y == label]
            Z = _reference_standardize(engine.gaussians, rows, label)
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

        if result.grad_norm >= ZERO_GRAD_TOL:
            step = result.params.theta - state.params0.theta + result.perturbation
            errs["step_norm"] = max(
                errs["step_norm"],
                abs(float(np.linalg.norm(step)) - engine.gamma),
            )

        errs["replay_determinism"] = max(
            errs["replay_determinism"],
            float(np.abs(result.params.theta - twin_result.params.theta).max()),
        )

        # the gradient from the ledger's frozen columns vs a recompute from
        # the raw rows
        if engine.ledger.count:
            got, _ = forgetting_gradient(engine.params0, engine.ledger, engine.shift,
                                         engine.class_counts, engine.retention.size_dt)
            want = _reference_forgetting_gradient(engine)
            errs["forgetting_gradient"] = max(
                errs["forgetting_gradient"],
                float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max())),
            )

    # density ratio vs scipy's two Gaussian densities on surviving points
    rng = np.random.default_rng(derive_seed(cfg.seed, 99))
    probe = remaining.take(rng.choice(remaining.n, min(50, remaining.n), replace=False))
    for label, st in engine.gaussians.stats.items():
        Z = engine.gaussians.standardize_batch(probe.X, label)
        want = _scipy_density_ratio(Z, st)
        got = density_ratio(Z, sq_norms(Z), engine.gaussians, label)
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
