"""End-to-end experiment runner: configuration, the one round loop that
sends the stream through the engine, and its two consumers, ``run`` and
``verify``.

Output format of ``run``: one JSON object per round (the engine's result,
accuracies, MIA rates and config hash, with an ``oracle`` sub-object when the
oracle is on), then a final summary record carrying means over rounds,
final-round values, and the full config echo. Identical configs (with timing
capture disabled) produce byte-identical files. ``grad_path`` names the
path of the round's forgetting gradient (``engine.forgetting_gradient``):
``"sums"``, ``"rows"``, or null while the ledger is empty. ``wall_ms`` times
the engine round alone, which builds no shift targets on either path.

Where each round's metrics read their rows: the engine, not the round loop,
keeps the mask of the training rows no request has taken yet
(``engine.alive``, the remaining rows D_t) and, in its ledger, the rows
requests took out of it, in ledger order (``engine.ledger.rows``, the
forgotten rows). Each model, w_t and, with the oracle on, w*, is scored in
one forward pass over all training rows and one over the test rows
(``evaluation.score_rows``); every metric is a reduction of those passes
over a subset of their rows:

- ``ra`` / ``ra_star``: the remaining rows; ``fa`` / ``fa_star``: the
  forgotten rows, null while there are none; ``ta`` / ``ta_star``: the test
  rows;
- the MIA rates, below, with the remaining rows' losses as the members;
- ``risk_w``: the mean loss of w_t on the remaining rows plus the weighted
  mean KL from w_t's to w*'s predictions on the forgotten rows;
  ``risk_star``: the mean loss of w* on the remaining rows;
- ``surrogate_risk``: R_0, the mean loss of w_t over all training rows,
  rescaled, less w_t's losses on the forgotten rows, plus the KL term
  toward the shift targets of the forgotten rows, which only this oracle
  metric builds (``ShiftEstimator.target_predictions``).

Only the oracle's retrain and ``verify``, which checks the engine against
fresh statistics of the remaining rows, copy them.

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

import ctypes
import functools
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
    SafeConfig,
    SafeUnlearner,
    forgetting_gradient,
)
from .errors import ConfigError, DataError
from .evaluation import accuracy, mia_attack, score_rows
from .gaussian import (
    ClassConditionalGaussians,
    ClassStats,
    batch_mean_cov,
    cholesky_with_jitter,
    make_projection,
)
from .model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    prepare_rows,
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
# attacker, which no longer draws random numbers, and channel 6 each round's
# oracle retrain, which now reuses the seed w_0 was trained from; both stay
# unused so the later channels, and with them every engine perturbation,
# keep their numbers.
_SEED_DATA, _SEED_TRAIN, _SEED_PROJ, _SEED_STREAM = 1, 2, 3, 4
_SEED_ENGINE = 7


def derive_seed(master: int, *channel: int) -> int:
    # RunConfig.seed is read only here; SeedSequence takes no negative entropy
    if not master >= 0:
        raise ConfigError(f"config seed must be a non-negative integer, got {master}")
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

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "idx", "csv"):
            raise ConfigError(f"kind {self.kind!r} is unknown")
        if self.kind == "idx" and not (self.images and self.labels):
            raise ConfigError("kind 'idx' needs 'images' and 'labels' paths")
        if self.kind == "idx" and bool(self.test_images) != bool(self.test_labels):
            raise ConfigError("kind 'idx' needs both 'test_images' and "
                              "'test_labels' paths, or neither")
        if self.kind == "csv" and not (self.path and self.label_column):
            raise ConfigError("kind 'csv' needs 'path' and 'label_column'")
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

    def __post_init__(self) -> None:
        if self.arch not in ("softmax", "mlp"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.arch == "mlp" and not self.hidden_dim >= 1:
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
    """Build a RunConfig from parsed JSON, deriving any substream seeds the
    file left unset from the master seed; a section's errors carry its name."""
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
        try:
            return cls(**d)
        except ConfigError as e:
            raise ConfigError(f"{name} {e}") from None

    return RunConfig(
        **{name: section(name, *spec) for name, spec in _SECTIONS.items()}, **top
    )


def read_config(path: str) -> dict:
    """A config file's parsed JSON; an unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: config is not UTF-8 ({e.reason} at byte "
                          f"{e.start})") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return raw


def load_config(path: str) -> RunConfig:
    return config_from_dict(read_config(path))


def open_output(path: str):
    """``path`` opened for writing; a path that cannot be is a config error."""
    try:
        return open(path, "w")
    except OSError as e:
        raise ConfigError(f"{path}: cannot open output ({e.strerror})") from None


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def build_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """The training and test splits; a DataError if a test row carries a
    class the training split lacks, which no model fitted to it can score."""
    spec = cfg.dataset
    if spec.kind == "synthetic":
        train, test = make_synthetic(
            spec.n, spec.dim, spec.classes, spec.separation,
            derive_seed(cfg.seed, _SEED_DATA), spec.test_fraction,
        )
    elif spec.kind == "idx":
        train = load_idx(spec.images, spec.labels)
        if spec.test_images:
            test = load_idx(spec.test_images, spec.test_labels)
            test = Dataset(test.X, test.y, test.ids + train.n)
        else:
            test = Dataset(np.empty((0, train.dim)), [], [])
    else:
        full = load_csv(spec.path, spec.label_column)
        rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_DATA))
        perm = rng.permutation(full.n)
        n_test = int(round(spec.test_fraction * full.n))
        train, test = full.take(perm[n_test:]), full.take(perm[:n_test])
    missing = np.setdiff1d(test.y, train.y)
    if len(missing):
        raise DataError(f"the test split has rows of class {int(missing[0])}, "
                        f"which the training split lacks")
    return train, test


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


@functools.cache
def pin_heap_thresholds() -> bool:
    """Pin glibc's malloc thresholds for the process, once; False where the C
    library has no ``mallopt``. Unpinned, glibc raises both as mapped blocks
    are freed, so whether a multi-megabyte array reuses resident heap or
    faults in fresh pages depends on what the process freed before. Pinned,
    a block of 1 MiB or more that the heap cannot hold is mapped fresh and
    unmapped when freed, and the heap is not trimmed."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # malloc.h's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD; 64 MiB is as high as
    # glibc's own rule takes the trim threshold
    return bool(mallopt(-3, 1 << 20) and mallopt(-1, 64 << 20))


def initialize(cfg: RunConfig) -> RunState:
    pin_heap_thresholds()
    train, test = build_dataset(cfg)
    arch = build_arch(cfg, train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, cfg.retrain)
    proj_dim = resolved_proj_dim(cfg.safe, train.dim)
    projection = make_projection(train.dim, proj_dim, derive_seed(cfg.seed, _SEED_PROJ))
    # the engine prepares its own rows once w_0's fit has freed its copy, so
    # no 2.8 MB block outlives the fit into the run state (see CHANGES.md)
    engine = SafeUnlearner(params0, cfg.safe, projection,
                           prepare_rows(arch, train.X, train.y), train.ids)
    requests = generate_stream(train, cfg.stream, engine.gaussians.min_class_count)
    return RunState(train, test, params0, engine, requests)


def round_loop(state: RunState):
    """Send each request of the stream through the engine, yielding
    ``(t, request, result, wall_ms)`` per round: ``request`` is
    ``train.take(engine.rows_of(ids))`` for the round's ids, and ``wall_ms``
    times ``process_request`` alone."""
    train, engine = state.train, state.engine
    for t, ids in enumerate(state.requests, start=1):
        request = train.take(engine.rows_of(ids))
        t0 = time.perf_counter()
        result = engine.process_request(request.X, request.y, request.ids)
        wall_ms = (time.perf_counter() - t0) * 1e3
        yield t, request, result, wall_ms


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
    led, lam = engine.ledger, engine.config.lam
    chash = config_hash(cfg)
    account = RegretAccount()
    if cfg.oracle:
        account.start(state.params0)

    records: list[dict] = []
    for t, _, result, wall_ms in round_loop(state):
        alive, forgotten = engine.alive, led.rows
        w, w_test = (score_rows(result.params, split.X, split.y)
                     for split in (train, test))
        rec = {
            "type": "round",
            "t": t,
            "request_size": result.accepted,
            "wall_ms": wall_ms if cfg.measure_time else None,
            "grad_norm": result.grad_norm,
            "grad_path": result.grad_path,
            "exhausted_classes": result.exhausted_classes,
            "ra": accuracy(w.correct[alive]),
            "ta": accuracy(w_test.correct),
            "fa": accuracy(w.correct[forgotten]),
            "mia": None,
            "mia_test": None,
            "config_hash": chash,
        }
        if cfg.evaluate_mia:
            # the attack's members: the training rows not yet forgotten
            members = w.loss[alive]
            rec["mia"] = mia_attack(members, w.loss[forgotten])
            rec["mia_test"] = mia_attack(members, w_test.loss)

        if cfg.oracle:
            o0 = time.perf_counter()
            remaining = train.subset(alive)
            # every round's w* starts from w_0's seed, so on the MLP the path
            # length v_t tracks the optimum, not a new random initialization
            star = retrain(remaining.X, remaining.y, state.params0.arch, cfg.retrain)
            retrain_ms = (time.perf_counter() - o0) * 1e3
            ws, ws_test = (score_rows(star, split.X, split.y)
                           for split in (train, test))
            # both models' predictions on the forgotten rows, in ledger order
            p_led, q_led = w.proba[:, forgotten].T, ws.proba[:, forgotten].T
            risk_w = true_risk(w.loss[alive], p_led, q_led, lam)
            # true_risk of w* itself: its KL term against itself is 0
            risk_star = float(ws.loss[alive].mean())
            account.update(risk_w, risk_star, star)
            # the round's shift targets, which only this estimate reads
            targets = (engine.shift.target_predictions(
                led, engine.class_counts, engine.retention.size_dt)
                if led.count else None)
            surrogate = surrogate_risk(w.loss, w.loss[forgotten], p_led,
                                       targets, engine.retention.size_dt, lam)
            oracle_ms = (time.perf_counter() - o0) * 1e3
            rec["oracle"] = {
                "risk_w": risk_w,
                "risk_star": risk_star,
                "regret": risk_w - risk_star,
                "cumulative_regret": account.cumulative,
                "v_t": account.v_t,
                "ra_star": accuracy(ws.correct[alive]),
                "fa_star": accuracy(ws.correct[forgotten]),
                "ta_star": accuracy(ws_test.correct),
                "mia_star": (mia_attack(ws.loss[alive], ws.loss[forgotten])
                             if cfg.evaluate_mia else None),
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


def _reference_standardizer(gaussians: ClassConditionalGaussians, train: Dataset):
    """The frozen t=0 transform, ``standardize(X, label)``, rebuilt without
    reading the engine's fit: each class's mean and lower Cholesky factor are
    recomputed from the projected training rows, and rows are standardized
    by a triangular solve, not by the engine's whitening."""
    projection = gaussians.projection
    U = train.X @ projection
    base = {}
    for label in gaussians.classes:
        mu, sigma = batch_mean_cov(U[train.y == label])
        base[label] = mu, cholesky_with_jitter(sigma)

    def standardize(X: np.ndarray, label: int) -> np.ndarray:
        mu, chol = base[label]
        return solve_triangular(chol, (X @ projection - mu).T, lower=True).T
    return standardize


def _scipy_density_ratio(Z: np.ndarray, st: ClassStats) -> np.ndarray:
    """N(mu_t, Sigma_t) over N(0, I) at the standardized rows Z, from scipy's
    densities, clipped as the engine clips its ratios."""
    k = Z.shape[1]
    logr = (multivariate_normal(st.mu, st.sigma).logpdf(Z)
            - multivariate_normal(np.zeros(k), np.eye(k)).logpdf(Z))
    with np.errstate(over="ignore"):
        return np.clip(np.exp(logr), RATIO_FLOOR, RATIO_CEIL)


def _reference_forgetting_gradient(engine: SafeUnlearner, standardize) -> np.ndarray:
    """The engine's forgetting gradient recomputed from the raw ledger rows:
    the ratios q from the reference ``standardize`` per class, scipy's
    density ratios and the label ratios, then the KL backward with its own
    forward pass. It reads none of the ledger's frozen columns (projections,
    their norms, w_0 probabilities and hidden activations), nor the engine's
    density ratio or sums code; it shares the backward pass
    (``sum_grad_kl_to_targets``) with the engine's per-row path."""
    led, gaussians, est = engine.ledger, engine.gaussians, engine.shift
    q = np.full((led.count, max(est.counts0) + 1), RATIO_FLOOR)
    for label, st in gaussians.stats.items():
        lr = label_ratio(engine.class_counts.get(label, 0), est.counts0[label],
                         engine.retention.size_dt, est.size_d0)
        Z = standardize(led.X, label)
        q[:, label] = lr * _scipy_density_ratio(Z, st)
    grad = sum_grad_kl_to_targets(engine.params0, led.X, np.log(q).T)
    return (engine.config.lam / led.count) * grad


def verify(cfg: RunConfig, out, report=print) -> bool:
    """Run the oracle-equivalence suites on the configured task, retaining the
    initial data purely for checking. The references standardize rows against
    a t=0 base recomputed from the training rows, not the engine's fit.
    Prints one PASS/FAIL line per suite, then how many rounds took each
    gradient path, and writes both, with the final per-class statistics, as
    JSON to ``out`` (the path counts under ``grad_paths``: ``sums``,
    ``rows`` and ``empty``). Errors are relative to max(1, |reference|)
    where a suite's values can be large: density ratios reach 1e6, where a
    double's ulp is 1e-10."""
    state = initialize(cfg)
    engine = state.engine
    standardize = _reference_standardizer(engine.gaussians, state.train)
    twin = initialize(cfg).engine  # independently initialized replay twin

    errs = {name: 0.0 for name in VERIFY_TOLERANCES}
    paths = dict.fromkeys(("sums", "rows", "empty"), 0)
    for _, request, result, _ in round_loop(state):
        paths[result.grad_path or "empty"] += 1
        remaining = state.train.subset(engine.alive)
        twin_result = twin.process_request(request.X, request.y, request.ids)

        # downdate vs fresh two-pass statistics over survivors
        for label, st in engine.gaussians.stats.items():
            if st.frozen:
                continue
            rows = remaining.X[remaining.y == label]
            Z = standardize(rows, label)
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
            got = forgetting_gradient(engine.params0, engine.ledger, engine.shift,
                                      engine.class_counts, engine.retention.size_dt,
                                      engine.config.lam)[0]
            want = _reference_forgetting_gradient(engine, standardize)
            errs["forgetting_gradient"] = max(
                errs["forgetting_gradient"],
                float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max())),
            )

    # density ratio vs scipy's two Gaussian densities on surviving points
    remaining = state.train.subset(engine.alive)
    rng = np.random.default_rng(derive_seed(cfg.seed, 99))
    probe = remaining.take(rng.choice(remaining.n, min(50, remaining.n), replace=False))
    for i, (label, st) in enumerate(engine.gaussians.stats.items()):
        Z = engine.gaussians.standardize_batch(probe.X, label)
        want = _scipy_density_ratio(Z, st)
        got = density_ratio(Z, engine.gaussians, i)
        errs["density_ratio"] = max(
            errs["density_ratio"],
            float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max()))

    all_ok = True
    for name, tol in VERIFY_TOLERANCES.items():
        ok = errs[name] <= tol
        all_ok &= ok
        report(f"VERIFY {name}: {'PASS' if ok else 'FAIL'} "
               f"(max err {errs[name]:.3e}, tol {tol:.1e})")
    report(f"VERIFY gradient paths: {paths['sums']} rounds sums, "
           f"{paths['rows']} rows, {paths['empty']} empty ledger")
    out.write(json.dumps(
        {"type": "verify", "passed": all_ok,
         "errors": {k: float(v) for k, v in errs.items()},
         "grad_paths": paths,
         "stats": {str(c): asdict(st) for c, st in engine.gaussians.stats.items()},
         "config": cfg.to_dict()},
        sort_keys=True, default=np.ndarray.tolist) + "\n")
    return all_ok


def sweep(cfg: RunConfig, out_path: str, report=print) -> list[dict]:
    """Run once per K of ``K_SWEEP_GRID``, writing one JSONL file per K."""
    summaries = []
    for k in K_SWEEP_GRID:
        k_cfg = replace(cfg, safe=replace(cfg.safe, K=float(k)))
        path = f"{out_path}.K{k:g}.jsonl"
        with open_output(path) as f:
            summaries.append(run(k_cfg, f))
        report(f"SWEEP K={k:g}: wrote {path}")
    return summaries
