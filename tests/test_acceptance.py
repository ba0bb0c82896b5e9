"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.special import rel_entr

from safestream.cli import main
from safestream.data import make_synthetic, load_idx
from safestream.engine import SafeConfig, SafeUnlearner, learning_rate, perturbation_scale
from safestream.errors import DataError
from safestream.gaussian import (
    ClassConditionalGaussians,
    batch_mean_cov,
    make_projection,
    mardia_test,
)
from safestream.model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    predict_proba_batch,
    prepare_rows,
    sum_grad_kl_to_targets,
)
from safestream.oracle import RetrainConfig, retrain
from safestream.runner import config_from_dict, run

from conftest import (
    build_engine,
    central_difference,
    relative_error,
    write_idx_images,
    write_idx_labels,
)


def report(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def efficacy_config(seed: int, horizon: int, with_mia: bool) -> dict:
    return {
        "dataset": {"kind": "synthetic", "n": 5000, "dim": 16, "classes": 5,
                    "separation": 4.0},
        "safe": {"K": 2.5, "T": horizon, "lam": 1000.0, "epsilon": 2000.0,
                 "delta": 1e-5},
        "stream": {"mode": "random-subset", "rounds": horizon, "per_round": 40},
        "retrain": {"epochs": 150, "lr": 1.0},
        "oracle": True,
        "evaluate_mia": with_mia,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def efficacy_runs():
    """Ten-seed runs of the efficacy task at every regret horizon.

    The 20-round cell is the efficacy protocol itself (criteria 6 and 7);
    all horizons share per-seed master seeds so the horizon comparison in
    criterion 8 uses common random numbers.
    """
    horizons = (5, 10, 20, 40)
    seeds = range(10)
    results = {h: [] for h in horizons}
    t20_wall = 0.0
    for seed in seeds:
        for h in horizons:
            cfg = config_from_dict(efficacy_config(seed, h, with_mia=(h == 20)))
            t0 = time.perf_counter()
            summary = run(cfg, io.StringIO())
            elapsed = time.perf_counter() - t0
            if h == 20:
                t20_wall += elapsed
            results[h].append(summary)
    return results, t20_wall


def test_c01_downdate_oracle_equivalence():
    rng = np.random.default_rng(101)
    X = np.vstack([rng.standard_normal((1000, 20)) + 2.0 * c for c in range(5)])
    y = np.repeat(np.arange(5), 1000)

    t0 = time.perf_counter()
    g = ClassConditionalGaussians.fit(X, y, make_projection(20, 8, seed=1))
    alive = np.ones(5000, dtype=bool)
    worst = 0.0
    for _ in range(20):
        idx = rng.choice(np.flatnonzero(alive), 40, replace=False)
        g.remove(g.standardize_all(X[idx]), y[idx])
        alive[idx] = False
        for label in range(5):
            rows = X[alive & (y == label)]
            Z = g.standardize_batch(rows, label)
            mu, sigma = batch_mean_cov(Z)
            st = g.stats[label]
            worst = max(
                worst,
                abs(st.n - len(rows)),
                float(np.abs(st.mu - mu).max()),
                float(np.abs(st.sigma - sigma).max()),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report("C01", "downdate-oracle-equivalence", ok,
           f"max err {worst:.2e} <= 1e-8, {elapsed:.2f}s < 10s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_c02_retention_recursion_equivalence(blob_task):
    train, _, params0 = blob_task
    engine = build_engine(train, params0, SafeConfig(T=20, lam=100.0, seed=2))
    rng = np.random.default_rng(102)
    alive = np.ones(train.n, dtype=bool)
    worst = 0.0
    for _ in range(20):
        idx = rng.choice(np.flatnonzero(alive), 30, replace=False)
        engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        alive[idx] = False
        direct = grad_cross_entropy(params0, train.X[alive], train.y[alive])
        worst = max(worst, float(np.abs(engine.retention.grad - direct).max()))
    ok = worst <= 1e-10
    report("C02", "retention-gradient-recursion", ok, f"max abs err {worst:.2e} <= 1e-10")
    assert ok


def test_c03_gradient_correctness():
    rng = np.random.default_rng(103)
    worst = 0.0
    for arch in (Architecture(6, 3), Architecture(5, 3, hidden_dim=4)):
        for _ in range(25):  # 25 CE + 25 KL per arch = 100 instances total
            theta = rng.standard_normal(arch.n_params)
            params = ModelParams(arch, theta)
            X = rng.standard_normal((3, arch.input_dim))
            y = rng.integers(0, arch.n_classes, 3)
            analytic = grad_cross_entropy(params, X, y)

            def ce(t, X=X, y=y, arch=arch):
                p = predict_proba_batch(ModelParams(arch, t), X)
                return -np.log(p[np.arange(len(y)), y]).mean()

            worst = max(worst, relative_error(analytic, central_difference(ce, theta.copy())))

            # KL toward the prediction at theta reweighted by random ratios
            x = rng.standard_normal((1, arch.input_dim))
            logq = 3.0 * rng.standard_normal((arch.n_classes, 1))
            analytic = sum_grad_kl_to_targets(params, x, logq)
            raw = predict_proba_batch(params, x) * np.exp(logq.T)
            target = raw / raw.sum()

            def kl(t, x=x, target=target, arch=arch):
                return rel_entr(predict_proba_batch(ModelParams(arch, t), x), target).sum()

            worst = max(worst, relative_error(analytic, central_difference(kl, theta.copy())))
    ok = worst <= 1e-6
    report("C03", "analytic-gradient-correctness", ok,
           f"100 instances, worst rel err {worst:.2e} <= 1e-6")
    assert ok


def test_c04_step_norm_contract():
    train, _ = make_synthetic(3000, 16, 5, 4.0, seed=104)
    arch = Architecture(train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=100, seed=0))
    cfg = SafeConfig(K=2.5, T=20, lam=1000.0, epsilon=2000.0, delta=1e-5, seed=7)
    engine = build_engine(train, params0, cfg)
    gamma = learning_rate(engine.config)
    assert gamma == pytest.approx(
        np.sqrt(engine.config.W) / (2.5 * np.sqrt(20)), rel=1e-12
    )
    rng = np.random.default_rng(104)
    alive = np.ones(train.n, dtype=bool)
    worst = 0.0
    for _ in range(20):
        idx = rng.choice(np.flatnonzero(alive), 40, replace=False)
        res = engine.process_request(train.X[idx], train.y[idx], train.ids[idx])
        alive[idx] = False
        assert res.grad_norm > 1e-12
        step = res.params.theta - params0.theta + res.perturbation
        worst = max(worst, abs(float(np.linalg.norm(step)) - gamma))
    ok = worst <= 1e-10
    report("C04", "step-norm-contract", ok,
           f"20 rounds, max |norm - gamma| {worst:.2e} <= 1e-10")
    assert ok


def test_c05_perturbation_calibration():
    arch = Architecture(100, 2)  # 202 coordinates per draw
    params0 = ModelParams(arch, np.ones(arch.n_params))
    cfg = SafeConfig(T=5, W=3.0, epsilon=5.0, delta=1e-5, seed=55)
    phi = perturbation_scale(cfg)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 100))
    y = rng.integers(0, 2, 40)
    engine = SafeUnlearner(params0, cfg, make_projection(100, 2, 0),
                           prepare_rows(arch, X, y), np.arange(40))
    need = 1_000_000
    rounds = need // arch.n_params + 1
    draws = np.concatenate(
        [engine.draw_perturbation(t) for t in range(1, rounds + 1)]
    )[:need]
    rel = abs(float(draws.std()) / phi - 1.0)
    ok = rel < 0.02
    report("C05", "perturbation-calibration", ok,
           f"1e6 draws, empirical std {draws.std():.4f} vs phi {phi:.4f}, "
           f"rel dev {rel:.4f} < 0.02")
    assert ok


def test_c06_unlearning_efficacy(efficacy_runs):
    results, t20_wall = efficacy_runs
    cells = results[20]
    fa_safe = np.mean([s["means"]["fa"] for s in cells])
    fa_star = np.mean([s["oracle"]["mean_fa_star"] for s in cells])
    ra_safe = np.mean([s["means"]["ra"] for s in cells])
    ra_star = np.mean([s["oracle"]["mean_ra_star"] for s in cells])
    fa_gap = abs(fa_safe - fa_star)
    ra_gap = abs(ra_safe - ra_star)
    ok = fa_gap <= 0.05 and ra_gap <= 0.05 and t20_wall < 120.0
    report("C06", "unlearning-efficacy", ok,
           f"10 seeds: |FA gap| {fa_gap * 100:.2f}pp, |RA gap| {ra_gap * 100:.2f}pp"
           f" <= 5pp, wall {t20_wall:.1f}s < 120s")
    assert fa_gap <= 0.05
    assert ra_gap <= 0.05
    assert t20_wall < 120.0


def test_c07_efficiency(efficacy_runs):
    results, _ = efficacy_runs
    cells = results[20]
    safe_ms = np.mean([s["means"]["wall_ms"] for s in cells])
    retrain_ms = np.mean([s["oracle"]["mean_retrain_ms"] for s in cells])
    ratio = safe_ms / retrain_ms
    ok = ratio <= 0.10
    report("C07", "per-round-efficiency", ok,
           f"SAFE {safe_ms:.2f} ms vs retrain {retrain_ms:.2f} ms per round, "
           f"ratio {ratio * 100:.1f}% <= 10%")
    assert ok


def test_c08_regret_non_increasing(efficacy_runs):
    results, _ = efficacy_runs
    horizons = (5, 10, 20, 40)
    means = {
        h: float(np.mean([s["oracle"]["mean_regret"] for s in results[h]]))
        for h in horizons
    }
    v_ts = {
        h: float(np.mean([s["oracle"]["v_t"] for s in results[h]]))
        for h in horizons
    }
    ok = all(
        means[a] >= means[b] for a, b in zip(horizons, horizons[1:])
    )
    detail = ", ".join(
        f"T={h}: regret {means[h]:.4f} (V_T {v_ts[h]:.3f})" for h in horizons
    )
    report("C08", "regret-sublinearity", ok, detail)
    assert ok


def test_c09_surrogate_gap_trend():
    gaps = {}
    for ratio in (2, 5, 10):
        deleted = 400
        d0 = deleted * ratio + deleted
        per_seed = []
        for seed in range(3):
            raw = efficacy_config(seed, 10, with_mia=False)
            raw["dataset"]["n"] = int(round(d0 / 0.8))
            raw["stream"] = {"mode": "random-subset", "rounds": 10, "per_round": 40}
            summary = run(config_from_dict(raw), io.StringIO())
            per_seed.append(summary["oracle"]["mean_risk_gap"])
        gaps[ratio] = float(np.mean(per_seed))
    ok = gaps[2] > gaps[5] > gaps[10]
    report("C09", "surrogate-gap-trend", ok,
           f"mean |R~ - R| at 2x/5x/10x remaining: "
           f"{gaps[2]:.3f} > {gaps[5]:.3f} > {gaps[10]:.3f}")
    assert ok


def mardia_null_calibration(p_skew, p_kurt, alpha=0.05, false_alarm=1e-3):
    """Check null-sample Mardia p-values for calibration in both directions.

    Each p-value must reject (p <= alpha) a number of times inside the
    central 1 - false_alarm region of Bin(n, alpha) and pass a KS test
    against Uniform(0,1) at level false_alarm. The two statistics are
    asymptotically independent, so the joint pass count must lie in the same
    region of Bin(n, (1 - alpha)^2). Returns (failed checks, full detail).
    """
    p_skew, p_kurt = np.asarray(p_skew), np.asarray(p_kurt)
    n = len(p_skew)
    checks = []
    lo, hi = spstats.binom.interval(1 - false_alarm, n, alpha)
    for name, pvals in (("skewness", p_skew), ("kurtosis", p_kurt)):
        rejects = int((pvals <= alpha).sum())
        checks.append((f"{name} rejections {rejects} in [{lo:.0f}, {hi:.0f}]",
                       lo <= rejects <= hi))
        ks = spstats.kstest(pvals, "uniform").pvalue
        checks.append((f"{name} KS p {ks:.3g} > {false_alarm:g}", ks > false_alarm))
    lo, hi = spstats.binom.interval(1 - false_alarm, n, (1 - alpha) ** 2)
    joint = int(((p_skew > alpha) & (p_kurt > alpha)).sum())
    checks.append((f"joint passes {joint} in [{lo:.0f}, {hi:.0f}]", lo <= joint <= hi))
    failed = [text for text, ok in checks if not ok]
    return failed, "; ".join(text for text, _ in checks)


def test_c10_mardia_controls():
    pvals = np.array([
        mardia_test(np.random.default_rng(seed).standard_normal((5000, 4)))
        for seed in range(1000)
    ])
    failed, detail = mardia_null_calibration(pvals[:, 0], pvals[:, 1])
    skew_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps, _ = mardia_test(rng.exponential(1.0, (5000, 4)))
        skew_hits += ps < 0.01
    kurt_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _, pk = mardia_test(rng.uniform(0.0, 1.0, (5000, 4)))
        kurt_hits += pk < 0.01
    negative = (f"exponential skewness rejections {skew_hits}/100 (needs >= 95), "
                f"uniform kurtosis rejections {kurt_hits}/100 (needs >= 95)")
    ok = not failed and skew_hits >= 95 and kurt_hits >= 95
    report("C10", "mardia-controls", ok,
           f"N(0, I) over 1000 seeds: {detail}; {negative}")
    assert not failed, f"null calibration broke: {'; '.join(failed)} ({detail})"
    assert skew_hits >= 95, negative
    assert kurt_hits >= 95, negative


def test_c10_calibration_rule_can_fail():
    rng = np.random.default_rng(0)
    uniform = rng.uniform(size=(2, 1000))
    failed, detail = mardia_null_calibration(*uniform)
    assert not failed, detail

    failed, _ = mardia_null_calibration(np.ones(1000), np.ones(1000))
    assert any("rejections" in f for f in failed)
    assert any("joint" in f for f in failed)

    # 10% of the mass at or below 0.05: twice the nominal rejection rate
    heavy = np.concatenate([np.linspace(0.0, 0.05, 100), np.linspace(0.0501, 1.0, 900)])
    failed, _ = mardia_null_calibration(heavy, uniform[1])
    assert any(f.startswith("skewness rejections") for f in failed)
    failed, _ = mardia_null_calibration(uniform[0], heavy)
    assert any(f.startswith("kurtosis rejections") for f in failed)


C11_CONFIG = {
    "dataset": {"kind": "synthetic", "n": 1200, "dim": 10, "classes": 3,
                "separation": 4.0},
    "safe": {"K": 2.5, "T": 5, "lam": 200.0, "epsilon": 2000.0,
             "delta": 1e-5, "proj_dim": 4},
    "stream": {"rounds": 5, "per_round": 20},
    "retrain": {"epochs": 80, "lr": 1.0},
    "oracle": True,
    "evaluate_mia": True,
    "measure_time": False,
    "seed": 42,
}


def test_c11_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(C11_CONFIG))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", "--config", str(cfg_path), "--output", str(a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--output", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report("C11", "byte-identical-replay", identical,
           f"{len(a.read_bytes())} bytes, timing capture off")
    assert identical


def test_c11_mia_beside_test_reference():
    # at epsilon = 2000 the emitted model stays close to w_0, which never
    # overfit its blobs: the attack's rate on the forgotten rows must sit
    # within 4 pooled binomial standard errors of its rate on test rows
    n_test = round(0.2 * C11_CONFIG["dataset"]["n"])  # the default split
    worst = 0.0
    for seed in range(42, 52):
        buf = io.StringIO()
        run(config_from_dict({**C11_CONFIG, "seed": seed}), buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        n_led = 0
        for r in records[:-1]:
            n_led += r["request_size"]
            mia, ref = r["mia"], r["mia_test"]
            pooled = (mia * n_led + ref * n_test) / (n_led + n_test)
            se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n_led + 1.0 / n_test))
            assert abs(mia - ref) <= 4.0 * se, (seed, r["t"], mia, ref)
            worst = max(worst, abs(mia - ref) / se)
    report("C11", "mia-beside-test-reference", True,
           f"worst |mia - mia_test| = {worst:.2f} pooled SE over 50 rounds")


def test_c12_idx_round_trip(tmp_path):
    rng = np.random.default_rng(112)
    images = rng.integers(0, 256, (30, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, 30, dtype=np.uint8)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    round_trip = np.array_equal(
        ds.X, images.reshape(30, 36).astype(np.float64) / 255.0
    ) and np.array_equal(ds.y, labels.astype(np.int64))

    bad_magic = tmp_path / "bad.idx"
    raw = bytearray(Path(ip).read_bytes())
    raw[0] = 0xFF
    bad_magic.write_bytes(bytes(raw))
    try:
        load_idx(str(bad_magic), lp)
        magic_rejected = False
    except DataError as e:
        magic_rejected = "offset 0" in str(e)

    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(Path(lp).read_bytes()[:-5])
    try:
        load_idx(ip, str(trunc))
        trunc_rejected = False
    except DataError as e:
        trunc_rejected = "offset" in str(e)

    ok = round_trip and magic_rejected and trunc_rejected
    report("C12", "idx-parser-round-trip", ok,
           f"round trip bit-identical: {round_trip}, magic rejected: "
           f"{magic_rejected}, truncation rejected: {trunc_rejected}")
    assert ok
