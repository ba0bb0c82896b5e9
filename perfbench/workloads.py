"""The benchmark's workloads: each maps a seed to a runner config dict.

The package only ever sees the generated config; the seed is the master seed
from which the runner derives data, training, projection and stream seeds.
``toy`` shrinks every workload so the smoke tests finish in seconds.
"""

from __future__ import annotations

# Frozen copy of the CLI's STANDARD_PRESET (n=5000, 20 rounds of 40), so an
# edit to the CLI default cannot silently change this workload.
_STANDARD_PRESET = {
    "dataset": {"kind": "synthetic", "n": 5000, "dim": 16, "classes": 5,
                "separation": 4.0},
    "safe": {"K": 2.5, "T": 20, "lam": 1000.0, "epsilon": 5.0, "delta": 1e-5},
    "stream": {"mode": "random-subset", "rounds": 20, "per_round": 40},
    "retrain": {"epochs": 300, "lr": 1.0},
}

# workloads whose stream must drive a class through the freeze path
EXPECT_FREEZE = {"mlp-class-stream"}

WHY = {
    "ledger-growth": (
        "engine only, ledger grows to 4000 rows: the per-round forgetting "
        "rebuild over the whole ledger, mostly the shift layer, dominates"
    ),
    "oracle-preset": (
        "CLI standard preset with oracle and MIA on: retrain and MIA dominate, "
        "so an engine-only change must leave run_s unchanged"
    ),
    "mlp-class-stream": (
        "MLP with k=32 draining one class past its minimum: backprop, "
        "one-class downdates, the freeze path and a heavy setup"
    ),
}


def _ledger_growth(toy: bool) -> dict:
    n, rounds, per_round = (2000, 10, 10) if toy else (20000, 100, 40)
    return {
        "dataset": {"kind": "synthetic", "n": n, "dim": 16, "classes": 5,
                    "separation": 4.0},
        "safe": {"K": 2.5, "T": rounds, "lam": 1000.0, "epsilon": 5.0,
                 "delta": 1e-5},
        "stream": {"mode": "random-subset", "rounds": rounds,
                   "per_round": per_round},
        "retrain": {"epochs": 300, "lr": 1.0},
        "evaluate_mia": False,
        "oracle": False,
    }


def _oracle_preset(toy: bool) -> dict:
    raw = {k: dict(v) for k, v in _STANDARD_PRESET.items()}
    if toy:
        raw["dataset"]["n"] = 1000
        raw["stream"].update(rounds=3, per_round=10)
        raw["retrain"]["epochs"] = 30
    raw["evaluate_mia"] = True
    raw["oracle"] = True
    return raw


def _mlp_class_stream(toy: bool, seed: int) -> dict:
    # Every class has exactly n/classes * 0.8 training rows, and the stream
    # deletes all of them from one class, so the class freezes near the end.
    if toy:
        n, dim, classes, hidden, rounds, per_round = 1000, 16, 4, 8, 8, 25
        retrain = {"epochs": 30, "lr": 1.0}
    else:
        n, dim, classes, hidden, rounds, per_round = 10000, 64, 10, 32, 100, 8
        retrain = {"epochs": 300, "lr": 1.0}
    return {
        "dataset": {"kind": "synthetic", "n": n, "dim": dim, "classes": classes,
                    "separation": 4.0},
        "arch": "mlp",
        "hidden_dim": hidden,
        "safe": {"K": 2.5, "T": rounds, "lam": 1000.0, "epsilon": 5.0,
                 "delta": 1e-5, "proj_dim": min(dim, 32)},
        "stream": {"mode": "class-stream", "rounds": rounds,
                   "per_round": per_round, "target_class": seed % classes},
        "retrain": retrain,
        "evaluate_mia": False,
        "oracle": False,
    }


def config(name: str, seed: int, toy: bool = False) -> dict:
    """Runner config dict for workload ``name`` under master seed ``seed``."""
    if name == "ledger-growth":
        raw = _ledger_growth(toy)
    elif name == "oracle-preset":
        raw = _oracle_preset(toy)
    elif name == "mlp-class-stream":
        raw = _mlp_class_stream(toy, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    raw["measure_time"] = True
    raw["seed"] = seed
    return raw
