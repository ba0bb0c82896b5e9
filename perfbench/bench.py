"""Measurement: closed-loop replays of a workload's deletion stream, set-ups,
full ``runner.run`` passes, the correctness gate, and metric aggregation.

The package is driven only through ``runner.initialize``,
``SafeUnlearner.process_request`` and ``runner.run``. One client sends each
deletion request after the previous one returned: the engine is a
single-writer state machine, so this closed loop is how it is used.

Every timed region is measured next to host-speed probes (``speed.py``) and
reported at the probes' reference speed. Other tenants of a shared host slow
it by up to about 1.8x for seconds to minutes at a time; the probes see the
same slowdown and take it out (see README.md for the measurements).
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import math
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import gate
import speed
import tracing
import workloads
from safestream import runner
from safestream.engine import learning_rate

MIN_SETUPS = 3     # setup_s is a median of at least this many set-ups
MIN_REPLAYS = 5    # each round's time is the median of at least this many
WINDOW = 10        # rounds per point of the ledger-growth curve
PROBE_EVERY = 10   # rounds between host-speed probes in a replay
# calls in front of which set-ups and full runs may probe the host's speed:
# each deletion round, booked as engine work, and each full-batch training
# epoch; everything else is booked as batch work (see speed.SegmentClock)
ENGINE_CALL = ("safestream.engine", "SafeUnlearner.process_request")
EPOCH_CALL = ("safestream.oracle", "grad_cross_entropy")
# per cycle: set-ups, replayed deletion rounds and full runs; cycles repeat
# until the window is used up
CYCLE = {"setup": 2, "replay": 500, "run": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "deletions_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.process_request_ms": "ms",
    "engine.forgetting_gradient_ms": "ms",
    "engine.round_ms_per_1k_ledger": "ms/1k_rows",
    "shift.class_ratio_ms": "ms",
    "shift.target_predictions_ms": "ms",
    "model.sum_grad_kl_ms": "ms",
    "gaussian.remove_ms": "ms",
    "model.grad_ce_ms": "ms",
    "engine.state_bytes": "bytes",
    "engine.ledger_rows": "count",
    "init.retrain_ms": "ms",
    "gaussian.fit_ms": "ms",
    "streams.generate_ms": "ms",
    "data.build_ms": "ms",
    "oracle.retrain_ms": "ms",
    "oracle.true_risk_ms": "ms",
    "oracle.surrogate_risk_ms": "ms",
    "evaluation.mia_ms": "ms",
    "evaluation.accuracy_ms": "ms",
    "runner.round_self_ms": "ms",
    "engine.dropped": "count",
    "engine.zero_grad_skips": "count",
    "engine.exhausted_classes": "count",
    "shift.clip_frac": "ratio",
    "shift.fallback_rows": "count",
    "trace.run_s_overhead": "s",
    "trace.round_ms_p50_overhead": "ms",
}


@dataclass
class Replay:
    """One closed-loop pass of the whole stream over a fresh engine."""

    lat_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    ledger_rows: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    dropped: int = 0
    zero_grad_skips: int = 0
    exhausted: set[int] = field(default_factory=set)
    state_bytes: int = 0
    checks: dict[str, float] = field(default_factory=dict)


@dataclass
class FullRun:
    run_s: float | None
    ref_s: float | None
    attempted: int
    failed: int


@dataclass
class Sample:
    """Everything one measurement window produced."""

    setups_s: list[float] = field(default_factory=list)
    setups_ref_s: list[float] = field(default_factory=list)
    reps: list[Replay] = field(default_factory=list)
    runs: list[FullRun] = field(default_factory=list)
    replay_counts: Counter = field(default_factory=Counter)

    def tally(self) -> tuple[int, int]:
        passes = [*self.reps, *self.runs]
        return sum(p.attempted for p in passes), sum(p.failed for p in passes)


def state_bytes(root) -> int:
    """Bytes held by the engine: array buffers plus the Python containers and
    numbers reachable from it through the package's own objects."""
    seen: set[int] = set()
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
            continue
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("safestream") and hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total


def replay(state, expect_freeze: bool) -> Replay:
    """Send the stream through a copy of the freshly initialized engine in
    ``state``; only ``process_request`` is timed, the gate runs after it.
    A speed probe runs before every PROBE_EVERY rounds and after the last;
    each block of rounds is rescaled by the mean of the probes around it."""
    engine, train = copy.deepcopy(state.engine), state.train
    requests = [train.select_ids(ids) for ids in state.requests]
    theta0 = state.params0.theta
    gamma = learning_rate(engine.config)
    rep = Replay()
    rows = 0
    rep.probes_ms.append(speed.probe("engine"))
    for i, req in enumerate(requests):
        if i and i % PROBE_EVERY == 0:
            rep.probes_ms.append(speed.probe("engine"))
        rep.attempted += 1
        t0 = time.perf_counter()
        try:
            result = engine.process_request(req.X, req.y, req.ids)
        except Exception:  # noqa: BLE001 - counted as failed, run continues
            traceback.print_exc(file=sys.stderr)
            rep.attempted += len(requests) - i - 1
            rep.failed += len(requests) - i
            return rep
        rep.lat_ms.append((time.perf_counter() - t0) * 1e3)
        rows += result.accepted
        rep.ledger_rows.append(rows)
        rep.dropped += result.dropped
        rep.zero_grad_skips += result.grad_norm < gate.ZERO_GRAD_TOL
        rep.exhausted.update(result.exhausted_classes)
        err = gate.step_norm_error(result, theta0, gamma)
        rep.checks["step_norm"] = max(rep.checks.get("step_norm", 0.0), err)
        rep.failed += err > gate.STEP_NORM_TOL
    rep.probes_ms.append(speed.probe("engine"))
    p = rep.probes_ms
    rep.ref_ms = [speed.to_ref(t, (p[i // PROBE_EVERY] + p[i // PROBE_EVERY + 1]) / 2,
                               "engine")
                  for i, t in enumerate(rep.lat_ms)]

    deleted = np.concatenate(state.requests) if state.requests else np.empty(0, np.int64)
    remaining = train.without_ids(deleted)
    rep.checks["retention"] = gate.retention_error(engine, state.params0, remaining)
    rep.checks["downdate"] = gate.downdate_error(engine, remaining)
    rep.failed += rep.checks["retention"] > gate.RETENTION_TOL
    rep.failed += rep.checks["downdate"] > gate.DOWNDATE_TOL
    if expect_freeze and not rep.exhausted:
        print("gate: the stream never froze a class", file=sys.stderr)
        rep.failed += 1
    rep.failed = min(rep.failed, rep.attempted)
    rep.state_bytes = state_bytes(engine)
    return rep


@contextlib.contextmanager
def probed_region(probe_fn):
    """Times the ``with`` body on a ``speed.SegmentClock`` that may probe in
    front of every ENGINE_CALL and EPOCH_CALL. A call that no longer exists is
    skipped; the clock then probes less often and books that work as batch."""
    clock = speed.SegmentClock(probe_fn)

    def engine_call(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock.split()
            clock.switch("engine")
            try:
                return fn(*args, **kwargs)
            finally:
                clock.switch("batch")

        return wrapper

    def epoch_call(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock.split()
            return fn(*args, **kwargs)

        return wrapper

    hooks = tracing.Patcher()
    hooks.patch(*ENGINE_CALL, engine_call)
    hooks.patch(*EPOCH_CALL, epoch_call)
    try:
        yield clock
        clock.split(force=True)
    finally:
        hooks.uninstall()


def full_run(cfg, probe_fn=speed.probe_all) -> FullRun:
    rounds = cfg.stream.rounds
    try:
        with probed_region(probe_fn) as clock:
            summary = runner.run(cfg, io.StringIO())
    except Exception:  # noqa: BLE001 - counted as failed, run continues
        traceback.print_exc(file=sys.stderr)
        return FullRun(None, None, rounds, rounds)
    ok = gate.summary_ok(summary, require_all=cfg.oracle)
    if not ok:
        print("gate: summary has missing or non-finite fields", file=sys.stderr)
    return FullRun(clock.wall_s, clock.ref_s, rounds, 0 if ok else 1)


def measure_loop(cfg, expect_freeze: bool, seconds: float, tracer=None) -> Sample:
    """Set-ups, replays and full runs, interleaved in the counts of CYCLE so
    that all of them sample the whole window of ``seconds``.

    Each replay runs over a copy of the engine from the latest set-up, so set-up
    cost does not limit how many replays a window holds. Stops before a pass
    that would overrun the window, once every minimum count is met. With a
    tracer, also keeps the counts recorded during replays alone.
    """
    out = Sample()
    # probes inside set-ups and full runs get a span of their own, which the
    # tracer takes out of every span around it
    probe_fn = (tracer.spanned(speed.probe_all, tracing.PROBE_SPAN) if tracer
                else speed.probe_all)
    spent = dict.fromkeys(CYCLE, 0.0)
    done = dict.fromkeys(CYCLE, 0)
    per_pass = {"setup": 1, "replay": cfg.stream.rounds, "run": 1}  # in CYCLE units
    state = None
    start = time.perf_counter()
    while True:
        kind = "setup" if state is None else min(
            CYCLE, key=lambda k: done[k] * per_pass[k] / CYCLE[k])
        enough = (len(out.setups_s) >= MIN_SETUPS and len(out.reps) >= MIN_REPLAYS
                  and out.runs)
        left = seconds - (time.perf_counter() - start)
        if enough and left <= spent[kind] / max(done[kind], 1):
            break
        t0 = time.perf_counter()
        if kind == "setup":
            with probed_region(probe_fn) as clock:
                state = runner.initialize(cfg)
            out.setups_s.append(clock.wall_s)
            out.setups_ref_s.append(clock.ref_s)
        elif kind == "replay":
            before = Counter(tracer.counts) if tracer else None
            out.reps.append(replay(state, expect_freeze))
            if tracer:
                out.replay_counts += tracer.counts - before
        else:
            out.runs.append(full_run(cfg, probe_fn))
        spent[kind] += time.perf_counter() - t0
        done[kind] += 1
    return out


def round_times(reps: list[Replay]) -> tuple[np.ndarray, list[int]]:
    """Each round's median time at the reference speed over the complete
    replays, with the ledger rows after each round."""
    full = [r for r in reps if r.failed == 0 and r.ref_ms]
    if not full:
        return np.empty(0), []
    return np.median([r.ref_ms for r in full], axis=0), full[0].ledger_rows


def ledger_curve(per_round: np.ndarray, rows: list[int]) -> list[dict]:
    """Median round time per window of WINDOW rounds, against the ledger rows
    at the end of the window."""
    return [
        {
            "rounds": [start + 1, min(start + WINDOW, len(per_round))],
            "ledger_rows": int(rows[min(start + WINDOW, len(rows)) - 1]),
            "median_ms": float(np.median(per_round[start : start + WINDOW])),
        }
        for start in range(0, len(per_round), WINDOW)
    ]


def curve_slope(curve: list[dict]) -> float:
    """Least-squares ms per 1000 ledger rows across the curve's windows."""
    if len(curve) < 2:
        return 0.0
    x = [w["ledger_rows"] for w in curve]
    y = [w["median_ms"] for w in curve]
    return float(np.polyfit(x, y, 1)[0] * 1e3)


def end_to_end(sample: Sample) -> dict:
    per_round, rows = round_times(sample.reps)
    run_s = [r.ref_s for r in sample.runs if r.ref_s is not None]
    measured = len(per_round) > 0 and per_round.sum() > 0
    return {
        "setup_s": float(np.median(sample.setups_ref_s)),
        "round_ms_p50": float(np.median(per_round)) if measured else math.nan,
        "round_ms_p90": float(np.percentile(per_round, 90)) if measured else math.nan,
        "deletions_per_s": rows[-1] / (per_round.sum() / 1e3) if measured else math.nan,
        "run_s": float(np.median(run_s)) if run_s else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_clock(sample: Sample) -> dict:
    """The same times as measured, before rescaling, and the probe's range."""
    full = [r for r in sample.reps if r.failed == 0 and r.lat_ms]
    per_round = np.median([r.lat_ms for r in full], axis=0) if full else np.empty(0)
    run_s = [r.run_s for r in sample.runs if r.run_s is not None]
    probes = [p for r in sample.reps for p in r.probes_ms]
    return {
        "setup_s": float(np.median(sample.setups_s)),
        "round_ms_p50": float(np.median(per_round)) if len(per_round) else None,
        "run_s": float(np.median(run_s)) if run_s else None,
        "setups_s": sample.setups_s,
        "setups_ref_s": sample.setups_ref_s,
        "runs_s": run_s,
        "runs_ref_s": [r.ref_s for r in sample.runs if r.ref_s is not None],
        "engine_probe_ms": {"ref": speed.REF_MS["engine"], "min": min(probes), "median":
                     float(np.median(probes)), "max": max(probes)} if probes else None,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result record and a report with the
    config, sample counts, ledger curve and, when traced, the layer table.
    A traced run splits ``seconds`` evenly between an untraced and a traced
    measurement, so that it takes no longer than an untraced one."""
    cfg = runner.config_from_dict(workloads.config(name, seed, toy))
    expect_freeze = name in workloads.EXPECT_FREEZE
    window = seconds / 2 if trace else seconds
    sample = measure_loop(cfg, expect_freeze, window)
    e2e = end_to_end(sample)
    attempted, failed = sample.tally()
    curve = ledger_curve(*round_times(sample.reps))
    report = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "config": cfg.to_dict(),
        "samples": {"setups": len(sample.setups_s), "replays": len(sample.reps),
                    "rounds": sum(len(r.lat_ms) for r in sample.reps),
                    "runs": len(sample.runs)},
        "end_to_end": {**e2e, "failed_frac": failed / attempted},
        "wall_clock": wall_clock(sample),
        "ledger_curve": curve,
        "checks_max_err": {k: max(r.checks.get(k, 0.0) for r in sample.reps)
                           for k in ("step_norm", "retention", "downdate")},
    }
    if not trace:
        return {"attempted": attempted, "failed": failed, "metrics": e2e}, report

    tracer = tracing.install(tracing.Tracer())
    try:
        traced = measure_loop(cfg, expect_freeze, window, tracer)
    finally:
        tracer.uninstall()
    t_e2e = end_to_end(traced)
    t_attempted, t_failed = traced.tally()
    layers = tracer.layers()
    metrics = per_layer(layers, traced.replay_counts, sample.reps[0], len(traced.reps),
                        curve, e2e, t_e2e, cfg.stream.rounds)
    report["trace"] = trace_report(tracer, layers, len(traced.reps), cfg.stream.rounds)
    report["trace"]["end_to_end_traced"] = t_e2e
    return {"attempted": attempted + t_attempted, "failed": failed + t_failed,
            "metrics": metrics}, report


def per_layer(layers, counts, first: Replay, n_traced_replays: int, curve,
              e2e, t_e2e, rounds: int) -> dict:
    """Per-layer metrics: traced medians per call, the untraced replay's state
    and guard counts, and the tracing overhead."""

    def median_ms(span: str) -> float:
        return layers[span]["median_ms"] if span in layers else 0.0

    run = layers.get("runner.run")
    round_self = run["self_total_ms"] / (run["calls"] * rounds) if run else 0.0
    return {
        "engine.process_request_ms": median_ms("engine.process_request"),
        "engine.forgetting_gradient_ms": median_ms("engine.forgetting_gradient"),
        "engine.round_ms_per_1k_ledger": curve_slope(curve),
        "shift.class_ratio_ms": median_ms("shift.class_ratio"),
        "shift.target_predictions_ms": median_ms("shift.target_predictions"),
        "model.sum_grad_kl_ms": median_ms("model.sum_grad_kl"),
        "gaussian.remove_ms": median_ms("gaussian.remove"),
        "model.grad_ce_ms": median_ms("model.grad_ce"),
        "engine.state_bytes": first.state_bytes,
        "engine.ledger_rows": first.ledger_rows[-1] if first.ledger_rows else 0,
        "init.retrain_ms": median_ms("init.retrain"),
        "gaussian.fit_ms": median_ms("gaussian.fit"),
        "streams.generate_ms": median_ms("streams.generate"),
        "data.build_ms": median_ms("data.build"),
        "oracle.retrain_ms": median_ms("oracle.retrain"),
        "oracle.true_risk_ms": median_ms("oracle.true_risk"),
        "oracle.surrogate_risk_ms": median_ms("oracle.surrogate_risk"),
        "evaluation.mia_ms": median_ms("evaluation.mia"),
        "evaluation.accuracy_ms": median_ms("evaluation.accuracy"),
        "runner.round_self_ms": round_self,
        "engine.dropped": first.dropped,
        "engine.zero_grad_skips": first.zero_grad_skips,
        "engine.exhausted_classes": len(first.exhausted),
        "shift.clip_frac": (counts["shift.clipped"] / counts["shift.ratios"]
                            if counts["shift.ratios"] else 0.0),
        "shift.fallback_rows": counts["shift.fallback_rows"] / n_traced_replays,
        "trace.run_s_overhead": t_e2e["run_s"] - e2e["run_s"],
        "trace.round_ms_p50_overhead": t_e2e["round_ms_p50"] - e2e["round_ms_p50"],
    }


def trace_report(tracer, layers, n_replays: int, rounds: int) -> dict:
    """Layer table plus the shares the layer map predicts."""
    spans = tracer.spans
    dur = tracer.durations()
    # top-level process_request spans come from the replays, in round order
    top = [i for i, s in enumerate(spans)
           if s.name == "engine.process_request" and s.parent is None]
    last_window = {i for k, i in enumerate(top) if k % rounds >= rounds - WINDOW}
    fg = sum(dur[i] for i, s in enumerate(spans)
             if s.name == "engine.forgetting_gradient" and s.parent in last_window)
    pr = sum(dur[i] for i in last_window)
    run_ids = {i for i, s in enumerate(spans) if s.name == "runner.run"}
    run_total = sum(dur[i] for i in run_ids)
    engine_in_run = sum(dur[i] for i, s in enumerate(spans)
                        if s.name == "engine.process_request" and s.parent in run_ids)

    def total(name: str) -> float:
        return layers[name]["total_ms"] / 1e3 if name in layers else 0.0

    return {
        "layers": layers,
        "absent": tracer.absent,
        "hook_errors": {k: v for k, v in tracer.counts.items()
                        if k.startswith("hook_errors.")},
        "traced_replays": n_replays,
        "shares": {
            "forgetting_gradient_of_process_request_last_window":
                fg / pr if pr else None,
            "oracle_retrain_plus_mia_of_run":
                (total("oracle.retrain") + total("evaluation.mia")) / run_total
                if run_total else None,
            "engine_of_run": engine_in_run / run_total if run_total else None,
        },
    }
