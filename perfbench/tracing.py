"""Span tracing from outside the package.

The tracer replaces public functions and methods at the attribute where their
caller looks them up (``safestream.engine.forgetting_gradient``, not
``safestream.forgetting_gradient``), so each call records a span: name, start,
end and parent. Spans are kept in memory and summarised when the run ends. A
wrap target that no longer exists is listed as absent instead of failing the
run, so the benchmark survives refactors of the layers it observes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Patcher:
    """Replaces functions at the attribute where callers look them up and puts
    them back on ``uninstall``; a target that no longer exists is listed in
    ``absent``."""

    def __init__(self):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) with
        ``make(original_function)``, keeping classmethods classmethods."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            static = inspect.getattr_static(owner, leaf)
        except AttributeError:
            self.absent.append(f"{module}.{attr}")
            return
        if isinstance(static, (classmethod, staticmethod)):
            new = type(static)(make(static.__func__))
        else:
            new = make(static)
        self._patched.append((owner, leaf, static))
        setattr(owner, leaf, new)

    def uninstall(self) -> None:
        for owner, leaf, static in reversed(self._patched):
            setattr(owner, leaf, static)
        self._patched.clear()


# spans of the benchmark's own host-speed probes; their time is taken out of
# every span that encloses them
PROBE_SPAN = "bench.probe"


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.last: dict[str, object] = {}

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, fn, name, post=None):
        """``name`` is a span name or a callable choosing one at call time.
        ``post(arguments, result)`` runs after the span is closed, with the
        call's arguments bound to parameter names; if the signature changed
        so that it cannot read them, the hook is counted as failed."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(Span(span_name, time.perf_counter(), 0.0, parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if post is not None:
                try:
                    post(sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    self.counts[f"hook_errors.{fn.__qualname__}"] += 1
            return result

        return wrapper

    def spanned(self, fn, name: str):
        """``fn`` wrapped so that each call records a span named ``name``."""
        return self._wrap(fn, name)

    def _capture(self, fn, key):
        """Keeps the latest result of ``fn`` in ``self.last[key]``; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.last[key] = result
            return result

        return wrapper

    def wrap(self, module: str, attr: str, name, post=None) -> None:
        self.patch(module, attr, lambda fn: self._wrap(fn, name, post))

    def capture(self, module: str, attr: str, key: str) -> None:
        self.patch(module, attr, lambda fn: self._capture(fn, key))

    def durations(self) -> list[float]:
        """Seconds per span, less the time of the probe spans inside it."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.name != PROBE_SPAN:
                continue
            parent = s.parent
            while parent is not None:
                out[parent] -= s.end - s.start
                parent = self.spans[parent].parent
        return out

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self totals, per-call medians.

        Spans nest strictly (one thread, stack discipline), so a span's self
        time is its duration minus the durations of its direct children.
        Probe time is left out of every span around a probe.
        """
        dur_s = self.durations()
        child_ms = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur_s):
            if s.parent is not None and s.name != PROBE_SPAN:
                child_ms[s.parent] += d * 1e3
        by_name: dict[str, tuple[list[float], list[float]]] = {}
        for s, d, covered in zip(self.spans, dur_s, child_ms):
            dur = d * 1e3
            incl, own = by_name.setdefault(s.name, ([], []))
            incl.append(dur)
            own.append(dur - covered)
        return {
            name: {
                "calls": len(incl),
                "total_ms": float(np.sum(incl)),
                "self_total_ms": float(np.sum(own)),
                "median_ms": float(np.median(incl)),
                "median_self_ms": float(np.median(own)),
            }
            for name, (incl, own) in sorted(by_name.items())
        }


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from safestream.shift import RATIO_CEIL, RATIO_FLOOR, label_ratio

    def in_engine() -> bool:
        return tracer.inside("engine.process_request")

    def count_clips(a, q):
        # class_ratio_matrix returns label_ratio * clipped density ratio per
        # column; dividing the label ratio back out shows which ratios clipped
        if not in_engine():
            return
        est, counts_t, size_dt = a["self"], a["counts_t"], a["size_dt"]
        tracer.last["q"] = q
        for label in est.gaussians.classes:
            lr = label_ratio(counts_t.get(label, 0), est.counts0[label],
                             size_dt, est.size_d0)
            dr = q[:, label] / lr
            tracer.counts["shift.clipped"] += int(
                np.sum((dr <= RATIO_FLOOR * (1 + 1e-9))
                       | (dr >= RATIO_CEIL * (1 - 1e-9)))
            )
            tracer.counts["shift.ratios"] += len(dr)

    def count_fallbacks(a, targets):
        # target_predictions falls back to the w_0 prediction on rows whose
        # reweighted mass is zero or non-finite
        p0, q = tracer.last.get("probs0"), tracer.last.get("q")
        if not in_engine() or p0 is None or q is None:
            return
        norm = (p0 * q).sum(axis=1)
        tracer.counts["shift.fallback_rows"] += int(
            np.sum(~(np.isfinite(norm) & (norm > 0.0)))
        )

    def retrain_name() -> str:
        return "init.retrain" if tracer.inside("runner.initialize") else "oracle.retrain"

    tracer.wrap("safestream.runner", "run", "runner.run")
    tracer.wrap("safestream.runner", "initialize", "runner.initialize")
    tracer.wrap("safestream.runner", "build_dataset", "data.build")
    tracer.wrap("safestream.runner", "retrain", retrain_name)
    tracer.wrap("safestream.runner", "generate_stream", "streams.generate")
    tracer.wrap("safestream.runner", "true_risk", "oracle.true_risk")
    tracer.wrap("safestream.runner", "surrogate_risk", "oracle.surrogate_risk")
    tracer.wrap("safestream.runner", "mia_attack", "evaluation.mia")
    tracer.wrap("safestream.runner", "accuracy", "evaluation.accuracy")
    tracer.wrap("safestream.evaluation", "retrain", "evaluation.mia_retrain")
    tracer.wrap("safestream.gaussian", "ClassConditionalGaussians.fit", "gaussian.fit")
    tracer.wrap("safestream.gaussian", "ClassConditionalGaussians.remove",
                "gaussian.remove")
    tracer.wrap("safestream.engine", "SafeUnlearner.process_request",
                "engine.process_request")
    tracer.wrap("safestream.engine", "forgetting_gradient",
                "engine.forgetting_gradient")
    tracer.wrap("safestream.engine", "grad_cross_entropy", "model.grad_ce")
    tracer.wrap("safestream.engine", "sum_grad_kl_to_targets", "model.sum_grad_kl")
    tracer.wrap("safestream.shift", "ShiftEstimator.target_predictions",
                "shift.target_predictions", post=count_fallbacks)
    tracer.wrap("safestream.shift", "ShiftEstimator.class_ratio_matrix",
                "shift.class_ratio", post=count_clips)
    tracer.capture("safestream.shift", "predict_proba_batch", "probs0")
    return tracer
