"""Host-speed probes: fixed numpy kernels timed next to the program's work.

Other tenants of a shared host slow every instruction stream on it by up to
about 1.8x, in phases that last from seconds to minutes. A round timed in a
slow phase and the same round timed in a fast one differ by that factor, so
wall-clock medians of runs made minutes apart differ by it too. A probe
measures the factor: it times a kernel of the same kind of work as the
measured code, right next to it, and ``to_ref`` rescales a measured time to
the speed at which the probe takes ``REF_MS``, its time on the same host when
that is quiet.

Two kinds of work slow down differently, so there are two probes:

- ``engine``: small float64 numpy calls on a few thousand rows that stay in
  the core's cache (Gaussian log densities, a softmax, a gradient product),
  like a deletion round of the engine.
- ``batch``: a full-batch MLP forward and backward pass over 8000 x 64 rows,
  which do not fit in the core's cache, like a training epoch or an
  evaluation pass. Training time follows this probe and not the other.

The kernels' inputs are fixed, not drawn from the workload seed, so a probe
does the same work in every run and on every commit of the program.
"""

from __future__ import annotations

import time

import numpy as np

# probe times on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
REF_MS = {"engine": 0.75, "batch": 12.0}
REPS = {"engine": 9, "batch": 1}  # a probe is the median of this many runs

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((2000, 16))
_MU = _rng.standard_normal((5, 16))
_PREC = np.eye(16) + 0.1 * _rng.standard_normal((5, 16, 16))
_W = _rng.standard_normal((16, 5))
_XB = _rng.standard_normal((8000, 64))
_W1 = 0.1 * _rng.standard_normal((64, 32))
_W2 = 0.1 * _rng.standard_normal((32, 10))


def _engine_kernel() -> np.ndarray:
    dens = np.empty((len(_X), len(_MU)))
    for c in range(len(_MU)):
        D = _X - _MU[c]
        quad = np.einsum("ij,ij->i", D @ _PREC[c], D)
        dens[:, c] = np.exp(np.clip(-0.5 * quad, -50.0, 50.0))
    Z = _X @ _W
    P = np.exp(Z - Z.max(axis=1, keepdims=True)) * dens
    P /= P.sum(axis=1, keepdims=True)
    return _X.T @ P


def _batch_kernel() -> np.ndarray:
    H = np.tanh(_XB @ _W1)
    Z = H @ _W2
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    back = (P @ _W2.T) * (1.0 - H * H)
    return _XB.T @ back, H.T @ P


_KERNELS = {"engine": _engine_kernel, "batch": _batch_kernel}


def probe(kind: str) -> float:
    """Median milliseconds of one run of the ``kind`` kernel."""
    times = []
    for _ in range(REPS[kind]):
        t0 = time.perf_counter()
        _KERNELS[kind]()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def probe_all() -> dict[str, float]:
    return {kind: probe(kind) for kind in _KERNELS}


def to_ref(value: float, probe_ms: float, kind: str) -> float:
    """``value``, a time measured while the ``kind`` probe took ``probe_ms``,
    at the reference speed."""
    return value * REF_MS[kind] / probe_ms


class SegmentClock:
    """Times one region, cut into segments at probe points.

    Time inside the region is booked as ``engine`` or ``batch`` work (``batch``
    unless ``switch`` says otherwise). ``split`` is called at points inside
    the region; it probes only once at least ``min_segment_s`` has passed
    since the last probe, so probes cost a few percent of the region. Each
    segment's engine and batch time is rescaled by the mean of the probes of
    that kind at the segment's two ends, and the probes' own time is left out
    of both totals. ``split(force=True)`` ends the region.
    """

    def __init__(self, probe_fn=probe_all, min_segment_s: float = 0.5):
        self.probe_fn = probe_fn
        self.min_segment_s = min_segment_s
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._kind = "batch"
        self._busy = dict.fromkeys(REF_MS, 0.0)
        self._probe_ms = probe_fn()
        self._t_split = self._t_mark = time.perf_counter()

    def switch(self, kind: str) -> None:
        """Book the time since the last mark to the current kind; from now on
        book it to ``kind``."""
        now = time.perf_counter()
        self._busy[self._kind] += now - self._t_mark
        self._kind, self._t_mark = kind, now

    def split(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._t_split < self.min_segment_s:
            return
        self.switch(self._kind)
        probe_ms = self.probe_fn()
        for kind, busy in self._busy.items():
            self.wall_s += busy
            self.ref_s += to_ref(busy, (self._probe_ms[kind] + probe_ms[kind]) / 2, kind)
        self._busy = dict.fromkeys(REF_MS, 0.0)
        self._probe_ms = probe_ms
        self._t_split = self._t_mark = time.perf_counter()
