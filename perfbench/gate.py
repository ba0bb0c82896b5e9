"""Correctness gate, run outside every timed region.

Each check compares the engine against a reference computed here from the
retained data with plain numpy, not against the engine's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

STEP_NORM_TOL = 1e-10
RETENTION_TOL = 1e-10
DOWNDATE_TOL = 1e-8
ZERO_GRAD_TOL = 1e-12


def step_norm_error(result, theta0: np.ndarray, gamma: float) -> float:
    """| ||w_t - w_0 + b_t|| - gamma |; 0 on a round that skipped the step."""
    if result.grad_norm < ZERO_GRAD_TOL:
        return 0.0
    step = result.params.theta - theta0 + result.perturbation
    return abs(float(np.linalg.norm(step)) - gamma)


def retention_error(engine, params0, remaining) -> float:
    """Max abs gap between the recursive retention gradient and a direct mean
    cross-entropy gradient over the surviving rows."""
    from safestream.model import grad_cross_entropy

    direct = grad_cross_entropy(params0, remaining.X, remaining.y)
    return float(np.abs(engine.retention.grad - direct).max())


def downdate_error(engine, remaining) -> float:
    """Max abs gap between the downdated per-class statistics and two-pass
    mean and covariance of the surviving rows, in the frozen standardized
    space; frozen classes keep their last valid statistics and are skipped."""
    gaussians = engine.gaussians
    err = 0.0
    for label, st in gaussians.stats.items():
        if st.frozen:
            continue
        Z = gaussians.standardize_batch(remaining.X[remaining.y == label], label)
        mu = Z.mean(axis=0)
        sigma = np.cov(Z, rowvar=False, ddof=1)
        err = max(err, abs(st.n - len(Z)), float(np.abs(st.mu - mu).max()),
                  float(np.abs(st.sigma - sigma).max()))
    return err


def summary_ok(summary: dict, require_all: bool) -> bool:
    """Every numeric summary field outside the config echo is finite; with
    ``require_all`` none of them may be missing either."""

    def leaves(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key != "config":
                    yield from leaves(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                yield from leaves(value)
        else:
            yield node

    for value in leaves(summary):
        if value is None:
            if require_all:
                return False
        elif isinstance(value, (int, float)) and not math.isfinite(value):
            return False
    return True
