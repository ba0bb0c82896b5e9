import numpy as np
import pytest

from safestream.data import make_synthetic
from safestream.engine import SafeConfig, SafeUnlearner
from safestream.gaussian import make_projection
from safestream.model import Architecture
from safestream.oracle import RetrainConfig, retrain
from safestream.runner import resolved_proj_dim


def central_difference(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        g[i] = (f(up) - f(down)) / (2.0 * eps)
    return g


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-30)
    return float(np.linalg.norm(got - want)) / denom


def build_engine(train, params0, safe: SafeConfig, proj_seed: int = 11):
    proj_dim = resolved_proj_dim(safe, train.dim)
    projection = make_projection(train.dim, proj_dim, proj_seed)
    return SafeUnlearner(params0, safe, projection, train.X, train.y, train.ids)


@pytest.fixture(scope="session")
def blob_task():
    train, test = make_synthetic(1500, 10, 3, 4.0, seed=7)
    arch = Architecture(train.dim, train.n_classes)
    params0 = retrain(train.X, train.y, arch, RetrainConfig(epochs=120, lr=1.0, seed=0))
    return train, test, params0
