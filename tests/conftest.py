import numpy as np
import pytest

from safestream.data import make_synthetic
from safestream.engine import SafeConfig, SafeUnlearner
from safestream.gaussian import make_projection
from safestream.model import Architecture
from safestream.oracle import RetrainConfig, retrain
from safestream.runner import resolved_proj_dim


def textbook_grad(arch: Architecture, theta: np.ndarray, X: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient written out row-major: one row of logits
    per sample, the softmax spelled out, the gradient layer by layer."""
    d, c, h = arch.input_dim, arch.n_classes, arch.hidden_dim
    Y = np.eye(c)[y]
    if h is None:
        W, b = theta[: c * d].reshape(c, d), theta[c * d:]
        H = X
    else:
        W1 = theta[: h * d].reshape(h, d)
        b1 = theta[h * d: h * d + h]
        W = theta[h * d + h: h * d + h + c * h].reshape(c, h)
        b = theta[h * d + h + c * h:]
        H = np.tanh(X @ W1.T + b1)
    logits = H @ W.T + b
    E = np.exp(logits - logits.max(axis=1, keepdims=True))
    D = (E / E.sum(axis=1, keepdims=True) - Y) / len(X)
    grad = [(D.T @ H).ravel(), D.sum(axis=0)]
    if h is not None:
        Dh = (D @ W) * (1.0 - H * H)
        grad = [(Dh.T @ X).ravel(), Dh.sum(axis=0)] + grad
    return np.concatenate(grad)


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
