"""Online-trained predictor of how target-like a revealed patch is.

A small dense network maps a flattened patch to one probability. It starts
from random weights and is refit after every measurement on all pairs
(patch, target ratio) gathered so far, by full-batch gradient descent on the
summed binary cross-entropy. Soft labels in [0, 1] are trained against the
same objective. Forward, backward, and the finite-difference check are all
written out explicitly so the gradients can be certified independently.

Training consumes the revealed true contents; scoring consumes predicted
contents from the belief particles. Layer layouts: ``default_layout`` is the
desk-scale stack (patch -> 16 -> 8 -> 1); ``deep_layout`` mirrors the wider
five-stage stack (patch -> 4 -> 32 -> 16 -> 8 -> 1) available as a preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledPatch",
    "RewardNet",
    "default_layout",
    "deep_layout",
    "predict",
    "bce_loss",
    "train",
    "grad_check",
]

LEAK = 0.01


def default_layout(patch_area: int) -> list[int]:
    return [patch_area, 16, 8, 1]


def deep_layout(patch_area: int) -> list[int]:
    return [patch_area, 4, 32, 16, 8, 1]


@dataclass(frozen=True)
class LabeledPatch:
    """One supervised pair: flattened revealed contents and target ratio."""

    patch: np.ndarray
    label: float

    def __post_init__(self):
        object.__setattr__(self, "patch", np.asarray(self.patch, dtype=float).ravel())
        if not 0.0 <= self.label <= 1.0:
            raise ValueError(f"label must lie in [0, 1], got {self.label}")


@dataclass
class RewardNet:
    """Dense probability head with leaky-rectifier hidden activations."""

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(cls, sizes, seed: int = 0) -> "RewardNet":
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or sizes[-1] != 1:
            raise ValueError("layout needs an input size and a single output unit")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, fan_out))
        return cls(sizes=sizes, weights=weights, biases=biases)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "RewardNet":
        return RewardNet(
            sizes=list(self.sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def _forward(net: RewardNet, X: np.ndarray):
    """Returns per-layer pre-activations and activations; last entry is the logit."""
    pres, acts = [], [X]
    h = X
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pres.append(z)
        h = z if i == last else np.where(z > 0.0, z, LEAK * z)
        acts.append(h)
    return pres, acts


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated on the side of zero where exp cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _as_matrix(net: RewardNet, patch) -> tuple[np.ndarray, bool]:
    X = np.asarray(patch, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != net.sizes[0]:
        raise ValueError(
            f"patch dimension {X.shape[1]} does not match net input {net.sizes[0]}"
        )
    return X, single


def predict(net: RewardNet, patch):
    """Deterministic forward pass squashed to a probability in (0, 1).

    Accepts one flattened patch or a (n, patch_area) matrix.
    """
    X, single = _as_matrix(net, patch)
    probs = _sigmoid(_forward(net, X)[0][-1][:, 0])
    return float(probs[0]) if single else probs


def _stack(net: RewardNet, dataset):
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    X, _ = _as_matrix(net, np.stack([p.patch for p in dataset]))
    return X, np.array([p.label for p in dataset], dtype=float)


def bce_loss(net: RewardNet, dataset) -> float:
    """Summed cross-entropy -(y log p + (1 - y) log(1 - p)) over the dataset.

    Evaluated from logits (softplus form) so near-perfect fits stay finite.
    """
    X, y = _stack(net, dataset)
    z = _forward(net, X)[0][-1][:, 0]
    softplus = np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))
    return float(np.sum(softplus - y * z))


def _gradients(net: RewardNet, X: np.ndarray, y: np.ndarray):
    pres, acts = _forward(net, X)
    z = pres[-1][:, 0]
    delta = (_sigmoid(z) - y)[:, None]  # dL/dz, summed loss
    grads_w, grads_b = [None] * len(net.weights), [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
            delta = delta * np.where(pres[i - 1] > 0.0, 1.0, LEAK)
    return grads_w, grads_b


def train(net: RewardNet, dataset, epochs: int = 3, lr: float = 0.01) -> RewardNet:
    """Full-batch gradient descent on the summed cross-entropy.

    Returns a new net; the input parameters are left untouched so score
    evaluation can keep reading a stable snapshot.
    """
    X, y = _stack(net, dataset)
    out = net.copy()
    for _ in range(epochs):
        grads_w, grads_b = _gradients(out, X, y)
        for w, b, gw, gb in zip(out.weights, out.biases, grads_w, grads_b):
            w -= lr * gw
            b -= lr * gb
    return out


def grad_check(net: RewardNet, dataset, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if net.n_params > 1000:
        raise ValueError("finite-difference check limited to nets under 1k params")
    X, y = _stack(net, dataset)
    grads_w, grads_b = _gradients(net, X, y)
    worst = 0.0
    probe = net.copy()

    def loss() -> float:
        return bce_loss(probe, dataset)

    for arrs, grads in ((probe.weights, grads_w), (probe.biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                hi = loss()
                flat[k] = keep - h
                lo = loss()
                flat[k] = keep
                fd = (hi - lo) / (2.0 * h)
                denom = max(abs(gflat[k]), abs(fd), 1e-6)
                worst = max(worst, abs(gflat[k] - fd) / denom)
    return worst
