"""Online-trained predictor of how target-like a revealed patch is.

A small dense network maps a flattened patch to one probability. It starts
from random weights and is refit after every measurement on all pairs
(patch, target ratio) gathered so far, by full-batch gradient descent on the
summed binary cross-entropy, on one labelled array whose rows are a patch and
its label. Soft labels in [0, 1] are trained against the same objective.
Forward, backward, and the finite-difference check are all written out
explicitly so the gradients can be certified independently.

Training consumes the revealed true contents; scoring consumes predicted
contents from the belief particles. Layer layouts: ``default_layout`` is the
desk-scale stack (patch -> 16 -> 8 -> 1); ``deep_layout`` is the deeper
five-stage stack (patch -> 4 -> 32 -> 16 -> 8 -> 1) that the gradient-check
suite certifies beside it. Episodes take their hidden widths from ``reward.hidden``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RewardNet",
    "default_layout",
    "deep_layout",
    "predict",
    "bce_loss",
    "train",
    "grad_check",
]

LEAK = 0.01
# Rows per block of the scoring forward pass: each block's (width, rows)
# activations stay a few hundred KiB, inside a core's L2.
PREDICT_BLOCK = 1024


def default_layout(patch_area: int) -> list[int]:
    return [patch_area, 16, 8, 1]


def deep_layout(patch_area: int) -> list[int]:
    return [patch_area, 4, 32, 16, 8, 1]


@dataclass
class RewardNet:
    """Dense probability head with leaky-rectifier hidden activations."""

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
        return cls(weights, biases)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "RewardNet":
        return RewardNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def _forward(net: RewardNet, H: np.ndarray) -> list[np.ndarray]:
    """Per-layer activations of the (inputs, rows) batch ``H``, starting with ``H``.

    Feature-major: each layer's activations are (width, rows). A one-input
    layer (the default 1x1 patch) takes its product and its bias in one
    K = 2 GEMM, [w; b]^T @ [h; 1], in place of a one-column product and a
    bias add; BENCH_lean-step.json measures the two end to end.
    The last activation is the (1, rows) logits.
    """
    acts = [H]
    h = H
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if w.shape[0] == 1:  # [w; b]^T @ [h; 1]: product and bias in one K = 2 GEMM
            h_one = np.empty((2, h.shape[1]))
            h_one[0], h_one[1] = h[0], 1.0
            z = np.concatenate((w, b[None, :])).T @ h_one
        else:
            z = w.T @ h
            z += b[:, None]
        if i == last:
            h = z
        else:  # max(z, LEAK * z) written into LEAK * z: one (width, rows) array less per layer
            h = LEAK * z
            np.maximum(z, h, out=h)
        acts.append(h)
    return acts


def _logits(net: RewardNet, X: np.ndarray) -> np.ndarray:
    """The (n,) output logits of ``_forward`` on the rows of ``X``, in column blocks.

    Blocks start at multiples of PREDICT_BLOCK, so each row keeps its place
    in the BLAS kernels' column groups, and a last block of fewer than four
    columns joins the block before it: numpy sends a one-column product to
    another BLAS routine, and OpenBLAS rounds two or three columns apart from
    a wider product. So with two or more BLAS threads the logits are
    bit-identical to one ``_forward`` over all rows. With one thread they may
    not be (measured on OpenBLAS 0.3.31's Haswell kernels): a product of at
    most 100^3 multiply-adds then takes a small-matrix kernel that rounds its
    last N mod 8 columns apart, and a block stays that small where the whole
    product may not (from 1,954 rows for the deep layout's 32 -> 16 layer).
    Episodes score locations x particles rows, a multiple of 8 at every
    shipped size.
    """
    n = X.shape[0]
    out = np.empty(n)
    H = X.T
    edges = [*range(0, max(n - 3, 1), PREDICT_BLOCK), n]
    for start, stop in zip(edges[:-1], edges[1:]):
        out[start:stop] = _forward(net, H[:, start:stop])[-1][0]
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 + 0.5 tanh(z / 2): one transcendental, and tanh cannot overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _as_matrix(net: RewardNet, patch) -> tuple[np.ndarray, bool]:
    X = np.asarray(patch, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    width = net.weights[0].shape[0]
    if X.shape[1] != width:
        raise ValueError(f"patch dimension {X.shape[1]} does not match net input {width}")
    return X, single


def predict(net: RewardNet, patch):
    """Deterministic forward pass squashed to a probability in (0, 1).

    Accepts one flattened patch or a (n, patch_area) matrix.
    """
    X, single = _as_matrix(net, patch)
    probs = _sigmoid(_logits(net, X))
    return float(probs[0]) if single else probs


def _split(net: RewardNet, dataset) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, inputs) patches and (rows,) labels of a labelled (rows, inputs + 1) array."""
    dataset = np.asarray(dataset, dtype=float)
    if dataset.ndim != 2 or len(dataset) == 0:
        raise ValueError("dataset must be a nonempty (rows, inputs + 1) array")
    X, y = _as_matrix(net, dataset[:, :-1])[0], dataset[:, -1]
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError("labels must lie in [0, 1]")
    return X, y


def bce_loss(net: RewardNet, dataset) -> float:
    """Summed cross-entropy -(y log p + (1 - y) log(1 - p)) over a labelled array.

    Evaluated from logits, as logaddexp(0, z) - y z, so near-perfect fits stay finite.
    """
    X, y = _split(net, dataset)
    z = _logits(net, X)
    return float(np.sum(np.logaddexp(0.0, z) - y * z))


def _gradients(net: RewardNet, X: np.ndarray, y: np.ndarray):
    acts = _forward(net, X.T)
    delta = (_sigmoid(acts[-1][0]) - y)[None, :]  # dL/dz, summed loss, (1, rows)
    grads_w, grads_b = [None] * len(net.weights), [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i] @ delta.T
        grads_b[i] = delta.sum(axis=1)
        if i > 0:
            delta = net.weights[i] @ delta
            delta = delta * np.where(acts[i] > 0.0, 1.0, LEAK)  # LEAK > 0: act > 0 iff its input > 0
    return grads_w, grads_b


def train(net: RewardNet, dataset, epochs: int = 3, lr: float = 0.01) -> RewardNet:
    """Full-batch gradient descent on the summed cross-entropy of a labelled array.

    Returns a new net; the input parameters are left untouched so score
    evaluation can keep reading a stable snapshot.
    """
    X, y = _split(net, dataset)
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
    X, y = _split(net, dataset)
    grads_w, grads_b = _gradients(net, X, y)
    worst = 0.0
    probe = net.copy()
    for arrs, grads in ((probe.weights, grads_w), (probe.biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                hi = bce_loss(probe, dataset)
                flat[k] = keep - h
                lo = bce_loss(probe, dataset)
                flat[k] = keep
                fd = (hi - lo) / (2.0 * h)
                denom = max(abs(gflat[k]), abs(fd), 1e-6)
                worst = max(worst, abs(gflat[k] - fd) / denom)
    return worst
