"""Compact classical CNN baseline with hand-rolled forward/backward passes.

Fixed per input size: 8x8 inputs get one conv(8 filters, 3x3)+ReLU+pool
block, larger inputs (28x28, 32x32) get two blocks (8 then 16 filters),
always followed by flatten and a dense 2-way softmax head trained with
sparse categorical cross-entropy.  Convolutions are stride-1 with "same"
zero padding; pooling is 2x2 stride 2, dropping a trailing odd row/column.
Every backward pass is checked against central finite differences in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig
from .training import ShapeMismatch, TrainConfig, fit


@dataclass(frozen=True)
class CnnModel:
    """All weights of one network; immutable, updates build a new instance."""

    input_hw: tuple[int, int]
    kernels: tuple[np.ndarray, ...]       # each (k, k, c_in, c_out)
    conv_biases: tuple[np.ndarray, ...]   # each (c_out,)
    dense_w: np.ndarray                   # (flat_dim, 2)
    dense_b: np.ndarray                   # (2,)

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self._arrays())

    def _arrays(self) -> list[np.ndarray]:
        return [*self.kernels, *self.conv_biases, self.dense_w, self.dense_b]

    def pack(self) -> np.ndarray:
        """All weights as one flat vector (kernels, biases, dense, in order)."""
        return np.concatenate([a.reshape(-1) for a in self._arrays()])

    def with_params(self, flat: np.ndarray) -> "CnnModel":
        """A copy of this model with weights taken from a flat vector."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ShapeMismatch(f"expected {self.n_params} weights, got {flat.size}")
        out, pos = [], 0
        for a in self._arrays():
            out.append(flat[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        n_conv = len(self.kernels)
        return CnnModel(self.input_hw, tuple(out[:n_conv]),
                        tuple(out[n_conv : 2 * n_conv]), out[-2], out[-1])


def conv_specs_for(h: int, w: int) -> tuple[tuple[int, int], ...]:
    """(filters, kernel size) per block: one block for 8x8, two above that."""
    if max(h, w) <= 8:
        return ((8, 3),)
    return ((8, 3), (16, 3))


def build_cnn(input_hw: tuple[int, int], seed: int,
              conv_specs: tuple[tuple[int, int], ...] | None = None) -> CnnModel:
    """Seeded init: every weight uniform in +-1/sqrt(fan_in)."""
    h, w = input_hw
    if h < 2 or w < 2:
        raise ShapeMismatch(f"input {h}x{w} too small to pool")
    specs = conv_specs_for(h, w) if conv_specs is None else conv_specs
    rng = np.random.default_rng(seed)

    kernels, biases, c_in = [], [], 1
    for filters, k in specs:
        bound = 1.0 / np.sqrt(k * k * c_in)
        kernels.append(rng.uniform(-bound, bound, (k, k, c_in, filters)))
        biases.append(rng.uniform(-bound, bound, filters))
        c_in = filters
        h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise ShapeMismatch("input too small for the conv/pool stack")

    flat_dim = h * w * c_in
    bound = 1.0 / np.sqrt(flat_dim)
    dense_w = rng.uniform(-bound, bound, (flat_dim, 2))
    dense_b = rng.uniform(-bound, bound, 2)
    return CnnModel(tuple(input_hw), tuple(kernels), tuple(biases), dense_w, dense_b)


# ---------------------------------------------------------------------------
# layers (batched: x is (m, H, W, C))
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with "same" zero padding, plus bias."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or kernels.ndim != 4 or x.shape[3] != kernels.shape[2]:
        raise ShapeMismatch(f"conv input {x.shape} vs kernels {kernels.shape}")
    k = kernels.shape[0]
    p = k // 2
    m, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    out = np.zeros((m, h, w, kernels.shape[3]))
    for di in range(k):
        for dj in range(k):
            out += np.einsum("mhwc,cf->mhwf", xp[:, di : di + h, dj : dj + w, :],
                             kernels[di, dj])
    return out + biases


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, dout: np.ndarray):
    """Gradients (dx, dkernels, dbiases) of conv2d for upstream dout."""
    k = kernels.shape[0]
    p = k // 2
    m, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(kernels)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di : di + h, dj : dj + w, :]
            dk[di, dj] = np.einsum("mhwc,mhwf->cf", patch, dout)
            dxp[:, di : di + h, dj : dj + w, :] += np.einsum(
                "mhwf,cf->mhwc", dout, kernels[di, dj])
    dx = dxp[:, p : p + h, p : p + w, :]
    return dx, dk, dout.sum(axis=(0, 1, 2))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of each 2x2 block, stride 2; returns (pooled, argmax routing).

    Odd trailing rows/columns are dropped.  The routing tensor remembers the
    first-wins argmax within each window for the backward pass.
    """
    m, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    windows = x[:, : 2 * h2, : 2 * w2, :].reshape(m, h2, 2, w2, 2, c)
    windows = windows.transpose(0, 1, 3, 2, 4, 5).reshape(m, h2, w2, 4, c)
    route = np.argmax(windows, axis=3)  # first max wins
    pooled = np.take_along_axis(windows, route[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return pooled, route


def maxpool2x2_backward(x_shape, route: np.ndarray, dout: np.ndarray) -> np.ndarray:
    m, h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    dwin = np.zeros((m, h2, w2, 4, c))
    np.put_along_axis(dwin, route[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dwin = dwin.reshape(m, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    dx = np.zeros(x_shape)
    dx[:, : 2 * h2, : 2 * w2, :] = dwin.reshape(m, 2 * h2, 2 * w2, c)
    return dx


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _xent_rows(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(logsum - z[np.arange(len(labels)), labels]))


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def _forward(model: CnnModel, x: np.ndarray):
    """Logits plus the per-layer caches the backward pass replays."""
    caches = []
    for kern, bias in zip(model.kernels, model.conv_biases):
        pre = conv2d(x, kern, bias)
        act = relu(pre)
        pooled, route = maxpool2x2(act)
        caches.append((x, pre, act.shape, route))
        x = pooled
    m = x.shape[0]
    flat = x.reshape(m, -1)
    logits = flat @ model.dense_w + model.dense_b
    return logits, (caches, flat, x.shape)


def cnn_loss_and_grads(model: CnnModel, images, labels):
    """Mean cross-entropy, accuracy, and the full flat gradient."""
    labels = np.asarray(labels).reshape(-1)
    x = np.asarray(images, dtype=np.float64)[..., None]
    m = x.shape[0]
    logits, (caches, flat, pooled_shape) = _forward(model, x)
    probs = _softmax_rows(logits)
    loss = _xent_rows(logits, labels)
    acc = float(np.mean(np.argmax(probs, axis=1) == labels))

    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    d_dense_w = flat.T @ dlogits
    d_dense_b = dlogits.sum(axis=0)
    dx = (dlogits @ model.dense_w.T).reshape(pooled_shape)

    dkernels, dbiases = [], []
    for (x_in, pre, act_shape, route), kern in zip(reversed(caches),
                                                   reversed(model.kernels)):
        dact = maxpool2x2_backward(act_shape, route, dx)
        dpre = relu_backward(pre, dact)
        dx, dk, db = conv2d_backward(x_in, kern, dpre)
        dkernels.append(dk)
        dbiases.append(db)
    dkernels.reverse()
    dbiases.reverse()

    grad_flat = np.concatenate([a.reshape(-1) for a in
                                [*dkernels, *dbiases, d_dense_w, d_dense_b]])
    return loss, acc, grad_flat


def cnn_evaluate(model: CnnModel, images, labels) -> tuple[float, float]:
    labels = np.asarray(labels).reshape(-1)
    x = np.asarray(images, dtype=np.float64)[..., None]
    logits, _ = _forward(model, x)
    loss = _xent_rows(logits, labels)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    return loss, acc


def train_cnn(model: CnnModel, train_set, test_set, cfg: TrainConfig,
              augment_cfg: AugmentConfig | None = None):
    """training.fit every kernel/bias/dense weight on the cross-entropy loss;
    returns (per-epoch metrics, trained model)."""
    def scores(params, batches, labels):
        stepped = model.with_params(params)
        return [cnn_evaluate(stepped, x, y) for x, y in zip(batches, labels)]

    rows, params = fit(model.pack(), train_set, test_set, cfg, augment_cfg,
                       encode=np.asarray, scores=scores,
                       grad=lambda p, x, y: cnn_loss_and_grads(model.with_params(p), x, y)[2])
    return rows, model.with_params(params)
