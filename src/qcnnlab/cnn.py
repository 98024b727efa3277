"""Compact classical CNN baseline with hand-rolled forward/backward passes.

Fixed per input size: 8x8 inputs get one conv(8 filters, 3x3)+ReLU+pool
block, larger inputs (28x28, 32x32) get two blocks (8 then 16 filters),
always followed by flatten and a dense 2-way softmax head trained with
sparse categorical cross-entropy.  Convolutions are stride-1 with "same"
zero padding; pooling is 2x2 stride 2, dropping a trailing odd row/column.

Each layer is a few whole-batch array operations.  A convolution gathers
the patch matrix (one row per output pixel, one column per kernel entry,
plus a ones column for the bias) and multiplies it by the stacked weights
once; its backward pass takes the weight and bias gradients from one
matmul with the same matrix and the input gradient from one matmul and k*k
strided adds (col2im).  The first layer's input gradient, which is with
respect to the images, is not computed.  The network gathers its patch
rows in pooling order, so the matmul writes one contiguous plane per window
entry and each window's max and first-wins entry are elementwise ops over
four planes; conv2d and maxpool2x2 are the reference layers it equals bit
for bit.  Pooling's backward pass is one flat scatter.
Every backward pass is checked against central finite differences in the
test suite.  The model is split into an encode, forward and backward step,
which :func:`training.fit` drives; the forward scores its batch, and without
augmentation the train-set forward that scores one step is the one the next
step's gradient starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .augment import AugmentConfig
from .training import TrainConfig, TrainingError, fit


@dataclass(frozen=True)
class CnnModel:
    """All weights of one network; immutable, updates build a new instance."""

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
            raise TrainingError(f"expected {self.n_params} weights, got {flat.size}")
        out, pos = [], 0
        for a in self._arrays():
            out.append(flat[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        n_conv = len(self.kernels)
        return CnnModel(tuple(out[:n_conv]), tuple(out[n_conv : 2 * n_conv]), out[-2], out[-1])


def conv_specs_for(h: int, w: int) -> tuple[tuple[int, int], ...]:
    """(filters, kernel size) per block: one block for 8x8, two above that."""
    if max(h, w) <= 8:
        return ((8, 3),)
    return ((8, 3), (16, 3))


def build_cnn(input_hw: tuple[int, int], seed: int) -> CnnModel:
    """Seeded init: every weight uniform in +-1/sqrt(fan_in)."""
    h, w = input_hw
    if h < 2 or w < 2:
        raise TrainingError(f"input {h}x{w} too small to pool")
    rng = np.random.default_rng(seed)

    kernels, biases, c_in = [], [], 1
    for filters, k in conv_specs_for(h, w):
        bound = 1.0 / np.sqrt(k * k * c_in)
        kernels.append(rng.uniform(-bound, bound, (k, k, c_in, filters)))
        biases.append(rng.uniform(-bound, bound, filters))
        c_in = filters
        h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise TrainingError("input too small for the conv/pool stack")

    flat_dim = h * w * c_in
    bound = 1.0 / np.sqrt(flat_dim)
    dense_w = rng.uniform(-bound, bound, (flat_dim, 2))
    dense_b = rng.uniform(-bound, bound, 2)
    return CnnModel(tuple(kernels), tuple(biases), dense_w, dense_b)


# ---------------------------------------------------------------------------
# layers (batched: x is (m, H, W, C))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _patch_index(h: int, w: int, c: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index of one image's patch rows, natural and pooling order, read-only.

    The source is the image's h*w*c pixels followed by a 0 and a 1.  Row
    i*w + j lists the pixels kernel entry (di, dj, ch) meets at output pixel
    (i, j), in the order of kernels.reshape(-1, c_out); entries outside the
    frame read the 0 ("same" zero padding).  The last column reads the 1,
    which carries the bias.  The pooling order takes the rows in the order
    (i % 2, j % 2, i // 2, j // 2) and leaves out an odd last row or column.
    """
    p = k // 2
    i = (np.arange(h)[:, None] + np.arange(k)[None, :] - p)[:, None, :, None, None]
    j = (np.arange(w)[:, None] + np.arange(k)[None, :] - p)[None, :, None, :, None]
    inside = (i >= 0) & (i < h) & (j >= 0) & (j < w)
    idx = np.where(inside, (i * w + j) * c + np.arange(c), h * w * c)
    idx = np.hstack([idx.reshape(h * w, k * k * c), np.full((h * w, 1), h * w * c + 1)])
    rows = np.arange(h * w).reshape(h, w)[: h - h % 2, : w - w % 2]
    pool = idx[rows.reshape(h // 2, 2, w // 2, 2).transpose(1, 3, 0, 2).reshape(-1)]
    idx.setflags(write=False)
    pool.setflags(write=False)
    return idx, pool


def _patches(x: np.ndarray, k: int, pool_order: bool = False) -> np.ndarray:
    """The (pixels, k*k*c + 1) patch matrix of x, rows in natural or pooling order."""
    m, h, w, c = x.shape
    src = np.empty((m, h * w * c + 2))
    src[:, :-2] = x.reshape(m, -1)
    src[:, -2] = 0.0
    src[:, -1] = 1.0
    return np.take(src, _patch_index(h, w, c, k)[pool_order], axis=1).reshape(-1, k * k * c + 1)


def conv2d(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with "same" zero padding, plus bias."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or kernels.ndim != 4 or x.shape[3] != kernels.shape[2]:
        raise TrainingError(f"conv input {x.shape} vs kernels {kernels.shape}")
    return _conv_rows(x, kernels, biases).reshape(*x.shape[:3], kernels.shape[3])


def _conv_rows(x, kernels, biases, pool_order: bool = False) -> np.ndarray:
    """conv2d as one (pixels, c_out) matrix, rows in natural or pooling order."""
    weights = np.vstack((kernels.reshape(-1, kernels.shape[3]), biases))
    return _patches(x, kernels.shape[0], pool_order) @ weights


def _conv_param_grads(x: np.ndarray, kernels: np.ndarray, dout2d: np.ndarray):
    """(dkernels, dbiases) of conv2d for upstream dout as an (m*h*w, c_out)
    matrix: the bias gradient is the patch matrix's ones column times dout."""
    grads = _patches(x, kernels.shape[0]).T @ dout2d
    return grads[:-1].reshape(kernels.shape), grads[-1]


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, dout: np.ndarray):
    """Gradients (dx, dkernels, dbiases) of conv2d for upstream dout."""
    k = kernels.shape[0]
    p = k // 2
    m, h, w, c = x.shape
    c_out = kernels.shape[3]
    dout2d = dout.reshape(-1, c_out)
    dk, db = _conv_param_grads(x, kernels, dout2d)
    # col2im: each kernel entry's columns add back onto the pixels they read
    dcols = (dout2d @ kernels.reshape(-1, c_out).T).reshape(m, h, w, k, k, c)
    dxp = np.zeros((m, h + 2 * p, w + 2 * p, c))
    for di in range(k):
        for dj in range(k):
            dxp[:, di : di + h, dj : dj + w, :] += dcols[:, :, :, di, dj, :]
    return dxp[:, p : p + h, p : p + w, :], dk, db


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of each 2x2 block, stride 2; returns (pooled, argmax routing).

    Odd trailing rows/columns are dropped.  The routing tensor holds, per
    pooled value, the first window entry (2 * row + col) equal to the max,
    which the backward pass sends the gradient to.  A window holding NaN
    pools to NaN and routes to its last entry.
    """
    m, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    planes = x[:, : 2 * h2, : 2 * w2, :].reshape(m, h2, 2, w2, 2, c)
    return _pool_planes(planes.transpose(0, 2, 4, 1, 3, 5).reshape(m, 4, h2, w2, c))


def _pool_planes(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """maxpool2x2 of (m, 4, h2, w2, c) window planes, one per window entry."""
    pooled = planes.max(axis=1)
    later = planes[:, 0] != pooled  # the max lies past this entry
    route = later.astype(np.intp)
    for e in (1, 2):
        later &= planes[:, e] != pooled
        route += later
    return pooled, route


def conv_relu_pool(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray):
    """maxpool2x2(relu(conv2d(x, kernels, biases))) bit for bit, from pooling-order rows."""
    m, h, w, _ = x.shape
    planes = _conv_rows(x, kernels, biases, pool_order=True)
    planes = planes.reshape(m, 4, h // 2, w // 2, kernels.shape[3])
    return _pool_planes(np.maximum(planes, 0.0, out=planes))


def maxpool2x2_backward(x_shape, route: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Each pooled gradient to its routed window entry, zero elsewhere."""
    m, h, w, c = x_shape
    # routed offsets plus window top-left flat indices, summed in place: one index array
    flat = np.array([0, c, w * c, w * c + c])[route]
    flat += np.arange(m)[:, None, None, None] * (h * w * c)
    flat += np.arange(0, h - 1, 2)[:, None, None] * (w * c) + np.arange(0, w - 1, 2)[:, None] * c + np.arange(c)
    dx = np.zeros(x_shape)
    dx.reshape(-1)[flat] = dout
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

def _encode(images) -> np.ndarray:
    """An (m, h, w) stack or list of images as the (m, h, w, 1) network input."""
    return np.asarray(images, dtype=np.float64)[..., None]


def _forward(model: CnnModel, x: np.ndarray, labels):
    """Mean cross-entropy, accuracy (ties go to class 0), and the cache the backward replays."""
    caches = []
    for kern, bias in zip(model.kernels, model.conv_biases):
        pooled, route = conv_relu_pool(x, kern, bias)
        caches.append((x, (*x.shape[:3], kern.shape[3]), route, pooled))
        x = pooled
    m = x.shape[0]
    flat = x.reshape(m, -1)
    logits = flat @ model.dense_w + model.dense_b
    return (_xent_rows(logits, labels), float(np.mean(np.argmax(logits, axis=1) == labels)),
            (caches, flat, x.shape, logits, labels))


def _backward(model: CnnModel, cache) -> np.ndarray:
    """The full flat gradient of the mean cross-entropy from a forward's cache."""
    caches, flat, pooled_shape, logits, labels = cache
    m = len(labels)
    dlogits = _softmax_rows(logits)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    d_dense_w = flat.T @ dlogits
    d_dense_b = dlogits.sum(axis=0)
    dx = (dlogits @ model.dense_w.T).reshape(pooled_shape)

    dkernels, dbiases = [], []
    for layer in reversed(range(len(caches))):
        x_in, act_shape, route, pooled = caches[layer]
        kern = model.kernels[layer]
        # relu passes gradient where the routed pre-activation is positive,
        # which is where the pooled value is: mask at the pooled size
        dpre = maxpool2x2_backward(act_shape, route, relu_backward(pooled, dx))
        if layer:
            dx, dk, db = conv2d_backward(x_in, kern, dpre)
        else:  # the input images' own gradient is never read
            dk, db = _conv_param_grads(x_in, kern, dpre.reshape(-1, kern.shape[3]))
        dkernels.append(dk)
        dbiases.append(db)
    return CnnModel(tuple(dkernels[::-1]), tuple(dbiases[::-1]), d_dense_w, d_dense_b).pack()


def cnn_loss_and_grads(model: CnnModel, images, labels):
    """Mean cross-entropy, accuracy, and the full flat gradient."""
    loss, acc, cache = _forward(model, _encode(images), np.asarray(labels).reshape(-1))
    return loss, acc, _backward(model, cache)


def train_cnn(model: CnnModel, train_set, test_set, cfg: TrainConfig,
              augment_cfg: AugmentConfig | None = None):
    """training.fit every kernel/bias/dense weight on the cross-entropy loss;
    returns (per-epoch metrics, trained weights as one :meth:`CnnModel.pack` vector)."""
    return fit(model.pack(), train_set, test_set, cfg, augment_cfg,
               encode=_encode, bind=model.with_params, forward=_forward, backward=_backward)
