"""Tests for the classical CNN layers, gradients, and training loop."""

import os

import numpy as np
import pytest

from qcnnlab.augment import AugmentConfig, augment_sample
from qcnnlab import cnn
from qcnnlab.datasets import Dataset, binary_subset, load_digits_csv
from qcnnlab.training import METRICS, TrainConfig, TrainingError, adam_step, grad_fd, lr_at
from qcnnlab.cnn import (
    CnnModel,
    build_cnn,
    cnn_loss_and_grads,
    conv2d,
    conv2d_backward,
    conv_relu_pool,
    conv_specs_for,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    train_cnn,
)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_delta_kernel_is_identity():
    """A centered delta kernel copies the input, borders included."""
    rng = np.random.default_rng(0)
    x = rng.random((2, 6, 6, 1))
    kern = np.zeros((3, 3, 1, 1))
    kern[1, 1, 0, 0] = 1.0
    out = conv2d(x, kern, np.zeros(1))
    assert np.allclose(out, x, atol=1e-15)


def test_conv_ones_kernel_on_constant_image():
    x = np.full((1, 5, 5, 1), 2.0)
    out = conv2d(x, np.ones((3, 3, 1, 1)), np.zeros(1))
    assert out[0, 2, 2, 0] == pytest.approx(18.0)  # interior: 9 cells * 2
    assert out[0, 0, 0, 0] == pytest.approx(8.0)   # corner: 4 cells inside


def test_conv_bias_adds_per_filter():
    x = np.zeros((1, 4, 4, 1))
    out = conv2d(x, np.zeros((3, 3, 1, 2)), np.array([0.5, -1.0]))
    assert np.allclose(out[..., 0], 0.5)
    assert np.allclose(out[..., 1], -1.0)


def test_conv_rejects_channel_mismatch():
    with pytest.raises(TrainingError, match="vs kernels"):
        conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 1, 1)), np.zeros(1))


def test_conv_backward_matches_fd():
    """All three conv gradients against central differences on a 6x6 input."""
    rng = np.random.default_rng(1)
    x = rng.random((2, 6, 6, 2))
    kern = rng.uniform(-0.5, 0.5, (3, 3, 2, 3))
    bias = rng.uniform(-0.5, 0.5, 3)
    upstream = rng.random((2, 6, 6, 3))

    def loss_wrt(flat, which):
        if which == "x":
            out = conv2d(flat.reshape(x.shape), kern, bias)
        elif which == "k":
            out = conv2d(x, flat.reshape(kern.shape), bias)
        else:
            out = conv2d(x, kern, flat)
        return float(np.sum(out * upstream))

    dx, dk, db = conv2d_backward(x, kern, upstream)
    for arr, grad, which in ((x, dx, "x"), (kern, dk, "k"), (bias, db, "b")):
        fd = grad_fd(lambda f: loss_wrt(f, which), arr.reshape(-1))
        assert np.max(np.abs(fd - grad.reshape(-1))) < 1e-6


# The per-shift kernels below are the reference the patch-matrix kernels are
# checked against: one einsum per kernel entry over a strided slice of the
# zero-padded input, and an argmax over a (m, h2, w2, 4, c) window axis.

def _ref_conv2d(x, kernels, biases):
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


def _ref_conv2d_backward(x, kernels, dout):
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
    return dxp[:, p : p + h, p : p + w, :], dk, dout.sum(axis=(0, 1, 2))


def _ref_maxpool2x2(x):
    m, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    windows = x[:, : 2 * h2, : 2 * w2, :].reshape(m, h2, 2, w2, 2, c)
    windows = windows.transpose(0, 1, 3, 2, 4, 5).reshape(m, h2, w2, 4, c)
    route = np.argmax(windows, axis=3)
    pooled = np.take_along_axis(windows, route[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return pooled, route


_CONV_CASES = [(hw, c_in, k) for hw in ((5, 7), (6, 6)) for c_in in (1, 2, 8) for k in (1, 3, 5)]


@pytest.mark.parametrize("hw, c_in, k", _CONV_CASES)
def test_conv_matches_per_shift_reference(hw, c_in, k):
    rng = np.random.default_rng(100 * k + 10 * c_in + hw[0])
    x = rng.normal(size=(3, *hw, c_in))
    kern = rng.normal(size=(k, k, c_in, 4))
    bias = rng.normal(size=4)
    assert np.max(np.abs(conv2d(x, kern, bias) - _ref_conv2d(x, kern, bias))) < 1e-12


@pytest.mark.parametrize("hw, c_in, k", _CONV_CASES)
def test_conv_backward_matches_per_shift_reference(hw, c_in, k):
    rng = np.random.default_rng(100 * k + 10 * c_in + hw[0] + 1)
    x = rng.normal(size=(3, *hw, c_in))
    kern = rng.normal(size=(k, k, c_in, 4))
    dout = rng.normal(size=(3, *hw, 4))
    for got, want in zip(conv2d_backward(x, kern, dout), _ref_conv2d_backward(x, kern, dout)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def _pool_inputs():
    rng = np.random.default_rng(11)
    yield rng.normal(size=(3, 6, 6, 2))
    yield rng.normal(size=(2, 5, 7, 3))                        # odd trailing row and column
    yield np.full((2, 4, 6, 2), 0.25)                           # every window an all-tie
    yield np.floor(rng.random((4, 7, 5, 3)) * 3)                # many partial ties
    yield np.where(rng.random((2, 6, 6, 1)) < 0.5, 0.0, -0.0)  # ties between +0 and -0
    yield np.maximum(rng.normal(size=(3, 8, 8, 8)), 0.0)       # relu output, zero ties


def test_maxpool_matches_argmax_reference():
    for x in _pool_inputs():
        pooled, route = maxpool2x2(x)
        want_pooled, want_route = _ref_maxpool2x2(x)
        assert route.shape == want_route.shape and route.dtype == want_route.dtype
        assert np.array_equal(route, want_route)
        assert np.array_equal(pooled, want_pooled)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("hw, c_in, k", [(hw, c_in, k) for hw in ((5, 7), (8, 8), (9, 6))
                                         for c_in in (1, 8) for k in (1, 3, 5)])
def test_conv_relu_pool_is_bitwise_the_reference_layers(m, hw, c_in, k):
    """The pooling-order rows give the natural rows' dot products bit for bit."""
    rng = np.random.default_rng(1000 * m + 100 * k + 10 * c_in + hw[0])
    x = rng.normal(size=(m, *hw, c_in))
    kern = rng.normal(size=(k, k, c_in, 4))
    bias = rng.normal(size=4)
    pooled, route = conv_relu_pool(x, kern, bias)
    want_pooled, want_route = maxpool2x2(relu(conv2d(x, kern, bias)))
    assert route.dtype == want_route.dtype and np.array_equal(route, want_route)
    assert pooled.shape == want_pooled.shape and pooled.tobytes() == want_pooled.tobytes()


def _ref_loss_and_grads(model, images, labels):
    """Full-model loss and gradient from the reference kernels, with relu's
    backward at the full activation size and every layer's input gradient."""
    x = images[..., None]
    caches = []
    for kern, bias in zip(model.kernels, model.conv_biases):
        pre = _ref_conv2d(x, kern, bias)
        pooled, route = _ref_maxpool2x2(relu(pre))
        caches.append((x, pre, route))
        x = pooled
    m = x.shape[0]
    flat = x.reshape(m, -1)
    logits = flat @ model.dense_w + model.dense_b
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(m), labels]))
    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dx = (dlogits @ model.dense_w.T).reshape(x.shape)
    dks, dbs = [], []
    for (x_in, pre, route), kern in zip(reversed(caches), reversed(model.kernels)):
        dpre = relu_backward(pre, maxpool2x2_backward(pre.shape, route, dx))
        dx, dk, db = _ref_conv2d_backward(x_in, kern, dpre)
        dks.insert(0, dk)
        dbs.insert(0, db)
    grads = [*dks, *dbs, flat.T @ dlogits, dlogits.sum(axis=0)]
    return loss, np.concatenate([g.reshape(-1) for g in grads])


@pytest.mark.parametrize("hw", [(8, 8), (16, 16), (12, 10)])
def test_loss_and_grads_match_reference_kernels(hw):
    rng = np.random.default_rng(13)
    model = build_cnn(hw, seed=14)
    images = rng.random((5, *hw))
    labels = np.array([0, 1, 1, 0, 1])
    loss, _, grads = cnn_loss_and_grads(model, images, labels)
    want_loss, want_grads = _ref_loss_and_grads(model, images, labels)
    assert abs(loss - want_loss) < 1e-12
    assert np.max(np.abs(grads - want_grads)) < 1e-12


# ---------------------------------------------------------------------------
# relu / maxpool
# ---------------------------------------------------------------------------

def test_relu_clamps_negatives():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu(x), [[0.0, 0.0, 2.0]])


def test_relu_backward_masks():
    x = np.array([-1.0, 3.0])
    assert np.array_equal(relu_backward(x, np.ones(2)), [0.0, 1.0])


def test_maxpool_picks_block_max():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    pooled, _ = maxpool2x2(x)
    assert pooled.reshape(()) == 4.0


def test_maxpool_constant_halves_size():
    x = np.full((1, 8, 6, 2), 0.3)
    pooled, _ = maxpool2x2(x)
    assert pooled.shape == (1, 4, 3, 2)
    assert np.allclose(pooled, 0.3)


def test_maxpool_drops_odd_trailing_row_col():
    x = np.zeros((1, 5, 5, 1))
    x[0, 4, 4, 0] = 99.0  # lives in the dropped margin
    pooled, _ = maxpool2x2(x)
    assert pooled.shape == (1, 2, 2, 1)
    assert pooled.max() == 0.0


def test_maxpool_backward_routes_to_argmax_only():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    pooled, route = maxpool2x2(x)
    dx = maxpool2x2_backward(x.shape, route, np.ones_like(pooled))
    assert np.array_equal(dx.reshape(2, 2), [[0, 0], [0, 1]])


def test_maxpool_backward_first_wins_on_ties():
    x = np.full((1, 2, 2, 1), 5.0)
    pooled, route = maxpool2x2(x)
    dx = maxpool2x2_backward(x.shape, route, np.ones_like(pooled))
    assert dx.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_maxpool_backward_matches_fd():
    rng = np.random.default_rng(2)
    x = rng.random((1, 6, 6, 2))
    upstream = rng.random((1, 3, 3, 2))

    def loss(flat):
        pooled, _ = maxpool2x2(flat.reshape(x.shape))
        return float(np.sum(pooled * upstream))

    _, route = maxpool2x2(x)
    dx = maxpool2x2_backward(x.shape, route, upstream)
    fd = grad_fd(loss, x.reshape(-1))
    assert np.max(np.abs(fd - dx.reshape(-1))) < 1e-6


def _ref_maxpool2x2_backward(x_shape, route, dout):
    """Scatter through a (m, h2, w2, 4, c) window array with put_along_axis."""
    m, h, w, c = x_shape
    h2, w2 = h // 2, w // 2
    dwin = np.zeros((m, h2, w2, 4, c))
    np.put_along_axis(dwin, route[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dwin = dwin.reshape(m, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    dx = np.zeros(x_shape)
    dx[:, : 2 * h2, : 2 * w2, :] = dwin.reshape(m, 2 * h2, 2 * w2, c)
    return dx


@pytest.mark.parametrize("shape", [(3, 8, 8, 4), (2, 7, 9, 3), (2, 16, 16, 8)])
@pytest.mark.parametrize("ties", [False, True])
def test_maxpool_backward_is_bitwise_the_scatter_reference(shape, ties):
    rng = np.random.default_rng(sum(shape))
    x = np.zeros(shape) if ties else rng.standard_normal(shape)
    pooled, route = maxpool2x2(x)
    dout = rng.standard_normal(pooled.shape)
    dout[rng.random(pooled.shape) < 0.2] = -0.0  # signed zeros must survive the copy
    dx = maxpool2x2_backward(shape, route, dout)
    want = _ref_maxpool2x2_backward(shape, route, dout)
    assert np.array_equal(dx, want) and dx.tobytes() == want.tobytes()


def _masked_copy_maxpool2x2_backward(x_shape, route, dout):
    """One masked strided copy per window entry."""
    h2, w2 = x_shape[1] // 2, x_shape[2] // 2
    dx = np.zeros(x_shape)
    for e in range(4):  # entry e = 2 * row + col of its window
        np.copyto(dx[:, e // 2 : 2 * h2 : 2, e % 2 : 2 * w2 : 2, :], dout, where=route == e)
    return dx


def test_maxpool_backward_is_bitwise_the_masked_copies():
    nan_window = np.zeros((1, 4, 4, 2))
    nan_window[0, 2, 3, 1] = np.nan  # its window pools to NaN and routes to entry 3
    rng = np.random.default_rng(12)
    for x in (*_pool_inputs(), nan_window):
        pooled, route = maxpool2x2(x)
        dout = rng.standard_normal(pooled.shape)
        dout[rng.random(pooled.shape) < 0.3] = -0.0
        dx = maxpool2x2_backward(x.shape, route, dout)
        want = _masked_copy_maxpool2x2_backward(x.shape, route, dout)
        assert np.array_equal(dx, want) and np.array_equal(np.signbit(dx), np.signbit(want))
    assert route[0, 1, 1, 1] == 3 and dx[0, 3, 3, 1] == dout[0, 1, 1, 1]


# ---------------------------------------------------------------------------
# softmax head
# ---------------------------------------------------------------------------

def _constant_logits_model(logits):
    """An 8x8 network whose logits are ``logits`` for every image: all
    weights zero except the dense bias."""
    model = build_cnn((8, 8), seed=0)
    flat = np.zeros(model.n_params)
    flat[-2:] = logits
    return model.with_params(flat)


def test_softmax_even_logits():
    images = np.random.default_rng(0).random((2, 8, 8))
    loss, acc = cnn_loss_and_grads(_constant_logits_model([0.0, 0.0]), images, [0, 1])[:2]
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert acc == 0.5  # ties go to class 0


def test_softmax_confident_correct_has_tiny_loss():
    images = np.random.default_rng(1).random((3, 8, 8))
    loss, acc = cnn_loss_and_grads(_constant_logits_model([20.0, -20.0]), images, [0, 0, 0])[:2]
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert acc == 1.0


def test_softmax_survives_huge_logits():
    # exp(1000) overflows, and softmax's p[1] underflows to 0, yet the
    # log-sum-exp form gives the exact loss.
    images = np.random.default_rng(2).random((2, 8, 8))
    loss, acc = cnn_loss_and_grads(_constant_logits_model([1000.0, 0.0]), images, [1, 1])[:2]
    assert loss == pytest.approx(1000.0, rel=1e-12)
    assert acc == 0.0


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_architectures_per_input_size():
    assert conv_specs_for(8, 8) == ((8, 3),)
    assert conv_specs_for(28, 28) == ((8, 3), (16, 3))
    assert conv_specs_for(32, 32) == ((8, 3), (16, 3))


def test_build_shapes_chain_8x8():
    model = build_cnn((8, 8), seed=0)
    assert model.kernels[0].shape == (3, 3, 1, 8)
    assert model.dense_w.shape == (4 * 4 * 8, 2)


def test_build_shapes_chain_28x28():
    model = build_cnn((28, 28), seed=0)
    assert [k.shape for k in model.kernels] == [(3, 3, 1, 8), (3, 3, 8, 16)]
    assert model.dense_w.shape == (7 * 7 * 16, 2)


def test_init_is_seeded_and_bounded():
    a = build_cnn((8, 8), seed=5)
    b = build_cnn((8, 8), seed=5)
    c = build_cnn((8, 8), seed=6)
    assert np.array_equal(a.pack(), b.pack())
    assert not np.array_equal(a.pack(), c.pack())
    bound = 1.0 / np.sqrt(9)
    assert np.max(np.abs(a.kernels[0])) <= bound


def test_pack_unpack_round_trip():
    model = build_cnn((8, 8), seed=1)
    flat = model.pack()
    again = model.with_params(flat)
    assert np.array_equal(again.pack(), flat)
    with pytest.raises(TrainingError, match=f"expected {flat.size} weights, got {flat.size - 1}"):
        model.with_params(flat[:-1])


def test_model_probs_rows_sum_to_one():
    # The dense-bias gradient is the batch mean of (probs - onehot), so its
    # two entries cancel exactly when every probability row sums to one.
    rng = np.random.default_rng(3)
    model = build_cnn((8, 8), seed=2)
    for labels in ([0, 1, 1, 0], [1, 1, 1, 1]):
        _, _, grads = cnn_loss_and_grads(model, rng.random((4, 8, 8)), labels)
        assert abs(grads[-2] + grads[-1]) < 1e-12
        assert abs(grads[-1]) > 1e-3


def test_full_model_gradient_matches_fd():
    """End-to-end loss gradient on the 8x8 network against FD."""
    rng = np.random.default_rng(4)
    model = build_cnn((8, 8), seed=3)
    images = rng.random((3, 8, 8))
    labels = np.array([0, 1, 0])
    _, _, grads = cnn_loss_and_grads(model, images, labels)

    def loss(flat):
        l, _, _ = cnn_loss_and_grads(model.with_params(flat), images, labels)
        return l

    fd = grad_fd(loss, model.pack())
    assert np.max(np.abs(fd - grads)) < 1e-6


def test_full_model_gradient_matches_fd_two_block():
    """Same check on the deeper 16x16-input variant (two conv blocks)."""
    rng = np.random.default_rng(5)
    model = build_cnn((16, 16), seed=4)
    images = rng.random((2, 16, 16))
    labels = np.array([1, 0])
    _, _, grads = cnn_loss_and_grads(model, images, labels)

    def loss(flat):
        l, _, _ = cnn_loss_and_grads(model.with_params(flat), images, labels)
        return l

    fd = grad_fd(loss, model.pack())
    assert np.max(np.abs(fd - grads)) < 1e-6


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _toy_sets(rng, n_train=8, n_test=4, hw=(8, 8)):
    def sample(label):
        img = rng.random(hw) * 0.2
        if label == 0:
            img[: hw[0] // 2, :] += 0.7
        else:
            img[hw[0] // 2 :, :] += 0.7
        return np.clip(img, 0, 1)

    def dataset(n):
        labels = np.arange(n) % 2
        return Dataset(np.stack([sample(label) for label in labels]), labels)

    return dataset(n_train), dataset(n_test)


def test_zero_lr_keeps_weights():
    rng = np.random.default_rng(6)
    train, test = _toy_sets(rng)
    model = build_cnn((8, 8), seed=7)
    rows, params = train_cnn(model, train, test, TrainConfig(epochs=1, lr0=0.0, seed=7))
    assert np.array_equal(params, model.pack())
    assert len(rows) == 1


def test_cnn_training_is_deterministic():
    rng = np.random.default_rng(7)
    train, test = _toy_sets(rng)
    model = build_cnn((8, 8), seed=8)
    cfg = TrainConfig(epochs=3, seed=8)
    rows1, params1 = train_cnn(model, train, test, cfg)
    rows2, params2 = train_cnn(model, train, test, cfg)
    assert rows1.tobytes() == rows2.tobytes()
    assert np.array_equal(params1, params2)


def test_cnn_learns_separable_toy_data():
    rng = np.random.default_rng(8)
    train, test = _toy_sets(rng, n_train=12)
    model = build_cnn((8, 8), seed=9)
    rows, _ = train_cnn(model, train, test, TrainConfig(epochs=20, seed=9))
    assert rows[-1].train_loss < rows[0].train_loss
    assert rows[-1].train_acc == 1.0


def test_evaluate_matches_training_metrics():
    rng = np.random.default_rng(9)
    train, test = _toy_sets(rng)
    model = build_cnn((8, 8), seed=10)
    rows, params = train_cnn(model, train, test, TrainConfig(epochs=2, seed=10))
    loss, acc = cnn_loss_and_grads(model.with_params(params), train.images, train.labels)[:2]
    assert loss == pytest.approx(rows[-1].train_loss, abs=1e-12)
    assert acc == pytest.approx(rows[-1].train_acc, abs=1e-12)


def _reference_train_cnn(model, train, test, cfg, aug):
    """The epoch loop spelled out from the public per-image and per-call pieces."""
    params, moments, rows = model.pack(), None, []
    rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(cfg.epochs):
        images = train.images
        if aug is not None:
            images = [augment_sample(img, aug, rng) for img in images]
        _, _, grads = cnn_loss_and_grads(model.with_params(params), images, train.labels)
        params, moments = adam_step(params, grads, moments, epoch + 1, lr_at(epoch, cfg))
        stepped = model.with_params(params)
        metrics = []
        for data in (train, test):
            metrics += cnn_loss_and_grads(stepped, data.images, data.labels)[:2]
        rows.append((epoch, *metrics))
    return np.array(rows, dtype=METRICS), params


@pytest.mark.parametrize("hw", [(8, 8), (16, 16)])
@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True, contrast=True)])
def test_train_cnn_equals_the_reference_loop_exactly(hw, aug):
    train, test = _toy_sets(np.random.default_rng(11), n_train=8, n_test=6, hw=hw)
    model = build_cnn(hw, seed=12)
    cfg = TrainConfig(epochs=5, seed=3)
    rows, params = train_cnn(model, train, test, cfg, augment_cfg=aug)
    ref_rows, ref_params = _reference_train_cnn(model, train, test, cfg, aug)
    assert rows.dtype == METRICS and rows.tobytes() == ref_rows.tobytes()
    assert params.tobytes() == ref_params.tobytes()


def _reference_forward(model, x, labels):
    """The forward pass composed from the reference layers, one call each."""
    caches = []
    for kern, bias in zip(model.kernels, model.conv_biases):
        act = relu(conv2d(x, kern, bias))
        pooled, route = maxpool2x2(act)
        caches.append((x, act.shape, route, pooled))
        x = pooled
    flat = x.reshape(len(x), -1)
    logits = flat @ model.dense_w + model.dense_b
    return (cnn._xent_rows(logits, labels), float(np.mean(np.argmax(logits, axis=1) == labels)),
            (caches, flat, x.shape, logits, labels))


@pytest.mark.parametrize("scale", [1, 2])  # 8x8 digits, and block-upsampled to 16x16
def test_train_cnn_on_digits_equals_the_reference_layers_exactly(scale, monkeypatch):
    digits = load_digits_csv(os.path.join(os.path.dirname(__file__), "..", "data", "digits.csv"))
    train, test = binary_subset(digits, 0, 1, 20, 10, seed=4)
    if scale > 1:
        up = np.ones((scale, scale))
        train, test = (Dataset(np.kron(d.images, up), d.labels) for d in (train, test))
    model = build_cnn(train.images.shape[1:], seed=5)
    cfg = TrainConfig(epochs=5, seed=6)
    rows, params = train_cnn(model, train, test, cfg)
    monkeypatch.setattr(cnn, "_forward", _reference_forward)
    ref_rows, ref_params = train_cnn(model, train, test, cfg)
    assert rows.tobytes() == ref_rows.tobytes()
    assert params.tobytes() == ref_params.tobytes()
