"""Tests for loss, gradient engines, Adam, and the training loop."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qcnnlab import cnn, qcnn, simulator, training
from qcnnlab.augment import AugmentConfig, augment_sample, preset
from qcnnlab.embedding import embed_columns
from qcnnlab.datasets import Dataset
from qcnnlab.cnn import build_cnn, cnn_loss_and_grads, train_cnn
from qcnnlab.qcnn import (
    accuracy,
    batch_p1s,
    build_architecture,
    circuit_ops,
    grad_exact,
    init_params,
    mse_loss,
    train_qcnn,
)
from qcnnlab.training import (
    METRICS,
    TrainConfig,
    TrainingError,
    adam_step,
    fit,
    format_metrics,
    grad_fd,
    lr_at,
    mean_metrics,
)


def _random_images(rng, n_qubits, count):
    return [rng.random(2**n_qubits) for _ in range(count)]


def _toy_sets(rng, n_train=6, n_test=4):
    """Tiny 8x8 two-class sets with mass in different halves of the frame."""
    def sample(label):
        img = rng.random((8, 8)) * 0.2
        if label == 0:
            img[:4, :] += 0.7
        else:
            img[4:, :] += 0.7
        return np.clip(img, 0, 1)

    def dataset(n):
        labels = np.arange(n) % 2
        return Dataset(np.stack([sample(label) for label in labels]), labels)

    return dataset(n_train), dataset(n_test)


# ---------------------------------------------------------------------------
# loss and schedule
# ---------------------------------------------------------------------------

def test_mse_zero_when_exact():
    assert mse_loss([0.0, 1.0, 1.0], [0, 1, 1]) == 0.0


def test_mse_single_half_probability():
    assert mse_loss([0.5], [1]) == pytest.approx(0.25)


def test_mse_maximally_wrong():
    assert mse_loss([0.0, 1.0], [1, 0]) == pytest.approx(1.0)


def test_mse_rejects_empty_and_mismatched():
    with pytest.raises(TrainingError, match="loss over an empty batch"):
        mse_loss([], [])
    with pytest.raises(TrainingError, match="1 probabilities vs 2 labels"):
        mse_loss([0.5], [1, 0])


def test_accuracy_rejects_empty_and_mismatched():
    with pytest.raises(TrainingError, match="accuracy over an empty batch"):
        accuracy([], [])
    with pytest.raises(TrainingError, match="1 probabilities vs 2 labels"):
        accuracy([0.5], [1, 0])


def test_accuracy_uses_half_threshold():
    assert accuracy([0.9, 0.1, 0.5], [1, 0, 0]) == pytest.approx(1.0)
    assert accuracy([0.4, 0.6], [1, 0]) == 0.0


def test_lr_schedule_first_three_epochs():
    cfg = TrainConfig(epochs=1)
    assert lr_at(0, cfg) == pytest.approx(0.1, rel=1e-12)
    assert lr_at(1, cfg) == pytest.approx(0.095, rel=1e-12)
    assert lr_at(2, cfg) == pytest.approx(0.09025, rel=1e-12)


def test_config_validation():
    with pytest.raises(TrainingError, match="epochs must be >= 1, got 0"):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError, match=r"lr_decay must be in \[0, 1\), got 1.0"):
        TrainConfig(epochs=1, lr_decay=1.0)
    with pytest.raises(TrainingError, match="lr0 must be >= 0, got nan"):
        TrainConfig(epochs=1, lr0=float("nan"))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_constant_loss_is_zero():
    g = grad_fd(lambda p: 3.5, np.zeros(4))
    assert np.array_equal(g, np.zeros(4))


def test_fd_quadratic():
    g = grad_fd(lambda p: p[0] ** 2, np.array([1.0, 0.0]))
    assert g[0] == pytest.approx(2.0, abs=1e-7)
    assert g[1] == 0.0


def test_fd_rejects_nonpositive_step():
    with pytest.raises(TrainingError, match="step must be > 0, got 0.0"):
        grad_fd(lambda p: 0.0, np.zeros(1), step=0.0)


# ---------------------------------------------------------------------------
# exact gradients
# ---------------------------------------------------------------------------

def test_exact_matches_fd_on_random_instances():
    """20 random (architecture, params, batch) draws; max abs diff < 1e-6."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 7))
        d = int(rng.integers(1, 3))
        arch = build_architecture(n, d)
        params = rng.uniform(-np.pi, np.pi, arch.param_count)
        images = _random_images(rng, n, 3)
        labels = rng.integers(0, 2, 3)

        exact = grad_exact(arch, params, images, labels)
        fd = grad_fd(lambda p: mse_loss(batch_p1s(arch, p, images), labels), params)
        worst = max(worst, float(np.max(np.abs(exact - fd))))
    assert worst < 1e-6, f"worst gradient discrepancy {worst}"


def test_exact_matches_fd_at_ten_qubits():
    rng = np.random.default_rng(2025)
    arch = build_architecture(10, 2)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = _random_images(rng, 10, 3)
    labels = [0, 1, 1]
    exact = grad_exact(arch, params, images, labels)
    fd = grad_fd(lambda p: mse_loss(batch_p1s(arch, p, images), labels), params)
    assert np.max(np.abs(exact - fd)) < 1e-6


def test_exact_zero_at_stationary_point():
    """Labels equal to the model's own outputs put the loss at its minimum."""
    rng = np.random.default_rng(5)
    arch = build_architecture(4, 1)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = _random_images(rng, 4, 4)
    p1s = batch_p1s(arch, params, images)
    g = grad_exact(arch, params, images, p1s)
    assert np.max(np.abs(g)) < 1e-9


def test_z_rotation_on_readout_wire_has_zero_gradient():
    """On the 1-survivor circuit the final Z-word rotation commutes with the
    readout projector, so its weight can never move the loss."""
    rng = np.random.default_rng(6)
    arch = build_architecture(2, 1)
    assert arch.param_count == 21  # 18 + (X, Y, Z) words
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = _random_images(rng, 2, 3)
    labels = [0, 1, 0]
    z_idx = 20
    exact = grad_exact(arch, params, images, labels)
    fd = grad_fd(lambda p: mse_loss(batch_p1s(arch, p, images), labels), params)
    assert abs(exact[z_idx]) < 1e-12
    assert abs(fd[z_idx]) < 1e-9


def test_gradient_and_loss_are_2pi_periodic():
    rng = np.random.default_rng(7)
    arch = build_architecture(4, 1)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = _random_images(rng, 4, 2)
    labels = [1, 0]
    base_loss = mse_loss(batch_p1s(arch, params, images), labels)
    base_grad = grad_exact(arch, params, images, labels)
    for k in (0, 7, arch.param_count - 1):
        shifted = params.copy()
        shifted[k] += 2 * np.pi
        assert mse_loss(batch_p1s(arch, shifted, images), labels) == pytest.approx(
            base_loss, abs=1e-9)
        assert np.allclose(grad_exact(arch, shifted, images, labels), base_grad, atol=1e-9)


def test_batched_p1_matches_single_forward():
    rng = np.random.default_rng(8)
    arch = build_architecture(5, 2)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = _random_images(rng, 5, 4)
    batched = batch_p1s(arch, params, images)
    singles = [batch_p1s(arch, params, [img])[0] for img in images]
    assert np.allclose(batched, singles, atol=1e-12)


def test_grad_exact_rejects_bad_batches():
    arch = build_architecture(2, 0)
    with pytest.raises(TrainingError, match="gradient over an empty batch"):
        grad_exact(arch, np.zeros(arch.param_count), [], [])
    with pytest.raises(TrainingError, match="1 images vs 2 labels"):
        grad_exact(arch, np.zeros(arch.param_count), [np.ones(4)], [0, 1])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    out, (m, v) = adam_step(params, np.zeros(2), None, t=1, lr=0.1)
    assert np.array_equal(out, params)
    assert np.array_equal(m, np.zeros(2)) and np.array_equal(v, np.zeros(2))


def test_adam_first_step_is_signed_lr():
    """With bias correction the first update is lr * g/(|g| + eps)."""
    g = np.array([0.3, -0.004])
    out, _ = adam_step(np.zeros(2), g, None, t=1, lr=0.1)
    assert np.allclose(out, [-0.1, 0.1], atol=1e-5)


def test_adam_two_steps_descend_a_quadratic():
    params = np.array([2.0])
    moments = None
    loss = lambda p: float(p[0] ** 2)
    start = loss(params)
    for t in (1, 2):
        params, moments = adam_step(params, 2 * params, moments, t, lr=0.1)
    assert loss(params) < start


def test_adam_shape_mismatch():
    with pytest.raises(TrainingError, match=r"params \(2,\) vs grads \(3,\)"):
        adam_step(np.zeros(2), np.zeros(3), None, 1, 0.1)
    with pytest.raises(TrainingError, match="moment shapes do not match params"):
        adam_step(np.zeros(2), np.zeros(2), (np.zeros(3), np.zeros(2)), 1, 0.1)


def test_adam_requires_positive_step_index():
    with pytest.raises(TrainingError, match="Adam step index starts at 1, got 0"):
        adam_step(np.zeros(1), np.zeros(1), None, 0, 0.1)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_learning_rate_keeps_params_but_records_metrics():
    rng = np.random.default_rng(9)
    train, test = _toy_sets(rng)
    arch = build_architecture(6, 1)
    cfg = TrainConfig(epochs=1, lr0=0.0, seed=3)
    rows, params = train_qcnn(arch, train, test, cfg)
    assert len(rows) == 1
    assert np.array_equal(params, init_params(arch, 3))
    assert 0.0 <= rows[0].train_acc <= 1.0


def test_training_is_deterministic():
    rng = np.random.default_rng(10)
    train, test = _toy_sets(rng)
    arch = build_architecture(6, 1)
    cfg = TrainConfig(epochs=3, seed=8)
    rows1, params1 = train_qcnn(arch, train, test, cfg)
    rows2, params2 = train_qcnn(arch, train, test, cfg)
    assert rows1.tobytes() == rows2.tobytes()
    assert np.array_equal(params1, params2)


def test_training_with_augmentation_is_deterministic_and_distinct():
    rng = np.random.default_rng(11)
    train, test = _toy_sets(rng)
    arch = build_architecture(6, 1)
    cfg = TrainConfig(epochs=3, seed=8)
    aug = AugmentConfig(rotation=True, contrast=True)
    rows_a, params_a = train_qcnn(arch, train, test, cfg, augment_cfg=aug)
    rows_b, params_b = train_qcnn(arch, train, test, cfg, augment_cfg=aug)
    assert rows_a.tobytes() == rows_b.tobytes() and np.array_equal(params_a, params_b)
    rows_plain, _ = train_qcnn(arch, train, test, cfg)
    assert rows_plain.tobytes() != rows_a.tobytes()  # the gradient saw different images


@pytest.mark.parametrize("scale", [16, 255])
@pytest.mark.parametrize("augment", ["none", "digits"])
@pytest.mark.parametrize("model", ["qcnn", "cnn"])
def test_fit_on_8bit_levels_is_bitwise_fit_on_divided_pixels(model, augment, scale):
    """A set of a loader's levels trains exactly as its pixels divided beforehand."""
    rng = np.random.default_rng(scale)
    levels = [Dataset(rng.integers(1, scale + 1, (n, 8, 8), dtype=np.uint8), np.arange(n) % 2,
                      scale) for n in (6, 4)]
    divided = [Dataset(ds.images / scale, ds.labels) for ds in levels]
    cfg, aug = TrainConfig(epochs=3, seed=2), preset(augment)
    runs = []
    for train, test in (levels, divided):
        if model == "qcnn":
            runs.append(train_qcnn(build_architecture(6, 1), train, test, cfg, aug))
        else:
            runs.append(train_cnn(build_cnn((8, 8), seed=2), train, test, cfg, aug))
    (rows_l, params_l), (rows_d, params_d) = runs
    assert rows_l.tobytes() == rows_d.tobytes()
    assert params_l.tobytes() == params_d.tobytes()


def test_training_reduces_loss_on_separable_toy_data():
    rng = np.random.default_rng(12)
    train, test = _toy_sets(rng, n_train=10, n_test=6)
    arch = build_architecture(6, 2)
    rows, _ = train_qcnn(arch, train, test, TrainConfig(epochs=15, seed=1))
    assert rows[-1].train_loss < rows[0].train_loss


def test_training_rejects_nonbinary_labels():
    rng = np.random.default_rng(13)
    train, test = _toy_sets(rng)
    bad = Dataset(train.images, train.labels + 1)
    arch = build_architecture(6, 1)
    with pytest.raises(TrainingError, match=r"train labels must be 0/1, got \[1, 2\]"):
        train_qcnn(arch, bad, test, TrainConfig(epochs=1, seed=0))


def test_evaluate_returns_loss_and_accuracy():
    """Each metrics row scores the clean sets with the parameters after its step."""
    rng = np.random.default_rng(14)
    train, test = _toy_sets(rng)
    arch = build_architecture(6, 1)
    cfg = TrainConfig(epochs=2, seed=4)
    rows, _ = train_qcnn(arch, train, test, cfg, augment_cfg=AugmentConfig(rotation=True))
    _, params = train_qcnn(arch, train, test, TrainConfig(epochs=1, seed=4),
                           augment_cfg=AugmentConfig(rotation=True))
    for data, loss, acc in ((train, rows[0].train_loss, rows[0].train_acc),
                            (test, rows[0].test_loss, rows[0].test_acc)):
        p1s = batch_p1s(arch, params, data.images)
        assert loss == mse_loss(p1s, data.labels) and loss >= 0.0
        assert acc == accuracy(p1s, data.labels) and 0.0 <= acc <= 1.0


def test_divergent_step_raises_training_error():
    train, test = _toy_sets(np.random.default_rng(15))
    cfg = TrainConfig(epochs=3, seed=2)
    # a stand-in model whose batch is its input list
    model = dict(encode=list, bind=lambda p: p)
    finite_forward = lambda p, x, y: (0.25, 0.5, None)
    with pytest.raises(TrainingError, match="seed 2, epoch 0, lr 0.1"):
        fit(np.zeros(3), train, test, cfg, None, **model, forward=finite_forward,
            backward=lambda p, cache: np.full_like(p, np.nan))
    with pytest.raises(TrainingError, match="seed 2, epoch 0, lr 0.1"):
        fit(np.zeros(3), train, test, cfg, None, **model, backward=lambda p, cache: p + 1,
            forward=lambda p, x, y: (np.inf if len(x) == len(test) else 0.25, 0.5, None))
    rows, _ = fit(np.zeros(3), train, test, cfg, None, **model,
                  backward=lambda p, cache: p + 1, forward=finite_forward)
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# one circuit build per parameter vector
# ---------------------------------------------------------------------------

def _record_calls(monkeypatch, module, name, keep):
    """Patch ``module.name`` to append keep(args, result) per call."""
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        out = real(*args)
        calls.append(keep(args, out))
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


def _count_calls(monkeypatch, name):
    return _record_calls(monkeypatch, qcnn, name, lambda args, out: args)


@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True, contrast=True)])
def test_an_epoch_builds_the_circuit_once(monkeypatch, aug):
    """E epochs build E + 1 circuits: one per parameter vector."""
    train, test = _toy_sets(np.random.default_rng(16))
    calls = _count_calls(monkeypatch, "circuit_ops")
    train_qcnn(build_architecture(6, 1), train, test, TrainConfig(epochs=4, seed=1), augment_cfg=aug)
    assert len(calls) == 4 + 1


def _reference_fit(arch, train, test, cfg, aug):
    """The epoch loop spelled out from the public per-image and per-call pieces."""
    params, moments, rows = init_params(arch, cfg.seed), None, []
    rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(cfg.epochs):
        images = train.images
        if aug is not None:
            images = [augment_sample(img, aug, rng) for img in images]
        grads = grad_exact(arch, params, images, train.labels)
        params, moments = adam_step(params, grads, moments, epoch + 1, lr_at(epoch, cfg))
        metrics = []
        for data in (train, test):
            p1s = batch_p1s(arch, params, data.images)
            metrics += [mse_loss(p1s, data.labels), accuracy(p1s, data.labels)]
        rows.append((epoch, *metrics))
    return np.array(rows, dtype=METRICS), params


@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True, contrast=True),
                                 AugmentConfig(flip_horizontal=True, rotation=True)])
def test_train_qcnn_equals_the_reference_loop_exactly(aug):
    train, test = _toy_sets(np.random.default_rng(17), n_train=8, n_test=6)
    arch = build_architecture(6, 2)
    cfg = TrainConfig(epochs=5, seed=3)
    rows, params = train_qcnn(arch, train, test, cfg, augment_cfg=aug)
    ref_rows, ref_params = _reference_fit(arch, train, test, cfg, aug)
    assert rows.dtype == METRICS and rows.tobytes() == ref_rows.tobytes()
    assert params.tobytes() == ref_params.tobytes()


@pytest.mark.parametrize("model", ["qcnn", "cnn"])
@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True, contrast=True)])
def test_fit_applies_the_gradient_at_each_epochs_params_and_batch(monkeypatch, model, aug):
    """Every step's gradient is the one computed afresh from that step's
    parameters and batch, and E epochs run 2E + 1 forwards without
    augmentation (each gradient reuses the metrics' train forward) and 3E
    with it."""
    train, test = _toy_sets(np.random.default_rng(18))
    epochs, labels = 4, train.labels
    steps = _record_calls(monkeypatch, training, "adam_step", lambda args, out: args[:2])
    batches = _record_calls(monkeypatch, training, "augment_batch", lambda args, out: out)
    if model == "qcnn":
        arch = build_architecture(6, 1)
        forwards = _record_calls(monkeypatch, qcnn, "_forward", lambda args, out: None)
        train_qcnn(arch, train, test, TrainConfig(epochs=epochs, seed=1), augment_cfg=aug)
        fresh = lambda params, images: grad_exact(arch, params, images, labels)
    else:
        net = build_cnn((8, 8), seed=1)
        forwards = _record_calls(monkeypatch, cnn, "_forward", lambda args, out: None)
        train_cnn(net, train, test, TrainConfig(epochs=epochs, seed=1), augment_cfg=aug)
        fresh = lambda params, images: cnn_loss_and_grads(net.with_params(params), images, labels)[2]
    assert len(forwards) == (3 * epochs if aug else 2 * epochs + 1)
    assert len(steps) == epochs and len(batches) == (epochs if aug else 0)
    for epoch, (params, grads) in enumerate(steps):
        images = batches[epoch] if aug else train.images
        assert np.array_equal(grads, fresh(params, images))


class _RecordedGrads(tuple):
    """An op's (indices, derivatives) that calls ``seen()`` whenever the sweep unpacks it."""

    def __new__(cls, grads, seen):
        out = super().__new__(cls, grads)
        out.seen = seen
        return out

    def __iter__(self):
        self.seen()
        return super().__iter__()


@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True)])
def test_the_sweep_frees_the_forward_states_block_by_block(monkeypatch, aug):
    """No forward's states are alive while the next forward runs, and the sweep
    drops the forward it starts from with its first gather, before block 1."""
    train, test = _toy_sets(np.random.default_rng(19))
    arch = build_architecture(6, 1)
    states, at_block = [], []
    alive = lambda *_: sum(ref() is not None for ref in states)

    def at_forward_end(args, out):
        count = alive()
        states.append(weakref.ref(out[0]))
        return count

    def recorded_ops(arch, params):
        seen = lambda: at_block.append(alive())
        return [replace(op, grads=_RecordedGrads(op.grads, seen)) for op in circuit_ops(arch, params)]

    at_forward = _record_calls(monkeypatch, qcnn, "run_columns", at_forward_end)
    monkeypatch.setattr(qcnn, "circuit_ops", recorded_ops)
    train_qcnn(arch, train, test, TrainConfig(epochs=3, seed=1), augment_cfg=aug)
    blocks = len(circuit_ops(arch, init_params(arch, 1)))
    assert at_forward == [0] * len(at_forward)
    assert at_block == [0] * blocks * 3


@pytest.mark.parametrize("aug", [None, AugmentConfig(rotation=True)])
def test_no_cnn_forward_cache_is_alive_while_the_next_forward_runs(monkeypatch, aug):
    """The CNN side of the same rule: each backward drops the cache it is handed,
    and the test forward keeps none, so no earlier forward's activations are alive
    when the next forward starts."""
    train, test = _toy_sets(np.random.default_rng(20))
    flats = []
    alive = lambda: sum(ref() is not None for ref in flats)

    def at_forward_end(args, out):
        count = alive()
        flats.append(weakref.ref(out[2][1]))
        return count

    at_forward = _record_calls(monkeypatch, cnn, "_forward", at_forward_end)
    train_cnn(build_cnn((8, 8), seed=1), train, test, TrainConfig(epochs=3, seed=1), augment_cfg=aug)
    assert len(at_forward) == (9 if aug else 7)
    assert at_forward == [0] * len(at_forward)


def test_a_ten_qubit_fit_holds_at_most_three_states_and_a_half(monkeypatch):
    """The adjoint sweep's three (2**n, m) complex states set the live peak: a
    forward holds two, and the clean sets stay 8-bit between forwards.  Four
    states (a float64 embedding of each clean set kept for the whole run) fail.
    The heap lift's 8 MB block is shrunk, or it would set tracemalloc's peak."""
    monkeypatch.setattr(training, "_HEAP_TRIM_LIFT", 1)
    rng = np.random.default_rng(21)
    train, test = (Dataset(rng.integers(1, 256, (64, 32, 32), dtype=np.uint8), np.arange(64) % 2, 255)
                   for _ in range(2))
    arch, cfg = build_architecture(10, 2), TrainConfig(epochs=2, seed=0)
    train_qcnn(arch, train, test, cfg)  # fills the plan and word caches
    state = 16 * 2**10 * 64
    tracemalloc.start()
    try:
        train_qcnn(arch, train, test, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * state + 256 * 1024  # slack: one circuit build and the metrics


def test_a_run_builds_one_layout_plan_per_architecture():
    train, test = _toy_sets(np.random.default_rng(20))
    simulator._layout_plan.cache_clear()
    for k, (n, d) in enumerate(((6, 1), (7, 2)), start=1):
        for aug in (None, AugmentConfig(rotation=True)):
            train_qcnn(build_architecture(n, d), train, test, TrainConfig(epochs=3, seed=1), augment_cfg=aug)
        assert simulator._layout_plan.cache_info().misses == k


# ---------------------------------------------------------------------------
# metrics formatting
# ---------------------------------------------------------------------------

def _metrics(*rows):
    return np.array(list(rows), dtype=METRICS).view(np.recarray)


def test_metrics_csv_layout():
    rows = _metrics((0, 0.25, 0.5, 0.251234567, 0.75),
                    (1, 0.2, 1.0 / 3.0, 0.19, 0.8))
    text = format_metrics(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
    assert lines[1] == "0,0.25,0.5,0.251235,0.75"
    assert lines[2].startswith("1,0.2,0.333333,")


def test_mean_metrics_averages_elementwise():
    runs = np.stack([_metrics((0, 0.2, 0.5, 0.3, 0.5)), _metrics((0, 0.4, 1.0, 0.1, 0.7))])
    mean = mean_metrics(runs)
    assert mean.shape == (1,) and mean[0].epoch == 0
    assert mean[0].tolist()[1:] == pytest.approx((0.3, 0.75, 0.2, 0.6))


def test_mean_metrics_single_run_is_identity():
    a = _metrics((0, 0.2, 0.5, 0.3, 0.5), (1, 0.1, 0.9, 0.2, 0.8))
    assert mean_metrics(a[None]).tobytes() == a.tobytes()


@pytest.mark.parametrize("reps", [1, 2, 7, 8, 9, 20])
def test_mean_metrics_is_bitwise_the_per_epoch_mean(reps):
    rng = np.random.default_rng(reps)
    runs = np.stack([_metrics(*[(e, *(rng.random(4) * 10.0 ** rng.integers(-6, 6, 4)).tolist())
                                for e in range(5)]) for _ in range(reps)])
    want = _metrics(*[tuple(float(np.mean([run[e][f] for run in runs])) for f in METRICS.names)
                      for e in range(5)])
    assert mean_metrics(runs).tobytes() == want.tobytes()


def test_mean_metrics_rejects_no_runs():
    with pytest.raises(TrainingError, match="no runs to average"):
        mean_metrics(np.recarray((0, 3), METRICS))
