"""The training loop shared by both models.

:func:`fit` is the one epoch loop: full-batch Adam with the learning rate
starting at 0.1 and decaying 5% per epoch.  Each model module (``qcnn``,
``cnn``) gives :func:`fit` the same four functions (encode, bind, forward,
backward), each forward scoring the batch it runs, and :func:`fit` owns the
one forward cache for both: it binds each parameter vector once, and without
augmentation hands the metrics' train-set forward after a step to the next
step's backward.  An epoch augments (if enabled) and encodes its batch in one
array pass.  :func:`grad_fd` is the central finite-difference oracle that
each model's exact gradient is held to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, augment_batch


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; every run is fully determined by these + data."""

    epochs: int
    lr0: float = 0.1
    lr_decay: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr0 >= 0:
            raise TrainingError(f"lr0 must be >= 0, got {self.lr0}")
        if not 0 <= self.lr_decay < 1:
            raise TrainingError(f"lr_decay must be in [0, 1), got {self.lr_decay}")


METRICS_HEADER = "epoch,train_loss,train_acc,test_loss,test_acc"
# one record per epoch; a run is an (epochs,) np.recarray of these, a cell (R, epochs)
METRICS = np.dtype([(name, np.float64) for name in METRICS_HEADER.split(",")])


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Geometric decay: lr0 * (1 - lr_decay)**epoch, epoch counted from 0."""
    if epoch < 0:
        raise TrainingError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * (1.0 - cfg.lr_decay) ** epoch


def grad_fd(loss_fn, params, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient; the oracle both models' exact gradients are held to."""
    if step <= 0:
        raise TrainingError(f"step must be > 0, got {step}")
    params = np.asarray(params, dtype=np.float64)
    grads = np.zeros_like(params)
    for k in range(params.size):
        bumped = params.copy()
        bumped[k] = params[k] + step
        up = loss_fn(bumped)
        bumped[k] = params[k] - step
        down = loss_fn(bumped)
        grads[k] = (up - down) / (2.0 * step)
    return grads


# ---------------------------------------------------------------------------
# optimizer and epoch loop
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, moments, t: int, lr: float):
    """One bias-corrected Adam update; moments=None starts from zeros."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise TrainingError(f"params {params.shape} vs grads {grads.shape}")
    if t < 1:
        raise TrainingError(f"Adam step index starts at 1, got {t}")
    if moments is None:
        m = np.zeros_like(params)
        v = np.zeros_like(params)
    else:
        m, v = moments
        if m.shape != params.shape or v.shape != params.shape:
            raise TrainingError("moment shapes do not match params")
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), (m, v)


def _check_binary(labels, what: str) -> np.ndarray:
    labels = np.asarray(labels).reshape(-1)
    if labels.size == 0:
        raise TrainingError(f"{what} set is empty")
    if not np.isin(labels, (0, 1)).all():
        raise TrainingError(f"{what} labels must be 0/1, got {sorted(set(labels.tolist()))}")
    return labels.astype(np.int64)


# glibc's malloc hands a heap's free top back to the kernel once it exceeds
# twice the largest mmap-ed block freed so far (mallopt(3)), and the main
# arena, which serves the main thread, would then page-fault a step's few MB
# of temporaries in again every epoch, for either model.  Freeing one block
# of this many float64s (8 MB) lifts that bar to 16 MB for the whole
# process; other allocators just see one free.
_HEAP_TRIM_LIFT = 1 << 20


def fit(params, train_set, test_set, cfg: TrainConfig, augment_cfg: AugmentConfig | None,
        *, encode, bind, forward, backward):
    """Full-batch Adam training; returns (metrics, final params).

    The metrics are an (epochs,) :data:`METRICS` recarray, one record per
    epoch after its step, so ``rows[-1].test_acc`` is the final test accuracy.

    The model supplies ``encode(pixels)``, its input for an (m, h, w) float stack that
    fit divides from a set's levels by its ``scale``; ``bind(params)``, called once per
    parameter vector; ``forward(bound, batch, labels) -> (loss, accuracy, cache)``, which
    scores its batch; and ``backward(bound, cache) -> grads``, which takes labels from the cache.
    The clean sets stay in their 8-bit levels for the whole run: each forward that reads
    one divides and encodes it afresh, and fit keeps no encoded copy of its own.

    After each step the clean test set and then the clean train set are forwarded, so
    that only the train forward's cache stays alive, and it is handed to the next step's
    backward: without augmentation it is that step's own forward.  Augmentation, when
    enabled, divides and redraws the training images every epoch in one
    :func:`augment_batch` pass over a stream seeded by [seed, 1]; the train forward's
    cache is then dropped, and the gradient forwards the augmented batch.  A step that
    leaves a non-finite parameter or loss raises TrainingError.
    """
    rows = np.recarray(cfg.epochs, METRICS)
    np.empty(_HEAP_TRIM_LIFT)  # allocated and freed at once
    labels = (_check_binary(train_set.labels, "train"), _check_binary(test_set.labels, "test"))
    inputs = lambda i: encode((train_set, test_set)[i].pixels(slice(None)))  # clean set i
    augmenting = augment_cfg is not None and augment_cfg.enabled
    aug_rng = np.random.default_rng([cfg.seed, 1]) if augmenting else None

    bound = bind(params)
    # (loss, accuracy, cache) of the forward the next backward starts from;
    # popped straight into that call, so that no name here keeps the cache alive
    kept = [] if augmenting else [forward(bound, inputs(0), labels[0])]
    moments = None
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        # a diverging step overflows; the finiteness check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            if augmenting:
                kept.append(forward(bound, encode(augment_batch(
                    train_set.pixels(slice(None)), augment_cfg, aug_rng)), labels[0]))
            grads = backward(bound, kept.pop()[2])
            params, moments = adam_step(params, grads, moments, epoch + 1, lr)
            del bound  # free the old parameters' model before the next bind
            bound = bind(params)
            te_loss, te_acc = forward(bound, inputs(1), labels[1])[:2]  # its cache dies here
            kept.append(forward(bound, inputs(0), labels[0]))
            tr_loss, tr_acc = kept[-1][:2]
        if augmenting:
            kept.clear()
        if not (np.all(np.isfinite(params)) and np.isfinite(tr_loss) and np.isfinite(te_loss)):
            raise TrainingError(f"training diverged: non-finite parameters or loss after the step "
                                f"at seed {cfg.seed}, epoch {epoch}, lr {lr:g}")
        rows[epoch] = epoch, tr_loss, tr_acc, te_loss, te_acc
    return rows, params


# ---------------------------------------------------------------------------
# metrics on disk
# ---------------------------------------------------------------------------

def format_metrics(rows) -> str:
    """CSV text: header then one 6-significant-digit row per epoch of a METRICS array."""
    lines = [METRICS_HEADER]
    for epoch, tr_loss, tr_acc, te_loss, te_acc in rows.tolist():
        lines.append(f"{int(epoch)},{tr_loss:.6g},{tr_acc:.6g},{te_loss:.6g},{te_acc:.6g}")
    return "\n".join(lines) + "\n"


def mean_metrics(runs) -> np.recarray:
    """Per-epoch mean of an (R, epochs) METRICS array over its R runs."""
    if not len(runs):
        raise TrainingError("no runs to average")
    # one (epochs * 5, R) reduction along its contiguous last axis sums each
    # value's R runs in the same pairwise order as a 1-D np.mean of them
    values = runs.view(np.float64).reshape(len(runs), -1)
    return np.ascontiguousarray(values.T).mean(axis=1).view(METRICS, np.recarray)
