"""The training loop shared by both models, and the QCNN's loss and gradients.

:func:`fit` is the one epoch loop: full-batch Adam with the learning rate
starting at 0.1 and decaying 5% per epoch.  The QCNN gradient engine is
exact, after the adjoint method of Jones & Gacon (arXiv:2009.02823): a
reverse sweep over the fused blocks folds the bra and ket of the whole
batch into one small environment matrix per block and reads every
d(loss)/d(angle) of that block off it with the closed-form block
derivatives; a central finite-difference oracle checks it.  Batches are
evolved as columns of one matrix, so an epoch is a few dozen small matmuls
rather than a Python loop over samples.  Both models give :func:`fit` the
same four functions (bind, forward, score, backward), and :func:`fit` owns
the one forward cache for both: it binds each parameter vector once (for the
QCNN, one circuit build, every block with its derivatives from one
closed-form table), and without augmentation hands the metrics' train-set
forward after a step to the next step's backward.  An epoch augments (if
enabled) and embeds its batch in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .augment import AugmentConfig, augment_batch
from .embedding import embed_columns
from .qcnn import Architecture, circuit_ops, run_columns
from .simulator import _layout_plan


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


def _batch(p1s, labels, what: str, dtype=None):
    """Flat float64 ``p1s`` and flat ``labels``, refused when empty or unequal in size."""
    p1s = np.asarray(p1s, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=dtype).reshape(-1)
    if p1s.size == 0:
        raise TrainingError(f"{what} over an empty batch")
    if p1s.size != labels.size:
        raise TrainingError(f"{p1s.size} probabilities vs {labels.size} labels")
    return p1s, labels


def mse_loss(p1s, labels) -> float:
    p1s, labels = _batch(p1s, labels, "loss", np.float64)
    return float(np.mean((p1s - labels) ** 2))


def accuracy(p1s, labels) -> float:
    """Share of samples whose class decision p1 > 0.5 matches the label; ties go to class 0."""
    p1s, labels = _batch(p1s, labels, "accuracy")
    return float(np.mean((p1s > 0.5) == labels))


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Geometric decay: lr0 * (1 - lr_decay)**epoch, epoch counted from 0."""
    if epoch < 0:
        raise TrainingError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * (1.0 - cfg.lr_decay) ** epoch


def batch_p1s(arch: Architecture, params, images) -> np.ndarray:
    """Class-1 probability for every image, sharing one gate-sequence build."""
    _, p1s = run_columns(arch, circuit_ops(arch, params), embed_columns(images, arch.n_qubits))
    return p1s


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def grad_fd(loss_fn, params, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient; the oracle the exact engine is held to."""
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


def _forward(arch: Architecture, ops, cols: np.ndarray):
    """(p1 per column, cache): the cache holds the final states for :func:`_backward`."""
    ket, p1s = run_columns(arch, ops, cols)
    return p1s, [ket, p1s]


def _score(p1s, labels) -> tuple[float, float]:
    return mse_loss(p1s, labels), accuracy(p1s, labels)


def _backward(arch: Architecture, ops, cache: list, labels) -> np.ndarray:
    """Exact MSE gradient via a reverse sweep with local environments.

    Forward gives phi = U_L ... U_1 psi and p1 = <phi|P1|phi> per column.
    The loss chain rule weights column s by c_s = 2 (p1_s - y_s) / m, so
    the sweep starts from bra = P1 phi c.  Sweeping blocks j = L..1, with
    bra = (U_L ... U_{j+1})^dag P1 phi c and ket the state entering block
    j, both with the block's target bits gathered into the rows, the
    block's environment E = ket @ bra^H contracts every other wire and
    the batch into a k x k matrix, and dL/dtheta = 2 Re tr(dU_j/dtheta E)
    for all of the block's parameters at once.  Shared parameters
    accumulate over every block they drive.  One gather per block moves ket
    and bra between layouts (:func:`_layout_plan`); the sweep empties ``cache``
    so that its first gather frees the forward's states, whoever holds the list.
    It holds three (2**n, m) complex states: bra, ket, and the new copy that each gather
    or product makes of one of them.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    ket, p1s = cache
    cache.clear()
    shape = ket.shape
    bra = ket * (2.0 * (p1s - labels) / labels.size)
    bra[((np.arange(len(bra)) >> arch.readout_wire) & 1) == 0] = 0
    grads = np.zeros(arch.param_count, dtype=np.float64)
    gathers = _layout_plan(tuple([op.targets for op in ops]), arch.n_qubits)[1]
    for op, gather in zip(reversed(ops), gathers):
        ket = ket.reshape(shape)[gather]
        rows = bra.reshape(shape)[gather].reshape(len(op.matrix), -1)
        del bra
        inv = op.matrix.conj().T
        ket = inv @ ket.reshape(len(inv), -1)
        bra = inv @ rows
        env = ket @ np.conjugate(rows, out=rows).T
        del rows
        index, derivs = op.grads
        grads[index] += 2.0 * np.real(derivs.reshape(len(index), -1) @ env.T.reshape(-1))
    return grads


def grad_exact(arch: Architecture, params, images, labels) -> np.ndarray:
    """Exact gradient of mse_loss over the batch w.r.t. every parameter."""
    labels = np.asarray(labels).reshape(-1)
    if len(images) == 0:
        raise TrainingError("gradient over an empty batch")
    if len(images) != labels.size:
        raise TrainingError(f"{len(images)} images vs {labels.size} labels")
    ops = circuit_ops(arch, params)
    _, cache = _forward(arch, ops, embed_columns(images, arch.n_qubits))
    return _backward(arch, ops, cache, labels)


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


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Seeded uniform(-pi, pi) start for every angle."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, arch.param_count)


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
        *, encode, bind, forward, score, backward):
    """Full-batch Adam training; returns (metrics, final params).

    The metrics are an (epochs,) :data:`METRICS` recarray, one record per
    epoch after its step, so ``rows[-1].test_acc`` is the final test accuracy.

    The model supplies ``encode(pixels)``, its input for an (m, h, w) float stack that
    fit divides from a set's levels by its ``scale``; ``bind(params)``, called once per
    parameter vector; ``forward(bound, batch) -> (outputs, cache)``; ``score(outputs,
    labels) -> (loss, accuracy)``; and ``backward(bound, cache, labels) -> grads``.
    The clean sets stay in their 8-bit levels for the whole run: each forward that reads
    one divides and encodes it afresh, and fit keeps no encoded copy of its own.

    After each step the clean test set and then the clean train set are forwarded and
    scored, so that only the train forward's cache stays alive, and it is handed to the
    next step's backward: without augmentation it is that step's own forward.
    Augmentation, when enabled, divides and redraws the training images every epoch in
    one :func:`augment_batch` pass over a stream seeded by [seed, 1]; the scores' cache
    is then dropped, and the gradient forwards the augmented batch.  A step that leaves
    a non-finite parameter or loss raises TrainingError.
    """
    rows = np.recarray(cfg.epochs, METRICS)
    np.empty(_HEAP_TRIM_LIFT)  # allocated and freed at once
    labels = (_check_binary(train_set.labels, "train"), _check_binary(test_set.labels, "test"))
    inputs = lambda i: encode((train_set, test_set)[i].pixels(slice(None)))  # clean set i
    augmenting = augment_cfg is not None and augment_cfg.enabled
    aug_rng = np.random.default_rng([cfg.seed, 1]) if augmenting else None

    bound = bind(params)
    # (outputs, cache) of the forward the next backward starts from; popped
    # straight into that call, so that no name here keeps the cache alive
    kept = [] if augmenting else [forward(bound, inputs(0))]
    moments = None
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        # a diverging step overflows; the finiteness check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            if augmenting:
                kept.append(forward(bound, encode(
                    augment_batch(train_set.pixels(slice(None)), augment_cfg, aug_rng))))
            grads = backward(bound, kept.pop()[1], labels[0])
            params, moments = adam_step(params, grads, moments, epoch + 1, lr)
            del bound  # free the old parameters' model before the next bind
            bound = bind(params)
            test_out = forward(bound, inputs(1))[0]
            kept.append(forward(bound, inputs(0)))
            tr_loss, tr_acc = score(kept[-1][0], labels[0])
            te_loss, te_acc = score(test_out, labels[1])
        if augmenting:
            kept.clear()
        if not (np.all(np.isfinite(params)) and np.isfinite(tr_loss) and np.isfinite(te_loss)):
            raise TrainingError(f"training diverged: non-finite parameters or loss after the step "
                                f"at seed {cfg.seed}, epoch {epoch}, lr {lr:g}")
        rows[epoch] = epoch, tr_loss, tr_acc, te_loss, te_acc
    return rows, params


def train_qcnn(arch: Architecture, train_set, test_set, cfg: TrainConfig,
               augment_cfg: AugmentConfig | None = None):
    """:func:`fit` the circuit from :func:`init_params` on the MSE loss.

    Each parameter vector is bound to its fused blocks with their
    derivatives (:func:`circuit_ops`) once, and they serve both the metrics
    after a step and the next step's gradient, so an E-epoch run builds the
    circuit E + 1 times.  It runs 2E + 1 forwards without augmentation,
    where each gradient reuses the metrics' train-set forward, and 3E with
    it.
    """
    return fit(init_params(arch, cfg.seed), train_set, test_set, cfg, augment_cfg,
               encode=partial(embed_columns, n_qubits=arch.n_qubits),
               bind=partial(circuit_ops, arch), forward=partial(_forward, arch),
               score=_score, backward=partial(_backward, arch))


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
