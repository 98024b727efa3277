"""Acceptance suite: ten gate criteria, one verdict line printed per criterion.

Each test computes its evidence first, prints a single PASS/FAIL line
(visible under `pytest -s` or in the captured output of a failure), and then
asserts.  Stated tolerances and runtime bounds are enforced as written.
"""

import os
import time

import numpy as np
import pytest

from qcnnlab.augment import AugmentConfig, augment_sample, contrast, flip_h, preset, rotate
from qcnnlab.cnn import build_cnn, cnn_loss_and_grads, train_cnn
from qcnnlab.datasets import binary_subset, load_digits_csv
from qcnnlab.harness import ExperimentConfig, compare_da, run_experiment
from qcnnlab.qcnn import (
    MAX_READOUT_WIRES,
    QcnnError,
    batch_p1s,
    build_architecture,
    circuit_ops,
    forward_branching,
    grad_exact,
    mse_loss,
    split_params,
    train_qcnn,
)
from qcnnlab.simulator import (
    apply_gate,
    axis_rotation_matrix,
    controlled,
    dense_circuit_oracle,
    ising_matrix,
    is_unitary,
    u3_matrix,
    zero_state,
)
from qcnnlab.training import TrainConfig, grad_fd

DIGITS = os.path.join(os.path.dirname(__file__), "..", "data", "digits.csv")


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_gate_algebra():
    """1000 draws per constructor unitary to 1e-10; fixed-point identities."""
    start = time.time()
    rng = np.random.default_rng(11)
    ok = np.allclose(u3_matrix(0, 0, 0), np.eye(2), atol=1e-12)
    ok &= np.allclose(u3_matrix(np.pi, 0, np.pi), np.array([[0, 1], [1, 0]]), atol=1e-12)
    worst = 0.0
    for _ in range(1000):
        th, ph, la = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        mats = [
            u3_matrix(th, ph, la),
            ising_matrix("XX", th),
            ising_matrix("YY", ph),
            ising_matrix("ZZ", la),
            axis_rotation_matrix(th, axis),
            controlled(u3_matrix(th, ph, la)),
        ]
        for m in mats:
            dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            worst = max(worst, float(dev))
        ok &= all(is_unitary(m, 1e-10) for m in mats)
        # IsingZZ closed form: diagonal phases e^{-i t/2} on even parity,
        # e^{+i t/2} on odd parity
        zz = ising_matrix("ZZ", th)
        expect = np.diag(np.exp(-1j * th / 2 * np.array([1, -1, -1, 1])))
        ok &= np.allclose(zz, expect, atol=1e-12)
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _verdict(1, "gate algebra", bool(ok),
             f"worst unitarity deviation {worst:.2e}, {elapsed:.1f}s of 5s budget")


def test_criterion_02_oracle_equivalence():
    """apply_gate composition vs the dense Kronecker oracle, 100 circuits."""
    start = time.time()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        n_gates = int(rng.integers(1, 9))
        gates = []
        for _ in range(n_gates):
            if rng.random() < 0.5 or n < 2:
                g = u3_matrix(*rng.uniform(-np.pi, np.pi, 3))
                targets = (int(rng.integers(0, n)),)
            else:
                g = ising_matrix(str(rng.choice(["XX", "YY", "ZZ"])),
                                 float(rng.uniform(-np.pi, np.pi)))
                a, b = rng.choice(n, size=2, replace=False)
                targets = (int(a), int(b))
            gates.append((g, targets))
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        stepped = state
        for g, t in gates:
            stepped = apply_gate(stepped, g, t)
        dense = dense_circuit_oracle(gates, n) @ state
        worst = max(worst, float(np.max(np.abs(stepped - dense))))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _verdict(2, "oracle equivalence", ok,
             f"worst elementwise difference {worst:.2e}, {elapsed:.1f}s of 30s budget")


def test_criterion_03_deferred_measurement():
    """Controlled-gate pooling vs explicit measure-and-branch, 50 draws each."""
    start = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    for n, d in ((4, 1), (6, 2)):
        arch = build_architecture(n, d)
        for _ in range(50):
            params = rng.uniform(-np.pi, np.pi, arch.param_count)
            pixels = rng.random(2**n)
            delta = abs(batch_p1s(arch, params, [pixels])[0]
                        - forward_branching(arch, params, pixels))
            worst = max(worst, delta)
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 60.0
    _verdict(3, "deferred measurement", ok,
             f"worst |dp1| {worst:.2e}, {elapsed:.1f}s of 60s budget")


def test_criterion_04_gradient_checks():
    """Exact gradients vs central differences for QCNN and CNN models."""
    start = time.time()
    rng = np.random.default_rng(44)
    worst_q = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, 3))
        arch = build_architecture(n, d)
        params = rng.uniform(-np.pi, np.pi, arch.param_count)
        images = [rng.random(2**n) for _ in range(3)]
        labels = rng.integers(0, 2, 3)
        exact = grad_exact(arch, params, images, labels)
        fd = grad_fd(lambda p: mse_loss(batch_p1s(arch, p, images), labels), params)
        worst_q = max(worst_q, float(np.max(np.abs(exact - fd))))

    worst_c = 0.0
    for seed in (0, 1):
        model = build_cnn((8, 8), seed=seed)
        images = rng.random((3, 8, 8))
        labels = np.array([0, 1, 1])
        _, _, grads = cnn_loss_and_grads(model, images, labels)
        fd = grad_fd(lambda f: cnn_loss_and_grads(model.with_params(f), images, labels)[0],
                     model.pack())
        worst_c = max(worst_c, float(np.max(np.abs(grads - fd))))
    elapsed = time.time() - start
    ok = worst_q < 1e-6 and worst_c < 1e-6 and elapsed < 300.0
    _verdict(4, "gradient checks", ok,
             f"worst qcnn {worst_q:.2e}, worst cnn {worst_c:.2e}, "
             f"{elapsed:.0f}s of 300s budget")


def test_criterion_05_parameter_counting():
    """(10,2) gives 99 parameters; layout matches 18d + 4^r - 1 exhaustively
    up to a 5-wire readout, and a wider one is refused."""
    ok = build_architecture(10, 2).param_count == 99
    detail = [f"(10,2) -> {build_architecture(10, 2).param_count}"]
    for n in range(2, 11):
        d = 0
        while True:
            # independent width recurrence: r after d poolings of n wires
            width = n
            feasible = True
            for _ in range(d):
                if width < 2:
                    feasible = False
                    break
                width = (width + 1) // 2
            if not feasible or d > 3:
                break
            if width > MAX_READOUT_WIRES:  # refused before any bind allocates its readout
                with pytest.raises(QcnnError, match=f"a {width}-wire readout .* raise depth"):
                    build_architecture(n, d)
                d += 1
                continue
            arch = build_architecture(n, d)
            expect = 18 * d + 4**width - 1
            ok &= arch.param_count == expect
            ok &= len(arch.remaining_wires) == width
            # the split consumes exactly that many and rejects off-by-one
            split_params(arch, np.zeros(arch.param_count))
            with pytest.raises(Exception):
                split_params(arch, np.zeros(arch.param_count + 1))
            d += 1
    _verdict(5, "parameter counting", bool(ok), "; ".join(detail))


def test_criterion_06_desk_scale_qcnn_accuracy():
    """Digits 0-vs-1 with n=6, d=2: mean test accuracy and N-monotonicity."""
    start = time.time()
    ds = load_digits_csv(DIGITS)
    arch = build_architecture(6, 2)
    means = {}
    for n_per_class in (5, 10, 50):
        accs = []
        for seed in range(5):
            train, test = binary_subset(ds, 0, 1, n_per_class, 100, seed=seed)
            rows, _ = train_qcnn(arch, train, test, TrainConfig(epochs=100, seed=seed))
            accs.append(rows[-1].test_acc)
        means[n_per_class] = float(np.mean(accs))
    elapsed = time.time() - start
    ok = means[50] >= 0.90
    ok &= means[50] >= means[10] - 0.02
    ok &= means[10] >= means[5] - 0.02
    ok &= elapsed < 600.0
    _verdict(6, "desk-scale qcnn accuracy", ok,
             f"mean test acc N=5 {means[5]:.3f}, N=10 {means[10]:.3f}, "
             f"N=50 {means[50]:.3f}, {elapsed:.0f}s of 600s budget")


def test_criterion_07_da_direction(tmp_path):
    """Augmentation moves mean accuracy by at most +0.01 on 0-vs-1 and 0-vs-9."""
    start = time.time()
    cfg = ExperimentConfig(model="qcnn", data_path=DIGITS, class_a=0,
                           class_b=(1, 9), n_per_class=(30,), n_test=100,
                           epochs=100, repetitions=10, base_seed=0,
                           n_qubits=6, depth=2)
    table = compare_da(cfg, str(tmp_path / "da"))
    deltas = {f"0-vs-{r.class_b}": r.delta for r in table.rows}
    mean_delta = float(np.mean([r.delta for r in table.rows]))
    elapsed = time.time() - start
    in_interval = all(-0.06 <= d <= 0.01 for d in deltas.values())
    ok = mean_delta <= 0.01 and elapsed < 1800.0
    detail = (f"deltas {deltas}, mean {mean_delta:+.4f}, "
              f"per-pair interval [-0.06,+0.01] {'held' if in_interval else 'missed'}, "
              f"CSV at {tmp_path / 'da' / 'comparison.csv'}, "
              f"{elapsed:.0f}s of 1800s budget")
    _verdict(7, "augmentation direction", ok, detail)


def test_criterion_08_cnn_baseline():
    """Tiny-N CNN overfits; test accuracy does not degrade with more data."""
    start = time.time()
    ds = load_digits_csv(DIGITS)
    train_acc_10, test_means = [], {}
    for n_per_class in (10, 50):
        te = []
        for seed in range(5):
            tr_set, te_set = binary_subset(ds, 0, 1, n_per_class, 100, seed=seed)
            model = build_cnn((8, 8), seed=seed)
            rows, _ = train_cnn(model, tr_set, te_set, TrainConfig(epochs=200, seed=seed))
            te.append(rows[-1].test_acc)
            if n_per_class == 10:
                train_acc_10.append(rows[-1].train_acc)
        test_means[n_per_class] = float(np.mean(te))
    mean_train_10 = float(np.mean(train_acc_10))
    elapsed = time.time() - start
    ok = mean_train_10 >= 0.95 and test_means[50] >= test_means[10] - 0.02
    catdog_note = "cat/dog data not provided; optional check skipped"
    if os.path.isdir(os.path.join(os.path.dirname(DIGITS), "catdog")):
        catdog_note = "cat/dog directory present; run it via the CLI"
    _verdict(8, "cnn baseline", ok,
             f"train acc at N=10 {mean_train_10:.3f}, test N=10 "
             f"{test_means[10]:.3f} vs N=50 {test_means[50]:.3f}, "
             f"{catdog_note}, {elapsed:.0f}s")


def test_criterion_09_augmentation_properties():
    """Involution, identity, bounds, determinism, and a 10^4-draw sweep."""
    start = time.time()
    rng = np.random.default_rng(99)
    img = rng.random((8, 8))
    ok = np.array_equal(flip_h(flip_h(img)), img)
    ok &= augment_sample(img, AugmentConfig(), rng) is img
    ok &= np.allclose(rotate(img, 0.0), img, atol=1e-15)
    ok &= np.allclose(contrast(img, 1.0), img, atol=1e-15)
    a = augment_sample(img, preset("digits"), np.random.default_rng(5))
    b = augment_sample(img, preset("digits"), np.random.default_rng(5))
    ok &= np.array_equal(a, b)
    cfg = preset("digits")
    draw_rng = np.random.default_rng(7)
    for _ in range(10_000):
        out = augment_sample(img, cfg, draw_rng)
        if not (out.min() >= 0.0 and out.max() <= 1.0):
            ok = False
            break
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    _verdict(9, "augmentation properties", bool(ok),
             f"10^4 draws in bounds, {elapsed:.1f}s of 10s budget")


def test_criterion_10_determinism(tmp_path):
    """Same config, 1 vs 4 worker threads: every CSV byte-identical."""
    cfg1 = ExperimentConfig(model="qcnn", data_path=DIGITS, class_b=(1,),
                            n_per_class=(4,), n_test=10, epochs=3,
                            repetitions=3, base_seed=0, n_qubits=6, depth=1,
                            threads=1)
    cfg4 = ExperimentConfig(model="qcnn", data_path=DIGITS, class_b=(1,),
                            n_per_class=(4,), n_test=10, epochs=3,
                            repetitions=3, base_seed=0, n_qubits=6, depth=1,
                            threads=4)
    out1, out4, out1b = (tmp_path / d for d in ("serial", "threaded", "serial_again"))
    run_experiment(cfg1, str(out1))
    run_experiment(cfg4, str(out4))
    run_experiment(cfg1, str(out1b))
    names = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
    ok = bool(names)
    mismatches = []
    for name in names:
        if (out1 / name).read_bytes() != (out4 / name).read_bytes():
            mismatches.append(f"{name} (threads)")
        if (out1 / name).read_bytes() != (out1b / name).read_bytes():
            mismatches.append(f"{name} (rerun)")
    ok &= not mismatches
    _verdict(10, "determinism", ok,
             f"{len(names)} CSVs compared across thread counts and reruns"
             + (f"; mismatches: {mismatches}" if mismatches else ""))
