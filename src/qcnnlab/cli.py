"""Command-line front end.

Subcommands: train-qcnn, train-cnn, compare-da, augment-preview, selftest.
Settings come from defaults, then an optional `--config` file of
`key = value` lines, then individual flag overrides.  Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from .augment import AugmentError, augment_batch, augment_sample, preset
from .cnn import build_cnn, cnn_loss_and_grads, conv2d, conv_relu_pool, maxpool2x2, maxpool2x2_backward, relu
from .datasets import Dataset, DatasetError, write_digits_csv, write_pgm
from .embedding import EmbeddingError
from .harness import (
    ConfigError,
    ExperimentConfig,
    _check_out_dir,
    _write_atomically,
    compare_da,
    format_comparison,
    load_pool,
    parse_config_file,
    resolve_config,
    run_experiment,
)
from .qcnn import (
    QcnnError,
    batch_p1s,
    build_architecture,
    circuit_ops,
    conv_block_ops,
    flatten_block_ops,
    forward_branching,
    grad_exact,
    mse_loss,
    pool_block_ops,
    split_params,
)
from .simulator import SimulatorError, apply_gate, dense_circuit_oracle, u3_matrix, zero_state
from .training import TrainingError, grad_fd


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_OVERRIDE_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "model")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a `key = value` config file")
    sub.add_argument("--out", required=True, help="output directory")
    for key in _OVERRIDE_KEYS:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                         metavar="V", help="accepted so old configs load; has no effect"
                         if key == "threads" else f"override {key}")


def _resolved_config(args, model: str | None) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: getattr(args, k) for k in _OVERRIDE_KEYS}
    if model is not None:
        overrides["model"] = model
    return resolve_config(file_values, overrides)


def _cmd_train(args, model: str) -> int:
    cfg = _resolved_config(args, model)
    results = run_experiment(cfg, args.out)
    for rr in results:
        print(f"{rr.class_a}-vs-{rr.class_b} N={rr.n_per_class}: "
              f"mean final test acc {rr.mean_final_test_acc:.4f} "
              f"over {len(rr.per_rep_rows)} reps")
    print(f"wrote {args.out}")
    return 0


def _cmd_compare_da(args) -> int:
    cfg = _resolved_config(args, args.model_choice)
    print(format_comparison(compare_da(cfg, args.out))[1], end="")
    print(f"wrote {args.out}")
    return 0


def _cmd_augment_preview(args) -> int:
    for flag, value in (("--count", args.count), ("--seed", args.seed)):
        if value < 0:
            raise UsageError(f"augment-preview: {flag} must be >= 0, got {value}")
    _check_out_dir(args.out)
    cfg = ExperimentConfig(dataset=args.dataset, data_path=args.data_path,
                           resize=int(args.resize))
    pool = load_pool(cfg)
    if not 0 <= args.index < len(pool):
        raise DatasetError(f"index {args.index} outside dataset of {len(pool)} samples")
    image, label = pool.pixels(args.index), pool.labels[args.index]
    try:
        aug_cfg = preset(args.preset if args.preset else cfg.dataset)
    except AugmentError as exc:
        raise UsageError(str(exc)) from exc

    rng = np.random.default_rng(args.seed)
    variants = [augment_sample(image, aug_cfg, rng) for _ in range(args.count)]

    def write(tmp):
        write_pgm(os.path.join(tmp, "original.pgm"), image)
        for k, img in enumerate(variants):
            write_pgm(os.path.join(tmp, f"aug{k}.pgm"), img)
        if image.shape == (8, 8):
            rows = Dataset(np.stack([image] + variants), np.full(1 + len(variants), label))
            write_digits_csv(os.path.join(tmp, "preview.csv"), rows)

    _write_atomically(args.out, write)
    print(f"wrote original + {args.count} variants to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _check_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(6):
            q = int(rng.integers(0, n))
            gates.append((u3_matrix(*rng.uniform(-np.pi, np.pi, 3)), (q,)))
        state = zero_state(n)
        for g, t in gates:
            state = apply_gate(state, g, t)
        dense = dense_circuit_oracle(gates, n) @ zero_state(n)
        assert np.max(np.abs(state - dense)) < 1e-10


def _check_block_build():
    rng = np.random.default_rng(6)
    for n, d in ((4, 1), (6, 2)):
        arch = build_architecture(n, d)
        params = rng.uniform(-np.pi, np.pi, arch.param_count)
        blocks, flat_w = split_params(arch, params)
        per_gate = []
        for depth, wires in enumerate(arch.active_wires):
            per_gate += conv_block_ops(blocks[depth][0], wires, first_depth=(depth == 0))
            per_gate += pool_block_ops(blocks[depth][1], wires)
        per_gate += flatten_block_ops(flat_w, arch.remaining_wires)
        fused = dense_circuit_oracle([(op.matrix, op.targets) for op in circuit_ops(arch, params)], n)
        unfused = dense_circuit_oracle([(op.matrix, op.targets) for op in per_gate], n)
        assert np.max(np.abs(fused - unfused)) < 1e-10


def _check_pooling_branches():
    rng = np.random.default_rng(2)
    for n, d in ((4, 1), (6, 2)):
        arch = build_architecture(n, d)
        for _ in range(5):
            params = rng.uniform(-np.pi, np.pi, arch.param_count)
            pixels = rng.random(2**n)
            a = batch_p1s(arch, params, [pixels])[0]
            b = forward_branching(arch, params, pixels)
            assert abs(a - b) < 1e-12


def _check_gradients():
    rng = np.random.default_rng(3)
    arch = build_architecture(4, 1)
    params = rng.uniform(-np.pi, np.pi, arch.param_count)
    images = [rng.random(16) for _ in range(3)]
    labels = [0, 1, 1]
    exact = grad_exact(arch, params, images, labels)
    fd = grad_fd(lambda p: mse_loss(batch_p1s(arch, p, images), labels), params)
    assert np.max(np.abs(exact - fd)) < 1e-6


def _check_cnn_gradients():
    rng = np.random.default_rng(8)
    model = build_cnn((8, 8), seed=8)
    images = rng.random((2, 8, 8))
    labels = [0, 1]
    _, _, exact = cnn_loss_and_grads(model, images, labels)
    fd = grad_fd(lambda p: cnn_loss_and_grads(model.with_params(p), images, labels)[0],
                 model.pack())
    assert np.max(np.abs(exact - fd)) < 1e-6


def _check_cnn_pooling_order():
    # the fused path reorders dgemm rows, so each row must not depend on its place
    rng = np.random.default_rng(9)
    for m, h, c in ((4, 8, 1), (3, 14, 8)):
        x, kern, bias = rng.random((m, h, h, c)), rng.normal(size=(3, 3, c, 8)), rng.normal(size=8)
        pooled, route = conv_relu_pool(x, kern, bias)
        want, want_route = maxpool2x2(relu(conv2d(x, kern, bias)))
        assert np.array_equal(pooled, want) and np.array_equal(route, want_route)
        dout, dx = rng.normal(size=pooled.shape), np.zeros((m, h, h, 8))
        for e in range(4):
            np.copyto(dx[:, e // 2 :: 2, e % 2 :: 2], dout, where=route == e)
        assert np.array_equal(maxpool2x2_backward(dx.shape, route, dout), dx)


def _check_batched_augment():
    images = np.random.default_rng(7).random((12, 8, 8))
    cfg = preset("digits")
    batched, single = np.random.default_rng([7, 1]), np.random.default_rng([7, 1])
    for _ in range(3):
        one_by_one = np.stack([augment_sample(img, cfg, single) for img in images])
        assert np.array_equal(augment_batch(images, cfg, batched), one_by_one)


def _check_loadtxt_range():
    # load_digits_csv's array pass needs loadtxt to refuse, not wrap to 16, out-of-range uint8
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as load_digits_csv sets it
        for field in ("272", "-240"):
            np.testing.assert_raises((ValueError, Warning), np.loadtxt, [field], dtype=np.uint8)


_SELFTEST_CHECKS = (
    ("dense circuit oracle", _check_dense_oracle),
    ("fused blocks match per-gate circuit", _check_block_build),
    ("pooling branch equivalence", _check_pooling_branches),
    ("gradient engines agree", _check_gradients),
    ("cnn gradient matches finite differences", _check_cnn_gradients),
    ("cnn pooling order matches the reference layers", _check_cnn_pooling_order),
    ("batched augmentation matches per-image draws", _check_batched_augment),
    ("np.loadtxt refuses out-of-range uint8 fields", _check_loadtxt_range),
)


def _cmd_selftest(_args) -> int:
    failed = 0
    for name, fn in _SELFTEST_CHECKS:
        try:
            fn()
        except Exception as exc:  # report every check before deciding
            print(f"selftest: {name}: FAIL ({exc})")
            failed += 1
        else:
            print(f"selftest: {name}: ok")
    if failed:
        print(f"selftest: {failed} of {len(_SELFTEST_CHECKS)} checks failed")
        return 3
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qcnnlab",
                     description="train and compare small quantum/classical image classifiers")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, model in (("train-qcnn", "qcnn"), ("train-cnn", "cnn")):
        sub = subs.add_parser(name, help=f"run a seeded {model} experiment grid")
        _add_experiment_flags(sub)
        sub.set_defaults(func=lambda a, m=model: _cmd_train(a, m))

    sub = subs.add_parser("compare-da",
                          help="train with and without augmentation on identical seeds")
    _add_experiment_flags(sub)
    sub.add_argument("--model", dest="model_choice", default=None, metavar="V",
                     help="override model (qcnn or cnn)")
    sub.set_defaults(func=_cmd_compare_da)

    sub = subs.add_parser("augment-preview",
                          help="write one image and several augmented variants")
    sub.add_argument("--dataset", default="digits")
    sub.add_argument("--data-path", dest="data_path", default="data/digits.csv")
    sub.add_argument("--resize", type=int, default=0)
    sub.add_argument("--preset", default=None, help="augmentation recipe name")
    sub.add_argument("--index", type=int, default=0)
    sub.add_argument("--count", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_augment_preview)

    sub = subs.add_parser("selftest", help="run the built-in oracle and invariant checks")
    sub.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (SimulatorError, EmbeddingError, QcnnError, TrainingError, AugmentError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
