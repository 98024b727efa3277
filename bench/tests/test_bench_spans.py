"""Self time, wait time and wrapping in the benchmark's span tracer."""

import threading
import types

import pytest

from spans import Span, Tracer, summarize, wait_seconds

MAIN, WORKER = 1, 2


def _span(name, thread, start, end, parent=None, error=False):
    sp = Span(name, name.split(".")[0], thread, start, end, parent, error)
    if parent is not None:
        parent.child_s += end - start
    return sp


def test_self_time_subtracts_direct_children_on_nested_spans():
    root = _span("cli.main", MAIN, 0.0, 10.0)
    harness = _span("harness.run_experiment", MAIN, 1.0, 9.0, root)
    load = _span("datasets.load_digits_csv", MAIN, 1.5, 2.5, harness)
    train = _span("training.train_qcnn", MAIN, 3.0, 8.0, harness)
    circuit = _span("qcnn.circuit_ops", MAIN, 4.0, 6.0, train)
    gate = _span("simulator.u3_matrix", MAIN, 4.5, 5.0, circuit)
    inner = _span("qcnn.pauli_word", MAIN, 5.0, 5.5, circuit)
    out = summarize([root, harness, load, train, circuit, gate, inner], MAIN)

    layers = out["layers"]
    assert layers["cli"]["self_s"] == pytest.approx(2.0)
    assert layers["harness"]["self_s"] == pytest.approx(2.0)
    assert layers["datasets"]["self_s"] == pytest.approx(1.0)
    assert layers["training"]["self_s"] == pytest.approx(3.0)
    # a same-layer child is subtracted from its parent and counted once
    assert layers["qcnn"]["self_s"] == pytest.approx(1.5)
    assert layers["qcnn"]["calls"] == 2
    assert layers["simulator"]["self_s"] == pytest.approx(0.5)
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(root.duration)
    assert out["functions"]["qcnn.circuit_ops"]["self_s"] == pytest.approx(1.0)
    assert out["harness_wait_s"] == 0.0


def test_errors_are_counted_per_layer():
    root = _span("harness.load_pool", MAIN, 0.0, 1.0)
    bad = _span("datasets.load_pgm", MAIN, 0.2, 0.4, root, error=True)
    assert summarize([root, bad], MAIN)["layers"]["datasets"]["errors"] == 1


def test_wait_is_main_thread_harness_self_time_while_a_worker_is_busy():
    root = _span("cli.main", MAIN, 0.0, 10.0)
    run = _span("harness.run_experiment", MAIN, 0.5, 9.5, root)
    load = _span("harness.load_pool", MAIN, 0.5, 1.5, run)
    csv = _span("datasets.load_digits_csv", MAIN, 0.6, 1.4, load)
    # worker roots overlap each other and the main thread's load_pool child
    w1 = _span("datasets.binary_subset", WORKER, 1.0, 2.0)
    w2 = _span("training.train_qcnn", WORKER, 2.0, 5.0)
    w3 = _span("training.train_qcnn", 3, 4.0, 7.0)
    _span("qcnn.circuit_ops", WORKER, 2.5, 3.0, w2)
    spans = [root, run, load, csv, w1, w2, w3]

    # busy workers: [1.0, 7.0].  Harness self intervals on the main thread:
    # run_experiment [1.5, 9.5] overlaps 5.5; load_pool [0.5, 0.6] and
    # [1.4, 1.5] overlap 0.1.  Worker-side spans are never wait.
    assert wait_seconds(spans, MAIN) == pytest.approx(5.6)
    out = summarize(spans, MAIN)
    assert out["harness_wait_s"] == pytest.approx(5.6)
    # raw harness self time is 8.0 + 0.2; the wait leaves it
    assert out["layers"]["harness"]["self_s"] == pytest.approx(8.2 - 5.6)


def test_wait_is_zero_without_workers():
    root = _span("harness.run_experiment", MAIN, 0.0, 3.0)
    assert wait_seconds([root], MAIN) == 0.0


def _fake_package():
    low = types.ModuleType("pkg.low")
    exec("def leaf(x):\n    return x + 1\n"
         "def boom():\n    raise ValueError('no')\n"
         "def _private():\n    return 0\n", low.__dict__)
    high = types.ModuleType("pkg.high")
    high.leaf = low.leaf  # as `from .low import leaf` binds it
    exec("def entry(x):\n    return leaf(x) + _helper()\n"
         "def _helper():\n    return leaf(0)\n", high.__dict__)
    return low, high


def test_install_wraps_every_binding_and_uninstall_restores():
    low, high = _fake_package()
    original = low.leaf
    tracer = Tracer()
    assert tracer.install([low, high]) == 3  # leaf, boom, entry
    assert high.leaf is low.leaf is not original
    assert high.entry(1) == 3
    with pytest.raises(ValueError):
        low.boom()
    tracer.uninstall()
    assert low.leaf is original and high.leaf is original

    out = summarize(tracer.spans, threading.get_ident())
    assert out["layers"]["low"]["calls"] == 3
    assert out["layers"]["low"]["errors"] == 1
    assert out["layers"]["high"]["calls"] == 1
    (entry,) = [sp for sp in tracer.spans if sp.name == "high.entry"]
    assert all(sp.parent is entry for sp in tracer.spans if sp.name == "low.leaf")


def test_install_leaves_augment_preset_unwrapped():
    augment = types.ModuleType("pkg.augment")
    exec("def preset(name):\n    return name\n"
         "def rotate(x):\n    return x\n", augment.__dict__)
    tracer = Tracer()
    assert tracer.install([augment]) == 1
    augment.preset("digits")
    augment.rotate(0)
    assert [sp.name for sp in tracer.spans] == ["augment.rotate"]
    tracer.uninstall()


def test_spans_on_a_worker_thread_have_their_own_stack():
    low, high = _fake_package()
    tracer = Tracer()
    tracer.install([low, high])
    worker = threading.Thread(target=high.entry, args=(1,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    threads = {sp.thread for sp in tracer.spans}
    assert threads == {worker.ident}
    out = summarize(tracer.spans, threading.get_ident())
    assert out["layers"]["high"]["calls"] == 1 and out["harness_wait_s"] == 0.0
