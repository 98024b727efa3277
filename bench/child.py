"""One benchmark invocation in a fresh process.

Usage: python3 bench/child.py SPEC.json

SPEC holds the qcnnlab argument list (or null for a set-up-only run), the
dataset settings `load_pool` needs, whether to trace, and where to write the
result JSON.  The process times set-up (`import qcnnlab.cli` plus
`harness.load_pool`), then the one `cli.main` call, each in wall seconds and
in CPU seconds of the process (all threads), and reports its own peak RSS.
With tracing on, spans are recorded only around `cli.main`.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import threading
import time
import traceback

LAYERS = ("cli", "harness", "datasets", "augment", "embedding", "qcnn",
          "simulator", "training", "cnn")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0, c0 = time.perf_counter(), time.process_time()
    import qcnnlab.cli
    import qcnnlab.harness
    cfg = qcnnlab.harness.ExperimentConfig(**spec["pool"])
    qcnnlab.harness.load_pool(cfg)
    setup_s, setup_cpu_s = time.perf_counter() - t0, time.process_time() - c0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(qcnnlab.__file__).startswith(src + os.sep):
        print(f"qcnnlab imported from {qcnnlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = {"setup_wall_s": setup_s, "setup_cpu_s": setup_cpu_s}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from spans import Tracer, summarize
            tracer = Tracer()
            tracer.install([importlib.import_module(f"qcnnlab.{m}") for m in LAYERS])
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            rc = qcnnlab.cli.main(spec["argv"])
        except Exception:
            traceback.print_exc()
            rc = None
        result["run_s"] = time.perf_counter() - t1
        result["run_cpu_s"] = time.process_time() - c1
        result["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = summarize(tracer.spans, threading.get_ident())
            result["trace"]["gate_ops"] = _gate_ops(cfg, spec["n_qubits"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _gate_ops(cfg, n_qubits: int) -> int:
    """Gate count of the workload's circuit at the default depth every workload runs."""
    if not n_qubits:
        return 0
    import numpy as np
    from qcnnlab.qcnn import build_architecture, circuit_ops
    arch = build_architecture(n_qubits, cfg.depth)
    return len(circuit_ops(arch, np.zeros(arch.param_count)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
