"""qcnnlab benchmark: time the user-facing commands end to end.

Usage, from the repository root:

    python3 bench/run.py --workload qcnn-digits --seed 0 --seconds 20 --trace 0

Each invocation of the workload's `qcnnlab` command runs in a fresh child
process (bench/child.py), one at a time, until the measuring window is
spent.  Every invocation's outputs are checked (bench/outputs.py).  With
`--trace 0` the end-to-end metrics are reported; with `--trace 1` traced
and untraced invocations alternate and the per-layer metrics are reported.
The human-readable table comes first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from child import LAYERS
from outputs import check_invocation
from workloads import DIGITS_CSV, WORKLOADS, base_seed, write_catdog_pgms

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 9           # set-up-only children, run before the measuring window
LAST_START_S = 130.0     # only the first invocation of each kind starts after this
KILL_AT_S = 160.0        # any child still running then is killed and counts as failed
# printed for the reader but not in BENCHMARK.json (bench/README.md gives
# each reason): wall-clock times, epochs_per_s (a constant over run_s, so
# run_s bounds it), the seed-dependent accuracy and loss, and failed_frac,
# which is 0 on a healthy commit and travels as failed/attempted
PRINTED_ONLY = ("setup_wall_s", "run_s", "epochs_per_s", "final_test_acc",
                "final_train_loss", "failed_frac")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, env: dict) -> dict:
    """Machine and version facts; ``env`` is the environment the children get."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    top = _git(root, "rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(root)
    status = _git(root, "status", "--porcelain") if in_repo else None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: env.get(k) for k in BLAS_ENV},
        "git_sha": _git(root, "rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs child processes for one workload inside a private work directory."""

    def __init__(self, root: str, work: str, workload, seed: int, reference: dict | None):
        self.root, self.work, self.workload = root, work, workload
        self.base_seed = base_seed(seed)
        self.reference = reference
        self.data_dir = None
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        if workload.single_thread:
            # --threads 1 alone still lets OpenBLAS start a thread per CPU;
            # a single-threaded baseline must not compete for the other CPU.
            self.env.update({k: "1" for k in BLAS_ENV})
        self.pool = {"dataset": workload.dataset, "data_path": DIGITS_CSV}
        if workload.pgm_input:
            self.data_dir = os.path.relpath(os.path.join(work, "catdog"), root)
            write_catdog_pgms(os.path.join(root, DIGITS_CSV), os.path.join(root, self.data_dir),
                              self.base_seed)
            self.pool["data_path"] = self.data_dir
        self.count = 0

    def child(self, argv, trace: bool, timeout: float) -> tuple[dict | None, float]:
        """Run one child; returns (its result JSON or None, wall seconds)."""
        self.count += 1
        spec_path = os.path.join(self.work, f"spec{self.count}.json")
        result_path = os.path.join(self.work, f"result{self.count}.json")
        spec = {"argv": argv, "pool": self.pool, "trace": trace, "result": result_path,
                "src": os.path.join(self.root, "src"), "n_qubits": self.workload.n_qubits}
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                  cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"child {self.count} timed out after {timeout:.0f} s", file=sys.stderr)
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not os.path.isfile(result_path):
            print(f"child {self.count} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None, wall
        if proc.stderr:
            sys.stderr.write(proc.stderr[-2000:])
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), wall

    def invoke(self, trace: bool, timeout: float) -> tuple[dict, float]:
        """One full command run plus its output check."""
        out_rel = os.path.relpath(os.path.join(self.work, f"out{self.count + 1}"), self.root)
        argv = self.workload.argv(self.base_seed, out_rel, self.data_dir)
        result, wall = self.child(argv, trace, timeout)
        out_abs = os.path.join(self.root, out_rel)
        if result is None:
            result = {"rc": None}
        check = check_invocation(out_abs, self.workload, result.get("rc"), self.reference)
        shutil.rmtree(out_abs, ignore_errors=True)
        result.update(traced=trace, ok=check.ok, reason=check.reason,
                      finals=check.finals, digests=check.digests)
        return result, wall


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
    """Set-up-only children, then invocations until the window is spent.

    Every set-up sample comes from a set-up-only child started before the
    window, so each workload's set-up is timed in the same conditions.
    With tracing, untraced and traced invocations alternate and at least
    one of each runs.  A new invocation starts only if at least half of the
    last one's wall time still fits in the window.
    """
    began = time.perf_counter()
    last_start, kill_at = began + LAST_START_S, began + KILL_AT_S
    setups = []
    for _ in range(SETUP_RUNS):
        result, _ = runner.child(None, False, kill_at - time.perf_counter())
        if result is not None:
            setups.append(result)
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    invocations, wall = [], 0.0
    while True:
        now = time.perf_counter()
        if len(invocations) >= len(kinds) and (now + wall / 2 > start + seconds
                                               or now + wall > last_start):
            break
        result, wall = runner.invoke(kinds[len(invocations) % len(kinds)], kill_at - now)
        invocations.append(result)
    first = next((inv for inv in invocations if inv["ok"]), None)
    for inv in invocations:
        if inv["ok"] and inv["digests"] != first["digests"]:
            differ = sorted(k for k in set(inv["digests"]) | set(first["digests"])
                            if inv["digests"].get(k) != first["digests"].get(k))
            inv.update(ok=False, reason=f"outputs differ from the first invocation: {differ[0]}")
    return setups, invocations


def end_to_end(workload, setups, invocations) -> dict:
    """``setups`` are the set-up-only children's results."""
    timed = [inv for inv in invocations if not inv["traced"] and inv["ok"]]
    run_s = _median([inv["run_s"] for inv in timed])
    finals = next((inv["finals"] for inv in invocations if inv["ok"]), {})
    rows = list(finals.values())
    return {
        "setup_s": (_median([r["setup_cpu_s"] for r in setups]), "s", len(setups)),
        "setup_wall_s": (_median([r["setup_wall_s"] for r in setups]), "s", len(setups)),
        "run_cpu_s": (_median([inv["run_cpu_s"] for inv in timed]), "s", len(timed)),
        "run_s": (run_s, "s", len(timed)),
        "epochs_per_s": (workload.trained_epochs / run_s if run_s else 0.0, "1/s", len(timed)),
        "peak_rss_mb": (_median([inv["peak_rss_mb"] for inv in timed]), "MB", len(timed)),
        "final_test_acc": (float(np.mean([r[3] for r in rows])) if rows else 0.0,
                           "fraction", len(rows)),
        "final_train_loss": (float(np.mean([r[0] for r in rows])) if rows else 0.0,
                             "loss", len(rows)),
    }


def per_layer(workload, invocations) -> dict:
    traced = [inv for inv in invocations if inv["traced"] and inv["ok"]]
    if not traced:
        return {}
    n = len(traced)
    summaries = [inv["trace"] for inv in traced]
    first = summaries[0]

    def med_self(pick):
        return _median([pick(s) for s in summaries])

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (med_self(lambda s: s["layers"].get(layer, {}).get("self_s", 0.0)), "s", n)
        out[f"{layer}.calls"] = (first["layers"].get(layer, {}).get("calls", 0), "count", 1)
        out[f"{layer}.errors"] = (first["layers"].get(layer, {}).get("errors", 0), "count", 1)
    out["harness.wait_s"] = (med_self(lambda s: s["harness_wait_s"]), "s", n)
    out["qcnn.gate_ops"] = (first["gate_ops"], "count", 1)
    circuit_calls = first["functions"].get("qcnn.circuit_ops", {}).get("calls", 0)
    out["qcnn.circuit_ops.calls_per_epoch"] = (circuit_calls / workload.trained_epochs, "1/epoch", 1)
    for fn in ("training.adam_step", "augment.rotate", "cnn.conv2d"):
        out[f"{fn}.self_s"] = (med_self(lambda s: s["functions"].get(fn, {}).get("self_s", 0.0)), "s", n)
    # invocations alternate untraced, traced; pairing neighbours cancels drift
    pairs = [(p["run_s"], t["run_s"])
             for p, t in zip(invocations[0::2], invocations[1::2]) if p["ok"] and t["ok"]]
    out["trace.overhead_frac"] = (_median([t / p - 1.0 for p, t in pairs]), "fraction", len(pairs))
    traced_run = _median([inv["run_s"] for inv in traced])
    out["trace.run_s"] = (traced_run, "s", n)
    coverage = [sum(row["self_s"] for row in inv["trace"]["layers"].values()) / inv["run_s"]
                for inv in traced]
    out["trace.self_coverage"] = (_median(coverage), "fraction", n)
    return out


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<9} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "qcnnlab", "cli.py"), DIGITS_CSV):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"bench: {need} not found under {root}; run from the repository root",
                  file=sys.stderr)
            return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference_table = json.load(fh)
    workload = WORKLOADS[args.workload]
    reference = reference_table["workloads"].get(workload.name, {}).get(str(base_seed(args.seed)))

    work = os.path.join(root, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with the same pid
    os.makedirs(work)
    try:
        runner = Runner(root, work, workload, args.seed, reference)
        setups, invocations = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    attempted = workload.attempted_reps * len(invocations)
    failed = workload.attempted_reps * sum(not inv["ok"] for inv in invocations)
    for k, inv in enumerate(invocations):
        if not inv["ok"]:
            print(f"invocation {k} failed: {inv['reason']}", file=sys.stderr)

    e2e = end_to_end(workload, setups, invocations)
    e2e["failed_frac"] = (failed / attempted, "fraction", attempted)
    print(f"workload {workload.name}: seed {args.seed} (base seed {runner.base_seed}), "
          f"{len(invocations)} invocations, {len(setups)} set-ups")
    print("provenance " + json.dumps(provenance(root, runner.env), sort_keys=True))
    _print_table("end to end (untraced invocations)", e2e)
    print("  run_s/run_cpu_s per invocation: " + " ".join(
        f"{inv['run_s']:.3f}/{inv['run_cpu_s']:.3f}{'t' if inv['traced'] else ''}"
        for inv in invocations if "run_s" in inv))
    layer = per_layer(workload, invocations) if args.trace else {}
    if args.trace:
        _print_table("per layer (traced invocations)", layer)

    reported = layer if args.trace else {k: v for k, v in e2e.items() if k not in PRINTED_ONLY}
    print(json.dumps({
        "correct": failed == 0 and bool(reported),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
