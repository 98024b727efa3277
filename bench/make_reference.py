"""Record the final per-repetition metrics every benchmark seed must reproduce.

Usage, from the repository root:

    python3 bench/make_reference.py

Runs every workload once per base seed (0 .. SEED_SPACE-1) through the same
child process the benchmark uses and writes the final metrics row of every
metrics_rep<k>.csv to bench/reference.json.  Run it only on a commit whose
outputs are the accepted reference; a serial pass takes about 11 minutes on
a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from outputs import NO_REFERENCE
from run import HERE, Runner
from workloads import SEED_SPACE, WORKLOADS


def main() -> int:
    root = os.getcwd()
    table = {}
    work = os.path.join(root, ".bench_work", f"reference{os.getpid()}")
    os.makedirs(work)
    try:
        for name in sorted(WORKLOADS):
            per_seed = {}
            for seed in range(SEED_SPACE):
                seed_work = os.path.join(work, f"{name}{seed}")
                os.makedirs(seed_work)
                runner = Runner(root, seed_work, WORKLOADS[name], seed, None)
                inv, wall = runner.invoke(False, 600.0)
                if inv["reason"] != NO_REFERENCE:
                    print(f"{name} seed {seed}: {inv['reason']}", file=sys.stderr)
                    return 1
                per_seed[str(seed)] = dict(sorted(inv["finals"].items()))
                print(f"{name} seed {seed}: {wall:.1f} s", file=sys.stderr)
            table[name] = per_seed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"workloads": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
