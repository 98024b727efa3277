"""Checks on what one qcnnlab invocation wrote.

An invocation passes when it exited 0, wrote the expected file set, every
number it wrote is finite, and each repetition's final metrics row matches
the reference recorded for its base seed within `TOLERANCE`.  The caller
compares the returned sha256 digests across invocations.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

# Final-row tolerance against reference.json.  Losses are relative: they
# range from 4e-6 (CNN) to 0.7 (QCNN), and are written with six significant
# digits, a step of at most 1e-5 of the value.  Reversing the summation order
# in cnn.conv2d and in the QCNN readout left every final loss unchanged at
# six digits, so 1e-4 of the value (ten steps) absorbs last-bit changes in
# the arithmetic but not a change in what is computed.  Accuracies move in
# steps of 1/n_test (0.01); 0.02 allows a sample that sits on the 0.5
# decision boundary to flip.
TOLERANCE = {"loss_rel": 1e-4, "acc": 0.02}
NO_REFERENCE = "no reference for this seed"
FINAL_COLUMNS = ("train_loss", "train_acc", "test_loss", "test_acc")


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""
    finals: dict[str, list[float]] = field(default_factory=dict)  # rel path -> final row
    digests: dict[str, str] = field(default_factory=dict)         # rel path -> sha256


def expected_files(workload) -> list[str]:
    files = ["comparison.csv", "comparison.txt"] if workload.command == "compare-da" else []
    for arm in workload.arms:
        files.append(os.path.join(arm, "config_resolved.cfg"))
        for cell in workload.cells:
            files.append(os.path.join(arm, cell, "metrics_mean.csv"))
            for k in range(workload.repetitions):
                files.append(os.path.join(arm, cell, f"metrics_rep{k}.csv"))
                files.append(os.path.join(arm, cell, f"params_final_rep{k}.csv"))
    return sorted(os.path.normpath(f) for f in files)


def _numbers(path: str, header: bool) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1 if header else 0:]]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"non-finite value in {os.path.basename(path)}: {row}")
    return rows


def _digests(out_dir: str) -> dict[str, str]:
    out = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _mismatch(got, want) -> str | None:
    for col, g, w in zip(FINAL_COLUMNS, got, want):
        tol = TOLERANCE["loss_rel"] * abs(w) if col.endswith("loss") else TOLERANCE["acc"]
        if abs(g - w) > tol:
            return f"{col} {g:.6g} vs reference {w:.6g}"
    return None


def check_invocation(out_dir: str, workload, rc, reference: dict | None) -> CheckResult:
    """``reference`` maps a rel path of metrics_rep<k>.csv to its final row."""
    if rc != 0:
        return CheckResult(False, f"exit code {rc}")
    missing = [f for f in expected_files(workload)
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return CheckResult(False, f"missing {missing[0]}" +
                           (f" and {len(missing) - 1} more" if len(missing) > 1 else ""))
    finals = {}
    try:
        for rel in expected_files(workload):
            name = os.path.basename(rel)
            if name.startswith("params_final"):
                _numbers(os.path.join(out_dir, rel), header=False)
            elif name.endswith(".csv"):
                rows = _numbers(os.path.join(out_dir, rel), header=True)
                if name.startswith("metrics") and len(rows) != workload.epochs:
                    return CheckResult(False, f"{rel}: {len(rows)} rows, want {workload.epochs}")
                if name.startswith("metrics_rep"):
                    finals[rel.replace(os.sep, "/")] = rows[-1][1:]
    except ValueError as exc:
        return CheckResult(False, str(exc))
    if reference is None:
        return CheckResult(False, NO_REFERENCE, finals)
    for rel, row in finals.items():
        if rel not in reference:
            return CheckResult(False, f"{rel}: no reference row", finals)
        bad = _mismatch(row, reference[rel])
        if bad:
            return CheckResult(False, f"{rel}: {bad}", finals)
    return CheckResult(True, "", finals, _digests(out_dir))
