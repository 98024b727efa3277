"""The benchmark's workloads and the inputs they are generated from.

Each workload is one user-facing `qcnnlab` command.  Its argument list is a
function of the base seed only, so the same seed always runs the same
command on the same inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DIGITS_CSV = os.path.join("data", "digits.csv")

# The reference table (reference.json) holds final metrics for this many base
# seeds; a benchmark seed maps onto one of them.
SEED_SPACE = 16


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape plus what it must write."""

    name: str
    command: str                 # qcnnlab subcommand
    flags: tuple[str, ...]       # fixed flags after the subcommand
    repetitions: int
    epochs: int
    cells: tuple[str, ...]       # cell subdirectories ("" for a single cell)
    arms: tuple[str, ...]        # compare-da arm subdirectories, else ("",)
    n_qubits: int = 0            # QCNN register, 0 for the CNN
    dataset: str = "digits"

    @property
    def pgm_input(self) -> bool:
        """Needs the generated catdog directory."""
        return self.dataset == "catdog"

    @property
    def single_thread(self) -> bool:
        """Sets `--threads 1`, so BLAS is pinned to one thread as well."""
        return "--threads" in self.flags

    @property
    def trained_epochs(self) -> int:
        return self.repetitions * self.epochs * len(self.cells) * len(self.arms)

    @property
    def attempted_reps(self) -> int:
        return self.repetitions * len(self.cells) * len(self.arms)

    def argv(self, base_seed: int, out_dir: str, data_dir: str | None) -> list[str]:
        args = [self.command, "--out", out_dir, *self.flags,
                "--repetitions", str(self.repetitions),
                "--epochs", str(self.epochs),
                "--base-seed", str(base_seed)]
        if self.pgm_input:
            args += ["--data-path", data_dir]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="qcnn-digits", command="train-qcnn", flags=("--threads", "1"),
            repetitions=1, epochs=100, cells=("",), arms=("",), n_qubits=6),
        Workload(
            name="da-digits", command="compare-da",
            flags=("--class-b", "1,9", "--n-per-class", "30", "--augment", "digits"),
            repetitions=2, epochs=100, cells=("b1_n30", "b9_n30"), arms=("no_da", "da"),
            n_qubits=6),
        Workload(
            name="qcnn-wide10", command="train-qcnn",
            flags=("--dataset", "catdog", "--n-qubits", "10", "--threads", "1"),
            repetitions=1, epochs=4, cells=("",), arms=("",), n_qubits=10,
            dataset="catdog"),
        Workload(
            name="cnn-digits", command="train-cnn", flags=("--threads", "1"),
            repetitions=1, epochs=200, cells=("",), arms=("",)),
    )
}


def base_seed(seed: int) -> int:
    """Map any benchmark seed onto the seeds the reference table covers."""
    return seed % SEED_SPACE


def write_catdog_pgms(digits_csv: str, out_dir: str, seed: int) -> int:
    """Write 32x32 P5 PGMs made from the digits 0 (`cat*`) and 1 (`dog*`).

    Each 8x8 digit is block-upsampled 4x and scaled to 0..255.  The seed
    fixes which digit lands in which numbered file, so the loader's sorted
    order, and hence every seeded subset drawn from it, depends on the seed.
    The same seed writes byte-identical files.  Returns the file count.
    """
    rows = np.loadtxt(digits_csv, delimiter=",", dtype=np.int64, ndmin=2)
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    for label, prefix in ((0, "cat"), (1, "dog")):
        images = rows[rows[:, 0] == label, 1:].reshape(-1, 8, 8)
        for k, j in enumerate(rng.permutation(len(images))):
            big = np.kron(images[j], np.ones((4, 4), dtype=np.int64))
            raster = (big * 255 + 8) // 16  # round half up to 0..255
            with open(os.path.join(out_dir, f"{prefix}{k:03d}.pgm"), "wb") as fh:
                fh.write(b"P5\n32 32\n255\n")
                fh.write(raster.astype(np.uint8).tobytes())
            count += 1
    return count
