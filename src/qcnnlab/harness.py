"""Experiment runner: repetition-averaged training with seeded subsets.

A run is a grid over (class_b, n_per_class).  Repetition k trains with seed
base_seed + k, which drives subset sampling, parameter init, and the
augmentation stream, so any run is reproducible byte for byte.  Repetitions
run in order on the calling thread (the `threads` key is accepted so old
configs load, but has no effect).  The output directory must be new or
empty; every file is written into a sibling directory that is renamed onto
it once complete, so a failed run writes nothing.
"""

from __future__ import annotations

import errno
import os
import shutil
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .augment import AugmentError, preset
from .cnn import build_cnn, train_cnn
from .datasets import Dataset, binary_subset, load_digits_csv, load_idx, load_pgm_dir, resize_pool
from .qcnn import QcnnError, build_architecture, train_qcnn
from .training import METRICS, TrainConfig, TrainingError, format_metrics, mean_metrics


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; the resolved copy is echoed to disk."""

    model: str = "qcnn"
    dataset: str = "digits"
    data_path: str = "data/digits.csv"
    class_a: int = 0
    class_b: tuple[int, ...] = (1,)
    n_per_class: tuple[int, ...] = (50,)
    n_test: int = 100
    epochs: int = 100
    repetitions: int = 20
    base_seed: int = 0
    augment: str = "none"
    n_qubits: int = 6
    depth: int = 2
    resize: int = 0
    lr0: float = 0.1
    lr_decay: float = 0.05
    threads: int = 0

    def __post_init__(self):
        if self.model not in ("qcnn", "cnn"):
            raise ConfigError(f"model must be qcnn or cnn, got {self.model!r}")
        if self.dataset not in ("digits", "fashion", "catdog"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        for name in ("class_b", "n_per_class"):  # each value is one grid cell
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be nonempty with no repeated value, got {values}")
        if self.class_a in self.class_b:
            raise ConfigError(f"class_a {self.class_a} also appears in class_b {self.class_b}")
        if self.n_test < 2 or self.n_test % 2:
            raise ConfigError(f"n_test {self.n_test} must be even and >= 2 for a balanced test set")
        if min(self.n_per_class) < 1:
            raise ConfigError(f"every n_per_class must be >= 1, got {self.n_per_class}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.resize < 0:
            raise ConfigError(f"resize must be >= 0 (0 keeps the size), got {self.resize}")
        try:
            TrainConfig(self.epochs, self.lr0, self.lr_decay)
            preset(self.augment)
            if self.model == "qcnn":
                build_architecture(self.n_qubits, self.depth)
        except (AugmentError, QcnnError, TrainingError) as exc:
            raise ConfigError(str(exc)) from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


# each field's annotation (a string, under postponed evaluation) picks its parser
_COERCERS = {f.name: {"str": str, "int": int, "float": float,
                      "tuple[int, ...]": _parse_int_list}[f.type]
             for f in fields(ExperimentConfig)}

# epochs defaults differ per model; filled when no explicit value arrives
_AUTO_EPOCHS = {"qcnn": 100, "cnn": 200}


def parse_config_file(path) -> dict[str, str]:
    """`key = value` lines; blank lines and `#` comments are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:  # missing, a directory, or not UTF-8
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _COERCERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def resolve_config(file_values: dict[str, str] | None = None,
                   overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Defaults <- config file <- command-line overrides, with type coercion."""
    raw: dict[str, str] = {}
    raw.update(file_values or {})
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    values = {}
    for key, text in raw.items():
        if key not in _COERCERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _COERCERS[key](text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    if "epochs" not in values:
        # unknown model names fall through to ExperimentConfig's validation
        values["epochs"] = _AUTO_EPOCHS.get(values.get("model", "qcnn"), 100)
    return ExperimentConfig(**values)


def format_config(cfg: ExperimentConfig) -> str:
    """The audit echo: every effective setting, one `key = value` line."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    """One grid cell: every repetition's curve, an (R, epochs) METRICS
    recarray, plus their (epochs,) mean."""

    class_a: int
    class_b: int
    n_per_class: int
    per_rep_rows: np.recarray
    per_rep_params: tuple[np.ndarray, ...]
    mean_rows: np.recarray

    @property
    def mean_final_test_acc(self) -> float:
        return float(np.mean(self.per_rep_rows.test_acc[:, -1]))


def load_pool(cfg: ExperimentConfig) -> Dataset:
    """The full dataset the per-rep subsets are drawn from."""
    if cfg.dataset == "digits":
        ds = load_digits_csv(cfg.data_path)
    elif cfg.dataset == "fashion":
        ds = load_idx(os.path.join(cfg.data_path, "train-images-idx3-ubyte"),
                      os.path.join(cfg.data_path, "train-labels-idx1-ubyte"))
    else:
        ds = load_pgm_dir(cfg.data_path, {"cat": 0, "dog": 1})
    if cfg.resize:
        h, w = ds.images.shape[1:]
        if h % cfg.resize or w % cfg.resize:
            raise ConfigError(f"resize {cfg.resize} does not divide the {h}x{w} image size, "
                              f"so block averaging cannot reach {cfg.resize}x{cfg.resize}")
        ds = resize_pool(ds, cfg.resize)
    return ds


def _check_register(cfg: ExperimentConfig, pool: Dataset) -> None:
    """A QCNN's 2**n_qubits amplitudes must hold every (resized) image."""
    pixels = pool.images[0].size if len(pool) else 0
    if cfg.model == "qcnn" and pixels > 2**cfg.n_qubits:
        raise ConfigError(f"{pixels} pixels per image need more than n_qubits = {cfg.n_qubits} "
                          f"({2**cfg.n_qubits} amplitudes); raise n_qubits or set resize")


def _train_one_rep(cfg: ExperimentConfig, pool: Dataset, class_b: int,
                   n_per_class: int, seed: int):
    train, test = binary_subset(pool, cfg.class_a, class_b, n_per_class,
                                cfg.n_test, seed)
    tcfg = TrainConfig(epochs=cfg.epochs, lr0=cfg.lr0, lr_decay=cfg.lr_decay, seed=seed)
    aug = preset(cfg.augment)
    if cfg.model == "qcnn":
        arch = build_architecture(cfg.n_qubits, cfg.depth)
        return train_qcnn(arch, train, test, tcfg, augment_cfg=aug)
    model = build_cnn(train.images.shape[1:], seed)
    return train_cnn(model, train, test, tcfg, augment_cfg=aug)


def _compute_experiment(cfg: ExperimentConfig, pool: Dataset) -> list[RunResult]:
    results = []
    for class_b in cfg.class_b:
        for n in cfg.n_per_class:
            rep_rows, rep_params = np.recarray((cfg.repetitions, cfg.epochs), METRICS), []
            for k in range(cfg.repetitions):
                start = time.perf_counter()
                rows, params = _train_one_rep(cfg, pool, class_b, n, cfg.base_seed + k)
                print(f"{cfg.class_a}-vs-{class_b} N={n} rep {k + 1}/{cfg.repetitions}: "
                      f"final test acc {rows[-1].test_acc:.4f}, "
                      f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
                rep_rows[k] = rows
                rep_params.append(params)
            results.append(RunResult(cfg.class_a, class_b, n, rep_rows, tuple(rep_params),
                                     mean_metrics(rep_rows)))
    return results


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_params(path, params: np.ndarray) -> None:
    _write_text(path, "".join(f"{value:.17g}\n" for value in params))


def _write_arm(base: str, cfg: ExperimentConfig, results: list[RunResult]) -> None:
    """Per-rep curves and parameters, means, and the config echo; a grid
    larger than one cell puts each cell in its own subdirectory."""
    single = len(cfg.class_b) == 1 and len(cfg.n_per_class) == 1
    for rr in results:
        dirpath = base if single else os.path.join(base, f"b{rr.class_b}_n{rr.n_per_class}")
        os.makedirs(dirpath, exist_ok=True)
        for k, rows in enumerate(rr.per_rep_rows):
            _write_text(os.path.join(dirpath, f"metrics_rep{k}.csv"), format_metrics(rows))
            _write_params(os.path.join(dirpath, f"params_final_rep{k}.csv"),
                          rr.per_rep_params[k])
        _write_text(os.path.join(dirpath, "metrics_mean.csv"), format_metrics(rr.mean_rows))
    _write_text(os.path.join(base, "config_resolved.cfg"), format_config(cfg))


def _check_out_dir(out_dir: str) -> None:
    """Refuse an output path that already holds something, so a run's files
    never sit beside an older run's."""
    if not os.path.exists(out_dir):
        return
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output path {out_dir} exists and is not a directory")
    if os.listdir(out_dir):
        raise ConfigError(f"output directory {out_dir} is not empty; "
                          "choose a new --out or remove the old run first")


def _write_atomically(out_dir: str, write) -> None:
    """Call write(tmp) on a new sibling directory, then rename it onto out_dir
    (rename(2) replaces an empty directory); a failure leaves out_dir as it was."""
    parent, name = os.path.split(os.path.abspath(out_dir))
    tmp = os.path.join(parent, f".{name}.{os.getpid()}.{time.time_ns()}.tmp")
    os.makedirs(tmp)
    try:
        write(tmp)
        try:
            os.replace(tmp, out_dir)
        except OSError as exc:  # EBUSY: out_dir is a working directory or mount point
            if exc.errno != errno.EBUSY:
                raise
            for entry in os.listdir(tmp):
                os.replace(os.path.join(tmp, entry), os.path.join(out_dir, entry))
            os.rmdir(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> list[RunResult]:
    """Train the full grid, then write per-rep curves, means, and the echo."""
    _check_out_dir(out_dir)
    pool = load_pool(cfg)
    _check_register(cfg, pool)
    results = _compute_experiment(cfg, pool)
    _write_atomically(out_dir, lambda tmp: _write_arm(tmp, cfg, results))
    return results


# ---------------------------------------------------------------------------
# with/without augmentation comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    class_a: int
    class_b: int
    n_per_class: int
    acc_no_da: float
    acc_da: float

    @property
    def delta(self) -> float:
        return self.acc_da - self.acc_no_da


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def to_csv(self) -> str:
        lines = ["class_a,class_b,n_per_class,acc_no_da,acc_da,delta"]
        for r in self.rows:
            lines.append(f"{r.class_a},{r.class_b},{r.n_per_class},"
                         f"{r.acc_no_da:.6g},{r.acc_da:.6g},{r.delta:.6g}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'pair':>8} {'N':>5} {'no DA':>8} {'DA':>8} {'delta':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.class_a}-vs-{r.class_b:<3} {r.n_per_class:>5} "
                         f"{r.acc_no_da:>8.4f} {r.acc_da:>8.4f} {r.delta:>+8.4f}")
        return "\n".join(lines) + "\n"


def compare_da(cfg: ExperimentConfig, out_dir: str) -> ComparisonTable:
    """Run both arms with identical seeds; only the augmentation differs.

    Everything is computed before anything is written: per-rep curves for
    both arms under no_da/ and da/, then the comparison CSV and text table.
    """
    # every dataset has an augmentation preset of the same name
    aug_name = cfg.augment if cfg.augment != "none" else cfg.dataset
    no_cfg = replace(cfg, augment="none")
    da_cfg = replace(cfg, augment=aug_name)

    _check_out_dir(out_dir)
    pool = load_pool(cfg)
    _check_register(cfg, pool)
    no_results = _compute_experiment(no_cfg, pool)
    da_results = _compute_experiment(da_cfg, pool)

    rows = tuple(
        ComparisonRow(a.class_a, a.class_b, a.n_per_class,
                      a.mean_final_test_acc, b.mean_final_test_acc)
        for a, b in zip(no_results, da_results)
    )
    table = ComparisonTable(rows)

    def write(tmp):
        _write_arm(os.path.join(tmp, "no_da"), no_cfg, no_results)
        _write_arm(os.path.join(tmp, "da"), da_cfg, da_results)
        _write_text(os.path.join(tmp, "comparison.csv"), table.to_csv())
        _write_text(os.path.join(tmp, "comparison.txt"), table.to_text())

    _write_atomically(out_dir, write)
    return table
