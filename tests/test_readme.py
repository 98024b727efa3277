"""README's config table, its commands, its "Library use" example, its output files and
its exit codes agree with the code."""

import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from qcnnlab.augment import CONTRAST_RANGE, MAX_ROTATION
from qcnnlab.cli import build_parser, main
from qcnnlab.harness import _AUTO_EPOCHS, _COERCERS, ExperimentConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
DIGITS = os.path.join(ROOT, "data", "digits.csv")


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _library_use_block():
    section = _readme().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _named_files(heading):
    """The file names in backticks under ``### heading``, each ``<k>`` as 0 and 1."""
    section = _readme().split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"`([\w<>]+\.(?:csv|cfg|txt)|\w+/)`", section)
    return {name.replace("<k>", str(k)) for name in names for k in (0, 1)}


def _written(tmp_path, *argv, data=DIGITS):
    out = tmp_path / argv[0]
    assert main([*argv, "--out", str(out), "--repetitions", "2", "--epochs", "1",
                 "--data-path", str(data)]) == 0
    return {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}


def _key_table():
    """(key, default) per row of the table under "Keys and defaults:"."""
    table = _readme().split("Keys and defaults:", 1)[1].strip().split("\n\n", 1)[0]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()]
    return [(key, default) for key, default, _ in cells[2:]]


def test_config_table_lists_every_field_in_order_with_its_default():
    rows = _key_table()
    assert [key for key, _ in rows] == [f.name for f in fields(ExperimentConfig)]
    for f, (key, default) in zip(fields(ExperimentConfig), rows):
        if key == "epochs":
            auto = dict(reversed(part.split()) for part in default.split(","))
            assert {model: int(n) for model, n in auto.items()} == _AUTO_EPOCHS
            assert f.default == _AUTO_EPOCHS[ExperimentConfig.model]
        else:
            assert _COERCERS[key](default) == f.default, key


def test_augment_bullet_states_the_module_bounds():
    bullet = _readme().split("- `qcnnlab.augment`:", 1)[1].split("\n- ", 1)[0]
    angle = re.search(r"angle drawn uniformly from\s+\[-([\d.]+), \+([\d.]+)\] rad", bullet)
    factor = re.search(r"factor drawn\s+uniformly from \[([\d.]+), ([\d.]+)\]", bullet)
    assert (float(angle[1]), float(angle[2])) == (MAX_ROTATION, MAX_ROTATION)
    assert (float(factor[1]), float(factor[2])) == CONTRAST_RANGE


def test_every_command_in_a_sh_block_parses():
    lines = [line for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S)
             for line in block.splitlines() if line.startswith("qcnnlab ")]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_library_use_example_prints_one_accuracy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _library_use_block()], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = proc.stdout.split()
    assert len(printed) == 1
    assert 0.0 <= float(printed[0]) <= 1.0


def test_output_files_section_names_the_files_of_a_two_repetition_run(tmp_path):
    assert _written(tmp_path, "train-qcnn") == _named_files("Output files")


def _compare_da_files():
    """comparison.csv and .txt, and one run's "Output files" in each arm's subtree."""
    named = _named_files("Augmentation comparisons")
    arms = {name for name in named if name.endswith("/")}
    assert arms == {"no_da/", "da/"}
    cell = _named_files("Output files")
    return (named - arms) | {arm + name for arm in arms for name in cell}


def test_augmentation_comparisons_section_names_the_files_of_compare_da(tmp_path):
    assert _written(tmp_path, "compare-da") == _compare_da_files()


def test_fashion_dataset_writes_the_documented_files(tmp_path):
    """The fashion branch of load_pool, end to end: 28x28 IDX files under the two names it
    joins onto data_path, block-averaged to 7x7 (49 pixels in 64 amplitudes)."""
    rng = np.random.default_rng(5)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 40, 28, 28)
        + rng.integers(1, 256, (40, 28, 28), dtype=np.uint8).tobytes())
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, 40) + bytes(np.arange(40, dtype=np.uint8) % 10))
    fashion = ["--dataset", "fashion", "--resize", "7", "--n-per-class", "2", "--n-test", "2"]
    assert _written(tmp_path, "train-qcnn", *fashion, data=tmp_path) == _named_files("Output files")
    assert _written(tmp_path, "compare-da", *fashion, data=tmp_path) == _compare_da_files()


def _exit_code_rows():
    """{code: condition} per row of the table under "### Exit codes"."""
    table = _readme().split("### Exit codes\n", 1)[1].strip().split("\n\n", 1)[0]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()]
    return {int(code): condition for code, condition in cells[2:]}


_RUN = ["--n-per-class", "3", "--epochs", "1", "--repetitions", "1"]
_TINY = ["--n-per-class", "1", "--n-test", "2", "--epochs", "1", "--repetitions", "1"]

# (a condition the table lists, a command that meets it, a line it prints to stderr);
# "{tmp}" is the test's directory, which holds the bad data files _bad_data writes
_EXIT_EXAMPLES = [
    ("success", ["augment-preview", "--data-path", DIGITS, "--count", "1"], ""),
    ("bad flag", ["train-qcnn", "--frobnicate", "1"], "unrecognized arguments: --frobnicate"),
    ("an odd `n_test`", ["train-qcnn", "--data-path", DIGITS, *_RUN, "--n-test", "9"],
     "config error: n_test 9 must be even"),
    ("a depth the register cannot hold",
     ["train-qcnn", "--data-path", DIGITS, *_RUN, "--n-qubits", "2", "--depth", "2"],
     "config error: depth 2 exhausts a 2-qubit register"),
    ("images with more pixels than `2**n_qubits`",
     ["train-qcnn", "--data-path", DIGITS, *_RUN, "--n-qubits", "5"],
     "config error: 64 pixels per image need more than n_qubits = 5"),
    ("`lr0` below 0", ["train-qcnn", "--data-path", DIGITS, *_RUN, "--lr0", "-1"],
     "config error: lr0 must be >= 0, got -1.0"),
    ("a `resize` that does not divide the image size",
     ["train-qcnn", "--data-path", DIGITS, *_RUN, "--resize", "3"],
     "config error: resize 3 does not divide the 8x8 image size"),
    ("a negative `--count`", ["augment-preview", "--data-path", DIGITS, "--count", "-1"],
     "augment-preview: --count must be >= 0, got -1"),
    ("missing or malformed data file", ["train-qcnn", "--data-path", "{tmp}/absent.csv", *_RUN],
     "data error: [Errno 2] No such file or directory"),
    ("missing or malformed data file", ["train-cnn", "--data-path", "{tmp}/short.csv", *_RUN],
     "short.csv:1: expected 65 fields, got 3"),
    ("a PGM directory whose images differ in size",
     ["train-qcnn", "--dataset", "catdog", "--data-path", "{tmp}/pets", *_TINY, "--depth", "1"],
     "data error: dog.pgm is 4x1 but cat.pgm is 2x2"),
    ("a class with fewer images than `n_per_class` plus half of `n_test`",
     ["train-qcnn", "--data-path", DIGITS, "--n-per-class", "170", "--epochs", "1"],
     "data error: class 0: need 220 samples, dataset has 178"),
    ("an `--index` outside the dataset",
     ["augment-preview", "--data-path", DIGITS, "--index", "1797"],
     "data error: index 1797 outside dataset of 1797 samples"),
    ("embedding", ["train-qcnn", "--data-path", "{tmp}/blank.csv", *_TINY],
     "numeric failure: cannot amplitude-embed an all-zero image"),
    ("divergence", ["train-cnn", "--data-path", DIGITS, "--lr0", "1e308", "--epochs", "2",
                    "--repetitions", "1"],
     "numeric failure: training diverged: non-finite parameters or loss"),
    ("missing or malformed data file",
     ["train-qcnn", "--dataset", "catdog", "--data-path", "{tmp}/empty", *_TINY, "--depth", "1"],
     "empty/cat.pgm: width 0, height 0; both must be >= 1"),
    ("missing or malformed data file",
     ["train-qcnn", "--dataset", "fashion", "--data-path", "{tmp}/idx", *_TINY],
     "data error: {tmp}/idx/train-images-idx3-ubyte: wanted 18446181123756261375 bytes for pixel "
     "data, got 0"),
    ("a `--config` file that cannot be read", ["train-qcnn", "--config", "{tmp}/latin1.cfg"],
     "config error: {tmp}/latin1.cfg: 'utf-8' codec can't decode byte 0xe9"),
    ("a repeated value in `class_b` or `n_per_class`",
     ["train-qcnn", "--data-path", DIGITS, *_RUN, "--class-b", "1,1"],
     "config error: class_b must be nonempty with no repeated value, got (1, 1)"),
    ("missing or malformed data file", ["train-qcnn", "--data-path", "{tmp}/latin1.csv", *_RUN],
     "data error: {tmp}/latin1.csv:1: non-integer field"),
    ("a depth that leaves a readout wider than 5 wires",
     ["train-qcnn", "--data-path", DIGITS, *_RUN, "--depth", "0"],
     "config error: a 6-wire readout takes 4095 rotations; at most 5 wires are supported, so raise depth"),
    ("images too small for the CNN to pool",
     ["train-cnn", "--data-path", DIGITS, *_RUN, "--resize", "1"],
     "config error: input 1x1 too small to pool"),
    ("missing or malformed data file",
     ["train-qcnn", "--dataset", "catdog", "--data-path", "{tmp}/nopgm", *_TINY, "--depth", "1"],
     "data error: {tmp}/nopgm: no .pgm files found"),
    ("bad value", ["augment-preview", "--data-path", DIGITS, "--preset", "bogus"],
     "unknown augmentation preset 'bogus'; know ['catdog', 'digits', 'fashion', 'none']"),
]


def _bad_data(tmp):
    (tmp / "short.csv").write_text("1,2,3\n")
    (tmp / "latin1.csv").write_bytes(b"3,\xff" + b",0" * 63 + b"\n")
    (tmp / "latin1.cfg").write_bytes(b"# caf\xe9\nepochs = 1\n")
    (tmp / "blank.csv").write_text("".join(f"{label}," + ",".join(["0"] * 64) + "\n"
                                           for label in (0, 0, 1, 1)))
    (tmp / "pets").mkdir()
    (tmp / "pets" / "cat.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    (tmp / "pets" / "dog.pgm").write_bytes(b"P5\n1 4\n255\n" + bytes(4))
    (tmp / "empty").mkdir()
    (tmp / "nopgm").mkdir()
    (tmp / "nopgm" / "cat0.txt").write_text("not an image\n")
    (tmp / "empty" / "cat.pgm").write_bytes(b"P5\n0 0\n255\n")
    (tmp / "idx").mkdir()
    (tmp / "idx" / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
    (tmp / "idx" / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 0))


def test_every_exit_code_row_has_an_example():
    rows = _exit_code_rows()
    assert sorted(rows) == [0, 1, 2, 3]
    assert {code for code, condition in rows.items()
            for phrase, _, _ in _EXIT_EXAMPLES if phrase in condition} == set(rows)


@pytest.mark.parametrize("phrase,argv,err", _EXIT_EXAMPLES)
def test_exit_code_table_gives_the_code_main_returns(tmp_path, capsys, phrase, argv, err):
    codes = [code for code, condition in _exit_code_rows().items() if phrase in condition]
    assert len(codes) == 1, phrase
    _bad_data(tmp_path)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == codes[0]
    assert err.replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
