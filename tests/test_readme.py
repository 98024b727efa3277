"""README's config table, its commands and its "Library use" example agree with the code."""

import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields

from qcnnlab.cli import build_parser, main
from qcnnlab.harness import _AUTO_EPOCHS, _COERCERS, ExperimentConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")


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


def _written(tmp_path, *argv):
    out = tmp_path / argv[0]
    assert main([*argv, "--out", str(out), "--repetitions", "2", "--epochs", "1",
                 "--data-path", os.path.join(ROOT, "data", "digits.csv")]) == 0
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


def test_augmentation_comparisons_section_names_the_files_of_compare_da(tmp_path):
    """comparison.csv and .txt, and one run's "Output files" in each arm's subtree."""
    named = _named_files("Augmentation comparisons")
    arms = {name for name in named if name.endswith("/")}
    assert arms == {"no_da/", "da/"}
    cell = _named_files("Output files")
    want = (named - arms) | {arm + name for arm in arms for name in cell}
    assert _written(tmp_path, "compare-da") == want
