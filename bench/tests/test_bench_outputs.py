"""The per-invocation output check and the generated PGM inputs."""

import filecmp
import os

import pytest

from outputs import check_invocation, expected_files
from workloads import WORKLOADS, Workload, write_catdog_pgms

TINY = Workload(name="tiny", command="train-qcnn", flags=(), repetitions=2, epochs=2,
                cells=("",), arms=("",), n_qubits=6)
TINY_DA = Workload(name="tiny-da", command="compare-da", flags=(), repetitions=1, epochs=2,
                   cells=("b1_n5", "b9_n5"), arms=("no_da", "da"), n_qubits=6)
HEADER = "epoch,train_loss,train_acc,test_loss,test_acc\n"
FINAL = [0.125, 0.9, 0.25, 0.8]


def _write_outputs(out, workload, final=FINAL):
    for rel in expected_files(workload):
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        name = path.name
        if name.startswith("metrics"):
            rows = [f"{e},0.5,0.5,0.5,0.5" for e in range(workload.epochs - 1)]
            rows.append(f"{workload.epochs - 1}," + ",".join(str(v) for v in final))
            path.write_text(HEADER + "\n".join(rows) + "\n")
        elif name.startswith("params_final"):
            path.write_text("0.5\n-1.25\n")
        elif name == "comparison.csv":
            path.write_text("class_a,class_b,n_per_class,acc_no_da,acc_da,delta\n0,1,5,0.9,0.9,0\n")
        else:
            path.write_text("text\n")


def _reference(workload, row=FINAL):
    return {rel.replace(os.sep, "/"): list(row) for rel in expected_files(workload)
            if os.path.basename(rel).startswith("metrics_rep")}


@pytest.mark.parametrize("workload", [TINY, TINY_DA])
def test_complete_finite_outputs_pass_and_are_digested(tmp_path, workload):
    _write_outputs(tmp_path, workload)
    result = check_invocation(str(tmp_path), workload, 0, _reference(workload))
    assert result.ok, result.reason
    assert set(result.digests) == set(expected_files(workload))
    assert len(result.finals) == workload.attempted_reps


def test_expected_files_cover_compare_da_layout():
    files = expected_files(TINY_DA)
    assert "comparison.csv" in files and "comparison.txt" in files
    assert os.path.join("da", "config_resolved.cfg") in files
    assert os.path.join("no_da", "b9_n5", "params_final_rep0.csv") in files


def test_nonzero_exit_fails(tmp_path):
    _write_outputs(tmp_path, TINY)
    result = check_invocation(str(tmp_path), TINY, 3, _reference(TINY))
    assert not result.ok and result.reason == "exit code 3"
    assert not check_invocation(str(tmp_path), TINY, None, _reference(TINY)).ok


def test_missing_file_fails(tmp_path):
    _write_outputs(tmp_path, TINY)
    (tmp_path / "params_final_rep1.csv").unlink()
    result = check_invocation(str(tmp_path), TINY, 0, _reference(TINY))
    assert not result.ok and "params_final_rep1.csv" in result.reason


@pytest.mark.parametrize("name,text", [
    ("metrics_rep0.csv", HEADER + "0,0.5,0.5,0.5,0.5\n1,nan,0.9,0.25,0.8\n"),
    ("metrics_mean.csv", HEADER + "0,0.5,0.5,0.5,0.5\n1,0.1,inf,0.25,0.8\n"),
    ("params_final_rep0.csv", "0.5\nnan\n"),
])
def test_non_finite_value_fails(tmp_path, name, text):
    _write_outputs(tmp_path, TINY)
    (tmp_path / name).write_text(text)
    result = check_invocation(str(tmp_path), TINY, 0, _reference(TINY))
    assert not result.ok and "non-finite" in result.reason


def test_wrong_row_count_fails(tmp_path):
    _write_outputs(tmp_path, TINY)
    (tmp_path / "metrics_rep1.csv").write_text(HEADER + "0,0.1,0.9,0.25,0.8\n")
    assert not check_invocation(str(tmp_path), TINY, 0, _reference(TINY)).ok


def test_final_row_must_match_reference_within_tolerance(tmp_path):
    _write_outputs(tmp_path, TINY)
    near = [FINAL[0] * (1 + 5e-5), FINAL[1] + 0.01, FINAL[2], FINAL[3]]
    assert check_invocation(str(tmp_path), TINY, 0, _reference(TINY, near)).ok
    far = [FINAL[0] * (1 + 2e-4), *FINAL[1:]]
    result = check_invocation(str(tmp_path), TINY, 0, _reference(TINY, far))
    assert not result.ok and "train_loss" in result.reason
    assert not check_invocation(str(tmp_path), TINY, 0, None).ok


def test_loss_tolerance_is_relative_for_near_zero_losses(tmp_path):
    tiny_loss = [4e-6, 1.0, 1.2e-5, 1.0]
    _write_outputs(tmp_path, TINY, final=[1e-4, 1.0, 1.2e-5, 1.0])
    result = check_invocation(str(tmp_path), TINY, 0, _reference(TINY, tiny_loss))
    assert not result.ok and "train_loss" in result.reason
    _write_outputs(tmp_path, TINY, final=tiny_loss)
    assert check_invocation(str(tmp_path), TINY, 0, _reference(TINY, tiny_loss)).ok


def test_catdog_generator_is_seeded_and_byte_identical(tmp_path):
    csv = os.path.join(os.path.dirname(__file__), "..", "..", "data", "digits.csv")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert write_catdog_pgms(csv, str(a), 4) == write_catdog_pgms(csv, str(b), 4) == 360
    names = sorted(os.listdir(a))
    assert names[0] == "cat000.pgm" and names[-1] == "dog181.pgm"
    assert filecmp.cmpfiles(a, b, names, shallow=False)[0] == names
    write_catdog_pgms(csv, str(c), 5)
    assert filecmp.cmpfiles(a, c, names, shallow=False)[0] != names
    data = (a / "dog000.pgm").read_bytes()
    assert data.startswith(b"P5\n32 32\n255\n") and len(data) == 13 + 32 * 32


def test_workload_argv_carries_the_base_seed():
    argv = WORKLOADS["qcnn-wide10"].argv(7, "out", "pgms")
    assert argv[:3] == ["train-qcnn", "--out", "out"]
    assert argv[argv.index("--base-seed") + 1] == "7"
    assert argv[argv.index("--data-path") + 1] == "pgms"
