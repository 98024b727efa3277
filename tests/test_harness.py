"""Tests for config handling, the experiment runner, and the CLI."""

import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from qcnnlab import harness
from qcnnlab.cli import main
from qcnnlab.datasets import write_pgm
from qcnnlab.harness import (
    ComparisonTable,
    ConfigError,
    ExperimentConfig,
    RunResult,
    compare_da,
    format_config,
    parse_config_file,
    resolve_config,
    run_experiment,
)
from qcnnlab.training import METRICS, TrainingError

DIGITS = os.path.join(os.path.dirname(__file__), "..", "data", "digits.csv")


def _tiny_cfg(**kw):
    base = dict(model="qcnn", data_path=DIGITS, class_b=(1,), n_per_class=(4,),
                n_test=10, epochs=2, repetitions=2, base_seed=0, n_qubits=6,
                depth=1)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# digits run\nmodel = qcnn\nn_per_class = 5,10\n\nepochs = 3\n")
    assert parse_config_file(path) == {"model": "qcnn", "n_per_class": "5,10",
                                       "epochs": "3"}


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("modle = qcnn\n")
    with pytest.raises(ConfigError, match="modle"):
        parse_config_file(path)


def test_parse_config_rejects_shapeless_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config_file(path)


def test_resolve_overrides_beat_file_values():
    cfg = resolve_config({"epochs": "5", "base_seed": "1"}, {"epochs": "7"})
    assert cfg.epochs == 7
    assert cfg.base_seed == 1


def test_resolve_fills_model_specific_epochs():
    assert resolve_config({}, {"model": "qcnn"}).epochs == 100
    assert resolve_config({}, {"model": "cnn"}).epochs == 200


def test_resolve_parses_lists_and_floats():
    cfg = resolve_config({"n_per_class": "5,10,30", "lr0": "0.05"}, {})
    assert cfg.n_per_class == (5, 10, 30)
    assert cfg.lr0 == pytest.approx(0.05)


def test_resolve_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_config({"epochs": "many"}, {})
    with pytest.raises(ConfigError):
        resolve_config({"n_per_class": "5,x"}, {})
    with pytest.raises(ConfigError):
        resolve_config({}, {"model": "svm"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"augment": "cifar"})


def test_format_config_echo_round_trips(tmp_path):
    cfg = _tiny_cfg()
    text = format_config(cfg)
    path = tmp_path / "echo.cfg"
    path.write_text(text)
    again = resolve_config(parse_config_file(path), {})
    assert again == cfg


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "run"
    results = run_experiment(_tiny_cfg(), str(out))
    assert len(results) == 1
    for name in ("metrics_rep0.csv", "metrics_rep1.csv", "metrics_mean.csv",
                 "params_final_rep0.csv", "params_final_rep1.csv",
                 "config_resolved.cfg"):
        assert (out / name).exists(), name
    mean = (out / "metrics_mean.csv").read_text().strip().split("\n")
    assert mean[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
    assert len(mean) == 3  # header + 2 epochs


def test_single_rep_mean_equals_the_run(tmp_path):
    out = tmp_path / "one"
    run_experiment(_tiny_cfg(repetitions=1), str(out))
    rep = (out / "metrics_rep0.csv").read_text()
    mean = (out / "metrics_mean.csv").read_text()
    assert rep == mean


def test_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_cfg()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(out1))
    run_experiment(cfg, str(out2))
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


_TINY_RUN = ["--data-path", DIGITS, "--n-per-class", "4", "--n-test", "10", "--epochs", "2",
             "--repetitions", "2"]
_BLAS_RUNS = {"qcnn": ["train-qcnn", *_TINY_RUN, "--depth", "1"],
              "cnn": ["train-cnn", *_TINY_RUN],
              "qcnn10": ["train-qcnn", *_TINY_RUN, "--n-qubits", "10"]}


def test_blas_thread_count_does_not_change_outputs(tmp_path):
    """Every CSV is byte-identical under 1 and 2 OpenBLAS/OpenMP threads.  BLAS reads
    the count once, when numpy loads, so each count runs in an interpreter of its own;
    the two run side by side."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; from qcnnlab.cli import main; "
            f"sys.exit(max(main([*argv, '--out', sys.argv[1] + '/' + name]) "
            f"for name, argv in {_BLAS_RUNS!r}.items()))")
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        procs.append(subprocess.Popen([sys.executable, "-c", code, str(tmp_path / threads)],
                                      env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for proc in procs:
        err = proc.communicate(timeout=300)[1]
        assert proc.returncode == 0, err
    for name in _BLAS_RUNS:
        one, two = ({p.name: p.read_bytes() for p in (tmp_path / t / name).glob("*.csv")}
                    for t in ("1", "2"))
        assert one and one == two, name


def test_thread_count_does_not_change_outputs(tmp_path):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    run_experiment(_tiny_cfg(repetitions=3, threads=1), str(serial))
    run_experiment(_tiny_cfg(repetitions=3, threads=3), str(threaded))
    for name in sorted(os.listdir(serial)):
        if name == "config_resolved.cfg":
            continue  # echoes the differing threads setting by design
        assert (serial / name).read_bytes() == (threaded / name).read_bytes(), name


def test_repetitions_run_on_the_calling_thread_in_order(tmp_path, monkeypatch):
    calls = []
    train_one_rep = harness._train_one_rep

    def recording(cfg, pool, class_b, n_per_class, seed):
        calls.append((threading.current_thread(), seed, threading.active_count()))
        return train_one_rep(cfg, pool, class_b, n_per_class, seed)

    monkeypatch.setattr(harness, "_train_one_rep", recording)
    before = threading.active_count()
    run_experiment(_tiny_cfg(repetitions=3, base_seed=7, threads=3), str(tmp_path / "run"))
    assert [seed for _, seed, _ in calls] == [7, 8, 9]
    assert all(thread is threading.main_thread() for thread, _, _ in calls)
    assert all(count == before for _, _, count in calls)
    assert threading.active_count() == before


def test_failing_repetition_stops_the_run_at_once(tmp_path, monkeypatch):
    seeds = []

    def failing(cfg, pool, class_b, n_per_class, seed):
        seeds.append(seed)
        raise TrainingError(f"training diverged at seed {seed}")

    monkeypatch.setattr(harness, "_train_one_rep", failing)
    out = tmp_path / "run"
    with pytest.raises(TrainingError, match="seed 0"):
        run_experiment(_tiny_cfg(repetitions=3), str(out))
    assert seeds == [0]
    assert not out.exists()
    assert os.listdir(tmp_path) == []


def _fail_on_second_params_write(monkeypatch):
    write_params = harness._write_params
    calls = []

    def flaky(path, params):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_params(path, params)

    monkeypatch.setattr(harness, "_write_params", flaky)
    return calls


@pytest.mark.parametrize("command", [run_experiment, compare_da])
def test_failed_write_leaves_no_output_behind(tmp_path, monkeypatch, command):
    calls = _fail_on_second_params_write(monkeypatch)
    out = tmp_path / "run"
    with pytest.raises(OSError, match="disk full"):
        command(_tiny_cfg(), str(out))
    assert len(calls) == 2
    assert os.listdir(tmp_path) == []


def test_failed_write_leaves_an_empty_out_empty(tmp_path, monkeypatch):
    _fail_on_second_params_write(monkeypatch)
    out = tmp_path / "empty"
    out.mkdir()
    with pytest.raises(OSError, match="disk full"):
        run_experiment(_tiny_cfg(), str(out))
    assert os.listdir(tmp_path) == ["empty"]
    assert os.listdir(out) == []


def test_out_is_renamed_into_place_with_the_default_mode(tmp_path):
    made = tmp_path / "made"
    made.mkdir()
    out = tmp_path / "nested" / "run"
    run_experiment(_tiny_cfg(repetitions=1), str(out) + os.sep)
    assert sorted(os.listdir(tmp_path)) == ["made", "nested"]
    assert os.listdir(tmp_path / "nested") == ["run"]
    assert (out / "metrics_rep0.csv").exists()
    assert os.stat(out).st_mode == os.stat(made).st_mode


def test_working_directory_as_out_gets_the_files(tmp_path, monkeypatch):
    # rename(2) cannot replace the working directory (EBUSY)
    out = tmp_path / "run"
    out.mkdir()
    monkeypatch.chdir(out)
    compare_da(_tiny_cfg(repetitions=1), ".")
    assert os.listdir(tmp_path) == ["run"]
    assert sorted(os.listdir(out)) == ["comparison.csv", "comparison.txt", "da", "no_da"]
    assert (out / "da" / "metrics_rep0.csv").exists()


def test_grid_runs_get_subdirectories(tmp_path):
    out = tmp_path / "grid"
    results = run_experiment(_tiny_cfg(n_per_class=(3, 4)), str(out))
    assert len(results) == 2
    assert (out / "b1_n3" / "metrics_mean.csv").exists()
    assert (out / "b1_n4" / "metrics_mean.csv").exists()


def test_params_file_round_trips_float64(tmp_path):
    out = tmp_path / "p"
    results = run_experiment(_tiny_cfg(repetitions=1), str(out))
    written = np.array([float(line) for line in
                        (out / "params_final_rep0.csv").read_text().split()])
    assert np.array_equal(written, results[0].per_rep_params[0])


def test_cnn_model_runs_too(tmp_path):
    out = tmp_path / "cnn"
    results = run_experiment(_tiny_cfg(model="cnn", epochs=2), str(out))
    assert results[0].per_rep_rows[0][-1].epoch == 1
    assert (out / "metrics_mean.csv").exists()


@pytest.mark.parametrize("reps", [1, 7, 8, 9, 20])
def test_mean_final_test_acc_is_bitwise_the_mean_of_the_final_accuracies(reps):
    rng = np.random.default_rng(reps)
    rows = np.recarray((reps, 4), METRICS)
    rows.view(np.float64)[...] = rng.random((reps, 4 * 5)) * 10.0 ** rng.integers(-6, 6, (reps, 4 * 5))
    result = RunResult(0, 1, 4, rows, (), rows[0])
    finals = [rows[k][-1].test_acc.item() for k in range(reps)]
    assert isinstance(result.mean_final_test_acc, float)
    assert result.mean_final_test_acc.hex() == float(np.mean(finals)).hex()


# ---------------------------------------------------------------------------
# compare_da
# ---------------------------------------------------------------------------

def test_compare_da_outputs_and_alignment(tmp_path):
    out = tmp_path / "cmp"
    table = compare_da(_tiny_cfg(), str(out))
    assert isinstance(table, ComparisonTable)
    assert len(table.rows) == 1
    assert (out / "comparison.csv").exists()
    assert (out / "comparison.txt").exists()
    assert (out / "no_da" / "metrics_mean.csv").exists()
    assert (out / "da" / "metrics_mean.csv").exists()
    csv = (out / "comparison.csv").read_text().strip().split("\n")
    assert csv[0] == "class_a,class_b,n_per_class,acc_no_da,acc_da,delta"
    assert csv[1].startswith("0,1,4,")


def test_compare_da_row_count_is_grid_size(tmp_path):
    table = compare_da(_tiny_cfg(class_b=(1, 9), n_per_class=(3, 4)),
                       str(tmp_path / "grid"))
    assert len(table.rows) == 4


def test_compare_da_disabled_both_arms_gives_zero_delta(tmp_path):
    """Forcing the DA arm to the `none` recipe must reproduce the no-DA arm."""
    cfg = _tiny_cfg()
    out = tmp_path / "null"
    # compare_da swaps in the dataset recipe when augment is none, so run the
    # two arms by hand through run_experiment with identical settings instead
    a = run_experiment(cfg, str(tmp_path / "arm_a"))
    b = run_experiment(cfg, str(tmp_path / "arm_b"))
    assert a[0].mean_final_test_acc == b[0].mean_final_test_acc


def test_compare_da_uses_same_seeds_in_both_arms(tmp_path):
    out = tmp_path / "seeds"
    compare_da(_tiny_cfg(), str(out))
    no_cfg = (out / "no_da" / "config_resolved.cfg").read_text()
    da_cfg = (out / "da" / "config_resolved.cfg").read_text()
    base_no = [l for l in no_cfg.splitlines() if l.startswith("base_seed")]
    base_da = [l for l in da_cfg.splitlines() if l.startswith("base_seed")]
    assert base_no == base_da
    assert "augment = none" in no_cfg
    assert "augment = digits" in da_cfg


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_flag_is_usage_error(capsys):
    code = main(["train-qcnn", "--out", "x", "--frobnicate", "1"])
    assert code == 1
    assert "qcnnlab: unrecognized arguments: --frobnicate 1" in capsys.readouterr().err


def test_cli_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_cli_missing_dataset_path_is_data_error(tmp_path, capsys):
    code = main(["train-qcnn", "--out", str(tmp_path / "o"),
                 "--data-path", str(tmp_path / "absent.csv"),
                 "--n-per-class", "2", "--n-test", "4", "--epochs", "1",
                 "--repetitions", "1"])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "a directory", "not UTF-8"])
def test_cli_unreadable_config_file_is_config_error(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "a directory":
        cfg.mkdir()
    elif kind == "not UTF-8":
        cfg.write_bytes(b"epochs = 1\n# \xff\n")
    assert main(["train-qcnn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and "Traceback" not in err


@pytest.mark.parametrize("key", ["class_b", "n_per_class"])
def test_a_repeated_grid_value_is_refused(tmp_path, key):
    """A repeated value would train one cell twice and write it once."""
    with pytest.raises(ConfigError, match=f"{key} must be nonempty with no repeated value"):
        resolve_config({key: "2,3,2"}, {})
    out = tmp_path / "o"
    assert main(["compare-da", "--" + key.replace("_", "-"), "5,5", "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_bad_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = soon\n")
    assert main(["train-qcnn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_cli_train_qcnn_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train-qcnn", "--out", str(out), "--data-path", DIGITS,
                 "--n-per-class", "3", "--n-test", "6", "--epochs", "1",
                 "--repetitions", "1", "--depth", "1"])
    assert code == 0
    assert (out / "metrics_rep0.csv").exists()
    assert (out / "config_resolved.cfg").exists()
    assert "mean final test acc" in capsys.readouterr().out


def test_cli_prints_one_progress_line_per_repetition(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-qcnn", "--out", str(out), "--data-path", DIGITS, "--n-per-class", "3",
                 "--n-test", "6", "--epochs", "2", "--repetitions", "2", "--depth", "1"]) == 0
    captured = capsys.readouterr()
    accs = [float((out / f"metrics_rep{k}.csv").read_text().splitlines()[-1].split(",")[-1])
            for k in range(2)]
    assert captured.out == (f"0-vs-1 N=3: mean final test acc {(accs[0] + accs[1]) / 2:.4f} "
                            f"over 2 reps\nwrote {out}\n")
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for k, (line, acc) in enumerate(zip(lines, accs)):
        assert re.fullmatch(rf"0-vs-1 N=3 rep {k + 1}/2: final test acc {acc:.4f}, \d+\.\d\d s",
                            line), line


def test_cli_train_cnn_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = main(["train-cnn", "--out", str(out), "--data-path", DIGITS,
                 "--n-per-class", "3", "--n-test", "6", "--epochs", "1",
                 "--repetitions", "1"])
    assert code == 0
    assert (out / "metrics_rep0.csv").exists()


def test_cli_divergent_cnn_is_numeric_failure_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train-cnn", "--out", str(out), "--data-path", DIGITS, "--lr0", "1e308",
                     "--epochs", "2", "--repetitions", "1", "--threads", "1"])
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err
    assert code == 3
    assert "non-finite" in captured.err
    assert "seed 0, epoch 0, lr 1e+308" in captured.err
    assert "mean final test acc" not in captured.out
    assert not out.exists()


def _rejected_up_front(tmp_path, capsys, *flags):
    out = tmp_path / "run"
    code = main(["train-qcnn", "--out", str(out), "--data-path", DIGITS, "--n-per-class", "3",
                 "--epochs", "1", "--repetitions", "1", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert not out.exists()
    return err


def test_cli_infeasible_architecture_is_config_error(tmp_path, capsys):
    assert "at least 2 qubits" in _rejected_up_front(tmp_path, capsys, "--n-qubits", "1")
    assert "exhausts" in _rejected_up_front(tmp_path, capsys, "--n-qubits", "2", "--depth", "2")


def test_cli_readout_wider_than_five_wires_is_config_error(tmp_path, capsys):
    err = _rejected_up_front(tmp_path, capsys, "--depth", "0")
    assert "a 6-wire readout takes 4095 rotations" in err and "raise depth" in err


def test_cli_register_too_small_for_images_is_config_error(tmp_path, capsys):
    assert "64 pixels" in _rejected_up_front(tmp_path, capsys, "--n-qubits", "5", "--depth", "1")
    assert "16 pixels" in _rejected_up_front(tmp_path, capsys, "--n-qubits", "3", "--depth", "1",
                                             "--resize", "4")


def test_cli_class_a_in_class_b_is_config_error(tmp_path, capsys):
    assert "class_a 0" in _rejected_up_front(tmp_path, capsys, "--class-b", "1,0")


def test_cli_odd_n_test_is_config_error(tmp_path, capsys):
    assert "n_test 7" in _rejected_up_front(tmp_path, capsys, "--n-test", "7")


@pytest.mark.parametrize("flags, message", [
    (("--base-seed", "-1"), "base_seed must be >= 0, got -1"),
    (("--n-per-class", "0"), "every n_per_class must be >= 1, got (0,)"),
    (("--n-per-class", "3,-3"), "every n_per_class must be >= 1, got (3, -3)"),
    (("--n-test", "0"), "n_test 0 must be even and >= 2"),
    (("--epochs", "0"), "epochs must be >= 1, got 0"),
])
def test_cli_setting_that_cannot_train_is_config_error_before_loading(tmp_path, capsys,
                                                                       flags, message):
    # a data path that does not exist: loading it first would be a data error (exit 2)
    err = _rejected_up_front(tmp_path, capsys, *flags, "--data-path", str(tmp_path / "absent.csv"))
    assert f"config error: {message}" in err


def test_cli_negative_lr0_is_config_error(tmp_path, capsys):
    assert "lr0 must be >= 0" in _rejected_up_front(tmp_path, capsys, "--lr0", "-1")


def test_cli_lr_decay_outside_unit_interval_is_config_error(tmp_path, capsys):
    assert "lr_decay must be in [0, 1)" in _rejected_up_front(tmp_path, capsys, "--lr-decay", "1.5")


def test_cli_non_dividing_resize_is_config_error(tmp_path, capsys):
    err = _rejected_up_front(tmp_path, capsys, "--n-qubits", "4", "--depth", "1", "--resize", "5")
    assert "resize 5 does not divide the 8x8" in err


_RUN_FLAGS = ["--data-path", DIGITS, "--n-per-class", "3", "--n-test", "6", "--epochs", "1",
              "--repetitions", "1", "--depth", "1"]
_OUT_ARGV = {
    "train-qcnn": ["train-qcnn", *_RUN_FLAGS],
    "train-cnn": ["train-cnn", *_RUN_FLAGS],
    "compare-da": ["compare-da", *_RUN_FLAGS],
    "augment-preview": ["augment-preview", "--data-path", DIGITS, "--count", "1", "--index", "9"],
}


@pytest.mark.parametrize("command", sorted(_OUT_ARGV))
def test_cli_non_empty_out_is_config_error(tmp_path, capsys, command):
    # a 1-rep run into a 3-rep run's directory would leave metrics_rep1/2.csv
    # beside the new results; a 1-variant preview would leave aug1.pgm
    out = tmp_path / "old_run"
    out.mkdir()
    (out / "metrics_rep2.csv").write_text("stale\n")
    code = main([*_OUT_ARGV[command], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"output directory {out} is not empty" in captured.err
    assert "mean final test acc" not in captured.out
    assert "wrote" not in captured.out
    assert sorted(os.listdir(out)) == ["metrics_rep2.csv"]
    assert (out / "metrics_rep2.csv").read_text() == "stale\n"


def test_cli_out_that_is_a_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("x")
    for command in ("train-cnn", "augment-preview"):
        code = main([*_OUT_ARGV[command], "--out", str(out)])
        assert code == 1, command
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "x"


@pytest.mark.parametrize("command", ["train-qcnn", "train-cnn"])
def test_cli_mixed_size_pgm_dir_is_data_error(tmp_path, capsys, command):
    data = tmp_path / "pets"
    data.mkdir()
    rng = np.random.default_rng(0)
    for k in range(3):
        write_pgm(data / f"cat{k}.pgm", rng.random((8, 8)))
        write_pgm(data / f"dog{k}.pgm", rng.random((4, 16)))
    out = tmp_path / "run"
    code = main([command, "--out", str(out), "--dataset", "catdog", "--data-path", str(data),
                 "--n-per-class", "1", "--n-test", "2", "--epochs", "1", "--repetitions", "1",
                 "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "data error: dog0.pgm is 4x16 but cat0.pgm is 8x8" in err
    assert not out.exists()


def test_cli_empty_existing_out_is_accepted(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    code = main(["train-cnn", "--out", str(out), "--data-path", DIGITS, "--n-per-class", "3",
                 "--n-test", "6", "--epochs", "1", "--repetitions", "1"])
    assert code == 0
    assert (out / "metrics_rep0.csv").exists()


def test_cli_compare_da_end_to_end(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare-da", "--out", str(out), "--data-path", DIGITS,
                 "--n-per-class", "3", "--n-test", "6", "--epochs", "1",
                 "--repetitions", "1", "--depth", "1"])
    assert code == 0
    assert (out / "comparison.csv").exists()
    assert "no DA" in capsys.readouterr().out


def test_cli_augment_preview_writes_files(tmp_path):
    out = tmp_path / "prev"
    code = main(["augment-preview", "--data-path", DIGITS, "--index", "3",
                 "--count", "2", "--out", str(out)])
    assert code == 0
    assert (out / "original.pgm").exists()
    assert (out / "aug0.pgm").exists()
    assert (out / "aug1.pgm").exists()
    assert (out / "preview.csv").exists()


def test_cli_augment_preview_bad_index_is_data_error(tmp_path):
    code = main(["augment-preview", "--data-path", DIGITS, "--index", "99999",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("flag", ["--count", "--seed"])
def test_cli_augment_preview_negative_count_or_seed_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "prev"
    code = main(["augment-preview", "--data-path", DIGITS, flag, "-2", "--out", str(out)])
    assert code == 1
    assert f"augment-preview: {flag} must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_qcnnlab_runs_selftest():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qcnnlab", "selftest"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: all checks passed" in proc.stdout


def test_cli_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "selftest: cnn gradient matches finite differences: ok" in out
    assert "selftest: np.loadtxt refuses out-of-range uint8 fields: ok" in out
    assert "FAIL" not in out
