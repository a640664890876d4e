import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensopt
from sensopt.cli import _scaled_count, _write_json, main
from sensopt.curves import Curve, criteria
from sensopt.data import read_csv
from sensopt.errors import ConfigurationError
from sensopt.network import save_model
from sensopt.oracle import SETTING_RANGES


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One generate + train run shared by the downstream command tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["generate", "--out", str(out), "--scale", "0.2", "--seed", "0"]) == 0
    assert (
        main(
            [
                "train",
                "--out",
                str(out),
                "--hidden",
                "16,16",
                "--epochs",
                "6",
                "--seed",
                "0",
            ]
        )
        == 0
    )
    return out


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "sensopt" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["train", "--epochs", "frog"]) == 1
    assert main(["evaluate"]) == 1  # --model and --dataset are required


def test_scaled_count_mapping():
    assert _scaled_count(5, 1.0) == 5
    assert _scaled_count(5, 0.2) == 2
    assert _scaled_count(5, 0.5) == 3
    assert _scaled_count(9, 0.2) == 2
    assert _scaled_count(9, 1.0) == 9
    for bad in (0.0, -0.5, 1.1):
        with pytest.raises(ConfigurationError):
            _scaled_count(5, bad)


def test_generate_outputs(pipeline_dir, capsys):
    table = read_csv(pipeline_dir / "dataset.csv")
    assert len(table) == 6400

    oracle_config = json.loads((pipeline_dir / "oracle_config.json").read_text())
    assert oracle_config["seed"] == 0

    manifest = json.loads((pipeline_dir / "generate_manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["resolved_config"]["scale"] == 0.2
    assert "dataset.csv" in manifest["outputs"]
    assert manifest["version"]


def test_generate_is_reproducible(pipeline_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["generate", "--out", str(again), "--scale", "0.2", "--seed", "0"]) == 0
    assert (again / "dataset.csv").read_bytes() == (pipeline_dir / "dataset.csv").read_bytes()


def test_generate_rejects_bad_scale(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--scale", "0"]) == 1


def test_train_artifacts(pipeline_dir):
    history = (pipeline_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mse,val_mse,learning_rate"
    assert len(history) == 7  # header + 6 epochs

    manifest = json.loads((pipeline_dir / "train_manifest.json").read_text())
    assert manifest["resolved_config"]["hidden"] == [16, 16]
    dataset_path = str(pipeline_dir / "dataset.csv")
    assert dataset_path in manifest["inputs"]
    assert len(manifest["inputs"][dataset_path]) == 64  # sha256 hex
    assert (pipeline_dir / "model.bin").stat().st_size > 0


def test_train_rejects_single_hidden_layer(pipeline_dir, tmp_path):
    code = main(
        [
            "train",
            "--out",
            str(tmp_path),
            "--dataset",
            str(pipeline_dir / "dataset.csv"),
            "--hidden",
            "64",
            "--epochs",
            "1",
        ]
    )
    assert code == 1


def test_train_is_identical_across_blas_thread_counts(pipeline_dir, tmp_path):
    # One process per BLAS thread count, since OpenBLAS reads it at load.
    src = str(Path(sensopt.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        command = [
            sys.executable, "-c", "import sys; from sensopt.cli import main; sys.exit(main(sys.argv[1:]))",
            "train", "--out", str(out), "--dataset", str(pipeline_dir / "dataset.csv"),
            "--epochs", "2", "--seed", "3",
        ]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[threads] = [(out / name).read_bytes() for name in ("model.bin", "history.csv")]
    assert outputs["1"] == outputs["2"]


def test_train_missing_dataset_is_runtime_error(tmp_path):
    assert main(["train", "--out", str(tmp_path), "--dataset", "/no/such.csv"]) == 2


def test_train_names_the_line_of_a_non_finite_field(pipeline_dir, tmp_path, capsys):
    lines = (pipeline_dir / "dataset.csv").read_text().splitlines()
    fields = lines[101].split(",")
    fields[8] = "nan"  # the snr of data row 100
    lines[101] = ",".join(fields)
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["train", "--out", str(tmp_path), "--dataset", str(dataset), "--epochs", "1"])
    assert code == 2
    assert "line 102: non-finite numeric field" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_evaluate_outputs(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--out",
            str(out),
            "--model",
            str(pipeline_dir / "model.bin"),
            "--dataset",
            str(pipeline_dir / "dataset.csv"),
            "--seed",
            "0",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "signal" in printed and "R^2" in printed

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["partition"] == "test"
    assert set(metrics["outputs"]) == {"signal", "snr", "output3"}
    for entry in metrics["outputs"].values():
        assert entry["mse"] >= 0

    # test partition of 6400 rows is 6400 - 5184 - 576 = 640 rows
    pairs = (out / "pred_vs_actual_snr.csv").read_text().splitlines()
    assert len(pairs) == 641

    manifest = json.loads((out / "evaluate_manifest.json").read_text())
    assert len(manifest["inputs"]) == 2


def test_evaluate_partition_flag(pipeline_dir, tmp_path):
    out = tmp_path / "eval_train"
    code = main(
        [
            "evaluate",
            "--out",
            str(out),
            "--model",
            str(pipeline_dir / "model.bin"),
            "--dataset",
            str(pipeline_dir / "dataset.csv"),
            "--partition",
            "train",
        ]
    )
    assert code == 0
    pairs = (out / "pred_vs_actual_snr.csv").read_text().splitlines()
    assert len(pairs) == 5185
    assert (
        main(
            [
                "evaluate",
                "--out",
                str(out),
                "--model",
                str(pipeline_dir / "model.bin"),
                "--dataset",
                str(pipeline_dir / "dataset.csv"),
                "--partition",
                "bogus",
            ]
        )
        == 1
    )


def test_evaluate_rejects_non_model_file(pipeline_dir, tmp_path):
    code = main(
        [
            "evaluate",
            "--out",
            str(tmp_path),
            "--model",
            str(pipeline_dir / "dataset.csv"),
            "--dataset",
            str(pipeline_dir / "dataset.csv"),
        ]
    )
    assert code == 2


def test_optimize_outputs(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "opt"
    code = main(
        [
            "optimize",
            "--out",
            str(out),
            "--model",
            str(pipeline_dir / "model.bin"),
            "--scale",
            "0.2",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "criteria c1c2c3c4: K=" in printed
    assert "criteria c1c2c3: K=" in printed

    report = (out / "sweep_report.csv").read_text().splitlines()
    assert len(report) == 33  # 2 points per axis -> 32 combinations

    summary = json.loads((out / "selection_summary.json").read_text())
    assert summary["candidate_count"] == 32
    assert set(summary["selections"]) == {"c1c2c3c4", "c1c2c3"}

    for label in ("c1c2c3c4", "c1c2c3"):
        curve_lines = (out / f"selected_curve_{label}.csv").read_text().splitlines()
        assert curve_lines[0] == "signal,snr,snr_ideal,snr_line,output3"
        assert len(curve_lines) == 201

    manifest = json.loads((out / "optimize_manifest.json").read_text())
    assert manifest["resolved_config"]["scale"] == 0.2


def test_optimize_axes_from_config(pipeline_dir, tmp_path):
    config = {
        "optimize": {
            "axes": [
                {"minimum": 418.0, "maximum": 510.0, "step": 92.0},
                {"minimum": 112.0, "maximum": 144.0, "step": 32.0},
                {"minimum": 400.0, "maximum": 500.0, "step": 100.0},
                {"minimum": 2850.0, "maximum": 3650.0, "step": 800.0},
                {"minimum": 3200.0, "maximum": 3200.0, "step": 10.0},
            ]
        }
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "opt_axes"
    code = main(
        [
            "optimize",
            "--out",
            str(out),
            "--model",
            str(pipeline_dir / "model.bin"),
            "--config",
            str(config_path),
        ]
    )
    assert code == 0
    report = (out / "sweep_report.csv").read_text().splitlines()
    assert len(report) == 17  # 2*2*2*2*1 combinations
    manifest = json.loads((out / "optimize_manifest.json").read_text())
    assert manifest["resolved_config"]["axes"][4]["maximum"] == 3200.0


def test_optimize_row_budget_enforced(pipeline_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"row_budget": 1000}}))
    code = main(
        [
            "optimize",
            "--out",
            str(tmp_path / "opt"),
            "--model",
            str(pipeline_dir / "model.bin"),
            "--config",
            str(config_path),
            "--scale",
            "0.2",
        ]
    )
    assert code == 1


def test_config_sections_and_flag_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"generate": {"seed": 5, "scale": 0.2}}))
    out = tmp_path / "gen"
    code = main(
        ["generate", "--out", str(out), "--config", str(config_path), "--seed", "9"]
    )
    assert code == 0
    manifest = json.loads((out / "generate_manifest.json").read_text())
    assert manifest["resolved_config"]["seed"] == 9  # flag beats config
    assert manifest["resolved_config"]["scale"] == 0.2  # config beats default


def test_config_unknown_key_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"generate": {"sigma": 1.0}}))
    assert main(["generate", "--out", str(tmp_path / "g"), "--config", str(config_path)]) == 1


def test_config_invalid_json(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    assert main(["generate", "--out", str(tmp_path / "g"), "--config", str(config_path)]) == 1


def test_train_names_the_line_that_is_not_utf8(pipeline_dir, tmp_path, capsys):
    dataset = tmp_path / "bad.csv"
    dataset.write_bytes((pipeline_dir / "dataset.csv").read_bytes() + b"\xff\xfe")
    code = main(["train", "--out", str(tmp_path), "--dataset", str(dataset), "--epochs", "1"])
    assert code == 2
    assert "line 6402: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_selected_curve_is_the_scored_curve(small_model, tmp_path):
    model_path = tmp_path / "model.bin"
    save_model(small_model, model_path)
    out = tmp_path / "opt"
    # 3 points per axis: 243 combinations, scored in chunks of 64.
    assert main(["optimize", "--out", str(out), "--model", str(model_path), "--scale", "0.25"]) == 0
    rows = [line.split(",") for line in (out / "sweep_report.csv").read_text().splitlines()]
    header, body = rows[0], rows[1:]
    for label in ("c1c2c3c4", "c1c2c3"):
        flag = header.index(f"selected_{label}")
        (row,) = [r for r in body if r[flag] == "1"]
        scored = [float(v) for v in row[header.index("c1") : header.index("c4") + 1]]
        exported = np.loadtxt(out / f"selected_curve_{label}.csv", delimiter=",", skiprows=1)
        signal, snr, output3 = exported[:, 0], exported[:, 1], exported[:, 4]
        curve = Curve(settings=(), signal=signal, snr=snr, output3=output3)
        assert np.array_equal(criteria(curve).as_tuple(), scored, equal_nan=True), label


def test_json_outputs_are_replaced_only_when_complete(tmp_path):
    path = tmp_path / "selection_summary.json"
    _write_json(str(path), {"k": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json(str(path), {"k": 2, "settings": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["selection_summary.json"]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "batch_size", 2.5),
        ("train", "epochs", "1"),
        ("optimize", "points_per_axis", "3"),
        ("generate", "seed", "x"),
        ("generate", "scale", True),
        ("evaluate", "partition", 3),
        ("train", "hidden", [64.5, 64]),
        ("generate", "seed", -1),
        ("train", "seed", -1),
        ("evaluate", "seed", -1),
        ("optimize", "seed", -1),
    ],
)
def test_config_values_must_have_their_defaults_type(command, key, value, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({command: {key: value}}))
    argv = [command, "--out", str(tmp_path / "out"), "--config", str(config_path)]
    if command in ("evaluate", "optimize"):
        argv += ["--model", str(tmp_path / "model.bin")]
    if command == "evaluate":
        argv += ["--dataset", str(tmp_path / "dataset.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"configuration error: {command}.{key}" in err
    assert "Traceback" not in err


def test_optimize_rejects_chunk_combinations_key(tmp_path, capsys):
    # Predicted blocks always hold sweep.CHUNK_COMBINATIONS combinations.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"chunk_combinations": 64}}))
    argv = ["optimize", "--out", str(tmp_path / "opt"), "--model", str(tmp_path / "model.bin")]
    assert main([*argv, "--config", str(config_path)]) == 1
    assert "unknown optimize config keys: ['chunk_combinations']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--noise", "nan"],
        ["train", "--learning-rate", "nan"],
        ["train", "--learning-rate", "inf"],
    ],
)
def test_non_finite_flags_are_configuration_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["minimum", "step"])
def test_optimize_rejects_a_non_finite_axis(field, tmp_path, capsys):
    axes = [{"minimum": lo, "maximum": hi, "step": hi - lo} for lo, hi in SETTING_RANGES]
    axes[2][field] = float("nan")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"axes": axes}}))
    argv = ["optimize", "--out", str(tmp_path / "opt"), "--model", str(tmp_path / "model.bin")]
    assert main([*argv, "--config", str(config_path)]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_negative_seed_flag_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--seed", "-1", "--scale", "0.2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: generate.seed" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "index, field, value", [(0, "minimum", "418"), (1, "maximum", True), (4, "step", None)]
)
def test_optimize_axis_entries_must_be_numbers(index, field, value, tmp_path, capsys):
    axes = [{"minimum": lo, "maximum": hi, "step": hi - lo} for lo, hi in SETTING_RANGES]
    axes[index][field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"axes": axes}}))
    argv = ["optimize", "--out", str(tmp_path / "opt"), "--model", str(tmp_path / "model.bin")]
    assert main([*argv, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: optimize.axes[{index}].{field} must be a number" in err
    assert not (tmp_path / "opt").exists()


def test_python_m_sensopt_cli_runs_the_cli():
    src = str(Path(sensopt.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "sensopt.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"sensopt {sensopt.__version__}"
