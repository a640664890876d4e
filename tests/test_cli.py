import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sensopt
import sensopt.cli
import sensopt.data
from sensopt.cli import _scaled_count, _write_json, main
from sensopt.curves import Curve, criteria
from sensopt.data import TEST, NormalizationSpec, read_csv, split
from sensopt.errors import ConfigurationError, RangeError
from sensopt.network import Model, NetworkConfig, init_parameters, load_model, save_model
from sensopt.oracle import SETTING_RANGES
from sensopt.sweep import CHUNK_COMBINATIONS, predict_curves
from sensopt.training import evaluate, write_prediction_csvs


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
    assert main(["optimize", "--model", "model.bin", "--seed", "0"]) == 1  # optimize has no seed


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


# SHA-256 of dataset.csv from `sensopt generate --scale 0.4 --noise 0.5`
# (243 combinations, 48,600 rows, the benchmark's desk fixture), pinned
# from the per-combination oracle loop and the one-format-per-field CSV
# writer that the batched oracle and the distinct-value writer replaced.
# The oracle's math functions and BLAS dot products decide the last bits:
# this was pinned with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
DESK_DATASET_SHA256 = {
    0: "56e87046f6b0e4f9e2ea9991f23bca40ce5d1dac3d5093ce57dedbfc798b0180",
    3: "180d805c1b3ce18a87fa56a899c30604e70cb094b1edb4af28d2989bf77b97f2",
}


@pytest.mark.parametrize("seed", sorted(DESK_DATASET_SHA256))
def test_desk_dataset_bytes_are_pinned(seed, tmp_path):
    argv = ["generate", "--out", str(tmp_path), "--scale", "0.4", "--noise", "0.5"]
    assert main(argv + ["--seed", str(seed)]) == 0
    digest = hashlib.sha256((tmp_path / "dataset.csv").read_bytes()).hexdigest()
    assert digest == DESK_DATASET_SHA256[seed]


# SHA-256 of the outputs of `train --epochs 1 --seed 0` on the seed-0 desk
# dataset above and of `optimize` on its model at 3 and at 6 points per
# axis, pinned before the sweep's tuple-streaming grid and the per-line
# history writer were replaced. model.bin was re-pinned when its header
# gained the training split's record; its payload did not change. The
# outputs of a plain `evaluate` of that model on that dataset were pinned
# once their `actual` column became the dataset's own values. Pinned
# with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, like the dataset.
DESK_OUTPUT_SHA256 = {
    "eval/metrics.json": "8d1be08285f6843a91f9a6f55daf9732ec1999ab8eccb78ecd8ff6da86888968",
    "eval/pred_vs_actual_output3.csv": "caeaa11b91c0fbd5ed415d0fdfb3b7100fb05c7da44aee37882cacf09051db20",
    "eval/pred_vs_actual_signal.csv": "8558faacf6a0d94fbdb1755c34e9939029e28915163554bcf1c9eb5534733abb",
    "eval/pred_vs_actual_snr.csv": "318c5ce6b09244db47a5951ca13f6e65cde4b4e31046ee66b78b16dca05c1045",
    "history.csv": "d4e3551440bb18b0c0e3a0621aa659b6241c698bd4352ba2578598f052470bc6",
    "model.bin": "9b136d4f6cca8dc46e5f817ca03f4b14564147ebb081c2a72424a2ed0e69e772",
    "opt3/selected_curve_c1c2c3.csv": "ecf40630a60d033c883f13536e56d0f7495c37edea1e7409a173b2579264922f",
    "opt3/selected_curve_c1c2c3c4.csv": "60f63f19cbcb16d4aea3148b6f06749797946aa2209e93059d67a9db6cd858dd",
    "opt3/selection_summary.json": "bd4a12a08355a46788fb9a4f6884917a78edb95af4a0a8c3ba5f215990457887",
    "opt3/sweep_report.csv": "b34d49d8b16eb0a12089fe7f6f83f4e346fe7fa8496c553cb8bcadde372367d1",
    "opt6/selected_curve_c1c2c3.csv": "e645968bf1a9fd8aa6d203d8e3b562c7ff6438bbbd9ac923d5b96f3ad3d869d1",
    "opt6/selected_curve_c1c2c3c4.csv": "1297bb422bc200395173809f81e708acde38d2e4044f2b6ee5fac8a926950601",
    "opt6/selection_summary.json": "d52b80fa23c2c9015451a3b474bf24629f57239b949208e70c6486a9a8344cd7",
    "opt6/sweep_report.csv": "dda61061363e64e4a1a7661b0b218ebe647440db786bf2cfdae9523078362abd",
}


def test_desk_train_and_optimize_bytes_are_pinned(tmp_path):
    argv = ["generate", "--out", str(tmp_path), "--scale", "0.4", "--noise", "0.5"]
    assert main(argv + ["--seed", "0"]) == 0
    assert main(["train", "--out", str(tmp_path), "--epochs", "1", "--seed", "0"]) == 0
    argv = ["evaluate", "--out", str(tmp_path / "eval"), "--model", str(tmp_path / "model.bin")]
    assert main([*argv, "--dataset", str(tmp_path / "dataset.csv")]) == 0
    for points in (3, 6):
        config = tmp_path / f"optimize_{points}.json"
        config.write_text(json.dumps({"optimize": {"points_per_axis": points}}))
        argv = ["optimize", "--out", str(tmp_path / f"opt{points}"),
                "--model", str(tmp_path / "model.bin"), "--config", str(config)]
        assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DESK_OUTPUT_SHA256
    }
    assert digests == DESK_OUTPUT_SHA256


def test_every_text_output_is_ascii_with_lf_line_endings(tmp_path):
    # One desk run of the four commands: every CSV and JSON file it writes,
    # the manifests included, keeps the README's promise of LF endings.
    out = tmp_path / "run"
    assert main(["generate", "--out", str(out), "--scale", "0.4", "--noise", "0.5"]) == 0
    assert main(["train", "--out", str(out), "--epochs", "1"]) == 0
    model, dataset = str(out / "model.bin"), str(out / "dataset.csv")
    assert main(["evaluate", "--out", str(out), "--model", model, "--dataset", dataset]) == 0
    config = tmp_path / "optimize.json"
    config.write_text(json.dumps({"optimize": {"points_per_axis": 3}}))
    assert main(["optimize", "--out", str(out), "--model", model, "--config", str(config)]) == 0
    texts = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json"))
    assert {p.name for p in texts} >= {
        f"{command}_manifest.json" for command in ("generate", "train", "evaluate", "optimize")
    }
    for path in texts:
        data = path.read_bytes()
        assert data.isascii() and data.endswith(b"\n"), path.name
        assert b"\r" not in data and b"\0" not in data, path.name


def test_desk_train_keeps_one_encoded_copy_of_the_data(tmp_path):
    # 48,600 rows: the 3.9 MB array the CSV is parsed into becomes the
    # encoded training and validation inputs, beside 1.2 MB of targets,
    # and nothing copies the rows again. The peak (7.4 MB measured) is
    # reached in train(), by its batch buffers, the epoch's permutation
    # and the validation forward's tiles.
    argv = ["generate", "--out", str(tmp_path), "--scale", "0.4", "--noise", "0.5"]
    assert main(argv + ["--seed", "0"]) == 0
    tracemalloc.start()
    try:
        assert main(["train", "--out", str(tmp_path), "--epochs", "1", "--seed", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_100_000


COMMANDS = ("evaluate", "generate", "optimize", "train")


def _small_run_argv(command: str, pipeline_dir, tmp_path) -> list[str]:
    """A quick run of `command` on copies of the pipeline's inputs, without --out."""
    dataset, model = tmp_path / "dataset.csv", tmp_path / "model.bin"
    shutil.copy(pipeline_dir / "dataset.csv", dataset)
    shutil.copy(pipeline_dir / "model.bin", model)
    return {
        "generate": ["generate", "--scale", "0.2"],
        "train": ["train", "--dataset", str(dataset), "--hidden", "16,16", "--epochs", "1"],
        "evaluate": ["evaluate", "--model", str(model), "--dataset", str(dataset)],
        "optimize": ["optimize", "--model", str(model), "--scale", "0.1"],
    }[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_each_failed_output_write_leaves_no_manifest(
    command, pipeline_dir, tmp_path, monkeypatch, capsys
):
    # Over a directory that holds a successful earlier run, the k-th
    # write through data.replacing raises, for every k up to the
    # manifest's: each run exits 2 and leaves no manifest.
    argv = _small_run_argv(command, pipeline_dir, tmp_path)
    if command != "optimize":
        argv += ["--seed", "7"]
    earlier = tmp_path / "earlier"
    assert main(argv + ["--out", str(earlier)]) == 0
    real_replacing = sensopt.data.replacing
    writes, failing = [], [0]

    @contextlib.contextmanager
    def counted_replacing(path, *args, **kwargs):
        writes.append(os.path.basename(path))
        with real_replacing(path, *args, **kwargs) as fh:
            if len(writes) == failing[0]:
                raise OSError("disk full")
            yield fh

    for module in vars(sensopt).values():
        if getattr(module, "replacing", None) is real_replacing:
            monkeypatch.setattr(module, "replacing", counted_replacing)
    assert main(argv + ["--out", str(earlier)]) == 0
    capsys.readouterr()
    manifest = f"{command}_manifest.json"
    # Every output is counted, then the manifest.
    outputs = json.loads((earlier / manifest).read_text())["outputs"]
    assert sorted(writes[:-1]) == outputs and writes[-1] == manifest
    for k in range(1, len(writes) + 1):
        out = tmp_path / f"fail{k}"
        shutil.copytree(earlier, out)
        writes.clear()
        failing[0] = k
        assert main(argv + ["--out", str(out)]) == 2, k
        assert len(writes) == k and "disk full" in capsys.readouterr().err
        assert not (out / manifest).exists(), k
        assert not list(out.glob("*.tmp")), k


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_vouches_for_each_output_by_digest(command, pipeline_dir, tmp_path):
    # The manifest records each output's SHA-256, so an output edited
    # after the run no longer matches it, and the others still do.
    out = tmp_path / "out"
    assert main(_small_run_argv(command, pipeline_dir, tmp_path) + ["--out", str(out)]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())

    def mismatched() -> list[str]:
        return [
            name for name, digest in manifest["output_sha256"].items()
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
        ]

    assert sorted(manifest["output_sha256"]) == manifest["outputs"]
    assert mismatched() == []
    edited = out / manifest["outputs"][-1]
    edited.write_bytes(edited.read_bytes() + b"\n")
    assert mismatched() == [edited.name]


def _readme_config_keys() -> dict[str, set[str]]:
    """The keys README.md lists for each config section, by command."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = text.split("The keys each section accepts, with their defaults:", 1)[1]
    keys = {}
    for item in listing.strip().split("\n\n", 1)[0].split("\n- "):
        command, listed = item.removeprefix("- ").split(":", 1)
        keys[command.strip("`")] = set(re.findall(r"`(\w+)` \(", listed))
    return keys


def test_every_flag_names_a_key_of_its_commands_resolved_config(pipeline_dir, tmp_path):
    # _resolve() reads a key's flag by the key's name: an option whose
    # dest names no key would be parsed and then ignored. The README
    # lists each command's keys, exactly.
    readme_keys = _readme_config_keys()
    assert sorted(readme_keys) == sorted(COMMANDS)
    subparsers = next(
        action for action in sensopt.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command in COMMANDS:
        out = tmp_path / command
        assert main(_small_run_argv(command, pipeline_dir, tmp_path) + ["--out", str(out)]) == 0
        resolved = json.loads((out / f"{command}_manifest.json").read_text())["resolved_config"]
        options = [a for a in subparsers.choices[command]._actions if a.option_strings]
        dests = {a.dest for a in options} - {"help", "config", "out", "model", "dataset"}
        assert dests and dests <= set(resolved), (command, sorted(dests - set(resolved)))
        assert readme_keys[command] == set(resolved), command


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
    # train, evaluate and a 6-per-axis optimize in one process per BLAS
    # thread count, since OpenBLAS reads it at load. Every output must
    # match byte for byte; the manifests name their run's own paths.
    src = str(Path(sensopt.__file__).resolve().parents[1])
    dataset = str(pipeline_dir / "dataset.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"optimize": {"points_per_axis": 6}}))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        model = str(out / "model.bin")
        runs = [
            ["train", "--out", str(out), "--dataset", dataset, "--epochs", "2", "--seed", "3"],
            ["evaluate", "--out", str(out / "eval"), "--model", model, "--dataset", dataset],
            ["optimize", "--out", str(out / "opt"), "--model", model, "--config", str(config)],
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        command = [
            sys.executable, "-c",
            "import json, sys; from sensopt.cli import main; "
            "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))",
            json.dumps(runs),
        ]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[threads] = {
            path.relative_to(out): path.read_bytes().replace(str(out).encode(), b"OUT")
            for path in sorted(out.rglob("*")) if path.is_file()
        }
    assert len(outputs["1"]) == 13
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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_table_too_small_to_split_is_a_configuration_error(
    command, pipeline_dir, tmp_path, capsys
):
    # 11 rows split as (8, 0, 3): the validation partition would be empty.
    lines = (pipeline_dir / "dataset.csv").read_text().splitlines()
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join(lines[:12]) + "\n")
    out = tmp_path / "out"
    model = str(pipeline_dir / "model.bin")
    argv = {
        "train": ["train", "--epochs", "1"],
        "evaluate": ["evaluate", "--model", model, "--seed", "0"],
    }[command]
    assert main([*argv, "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"sensopt {command}: configuration error: "
        "a split of 11 rows leaves the validation partition empty\n"
    )
    assert not out.exists()


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


def test_a_plain_evaluate_scores_the_models_held_out_rows(pipeline_dir, tmp_path, capsys):
    dataset = pipeline_dir / "dataset.csv"
    argv = ["train", "--out", str(tmp_path), "--dataset", str(dataset), "--hidden", "16,16"]
    assert main([*argv, "--epochs", "1", "--seed", "4"]) == 0
    model = str(tmp_path / "model.bin")
    out = tmp_path / "eval"
    assert main(["evaluate", "--out", str(out), "--model", model, "--dataset", str(dataset)]) == 0
    table = read_csv(dataset)
    held_out = table.select(split(len(table), 4).indices(TEST))
    expected = tmp_path / "expected"
    expected.mkdir()
    for path in write_prediction_csvs(evaluate(load_model(model), held_out), expected):
        name = os.path.basename(path)
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    manifest = json.loads((out / "evaluate_manifest.json").read_text())
    assert manifest["resolved_config"]["seed"] == 4

    # The model's split does not fit another dataset; a given seed splits it anyway.
    other = tmp_path / "other"
    assert main(["generate", "--out", str(other), "--scale", "0.1"]) == 0
    argv = ["evaluate", "--out", str(out), "--model", model]
    argv += ["--dataset", str(other / "dataset.csv")]
    capsys.readouterr()
    assert main(argv) == 1
    assert "trained on a split of 6400 rows, the dataset has 200" in capsys.readouterr().err
    assert main([*argv, "--seed", "0"]) == 0


def test_evaluate_actual_is_the_datasets_own_text(pipeline_dir, tmp_path):
    dataset = pipeline_dir / "dataset.csv"
    out = tmp_path / "eval"
    argv = ["evaluate", "--out", str(out), "--model", str(pipeline_dir / "model.bin")]
    assert main([*argv, "--dataset", str(dataset), "--seed", "0"]) == 0
    lines = dataset.read_text().splitlines()
    header = lines[0].split(",")
    held_out = [lines[1 + i].split(",") for i in split(len(lines) - 1, 0).indices(TEST)]
    for name in ("signal", "snr", "output3"):
        pairs = (out / f"pred_vs_actual_{name}.csv").read_text().splitlines()[1:]
        column = header.index(name)
        assert [pair.split(",")[0] for pair in pairs] == [row[column] for row in held_out], name


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
    assert sorted(manifest["resolved_config"]) == ["axes"]


@pytest.mark.parametrize(
    "section, flags, keys",
    [
        pytest.param({"scale": 0.3}, [], "scale", id="scale-in-file"),
        pytest.param({}, ["--scale", "0.3"], "scale", id="scale-flag"),
        pytest.param({"points_per_axis": 9}, [], "points_per_axis", id="points-in-file"),
        pytest.param(
            {"points_per_axis": 7}, ["--scale", "0.3"], "points_per_axis and scale", id="both"
        ),
    ],
)
def test_optimize_rejects_a_grid_size_beside_axes(
    pipeline_dir, tmp_path, capsys, section, flags, keys
):
    # Given keys count even at their default value (points_per_axis 9).
    axes = [{"minimum": lo, "maximum": hi, "step": hi - lo} for lo, hi in SETTING_RANGES]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"axes": axes, **section}}))
    out = tmp_path / "opt"
    argv = ["optimize", "--out", str(out), "--model", str(pipeline_dir / "model.bin")]
    assert main([*argv, "--config", str(config_path), *flags]) == 1
    message = f"optimize.axes sets the grid; {keys} cannot be given with it"
    assert capsys.readouterr().err == f"sensopt optimize: configuration error: {message}\n"
    assert not out.exists()


def test_optimize_row_budget_enforced(tmp_path, capsys):
    # 12 values per axis, from explicit axes or from points_per_axis:
    # 248,832 combinations, 49,766,400 rows. The grid is checked before
    # any work, so the model file is never read.
    axes = [{"minimum": lo, "maximum": hi, "step": (hi - lo) / 11} for lo, hi in SETTING_RANGES]
    config_path = tmp_path / "config.json"
    out = tmp_path / "opt"
    argv = ["optimize", "--out", str(out), "--model", str(tmp_path / "no_model.bin")]
    for section in ({"axes": axes}, {"points_per_axis": 12}):
        config_path.write_text(json.dumps({"optimize": section}))
        assert main([*argv, "--config", str(config_path)]) == 1, section
        assert "grid of 49766400 rows is over the budget of 24000000" in capsys.readouterr().err
        assert not out.exists()


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


def test_a_value_over_the_models_maximum_is_named_as_a_plain_float(pipeline_dir, tmp_path, capsys):
    # evaluate and the sweep name it in the same words.
    model = pipeline_dir / "model.bin"
    assert load_model(model).normalization.input_max[2] == 500.0
    lines = (pipeline_dir / "dataset.csv").read_text().splitlines()
    row = 1 + int(split(len(lines) - 1, 0).indices(TEST)[0])
    fields = lines[row].split(",")
    fields[2] = "501"
    lines[row] = ",".join(fields)
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join(lines) + "\n")
    argv = ["evaluate", "--out", str(tmp_path), "--model", str(model), "--dataset", str(dataset)]
    assert main(argv) == 2
    message = "input3 value 501.0 exceeds recorded maximum 500.0"
    assert capsys.readouterr().err == f"sensopt evaluate: error: {message}\n"
    settings = [float(fields[i]) for i in (0, 1, 2, 3, 5)]
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        list(predict_curves(load_model(model), [settings]))


def test_a_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b'{"generate": {}}\xff\xfe')
    assert main(["generate", "--out", str(tmp_path / "g"), "--config", str(config_path)]) == 1
    assert f"config file {config_path}: 'utf-8' codec" in capsys.readouterr().err


def test_optimize_rejects_a_model_whose_layer_size_is_a_float(pipeline_dir, tmp_path, capsys):
    raw = (pipeline_dir / "model.bin").read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    header["config"]["hidden"][0] = float(header["config"]["hidden"][0])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    model = tmp_path / "model.bin"
    model.write_bytes(raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + header_len :])
    code = main(["optimize", "--out", str(tmp_path / "opt"), "--model", str(model)])
    assert code == 2
    assert "malformed model header: layer sizes must be positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("n_inputs, n_outputs", [(11, 3), (7, 3), (10, 4)])
def test_optimize_rejects_a_model_of_other_widths(tmp_path, capsys, n_inputs, n_outputs):
    config = NetworkConfig(n_inputs=n_inputs, hidden=(8, 8), n_outputs=n_outputs)
    norm = NormalizationSpec((510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0), (6.0, 32.0, 5.0))
    model = tmp_path / "model.bin"
    save_model(Model(config, init_parameters(config, seed=0), norm), model)
    code = main(["optimize", "--out", str(tmp_path / "opt"), "--model", str(model)])
    assert code == 2
    message = f"model (inputs, outputs) ({n_inputs}, {n_outputs}); the format allows only (10, 3)"
    assert capsys.readouterr().err == f"sensopt optimize: error: {message}\n"
    assert not (tmp_path / "opt" / "optimize_manifest.json").exists()


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

    def axes_flags(name, counts):
        path = tmp_path / f"{name}.json"
        axes = [
            {"minimum": lo, "maximum": hi, "step": (hi - lo) / (count - 1)}
            if count > 1
            else {"minimum": lo, "maximum": lo, "step": 1.0}
            for (lo, hi), count in zip(SETTING_RANGES, counts)
        ]
        path.write_text(json.dumps({"optimize": {"axes": axes}}))
        return ["--config", str(path)]

    # Per run: its flags and the first report row its selections may be
    # on. In the two larger grids they lie outside the first chunk, whose
    # curves a sweep predicts first.
    runs = {
        # 3 points per axis: 243 combinations. Both selections pick
        # combination 123.
        "default": (["--scale", "0.25"], CHUNK_COMBINATIONS),
        # 324 combinations, scored in chunks of 64 with a short last chunk
        # of 4. The selections pick combinations 177 and 276.
        "custom_axes": (axes_flags("custom_axes", (3, 4, 3, 3, 3)), CHUNK_COMBINATIONS),
        # A grid of one chunk of 1 or 2 combinations, fewer than a
        # bit-stable block holds.
        "one_combination": (axes_flags("one_combination", (1, 1, 1, 1, 1)), 0),
        "two_combinations": (axes_flags("two_combinations", (1, 2, 1, 1, 1)), 0),
    }
    for name, (flags, first_row) in runs.items():
        out = tmp_path / name
        assert main(["optimize", "--out", str(out), "--model", str(model_path), *flags]) == 0
        rows = [line.split(",") for line in (out / "sweep_report.csv").read_text().splitlines()]
        header, body = rows[0], rows[1:]
        for label in ("c1c2c3c4", "c1c2c3"):
            flag = header.index(f"selected_{label}")
            (row,) = [r for r in body if r[flag] == "1"]
            assert body.index(row) >= first_row, (name, label)
            scored = [float(v) for v in row[header.index("c1") : header.index("c4") + 1]]
            exported = np.loadtxt(out / f"selected_curve_{label}.csv", delimiter=",", skiprows=1)
            signal, snr, output3 = exported[:, 0], exported[:, 1], exported[:, 4]
            curve = Curve(settings=(), signal=signal, snr=snr, output3=output3)
            assert np.array_equal(criteria(curve).as_tuple(), scored, equal_nan=True), (name, label)


def test_json_outputs_are_replaced_only_when_complete(tmp_path):
    path = tmp_path / "selection_summary.json"
    _write_json(str(path), {"k": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json(str(path), {"k": 2, "settings": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["selection_summary.json"]


# Keys a command no longer has: any value of theirs is an unknown key.
REMOVED_KEYS = {("optimize", "seed"), ("optimize", "row_budget")}


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
        ("optimize", "row_budget", 1000),
        ("optimize", "points_per_axis", 1),
        ("optimize", "points_per_axis", 0),
        ("optimize", "points_per_axis", -4),
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
    if (command, key) in REMOVED_KEYS:
        assert f"configuration error: unknown {command} config keys: ['{key}']" in err
    else:
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
