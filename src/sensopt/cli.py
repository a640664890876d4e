"""Command-line pipeline: generate, train, evaluate, optimize.

Every subcommand reads an optional JSON config file (one section per
subcommand, each value of its default's type) and lets explicit flags
override it; each flag overrides the key it names (--noise sets
noise_db). It writes its outputs under --out only, and records a
manifest with the fully resolved configuration and SHA-256 digests of
its file inputs, so any run can be reproduced. The manifest is the
run's last write, and the command deletes any earlier one before its
first output write: a run that fails midway leaves no manifest.

This module only parses and wires: the defaults come from TrainConfig,
NetworkConfig and SensorOracle, and the export of the selected curves
from sensopt.sweep.scored_curves().

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys

from . import __version__
from .curves import write_curve_csv
from .data import TEST, TRAIN, VALIDATION, read_csv, replacing, split, write_csv
from .errors import ConfigurationError, SensoptError
from .network import Model, NetworkConfig, load_model, save_model
from .oracle import TABLE1, SensorOracle, generate_dataset
from .sweep import (
    AxisSpec,
    InterpolationSpec,
    DEFAULT_POINTS_PER_AXIS,
    DEFAULT_ROW_BUDGET,
    default_sweep_spec,
    run_sweep,
    scored_curves,
    subset_label,
    write_report_csv,
)
# Not called here, but perfbench/spans.py wraps the binding
# sensopt.cli.predict_curves, so it stays importable from this module.
from .sweep import predict_curves  # noqa: F401
from .training import (
    TrainConfig,
    evaluate,
    prepare_training_data,
    train,
    write_prediction_csvs,
)

_PARTITIONS = {"train": TRAIN, "validation": VALIDATION, "test": TEST}
# The types a config-file value may have, by the type of its default.
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    type(None): ((list, type(None)), "a list or null"),
}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _scaled_count(full: int, scale: float) -> int:
    """Values kept per input at a given scale; 1.0 keeps all `full` values."""
    if not 0 < scale <= 1:
        raise ConfigurationError(f"--scale must be in (0, 1], got {scale!r}")
    return min(full, int(math.floor(full * scale)) + 1)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return config


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """`defaults`, overridden by the config file's section for the command, then by its flags.

    A key's flag is the option whose argparse dest is the key; a flag
    left out (None) keeps the config file's value or the default.

    Raises:
        ConfigurationError: the section is not an object, or holds an
            unknown key or a value whose type differs from its default's
            (a bool is not a number), or the seed is negative.
    """
    section = _load_config(args.config).get(args.command, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {args.command!r} must be a JSON object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown {args.command} config keys: {sorted(unknown)}")
    for key, value in section.items():
        types, expected = _CONFIG_TYPES[type(defaults[key])]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigurationError(f"{args.command}.{key} must be {expected}, got {value!r}")
    resolved = dict(defaults)
    resolved.update(section)
    flags = {key: getattr(args, key, None) for key in defaults}
    resolved.update({key: value for key, value in flags.items() if value is not None})
    if resolved["seed"] < 0:
        raise ConfigurationError(
            f"{args.command}.seed must be a non-negative integer, got {resolved['seed']!r}"
        )
    return resolved


def _write_json(path: str, document, sort_keys: bool = True) -> None:
    """Write `document` as indented JSON; see data.replacing() for failures."""
    with replacing(path) as fh:
        json.dump(document, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _manifest_path(out_dir: str, command: str) -> str:
    return os.path.join(out_dir, f"{command}_manifest.json")


def _start_outputs(out_dir: str, command: str) -> None:
    """Make `out_dir` and delete the command's manifest there, before any output is written.

    The manifest is written last, so until a run has written all its
    outputs no manifest vouches for them: a run that fails midway leaves
    no manifest beside a mix of its outputs and an earlier run's.
    """
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(_manifest_path(out_dir, command))


def _write_manifest(
    out_dir: str, command: str, resolved: dict, inputs: dict[str, str], outputs: list[str]
) -> None:
    manifest = {
        "tool": "sensopt",
        "version": __version__,
        "command": command,
        "resolved_config": resolved,
        "inputs": {path: _sha256(path) for path in inputs.values()},
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    _write_json(_manifest_path(out_dir, command), manifest)


def cmd_generate(args: argparse.Namespace) -> int:
    oracle_defaults = SensorOracle().to_config()
    resolved = _resolve(args, {**oracle_defaults, "scale": 1.0})
    grid = TABLE1.subsample(_scaled_count(5, resolved["scale"]))
    oracle = SensorOracle.from_config({key: resolved[key] for key in oracle_defaults})
    table = generate_dataset(oracle, grid)
    _start_outputs(args.out, "generate")
    dataset_path = os.path.join(args.out, "dataset.csv")
    write_csv(table, dataset_path)
    oracle_path = os.path.join(args.out, "oracle_config.json")
    _write_json(oracle_path, oracle.to_config())
    _write_manifest(args.out, "generate", resolved, {}, [dataset_path, oracle_path])
    print(
        f"generated {len(table)} rows ({grid.combination_count} combinations) "
        f"-> {dataset_path}"
    )
    return 0


def _parse_hidden(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ConfigurationError(f"--hidden must be comma-separated integers, got {value!r}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ConfigurationError(f"train.hidden entries must be integers, got {value!r}")
    hidden = tuple(value)
    if len(hidden) < 2:
        raise ConfigurationError("at least two hidden layers are required")
    return hidden


def cmd_train(args: argparse.Namespace) -> int:
    train_defaults = dataclasses.asdict(TrainConfig())
    net_defaults = NetworkConfig()
    resolved = _resolve(
        args, {**train_defaults, "hidden": list(net_defaults.hidden), "alpha": net_defaults.alpha}
    )
    resolved["hidden"] = list(_parse_hidden(resolved["hidden"]))
    net_config = NetworkConfig(hidden=tuple(resolved["hidden"]), alpha=resolved["alpha"])
    train_cfg = TrainConfig(**{key: resolved[key] for key in train_defaults})
    dataset_path = args.dataset or os.path.join(args.out, "dataset.csv")
    # No name holds the raw table, so it is freed before training starts.
    arrays, norm, _ = prepare_training_data(read_csv(dataset_path), resolved["seed"])
    params, history = train(
        net_config,
        arrays["x_train"],
        arrays["y_train"],
        arrays["x_val"],
        arrays["y_val"],
        train_cfg,
    )
    _start_outputs(args.out, "train")
    model_path = os.path.join(args.out, "model.bin")
    save_model(Model(config=net_config, params=params, normalization=norm), model_path)
    history_path = os.path.join(args.out, "history.csv")
    history.write_csv(history_path)
    _write_manifest(
        args.out, "train", resolved, {"dataset": dataset_path}, [model_path, history_path]
    )
    print(
        f"trained {len(history)} epochs: final train MSE {history.train_mse[-1]:.6g}, "
        f"validation MSE {history.val_mse[-1]:.6g} -> {model_path}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, {"seed": 0, "partition": "test"})
    if resolved["partition"] not in _PARTITIONS:
        raise ConfigurationError(
            f"partition must be one of {sorted(_PARTITIONS)}, got {resolved['partition']!r}"
        )
    model = load_model(args.model)
    table = read_csv(args.dataset)
    assignment = split(len(table), resolved["seed"])
    rows = table.select(assignment.indices(_PARTITIONS[resolved["partition"]]))
    report = evaluate(model, rows)
    _start_outputs(args.out, "evaluate")
    metrics = {
        m.name: {
            "mse": m.mse,
            "r_squared": None if math.isnan(m.r_squared) else m.r_squared,
        }
        for m in report.metrics
    }
    metrics_path = os.path.join(args.out, "metrics.json")
    _write_json(
        metrics_path, {"partition": resolved["partition"], "outputs": metrics}, sort_keys=False
    )
    pair_paths = write_prediction_csvs(report, args.out)
    _write_manifest(
        args.out,
        "evaluate",
        resolved,
        {"model": args.model, "dataset": args.dataset},
        [metrics_path, *pair_paths],
    )
    for m in report.metrics:
        print(f"{m.name}: MSE {m.mse:.6g}, R^2 {m.r_squared:.6g}")
    return 0


def _axes_from_config(axes_config) -> list[AxisSpec] | None:
    if axes_config is None:
        return None
    if not isinstance(axes_config, list) or len(axes_config) != 5:
        raise ConfigurationError("optimize.axes must list exactly 5 axis objects")
    axes = []
    for i, entry in enumerate(axes_config):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"optimize.axes[{i}] must be an object, got {entry!r}")
        bounds = {}
        for key in ("minimum", "maximum", "step"):
            if key not in entry:
                raise ConfigurationError(f"optimize.axes[{i}] has no {key!r}")
            value = entry[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"optimize.axes[{i}].{key} must be a number, got {value!r}"
                )
            bounds[key] = float(value)
        axes.append(AxisSpec(**bounds))
    return axes


def cmd_optimize(args: argparse.Namespace) -> int:
    defaults = {
        "seed": 0,
        "scale": 1.0,
        "points_per_axis": DEFAULT_POINTS_PER_AXIS,
        "row_budget": DEFAULT_ROW_BUDGET,
        "axes": None,
    }
    resolved = _resolve(args, defaults)
    axes = _axes_from_config(resolved["axes"])
    if axes is not None:
        spec = InterpolationSpec(axes=tuple(axes), row_budget=resolved["row_budget"])
    else:
        points = _scaled_count(resolved["points_per_axis"], resolved["scale"])
        spec = default_sweep_spec(max(points, 2), row_budget=resolved["row_budget"])
    model = load_model(args.model)
    result = run_sweep(model, spec)
    _start_outputs(args.out, "optimize")
    report_path = os.path.join(args.out, "sweep_report.csv")
    write_report_csv(result, report_path)
    summary_path = os.path.join(args.out, "selection_summary.json")
    _write_json(summary_path, result.summary())
    outputs = [report_path, summary_path]
    curves = scored_curves(model, [s.settings for s in result.selections.values()])
    for (subset, selection), curve in zip(result.selections.items(), curves):
        curve_path = os.path.join(args.out, f"selected_curve_{subset_label(subset)}.csv")
        write_curve_csv(curve, curve_path)
        outputs.append(curve_path)
        values = ", ".join(f"{v:g}" for v in selection.settings)
        print(
            f"criteria {subset_label(subset)}: K={selection.k}, settings ({values}), "
            f"c4={selection.criteria.c4:.4g}"
        )
    resolved["axes"] = None if axes is None else [
        {"minimum": a.minimum, "maximum": a.maximum, "step": a.step} for a in axes
    ]
    _write_manifest(
        args.out, "optimize", resolved, {"model": args.model}, outputs
    )
    print(f"scored {spec.combination_count} combinations -> {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sensopt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sensopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scale: bool):
        p.add_argument("--config", help="JSON config file with per-command sections")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--out", default="sensopt_out", help="output directory")
        if scale:
            p.add_argument(
                "--scale", type=float, help="shrink dataset/search scale into (0, 1]"
            )

    p = sub.add_parser("generate", help="simulate a factorial dataset from the oracle")
    common(p, scale=True)
    p.add_argument(
        "--noise",
        type=float,
        dest="noise_db",
        metavar="NOISE",
        help="Gaussian SNR noise sigma in dB (default 0)",
    )
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("train", help="train a surrogate on a generated dataset")
    common(p, scale=False)
    p.add_argument("--dataset", help="dataset CSV (default <out>/dataset.csv)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--hidden", help="comma-separated hidden layer sizes, e.g. 64,64,64")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a dataset partition")
    common(p, scale=False)
    p.add_argument("--model", required=True, help="model file from `sensopt train`")
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.add_argument("--partition", choices=sorted(_PARTITIONS))
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("optimize", help="sweep interpolated settings through a model")
    common(p, scale=True)
    p.add_argument("--model", required=True, help="model file from `sensopt train`")
    p.set_defaults(handler=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"sensopt {args.command}: configuration error: {exc}", file=sys.stderr)
        return 1
    except SensoptError as exc:
        print(f"sensopt {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sensopt {args.command}: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
