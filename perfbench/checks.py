"""Output checks for benchmark ops, written without sensopt's own code.

Each check raises CheckFailed with a one-line reason; the benchmark
counts the op as failed.  The sweep check re-derives dense ranks and the
smallest-K rank-intersection selection from the criteria columns of
sweep_report.csv in plain Python, so a bug in sensopt's ranking cannot
hide behind the same bug in the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

SETTING_COLUMNS = ("input1", "input2", "input3", "input4", "input6")
CRITERIA = ("c1", "c2", "c3", "c4")
SUBSETS = {"c1c2c3": (0, 1, 2), "c1c2c3c4": (0, 1, 2, 3)}


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


def check_manifest(out_dir, command: str) -> None:
    """Every output the command's manifest lists exists in `out_dir`."""
    path = os.path.join(out_dir, f"{command}_manifest.json")
    require(os.path.isfile(path), f"{command}_manifest.json missing")
    with open(path) as fh:
        manifest = json.load(fh)
    require(manifest.get("command") == command, f"manifest names command {manifest.get('command')!r}")
    outputs = manifest.get("outputs")
    require(isinstance(outputs, list) and outputs, "manifest lists no outputs")
    for name in outputs:
        require(os.path.isfile(os.path.join(out_dir, name)), f"manifest output {name} missing")


def check_dataset(path, rows: int) -> None:
    """The CSV holds a header plus exactly `rows` records."""
    found = count_lines(path) - 1
    require(found == rows, f"{os.path.basename(path)} has {found} rows, expected {rows}")


def check_history(path, epochs: int) -> float:
    """history.csv has one finite row per epoch; returns the final validation MSE."""
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    require(len(records) == epochs, f"history.csv has {len(records)} epochs, expected {epochs}")
    for expected, record in enumerate(records):
        require(int(record["epoch"]) == expected, f"history.csv epoch column out of order at {expected}")
        for column in ("train_mse", "val_mse"):
            require(math.isfinite(float(record[column])), f"history.csv {column} not finite at epoch {expected}")
    return float(records[-1]["val_mse"])


def check_metrics(path) -> float:
    """metrics.json scores all three outputs finitely; returns the lowest R^2."""
    with open(path) as fh:
        outputs = json.load(fh)["outputs"]
    require(sorted(outputs) == ["output3", "signal", "snr"], f"metrics.json outputs {sorted(outputs)}")
    r_squared = []
    for name, scores in outputs.items():
        require(math.isfinite(scores["mse"]), f"{name} MSE not finite")
        require(scores["r_squared"] is not None and math.isfinite(scores["r_squared"]), f"{name} R^2 not finite")
        r_squared.append(scores["r_squared"])
    return min(r_squared)


def _dense_ranks(values: list[float]) -> list[int | None]:
    distinct = sorted({v for v in values if not math.isnan(v)})
    position = {v: i for i, v in enumerate(distinct)}
    return [None if math.isnan(v) else position[v] for v in values]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_sweep(out_dir, combinations: int) -> None:
    """Re-derive ranks and selections from sweep_report.csv's criteria."""
    with open(os.path.join(out_dir, "sweep_report.csv"), newline="") as fh:
        records = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "selection_summary.json")) as fh:
        summary = json.load(fh)
    require(len(records) == combinations, f"sweep_report.csv has {len(records)} rows, expected {combinations}")
    require(summary["candidate_count"] == combinations, "selection_summary candidate_count disagrees")

    settings = [tuple(float(r[c]) for c in SETTING_COLUMNS) for r in records]
    criteria = [[float(r[c]) for r in records] for c in CRITERIA]
    ranks = [_dense_ranks(column) for column in criteria]
    for i, column in enumerate(ranks):
        reported = [None if r[f"rank_{CRITERIA[i]}"] == "" else int(r[f"rank_{CRITERIA[i]}"]) for r in records]
        require(reported == column, f"rank_{CRITERIA[i]} disagrees with the recomputed dense ranks")

    for label, subset in SUBSETS.items():
        worst = []
        for row in range(len(records)):
            picked = [ranks[i][row] for i in subset]
            worst.append(None if None in picked else max(picked))
        scorable = [w for w in worst if w is not None]
        require(bool(scorable), f"no candidate scorable on {label}")
        k = min(scorable) + 1
        pool = [row for row, w in enumerate(worst) if w is not None and w < k]
        winner = min(pool, key=lambda row: (sum(ranks[i][row] for i in subset), settings[row]))
        flags = [row for row, r in enumerate(records) if r[f"selected_{label}"] == "1"]
        require(flags == [winner], f"selected_{label} flags rows {flags[:3]}, expected [{winner}]")
        chosen = summary["selections"][label]
        require(chosen["k"] == k, f"{label}: summary K {chosen['k']}, recomputed {k}")
        require(
            tuple(chosen["settings"][c] for c in SETTING_COLUMNS) == settings[winner],
            f"{label}: summary settings disagree with the recomputed winner",
        )
        require(
            all(_same(chosen["criteria"][c], criteria[i][winner]) for i, c in enumerate(CRITERIA)),
            f"{label}: summary criteria disagree with the report row",
        )
