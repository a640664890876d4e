"""Minibatch training with a reduce-on-plateau schedule, plus evaluation.

The loop runs a fixed number of epochs, reshuffling the training rows
with an epoch-indexed seed, stepping the optimizer once per batch on the
batch-mean gradient, and halving the learning rate whenever the best
validation MSE has not improved for `plateau_patience` consecutive
epochs. MSE here is the mean over samples and the three normalized
outputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import (
    TEST,
    TRAIN,
    VALIDATION,
    NormalizationSpec,
    SampleTable,
    SplitAssignment,
    decode_outputs,
    encode_table,
    fit_normalization,
    replacing,
    split,
    write_table,
)
from .errors import ConfigurationError, TrainingDivergedError
from .network import (
    Model,
    NetworkConfig,
    NetworkParameters,
    adam_step,
    backprop,
    forward,
    forward_chunked,
    init_optimizer,
    init_parameters,
    sgd_step,
)

OUTPUT_NAMES = ("signal", "snr", "output3")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 20
    learning_rate: float = 5e-4
    plateau_patience: int = 5
    plateau_factor: float = 2.0
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.plateau_patience < 1:
            raise ConfigurationError("plateau_patience must be at least 1")
        if self.plateau_factor <= 1:
            raise ConfigurationError("plateau_factor must exceed 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


class PlateauSchedule:
    """Divide the rate by `factor` after `patience` epochs without a new best.

    Any strict improvement of the best validation error resets the
    counter; so does a reduction. Rates therefore form the nonincreasing
    ladder initial / factor**k.
    """

    def __init__(self, initial_rate: float, patience: int, factor: float):
        self.rate = initial_rate
        self.patience = patience
        self.factor = factor
        self.best = math.inf
        self.stall_count = 0

    def update(self, validation_error: float) -> float:
        """Record one epoch's validation error; returns the rate to use next."""
        if validation_error < self.best:
            self.best = validation_error
            self.stall_count = 0
        else:
            self.stall_count += 1
            if self.stall_count >= self.patience:
                self.rate /= self.factor
                self.stall_count = 0
        return self.rate


@dataclass
class TrainHistory:
    """Per-epoch record of (training MSE, validation MSE, learning rate)."""

    train_mse: list[float]
    val_mse: list[float]
    learning_rate: list[float]

    def __len__(self) -> int:
        return len(self.train_mse)

    def write_csv(self, path) -> None:
        with replacing(path) as fh:
            fh.write("epoch,train_mse,val_mse,learning_rate\n")
            for epoch in range(len(self)):
                fh.write(
                    f"{epoch},{self.train_mse[epoch]:.17g},"
                    f"{self.val_mse[epoch]:.17g},{self.learning_rate[epoch]:.17g}\n"
                )


def mse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean squared error over every array entry."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise ConfigurationError(f"shapes {a.shape} and {p.shape} must match")
    return float(np.mean((a - p) ** 2))


def r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination; NaN flags a zero-variance actual."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise ConfigurationError(f"shapes {a.shape} and {p.shape} must match")
    ss_total = float(np.sum((a - a.mean()) ** 2))
    if ss_total == 0.0:
        return float("nan")
    ss_residual = float(np.sum((a - p) ** 2))
    return 1.0 - ss_residual / ss_total


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1, epoch))
    return np.random.Generator(np.random.PCG64(ss)).permutation(n)


def train(
    net_config: NetworkConfig,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
) -> tuple[NetworkParameters, TrainHistory]:
    """Train a freshly initialized network on encoded data.

    Args:
        net_config: architecture to train.
        x_train/y_train: encoded training inputs and targets.
        x_val/y_val: encoded validation inputs and targets, used for the
            plateau schedule only; never trained on.
        cfg: loop hyperparameters; cfg.seed fixes initialization and the
            per-epoch shuffles, so identical calls give identical results.

    Returns:
        (trained parameters, per-epoch history). Runs exactly cfg.epochs
        epochs; there is no early stopping.

    Raises:
        TrainingDivergedError: a batch cost became non-finite.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    if x_train.shape[0] != y_train.shape[0] or x_train.shape[0] == 0:
        raise ConfigurationError("training inputs and targets must align and be nonempty")
    if x_val.shape[0] == 0:
        raise ConfigurationError("validation partition must be nonempty")

    params = init_parameters(net_config, cfg.seed)
    state = init_optimizer(cfg.optimizer, cfg.learning_rate, params)
    step = adam_step if cfg.optimizer == "adam" else sgd_step
    schedule = PlateauSchedule(cfg.learning_rate, cfg.plateau_patience, cfg.plateau_factor)
    history = TrainHistory(train_mse=[], val_mse=[], learning_rate=[])
    n = x_train.shape[0]

    for epoch in range(cfg.epochs):
        perm = _epoch_permutation(cfg.seed, epoch, n)
        state.learning_rate = schedule.rate
        squared_error_sum = 0.0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            rows = perm[start : start + cfg.batch_size]
            trace = forward(params, net_config, x_train[rows])
            batch_sq = float(np.mean((y_train[rows] - trace.output) ** 2))
            if not np.isfinite(batch_sq):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index} "
                    f"(parameter norm {params.norm():.6g})",
                    epoch=epoch,
                    batch=batch_index,
                    parameter_norm=params.norm(),
                )
            squared_error_sum += batch_sq * rows.size
            grads = backprop(params, net_config, trace, y_train[rows])
            step(params, grads, state)
        val_error = mse(y_val, forward_chunked(params, net_config, x_val))
        history.train_mse.append(squared_error_sum / n)
        history.val_mse.append(val_error)
        history.learning_rate.append(schedule.rate)
        schedule.update(val_error)
    return params, history


@dataclass
class OutputMetrics:
    name: str
    mse: float
    r_squared: float


@dataclass
class EvaluationReport:
    """Per-output metrics plus physical-unit predicted-vs-actual pairs."""

    metrics: tuple[OutputMetrics, ...]
    actual: np.ndarray
    predicted: np.ndarray

    def metric(self, name: str) -> OutputMetrics:
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(name)


def evaluate(model: Model, table: SampleTable) -> EvaluationReport:
    """Score `model` on the rows of `table`.

    MSE and R-squared are computed in normalized units per output; the
    returned pairs are decoded back to physical units for export.
    """
    if len(table) == 0:
        raise ConfigurationError("cannot evaluate on an empty table")
    x, y = encode_table(table, model.normalization)
    predictions = forward_chunked(model.params, model.config, x)
    metrics = tuple(
        OutputMetrics(
            name=OUTPUT_NAMES[j],
            mse=mse(y[:, j], predictions[:, j]),
            r_squared=r_squared(y[:, j], predictions[:, j]),
        )
        for j in range(len(OUTPUT_NAMES))
    )
    return EvaluationReport(
        metrics=metrics,
        actual=decode_outputs(y, model.normalization),
        predicted=decode_outputs(predictions, model.normalization),
    )


def write_prediction_csvs(report: EvaluationReport, directory) -> list[str]:
    """One actual-vs-predicted CSV per output; returns the paths written."""
    paths = []
    for j, name in enumerate(OUTPUT_NAMES):
        path = os.path.join(directory, f"pred_vs_actual_{name}.csv")
        pairs = np.column_stack([report.actual[:, j], report.predicted[:, j]])
        write_table(path, "actual,predicted", pairs)
        paths.append(path)
    return paths


def prepare_training_data(
    table: SampleTable, seed: int
) -> tuple[dict[str, np.ndarray], NormalizationSpec, SplitAssignment]:
    """Split a raw table, fit normalization on the training rows, encode all.

    Returns a dict with x_train/y_train/x_val/y_val/x_test/y_test, the
    fitted normalization and the split assignment.
    """
    assignment = split(len(table), seed)
    train_rows = table.select(assignment.indices(TRAIN))
    norm = fit_normalization(train_rows)
    arrays = {}
    for label, tag in ((TRAIN, "train"), (VALIDATION, "val"), (TEST, "test")):
        x, y = encode_table(table.select(assignment.indices(label)), norm)
        arrays[f"x_{tag}"] = x
        arrays[f"y_{tag}"] = y
    return arrays, norm, assignment
