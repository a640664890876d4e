"""Minibatch training with a reduce-on-plateau schedule, plus evaluation.

The loop runs a fixed number of epochs, reshuffling the training rows
with an epoch-indexed seed, stepping the optimizer once per batch on the
batch-mean gradient, and halving the learning rate whenever the best
validation MSE has not improved for `plateau_patience` consecutive
epochs. MSE here is the mean over samples and the three normalized
outputs.

A step gathers its batch's shuffled rows into buffers and runs
network.forward_into and network.backprop_into on them; train()
allocates these buffers once per run, one set for full batches and one
for a shorter last batch, and copies no partition.

Memory: prepare_training_data() encodes the training and validation
rows in place, in the array read_csv() parses a dataset's file into or
in one copy of a SampleTable's array, so a run holds that one array and
the targets, and no other copy of the data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import (
    COLUMNS,
    TRAIN,
    VALIDATION,
    N_NUMERIC_INPUTS,
    N_OUTPUTS,
    NormalizationSpec,
    SampleTable,
    SplitAssignment,
    decode_outputs,
    encode_rows_into,
    encode_table,
    fit_normalization,
    read_csv,
    split,
    write_table,
)
from .errors import ConfigurationError, DomainError, ShapeError, TrainingDivergedError
from .network import (  # noqa: F401  forward, backprop: bindings perfbench/spans.py wraps
    Model,
    NetworkConfig,
    NetworkParameters,
    adam_step,
    backprop,
    backprop_into,
    empty_gradients,
    empty_trace,
    forward,
    forward_chunked,
    forward_into,
    init_optimizer,
    init_parameters,
    sgd_step,
)

OUTPUT_NAMES = COLUMNS[N_NUMERIC_INPUTS + 1 :]
# Rows prepare_training_data() moves at a time when it compacts a table in place.
_COMPACT_ROWS = 4096


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        if self.plateau_patience < 1:
            raise ConfigurationError("plateau_patience must be at least 1")
        if not (math.isfinite(self.plateau_factor) and self.plateau_factor > 1):
            raise ConfigurationError("plateau_factor must be finite and exceed 1")
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
        """One line per epoch, 17 significant digits per field; see data.write_table()."""
        columns = [range(len(self)), self.train_mse, self.val_mse, self.learning_rate]
        write_table(path, "epoch,train_mse,val_mse,learning_rate", np.array(columns, np.float64))


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


def _checked_partition(config: NetworkConfig, x, y, name: str) -> tuple[np.ndarray, np.ndarray]:
    """`x` and `y` as float64 arrays, after the checks train() makes once."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.n_inputs:
        raise ShapeError(f"{name} inputs must have {config.n_inputs} columns, got shape {x.shape}")
    if y.ndim != 2 or y.shape[1] != config.n_outputs:
        raise ShapeError(f"{name} targets must have {config.n_outputs} columns, got shape {y.shape}")
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ConfigurationError(f"{name} inputs and targets must align and be nonempty")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} inputs must be finite")
    if not np.all(np.isfinite(y)):
        raise DomainError(f"{name} targets must be finite")
    return x, y


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

    Each batch's rows are gathered by index from x_train and y_train
    into the step's buffers, so the partitions are read, never copied or
    written.

    Returns:
        (trained parameters, per-epoch history). Runs exactly cfg.epochs
        epochs; there is no early stopping.

    Raises:
        ShapeError: an input or target width disagrees with net_config.
        DomainError: a non-finite input or target entry.
        ConfigurationError: a partition is empty or its arrays do not align.
        TrainingDivergedError: a batch cost became non-finite.
    """
    x_train, y_train = _checked_partition(net_config, x_train, y_train, "training")
    x_val, y_val = _checked_partition(net_config, x_val, y_val, "validation")

    params = init_parameters(net_config, cfg.seed)
    state = init_optimizer(cfg.optimizer, cfg.learning_rate, params)
    step = adam_step if cfg.optimizer == "adam" else sgd_step
    schedule = PlateauSchedule(cfg.learning_rate, cfg.plateau_patience, cfg.plateau_factor)
    history = TrainHistory(train_mse=[], val_mse=[], learning_rate=[])
    n = x_train.shape[0]
    size = cfg.batch_size

    # Per batch length (a full batch and the last one): the trace, whose
    # first activation holds the batch's inputs, the batch's targets, and
    # the gradient, hidden-layer derivative and squared-error buffers.
    buffers = {}
    for rows in (min(size, n), n - (n - 1) // size * size):
        trace = empty_trace(net_config, np.empty((rows, net_config.n_inputs)))
        scratch = [np.empty_like(z) for z in trace.pre_activations[:-1]]
        targets = np.empty((rows, net_config.n_outputs))
        grads = empty_gradients(params, rows)
        buffers[rows] = (trace, targets, grads, scratch, np.empty_like(targets))
    subtract, multiply, add_reduce, take = np.subtract, np.multiply, np.add.reduce, np.take

    for epoch in range(cfg.epochs):
        perm = _epoch_permutation(cfg.seed, epoch, n)
        state.learning_rate = schedule.rate
        squared_error_sum = 0.0
        for batch_index, start in enumerate(range(0, n, size)):
            stop = min(start + size, n)
            trace, targets, grads, scratch, squares = buffers[stop - start]
            # mode="clip" gathers straight into the batch buffers; the
            # default mode="raise" would gather into a temporary first.
            batch = perm[start:stop]
            take(x_train, batch, 0, trace.activations[0], "clip")
            take(y_train, batch, 0, targets, "clip")
            forward_into(params, net_config, trace, params.biases)
            # The output error a - y is backprop's starting delta; the
            # batch MSE is taken from it before any output derivative.
            error = grads.deltas[-1]
            subtract(trace.activations[-1], targets, error)
            multiply(error, error, squares)
            batch_sq = float(add_reduce(squares, None)) / squares.size
            if not math.isfinite(batch_sq):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index} "
                    f"(parameter norm {params.norm():.6g})",
                    epoch=epoch,
                    batch=batch_index,
                    parameter_norm=params.norm(),
                )
            squared_error_sum += batch_sq * (stop - start)
            backprop_into(params, net_config, trace, grads, scratch)
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


def evaluate(model: Model, table: SampleTable) -> EvaluationReport:
    """Score `model` on the rows of `table`.

    MSE and R-squared are computed in normalized units per output. The
    returned pairs hold the table's own outputs and the predictions
    decoded back to physical units.
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
        actual=table.values[:, N_NUMERIC_INPUTS + 1 :],
        predicted=decode_outputs(predictions, model.normalization),
    )


def write_prediction_csvs(report: EvaluationReport, directory) -> list[str]:
    """One actual-vs-predicted CSV per output; returns the paths written."""
    paths = []
    for j, name in enumerate(OUTPUT_NAMES):
        path = os.path.join(directory, f"pred_vs_actual_{name}.csv")
        write_table(path, "actual,predicted", [report.actual[:, j], report.predicted[:, j]])
        paths.append(path)
    return paths


def prepare_training_data(
    source, seed: int
) -> tuple[dict[str, np.ndarray], NormalizationSpec, SplitAssignment]:
    """Split a raw table, fit normalization on the training rows, encode what training uses.

    `source` is a SampleTable, whose array is copied once and which is
    left unchanged, or the path of a dataset CSV, whose array read_csv()
    parses the file into. That one array is then encoded in place: its
    training rows move to its front in their order, its validation rows
    follow, and encode_rows_into() encodes them, so no other copy of the
    rows is made.

    Returns a dict with x_train/y_train/x_val/y_val, the fitted
    normalization and the split assignment. The x arrays are views of
    one array, training rows first, and so are the y arrays; the test
    rows are left unencoded (evaluate() encodes the rows it scores).
    Either source gives the same bytes and raises the same errors.
    """
    table = source if isinstance(source, SampleTable) else read_csv(source)
    assignment = split(len(table), seed)
    train_rows, val_rows = assignment.indices(TRAIN), assignment.indices(VALIDATION)
    norm = fit_normalization(table, train_rows)
    values = table.values.copy() if table is source else table.values
    x = _front_rows(values, train_rows, val_rows)
    y = np.empty((len(x), N_OUTPUTS))
    arrays = {}
    n_train = len(train_rows)
    for tag, part in (("train", slice(None, n_train)), ("val", slice(n_train, None))):
        encode_rows_into(x[part], norm, y[part])
        arrays[f"x_{tag}"], arrays[f"y_{tag}"] = x[part], y[part]
    return arrays, norm, assignment


def _front_rows(values: np.ndarray, train_rows: np.ndarray, val_rows: np.ndarray) -> np.ndarray:
    """Move the rows of `values` at `train_rows`, then those at `val_rows`, to its front.

    In place; both index arrays ascend. Returns the view of the moved
    rows, and leaves the rows behind them as they are.
    """
    val = values[val_rows]
    # Row train_rows[i] moves to row i. As train_rows ascends,
    # train_rows[i] >= i, so no block reads a row an earlier block wrote.
    n_train = len(train_rows)
    for start in range(0, n_train, _COMPACT_ROWS):
        stop = min(start + _COMPACT_ROWS, n_train)
        values[start:stop] = values[train_rows[start:stop]]
    values[n_train : n_train + len(val)] = val
    return values[: n_train + len(val)]
