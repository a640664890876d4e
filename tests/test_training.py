import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import sensopt.training
from sensopt.data import (
    TRAIN,
    VALIDATION,
    SampleTable,
    encode_table,
    fit_normalization,
    read_csv,
    split,
    write_csv,
)
from sensopt.errors import (
    ConfigurationError,
    DomainError,
    RangeError,
    ShapeError,
    TrainingDivergedError,
)
from sensopt.network import (
    NetworkConfig,
    adam_step,
    backprop,
    forward,
    init_optimizer,
    init_parameters,
    sgd_step,
)
from sensopt.oracle import TABLE1, SensorOracle, generate_dataset
from sensopt.training import (
    PlateauSchedule,
    _epoch_permutation,
    TrainConfig,
    TrainHistory,
    evaluate,
    mse,
    prepare_training_data,
    r_squared,
    train,
    write_prediction_csvs,
)


def test_train_config_defaults_and_validation():
    cfg = TrainConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (100, 20, 5e-4)
    assert (cfg.plateau_patience, cfg.plateau_factor, cfg.optimizer) == (5, 2.0, "adam")
    for bad in (
        dict(epochs=0),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(plateau_patience=0),
        dict(plateau_factor=1.0),
        dict(optimizer="momentum"),
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)


def test_plateau_schedule_counts_consecutive_stalls():
    sched = PlateauSchedule(initial_rate=1.0, patience=3, factor=2.0)
    assert sched.update(1.0) == 1.0  # new best
    assert sched.update(1.0) == 1.0  # stall 1 (ties do not improve)
    assert sched.update(2.0) == 1.0  # stall 2
    assert sched.update(0.5) == 1.0  # new best resets the counter
    assert sched.update(0.6) == 1.0
    assert sched.update(0.6) == 1.0
    assert sched.update(0.6) == 0.5  # third consecutive stall halves
    # counter restarts after a reduction
    assert sched.update(0.6) == 0.5
    assert sched.update(0.6) == 0.5
    assert sched.update(0.6) == 0.25


def test_mse_and_r_squared():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert mse(a, a) == 0.0
    assert mse(a, a + 1.0) == 1.0
    assert r_squared(a, a) == 1.0
    # Predicting the mean gives exactly zero.
    assert r_squared(a, np.full(4, a.mean())) == pytest.approx(0.0)
    assert np.isnan(r_squared(np.ones(4), np.ones(4)))
    with pytest.raises(ConfigurationError):
        mse(np.zeros(3), np.zeros(4))


def _toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 10))
    w = rng.normal(size=(10, 3))
    y = np.tanh(x @ w) * 0.3 + 0.5
    return x[: int(n * 0.9)], y[: int(n * 0.9)], x[int(n * 0.9) :], y[int(n * 0.9) :]


def test_train_is_deterministic_and_runs_all_epochs():
    x_tr, y_tr, x_val, y_val = _toy_data()
    cfg = TrainConfig(epochs=7, seed=11)
    net = NetworkConfig(hidden=(16, 16))
    params_a, hist_a = train(net, x_tr, y_tr, x_val, y_val, cfg)
    params_b, hist_b = train(net, x_tr, y_tr, x_val, y_val, cfg)
    assert len(hist_a) == 7
    assert hist_a.train_mse == hist_b.train_mse
    assert hist_a.val_mse == hist_b.val_mse
    for wa, wb in zip(params_a.weights, params_b.weights):
        assert np.array_equal(wa, wb)

    params_c, _ = train(net, x_tr, y_tr, x_val, y_val, TrainConfig(epochs=7, seed=12))
    assert not np.array_equal(params_a.weights[0], params_c.weights[0])


def test_training_reduces_error():
    x_tr, y_tr, x_val, y_val = _toy_data(400, seed=3)
    net = NetworkConfig(hidden=(24, 24))
    _, hist = train(net, x_tr, y_tr, x_val, y_val,
                    TrainConfig(epochs=30, learning_rate=3e-3, seed=1))
    assert hist.val_mse[-1] < hist.val_mse[0] * 0.5


def test_short_last_batch_contributes():
    # 45 rows with batch 20 leave a last batch of 5; the mean train MSE
    # must weight it by its true size. Two epochs of forward, loss,
    # backprop and optimizer step through the public API must give
    # train()'s history and parameters exactly, for either optimizer.
    x_tr, y_tr, x_val, y_val = _toy_data(50, seed=4)
    assert x_tr.shape[0] == 45
    net = NetworkConfig(hidden=(8,))
    for optimizer, step in (("adam", adam_step), ("sgd", sgd_step)):
        cfg = TrainConfig(epochs=2, optimizer=optimizer, seed=2)
        params, hist = train(net, x_tr, y_tr, x_val, y_val, cfg)

        replay = init_parameters(net, 2)
        state = init_optimizer(optimizer, cfg.learning_rate, replay)
        for epoch in range(2):
            perm = _epoch_permutation(2, epoch, 45)
            total = 0.0
            for start in range(0, 45, 20):
                rows = perm[start : start + 20]
                trace = forward(replay, net, x_tr[rows])
                total += float(np.mean((y_tr[rows] - trace.output) ** 2)) * rows.size
                step(replay, backprop(replay, net, trace, y_tr[rows]), state)
            assert hist.train_mse[epoch] == total / 45, optimizer
        assert params.flat.tobytes() == replay.flat.tobytes(), optimizer


# SHA-256 of train()'s parameter vector after two Adam epochs on the
# seeded 45-row toy set (3 batches, the last of 5 rows), pinned from the
# per-call forward/backprop loop this training step replaced. The
# products involved are tiny, but a BLAS with another summation order or
# without fused multiply-add may still change the last bits: this was
# pinned with OpenBLAS 0.3.31 on x86-64.
TRAIN2_FLAT_SHA256 = "bcf2daad1b3207472d7b252d1e4152323120fd09325439c217585689023b4233"


def test_trained_parameters_are_pinned():
    x_tr, y_tr, x_val, y_val = _toy_data(50, seed=4)
    params, _ = train(NetworkConfig(hidden=(8,)), x_tr, y_tr, x_val, y_val,
                      TrainConfig(epochs=2, seed=2))
    assert hashlib.sha256(params.flat.tobytes()).hexdigest() == TRAIN2_FLAT_SHA256


def test_sgd_mode_trains():
    x_tr, y_tr, x_val, y_val = _toy_data(120, seed=6)
    net = NetworkConfig(hidden=(8, 8))
    _, hist = train(net, x_tr, y_tr, x_val, y_val,
                    TrainConfig(epochs=5, optimizer="sgd", learning_rate=0.05, seed=0))
    assert hist.val_mse[-1] < hist.val_mse[0]


def test_divergence_is_reported():
    x_tr, y_tr, x_val, y_val = _toy_data(100, seed=7)
    y_tr = y_tr * 1e150  # giant targets blow up the squared error
    net = NetworkConfig(hidden=(8,))
    with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore"):
        train(net, x_tr, y_tr, x_val, y_val,
              TrainConfig(epochs=3, optimizer="sgd", learning_rate=1e3, seed=0))
    assert err.value.epoch is not None
    assert err.value.batch is not None
    assert err.value.parameter_norm is not None

    # A finite target whose square overflows diverges in its own batch.
    x_tr, y_tr, x_val, y_val = _toy_data(100, seed=7)
    y_tr[33, 1] = 1e200
    with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore"):
        train(net, x_tr, y_tr, x_val, y_val, TrainConfig(epochs=1, seed=0))
    position = int(np.flatnonzero(_epoch_permutation(0, 0, 90) == 33)[0])
    assert (err.value.epoch, err.value.batch) == (0, position // 20)


@pytest.mark.parametrize("partition, value", [("training", np.inf), ("validation", np.nan)])
def test_train_rejects_non_finite_targets_up_front(partition, value, monkeypatch):
    # A bad target is bad input, not divergence: train() names its
    # partition before the first optimizer step.
    def no_step(*args):
        raise AssertionError("an optimizer step ran before the target check")

    monkeypatch.setattr(sensopt.training, "adam_step", no_step)
    x_tr, y_tr, x_val, y_val = _toy_data(100, seed=7)
    (y_tr if partition == "training" else y_val)[7, 1] = value
    with pytest.raises(DomainError, match=f"^{partition} targets must be finite$"):
        train(NetworkConfig(hidden=(8,)), x_tr, y_tr, x_val, y_val, TrainConfig(epochs=1))


def test_train_input_validation(monkeypatch):
    # Every check runs before the first optimizer step.
    def no_step(*args):
        raise AssertionError("an optimizer step ran before the input checks")

    monkeypatch.setattr(sensopt.training, "adam_step", no_step)
    x_tr, y_tr, x_val, y_val = _toy_data()
    nan_x, inf_x = x_tr.copy(), x_val.copy()
    nan_x[3, 4] = np.nan
    inf_x[1, 0] = -np.inf
    net = NetworkConfig(hidden=(8,))
    for error, arrays in (
        (ConfigurationError, (x_tr[:0], y_tr[:0], x_val, y_val)),
        (ConfigurationError, (x_tr, y_tr[:-1], x_val, y_val)),
        (ConfigurationError, (x_tr, y_tr, x_val[:0], y_val[:0])),
        (ConfigurationError, (x_tr, y_tr, x_val, y_val[:-1])),
        (ShapeError, (x_tr[:, :9], y_tr, x_val, y_val)),
        (ShapeError, (x_tr, y_tr[:, :2], x_val, y_val)),
        (ShapeError, (x_tr, y_tr, x_val[:, :9], y_val)),
        (ShapeError, (x_tr, y_tr, x_val, y_val[:, 0])),
        (DomainError, (nan_x, y_tr, x_val, y_val)),
        (DomainError, (x_tr, y_tr, inf_x, y_val)),
    ):
        with pytest.raises(error):
            train(net, *arrays, TrainConfig(epochs=1))


def test_train_takes_array_likes():
    x_tr, y_tr, x_val, y_val = _toy_data()
    net = NetworkConfig(hidden=(8,))
    cfg = TrainConfig(epochs=1)
    params, hist = train(net, x_tr, y_tr, x_val.tolist(), y_val.tolist(), cfg)
    expected, expected_hist = train(net, x_tr, y_tr, x_val, y_val, cfg)
    assert params.flat.tobytes() == expected.flat.tobytes()
    assert hist.val_mse == expected_hist.val_mse


def test_history_csv(tmp_path):
    hist = TrainHistory(train_mse=[0.5, 0.25], val_mse=[0.625, 0.3125], learning_rate=[0.5, 0.25])
    path = tmp_path / "history.csv"
    hist.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse,learning_rate"
    assert lines[1] == "0,0.5,0.625,0.5"
    assert lines[2] == "1,0.25,0.3125,0.25"
    assert len(lines) == 3


def test_prepare_training_data(small_dataset):
    arrays, norm, assignment = prepare_training_data(small_dataset, seed=3)
    n = len(small_dataset)
    assert assignment.counts() == (int(0.81 * n), int(0.09 * n), n - int(0.81 * n) - int(0.09 * n))
    assert arrays["x_train"].shape == (assignment.counts()[0], 10)
    # The test rows are left for evaluate() to encode.
    assert sorted(arrays) == ["x_train", "x_val", "y_train", "y_val"]
    # Normalization must come from the training rows alone.
    expected = fit_normalization(small_dataset.select(assignment.indices(TRAIN)))
    assert norm == expected
    # Training targets are scaled into [0, 1]; held-out rows may poke past 1.
    assert arrays["y_train"].max() <= 1.0 + 1e-12
    assert arrays["y_val"].shape[0] == assignment.counts()[1]
    assert assignment.indices(VALIDATION).size == assignment.counts()[1]


@pytest.mark.parametrize("seed", [0, 3])
def test_prepare_training_data_is_the_per_partition_table_encoding(small_dataset, seed):
    # The reference copies each partition as a table, fits and encodes it.
    arrays, norm, assignment = prepare_training_data(small_dataset, seed)
    assert norm == fit_normalization(small_dataset.select(assignment.indices(TRAIN)))
    for label, tag in ((TRAIN, "train"), (VALIDATION, "val")):
        x, y = encode_table(small_dataset.select(assignment.indices(label)), norm)
        assert arrays[f"x_{tag}"].tobytes() == x.tobytes()
        assert arrays[f"y_{tag}"].tobytes() == y.tobytes()
        assert arrays[f"x_{tag}"].shape == x.shape and arrays[f"y_{tag}"].shape == y.shape


@pytest.mark.parametrize("seed", [0, 3])
def test_prepare_training_data_from_a_path_is_the_read_tables_bytes(small_dataset, tmp_path, seed):
    # 5,184 training rows: the in-place compaction ends on a short block.
    # The reference gathers the read table's rows by index and encodes them.
    path = tmp_path / "dataset.csv"
    write_csv(small_dataset, path)
    arrays, norm, assignment = prepare_training_data(path, seed)
    table = read_csv(path)
    expected_assignment = split(len(table), seed)
    train_rows = expected_assignment.indices(TRAIN)
    rows = np.concatenate((train_rows, expected_assignment.indices(VALIDATION)))
    expected_norm = fit_normalization(table, train_rows)
    x, y = encode_table(SampleTable(table.values[rows]), expected_norm)
    n_train = len(train_rows)
    expected = {
        "x_train": x[:n_train], "y_train": y[:n_train], "x_val": x[n_train:], "y_val": y[n_train:]
    }
    assert assignment.counts()[0] == 5_184 and 5_184 % 4_096
    assert norm == expected_norm
    assert np.array_equal(assignment.labels, expected_assignment.labels)
    assert sorted(arrays) == sorted(expected)
    for name, array in expected.items():
        assert arrays[name].shape == array.shape
        assert arrays[name].tobytes() == array.tobytes()


def test_prepare_training_data_leaves_a_table_unchanged(small_dataset):
    before = small_dataset.values.tobytes()
    arrays, _, _ = prepare_training_data(small_dataset, seed=3)
    assert small_dataset.values.tobytes() == before
    assert not any(np.shares_memory(a, small_dataset.values) for a in arrays.values())


def test_both_sources_raise_the_same_range_error(small_dataset, tmp_path):
    # The last validation row's input3 exceeds its training maximum.
    values = small_dataset.values.copy()
    row = split(len(values), 3).indices(VALIDATION)[-1]
    values[row, 2] = 2 * values[:, 2].max()
    path = tmp_path / "dataset.csv"
    write_csv(SampleTable(values), path)
    with pytest.raises(RangeError, match="input3 value") as from_table:
        prepare_training_data(SampleTable(values), seed=3)
    with pytest.raises(RangeError, match=re.escape(str(from_table.value))):
        prepare_training_data(path, seed=3)


def test_train_makes_no_epoch_copy_of_the_training_rows():
    # 39,366 training rows of the 48,600-row desk grid: train() holds its
    # step buffers, the epoch's permutation and the validation forward's
    # tiles, and gathers each batch straight into its buffers.
    table = generate_dataset(SensorOracle(seed=0), TABLE1.subsample(3))
    arrays, _, _ = prepare_training_data(table, seed=0)
    partitions = (arrays[name] for name in ("x_train", "y_train", "x_val", "y_val"))
    tracemalloc.start()
    try:
        train(NetworkConfig(), *partitions, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays["x_train"].nbytes


def test_evaluate_and_prediction_csvs(small_dataset, small_model, tmp_path):
    report = evaluate(small_model, small_dataset)
    assert {m.name for m in report.metrics} == {"signal", "snr", "output3"}
    for m in report.metrics:
        assert m.mse >= 0.0
        assert m.r_squared <= 1.0
    assert report.actual.shape == report.predicted.shape == (len(small_dataset), 3)
    # actual columns decode back to the raw physical values
    assert np.allclose(report.actual[:, 0], small_dataset.column("signal"), rtol=1e-12)

    paths = write_prediction_csvs(report, tmp_path)
    assert [p.rsplit("/", 1)[-1] for p in paths] == [
        "pred_vs_actual_signal.csv",
        "pred_vs_actual_snr.csv",
        "pred_vs_actual_output3.csv",
    ]
    first = (tmp_path / "pred_vs_actual_signal.csv").read_text().splitlines()
    assert first[0] == "actual,predicted"
    assert len(first) == len(small_dataset) + 1


def test_small_model_learns_the_small_grid(small_dataset, small_model):
    report = evaluate(small_model, small_dataset)
    for m in report.metrics:
        assert m.r_squared > 0.8, f"{m.name} fit too poor: {m.r_squared}"


@pytest.mark.parametrize(
    "name, value",
    [("learning_rate", np.nan), ("learning_rate", np.inf),
     ("plateau_factor", np.nan), ("plateau_factor", np.inf)],
)
def test_train_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ConfigurationError, match="finite"):
        TrainConfig(**{name: value})
