"""Release acceptance suite: one test per criterion, stated tolerances only.

Each test prints a single `criterion N ... PASS/FAIL` line (shown with
`pytest -s`, or in the captured output of a failure) and then asserts.
The full-scale surrogate run takes about 5 minutes (296 s measured for
generate, train and evaluate on a 2-CPU x86-64 Linux host, Python 3.11.7,
numpy 2.4.6, OpenBLAS 0.3.31 pinned to one thread), so it only executes
when SENSOPT_FULL_SCALE=1; CI relies on the scaled variant.
"""

import hashlib
import json
import os
import random
import time

import numpy as np
import pytest

from conftest import brute_force_select
from sensopt.cli import main as cli_main
from sensopt.curves import Curve, CriteriaValues, fit_line, ideal_snr, prominence
from sensopt.data import TEST, split, write_csv
from sensopt.errors import SelectionError
from sensopt.network import (
    Gradients,
    Model,
    NetworkConfig,
    NetworkParameters,
    adam_step,
    backprop,
    forward,
    init_optimizer,
    init_parameters,
    load_model,
    numeric_gradients,
    predict,
    save_model,
    sgd_step,
)
from sensopt.oracle import TABLE1, SensorOracle, generate_dataset
from sensopt.sweep import default_sweep_spec, rank_candidates, run_sweep, select
from sensopt.training import TrainConfig, evaluate, prepare_training_data, train

FULL_SCALE = os.environ.get("SENSOPT_FULL_SCALE") == "1"


def _verdict(label: str, passed: bool, detail: str) -> None:
    print(f"criterion {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {label}: {detail}"


def test_criterion_1_gradient_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    all_ok = True
    for _ in range(20):
        hidden = tuple(int(v) for v in rng.integers(4, 17, size=3))
        config = NetworkConfig(n_inputs=10, hidden=hidden, n_outputs=3, alpha=0.3)
        params = init_parameters(config, seed=int(rng.integers(0, 2**31)))
        # Keep pre-activations away from the rectifier kink, where a
        # central difference would straddle two slopes.
        for _ in range(100):
            x = rng.normal(size=(8, 10))
            y = rng.normal(size=(8, 3))
            trace = forward(params, config, x)
            if min(float(np.min(np.abs(z))) for z in trace.pre_activations) > 1e-4:
                break
        analytic = backprop(params, config, trace, y)
        numeric = numeric_gradients(params, config, x, y, step=1e-6)
        for g_a, g_n in zip(
            analytic.d_weights + analytic.d_biases,
            numeric.d_weights + numeric.d_biases,
        ):
            diff = np.abs(g_a - g_n)
            scale = np.maximum(np.abs(g_a), np.abs(g_n))
            ok = (diff <= 1e-5 * scale) | (diff <= 1e-8)
            all_ok = all_ok and bool(np.all(ok))
            over_floor = diff > 1e-8
            if np.any(over_floor):
                worst_rel = max(
                    worst_rel, float(np.max(diff[over_floor] / scale[over_floor]))
                )
    elapsed = time.monotonic() - started
    _verdict(
        "1 (gradient oracle)",
        all_ok and elapsed < 60,
        f"20 networks, worst relative error {worst_rel:.3e} "
        f"above the 1e-8 absolute floor, {elapsed:.1f}s",
    )


def test_criterion_2_update_rules():
    started = time.monotonic()
    # Plain gradient step, the documented scalar case: w=1, grad=2,
    # eta=0.0005 gives w=0.999.
    params = NetworkParameters(weights=[np.array([[1.0]])], biases=[np.array([0.25])])
    grads = Gradients(d_weights=[np.array([[2.0]])], d_biases=[np.array([0.5])])
    state = init_optimizer("sgd", 0.0005, params)
    sgd_step(params, grads, state)
    sgd_ok = (
        params.weights[0][0, 0] == 1.0 - 0.0005 * 2.0
        and abs(params.weights[0][0, 0] - 0.999) < 1e-12
        and params.biases[0][0] == 0.25 - 0.0005 * 0.5
    )

    # Plain step on a whole network is the same exact arithmetic per entry.
    config = NetworkConfig(n_inputs=6, hidden=(8, 8), n_outputs=3)
    net = init_parameters(config, seed=5)
    before = net.copy()
    rng = np.random.default_rng(55)
    g = Gradients(
        d_weights=[rng.normal(size=w.shape) for w in net.weights],
        d_biases=[rng.normal(size=b.shape) for b in net.biases],
    )
    sgd_step(net, g, init_optimizer("sgd", 0.0005, net))
    sgd_ok = sgd_ok and all(
        np.array_equal(w1, w0 - 0.0005 * dw)
        for w0, w1, dw in zip(before.weights, net.weights, g.d_weights)
    )

    # Adaptive-moment first step: p ends at p0 - lr * g / (|g| + eps).
    net = init_parameters(config, seed=6)
    before = net.copy()
    state = init_optimizer("adam", 0.0005, net)
    adam_step(net, g, state)
    worst = 0.0
    for p0, p1, dp in zip(
        before.weights + before.biases, net.weights + net.biases,
        g.d_weights + g.d_biases,
    ):
        expected = p0 - 0.0005 * dp / (np.abs(dp) + state.epsilon)
        worst = max(worst, float(np.max(np.abs(p1 - expected))))
    adam_ok = worst <= 1e-12
    elapsed = time.monotonic() - started
    _verdict(
        "2 (update rules)",
        sgd_ok and adam_ok,
        f"plain step exact, first adaptive step off by {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_dataset_shape(tmp_path):
    started = time.monotonic()
    first = generate_dataset(SensorOracle(seed=0), TABLE1)
    rows_ok = len(first) == 625_000
    counts = split(len(first), seed=0).counts()
    split_ok = counts == (506_250, 56_250, 62_500)

    second = generate_dataset(SensorOracle(seed=0), TABLE1)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, path_a)
    write_csv(second, path_b)
    digest_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
    digest_b = hashlib.sha256(path_b.read_bytes()).hexdigest()
    identical = digest_a == digest_b
    elapsed = time.monotonic() - started
    _verdict(
        "3 (dataset shape)",
        rows_ok and split_ok and identical and elapsed < 120,
        f"{len(first)} rows, split {counts}, regeneration sha256 match {identical}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_surrogate_quality_desk_scale(tmp_path):
    started = time.monotonic()
    out = str(tmp_path)
    assert cli_main(["generate", "--out", out, "--scale", "0.2", "--seed", "0"]) == 0
    with open(os.path.join(out, "dataset.csv")) as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert cli_main(["train", "--out", out]) == 0
    assert (
        cli_main(
            [
                "evaluate",
                "--out",
                out,
                "--model",
                os.path.join(out, "model.bin"),
                "--dataset",
                os.path.join(out, "dataset.csv"),
            ]
        )
        == 0
    )
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    elapsed = time.monotonic() - started
    r2 = {name: entry["r_squared"] for name, entry in metrics["outputs"].items()}
    _verdict(
        "4 (surrogate quality, scaled)",
        n_rows == 6_400 and min(r2.values()) >= 0.95 and elapsed < 120,
        f"{n_rows} rows, test R^2 "
        + ", ".join(f"{k} {v:.4f}" for k, v in r2.items())
        + f", {elapsed:.1f}s",
    )


@pytest.mark.skipif(not FULL_SCALE, reason="set SENSOPT_FULL_SCALE=1 for the five-minute run")
def test_criterion_4_surrogate_quality_full_scale():
    started = time.monotonic()
    table = generate_dataset(SensorOracle(seed=0), TABLE1)
    arrays, norm, assignment = prepare_training_data(table, seed=0)
    config = NetworkConfig()
    params, history = train(
        config,
        arrays["x_train"],
        arrays["y_train"],
        arrays["x_val"],
        arrays["y_val"],
        TrainConfig(),
    )
    model = Model(config=config, params=params, normalization=norm)
    report = evaluate(model, table.select(assignment.indices(TEST)))
    elapsed = time.monotonic() - started
    r2 = {m.name: m.r_squared for m in report.metrics}
    val_mse = history.val_mse[-1]
    _verdict(
        "4 (surrogate quality, full)",
        val_mse <= 1e-4 and min(r2.values()) >= 0.98 and elapsed < 1800,
        f"final validation MSE {val_mse:.2e}, test R^2 "
        + ", ".join(f"{k} {v:.4f}" for k, v in r2.items())
        + f", {elapsed:.0f}s",
    )


def test_criterion_5_curve_math():
    started = time.monotonic()
    exact_ok = ideal_snr(1.0) == 0.0 and ideal_snr(100.0) == 10.0 and ideal_snr(1e4) == 20.0

    signal = np.geomspace(10.0, 1.9e3, 50)
    ideal = Curve(settings=(), signal=signal, snr=ideal_snr(signal), output3=np.zeros(50))
    line = fit_line(ideal)
    fit_ok = abs(line.slope - 5.0) <= 1e-9 and abs(line.intercept) <= 1e-9

    worst = 0.0
    for depth in (1.0, 3.0, 5.77, 8.0):
        sig = np.sort(
            np.concatenate(
                [np.geomspace(10.0, 1.9e3, 60), np.geomspace(3e3, 1e4, 41), [5.5e3]]
            )
        )
        log_s = np.log10(sig)
        # Narrow dip centered on an actual sample: its peak drop is the
        # exact injected depth, and the tail below 1.9e3 AU is ~1e-19.
        dip = depth * np.exp(-((log_s - np.log10(5.5e3)) ** 2) / (2 * 0.05**2))
        curve = Curve(settings=(), signal=sig, snr=5.0 * log_s - dip, output3=np.zeros(sig.size))
        got = prominence(curve, fit_line(curve))
        worst = max(worst, abs(got - depth))
    elapsed = time.monotonic() - started
    _verdict(
        "5 (curve math)",
        exact_ok and fit_ok and worst <= 1e-9,
        f"dip recovery off by at most {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_selection_semantics():
    started = time.monotonic()
    rng = random.Random(202)
    all_ok = True
    for trial in range(1000):
        n = rng.randint(1, 50)
        scored = []
        for i in range(n):
            c2 = float("nan") if rng.random() < 0.08 else round(rng.random(), 2)
            scored.append(
                (
                    (float(i % 5), float(i % 11), float(i)),
                    (round(rng.random(), 2), c2, round(rng.random(), 2), round(rng.random(), 2)),
                )
            )
        subset = tuple(sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 4))))
        ranked = rank_candidates([(s, CriteriaValues(*c)) for s, c in scored])
        reference = brute_force_select(scored, subset)
        if reference is None:
            try:
                select(ranked, subset)
                all_ok = False
            except SelectionError:
                pass
            continue
        result = select(ranked, subset)
        all_ok = all_ok and result.settings == reference[0] and result.k == reference[1]

        # Permutation invariance: candidate order must not matter.
        shuffled = scored[:]
        rng.shuffle(shuffled)
        redo = select(rank_candidates([(s, CriteriaValues(*c)) for s, c in shuffled]), subset)
        all_ok = all_ok and (redo.settings, redo.k) == (result.settings, result.k)

        # Single criterion reduces to argmin (ties to smallest settings).
        crit = rng.choice((1, 2, 3, 4))
        finite = [(c[crit - 1], s) for s, c in scored if c[crit - 1] == c[crit - 1]]
        if finite:
            lone = select(ranked, (crit,))
            best_value = min(v for v, _ in finite)
            expected = min(s for v, s in finite if v == best_value)
            all_ok = all_ok and lone.settings == expected and lone.k == 1
    elapsed = time.monotonic() - started
    _verdict(
        "6 (selection semantics)",
        all_ok and elapsed < 60,
        f"1000 random candidate sets, {elapsed:.1f}s",
    )


def test_criterion_7_end_to_end_optimization(converged_setup):
    started = time.monotonic()
    spec = default_sweep_spec(points_per_axis=7)
    result = run_sweep(converged_setup.model, spec)
    elapsed = converged_setup.train_seconds + (time.monotonic() - started)

    swept = np.asarray([c.settings for c in result.candidates])
    depths = converged_setup.oracle.dip_depth_at(swept)
    decile = float(np.quantile(depths, 0.10))

    # The dip-targeting subset is the one whose winner must sit in the
    # deepest-dip decile; adding the unrelated c4 objective deliberately
    # trades dip depth for lower output3, which the second check verifies.
    dip_selection = result.selections[(1, 2, 3)]
    selected_depth = float(
        converged_setup.oracle.dip_depth_at(np.asarray(dip_selection.settings))
    )
    full_selection = result.selections[(1, 2, 3, 4)]
    full_percentile = 100.0 * float(
        np.mean(
            depths
            <= converged_setup.oracle.dip_depth_at(np.asarray(full_selection.settings))
        )
    )
    c4_ok = full_selection.criteria.c4 <= dip_selection.criteria.c4
    _verdict(
        "7 (end-to-end optimization)",
        spec.combination_count >= 10_000
        and selected_depth <= decile
        and c4_ok
        and elapsed < 600,
        f"{spec.combination_count} combinations, selected true depth "
        f"{selected_depth:.3f} vs decile {decile:.3f} (full-criteria pick at "
        f"percentile {full_percentile:.0f}), c4 {full_selection.criteria.c4:.3f}"
        f" <= {dip_selection.criteria.c4:.3f}, {elapsed:.0f}s incl. training",
    )


def test_criterion_8_persistence(small_model, tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(77)
    n = 100_000
    maxima = np.asarray(small_model.normalization.input_max)
    numeric = rng.uniform(0.0, maxima, size=(n, 6))
    category = rng.integers(0, 4, size=n)
    before = predict(small_model, numeric, category)

    path = tmp_path / "model.bin"
    save_model(small_model, path)
    after = predict(load_model(path), numeric, category)
    identical = np.array_equal(before, after)
    elapsed = time.monotonic() - started
    _verdict(
        "8 (persistence)",
        identical and elapsed < 60,
        f"{n} predictions bit-identical {identical}, {elapsed:.1f}s",
    )
