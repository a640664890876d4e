import contextlib
import hashlib
import json

import numpy as np
import pytest

import sensopt.network

from sensopt.data import NormalizationSpec, decode_outputs, encode_inputs
from sensopt.errors import ConfigurationError, DomainError, ModelFormatError, ShapeError
from sensopt.network import (
    FORWARD_TILE_ROWS,
    MODEL_MAGIC,
    Gradients,
    Model,
    NetworkConfig,
    NetworkParameters,
    OptimizerState,
    adam_step,
    backprop,
    empty_tile_buffers,
    forward,
    forward_chunked,
    forward_tiles_into,
    init_optimizer,
    init_parameters,
    load_model,
    numeric_gradients,
    predict,
    quadratic_cost,
    save_model,
    sgd_step,
    tile_rows,
)

# 3-2-1 net small enough to check every number by hand.
TINY = NetworkConfig(n_inputs=3, hidden=(2,), n_outputs=1, alpha=0.3)


def tiny_params() -> NetworkParameters:
    return NetworkParameters(
        weights=[
            np.array([[0.5, -1.0, 0.25], [1.5, 2.0, -0.5]]),
            np.array([[2.0, -0.5]]),
        ],
        biases=[np.array([0.1, -0.2]), np.array([0.05])],
    )


TINY_X = np.array([[1.0, 2.0, -4.0]])
TINY_Y = np.array([[1.0]])


def test_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(hidden=(0,))
    for hidden in ((64.0, 64), (True, 64)):
        with pytest.raises(ConfigurationError, match="positive integers"):
            NetworkConfig(hidden=hidden)
    with pytest.raises(ConfigurationError):
        NetworkConfig(alpha=1.0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(alpha=0.0)
    cfg = NetworkConfig()
    assert cfg.layer_sizes == (10, 64, 64, 64, 3)


def test_init_parameters_seeded_and_bounded():
    cfg = NetworkConfig(n_inputs=4, hidden=(8, 6), n_outputs=2)
    a = init_parameters(cfg, seed=13)
    b = init_parameters(cfg, seed=13)
    c = init_parameters(cfg, seed=14)
    assert [w.shape for w in a.weights] == [(8, 4), (6, 8), (2, 6)]
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))
    assert all(np.all(b_ == 0) for b_ in a.biases)
    sizes = cfg.layer_sizes
    for w, fan_in, fan_out in zip(a.weights, sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) < limit)
    assert a.flat.size == 8 * 4 + 6 * 8 + 2 * 6 + 8 + 6 + 2


def test_leaky_relu_values():
    def leaky_relu(z, alpha):
        out = np.empty_like(z)
        sensopt.network._leaky_relu_into(z, alpha, out)
        return out

    def leaky_relu_derivative(z, alpha):
        out = np.empty_like(z)
        sensopt.network._leaky_relu_derivative_into(z, alpha, out)
        return out

    z = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(leaky_relu(z, 0.3), [-0.6, 0.0, 3.0])
    # Slope at exactly zero is the leak, matching the backward pass.
    assert np.array_equal(leaky_relu_derivative(z, 0.3), [0.3, 0.3, 1.0])
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([-0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, np.nan])
    for alpha in (0.3, 1e-300, 0.999):
        reference = np.where(edges > 0, 1.0, alpha)
        assert leaky_relu_derivative(edges, alpha).tobytes() == reference.tobytes()
        assert leaky_relu(edges, alpha).tobytes() == np.where(
            edges >= 0, edges, alpha * edges
        ).tobytes()


def test_forward_trace_by_hand():
    trace = forward(tiny_params(), TINY, TINY_X)
    assert np.allclose(trace.pre_activations[0], [[-2.4, 7.3]])
    assert np.allclose(trace.activations[1], [[-0.72, 7.3]])
    assert np.allclose(trace.pre_activations[1], [[-5.04]])
    assert np.allclose(trace.output, [[-5.04]])


def test_forward_input_checks():
    params = tiny_params()
    # Only (n, 3) rows: a wrong width and a lone 1-D row are both rejected.
    for x in (np.zeros((1, 4)), np.zeros(4), TINY_X[0]):
        with pytest.raises(ShapeError):
            forward(params, TINY, x)
    with pytest.raises(DomainError):
        forward(params, TINY, np.array([[1.0, np.nan, 0.0]]))
    with pytest.raises(ShapeError):
        forward(params, NetworkConfig(n_inputs=3, hidden=(5,), n_outputs=1), TINY_X)


def test_quadratic_cost():
    assert quadratic_cost(TINY_Y, np.array([[-5.04]])) == pytest.approx(18.2408)
    batch = quadratic_cost(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
    assert batch == pytest.approx(0.5)
    # Mismatched shapes, and 1-D arrays even of one shape, are not (n, k) rows.
    for targets, outputs in ((np.zeros((1, 3)), np.zeros((1, 2))), (np.zeros(3), np.zeros(3))):
        with pytest.raises(ShapeError):
            quadratic_cost(targets, outputs)


def test_backprop_by_hand():
    params = tiny_params()
    trace = forward(params, TINY, TINY_X)
    grads = backprop(params, TINY, trace, TINY_Y)
    assert np.allclose(grads.d_weights[1], [[4.3488, -44.092]])
    assert np.allclose(grads.d_biases[1], [-6.04])
    assert np.allclose(grads.deltas[0], [[-3.624, 3.02]])
    assert np.allclose(grads.d_weights[0], [[-3.624, -7.248, 14.496], [3.02, 6.04, -12.08]])
    assert np.allclose(grads.d_biases[0], [-3.624, 3.02])
    with pytest.raises(ShapeError):
        backprop(params, TINY, trace, TINY_Y[0])


def test_batch_gradient_is_mean_of_sample_gradients():
    rng = np.random.default_rng(5)
    cfg = NetworkConfig(n_inputs=4, hidden=(6, 5), n_outputs=2)
    params = init_parameters(cfg, seed=1)
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 2))
    batch = backprop(params, cfg, forward(params, cfg, x), y)
    for layer in range(len(params.weights)):
        acc_w = np.zeros_like(batch.d_weights[layer])
        acc_b = np.zeros_like(batch.d_biases[layer])
        for i in range(8):
            single = backprop(params, cfg, forward(params, cfg, x[i : i + 1]), y[i : i + 1])
            acc_w += single.d_weights[layer]
            acc_b += single.d_biases[layer]
        assert np.allclose(batch.d_weights[layer], acc_w / 8, atol=1e-12)
        assert np.allclose(batch.d_biases[layer], acc_b / 8, atol=1e-12)


def test_analytic_matches_numeric_gradients():
    rng = np.random.default_rng(17)
    cfg = NetworkConfig(n_inputs=5, hidden=(7, 6), n_outputs=3)
    params = init_parameters(cfg, seed=9)
    x = rng.normal(size=(6, 5))
    y = rng.normal(size=(6, 3))
    analytic = backprop(params, cfg, forward(params, cfg, x), y)
    numeric = numeric_gradients(params, cfg, x, y)
    for g_a, g_n in zip(analytic.d_weights + analytic.d_biases,
                        numeric.d_weights + numeric.d_biases):
        assert np.allclose(g_a, g_n, rtol=1e-6, atol=1e-9)


def test_sgd_step_arithmetic():
    params = tiny_params()
    before = params.copy()
    grads = backprop(params, TINY, forward(params, TINY, TINY_X), TINY_Y)
    state = init_optimizer("sgd", 0.0005, params)
    sgd_step(params, grads, state)
    for w0, w1, dw in zip(before.weights, params.weights, grads.d_weights):
        assert np.array_equal(w1, w0 - 0.0005 * dw)
    for b0, b1, db in zip(before.biases, params.biases, grads.d_biases):
        assert np.array_equal(b1, b0 - 0.0005 * db)
    assert state.step_count == 1
    with pytest.raises(ConfigurationError):
        adam_step(params, grads, state)


def test_adam_first_step_closed_form():
    params = tiny_params()
    before = params.copy()
    grads = backprop(params, TINY, forward(params, TINY, TINY_X), TINY_Y)
    state = init_optimizer("adam", 0.0005, params)
    adam_step(params, grads, state)
    eps = state.epsilon
    for w0, w1, dw in zip(before.weights, params.weights, grads.d_weights):
        expected = w0 - 0.0005 * dw / (np.abs(dw) + eps)
        assert np.allclose(w1, expected, atol=1e-15)
    with pytest.raises(ConfigurationError):
        sgd_step(params, grads, state)


@pytest.mark.parametrize("name", ["beta1", "beta2", "epsilon"])
def test_adam_constants_are_not_constructor_fields(name):
    with pytest.raises(TypeError):
        OptimizerState(mode="adam", learning_rate=1e-3, **{name: 0.5})


def test_adam_constant_gradient_step_approaches_learning_rate():
    params = NetworkParameters(weights=[np.array([[0.0]])], biases=[np.array([0.0])])
    constant = Gradients(d_weights=[np.array([[3.5]])], d_biases=[np.array([3.5])])
    state = init_optimizer("adam", 0.01, params)
    previous = params.weights[0][0, 0]
    for _ in range(400):
        adam_step(params, constant, state)
        step = params.weights[0][0, 0] - previous
        previous = params.weights[0][0, 0]
    assert abs(step) == pytest.approx(0.01, rel=1e-3)


def test_adam_matches_the_bias_corrected_formula_past_both_corrections():
    # 40,000 steps pass t = 356 and t = 37,412, where 1 - beta1**t and
    # 1 - beta2**t round to 1.0 and adam_step skips their divisions.
    rng = np.random.default_rng(23)
    params = NetworkParameters(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
    grads = Gradients(d_weights=[np.zeros((2, 3))], d_biases=[np.zeros(2)])
    state = init_optimizer("adam", 0.001, params)
    b1, b2, eps, lr = state.beta1, state.beta2, state.epsilon, state.learning_rate
    p, m, v = params.flat.copy(), np.zeros(8), np.zeros(8)
    magnitudes = 10.0 ** rng.uniform(-8.0, 2.0, size=(40_000, 8))
    signs = rng.choice((-1.0, 1.0), size=(40_000, 8))
    for t, g in enumerate(signs * magnitudes, start=1):
        grads.flat[:] = g
        adam_step(params, grads, state)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    assert state.step_count == 40_000
    assert params.flat.tobytes() == p.tobytes()
    assert state.first_moment.tobytes() == m.tobytes()
    assert state.second_moment.tobytes() == v.tobytes()


def test_init_optimizer_validation():
    params = tiny_params()
    with pytest.raises(ConfigurationError):
        init_optimizer("rmsprop", 0.001, params)
    with pytest.raises(ConfigurationError):
        init_optimizer("adam", 0.0, params)


def _toy_model() -> Model:
    cfg = NetworkConfig(n_inputs=10, hidden=(12, 11), n_outputs=3)
    return Model(
        config=cfg,
        params=init_parameters(cfg, seed=3),
        normalization=NormalizationSpec(
            input_max=(510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0),
            output_max=(6.0, 32.0, 5.0),
        ),
    )


def test_predict_decodes_and_chunks():
    model = _toy_model()
    rng = np.random.default_rng(11)
    numeric = rng.uniform(0.1, 1.0, size=(40, 6)) * np.asarray(model.normalization.input_max)
    category = rng.integers(0, 4, size=40)
    out = predict(model, numeric, category)
    x = encode_inputs(numeric, category, model.normalization)
    manual = decode_outputs(
        forward(model.params, model.config, x).output, model.normalization
    )
    assert np.array_equal(out, manual)
    single = predict(model, numeric[:1], category[:1])
    assert single.shape == (1, 3)
    # A lone row may ride a different matmul kernel; only last-bit slack.
    assert np.allclose(single, out[:1], rtol=1e-13)
    with pytest.raises(ConfigurationError):
        predict(model, numeric[0], int(category[0]))


def test_model_round_trip(tmp_path):
    model = _toy_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.normalization == model.normalization
    for a, b in zip(loaded.params.weights, model.params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.params.biases, model.params.biases):
        assert np.array_equal(a, b)

    rng = np.random.default_rng(0)
    numeric = rng.uniform(0.1, 1.0, size=(64, 6)) * np.asarray(model.normalization.input_max)
    category = rng.integers(0, 4, size=64)
    assert np.array_equal(
        predict(loaded, numeric, category), predict(model, numeric, category)
    )


def test_model_format_errors(tmp_path):
    model = _toy_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(bad)

    bad.write_bytes(bytes(raw[:5]))
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(bad)

    bad.write_bytes(bytes(raw[:40]))
    with pytest.raises(ModelFormatError):
        load_model(bad)

    corrupted = raw.copy()
    corrupted[-1] ^= 0xFF
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(bad)

    header_len = int.from_bytes(raw[8:12], "little")
    garbled = raw.copy()
    garbled[12 : 12 + header_len] = b"{" * header_len
    bad.write_bytes(bytes(garbled))
    with pytest.raises(ModelFormatError):
        load_model(bad)

    assert raw[:8] == MODEL_MAGIC


def test_failed_model_write_leaves_the_old_model_untouched(tmp_path, monkeypatch):
    old_model = _toy_model()
    path = tmp_path / "model.bin"
    save_model(old_model, path)
    before = path.read_bytes()
    new_model = _toy_model()
    new_model.params.flat[:] += 1.0
    real_replacing = sensopt.network.replacing
    payload = new_model.params.flat.tobytes()

    @contextlib.contextmanager
    def failing_replacing(target, binary=False):
        with real_replacing(target, binary=binary) as fh:
            class HalfWriter:
                def write(self, data):
                    if data == payload:
                        fh.write(data[: len(data) // 2])
                        raise OSError("disk full")
                    fh.write(data)
            yield HalfWriter()

    monkeypatch.setattr(sensopt.network, "replacing", failing_replacing)
    with pytest.raises(OSError, match="disk full"):
        save_model(new_model, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

    monkeypatch.setattr(sensopt.network, "replacing", real_replacing)
    save_model(new_model, path)
    assert load_model(path).params.flat.tobytes() == payload


def test_model_payload_is_the_flat_vector(tmp_path):
    model = _toy_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    assert raw[12 + header_len :] == model.params.flat.tobytes()
    assert load_model(path).params.flat.tobytes() == model.params.flat.tobytes()


def test_flat_vector_and_layer_views_share_memory():
    params = tiny_params()
    assert params.flat.tolist() == [0.5, -1.0, 0.25, 1.5, 2.0, -0.5, 0.1, -0.2, 2.0, -0.5, 0.05]
    params.flat[4] = 9.0
    params.flat[-1] = -3.0
    assert params.weights[0][1, 1] == 9.0
    assert params.biases[1][0] == -3.0
    params.weights[1][0, 1] = 7.0
    assert params.flat[9] == 7.0
    with pytest.raises(ShapeError):
        NetworkParameters(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])


# SHA-256 of model.bin for the default architecture, pinned from the
# per-layer implementation; neither involves a matrix product, so the
# values do not depend on the BLAS build.
INIT_MODEL_SHA256 = "59c411cf54434318a739a1fbafd1509adb12ef9e6fdb106e42e6796ec3329265"
ADAM3_MODEL_SHA256 = "6df66c6fd122737cd62f13b50d2fcbe1eebf3a40cf253efcbb5329a26b9b84b6"


def test_model_file_digests_are_pinned(tmp_path):
    norm = NormalizationSpec(
        input_max=(510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0), output_max=(6.0, 32.0, 5.0)
    )
    path = tmp_path / "model.bin"

    def digest(params):
        save_model(Model(config=NetworkConfig(), params=params, normalization=norm), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    params = init_parameters(NetworkConfig(), seed=0)
    assert digest(params) == INIT_MODEL_SHA256
    rng = np.random.default_rng(7)
    grads = Gradients(
        d_weights=[rng.normal(size=w.shape) for w in params.weights],
        d_biases=[rng.normal(size=b.shape) for b in params.biases],
    )
    state = init_optimizer("adam", 1e-3, params)
    for _ in range(3):
        adam_step(params, grads, state)
    assert digest(params) == ADAM3_MODEL_SHA256


@pytest.mark.parametrize(
    "n_rows", [1, 40, 3 * FORWARD_TILE_ROWS + 5, 511, 12_800, 12_801, 2047, 2048]
)
@pytest.mark.parametrize("config", [NetworkConfig(), NetworkConfig(hidden=(16, 8))])
def test_forward_chunked_is_forward_bit_for_bit(n_rows, config):
    params = init_parameters(config, seed=5)
    x = np.random.default_rng(n_rows).uniform(0.0, 1.0, size=(n_rows, config.n_inputs))
    got = forward_chunked(params, config, x)
    assert got.shape == (n_rows, config.n_outputs)
    assert np.array_equal(got, forward(params, config, x).output)


def test_forward_tiles_into_reuses_one_buffer_set():
    # The sweep runs the kernel on buffers it keeps across calls, sized for
    # other row counts; a row's bits must not depend on them.
    config = NetworkConfig()
    params = init_parameters(config, seed=5)
    buffers = empty_tile_buffers(params, config, tile_rows(12_801))
    for n_rows in (12_801, 511, 12_800, 1, 3 * FORWARD_TILE_ROWS + 5):
        x = np.random.default_rng(n_rows).uniform(0.0, 1.0, size=(n_rows, config.n_inputs))
        out = np.full((n_rows, config.n_outputs), np.nan)
        forward_tiles_into(params, config, x, out, buffers)
        assert np.array_equal(out, forward_chunked(params, config, x))
    assert tile_rows(12_800) == 1067 and tile_rows(511) == 511 and tile_rows(2047) == 2047


@pytest.mark.parametrize("tiled", [True, False])
def test_forward_tiles_into_runs_forward_into_once_per_tile(monkeypatch, tiled):
    # The layer math has one implementation: each tile is one forward_into
    # call on views of the buffers, the sweep's tiled biases or
    # forward_chunked's broadcast ones, and of the tile's rows of x and out.
    config = NetworkConfig(hidden=(16, 8))
    params = init_parameters(config, seed=5)
    n_rows = 3 * FORWARD_TILE_ROWS + 5
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(n_rows, config.n_inputs))
    expected = forward(params, config, x).output
    calls = []
    real = sensopt.network.forward_into

    def spy(params, config, trace, biases):
        calls.append((trace, biases))
        real(params, config, trace, biases)

    monkeypatch.setattr(sensopt.network, "forward_into", spy)
    if tiled:
        buffers = empty_tile_buffers(params, config, tile_rows(n_rows))
        out = np.full((n_rows, config.n_outputs), np.nan)
        forward_tiles_into(params, config, x, out, buffers)
    else:
        out = forward_chunked(params, config, x)
    assert np.array_equal(out, expected)
    assert len(calls) == 3
    assert sum(len(trace.output) for trace, _ in calls) == n_rows
    for trace, biases in calls:
        rows = len(trace.output)
        assert np.shares_memory(trace.activations[0], x)
        assert trace.output.base is out
        assert np.shares_memory(trace.pre_activations[-1], trace.output)
        for b, layer_bias in zip(biases, params.biases):
            assert len(b) == rows and np.array_equal(b, np.tile(layer_bias, (rows, 1)))
            assert (b.strides[0] == 0) is not tiled
        if tiled:
            assert all(np.shares_memory(b, t) for b, t in zip(biases, buffers.biases))
            assert all(np.shares_memory(z, buffers.z) for z in trace.pre_activations[:-1])
            assert all(np.shares_memory(a, buffers.a) for a in trace.activations[1:-1])
        else:
            assert all(np.shares_memory(b, p) for b, p in zip(biases, params.biases))


def test_forward_chunked_checks_its_inputs():
    config = NetworkConfig()
    params = init_parameters(config, seed=0)
    with pytest.raises(ShapeError):
        forward_chunked(params, config, np.zeros((4, 9)))
    bad = np.zeros((4, 10))
    bad[2, 3] = np.nan
    with pytest.raises(DomainError):
        forward_chunked(params, config, bad)
    with pytest.raises(ShapeError):
        forward_chunked(params, NetworkConfig(hidden=(64, 64)), np.zeros((4, 10)))
    with pytest.raises(ShapeError):
        forward_chunked(params, config, np.zeros(10))
    assert np.array_equal(
        forward_chunked(params, config, np.zeros((1, 10))),
        forward(params, config, np.zeros((1, 10))).output,
    )


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("config", "output_activation", "leaky_relu"),
        ("normalization", "signal_log_base", 2.0),
        ("normalization", "input_max", [float("nan"), 144.0, 500.0, 3650.0, 49.0, 4000.0]),
        # Equal to the sizes the header's layers list, but not an integer.
        ("config", "hidden", [12.0, 11]),
    ],
)
def test_load_model_rejects_header_values_the_format_does_not_allow(tmp_path, section, key, value):
    path = tmp_path / "model.bin"
    save_model(_toy_model(), path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])

    def rewrite(entry):
        header[section][key] = entry
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + header_len :])

    rewrite(header[section][key])
    load_model(path)
    rewrite(value)
    with pytest.raises(ModelFormatError, match="header"):
        load_model(path)


@pytest.mark.parametrize("n_inputs, n_outputs", [(11, 3), (7, 3), (10, 4)])
def test_load_model_rejects_widths_the_pipeline_cannot_feed(tmp_path, n_inputs, n_outputs):
    # save_model() writes any architecture, but data's codec encodes 10
    # inputs and decodes 3 outputs, so only those widths load.
    config = NetworkConfig(n_inputs=n_inputs, hidden=(12, 11), n_outputs=n_outputs)
    model = Model(config, init_parameters(config, seed=3), _toy_model().normalization)
    path = tmp_path / "model.bin"
    save_model(model, path)
    message = rf"^model \(inputs, outputs\) \({n_inputs}, {n_outputs}\); the format allows only "
    with pytest.raises(ModelFormatError, match=message + r"\(10, 3\)$"):
        load_model(path)


@pytest.mark.parametrize(
    "split",
    [
        [4, 6400],
        {"seed": 4},
        {"seed": -1, "rows": 6400},
        {"seed": 4, "rows": 6400.0},
        {"seed": True, "rows": 6400},
        {"seed": 4, "rows": 6400, "epoch": 1},
    ],
)
def test_a_models_split_round_trips_and_a_malformed_one_is_rejected(tmp_path, split):
    path = tmp_path / "model.bin"
    model = _toy_model()
    save_model(model, path)
    assert b'"split"' not in path.read_bytes() and load_model(path).split is None
    model.split = {"seed": 4, "rows": 6400}
    save_model(model, path)
    raw = path.read_bytes()
    assert load_model(path).split == {"seed": 4, "rows": 6400}
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    header["split"] = split
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + header_len :])
    with pytest.raises(ModelFormatError, match="malformed model header: split"):
        load_model(path)
