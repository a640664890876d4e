"""From-scratch feed-forward regression network.

forward()            batched forward pass recording z's and activations
quadratic_cost()     half squared error, averaged over a batch
output_delta()       error vector at the output layer
backprop()           parameter gradients by backward error propagation
sgd_step()           plain gradient-descent update, in place
adam_step()          adaptive-moment update, in place
numeric_gradients()  central finite-difference gradient check
save_model()/load_model()  versioned binary model container
forward_chunked()    inference outputs for many encoded rows, tile by tile
predict()            raw inputs -> physical outputs via a Model bundle

All arithmetic is float64. Weight matrices are (fan_out, fan_in), so a
layer computes z = a_prev @ W.T + b; hidden layers use a leaky
rectifier, the output layer is identity by default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .data import NormalizationSpec, decode_outputs, encode_inputs
from .errors import ConfigurationError, DomainError, ModelFormatError, ShapeError

MODEL_MAGIC = b"SNSOPT01"
# Rows per tile of forward_chunked. On OpenBLAS 0.3.31 a product of 512 or
# more rows gives the same bits as one over all rows, while one of ~400 or
# fewer runs another kernel and may differ in the last bit; tiles of about
# 1,024 rows also keep the layer buffers in cache.
FORWARD_TILE_ROWS = 1024
_ACTIVATIONS = ("identity", "leaky_relu")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and activation constants.

    Production surrogates use at least two hidden layers (the deep
    regime); the math core itself accepts any stack of one or more
    layers, which the diagnostics rely on.
    """

    n_inputs: int = 10
    hidden: tuple[int, ...] = (64, 64, 64)
    n_outputs: int = 3
    alpha: float = 0.3
    output_activation: str = "identity"

    def __post_init__(self):
        sizes = self.layer_sizes
        if any(int(s) != s or s < 1 for s in sizes):
            raise ConfigurationError(f"layer sizes must be positive integers, got {sizes}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.output_activation not in _ACTIVATIONS:
            raise ConfigurationError(
                f"output_activation must be one of {_ACTIVATIONS}, got {self.output_activation!r}"
            )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.n_inputs, *self.hidden, self.n_outputs)

    @property
    def n_layers(self) -> int:
        return len(self.hidden) + 1


def _flatten(weights, biases) -> tuple[tuple[int, ...], np.ndarray]:
    """Layer sizes, and the arrays concatenated in the order w0, b0, w1, b1, ...

    Raises:
        ShapeError: the (fan_out, fan_in) weights and (fan_out,) biases do
            not chain into layers.
    """
    sizes = (np.shape(weights[0])[-1], *(np.size(b) for b in biases)) if weights else ()
    given = [np.shape(a) for pair in zip(weights, biases) for a in pair]
    wanted = [s for n_in, n_out in zip(sizes, sizes[1:]) for s in ((n_out, n_in), (n_out,))]
    if not weights or len(weights) != len(biases) or given != wanted:
        raise ShapeError(f"weight and bias shapes {given} do not chain into layers")
    arrays = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return sizes, np.concatenate(arrays, dtype=np.float64)


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (fan_out, fan_in) weight and (fan_out,) bias views into `flat`."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        end = offset + fan_out * fan_in
        weights.append(flat[offset:end].reshape(fan_out, fan_in))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class NetworkParameters:
    """Weights and biases of every layer, held in one contiguous vector.

    `flat` is a float64 copy of the given arrays in the order w0, b0, w1,
    b1, ... (each row-major), exactly the model file's payload; the
    optimizers and the gradient check work on it whole. `weights` and
    `biases` are per-layer views into it, so a write through either side
    is visible in the other. Shapes are checked here, once.
    """

    def __init__(self, weights, biases):
        self.layer_sizes, self.flat = _flatten(weights, biases)
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(self.weights, self.biases)

    @property
    def n_parameters(self) -> int:
        return self.flat.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


def init_parameters(config: NetworkConfig, seed: int) -> NetworkParameters:
    """Seeded uniform(+-sqrt(6 / (fan_in + fan_out))) weights, zero biases."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    sizes = config.layer_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParameters(weights=weights, biases=biases)


def leaky_relu(z: np.ndarray, alpha: float) -> np.ndarray:
    # For 0 < alpha < 1 (NetworkConfig enforces it) this is where(z >= 0,
    # z, alpha * z) bit for bit, signed zeros included, and faster.
    return np.maximum(z, alpha * z)


def leaky_relu_derivative(z: np.ndarray, alpha: float) -> np.ndarray:
    # The derivative at exactly 0 is defined as alpha.
    return np.where(np.asarray(z, dtype=np.float64) > 0, 1.0, alpha)


@dataclass
class ForwardTrace:
    """Everything backprop needs: activations[0] is the input itself."""

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


def _check_parameter_shapes(params: NetworkParameters, config: NetworkConfig) -> None:
    if params.layer_sizes != config.layer_sizes:
        raise ShapeError(f"parameter layers {params.layer_sizes} != config {config.layer_sizes}")


def _checked_inputs(params: NetworkParameters, config: NetworkConfig, inputs) -> np.ndarray:
    """`inputs` as an (n, n_inputs) float64 array, after the forward checks."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.n_inputs:
        raise ShapeError(f"inputs must have {config.n_inputs} columns, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("inputs must be finite")
    _check_parameter_shapes(params, config)
    return x


def forward(params: NetworkParameters, config: NetworkConfig, inputs) -> ForwardTrace:
    """Propagate `inputs` (shape (n_inputs,) or (n, n_inputs)) through the net.

    Raises:
        ShapeError: input width or parameter shapes disagree with the config.
        DomainError: non-finite input entries.
    """
    x = _checked_inputs(params, config, inputs)
    pre_activations: list[np.ndarray] = []
    activations: list[np.ndarray] = [x]
    a = x
    last = config.n_layers - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        if layer == last and config.output_activation == "identity":
            a = z
        else:
            a = leaky_relu(z, config.alpha)
        pre_activations.append(z)
        activations.append(a)
    return ForwardTrace(pre_activations=pre_activations, activations=activations)


def quadratic_cost(targets, outputs) -> float:
    """Half squared Euclidean distance per sample, averaged over the batch."""
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    a = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    if y.shape != a.shape:
        raise ShapeError(f"targets {y.shape} and outputs {a.shape} must match")
    return float(0.5 * np.mean(np.sum((y - a) ** 2, axis=1)))


def output_delta(targets, trace: ForwardTrace, config: NetworkConfig) -> np.ndarray:
    """Error at the output layer: -(y - a) times the activation derivative."""
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    a = trace.activations[-1]
    if y.shape != a.shape:
        raise ShapeError(f"targets {y.shape} and outputs {a.shape} must match")
    if config.output_activation == "identity":
        return a - y
    return (a - y) * leaky_relu_derivative(trace.pre_activations[-1], config.alpha)


class Gradients:
    """Cost gradients in the parameter layout; deltas are the backpropagated errors.

    `flat` holds every gradient entry in NetworkParameters.flat's order,
    so the optimizers use it whole; `d_weights` and `d_biases` are
    per-layer views into it. Built from per-layer arrays, it copies them.
    """

    def __init__(self, d_weights, d_biases, deltas=()):
        layer_sizes, flat = _flatten(d_weights, d_biases)
        self._bind(flat, layer_sizes, deltas)

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes, deltas=()) -> "Gradients":
        """Gradients whose per-layer views share memory with `flat`."""
        grads = cls.__new__(cls)
        grads._bind(flat, layer_sizes, deltas)
        return grads

    def _bind(self, flat, layer_sizes, deltas) -> None:
        self.flat = flat
        self.d_weights, self.d_biases = _layer_views(flat, layer_sizes)
        self.deltas = list(deltas)


def backprop(
    params: NetworkParameters, config: NetworkConfig, trace: ForwardTrace, targets
) -> Gradients:
    """Gradients of the batch-mean quadratic cost.

    The batch gradient is the mean of the per-sample gradients, so a
    single weight matrix gradient is delta.T @ a_prev / batch_size.
    """
    n_layers = config.n_layers
    batch = trace.activations[0].shape[0]
    deltas: list[np.ndarray | None] = [None] * n_layers
    deltas[-1] = output_delta(targets, trace, config)
    for layer in range(n_layers - 2, -1, -1):
        deltas[layer] = (deltas[layer + 1] @ params.weights[layer + 1]) * (
            leaky_relu_derivative(trace.pre_activations[layer], config.alpha)
        )
    grads = Gradients.from_flat(np.empty_like(params.flat), params.layer_sizes, deltas)
    for layer in range(n_layers):
        np.matmul(deltas[layer].T, trace.activations[layer], out=grads.d_weights[layer])
        np.sum(deltas[layer], axis=0, out=grads.d_biases[layer])
    grads.flat /= batch
    return grads


def numeric_gradients(
    params: NetworkParameters, config: NetworkConfig, inputs, targets, step: float = 1e-6
) -> Gradients:
    """Central finite-difference gradients of the batch quadratic cost.

    Perturbs every parameter entry individually and re-runs the forward
    pass, so the result is independent of the backprop path. Intended for
    gradient checking on small networks; cost grows with parameter count.
    """

    def cost() -> float:
        return quadratic_cost(targets, forward(params, config, inputs).output)

    flat = params.flat
    grad = np.empty_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        above = cost()
        flat[i] = original - step
        below = cost()
        flat[i] = original
        grad[i] = (above - below) / (2.0 * step)
    return Gradients.from_flat(grad, params.layer_sizes)


@dataclass
class OptimizerState:
    """Update-rule constants plus the adaptive-moment accumulators."""

    mode: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def init_optimizer(mode: str, learning_rate: float, params: NetworkParameters) -> OptimizerState:
    if mode not in ("sgd", "adam"):
        raise ConfigurationError(f"optimizer mode must be 'sgd' or 'adam', got {mode!r}")
    if learning_rate <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate!r}")
    state = OptimizerState(mode=mode, learning_rate=learning_rate)
    if mode == "adam":
        state.first_moment = np.zeros_like(params.flat)
        state.second_moment = np.zeros_like(params.flat)
    return state


def sgd_step(
    params: NetworkParameters, grads: Gradients, state: OptimizerState
) -> NetworkParameters:
    """w <- w - eta * dC/dw and b <- b - eta * dC/db, in place."""
    if state.mode != "sgd":
        raise ConfigurationError(f"sgd_step called with optimizer mode {state.mode!r}")
    state.step_count += 1
    params.flat -= state.learning_rate * grads.flat
    return params


def adam_step(
    params: NetworkParameters, grads: Gradients, state: OptimizerState
) -> NetworkParameters:
    """Bias-corrected adaptive-moment update, in place.

    Per entry: p -= lr * m_hat / (sqrt(v_hat) + epsilon), where m_hat and
    v_hat are the bias-corrected first and second moment estimates. The
    first step with gradient g therefore moves by -lr * g / (|g| + epsilon).
    """
    if state.mode != "adam":
        raise ConfigurationError(f"adam_step called with optimizer mode {state.mode!r}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    g = grads.flat
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    params.flat -= state.learning_rate * (m / correction1) / (
        np.sqrt(v / correction2) + state.epsilon
    )
    return params


@dataclass
class Model:
    """A trained surrogate: architecture, parameters and scaling constants."""

    config: NetworkConfig
    params: NetworkParameters
    normalization: NormalizationSpec


def forward_chunked(params: NetworkParameters, config: NetworkConfig, x) -> np.ndarray:
    """Network outputs for encoded rows `x`, bit for bit forward(...).output.

    Inference only, so nothing is kept for backprop: the rows go through
    in near-equal tiles of FORWARD_TILE_ROWS to 2 * FORWARD_TILE_ROWS rows
    (one tile when `x` is shorter), and every layer is computed in place
    in buffers allocated once per call. forward()'s checks run once.
    """
    x = _checked_inputs(params, config, x)
    n = x.shape[0]
    outputs = np.empty((n, config.n_outputs))
    tiles = max(1, n // FORWARD_TILE_ROWS)
    tile_rows = -(-n // tiles)
    hidden = [np.empty((tile_rows, size)) for size in config.layer_sizes[1:-1]]
    # Biases repeated per row: adding a whole array beats a broadcast add.
    biases = [np.tile(b, (tile_rows, 1)) for b in params.biases]
    scratch = np.empty((tile_rows, max(config.layer_sizes[1:])))
    last = config.n_layers - 1
    for tile in range(tiles):
        start, stop = tile * n // tiles, (tile + 1) * n // tiles
        rows = stop - start
        a = x[start:stop]
        for layer, w in enumerate(params.weights):
            z = outputs[start:stop] if layer == last else hidden[layer][:rows]
            np.matmul(a, w.T, out=z)
            np.add(z, biases[layer][:rows], out=z)
            if layer != last or config.output_activation != "identity":
                # leaky_relu(z), written into z.
                alpha_z = scratch[:rows, : z.shape[1]]
                np.multiply(z, config.alpha, out=alpha_z)
                np.maximum(z, alpha_z, out=z)
            a = z
    return outputs


def predict(model: Model, numeric, category, chunk_size: int = 65536) -> np.ndarray:
    """Physical (signal, snr, output3) predictions for raw input rows.

    The encoded rows go through forward_chunked `chunk_size` at a time.
    """
    x = encode_inputs(numeric, category, model.normalization)
    rows = np.atleast_2d(x)
    outputs = np.empty((rows.shape[0], model.config.n_outputs))
    for start in range(0, rows.shape[0], chunk_size):
        stop = start + chunk_size
        outputs[start:stop] = forward_chunked(model.params, model.config, rows[start:stop])
    decoded = decode_outputs(outputs, model.normalization)
    return decoded[0] if x.ndim == 1 else decoded


# -- serialization ----------------------------------------------------------
#
# Byte layout (little endian throughout):
#   bytes 0..7    magic b"SNSOPT01" (version is part of the magic)
#   bytes 8..11   uint32 header length H
#   bytes 12..    UTF-8 JSON header of H bytes with keys
#                 config, layers, normalization, param_sha256
#   then the parameter payload: NetworkParameters.flat as float64, that
#                 is per layer, in order, the row-major weights
#                 (fan_out * fan_in values), then the bias (fan_out values)
# param_sha256 is the SHA-256 hex digest of the payload; load_model()
# recomputes and compares it.


def save_model(model: Model, path) -> None:
    """Write the model container described in the module byte-layout note."""
    _check_parameter_shapes(model.params, model.config)
    sizes = model.params.layer_sizes
    layers = [{"fan_in": fan_in, "fan_out": fan_out} for fan_in, fan_out in zip(sizes, sizes[1:])]
    payload = model.params.flat.astype("<f8", copy=False).tobytes()
    header = {
        "config": {
            "n_inputs": model.config.n_inputs,
            "hidden": list(model.config.hidden),
            "n_outputs": model.config.n_outputs,
            "alpha": model.config.alpha,
            "output_activation": model.config.output_activation,
        },
        "layers": layers,
        "normalization": {
            "input_max": list(model.normalization.input_max),
            "output_max": list(model.normalization.output_max),
            "signal_log_base": model.normalization.signal_log_base,
        },
        "param_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        fh.write(payload)


def load_model(path) -> Model:
    """Read a model container back; inverse of save_model, bit for bit.

    Raises:
        ModelFormatError: wrong magic/version, truncation, malformed
            header, or a parameter checksum mismatch.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MODEL_MAGIC) + 4:
        raise ModelFormatError("model file truncated before header")
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError(
            f"unrecognized model magic {raw[: len(MODEL_MAGIC)]!r}; expected {MODEL_MAGIC!r}"
        )
    header_len = int.from_bytes(raw[len(MODEL_MAGIC) : len(MODEL_MAGIC) + 4], "little")
    header_start = len(MODEL_MAGIC) + 4
    if len(raw) < header_start + header_len:
        raise ModelFormatError("model file truncated inside header")
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
        config = NetworkConfig(
            n_inputs=header["config"]["n_inputs"],
            hidden=tuple(header["config"]["hidden"]),
            n_outputs=header["config"]["n_outputs"],
            alpha=header["config"]["alpha"],
            output_activation=header["config"]["output_activation"],
        )
        normalization = NormalizationSpec(
            input_max=tuple(header["normalization"]["input_max"]),
            output_max=tuple(header["normalization"]["output_max"]),
            signal_log_base=header["normalization"]["signal_log_base"],
        )
        layers = [(layer["fan_in"], layer["fan_out"]) for layer in header["layers"]]
        expected_digest = header["param_sha256"]
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ModelFormatError(f"malformed model header: {exc}") from exc
    sizes = config.layer_sizes
    if layers != list(zip(sizes, sizes[1:])):
        raise ModelFormatError(f"header layers {layers} do not match the config's sizes {sizes}")

    payload = raw[header_start + header_len :]
    expected_size = 8 * sum(fan_out * fan_in + fan_out for fan_in, fan_out in layers)
    if len(payload) != expected_size:
        raise ModelFormatError(
            f"parameter block has {len(payload)} bytes, expected {expected_size}"
        )
    if hashlib.sha256(payload).hexdigest() != expected_digest:
        raise ModelFormatError("parameter checksum mismatch; file is corrupt")

    params = NetworkParameters(*_layer_views(np.frombuffer(payload, dtype="<f8"), sizes))
    return Model(config=config, params=params, normalization=normalization)
