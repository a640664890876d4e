"""From-scratch feed-forward regression network.

forward()            batched forward pass recording z's and activations
quadratic_cost()     half squared error, averaged over a batch
backprop()           parameter gradients by backward error propagation
sgd_step()           plain gradient-descent update, in place
adam_step()          adaptive-moment update, in place
numeric_gradients()  central finite-difference gradient check
save_model()/load_model()  versioned binary model container
forward_tiles_into() inference outputs for many encoded rows: forward_into()
                     tile by tile, on caller-owned TileBuffers;
                     forward_chunked() is its checked form
predict()            raw inputs -> physical outputs via a Model bundle

All arithmetic is float64. Weight matrices are (fan_out, fan_in), so a
layer computes z = a_prev @ W.T + b; hidden layers use a leaky
rectifier, the output layer is the identity.

The math of training and inference has one implementation, the in-place
kernels forward_into() and backprop_into(). They write into buffers the
caller owns and check nothing: training.train() allocates its buffers
once per run and forward_tiles_into() views TileBuffers, while forward()
and backprop() validate their arguments and allocate fresh buffers on
every call. The optimizers likewise update in place through two scratch
vectors that init_optimizer() allocates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    ENCODED_INPUT_SIZE,
    N_OUTPUTS,
    NormalizationSpec,
    decode_outputs,
    encode_inputs,
    replacing,
)
from .errors import ConfigurationError, DomainError, ModelFormatError, ShapeError

MODEL_MAGIC = b"SNSOPT01"
# On OpenBLAS 0.3.31 a product of BIT_STABLE_ROWS or more rows gives each row
# the same bits as one over all rows, while one of ~400 or fewer runs another
# kernel and may differ in the last bit. Two things rely on it: the tiles of
# forward_tiles_into, which are never shorter unless the whole input is, and
# the sweep, which never predicts a block of fewer than BIT_STABLE_ROWS rows
# (sweep.MIN_BLOCK_COMBINATIONS), so a selected curve exported on its own has
# the bits it was scored on. Tiles of about FORWARD_TILE_ROWS rows also keep the
# layer buffers in cache.
BIT_STABLE_ROWS = 512
FORWARD_TILE_ROWS = 1024


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

    def __post_init__(self):
        sizes = self.layer_sizes
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 1 for s in sizes):
            raise ConfigurationError(f"layer sizes must be positive integers, got {sizes}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha!r}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.n_inputs, *self.hidden, self.n_outputs)


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


def _leaky_relu_into(z: np.ndarray, alpha: float, out: np.ndarray) -> None:
    # For 0 < alpha < 1 (NetworkConfig enforces it) max(z, alpha * z) is
    # where(z >= 0, z, alpha * z) bit for bit, signed zeros included, and
    # faster. `out` must not be `z`.
    np.multiply(z, alpha, out)
    np.maximum(z, out, out=out)


def _leaky_relu_derivative_into(z: np.ndarray, alpha: float, out: np.ndarray) -> None:
    # 1.0 where z > 0, else 0.0 raised to alpha: where(z > 0, 1, alpha) bit
    # for bit for 0 < alpha < 1, and cheaper than np.where or a masked ufunc.
    np.greater(z, 0.0, out)
    np.maximum(out, alpha, out=out)


@dataclass
class ForwardTrace:
    """Everything backprop needs: activations[0] is the input itself.

    The output layer is the identity, so activations[-1] is pre_activations[-1].
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


def empty_trace(config: NetworkConfig, inputs: np.ndarray) -> ForwardTrace:
    """A trace of fresh buffers for a forward pass over the rows of `inputs`."""
    rows = inputs.shape[0]
    pre_activations = [np.empty((rows, size)) for size in config.layer_sizes[1:]]
    activations = [inputs, *(np.empty_like(z) for z in pre_activations[:-1]), pre_activations[-1]]
    return ForwardTrace(pre_activations=pre_activations, activations=activations)


def forward_into(
    params: NetworkParameters, config: NetworkConfig, trace: ForwardTrace, biases: list[np.ndarray]
) -> None:
    """Run the net on trace.activations[0], writing every z and activation of `trace`.

    Layer l adds biases[l]: params.biases[l], or TileBuffers' copy of it
    for every row, with the same bits. The buffers come from
    empty_trace() or forward_tiles_into(); nothing is checked.
    """
    alpha = config.alpha
    last = len(params.weights) - 1
    a = trace.activations[0]
    for layer, (w, b, z, out) in enumerate(
        zip(params.weights, biases, trace.pre_activations, trace.activations[1:])
    ):
        np.matmul(a, w.T, z)
        np.add(z, b, z)
        if layer != last:
            _leaky_relu_into(z, alpha, out)
        a = out


def _check_parameter_shapes(params: NetworkParameters, config: NetworkConfig) -> None:
    if params.layer_sizes != config.layer_sizes:
        raise ShapeError(f"parameter layers {params.layer_sizes} != config {config.layer_sizes}")


def _checked_inputs(params: NetworkParameters, config: NetworkConfig, inputs) -> np.ndarray:
    """`inputs` as an (n, n_inputs) float64 array, after the forward checks."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.n_inputs:
        raise ShapeError(f"inputs must have {config.n_inputs} columns, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("inputs must be finite")
    _check_parameter_shapes(params, config)
    return x


def forward(params: NetworkParameters, config: NetworkConfig, inputs) -> ForwardTrace:
    """Propagate `inputs`, shape (n, n_inputs), through the net.

    Raises:
        ShapeError: input width or parameter shapes disagree with the config.
        DomainError: non-finite input entries.
    """
    x = _checked_inputs(params, config, inputs)
    trace = empty_trace(config, x)
    forward_into(params, config, trace, params.biases)
    return trace


def quadratic_cost(targets, outputs) -> float:
    """Half squared Euclidean distance per sample of (n, k) rows, averaged over the batch."""
    y = np.asarray(targets, dtype=np.float64)
    a = np.asarray(outputs, dtype=np.float64)
    if y.ndim != 2 or y.shape != a.shape:
        raise ShapeError(f"targets {y.shape} and outputs {a.shape} must be (n, k) of one shape")
    return float(0.5 * np.mean(np.sum((y - a) ** 2, axis=1)))


class Gradients:
    """Cost gradients in the parameter layout; deltas are the backpropagated errors.

    Built from per-layer weight and bias gradients, it copies them into
    `flat`, in NetworkParameters.flat's order, so the optimizers use it
    whole; `d_weights` and `d_biases` are per-layer views into `flat`.
    """

    def __init__(self, d_weights, d_biases, deltas=()):
        layer_sizes, self.flat = _flatten(d_weights, d_biases)
        self.d_weights, self.d_biases = _layer_views(self.flat, layer_sizes)
        self.deltas = list(deltas)


def empty_gradients(params: NetworkParameters, rows: int) -> Gradients:
    """Gradients of fresh buffers, with a (rows, fan_out) delta per layer."""
    deltas = [np.empty((rows, size)) for size in params.layer_sizes[1:]]
    return Gradients(*_layer_views(np.empty_like(params.flat), params.layer_sizes), deltas)


def backprop_into(
    params: NetworkParameters,
    config: NetworkConfig,
    trace: ForwardTrace,
    grads: Gradients,
    scratch: list[np.ndarray],
) -> None:
    """Gradients of the batch-mean quadratic cost, written into `grads`.

    On entry grads.deltas[-1] holds the output error a - y; `scratch`
    holds one buffer shaped like each hidden pre-activation, for the
    rectifier's derivative. The batch gradient is the mean of the per-sample
    gradients, so a weight gradient is delta.T @ a_prev / batch_size.
    The buffers come from empty_trace() and empty_gradients(); nothing
    is checked.
    """
    alpha = config.alpha
    deltas = grads.deltas
    zs = trace.pre_activations
    for layer in range(len(deltas) - 2, -1, -1):
        np.matmul(deltas[layer + 1], params.weights[layer + 1], deltas[layer])
        _leaky_relu_derivative_into(zs[layer], alpha, scratch[layer])
        deltas[layer] *= scratch[layer]
    for delta, a_prev, d_w, d_b in zip(deltas, trace.activations, grads.d_weights, grads.d_biases):
        np.matmul(delta.T, a_prev, d_w)
        # add.reduce, not np.sum: the same sum without the Python wrapper.
        np.add.reduce(delta, 0, None, d_b)
    grads.flat /= trace.activations[0].shape[0]


def backprop(
    params: NetworkParameters, config: NetworkConfig, trace: ForwardTrace, targets
) -> Gradients:
    """Gradients of the batch-mean quadratic cost for (n, n_outputs) `targets`, in fresh buffers.

    Raises:
        ShapeError: targets do not match the trace's (n, n_outputs) output.
    """
    y = np.asarray(targets, dtype=np.float64)
    a = trace.activations[-1]
    if y.shape != a.shape:
        raise ShapeError(f"targets {y.shape} and outputs {a.shape} must match")
    grads = empty_gradients(params, a.shape[0])
    np.subtract(a, y, grads.deltas[-1])
    scratch = [np.empty_like(z) for z in trace.pre_activations[:-1]]
    backprop_into(params, config, trace, grads, scratch)
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
    return Gradients(*_layer_views(grad, params.layer_sizes))


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
    # Two parameter-sized work vectors, so that a step allocates nothing.
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def init_optimizer(mode: str, learning_rate: float, params: NetworkParameters) -> OptimizerState:
    if mode not in ("sgd", "adam"):
        raise ConfigurationError(f"optimizer mode must be 'sgd' or 'adam', got {mode!r}")
    if learning_rate <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate!r}")
    state = OptimizerState(mode=mode, learning_rate=learning_rate)
    state.scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
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
    change = state.scratch[0]
    np.multiply(grads.flat, state.learning_rate, change)
    params.flat -= change
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
    step, denominator = state.scratch
    # The temporaries of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
    # and p -= lr * (m / c1) / (sqrt(v / c2) + eps), operation for
    # operation, written into the two scratch vectors. Once a correction
    # has rounded to 1.0 (from t = 356 for beta1 = 0.9, t = 37,412 for
    # beta2 = 0.999) its division is skipped: x / 1.0 == x bit for bit.
    np.multiply(g, 1.0 - b1, step)
    m *= b1
    m += step
    np.multiply(g, g, step)
    step *= 1.0 - b2
    v *= b2
    v += step
    if correction1 == 1.0:
        np.multiply(m, state.learning_rate, step)
    else:
        np.divide(m, correction1, step)
        step *= state.learning_rate
    if correction2 == 1.0:
        np.sqrt(v, denominator)
    else:
        np.divide(v, correction2, denominator)
        np.sqrt(denominator, denominator)
    denominator += state.epsilon
    step /= denominator
    params.flat -= step
    return params


@dataclass
class Model:
    """A trained surrogate: architecture, parameters and scaling constants."""

    config: NetworkConfig
    params: NetworkParameters
    normalization: NormalizationSpec
    # The data.split() it was trained on, {"seed": s, "rows": n}, if recorded.
    split: dict | None = None


class TileBuffers(NamedTuple):
    """Buffers of forward_tiles_into() for tiles of up to `rows` rows.

    `rows` is the length of each array in `biases`, which holds each
    layer's bias for every row: repeated per row by
    empty_tile_buffers(), since adding a whole array beats a broadcast
    add over many calls, or broadcast views for a single call.
    forward_tiles_into() only reads it, so threads may share it. `z` and
    `a` are flat work buffers of `rows` times the widest layer, viewed
    as every hidden z and every hidden activation of a tile's
    ForwardTrace; one thread at a time may use them.
    """

    biases: list[np.ndarray]
    z: np.ndarray
    a: np.ndarray

    def for_another_thread(self) -> "TileBuffers":
        """The same tiled biases, with work buffers of its own."""
        return self._replace(z=np.empty_like(self.z), a=np.empty_like(self.a))


def tile_rows(n: int) -> int:
    """Rows of the longest tile forward_tiles_into() cuts `n` rows into."""
    return -(-n // max(1, n // FORWARD_TILE_ROWS))


def empty_tile_buffers(params: NetworkParameters, config: NetworkConfig, rows: int) -> TileBuffers:
    """TileBuffers for tiles of up to `rows` rows, holding the biases of `params`."""
    width = rows * max(config.layer_sizes[1:])
    return TileBuffers(
        biases=[np.tile(b, (rows, 1)) for b in params.biases], z=np.empty(width), a=np.empty(width)
    )


def forward_tiles_into(
    params: NetworkParameters,
    config: NetworkConfig,
    x: np.ndarray,
    out: np.ndarray,
    buffers: TileBuffers,
) -> None:
    """Network outputs for the encoded rows `x`, written into `out`.

    forward_into() runs once per near-equal tile of FORWARD_TILE_ROWS to
    2 * FORWARD_TILE_ROWS rows (one tile when `x` is shorter) on a trace
    of the tile's rows of `x` and `out` and of `buffers`, which must hold
    tile_rows(len(x)) rows and the biases of `params`; each hidden layer
    overwrites the one before it. The tiles depend on len(x) alone, so a
    row's bits do not depend on the buffers. Nothing is checked.
    """
    n = x.shape[0]
    tiles = max(1, n // FORWARD_TILE_ROWS)
    for tile in range(tiles):
        start, stop = tile * n // tiles, (tile + 1) * n // tiles
        rows = stop - start
        z = [buffers.z[: rows * size].reshape(rows, size) for size in config.hidden]
        a = [buffers.a[: rows * size].reshape(rows, size) for size in config.hidden]
        trace = ForwardTrace([*z, out[start:stop]], [x[start:stop], *a, out[start:stop]])
        forward_into(params, config, trace, [b[:rows] for b in buffers.biases])


def forward_chunked(params: NetworkParameters, config: NetworkConfig, x) -> np.ndarray:
    """Outputs (n, n_outputs) of encoded (n, n_inputs) rows `x`: forward(...).output bit for bit.

    forward()'s checks, once, then forward_tiles_into() on work buffers
    allocated for this call. The biases are broadcast, not tiled: one
    call does not repay the copies, and each sum has the same bits.
    """
    x = _checked_inputs(params, config, x)
    outputs = np.empty((x.shape[0], config.n_outputs))
    rows = tile_rows(x.shape[0])
    width = rows * max(config.layer_sizes[1:])
    biases = [np.broadcast_to(b, (rows, b.size)) for b in params.biases]
    forward_tiles_into(
        params, config, x, outputs, TileBuffers(biases=biases, z=np.empty(width), a=np.empty(width))
    )
    return outputs


def predict(model: Model, numeric, category) -> np.ndarray:
    """Physical (signal, snr, output3) predictions, shape (n, 3), for raw input rows.

    `numeric` (n, 6) and `category` (n,) are checked by data.encode_inputs().
    """
    x = encode_inputs(numeric, category, model.normalization)
    outputs = forward_chunked(model.params, model.config, x)
    return decode_outputs(outputs, model.normalization)


# -- serialization ----------------------------------------------------------
#
# Byte layout (little endian throughout):
#   bytes 0..7    magic b"SNSOPT01" (version is part of the magic)
#   bytes 8..11   uint32 header length H
#   bytes 12..    UTF-8 JSON header of H bytes with keys
#                 config, layers, normalization, param_sha256, and
#                 split when the model records one ({"seed": s,
#                 "rows": n}, non-negative integers); the keys
#                 config.output_activation and
#                 normalization.signal_log_base hold the only values
#                 the format allows, "identity" and 10.0
#   then the parameter payload: NetworkParameters.flat as float64, that
#                 is per layer, in order, the row-major weights
#                 (fan_out * fan_in values), then the bias (fan_out values)
# param_sha256 is the SHA-256 hex digest of the payload; load_model()
# recomputes and compares it.


def save_model(model: Model, path) -> None:
    """Write the model container described in the module byte-layout note.

    Written through a temporary file, like every sensopt output: a failed
    write leaves whatever `path` held before untouched.
    """
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
            "output_activation": "identity",
        },
        "layers": layers,
        "normalization": {
            "input_max": list(model.normalization.input_max),
            "output_max": list(model.normalization.output_max),
            "signal_log_base": 10.0,
        },
        "param_sha256": hashlib.sha256(payload).hexdigest(),
    }
    if model.split is not None:
        header["split"] = model.split
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        fh.write(payload)


def load_model(path) -> Model:
    """Read a model container back; inverse of save_model, bit for bit.

    Raises:
        ModelFormatError: wrong magic/version, truncation, malformed
            header (an output activation other than "identity", a signal
            log base other than 10 or widths other than data's 10 inputs
            and 3 outputs included), or a parameter checksum mismatch.
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
        )
        normalization = NormalizationSpec(
            input_max=tuple(header["normalization"]["input_max"]),
            output_max=tuple(header["normalization"]["output_max"]),
        )
        fixed = (header["config"]["output_activation"], header["normalization"]["signal_log_base"])
        layers = [(layer["fan_in"], layer["fan_out"]) for layer in header["layers"]]
        expected_digest = header["param_sha256"]
        split = header.get("split")
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ModelFormatError(f"malformed model header: {exc}") from exc
    if split is not None and not (
        isinstance(split, dict) and sorted(split) == ["rows", "seed"]
        and all(type(v) is int and v >= 0 for v in split.values())
    ):
        raise ModelFormatError(f"malformed model header: split {split!r}")
    if fixed != ("identity", 10.0):
        raise ModelFormatError(
            f"model header output_activation and signal_log_base are {fixed}; "
            "the format allows only ('identity', 10.0)"
        )
    widths = (config.n_inputs, config.n_outputs)
    if widths != (ENCODED_INPUT_SIZE, N_OUTPUTS):
        raise ModelFormatError(f"model (inputs, outputs) {widths}; the format allows only (10, 3)")
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
    return Model(config=config, params=params, normalization=normalization, split=split)
