"""Synthetic ground-truth sensor and factorial dataset generation.

Stands in for the physical device: a deterministic, seedable analytic
model mapping a settings combination (input1-input4, input6), a sweep
position (input5, 0-49) and a category (0-3) to the three recorded
outputs (signal, snr, output3).

Per settings combination s and category c the model is

    log10(signal) = level(s, c) + rate(s, c) * input5,        rate > 0
    snr           = (5 + dev(s)) * log10(signal)
                    - depth(s) * exp(-(log10(signal) - m)^2 / (2 w^2))
                    + optional Gaussian noise [dB]
    output3       = positive quadratic in the normalized settings

level, rate, dev and depth are smooth bounded fields of the normalized
settings, drawn once per seed, so every output is a pure function of
(seed, settings, input5, category). The SNR curve follows the ideal
5*log10(signal) trend to within 0.5 dB below 2e3 AU and dips by depth(s)
dB around the dip center, which must sit inside the 3e3-1e4 AU analysis
window; the constructor rejects parameter sets that would violate either
property.

GridSpec, five sorted value tuples checked when built, is the one grid
type: of the recorded grid TABLE1 and of the sweep's interpolated grids.
Its settings() is the (n, 5) array of every combination.

SensorOracle.simulate_blocks() computes the noise-free curves of many
combinations at once; generate_dataset() runs it on blocks of 64
combinations and adds each combination's own seeded noise stream, so a
dataset has the same bytes as one simulated combination by combination.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .curves import DIP_WINDOW, FIT_SIGNAL_MAX, IDEAL_SLOPE
from .data import COLUMN_INDEX, SampleTable
from .errors import ConfigurationError

INPUT5_COUNT = 50
CATEGORY_COUNT = 4
ROWS_PER_COMBINATION = INPUT5_COUNT * CATEGORY_COUNT

SETTING_NAMES = ("input1", "input2", "input3", "input4", "input6")

# The recorded grid TABLE1's values per settings input, its repeated 3600 kept verbatim.
_TABLE1_VALUES = (
    (418.0, 441.0, 464.0, 478.0, 510.0),
    (112.0, 120.0, 128.0, 136.0, 144.0),
    (400.0, 425.0, 450.0, 475.0, 500.0),
    (2850.0, 3050.0, 3250.0, 3450.0, 3650.0),
    (3200.0, 3400.0, 3600.0, 3600.0, 4000.0),
)
# Full range each settings input may assume: the recorded grid's endpoints.
SETTING_RANGES = tuple((values[0], values[-1]) for values in _TABLE1_VALUES)
# Most expanded rows (combinations x 200) a grid may imply.
ROW_BUDGET = 24_000_000

# Field amplitudes. rate stays strictly positive so the signal is monotone
# in input5, and level + 49 * rate always carries every curve through the
# dip window. dev is small enough that the low-signal trend invariant holds.
_LEVEL_BASE, _LEVEL_SPAN = 0.9, 0.35
_RATE_BASE, _RATE_SPAN = 0.0885, 0.0115
_SLOPE_DEV_SPAN = 0.02
_DEPTH_FLOOR, _DEPTH_SPAN = 0.55, 0.45
# Depth varies on a longer wavelength than the other fields so that a
# coarse training grid still resolves it.
_DEPTH_FREQ = 0.7
_CAT_LEVEL_STEP = 0.05
_CAT_RATE_SPAN = 0.02
_TREND_TOLERANCE_DB = 0.5

# input5 and category of a combination's 200 rows: input5-major,
# category-minor.
INPUT5 = np.repeat(np.arange(INPUT5_COUNT, dtype=np.float64), CATEGORY_COUNT)
CATEGORY = np.tile(np.arange(CATEGORY_COUNT, dtype=np.float64), INPUT5_COUNT)
# The category's terms of log10(signal) on those rows: an offset added to
# level and a factor on rate.
_CAT_LEVEL = _CAT_LEVEL_STEP * (CATEGORY / (CATEGORY_COUNT - 1))
_CAT_RATE = 1.0 + _CAT_RATE_SPAN * (CATEGORY / (CATEGORY_COUNT - 1) - 0.5)
# Combinations per simulate_blocks call in generate_dataset: bounds the
# (m, 200) temporaries whatever the grid size.
_GENERATE_COMBINATIONS = 64


@dataclass(frozen=True)
class GridSpec:
    """Values per settings input; input5 and category are implied.

    Each tuple must be nonempty, sorted ascending and inside the input's
    SETTING_RANGES, and the grid may imply at most ROW_BUDGET rows; all
    of it is checked here, once, before any work starts. Repeated
    entries are kept verbatim, so the combination count is the raw
    product of tuple lengths.
    """

    input1: tuple[float, ...]
    input2: tuple[float, ...]
    input3: tuple[float, ...]
    input4: tuple[float, ...]
    input6: tuple[float, ...]

    def __post_init__(self):
        for name, vals, (lo, hi) in zip(SETTING_NAMES, self.values(), SETTING_RANGES):
            if len(vals) == 0:
                raise ConfigurationError(f"{name} must list at least one value")
            if any(a > b for a, b in zip(vals, vals[1:])):
                raise ConfigurationError(f"{name} values must be sorted ascending")
            if not all(lo <= v <= hi for v in vals):
                raise ConfigurationError(
                    f"{name} values [{vals[0]}, {vals[-1]}] outside recorded range [{lo}, {hi}]"
                )
        rows = self.combination_count * ROWS_PER_COMBINATION
        if rows > ROW_BUDGET:
            raise ConfigurationError(f"grid of {rows} rows is over the budget of {ROW_BUDGET}")

    def values(self) -> tuple[tuple[float, ...], ...]:
        return (self.input1, self.input2, self.input3, self.input4, self.input6)

    @property
    def combination_count(self) -> int:
        return math.prod(len(vals) for vals in self.values())

    def settings(self) -> np.ndarray:
        """The (n, 5) float64 settings of every combination, in lexicographic order."""
        columns = np.meshgrid(
            *(np.asarray(vals, dtype=np.float64) for vals in self.values()), indexing="ij"
        )
        return np.stack(columns, axis=-1).reshape(-1, len(SETTING_NAMES))

    def subsample(self, values_per_input: int) -> "GridSpec":
        """Keep `values_per_input` entries per input, endpoints included."""
        if values_per_input < 1:
            raise ConfigurationError("values_per_input must be at least 1")
        picked = []
        for vals in self.values():
            if values_per_input >= len(vals):
                picked.append(vals)
                continue
            idx = np.round(np.linspace(0, len(vals) - 1, values_per_input)).astype(int)
            picked.append(tuple(vals[i] for i in idx))
        return GridSpec(*picked)


TABLE1 = GridSpec(*_TABLE1_VALUES)


def _normalize_settings(settings) -> np.ndarray:
    """(m, 5) rows scaled to [0, 1] over SETTING_RANGES; other shapes: ConfigurationError."""
    rows = np.asarray(settings, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(SETTING_NAMES):
        raise ConfigurationError(
            f"settings must have shape (m, {len(SETTING_NAMES)}), got {rows.shape}"
        )
    lo, hi = np.array(SETTING_RANGES).T
    return (rows - lo) / (hi - lo)


class SensorOracle:
    """Deterministic analytic sensor model.

    Args:
        seed: fixes every coefficient field; identical seeds are
            guaranteed to reproduce identical outputs bit for bit.
        dip_center: signal position (AU) of the SNR dip; must lie inside
            the 3e3-1e4 AU analysis window.
        dip_depth: dip depth scale in dB; per-combination depths span
            roughly [0.1, 1.0] times this value.
        dip_width: dip width in log10(signal) units.
        noise_db: standard deviation of optional Gaussian SNR noise (dB);
            0 disables the noise path entirely.

    Every parameter must be finite.
    """

    # The constructor's parameters, each kept as the attribute of its name.
    _CONFIG_KEYS = ("seed", "dip_center", "dip_depth", "dip_width", "noise_db")

    def __init__(
        self,
        seed: int = 0,
        dip_center: float = 5.5e3,
        dip_depth: float = 5.0,
        dip_width: float = 0.12,
        noise_db: float = 0.0,
    ):
        if not all(map(math.isfinite, (dip_center, dip_depth, dip_width, noise_db))):
            raise ConfigurationError("dip_center, dip_depth, dip_width and noise_db must be finite")
        if not DIP_WINDOW[0] <= dip_center <= DIP_WINDOW[1]:
            raise ConfigurationError(
                f"dip_center {dip_center!r} outside analysis window {DIP_WINDOW}"
            )
        if dip_width <= 0:
            raise ConfigurationError("dip_width must be positive")
        if dip_depth < 0:
            raise ConfigurationError("dip_depth must be nonnegative")
        if noise_db < 0:
            raise ConfigurationError("noise_db must be nonnegative")
        log_fit_max = np.log10(FIT_SIGNAL_MAX)
        tail = dip_depth * np.exp(
            -0.5 * ((np.log10(dip_center) - log_fit_max) / dip_width) ** 2
        )
        if _SLOPE_DEV_SPAN * log_fit_max + tail >= _TREND_TOLERANCE_DB:
            raise ConfigurationError(
                "dip too deep or too wide: SNR below 2e3 AU would deviate from the "
                f"5*log10 trend by {_SLOPE_DEV_SPAN * log_fit_max + tail:.3f} dB or more"
            )
        self.seed = int(seed)
        self.dip_center = float(dip_center)
        self.dip_depth = float(dip_depth)
        self.dip_width = float(dip_width)
        self.noise_db = float(noise_db)
        self._log_center = float(np.log10(dip_center))

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        self._w_level = rng.uniform(-1.0, 1.0, 5)
        self._p_level = rng.uniform(0.0, 2.0 * np.pi)
        self._w_rate = rng.uniform(-1.0, 1.0, 5)
        self._p_rate = rng.uniform(0.0, 2.0 * np.pi)
        self._w_dev = rng.uniform(-1.0, 1.0, 5)
        self._p_dev = rng.uniform(0.0, 2.0 * np.pi)
        self._w_depth = _DEPTH_FREQ * rng.uniform(-1.0, 1.0, 5)
        self._p_depth = rng.uniform(0.0, 2.0 * np.pi)
        self._out3_center = rng.uniform(0.2, 0.8, 5)
        self._out3_quad = rng.uniform(0.5, 1.5, 5)
        self._out3_lin = rng.uniform(-0.3, 0.3, 5)

    # -- coefficient fields ------------------------------------------------

    @staticmethod
    def _field(u: np.ndarray, weights: np.ndarray, phase: float) -> np.ndarray:
        # Smooth, bounded in [-1, 1], non-constant for generic weights.
        return np.cos(np.pi * _row_products(u, weights) + phase)

    def _level(self, u: np.ndarray) -> np.ndarray:
        return _LEVEL_BASE + _LEVEL_SPAN * self._field(u, self._w_level, self._p_level)

    def _rate(self, u: np.ndarray) -> np.ndarray:
        return _RATE_BASE + _RATE_SPAN * self._field(u, self._w_rate, self._p_rate)

    def _slope_dev(self, u: np.ndarray) -> np.ndarray:
        return _SLOPE_DEV_SPAN * self._field(u, self._w_dev, self._p_dev)

    def _depth(self, u: np.ndarray) -> np.ndarray:
        return self.dip_depth * (
            _DEPTH_FLOOR + _DEPTH_SPAN * self._field(u, self._w_depth, self._p_depth)
        )

    def _output3(self, u: np.ndarray) -> np.ndarray:
        quad = _row_products((u - self._out3_center) ** 2, self._out3_quad)
        lin = _row_products(u - 0.5, self._out3_lin)
        return 0.8 + quad + lin

    # -- public queries ----------------------------------------------------

    def dip_depth_at(self, settings) -> float | np.ndarray:
        """True dip depth (dB): a float for one combination of 5 settings, n for (n, 5)."""
        single = np.ndim(settings) == 1
        out = self._depth(_normalize_settings([settings] if single else settings))
        return float(out[0]) if single else out

    # -- simulation --------------------------------------------------------

    def _block_noise(self, settings, gen: np.random.Generator) -> np.ndarray:
        """The combination's 200 standard normals, drawn with `gen`.

        `gen` runs on a Philox bit generator (see _noise_generator()). Its
        state is reset to a fresh Philox keyed by the oracle seed and a
        hash of the settings, so the stream depends on nothing else.
        """
        packed = struct.pack("<5d", *(float(v) for v in settings))
        digest = hashlib.blake2b(packed, digest_size=8).digest()
        key = np.array(
            [self.seed % 2**64, int.from_bytes(digest, "little")], dtype=np.uint64
        )
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen.standard_normal(ROWS_PER_COMBINATION)

    def simulate_blocks(self, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise-free outputs of m combinations at once.

        Args:
            settings: shape (m, 5), one combination per row.

        Returns:
            (signal, snr, output3) arrays of shape (m, 200): row i holds
            combination i, and column input5 * 4 + category that sweep
            position. Each row equals simulate_block() of its combination
            on an oracle without noise, bit for bit.

        Raises:
            ConfigurationError: from _normalize_settings(), for settings not (m, 5).
        """
        u = _normalize_settings(settings)
        level = self._level(u)[:, None]
        rate = self._rate(u)[:, None]
        dev = self._slope_dev(u)[:, None]
        depth = self._depth(u)[:, None]
        out3 = self._output3(u)[:, None]

        log_sig = (level + _CAT_LEVEL) + rate * _CAT_RATE * INPUT5
        signal = 10.0**log_sig
        dip = depth * np.exp(-0.5 * ((log_sig - self._log_center) / self.dip_width) ** 2)
        snr = (IDEAL_SLOPE + dev) * log_sig - dip
        return signal, snr, np.repeat(out3, ROWS_PER_COMBINATION, axis=1)

    def simulate_block(self, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All 200 rows of one combination: input5-major, category-minor.

        The one-row simulate_blocks() call, plus the combination's SNR
        noise when noise_db > 0.

        Returns:
            (signal, snr, output3) arrays of length 200, where row
            input5 * 4 + category corresponds to that sweep position.
        """
        signal, snr, out3 = (a[0] for a in self.simulate_blocks([settings]))
        if self.noise_db > 0:
            snr = snr + self.noise_db * self._block_noise(settings, _noise_generator())
        return signal, snr, out3

    # -- persistence -------------------------------------------------------

    def to_config(self) -> dict:
        """Key-value form from which an identical oracle can be rebuilt: _CONFIG_KEYS."""
        return {key: getattr(self, key) for key in self._CONFIG_KEYS}

    @classmethod
    def from_config(cls, config: dict) -> "SensorOracle":
        """The oracle of a to_config() dict; a key not in _CONFIG_KEYS is an error."""
        unknown = set(config) - set(cls._CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown oracle config keys: {sorted(unknown)}")
        return cls(**config)


def generate_dataset(oracle: SensorOracle, spec: GridSpec) -> SampleTable:
    """Simulate every (combination, input5, category) row of the grid.

    Row order is combination-major (lexicographic), then input5, then
    category, so regeneration with the same oracle and spec is
    byte-identical. The rows are those of simulate_block(): noise-free
    curves from simulate_blocks(), a block of combinations at a time,
    plus each combination's own noise stream.
    """
    combos = spec.settings()
    values = np.empty((len(combos), ROWS_PER_COMBINATION, len(COLUMN_INDEX)))
    values[:, :, 0:4] = combos[:, None, 0:4]
    values[:, :, 4] = INPUT5
    values[:, :, 5] = combos[:, None, 4]
    values[:, :, 6] = CATEGORY
    noise = _noise_generator()
    for start in range(0, len(combos), _GENERATE_COMBINATIONS):
        block = combos[start : start + _GENERATE_COMBINATIONS]
        signal, snr, out3 = oracle.simulate_blocks(block)
        if oracle.noise_db > 0:
            for row, settings in zip(snr, block):
                row += oracle.noise_db * oracle._block_noise(settings, noise)
        rows = values[start : start + len(block)]
        rows[:, :, 7] = signal
        rows[:, :, 8] = snr
        rows[:, :, 9] = out3
    return SampleTable(values.reshape(-1, len(COLUMN_INDEX)))


def _noise_generator() -> np.random.Generator:
    """A Philox generator for SensorOracle._block_noise(), which sets its key.

    Seeded, so that making it draws no OS entropy.
    """
    return np.random.Generator(np.random.Philox(0))


def _row_products(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows @ weights, one row at a time.

    A one-row product is BLAS's dot, an (m, 5) @ (5,) product its
    matrix-vector kernel, which sums in another order: the last bits of
    every coefficient field would then depend on how many combinations
    were simulated together.
    """
    return np.array([row @ weights for row in rows], dtype=np.float64)
