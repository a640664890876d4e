import hashlib
import itertools
import re
import struct

import numpy as np
import pytest

from sensopt.errors import ConfigurationError
from sensopt.oracle import (
    ROWS_PER_COMBINATION,
    SETTING_RANGES,
    TABLE1,
    GridSpec,
    SensorOracle,
    _noise_generator,
    generate_dataset,
)


def _combos(spec: GridSpec) -> list[tuple[float, ...]]:
    """Every combination of `spec` as a tuple, in GridSpec.settings() order."""
    return [tuple(row) for row in spec.settings().tolist()]


def test_table1_grid_enumeration():
    settings = TABLE1.settings()
    assert settings.shape == (3125, 5) and settings.dtype == np.float64
    combos = _combos(TABLE1)
    assert combos == list(itertools.product(*TABLE1.values()))
    assert combos[0] == (418.0, 112.0, 400.0, 2850.0, 3200.0)
    assert combos[-1] == (510.0, 144.0, 500.0, 3650.0, 4000.0)
    assert combos == sorted(combos)


def test_repeated_grid_value_kept_verbatim():
    # input6 records 3600 twice, so those combinations appear twice.
    assert TABLE1.input6.count(3600.0) == 2
    combos = _combos(TABLE1)
    assert combos.count((418.0, 112.0, 400.0, 2850.0, 3600.0)) == 2


def test_degenerate_single_value_grid():
    spec = GridSpec(
        input1=(418.0,), input2=(112.0,), input3=(400.0,), input4=(2850.0,), input6=(3200.0,)
    )
    assert _combos(spec) == [(418.0, 112.0, 400.0, 2850.0, 3200.0)]
    table = generate_dataset(SensorOracle(seed=1), spec)
    assert len(table) == ROWS_PER_COMBINATION


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(input1=(), input2=(112.0,), input3=(400.0,), input4=(2850.0,), input6=(3200.0,))
    with pytest.raises(ConfigurationError):
        GridSpec(
            input1=(510.0, 418.0),
            input2=(112.0,),
            input3=(400.0,),
            input4=(2850.0,),
            input6=(3200.0,),
        )
    with pytest.raises(ConfigurationError, match="input4"):
        GridSpec(
            input1=(418.0,),
            input2=(112.0,),
            input3=(400.0,),
            input4=(2850.0, 3700.0),
            input6=(3200.0,),
        )
    with pytest.raises(ConfigurationError, match="input1"):
        GridSpec(
            input1=(float("nan"),),
            input2=(112.0,),
            input3=(400.0,),
            input4=(2850.0,),
            input6=(3200.0,),
        )
    # 120,000 combinations are 24,000,000 rows, the budget; one more is over it.
    values = [
        tuple(np.linspace(lo, hi, count).tolist())
        for (lo, hi), count in zip(SETTING_RANGES, (120, 10, 10, 10, 1))
    ]
    assert GridSpec(*values).combination_count == 120_000
    values[4] = (3200.0, 3200.0)
    with pytest.raises(ConfigurationError, match="budget"):
        GridSpec(*values)


def test_subsample_keeps_endpoints():
    spec = TABLE1.subsample(2)
    for vals, full in zip(spec.values(), TABLE1.values()):
        assert vals == (full[0], full[-1])
    assert spec.combination_count == 32
    assert TABLE1.subsample(3).input1 == (418.0, 464.0, 510.0)
    assert TABLE1.subsample(5) == TABLE1


def test_simulate_is_deterministic():
    settings = (441.0, 120.0, 425.0, 3050.0, 3400.0)
    a = SensorOracle(seed=42).simulate_block(settings)
    b = SensorOracle(seed=42).simulate_block(settings)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    c = SensorOracle(seed=43).simulate_block(settings)
    assert not np.array_equal(a[1], c[1])


@pytest.mark.parametrize("seed", [0, 6, 11])
def test_simulate_blocks_rows_equal_simulate_block(seed):
    oracle = SensorOracle(seed=seed)
    settings = TABLE1.subsample(3).settings()
    blocks = oracle.simulate_blocks(settings)
    assert all(b.shape == (len(settings), ROWS_PER_COMBINATION) for b in blocks)
    for i, combo in enumerate(settings):
        for block, row in zip(blocks, oracle.simulate_block(combo)):
            assert block[i].tobytes() == row.tobytes()
    # The depths dip_depth_at reports are the ones the curves were made with.
    depths = oracle.dip_depth_at(settings)
    for i, combo in enumerate(settings):
        depth = oracle.dip_depth_at(combo)
        assert type(depth) is float and depth == depths[i]


def test_simulate_blocks_shapes():
    oracle = SensorOracle(seed=1)
    with pytest.raises(ConfigurationError):
        oracle.simulate_blocks(np.zeros((3, 4)))
    with pytest.raises(ConfigurationError):
        oracle.simulate_blocks((418.0, 112.0, 400.0, 2850.0, 3200.0))
    for block in oracle.simulate_blocks(np.empty((0, 5))):
        assert block.shape == (0, ROWS_PER_COMBINATION)


@pytest.mark.parametrize(
    "query, settings, shape",
    [
        ("simulate_blocks", [(418.0, 112.0, 400.0, 2850.0)], (1, 4)),
        ("simulate_blocks", np.zeros((2, 3, 5)), (2, 3, 5)),
        ("simulate_block", (418.0, 112.0, 400.0, 2850.0), (1, 4)),
        ("dip_depth_at", (418.0, 112.0, 400.0, 2850.0), (1, 4)),
        ("dip_depth_at", np.zeros((2, 3, 5)), (2, 3, 5)),
    ],
)
def test_every_settings_shape_fault_gets_one_message(query, settings, shape):
    message = f"settings must have shape (m, 5), got {shape}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        getattr(SensorOracle(seed=1), query)(settings)


def test_setting_ranges_are_the_recorded_grids_endpoints():
    assert SETTING_RANGES == (
        (418.0, 510.0), (112.0, 144.0), (400.0, 500.0), (2850.0, 3650.0), (3200.0, 4000.0)
    )
    assert SETTING_RANGES == tuple((values[0], values[-1]) for values in TABLE1.values())


def test_generate_dataset_matches_per_combination_reference():
    spec = TABLE1.subsample(3)
    oracle = SensorOracle(seed=4, noise_db=0.5)
    input5 = np.repeat(np.arange(50.0), 4)
    category = np.tile(np.arange(4.0), 50)
    reference = []
    for combo in _combos(spec):
        signal, snr, out3 = oracle.simulate_block(combo)
        settings = np.tile(combo, (ROWS_PER_COMBINATION, 1))
        reference.append(np.column_stack(
            [settings[:, :4], input5, settings[:, 4], category, signal, snr, out3]
        ))
    table = generate_dataset(oracle, spec)
    assert table.values.tobytes() == np.concatenate(reference).tobytes()


def test_signal_monotone_in_input5():
    oracle = SensorOracle(seed=9)
    for settings in _combos(TABLE1.subsample(2)):
        signal, _, _ = oracle.simulate_block(settings)
        per_category = signal.reshape(50, 4)
        assert np.all(np.diff(per_category, axis=0) > 0)


def test_low_signal_rows_follow_ideal_trend():
    table = generate_dataset(SensorOracle(seed=3), TABLE1.subsample(2))
    signal = table.column("signal")
    snr = table.column("snr")
    mask = signal < 2e3
    assert mask.sum() > 0
    deviation = np.abs(snr[mask] - 5.0 * np.log10(signal[mask]))
    assert deviation.max() < 0.5


def test_snr_drops_by_depth_at_dip_center():
    oracle = SensorOracle(seed=12, dip_center=6000.0)
    settings = (464.0, 128.0, 450.0, 3250.0, 3400.0)
    signal, snr, _ = oracle.simulate_block(settings)
    log_signal = np.log10(signal)
    # Recover the trend slope at the lowest signal, far from the dip, where
    # the gaussian term is numerically zero; then the drop below the trend
    # is the depth times that gaussian at every point.
    slope = snr[0] / log_signal[0]
    depth = oracle.dip_depth_at(settings)
    dip = depth * np.exp(-0.5 * ((log_signal - np.log10(6000.0)) / oracle.dip_width) ** 2)
    assert slope * log_signal - snr == pytest.approx(dip, abs=1e-9)
    # The curve passes close to the centre, where the drop is nearly the depth.
    assert dip.max() > 0.9 * depth


def test_dataset_layout_and_row_order():
    spec = TABLE1.subsample(2)
    table = generate_dataset(SensorOracle(seed=7), spec)
    assert len(table) == 32 * ROWS_PER_COMBINATION == 6400
    combos = _combos(spec)
    first = table.values[:ROWS_PER_COMBINATION]
    assert np.all(first[:, [0, 1, 2, 3, 5]] == np.asarray(combos[0]))
    assert np.array_equal(first[:, 4], np.repeat(np.arange(50.0), 4))
    assert np.array_equal(first[:, 6], np.tile(np.arange(4.0), 50))
    # combination-major ordering
    block_settings = table.values[::ROWS_PER_COMBINATION][:, [0, 1, 2, 3, 5]]
    assert np.array_equal(block_settings, np.asarray(combos))


def test_regeneration_is_identical():
    spec = TABLE1.subsample(2)
    a = generate_dataset(SensorOracle(seed=21), spec)
    b = generate_dataset(SensorOracle(seed=21), spec)
    assert np.array_equal(a.values, b.values)


def test_noise_is_deterministic_and_snr_only():
    settings = (441.0, 120.0, 425.0, 3050.0, 3400.0)
    noisy = SensorOracle(seed=4, noise_db=1.0)
    clean = SensorOracle(seed=4, noise_db=0.0)
    sig_n, snr_n, out3_n = noisy.simulate_block(settings)
    sig_n2, snr_n2, _ = noisy.simulate_block(settings)
    sig_c, snr_c, out3_c = clean.simulate_block(settings)
    assert np.array_equal(snr_n, snr_n2)
    assert np.array_equal(sig_n, sig_c)
    assert np.array_equal(out3_n, out3_c)
    assert not np.array_equal(snr_n, snr_c)


def test_block_noise_on_a_reused_generator_is_a_fresh_philox_stream():
    # The reference builds a new Philox per combination. The reused
    # generator is left mid-buffer, and with a spare 32-bit half, by draws
    # of other sizes in between.
    oracle = SensorOracle(seed=2**64 + 9, noise_db=0.5)
    rng = np.random.default_rng(0)
    gen = _noise_generator()
    for trial in range(200):
        settings = tuple(rng.uniform(0.0, 4000.0, 5).tolist())
        digest = hashlib.blake2b(struct.pack("<5d", *settings), digest_size=8).digest()
        key = np.array([oracle.seed % 2**64, int.from_bytes(digest, "little")], dtype=np.uint64)
        reference = np.random.Generator(np.random.Philox(key=key)).standard_normal(200)
        gen.integers(0, 2**32, size=trial % 7, dtype=np.uint32)
        assert np.array_equal(oracle._block_noise(settings, gen), reference), trial


def test_invalid_oracle_configs():
    with pytest.raises(ConfigurationError):
        SensorOracle(dip_center=2e3)  # outside the analysis window
    with pytest.raises(ConfigurationError):
        SensorOracle(dip_width=0.0)
    with pytest.raises(ConfigurationError):
        SensorOracle(dip_depth=-1.0)
    with pytest.raises(ConfigurationError):
        SensorOracle(noise_db=-0.1)
    # A dip this wide and deep would leak into the low-signal region.
    with pytest.raises(ConfigurationError):
        SensorOracle(dip_center=3e3, dip_depth=11.0, dip_width=0.2)


def test_config_round_trip():
    oracle = SensorOracle(seed=8, dip_center=7e3, dip_depth=4.0, dip_width=0.1, noise_db=0.5)
    clone = SensorOracle.from_config(oracle.to_config())
    settings = (478.0, 136.0, 475.0, 3450.0, 4000.0)
    for a, b in zip(clone.simulate_block(settings), oracle.simulate_block(settings)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ConfigurationError):
        SensorOracle.from_config({"seed": 1, "bogus": 2})
    assert list(oracle.to_config()) == ["seed", "dip_center", "dip_depth", "dip_width", "noise_db"]


def test_depth_field_is_smooth_and_nonconstant():
    oracle = SensorOracle(seed=0)
    depths = oracle.dip_depth_at(TABLE1.settings())
    assert depths.max() - depths.min() > 1.0
    assert depths.min() > 0


@pytest.mark.parametrize(
    "name, value",
    [("dip_center", np.nan), ("dip_depth", np.nan), ("dip_width", np.nan),
     ("noise_db", np.nan), ("noise_db", np.inf)],
)
def test_oracle_rejects_non_finite_parameters(name, value):
    with pytest.raises(ConfigurationError, match="finite"):
        SensorOracle(**{name: value})
