import contextlib
import dataclasses
import itertools
import json
import math
import random
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import sensopt.sweep
from conftest import brute_force_select, spearman
from sensopt.cli import main
from sensopt.curves import CriteriaValues, criteria, criteria_block
from sensopt.data import NormalizationSpec
from sensopt.network import (
    Model,
    NetworkConfig,
    NetworkParameters,
    init_parameters,
    predict,
    save_model,
)
from sensopt.oracle import (
    CATEGORY_COUNT,
    INPUT5_COUNT,
    SETTING_RANGES,
    TABLE1,
    GridSpec,
)
from sensopt.errors import ConfigurationError, DomainError, RangeError, SelectionError, ShapeError
from sensopt.sweep import (
    CHUNK_COMBINATIONS,
    SELECTION_SUBSETS,
    AxisSpec,
    SelectionResult,
    SweepResult,
    axis_grid,
    default_sweep_spec,
    dense_ranks,
    predict_curves,
    rank_candidates,
    run_sweep,
    select,
    select_row,
    subset_label,
    write_report_csv,
)


def test_axis_spec_counts_and_values():
    axis = AxisSpec(minimum=418.0, maximum=510.0, step=23.0)
    assert axis.count == 5
    assert np.allclose(axis.values(), [418.0, 441.0, 464.0, 487.0, 510.0])

    # 0.1 steps accumulate float noise; the count must still be 11.
    dec = AxisSpec(minimum=0.0, maximum=1.0, step=0.1)
    assert dec.count == 11
    assert dec.values()[-1] <= 1.0

    # (0.3 / 0.1) computes as 2.9999...; epsilon admits the last point,
    # and the clamp keeps it at the maximum.
    tick = AxisSpec(minimum=0.0, maximum=0.3, step=0.1)
    assert tick.count == 4
    assert tick.values()[-1] == 0.3

    short = AxisSpec(minimum=418.0, maximum=510.0, step=40.0)
    assert short.count == 3
    assert np.allclose(short.values(), [418.0, 458.0, 498.0])

    degenerate = AxisSpec(minimum=500.0, maximum=500.0, step=1.0)
    assert degenerate.count == 1
    assert degenerate.values().tolist() == [500.0]

    with pytest.raises(ConfigurationError):
        AxisSpec(minimum=0.0, maximum=1.0, step=0.0)
    with pytest.raises(ConfigurationError):
        AxisSpec(minimum=1.0, maximum=0.0, step=0.5)


def _axes(counts):
    return tuple(
        AxisSpec(minimum=lo, maximum=hi, step=(hi - lo) / (c - 1) if c > 1 else (hi - lo + 1))
        for (lo, hi), c in zip(SETTING_RANGES, counts)
    )


def _spec(counts) -> GridSpec:
    return axis_grid(_axes(counts))


def test_axis_grid_validation():
    spec = _spec((2, 2, 2, 2, 2))
    assert spec.combination_count == 32

    # 12 values per axis: 248,832 combinations, 49,766,400 rows.
    with pytest.raises(ConfigurationError, match="budget"):
        _spec((12, 12, 12, 12, 12))
    # An axis over the budget on its own is rejected before it is built.
    with pytest.raises(ConfigurationError, match="budget"):
        AxisSpec(minimum=418.0, maximum=510.0, step=1e-300)

    bad = list(_axes((2, 2, 2, 2, 2)))
    bad[0] = AxisSpec(minimum=400.0, maximum=510.0, step=110.0)
    with pytest.raises(ConfigurationError, match="input1"):
        axis_grid(bad)

    with pytest.raises(ConfigurationError):
        axis_grid(_axes((2, 2, 2, 2, 2))[:4])


def test_default_sweep_spec():
    spec = default_sweep_spec()
    assert spec.combination_count == 59_049
    for vals, (lo, hi) in zip(spec.values(), SETTING_RANGES):
        assert len(vals) == 9
        assert vals[0] == lo
        assert vals[-1] == pytest.approx(hi)
    assert default_sweep_spec(points_per_axis=2).combination_count == 32
    with pytest.raises(ConfigurationError):
        default_sweep_spec(points_per_axis=1)
    with pytest.raises(ConfigurationError):
        default_sweep_spec(points_per_axis=25)  # blows the row budget


def _grid(spec: GridSpec) -> list[tuple[float, ...]]:
    """Every combination of `spec` as a tuple, in GridSpec.settings() order."""
    return [tuple(row) for row in spec.settings().tolist()]


def test_grid_settings_are_lexicographic():
    axes = _axes((2, 3, 2, 2, 2))
    spec = axis_grid(axes)
    settings = spec.settings()
    assert settings.shape == (48, 5) and settings.dtype == np.float64
    combos = _grid(spec)
    assert combos == list(itertools.product(*(axis.values().tolist() for axis in axes)))
    assert combos == sorted(combos)
    assert combos[0] == (418.0, 112.0, 400.0, 2850.0, 3200.0)
    assert combos[-1] == (510.0, 144.0, 500.0, 3650.0, 4000.0)


def test_endpoint_grid_matches_enumerated_corners():
    # A two-point axis sweep must visit exactly the recorded corner grid.
    spec = _spec((2, 2, 2, 2, 2))
    corners = GridSpec(
        input1=(418.0, 510.0),
        input2=(112.0, 144.0),
        input3=(400.0, 500.0),
        input4=(2850.0, 3650.0),
        input6=(3200.0, 4000.0),
    )
    assert spec == corners
    assert _grid(spec) == _grid(corners)


def test_predict_curves_shapes_and_chunking(small_model, monkeypatch):
    combos = [
        (418.0, 112.0, 400.0, 2850.0, 3200.0),
        (464.0, 128.0, 450.0, 3250.0, 3600.0),
        (510.0, 144.0, 500.0, 3650.0, 4000.0),
    ]
    curves = list(predict_curves(small_model, combos))
    assert [c.settings for c in curves] == combos
    for curve in curves:
        assert curve.signal.shape == (200,)
        assert np.all(np.diff(curve.signal) >= 0)

    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 2)
    rechunked = list(predict_curves(small_model, combos))
    for a, b in zip(curves, rechunked):
        assert np.allclose(a.snr, b.snr, rtol=1e-12)

    with pytest.raises(RangeError, match="input1"):
        list(predict_curves(small_model, [(600.0, 112.0, 400.0, 2850.0, 3200.0)]))


def test_predict_curves_single_combination_and_determinism(small_model):
    combo = (441.0, 120.0, 425.0, 3050.0, 3400.0)
    only = list(predict_curves(small_model, [combo]))
    assert len(only) == 1
    assert only[0].signal.shape == (200,)

    again = list(predict_curves(small_model, [combo]))
    assert np.array_equal(only[0].signal, again[0].signal)
    assert np.array_equal(only[0].snr, again[0].snr)
    assert np.array_equal(only[0].output3, again[0].output3)


def test_converged_curves_track_true_dip_depth(converged_setup):
    # Criterion 1 scores from predicted curves over the whole recorded
    # grid must rank combinations essentially as the true dip depth does.
    grid = TABLE1.settings()
    c1 = [
        criteria(curve).c1
        for curve in predict_curves(converged_setup.model, grid)
    ]
    true_depth = converged_setup.oracle.dip_depth_at(grid)
    assert spearman(c1, true_depth) > 0.9


def _cv(c1, c2, c3, c4):
    return CriteriaValues(c1=c1, c2=c2, c3=c3, c4=c4)


def test_rank_candidates_dense_ranks_and_ties():
    scored = [
        ((3.0,), _cv(0.3, 1.0, 0.1, 2.0)),
        ((1.0,), _cv(0.1, 1.0, 0.3, 1.0)),
        ((2.0,), _cv(0.1, float("nan"), 0.2, 3.0)),
    ]
    ranked = rank_candidates(scored)
    assert [c.settings for c in ranked] == [(1.0,), (2.0,), (3.0,)]
    by_settings = {c.settings: c for c in ranked}
    assert by_settings[(1.0,)].ranks == (0, 0, 2, 0)
    assert by_settings[(2.0,)].ranks == (0, None, 1, 2)
    assert by_settings[(3.0,)].ranks == (1, 0, 0, 1)


def test_rank_candidates_input_order_invariance():
    rng = random.Random(4)
    scored = [
        ((float(i), float(i % 3)), _cv(rng.random(), rng.random(), rng.random(), rng.random()))
        for i in range(25)
    ]
    shuffled = scored[:]
    rng.shuffle(shuffled)
    assert rank_candidates(scored) == rank_candidates(shuffled)


def test_rank_candidates_validation():
    with pytest.raises(ConfigurationError):
        rank_candidates([])


def test_select_intersection_and_tie_breaks():
    # A and B each top one criterion; K must grow to 2 and the tie on
    # rank sum falls to the lexicographically smaller settings.
    scored = [
        ((2.0,), _cv(0.0, 1.0, 0.0, 0.0)),
        ((1.0,), _cv(1.0, 0.0, 0.0, 0.0)),
    ]
    ranked = rank_candidates(scored)
    result = select(ranked, (1, 2))
    assert result.k == 2
    assert result.settings == (1.0,)

    # Single criterion: plain argmin, K = 1.
    single = select(ranked, (1,))
    assert single.k == 1
    assert single.settings == (2.0,)
    assert single.subset == (1,)

    for subset in ((5,), ()):
        with pytest.raises(ConfigurationError):
            select(ranked, subset)


def test_select_skips_unscorable_candidates():
    scored = [
        ((1.0,), _cv(0.0, float("nan"), 0.0, 0.0)),
        ((2.0,), _cv(1.0, 0.5, 1.0, 1.0)),
    ]
    result = select(rank_candidates(scored), (1, 2))
    assert result.settings == (2.0,)

    nan_only = [((1.0,), _cv(0.0, float("nan"), 0.0, 0.0))]
    with pytest.raises(SelectionError):
        select(rank_candidates(nan_only), (2,))
    # The same pool is fine on criteria that are scorable.
    assert select(rank_candidates(nan_only), (1, 3)).settings == (1.0,)


def test_select_matches_brute_force_reference():
    rng = random.Random(99)
    for trial in range(300):
        n = rng.randint(1, 50)
        scored = []
        for i in range(n):
            c2 = float("nan") if rng.random() < 0.1 else round(rng.random(), 2)
            values = (
                round(rng.random(), 2),
                c2,
                round(rng.random(), 2),
                round(rng.random(), 2),
            )
            scored.append(((float(i % 7), float(i)), values))
        subset = tuple(sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 4))))
        reference = brute_force_select(scored, subset)
        ranked = rank_candidates(
            [(s, _cv(*c)) for s, c in scored]
        )
        if reference is None:
            with pytest.raises(SelectionError):
                select(ranked, subset)
            continue
        result = select(ranked, subset)
        assert result.settings == reference[0], f"trial {trial}"
        assert result.k == reference[1], f"trial {trial}"


def test_subset_label():
    assert subset_label((1, 2, 3, 4)) == "c1c2c3c4"
    assert subset_label((3, 1)) == "c1c3"


def test_run_sweep_and_report(small_model, tmp_path):
    spec = _spec((3, 2, 2, 2, 2))
    result = run_sweep(small_model, spec)
    assert len(result.candidates) == 48
    assert set(result.selections) == {(1, 2, 3, 4), (1, 2, 3)}
    for sel in result.selections.values():
        assert sel.settings in [c.settings for c in result.candidates]
        assert sel.k >= 1

    summary = result.summary()
    assert summary["candidate_count"] == 48
    assert set(summary["selections"]) == {"c1c2c3c4", "c1c2c3"}
    entry = summary["selections"]["c1c2c3c4"]
    assert set(entry["settings"]) == {"input1", "input2", "input3", "input4", "input6"}
    assert entry["criteria_subset"] == [1, 2, 3, 4]

    path = tmp_path / "report.csv"
    write_report_csv(result, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 49
    header = lines[0].split(",")
    assert header[:5] == ["input1", "input2", "input3", "input4", "input6"]
    assert header[5:9] == ["c1", "c2", "c3", "c4"]
    assert "selected_c1c2c3" in header and "selected_c1c2c3c4" in header
    for label in ("selected_c1c2c3", "selected_c1c2c3c4"):
        column = header.index(label)
        flags = [line.split(",")[column] for line in lines[1:]]
        assert flags.count("1") == 1


def _one_unfittable_corner_model() -> Model:
    """Hand-set net whose log10(signal) is 2 + 2 * input5 / 49 plus a shift
    that is +2 only when all five settings sit at their maxima.

    Every other corner of the 2-per-axis grid gets a shift in [-0.19, 0),
    so its curve has many points below the 2e3 AU fit bound and some in
    the dip window; the all-maxima curve starts at 1e4 AU, so no line can
    be fitted to it.
    """
    settings_sum = np.array([[1, 1, 1, 1, 0, 1, 0, 0, 0, 0]], dtype=np.float64)
    input5 = np.eye(10)[[4]]
    params = NetworkParameters(
        weights=[
            np.vstack([20.0 * settings_sum, input5]),
            np.array([[1.0, 2.0], [0.0, 10.0], [0.05, 0.0]]),
        ],
        biases=[np.array([-98.0, 0.0]), np.array([2.0, 10.0, 0.5])],
    )
    return Model(
        config=NetworkConfig(n_inputs=10, hidden=(2,), n_outputs=3, alpha=0.01),
        params=params,
        normalization=NormalizationSpec(
            input_max=(510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0), output_max=(1.0, 1.0, 1.0)
        ),
    )


def test_unfittable_curve_is_unranked_not_fatal(tmp_path):
    spec = _spec((2, 2, 2, 2, 2))
    result = run_sweep(_one_unfittable_corner_model(), spec)
    corner = (510.0, 144.0, 500.0, 3650.0, 4000.0)
    by_settings = {c.settings: c for c in result.candidates}
    assert len(by_settings) == 32
    bad = by_settings.pop(corner)
    assert math.isnan(bad.criteria.c2) and math.isnan(bad.criteria.c3)
    assert bad.ranks[1] is None and bad.ranks[2] is None
    assert bad.ranks[0] is not None and bad.ranks[3] is not None
    assert all(None not in c.ranks for c in by_settings.values())
    for sel in result.selections.values():
        assert sel.settings in by_settings

    path = tmp_path / "report.csv"
    write_report_csv(result, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header, body = rows[0], rows[1:]
    bad_row = next(r for r in body if tuple(float(v) for v in r[:5]) == corner)
    assert bad_row[header.index("rank_c2")] == "" and bad_row[header.index("rank_c3")] == ""


def test_dense_ranks_and_select_row_match_the_record_wrappers():
    rng = random.Random(77)
    for trial in range(200):
        n = rng.randint(1, 40)
        values = np.array(
            [
                [float("nan") if rng.random() < 0.15 else round(rng.random(), 1) for _ in range(4)]
                for _ in range(n)
            ]
        )
        # Few distinct settings per column, so rank-sum ties fall to them.
        settings = np.array(
            [[float(rng.randint(0, 3)), float(rng.randint(0, 3)), float(i)] for i in range(n)]
        )
        order = np.lexsort(settings.T[::-1])
        settings, values = settings[order], values[order]
        scored = [(tuple(s), tuple(c)) for s, c in zip(settings.tolist(), values.tolist())]
        ranked = rank_candidates([(s, _cv(*c)) for s, c in scored])
        ranks = dense_ranks(values)
        assert [c.ranks for c in ranked] == [
            tuple(None if r < 0 else r for r in row) for row in ranks.tolist()
        ], f"trial {trial}"
        subset = tuple(sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 4))))
        reference = brute_force_select(scored, subset)
        if reference is None:
            with pytest.raises(SelectionError):
                select_row(settings, ranks, subset)
            continue
        row, k = select_row(settings, ranks, subset)
        assert (tuple(settings[row].tolist()), k) == reference, f"trial {trial}"
        assert (select(ranked, subset).settings, select(ranked, subset).k) == reference


def test_dense_ranks_share_ties_and_skip_nan():
    values = np.array([[0.5, np.nan], [0.1, 2.0], [0.5, 2.0], [0.3, np.nan]])
    assert dense_ranks(values).tolist() == [[2, -1], [0, 0], [2, 0], [1, -1]]
    assert dense_ranks(np.full((3, 1), np.nan)).tolist() == [[-1], [-1], [-1]]


def _chunk_curves(model: Model, settings: np.ndarray) -> list[np.ndarray]:
    """The (3, m, 200) curves of each chunk of `settings`, as run_sweep() predicts them."""
    predictor = sensopt.sweep._ChunkPredictor(model, len(settings))
    return [
        predictor.predict(settings[start : start + sensopt.sweep.CHUNK_COMBINATIONS]).copy()
        for start in range(0, len(settings), sensopt.sweep.CHUNK_COMBINATIONS)
    ]


def test_predict_curves_are_the_chunk_predictors_curves(small_model, monkeypatch):
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 5)
    settings = _spec((3, 2, 2, 1, 1)).settings()
    blocks = _chunk_curves(small_model, settings)
    assert [block.shape for block in blocks] == [(3, 5, 200), (3, 5, 200), (3, 2, 200)]
    curves = list(predict_curves(small_model, settings))
    assert [c.settings for c in curves] == [tuple(row) for row in settings.tolist()]
    for j, curve in enumerate(curves):
        block = blocks[j // 5]
        for got, want in zip((curve.signal, curve.snr, curve.output3), block[:, j % 5]):
            assert got.tobytes() == want.tobytes()
        assert np.all(np.diff(block[0], axis=1) >= 0)
    assert list(predict_curves(small_model, np.empty((0, 5)))) == []


def test_a_chunk_predictor_sizes_its_tiles_once_for_the_grid(small_model, monkeypatch):
    # 243 combinations: the short last chunk of 51 is cut into tiles of
    # 1,134 rows, a full chunk of 64 into tiles of 1,067.
    settings = _spec((3, 3, 3, 3, 3)).settings()
    predictor = sensopt.sweep._ChunkPredictor(small_model, len(settings))
    calls = []
    monkeypatch.setattr(sensopt.sweep, "empty_tile_buffers", lambda *args: calls.append(args))
    for start in range(0, len(settings), CHUNK_COMBINATIONS):
        predictor.predict(settings[start : start + CHUNK_COMBINATIONS])
    assert calls == []
    assert predictor.tiles.biases[0].shape[0] == 1134


def test_exported_curves_are_the_scored_curves_bit_for_bit(small_model):
    # 243 combinations: three chunks of 64 and a short one of 51, each
    # forward cut into tiles of ~1,066 rows, so the combinations cover
    # every offset in a chunk and straddle every tile boundary. Each is
    # predicted beside another, as optimize exports its two selections,
    # and on its own.
    settings = _spec((3, 3, 3, 3, 3)).settings()
    grid = [tuple(row) for row in settings.tolist()]
    blocks = _chunk_curves(small_model, settings)
    assert [block.shape[1] for block in blocks] == [64, 64, 64, 51]

    def scored(index):
        chunk, offset = divmod(index, CHUNK_COMBINATIONS)
        return blocks[chunk][:, offset]

    for index, combination in enumerate(grid):
        partner = len(grid) - 1 - index
        exports = [(index, curve) for curve in predict_curves(small_model, [combination])]
        exports += zip((index, partner), predict_curves(small_model, [combination, grid[partner]]))
        for row, curve in exports:
            assert curve.settings == grid[row]
            for got, want in zip((curve.signal, curve.snr, curve.output3), scored(row)):
                assert got.tobytes() == want.tobytes(), (index, row)


@pytest.mark.parametrize("counts", [(5, 13, 1, 1, 1), (6, 11, 1, 1, 1)], ids=["65", "66"])
def test_a_short_last_chunk_is_scored_on_its_exported_curves(counts, small_model):
    # 65 and 66 combinations: the last chunk holds 1 or 2 of them, fewer
    # than a bit-stable block. Every row's criteria are those of its curve
    # predicted on its own, as optimize exports a selection.
    spec = _spec(counts)
    result = run_sweep(small_model, spec)
    for row, combination in enumerate(spec.settings()):
        (curve,) = predict_curves(small_model, [combination])
        with np.errstate(divide="ignore", invalid="ignore"):
            (exported,) = criteria_block(curve.signal[None], curve.snr[None], curve.output3[None])
        assert result.criteria[row].tobytes() == exported.tobytes(), row


def _report_result(n: int, seed: int) -> SweepResult:
    """n candidates on a 9-per-axis grid's values, ~10 % of criteria NaN."""
    rng = np.random.default_rng(seed)
    columns = [rng.choice(axis.values(), n) for axis in _axes((9, 9, 9, 9, 9))]
    settings = np.column_stack(columns)
    criteria = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-5, 6, size=(n, 4))
    criteria[rng.random((n, 4)) < 0.1] = np.nan
    criteria[rng.random(n) < 0.2, 0] = 0.5
    criteria[-1, 1] = np.nan
    ranks = dense_ranks(criteria)
    selections = {
        subset: SelectionResult(
            settings=tuple(settings[row].tolist()),
            criteria=CriteriaValues(*criteria[row].tolist()),
            k=1,
            subset=subset,
        )
        for subset, row in (((1, 2, 3, 4), 0), ((1, 2, 3), n // 2))
    }
    return SweepResult(settings=settings, criteria=criteria, ranks=ranks, selections=selections)


def _whole_table_report(result: SweepResult) -> bytes:
    """The report's bytes from one object table of every candidate, one % per 4,096 rows."""
    subsets = sorted(result.selections)
    header = ",".join(
        [
            "input1", "input2", "input3", "input4", "input6", "c1", "c2", "c3", "c4",
            "rank_c1", "rank_c2", "rank_c3", "rank_c4",
            *(f"selected_{subset_label(s)}" for s in subsets),
        ]
    )
    ranks = np.where(result.ranks < 0, "", result.ranks.astype(str))
    flags = [
        np.where(np.all(result.settings == result.selections[s].settings, axis=1), "1", "0")
        for s in subsets
    ]
    fields = np.column_stack([result.settings.astype(object), result.criteria, ranks, *flags])
    line = ",".join(["%.17g"] * 9 + ["%s"] * (fields.shape[1] - 9)) + "\n"
    text = [header + "\n"]
    for start in range(0, len(fields), 4096):
        block = fields[start : start + 4096]
        text.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(text).encode()


@pytest.mark.parametrize("n", [1, 4096, 4097, 10_000])
def test_report_bytes_equal_the_whole_table_reference(n, tmp_path):
    result = _report_result(n, seed=n)
    path = tmp_path / "report.csv"
    write_report_csv(result, path)
    assert path.read_bytes() == _whole_table_report(result)


def test_report_write_holds_one_block_of_fields_in_memory(tmp_path):
    # A table of every candidate's fields takes ~46 MB here.
    result = _report_result(50_000, seed=1)
    tracemalloc.start()
    try:
        write_report_csv(result, tmp_path / "report.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_a_helper_thread_allocates_only_argsorts_order_array_per_chunk(small_model):
    # 20 chunks predicted on one worker's buffers, made by this thread,
    # and scored as run_sweep() scores them. After the first chunk,
    # predicting a chunk may raise the traced peak by argsort's (64, 200)
    # order array (102,400 bytes) and a few small arrays: no per-chunk
    # (64, 200) temporaries.
    settings = default_sweep_spec(5).settings()[: 20 * CHUNK_COMBINATIONS]
    values = np.empty((len(settings), 4))
    predictor = sensopt.sweep._ChunkPredictor(small_model, len(settings))
    growth = []

    def score_chunks():
        for start in range(0, len(settings), CHUNK_COMBINATIONS):
            stop = start + CHUNK_COMBINATIONS
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block = predictor.predict(settings[start:stop])
            growth.append(tracemalloc.get_traced_memory()[1] - baseline)
            values[start:stop] = criteria_block(*block)

    tracemalloc.start()
    try:
        helper = threading.Thread(target=score_chunks)
        helper.start()
        helper.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert not helper.is_alive() and len(growth) == 20
    assert max(growth[1:]) < 120_000
    curves = list(predict_curves(small_model, settings))
    expected = criteria_block(
        *([getattr(curve, name) for curve in curves] for name in ("signal", "snr", "output3"))
    )
    assert np.array_equal(values, expected, equal_nan=True)


def test_failed_report_write_leaves_the_old_report_untouched(small_model, tmp_path, monkeypatch):
    spec = _spec((3, 2, 2, 2, 2))
    result = run_sweep(small_model, spec)
    path = tmp_path / "sweep_report.csv"
    write_report_csv(result, path)
    before = path.read_bytes()
    real_replacing = sensopt.sweep.replacing

    @contextlib.contextmanager
    def failing_replacing(target):
        with real_replacing(target) as fh:
            class HalfWriter:
                def write(self, text):
                    fh.write(text[: len(text) // 2])
                    if len(text) > 1000:
                        raise OSError("disk full")
            yield HalfWriter()

    monkeypatch.setattr(sensopt.sweep, "replacing", failing_replacing)
    with pytest.raises(OSError, match="disk full"):
        write_report_csv(result, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep_report.csv"]


@pytest.mark.parametrize(
    "field, value",
    [("minimum", math.nan), ("maximum", math.nan), ("step", math.nan), ("step", math.inf)],
)
def test_axis_spec_rejects_non_finite_values(field, value):
    bounds = {"minimum": 418.0, "maximum": 510.0, "step": 23.0, field: value}
    with pytest.raises(ConfigurationError, match="finite"):
        AxisSpec(**bounds)


def _predicted_criteria(model: Model, spec: GridSpec) -> np.ndarray:
    """The criteria of `spec`'s grid from network.predict(), chunk by chunk.

    Each chunk is expanded into its raw (m * 200, 6) input rows and
    predicted whole, then sorted by signal: the sweep's result, computed
    through the public prediction path. A chunk of fewer than 3
    combinations is predicted with repeats of its rows, 3 combinations
    in all (np.resize), and only its own criteria are kept.
    """
    grid = spec.settings()
    input5 = np.repeat(np.arange(INPUT5_COUNT, dtype=np.float64), CATEGORY_COUNT)
    category = np.tile(np.arange(CATEGORY_COUNT, dtype=np.float64), INPUT5_COUNT)
    values = []
    for start in range(0, len(grid), sensopt.sweep.CHUNK_COMBINATIONS):
        chunk = grid[start : start + sensopt.sweep.CHUNK_COMBINATIONS]
        settings = np.resize(chunk, (max(len(chunk), 3), 5))
        m = len(settings)
        numeric = np.empty((m, len(input5), 6))
        numeric[:, :, 0:4] = settings[:, None, 0:4]
        numeric[:, :, 4] = input5
        numeric[:, :, 5] = settings[:, 4, None]
        outputs = predict(model, numeric.reshape(-1, 6), np.tile(category, m)).reshape(m, -1, 3)
        order = np.argsort(outputs[:, :, 0], axis=1, kind="stable")
        curves = (np.take_along_axis(outputs[:, :, j], order, axis=1) for j in range(3))
        values.append(criteria_block(*curves)[: len(chunk)])
    return np.concatenate(values)


@pytest.mark.parametrize("chunk", [64, 5])
def test_run_sweep_does_not_depend_on_the_worker_count(chunk, small_model, tmp_path, monkeypatch):
    # 72 combinations: neither 64 nor 5 divides them, so the last chunk is short.
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", chunk)
    spec = _spec((3, 3, 2, 2, 2))
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(sensopt.sweep, "_cpu_count", lambda: workers)
        result = run_sweep(small_model, spec)
        assert np.array_equal(result.settings, spec.settings())
        assert np.array_equal(
            result.criteria, _predicted_criteria(small_model, spec), equal_nan=True
        )
        path = tmp_path / f"report_{workers}.csv"
        write_report_csv(result, path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_run_sweep_with_more_workers_than_cpus_under_switch_stress(small_model, monkeypatch):
    # A chunk per combination, eight workers and a thread switch every
    # microsecond: a buffer set two chunks shared, or a lost write,
    # would change the criteria.
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 1)
    monkeypatch.setattr(sensopt.sweep, "_cpu_count", lambda: 8)
    spec = _spec((3, 2, 2, 2, 2))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = threading.Thread(target=lambda: results.append(run_sweep(small_model, spec)))
        sweep.start()
        sweep.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not sweep.is_alive() and len(results) == 1
    expected = _predicted_criteria(small_model, spec)
    assert np.array_equal(results[0].criteria, expected, equal_nan=True)


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_failing_chunk_raises_its_own_error(workers, small_model, monkeypatch):
    # One combination per chunk; chunks 1 and 2 fail, each with an error
    # of its own. With more than one worker, chunk 1 is held until chunk
    # 2 has failed: the error raised must still be chunk 1's.
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 1)
    monkeypatch.setattr(sensopt.sweep, "_cpu_count", lambda: workers)
    spec = _spec((3, 2, 2, 2, 2))
    grid = _grid(spec)
    real_predict = sensopt.sweep._ChunkPredictor.predict
    chunk_2_failed = threading.Event()

    def predict(self, settings):
        combination = tuple(settings[0].tolist())
        if combination == grid[1]:
            if workers > 1:
                assert chunk_2_failed.wait(timeout=60)
            raise RuntimeError("chunk 1 failed")
        if combination == grid[2]:
            chunk_2_failed.set()
            raise RuntimeError("chunk 2 failed")
        return real_predict(self, settings)

    monkeypatch.setattr(sensopt.sweep._ChunkPredictor, "predict", predict)
    with pytest.raises(RuntimeError, match="^chunk 1 failed$"):
        run_sweep(small_model, spec)
    assert chunk_2_failed.is_set() == (workers > 1)


@pytest.fixture
def predicted_chunks(monkeypatch) -> list:
    """The chunks _ChunkPredictor.predict() is called on; patched, it predicts none of them."""
    predicted = []
    monkeypatch.setattr(
        sensopt.sweep._ChunkPredictor, "predict", lambda self, settings: predicted.append(settings)
    )
    return predicted


def test_an_out_of_range_grid_raises_before_any_chunk_is_predicted(small_model, predicted_chunks):
    # Combination 1 exceeds only its input6 maximum, combination 2 its
    # input4 maximum: the error names the first value over its maximum
    # in grid order, as the first failing chunk's check named it.
    norm = small_model.normalization
    maxima = (*norm.input_max[:3], 3600.0, norm.input_max[4], 3900.0)
    narrow = dataclasses.replace(
        small_model, normalization=NormalizationSpec(maxima, norm.output_max)
    )
    spec = _spec((3, 2, 2, 2, 2))
    message = r"^input6 value 4000\.0 exceeds recorded maximum 3900\.0$"
    with pytest.raises(RangeError, match=message):
        run_sweep(narrow, spec)
    with pytest.raises(RangeError, match=message):
        list(predict_curves(narrow, spec.settings()))
    assert predicted_chunks == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_setting_raises_before_any_chunk_is_predicted(
    value, small_model, predicted_chunks
):
    settings = _spec((2, 2, 2, 2, 2)).settings()
    settings[5, 2] = value
    # GridSpec rejects a non-finite value, so run_sweep() gets one only
    # from a grid that is not a GridSpec.
    grid = types.SimpleNamespace(settings=lambda: settings)
    message = rf"^input3 value {value!r} is not finite$"
    with pytest.raises(DomainError, match=message):
        list(predict_curves(small_model, settings))
    with pytest.raises(DomainError, match=message):
        run_sweep(small_model, grid)
    assert predicted_chunks == []


@pytest.mark.parametrize(
    "settings",
    [
        (510.0, 144.0, 500.0, 3650.0, 4000.0),
        [(510.0, 144.0, 500.0, 3650.0)] * 2,
        np.full((2, 5, 1), 100.0),
    ],
    ids=["one-flat-row", "four-columns", "three-dimensional"],
)
def test_settings_that_are_not_n_by_5_raise_before_any_chunk_is_predicted(
    settings, small_model, predicted_chunks
):
    with pytest.raises(ShapeError, match=r"^settings must have shape \(n, 5\)"):
        list(predict_curves(small_model, settings))
    assert predicted_chunks == []


@pytest.mark.parametrize("n_inputs, n_outputs", [(11, 3), (7, 3), (10, 4)])
def test_a_model_of_other_widths_raises_before_any_chunk_is_predicted(
    n_inputs, n_outputs, predicted_chunks
):
    config = NetworkConfig(n_inputs=n_inputs, hidden=(4, 4), n_outputs=n_outputs)
    norm = NormalizationSpec((510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0), (6.0, 32.0, 5.0))
    model = Model(config, init_parameters(config, seed=0), norm)
    spec = _spec((2, 2, 2, 2, 2))
    message = rf"^model \(inputs, outputs\) \({n_inputs}, {n_outputs}\); a sweep needs \(10, 3\)$"
    with pytest.raises(ShapeError, match=message):
        list(predict_curves(model, spec.settings()))
    with pytest.raises(ShapeError, match=message):
        run_sweep(model, spec)
    assert predicted_chunks == []


def _dead_signal_model() -> Model:
    """The net of _one_unfittable_corner_model() with its signal zeroed near the corner.

    log10(signal) is 2 + 2 * input5 / 49 + 5000 * (a tiny leak) where the
    first hidden unit is negative, and below -900 where it is positive:
    at the two combinations whose settings are all at their maxima but
    input1, which is 464 or 510. There the signal underflows to 0.
    """
    model = _one_unfittable_corner_model()
    weights = [w.copy() for w in model.params.weights]
    weights[1][0] = (-5000.0, 2.0)
    return dataclasses.replace(
        model,
        config=dataclasses.replace(model.config, alpha=1e-6),
        params=NetworkParameters(weights=weights, biases=model.params.biases),
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_a_dead_signal_mid_grid_is_unranked_not_fatal(workers, tmp_path, monkeypatch):
    # 48 combinations in ten chunks of 5; combinations 31, in chunk 6,
    # and 47, in the short last chunk, predict a zero signal. The other
    # 46 rows of the report are those of a sweep of them alone.
    model = _dead_signal_model()
    settings = _spec((3, 2, 2, 2, 2)).settings()
    dead = [31, 47]
    healthy = np.delete(settings, dead, axis=0)
    curves = list(predict_curves(model, healthy))
    expected = criteria_block(
        *([getattr(curve, name) for curve in curves] for name in ("signal", "snr", "output3"))
    )
    ranks = dense_ranks(expected)
    selections = {}
    for subset in SELECTION_SUBSETS:
        row, k = select_row(healthy, ranks, subset)
        selections[subset] = SelectionResult(
            tuple(healthy[row].tolist()), CriteriaValues(*expected[row].tolist()), k, subset
        )
    alone = SweepResult(settings=healthy, criteria=expected, ranks=ranks, selections=selections)
    write_report_csv(alone, tmp_path / "alone.csv")
    alone_rows = (tmp_path / "alone.csv").read_text().splitlines()
    with pytest.raises(DomainError, match="signal values must be positive"):
        list(predict_curves(model, settings[30:35]))

    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 5)
    monkeypatch.setattr(sensopt.sweep, "_cpu_count", lambda: workers)
    model_path = tmp_path / "model.bin"
    save_model(model, model_path)
    axes = [dataclasses.asdict(axis) for axis in _axes((3, 2, 2, 2, 2))]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimize": {"axes": axes}}))
    out = tmp_path / "opt"
    argv = ["optimize", "--out", str(out), "--model", str(model_path), "--config", str(config_path)]
    assert main(argv) == 0
    header, *body = (out / "sweep_report.csv").read_text().splitlines()
    assert header == alone_rows[0]
    for row in dead:
        fields = body[row].split(",")
        assert fields[5:9] == ["nan"] * 4 and fields[9:13] == [""] * 4
    assert [line for i, line in enumerate(body) if i not in dead] == alone_rows[1:]
    assert json.loads((out / "selection_summary.json").read_text()) == {
        **alone.summary(), "candidate_count": 48
    }
