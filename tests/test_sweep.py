import contextlib
import math
import random

import numpy as np
import pytest

import sensopt.sweep
from conftest import brute_force_select, spearman
from sensopt.curves import CriteriaValues, criteria
from sensopt.data import NormalizationSpec
from sensopt.network import Model, NetworkConfig, NetworkParameters
from sensopt.oracle import SETTING_RANGES, TABLE1, GridSpec, enumerate_grid
from sensopt.errors import ConfigurationError, RangeError, SelectionError
from sensopt.sweep import (
    AxisSpec,
    InterpolationSpec,
    build_interpolated_grid,
    default_sweep_spec,
    dense_ranks,
    predict_blocks,
    predict_curves,
    rank_candidates,
    run_sweep,
    scoring_chunk,
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


def test_interpolation_spec_validation():
    spec = InterpolationSpec(axes=_axes((2, 2, 2, 2, 2)))
    assert spec.combination_count == 32

    with pytest.raises(ConfigurationError, match="budget"):
        InterpolationSpec(axes=_axes((2, 2, 2, 2, 2)), row_budget=6_000)

    bad = list(_axes((2, 2, 2, 2, 2)))
    bad[0] = AxisSpec(minimum=400.0, maximum=510.0, step=110.0)
    with pytest.raises(ConfigurationError, match="input1"):
        InterpolationSpec(axes=tuple(bad))

    with pytest.raises(ConfigurationError):
        InterpolationSpec(axes=_axes((2, 2, 2, 2, 2))[:4])


def test_default_sweep_spec():
    spec = default_sweep_spec()
    assert spec.combination_count == 59_049
    for axis, (lo, hi) in zip(spec.axes, SETTING_RANGES):
        vals = axis.values()
        assert axis.count == 9
        assert vals[0] == lo
        assert vals[-1] == pytest.approx(hi)
    assert default_sweep_spec(points_per_axis=2).combination_count == 32
    with pytest.raises(ConfigurationError):
        default_sweep_spec(points_per_axis=1)
    with pytest.raises(ConfigurationError):
        default_sweep_spec(points_per_axis=25)  # blows the row budget


def test_grid_streams_lexicographically():
    spec = InterpolationSpec(axes=_axes((2, 2, 2, 2, 2)))
    grid = build_interpolated_grid(spec)
    assert iter(grid) is grid  # a true iterator, not a materialized list
    combos = list(grid)
    assert len(combos) == 32
    assert combos == sorted(combos)
    assert combos[0] == (418.0, 112.0, 400.0, 2850.0, 3200.0)
    assert combos[-1] == (510.0, 144.0, 500.0, 3650.0, 4000.0)


def test_endpoint_grid_matches_enumerated_corners():
    # A two-point axis sweep must visit exactly the recorded corner grid.
    spec = InterpolationSpec(axes=_axes((2, 2, 2, 2, 2)))
    corners = GridSpec(
        input1=(418.0, 510.0),
        input2=(112.0, 144.0),
        input3=(400.0, 500.0),
        input4=(2850.0, 3650.0),
        input6=(3200.0, 4000.0),
    )
    assert list(build_interpolated_grid(spec)) == enumerate_grid(corners)


def test_predict_curves_shapes_and_chunking(small_model, monkeypatch):
    combos = [
        (418.0, 112.0, 400.0, 2850.0, 3200.0),
        (464.0, 128.0, 450.0, 3250.0, 3600.0),
        (510.0, 144.0, 500.0, 3650.0, 4000.0),
    ]
    curves = list(predict_curves(small_model, iter(combos)))
    assert [c.settings for c in curves] == combos
    for curve in curves:
        assert curve.signal.shape == (200,)
        assert np.all(np.diff(curve.signal) >= 0)

    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 2)
    rechunked = list(predict_curves(small_model, iter(combos)))
    for a, b in zip(curves, rechunked):
        assert np.allclose(a.snr, b.snr, rtol=1e-12)

    with pytest.raises(RangeError, match="input1"):
        list(predict_curves(small_model, iter([(600.0, 112.0, 400.0, 2850.0, 3200.0)])))


def test_predict_curves_single_combination_and_determinism(small_model):
    combo = (441.0, 120.0, 425.0, 3050.0, 3400.0)
    only = list(predict_curves(small_model, iter([combo])))
    assert len(only) == 1
    assert only[0].signal.shape == (200,)

    again = list(predict_curves(small_model, iter([combo])))
    assert np.array_equal(only[0].signal, again[0].signal)
    assert np.array_equal(only[0].snr, again[0].snr)
    assert np.array_equal(only[0].output3, again[0].output3)


def test_converged_curves_track_true_dip_depth(converged_setup):
    # Criterion 1 scores from predicted curves over the whole recorded
    # grid must rank combinations essentially as the true dip depth does.
    grid = enumerate_grid(TABLE1)
    c1 = [
        criteria(curve).c1
        for curve in predict_curves(converged_setup.model, iter(grid))
    ]
    true_depth = converged_setup.oracle.dip_depth_at(np.asarray(grid))
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
    with pytest.raises(ConfigurationError):
        rank_candidates([((1.0,), _cv(1, 1, 1, 1))], subset=(5,))
    with pytest.raises(ConfigurationError):
        rank_candidates([((1.0,), _cv(1, 1, 1, 1))], subset=())


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
    spec = InterpolationSpec(axes=_axes((3, 2, 2, 2, 2)))
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
    spec = InterpolationSpec(axes=_axes((2, 2, 2, 2, 2)))
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


def test_predict_blocks_are_the_curves_of_predict_curves(small_model, monkeypatch):
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 5)
    spec = InterpolationSpec(axes=_axes((3, 2, 2, 1, 1)))
    blocks = list(predict_blocks(small_model, build_interpolated_grid(spec)))
    assert [b.settings.shape for b in blocks] == [(5, 5), (5, 5), (2, 5)]
    curves = list(predict_curves(small_model, build_interpolated_grid(spec)))
    assert [c.settings for c in curves] == list(build_interpolated_grid(spec))
    for j, curve in enumerate(curves):
        block = blocks[j // 5]
        assert tuple(block.settings[j % 5].tolist()) == curve.settings
        for name in ("signal", "snr", "output3"):
            assert getattr(block, name).shape[1] == 200
            assert np.array_equal(getattr(block, name)[j % 5], getattr(curve, name))
        assert np.all(np.diff(block.signal, axis=1) >= 0)


def test_scoring_chunk_finds_the_chunk_run_sweep_scored(monkeypatch):
    spec = InterpolationSpec(axes=_axes((3, 2, 2, 2, 2)))
    grid = list(build_interpolated_grid(spec))
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 16)
    for index in (0, 13, 31, 47):
        chunk, offset = scoring_chunk(spec, grid[index])
        assert chunk == grid[index - index % 16 : index - index % 16 + 16]
        assert chunk[offset] == grid[index]
    monkeypatch.setattr(sensopt.sweep, "CHUNK_COMBINATIONS", 20)
    chunk, offset = scoring_chunk(spec, grid[47])
    assert chunk == grid[40:] and offset == 7


def test_failed_report_write_leaves_the_old_report_untouched(small_model, tmp_path, monkeypatch):
    spec = InterpolationSpec(axes=_axes((3, 2, 2, 2, 2)))
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
