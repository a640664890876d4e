import numpy as np
import pytest

from conftest import scalar_criteria
from sensopt.curves import (
    DIP_WINDOW,
    FIT_SIGNAL_MAX,
    IDEAL_SLOPE,
    Curve,
    FittedLine,
    criteria,
    criteria_block,
    fit_line,
    ideal_snr,
    prominence,
    write_curve_csv,
)
from sensopt.errors import DomainError, FitError, ShapeError


def line_curve(slope=5.2, intercept=0.4, n=40, lo=10.0, hi=5e4) -> Curve:
    signal = np.geomspace(lo, hi, n)
    return Curve(
        settings=(418.0, 112.0, 400.0, 2850.0, 3200.0),
        signal=signal,
        snr=slope * np.log10(signal) + intercept,
        output3=np.full(n, 1.25),
    )


def test_curve_validation():
    with pytest.raises(ShapeError):
        Curve(settings=(), signal=np.ones((2, 2)), snr=np.ones(4), output3=np.ones(4))
    with pytest.raises(ShapeError):
        Curve(settings=(), signal=np.ones(3), snr=np.ones(2), output3=np.ones(3))
    with pytest.raises(ShapeError):
        Curve(settings=(), signal=np.array([]), snr=np.array([]), output3=np.array([]))
    with pytest.raises(DomainError):
        Curve(settings=(), signal=np.array([1.0, -2.0]), snr=np.zeros(2), output3=np.zeros(2))
    with pytest.raises(DomainError):
        Curve(settings=(), signal=np.array([2.0, 1.0]), snr=np.zeros(2), output3=np.zeros(2))


def test_from_samples_sorts_by_signal():
    curve = Curve.from_samples(
        settings=(1, 2, 3, 4, 5),
        signal=[100.0, 1.0, 10.0],
        snr=[3.0, 1.0, 2.0],
        output3=[0.3, 0.1, 0.2],
    )
    assert np.array_equal(curve.signal, [1.0, 10.0, 100.0])
    assert np.array_equal(curve.snr, [1.0, 2.0, 3.0])
    assert np.array_equal(curve.output3, [0.1, 0.2, 0.3])
    assert curve.settings == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_ideal_snr_reference_points():
    assert ideal_snr(1.0) == 0.0
    assert ideal_snr(10.0) == 5.0
    assert ideal_snr(100.0) == 10.0
    assert np.allclose(ideal_snr(np.array([1e3, 1e4])), [15.0, 20.0])
    with pytest.raises(DomainError):
        ideal_snr(0.0)


def test_fit_line_recovers_colinear_points():
    curve = line_curve(slope=4.8, intercept=0.7, hi=1.9e3)
    line = fit_line(curve)
    assert line.slope == pytest.approx(4.8, abs=1e-12)
    assert line.intercept == pytest.approx(0.7, abs=1e-12)
    assert line.evaluate(100.0) == pytest.approx(4.8 * 2 + 0.7, abs=1e-12)


def test_fit_line_ignores_points_at_and_above_bound():
    signal = np.array([10.0, 100.0, 1000.0, FIT_SIGNAL_MAX, 5e3])
    snr = 5.0 * np.log10(signal)
    snr[3:] = -100.0  # junk beyond the fit region must not matter
    curve = Curve(settings=(), signal=signal, snr=snr, output3=np.zeros(5))
    line = fit_line(curve)
    assert line.slope == pytest.approx(5.0, abs=1e-12)
    assert line.intercept == pytest.approx(0.0, abs=1e-10)


def test_fit_line_needs_two_low_signal_points():
    curve = Curve(
        settings=(),
        signal=np.array([1e3, 3e3, 5e3]),
        snr=np.zeros(3),
        output3=np.zeros(3),
    )
    with pytest.raises(FitError):
        fit_line(curve)


def test_prominence_measures_injected_dip():
    curve = line_curve(slope=5.0, intercept=0.0)
    line = FittedLine(slope=5.0, intercept=0.0)
    snr = curve.snr.copy()
    inside = np.nonzero((curve.signal >= 3e3) & (curve.signal <= 1e4))[0]
    snr[inside[1]] -= 2.5
    dipped = Curve(settings=curve.settings, signal=curve.signal, snr=snr, output3=curve.output3)
    assert prominence(dipped, line) == pytest.approx(2.5, abs=1e-12)


def test_prominence_floors_at_zero():
    curve = line_curve()
    # Line far below the curve: no dip, clamp to zero.
    low = FittedLine(slope=5.2, intercept=-50.0)
    assert prominence(curve, low) == 0.0


def test_prominence_without_window_points_is_nan():
    curve = line_curve(hi=1e3)
    line = fit_line(curve)
    assert np.isnan(prominence(curve, line))


def test_prominence_window_is_inclusive():
    line = FittedLine(slope=0.0, intercept=0.0)
    for edge in DIP_WINDOW:
        curve = Curve(
            settings=(),
            signal=np.array([edge]),
            snr=np.array([-1.5]),
            output3=np.zeros(1),
        )
        assert prominence(curve, line) == pytest.approx(1.5, abs=1e-12)


def test_criteria_match_scalar_reference():
    rng = np.random.default_rng(20)
    signal = np.geomspace(5.0, 8e4, 60)
    log_s = np.log10(signal)
    snr = 5.1 * log_s + 0.3
    snr -= 3.3 * np.exp(-((log_s - np.log10(5.5e3)) ** 2) / (2 * 0.12**2))
    snr += rng.normal(0.0, 0.05, size=60)
    output3 = rng.uniform(0.8, 2.0, size=60)
    curve = Curve.from_samples((1, 2, 3, 4, 5), signal, snr, output3)

    got = criteria(curve)
    want = scalar_criteria(signal.tolist(), snr.tolist(), output3.tolist())
    assert got.as_tuple() == pytest.approx(want, abs=1e-9)


def test_criteria_on_clean_line_are_tiny():
    values = criteria(line_curve(slope=5.0, intercept=0.0))
    assert values.c1 == pytest.approx(0.0, abs=1e-10)
    assert values.c2 == pytest.approx(0.0, abs=1e-10)
    assert values.c3 == pytest.approx(0.0, abs=1e-10)
    assert values.c4 == 1.25


def test_write_curve_csv(tmp_path):
    curve = line_curve(n=12)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "signal,snr,snr_ideal,snr_line,output3"
    assert len(lines) == 13
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(curve.signal[0])
    assert first[2] == pytest.approx(5.0 * np.log10(curve.signal[0]))


def _sorted_rows(signal, snr, output3):
    """Rows of samples sorted per row by signal, ties kept in sample order."""
    order = np.argsort(signal, axis=1, kind="stable")
    return tuple(np.take_along_axis(v, order, axis=1) for v in (signal, snr, output3))


def _random_curves(rng, m, n=200):
    log_s = rng.uniform(0.5, 5.0, size=(m, n))
    centre = rng.uniform(3.4, 4.0, size=(m, 1))
    snr = rng.uniform(4.5, 5.5, size=(m, 1)) * log_s + rng.uniform(-1.0, 1.0, size=(m, 1))
    snr -= rng.uniform(0.0, 6.0, size=(m, 1)) * np.exp(-((log_s - centre) ** 2) / 0.03)
    snr += rng.normal(0.0, 0.1, size=(m, n))
    return _sorted_rows(10.0**log_s, snr, rng.uniform(0.5, 5.0, size=(m, n)))


def test_criteria_block_matches_scalar_reference_on_random_curves():
    signal, snr, output3 = _random_curves(np.random.default_rng(31), 40)
    got = criteria_block(signal, snr, output3)
    assert got.shape == (40, 4)
    for row in range(40):
        want = scalar_criteria(signal[row].tolist(), snr[row].tolist(), output3[row].tolist())
        assert got[row].tolist() == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_criteria_block_rows_do_not_depend_on_their_neighbours():
    signal, snr, output3 = _random_curves(np.random.default_rng(32), 64)
    block = criteria_block(signal, snr, output3)
    for row in (0, 17, 63):
        alone = criteria_block(signal[row : row + 1], snr[row : row + 1], output3[row : row + 1])
        assert np.array_equal(alone[0], block[row])
        curve = Curve(settings=(), signal=signal[row], snr=snr[row], output3=output3[row])
        assert np.array_equal(criteria(curve).as_tuple(), block[row])


def _edge_rows():
    """Four 50-point curves: too few low points, no window points, no dip, tied signals."""
    n = 50
    few_low = np.concatenate([[1.5e3], np.geomspace(2.5e3, 5e4, n - 1)])
    no_window = np.geomspace(10.0, 2.9e3, n)
    no_dip = np.geomspace(10.0, 5e4, n)
    tied = np.repeat(np.geomspace(10.0, 5e4, n // 5), 5)
    signal = np.vstack([few_low, no_window, no_dip, tied])
    log_s = np.log10(signal)
    snr = 5.0 * log_s + 0.2
    snr[2] += 0.4 * np.maximum(log_s[2] - np.log10(2e3), 0.0)  # bends up, above its line
    rng = np.random.default_rng(33)
    snr[3] += rng.normal(0.0, 0.2, size=n)
    output3 = rng.uniform(0.5, 5.0, size=(4, n))
    return signal, snr, output3


def test_criteria_block_edge_cases():
    signal, snr, output3 = _edge_rows()
    got = criteria_block(signal, snr, output3)

    # Fewer than 2 points below 2e3 AU: no line, so c2 and c3 are NaN.
    assert np.isnan(got[0, 1]) and np.isnan(got[0, 2])
    assert got[0, 0] == pytest.approx(np.mean(np.abs(5.0 * np.log10(signal[0]) - snr[0])))
    assert got[0, 3] == np.mean(output3[0])
    # Empty dip window: c2 is NaN, c3 still measured.
    assert np.isnan(got[1, 1])
    for row in (1, 2, 3):
        want = scalar_criteria(signal[row].tolist(), snr[row].tolist(), output3[row].tolist())
        assert got[row].tolist() == pytest.approx(want, rel=1e-11, abs=1e-11, nan_ok=True)
    # A curve above its line has no dip: c2 is floored at exactly 0.
    assert got[2, 1] == 0.0
    assert got[2, 2] > 0.0


def test_tied_signals_keep_sample_order_in_block_and_curve():
    signal, snr, output3 = _edge_rows()
    rng = np.random.default_rng(34)
    shuffle = rng.permutation(signal.shape[1])
    # Curve.from_samples sorts stably, as predicted blocks are sorted.
    curve = Curve.from_samples((), signal[3, shuffle], snr[3, shuffle], output3[3, shuffle])
    rows = _sorted_rows(signal[3:4, shuffle], snr[3:4, shuffle], output3[3:4, shuffle])
    assert np.array_equal(rows[1][0], curve.snr)
    assert np.array_equal(criteria_block(*rows)[0], criteria(curve).as_tuple())


def test_one_row_block_is_criteria_and_fit_line():
    curve = line_curve(slope=5.3, intercept=-0.4)
    row = criteria_block(curve.signal[None], curve.snr[None], curve.output3[None])
    assert row.shape == (1, 4)
    assert tuple(row[0].tolist()) == criteria(curve).as_tuple()
    line = fit_line(curve)
    assert line.slope == pytest.approx(5.3, abs=1e-12)


def _where_criteria_block(signal, snr, output3):
    """criteria_block() as it was written with np.where, np.mean and broadcasts.

    The reference for criteria_block(): the same arithmetic in the same
    order, so the two agree bit for bit.
    """
    log_signal = np.log10(signal)
    below = signal < FIT_SIGNAL_MAX
    count = below.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.where(below, log_signal, 0.0).sum(axis=1) / count
        mean_y = np.where(below, snr, 0.0).sum(axis=1) / count
        dx = np.where(below, log_signal - mean_x[:, None], 0.0)
        slope = (dx * (snr - mean_y[:, None])).sum(axis=1) / (dx * dx).sum(axis=1)
    slope[count < 2] = np.nan
    line = slope[:, None] * log_signal + (mean_y - slope * mean_x)[:, None]
    lo, hi = DIP_WINDOW
    inside = (signal >= lo) & (signal <= hi)
    drop = np.where(inside, line - snr, -np.inf).max(axis=1)
    out = np.empty((signal.shape[0], 4))
    out[:, 0] = np.mean(np.abs(IDEAL_SLOPE * log_signal - snr), axis=-1)
    out[:, 1] = np.where(inside.any(axis=1), np.where(drop < 0.0, 0.0, drop), np.nan)
    out[:, 2] = np.mean(np.abs(line - snr), axis=-1)
    out[:, 3] = np.mean(output3, axis=1)
    return out


def test_criteria_block_is_the_where_reference_bit_for_bit():
    rng = np.random.default_rng(35)
    for m in (64, 1, 37, 64, 5):
        signal, snr, output3 = _random_curves(rng, m)
        # Rows with one point below FIT_SIGNAL_MAX, where no line is fitted.
        signal[: m // 3] = np.maximum(signal[: m // 3], 2.5e3)
        signal[: m // 3, 0] = 1.5e3
        want = _where_criteria_block(signal, snr, output3)
        assert criteria_block(signal, snr, output3).tobytes() == want.tobytes(), m
    # The edge rows: no line, an empty window, no dip, tied signals.
    signal, snr, output3 = _edge_rows()
    out = criteria_block(signal, snr, output3)
    assert out.tobytes() == _where_criteria_block(signal, snr, output3).tobytes()
    assert np.isnan(out[0, 1:3]).all() and np.isnan(out[1, 1]) and out[2, 1] == 0.0
