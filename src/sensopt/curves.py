"""Signal/SNR curve assembly and the four optimization criteria.

criteria_block() evaluates m curves, one per row of (m, n) arrays, to an
(m, 4) array; criteria() is its one-row form, a CriteriaValues quadruple:
  c1  mean absolute deviation from the ideal 5*log10(signal) curve [dB]
  c2  dip prominence below the fitted low-signal line, inside the
      DIP_WINDOW of 3e3-1e4 AU [dB]
  c3  mean absolute deviation from that fitted line over all points [dB]
  c4  mean output3 [dimensionless]

The line is fitted by least squares in closed form about the centred
means of the points below FIT_SIGNAL_MAX, 2e3 AU. criteria_block() is
plain numpy over whole blocks; fit_line() and prominence() run its c2
steps on one Curve. Both bounds are fixed.

Lower is better for all four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .errors import DomainError, FitError, ShapeError

# Fit the reference line where the curve is still log-linear, below 2e3 AU;
# look for the dip inside the 3e3-1e4 AU window.
FIT_SIGNAL_MAX = 2.0e3
DIP_WINDOW = (3.0e3, 1.0e4)
IDEAL_SLOPE = 5.0


@dataclass(frozen=True, eq=False)
class Curve:
    """One combination's sweep, sorted by ascending signal."""

    settings: tuple[float, ...]
    signal: np.ndarray
    snr: np.ndarray
    output3: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.signal, dtype=np.float64)
        snr = np.asarray(self.snr, dtype=np.float64)
        out3 = np.asarray(self.output3, dtype=np.float64)
        if sig.ndim != 1 or sig.shape != snr.shape or sig.shape != out3.shape:
            raise ShapeError("signal, snr and output3 must be 1-D arrays of equal length")
        if sig.size == 0:
            raise ShapeError("a curve needs at least one point")
        if np.any(sig <= 0):
            raise DomainError("curve signal values must be positive")
        if np.any(np.diff(sig) < 0):
            raise DomainError("curve points must be sorted by ascending signal")
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "output3", out3)

    @classmethod
    def from_samples(cls, settings, signal, snr, output3) -> "Curve":
        """Build a curve from unordered samples, sorting by signal."""
        sig = np.asarray(signal, dtype=np.float64)
        order = np.argsort(sig, kind="stable")
        return cls(
            settings=tuple(float(v) for v in settings),
            signal=sig[order],
            snr=np.asarray(snr, dtype=np.float64)[order],
            output3=np.asarray(output3, dtype=np.float64)[order],
        )


def ideal_snr(signal):
    """SNR of an ideal sensor, 5 * log10(signal) dB."""
    sig = np.asarray(signal, dtype=np.float64)
    if np.any(sig <= 0):
        raise DomainError("signal must be positive")
    out = IDEAL_SLOPE * np.log10(sig)
    return float(out) if sig.ndim == 0 else out


@dataclass(frozen=True)
class FittedLine:
    """snr = slope * log10(signal) + intercept, fitted below FIT_SIGNAL_MAX."""

    slope: float
    intercept: float

    def evaluate(self, signal):
        sig = np.asarray(signal, dtype=np.float64)
        if np.any(sig <= 0):
            raise DomainError("signal must be positive")
        out = self.slope * np.log10(sig) + self.intercept
        return float(out) if sig.ndim == 0 else out


def _fit_lines(signal, log_signal, snr):
    """Row-wise least-squares lines snr = slope * log10(signal) + intercept.

    Each row of the (m, n) arrays is fitted through its points below
    FIT_SIGNAL_MAX, in closed form about the centred means; `log_signal`
    is log10(signal). Returns the per-row point counts, slopes and
    intercepts; slope and intercept are NaN in rows with fewer than two
    such points or with all of them at one signal value.
    """
    below = signal < FIT_SIGNAL_MAX
    count = below.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.where(below, log_signal, 0.0).sum(axis=1) / count
        mean_y = np.where(below, snr, 0.0).sum(axis=1) / count
        dx = np.where(below, log_signal - mean_x[:, None], 0.0)
        slope = (dx * (snr - mean_y[:, None])).sum(axis=1) / (dx * dx).sum(axis=1)
    slope[count < 2] = np.nan
    return count, slope, mean_y - slope * mean_x


def _prominences(signal, snr, line):
    """Row-wise largest drop of `snr` below `line` inside DIP_WINDOW.

    Floored at 0 (a curve above its line has no dip); NaN in rows with no
    point inside the window or with a NaN line.
    """
    lo, hi = DIP_WINDOW
    inside = (signal >= lo) & (signal <= hi)
    drop = np.where(inside, line - snr, -np.inf).max(axis=1)
    return np.where(inside.any(axis=1), np.where(drop < 0.0, 0.0, drop), np.nan)


def fit_line(curve: Curve) -> FittedLine:
    """Least-squares line through the curve's low-signal (log-linear) region.

    Uses the points with signal strictly below FIT_SIGNAL_MAX, like
    criteria_block().

    Raises:
        FitError: fewer than two points fall below the bound.
    """
    count, slope, intercept = _fit_lines(
        curve.signal[None], np.log10(curve.signal)[None], curve.snr[None]
    )
    if count[0] < 2:
        raise FitError(
            f"need at least 2 points below {FIT_SIGNAL_MAX!r} to fit, got {int(count[0])}"
        )
    return FittedLine(slope=float(slope[0]), intercept=float(intercept[0]))


def prominence(curve: Curve, line: FittedLine) -> float:
    """Largest drop of the curve below `line` inside DIP_WINDOW.

    Floored at 0 (a curve above the line has no dip). Returns NaN when no
    curve point falls inside the window; such combinations are excluded
    from criterion-2 ranking.
    """
    line_snr = line.evaluate(curve.signal)
    return float(_prominences(curve.signal[None], curve.snr[None], line_snr[None])[0])


@dataclass(frozen=True)
class CriteriaValues:
    c1: float
    c2: float
    c3: float
    c4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4)


def criteria_block(signal, snr, output3) -> np.ndarray:
    """The four criteria of m curves at once, as an (m, 4) array. Pure.

    Row i of the (m, n) arrays `signal`, `snr` and `output3` is one
    curve, sorted by ascending positive signal. A row's values do not
    depend on the other rows. c2 and c3 are NaN in rows with fewer than
    two points below FIT_SIGNAL_MAX, where no line can be fitted: like
    an empty dip window, that leaves the curve unranked on them instead
    of aborting a sweep.
    """
    signal, snr, output3 = (np.asarray(v, dtype=np.float64) for v in (signal, snr, output3))
    log_signal = np.log10(signal)
    _, slope, intercept = _fit_lines(signal, log_signal, snr)
    line = slope[:, None] * log_signal + intercept[:, None]
    return np.column_stack([
        np.mean(np.abs(IDEAL_SLOPE * log_signal - snr), axis=1),
        _prominences(signal, snr, line),
        np.mean(np.abs(line - snr), axis=1),
        np.mean(output3, axis=1),
    ])


def criteria(curve: Curve) -> CriteriaValues:
    """Evaluate all four criteria on one curve: a one-row criteria_block()."""
    row = criteria_block(curve.signal[None], curve.snr[None], curve.output3[None])
    return CriteriaValues(*row[0].tolist())


def write_curve_csv(curve: Curve, path) -> None:
    """Export a curve with its ideal and fitted-line references."""
    line = fit_line(curve)
    columns = np.column_stack(
        [
            curve.signal,
            curve.snr,
            ideal_snr(curve.signal),
            line.evaluate(curve.signal),
            curve.output3,
        ]
    )
    write_table(path, "signal,snr,snr_ideal,snr_line,output3", columns)
