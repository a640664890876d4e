"""Signal/SNR curve assembly and the four optimization criteria.

criteria_block() evaluates m curves, one per row of (m, n) arrays, to an
(m, 4) array; criteria() is its one-row form, a CriteriaValues quadruple:
  c1  mean absolute deviation from the ideal 5*log10(signal) curve [dB]
  c2  dip prominence below the fitted low-signal line, inside the
      DIP_WINDOW of 3e3-1e4 AU [dB]
  c3  mean absolute deviation from that fitted line over all points [dB]
  c4  mean output3 [dimensionless]

The line is fitted by least squares in closed form about the centred
means of the points below FIT_SIGNAL_MAX, 2e3 AU. fit_line() and
prominence() are the c2 steps on one Curve; both bounds are fixed.

criteria_block_into() computes the criteria of a block in caller-owned
CriteriaScratch buffers and allocates nothing, so each sweep worker
keeps one CriteriaScratch for its run. criteria_block() is its
allocating form, as network.forward() is of forward_into(), and
fit_line() and prominence() run its steps on a one-curve scratch.

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


class CriteriaScratch:
    """Work buffers of criteria_block_into() for up to `rows` curves of `points` points.

    Three float planes and two masks of (rows, points), and a few
    per-row vectors. One thread at a time may use them.
    """

    def __init__(self, rows: int, points: int):
        self.planes = np.empty((3, rows, points))
        self.masks = np.empty((2, rows, points), dtype=bool)
        self.vectors = np.empty((7, rows))
        self.flags = np.empty(rows, dtype=bool)


# The steps below allocate no array: each writes into a CriteriaScratch.
# A per-row value is spread over a plane with np.copyto before it meets
# a plane, because a broadcast (m, 1) operand makes numpy allocate an
# iterator buffer; np.where is np.copyto with where=, and np.mean an
# add.reduce, then a divide by n. Sums run over the same C-contiguous
# rows in the same order, so every value has the bits of the plain
# numpy expression.


def _fit_lines_into(signal, snr, scratch: CriteriaScratch) -> None:
    """Row-wise least-squares lines snr = slope * log10(signal) + intercept.

    Each row of the (m, n) arrays is fitted through its points below
    FIT_SIGNAL_MAX, in closed form about the centred means. Leaves
    log10(signal) in scratch.planes[0][:m] and the point count, the two
    means, the slope and the intercept in scratch.vectors[0:5, :m]; slope
    and intercept are NaN in rows with fewer than two such points or
    with all of them at one signal value.
    """
    m = signal.shape[0]
    log_signal, work, dx = (plane[:m] for plane in scratch.planes)
    below, above = (mask[:m] for mask in scratch.masks)
    count, mean_x, mean_y, slope, intercept, sums = (v[:m] for v in scratch.vectors[:6])
    np.log10(signal, out=log_signal)
    np.less(signal, FIT_SIGNAL_MAX, out=below)
    np.logical_not(below, out=above)
    # Counted in float64, which holds every count exactly.
    np.copyto(work, below)
    np.add.reduce(work, axis=1, out=count)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.copyto(work, 0.0)
        np.copyto(work, log_signal, where=below)
        np.divide(np.add.reduce(work, axis=1, out=sums), count, out=mean_x)
        np.copyto(work, 0.0)
        np.copyto(work, snr, where=below)
        np.divide(np.add.reduce(work, axis=1, out=sums), count, out=mean_y)
        np.copyto(dx, mean_x[:, None])
        np.subtract(log_signal, dx, out=dx)
        np.copyto(dx, 0.0, where=above)
        np.copyto(work, mean_y[:, None])
        np.subtract(snr, work, out=work)
        np.multiply(dx, work, out=work)
        np.add.reduce(work, axis=1, out=slope)
        np.multiply(dx, dx, out=work)
        np.divide(slope, np.add.reduce(work, axis=1, out=sums), out=slope)
    np.copyto(slope, np.nan, where=np.less(count, 2, out=scratch.flags[:m]))
    np.subtract(mean_y, np.multiply(slope, mean_x, out=intercept), out=intercept)


def _prominences_into(signal, snr, line, out, scratch: CriteriaScratch) -> None:
    """Row-wise largest drop of `snr` below `line` inside DIP_WINDOW, into `out`.

    Floored at 0 (a curve above its line has no dip); NaN in rows with no
    point inside the window. `line` may be scratch.planes[2], not the
    other planes.
    """
    m = signal.shape[0]
    work = scratch.planes[1][:m]
    inside, outside = (mask[:m] for mask in scratch.masks)
    drop, flags = scratch.vectors[6][:m], scratch.flags[:m]
    lo, hi = DIP_WINDOW
    np.greater_equal(signal, lo, out=inside)
    np.bitwise_and(inside, np.less_equal(signal, hi, out=outside), out=inside)
    np.logical_not(inside, out=outside)
    np.subtract(line, snr, out=work)
    np.copyto(work, -np.inf, where=outside)
    np.maximum.reduce(work, axis=1, out=drop)
    # max(drop, 0.0), except that a NaN drop stays NaN.
    np.copyto(drop, 0.0, where=np.less(drop, 0.0, out=flags))
    np.logical_not(np.logical_or.reduce(inside, axis=1, out=flags), out=flags)
    np.copyto(drop, np.nan, where=flags)
    np.copyto(out, drop)


def _mean_abs_into(a, b, out, sums) -> None:
    """np.mean(np.abs(a - b), axis=1) written into `out`, through `a` and `sums`."""
    np.abs(np.subtract(a, b, out=a), out=a)
    np.divide(np.add.reduce(a, axis=1, out=sums), a.shape[1], out=out)


def fit_line(curve: Curve) -> FittedLine:
    """Least-squares line through the curve's low-signal (log-linear) region.

    Uses the points with signal strictly below FIT_SIGNAL_MAX, like
    criteria_block().

    Raises:
        FitError: fewer than two points fall below the bound.
    """
    scratch = CriteriaScratch(1, curve.signal.size)
    _fit_lines_into(curve.signal[None], curve.snr[None], scratch)
    count, _, _, slope, intercept = scratch.vectors[:5, 0].tolist()
    if count < 2:
        raise FitError(
            f"need at least 2 points below {FIT_SIGNAL_MAX!r} to fit, got {int(count)}"
        )
    return FittedLine(slope=slope, intercept=intercept)


def prominence(curve: Curve, line: FittedLine) -> float:
    """Largest drop of the curve below `line` inside DIP_WINDOW.

    Floored at 0 (a curve above the line has no dip). Returns NaN when no
    curve point falls inside the window; such combinations are excluded
    from criterion-2 ranking.
    """
    scratch = CriteriaScratch(1, curve.signal.size)
    line_snr = scratch.planes[2][:1]
    line_snr[0] = line.evaluate(curve.signal)
    out = np.empty(1)
    _prominences_into(curve.signal[None], curve.snr[None], line_snr, out, scratch)
    return float(out[0])


@dataclass(frozen=True)
class CriteriaValues:
    c1: float
    c2: float
    c3: float
    c4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4)


def criteria_block_into(signal, snr, output3, out, scratch: CriteriaScratch) -> None:
    """criteria_block() of the (m, n) float64 arrays, written into the (m, 4) `out`.

    Allocates no array: every step writes into `scratch`, which must hold
    at least m rows of n points. Nothing is checked.
    """
    m, n = signal.shape
    log_signal, work, line = (plane[:m] for plane in scratch.planes)
    slope, intercept, sums = (v[:m] for v in scratch.vectors[3:6])
    _fit_lines_into(signal, snr, scratch)
    np.copyto(line, slope[:, None])
    np.multiply(line, log_signal, out=line)
    np.copyto(work, intercept[:, None])
    np.add(line, work, out=line)
    np.multiply(IDEAL_SLOPE, log_signal, out=work)
    _mean_abs_into(work, snr, out[:, 0], sums)
    _prominences_into(signal, snr, line, out[:, 1], scratch)
    _mean_abs_into(line, snr, out[:, 2], sums)
    np.divide(np.add.reduce(output3, axis=1, out=sums), n, out=out[:, 3])


def criteria_block(signal, snr, output3) -> np.ndarray:
    """The four criteria of m curves at once, as an (m, 4) array. Pure.

    Row i of the (m, n) arrays `signal`, `snr` and `output3` is one
    curve, sorted by ascending positive signal. A row's values do not
    depend on the other rows. c2 and c3 are NaN in rows with fewer than
    two points below FIT_SIGNAL_MAX, where no line can be fitted: like
    an empty dip window, that leaves the curve unranked on them instead
    of aborting a sweep. criteria_block_into() on buffers allocated for
    this call.
    """
    signal, snr, output3 = (np.asarray(v, dtype=np.float64) for v in (signal, snr, output3))
    out = np.empty((signal.shape[0], 4))
    criteria_block_into(signal, snr, output3, out, CriteriaScratch(*signal.shape))
    return out


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
