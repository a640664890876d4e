"""Sample table container, normalization transforms, partition splits and CSV I/O.

A sample row is the 10-tuple
(input1..input4, input5, input6, category, signal, snr, output3).
The six numeric inputs are normalized by a per-input maximum, the
category becomes a 4-way one-hot block, and the outputs are scaled to
[0, 1] after a log10 transform of the signal. Maxima are fitted from the
training partition and persisted with the model, so encoding is a pure
function of (row, normalization spec). split() assigns rows to the
train/validation/test partitions in the fixed shares DEFAULT_FRACTIONS.

CSV contract, shared by every table sensopt writes (the dataset, the
predicted-vs-actual pairs, the selected curves, the sweep report): a
header line of comma-separated column names, then one line per row whose
fields are float64 values printed as "%.17g", 17 significant digits, so
they read back exactly, or byte strings such as the report's ranks and
flags, in ASCII with LF line endings. Every sensopt output is written
as bytes through replacing(), to a binary temporary file that replaces
the target only once it is complete. The writer builds each block of
rows as one numpy byte array and writes it as it is. It formats a float
with 1e-4 <= |x| < 1e17 in numpy, exactly: "%.17g" prints such a value
in positional notation, from the 17 digits of |x| * 10**(16 - k),
k = floor(log10 |x|), rounded half to even, which integer arithmetic on
the float's 53-bit significand gives. Every other value (±0, NaN, ±inf,
the very small and the very large) falls back to Python's "%.17g", one
value at a time, as does every value of a column, or of a block's
distinct repeating values, with fewer than 512 in that range, too few
to repay the array operations. In a column whose values repeat, such as a dataset's
settings, input5, category and output3, the writer formats each
distinct value once per block of rows; the bytes are those of
formatting every field with "%.17g". read_csv()
reads UTF-8 text with LF, CRLF or lone CR line endings and rejects,
naming the 1-based line, counted as in Python's universal newlines mode:
  - bytes that are not UTF-8 text;
  - a header other than COLUMNS;
  - a line without exactly 10 fields, blank lines included;
  - a field that is not a decimal literal (quoted fields, `1_0`-style
    and hex literals are rejected);
  - a non-finite field (nan, inf);
  - a non-positive signal, or a category that is not an integer in 0..3.
The first four are text faults: the first line with one is named, for
the first of them in this order. The last two bullets are value faults,
checked once the whole file has parsed, each kind at its first line.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CsvParseError, DomainError, RangeError

COLUMNS = (
    "input1",
    "input2",
    "input3",
    "input4",
    "input5",
    "input6",
    "category",
    "signal",
    "snr",
    "output3",
)
COLUMN_INDEX = {name: i for i, name in enumerate(COLUMNS)}

N_NUMERIC_INPUTS = 6
N_CATEGORIES = 4
N_OUTPUTS = 3
ENCODED_INPUT_SIZE = N_NUMERIC_INPUTS + N_CATEGORIES

TRAIN, VALIDATION, TEST = 0, 1, 2
# Shares of the train, validation and test partitions in every split.
DEFAULT_FRACTIONS = (0.81, 0.09, 0.10)

# Rows per block of write_rows() and encode_rows_into(): bounds the memory they hold at once.
_BLOCK_ROWS = 4096
# Leading rows of a block's column that decide whether its values repeat
# enough to format each distinct value once (see write_rows).
_SAMPLE_ROWS = 64
# The fewest values of a _float_texts() call in 1e-4 <= |x| < 1e17 that it
# formats in numpy: its ~50 array operations cost about as much as
# formatting 300 values one at a time (2-CPU x86-64 host, numpy 2.4).
_VECTOR_VALUES = 512
# Every float field is "%.17g": 17 significant digits round-trip any float64
# exactly. Its widest text, such as "-2.2250738585072014e-308", has 24
# characters, so the texts that fall back to Python are formatted
# left-aligned in 24, as one fixed-width run.
_PADDED_WIDTH = 24
_PADDED_FMT = f"%-{_PADDED_WIDTH}.17g"
# Bytes of a text row: 24 fit, as do the 23 of "-0.000" and 17 digits.
_TEXT_BYTES = 32
_POW5 = 5 ** np.arange(21, dtype=np.uint64)  # 5**20 < 2**47
_LOW32 = np.uint64(0xFFFF_FFFF)
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
# The four ASCII digits of each number below 10,000 ("0042"), as uint32
# words in native byte order, and the trailing zeros of each: "0000" has 4.
_QUADS = (48 + np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32).ravel()
_QUAD_ZEROS = sum((np.arange(10_000) % 10**p == 0).astype(np.intp) for p in range(1, 5))
# A digit row holds 7 "0" bytes, the 17 digits of D, then "0" bytes.
_FIRST_DIGIT = 7
_HEADER = ",".join(COLUMNS)
# The literals numpy's loadtxt parser accepts, once surrounding whitespace
# is stripped; used only to name the line of a file it rejected.
_NUMBER = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf(?:inity)?|nan)",
    re.IGNORECASE | re.ASCII,
)


class SampleTable:
    """Immutable-by-convention wrapper around an (n, 10) float64 array."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != len(COLUMNS):
            raise ConfigurationError(
                f"sample table must have shape (n, {len(COLUMNS)}), got {arr.shape}"
            )
        self.values = arr

    def __len__(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, COLUMN_INDEX[name]]

    def select(self, indices: np.ndarray) -> "SampleTable":
        """Return a new table holding the rows at `indices`, in that order."""
        return SampleTable(self.values[np.asarray(indices)])


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-column scaling constants.

    Attributes:
        input_max: maximum each of the 6 numeric inputs may assume.
        output_max: maxima of (log10(signal), snr, output3).
    """

    input_max: tuple[float, ...]
    output_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.input_max) != N_NUMERIC_INPUTS:
            raise ConfigurationError(
                f"expected {N_NUMERIC_INPUTS} input maxima, got {len(self.input_max)}"
            )
        if len(self.output_max) != N_OUTPUTS:
            raise ConfigurationError(
                f"expected {N_OUTPUTS} output maxima, got {len(self.output_max)}"
            )
        if not all(math.isfinite(m) and m > 0 for m in (*self.input_max, *self.output_max)):
            raise ConfigurationError("normalization maxima must all be positive and finite")


def fit_normalization(
    table: SampleTable, rows: np.ndarray | slice = slice(None)
) -> NormalizationSpec:
    """Compute normalization maxima from the rows of `table` at `rows` (all by default).

    Fit this on the training partition only, so held-out rows never leak
    into the scaling constants. Each column is read on its own, so the
    rows are never copied as a table.
    """
    values = table.values
    signal = values[rows, COLUMN_INDEX["signal"]]
    if signal.size == 0:
        raise ConfigurationError("cannot fit normalization on an empty table")
    if np.any(signal <= 0):
        raise DomainError("signal values must be positive to fit a log transform")
    input_max = tuple(float(values[rows, j].max()) for j in range(N_NUMERIC_INPUTS))
    output_max = (
        float(np.log10(signal).max()),
        float(values[rows, COLUMN_INDEX["snr"]].max()),
        float(values[rows, COLUMN_INDEX["output3"]].max()),
    )
    return NormalizationSpec(input_max=input_max, output_max=output_max)


def _bad_category(cat: np.ndarray) -> np.ndarray:
    """Where the float64 `cat` is not an integer in 0..N_CATEGORIES - 1, NaN included."""
    return (cat != np.rint(cat)) | (cat < 0) | (cat >= N_CATEGORIES)


def _checked_rows(array, width: int, what: str) -> np.ndarray:
    """`array` as an (n, width) float64 array; a ConfigurationError for any other shape."""
    rows = np.asarray(array, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ConfigurationError(f"expected {what} of shape (n, {width}), got {rows.shape}")
    return rows


def check_maxima(values: np.ndarray, maxima: np.ndarray, names) -> None:
    """Raise a RangeError naming the first value of `values` over its column's maximum.

    `values` is (n, k) and is read in row-major order; column j has the
    maximum maxima[j] and the name names[j].
    """
    over = np.argwhere(values > maxima)
    if len(over):
        r, c = over[0]
        value, maximum = float(values[r, c]), float(maxima[c])
        raise RangeError(f"{names[c]} value {value!r} exceeds recorded maximum {maximum!r}")


def encode_inputs(
    numeric: np.ndarray, category: np.ndarray, norm: NormalizationSpec, out=None
) -> np.ndarray:
    """Encode raw input rows into the network's 10-entry input rows.

    Args:
        numeric: shape (n, 6), the values of input1..input6.
        category: shape (n,), integer category 0..3.
        norm: scaling constants to divide by.
        out: an (n, 10) array to encode the n rows into, or None for a
            new one; `numeric` may be its first six columns and
            `category` its seventh, as both are checked and read first.

    Returns:
        Array of shape (n, 10): six normalized numerics followed by a
        one-hot category block.

    Raises:
        ConfigurationError: `numeric` is not (n, 6) or `category` not (n,).
        RangeError: a numeric value exceeds its recorded maximum.
        DomainError: category outside 0..3 or non-integral.
    """
    rows = _checked_rows(numeric, N_NUMERIC_INPUTS, "numeric inputs")
    cat = np.asarray(category, dtype=np.float64)
    if cat.shape != (rows.shape[0],):
        raise ConfigurationError(f"expected {rows.shape[0]} categories, got shape {cat.shape}")
    maxima = np.asarray(norm.input_max)
    check_maxima(rows, maxima, COLUMNS)
    if np.any(_bad_category(cat)):
        raise DomainError(f"category values must be integers in 0..{N_CATEGORIES - 1}")
    hot = N_NUMERIC_INPUTS + cat.astype(np.intp)
    encoded = np.empty((rows.shape[0], ENCODED_INPUT_SIZE)) if out is None else out
    np.divide(rows, maxima, out=encoded[:, :N_NUMERIC_INPUTS])
    encoded[:, N_NUMERIC_INPUTS:] = 0.0
    encoded[np.arange(rows.shape[0]), hot] = 1.0
    return encoded


def encode_outputs(outputs: np.ndarray, norm: NormalizationSpec, out=None) -> np.ndarray:
    """Scale physical (signal, snr, output3) rows, shape (n, 3), into normalized targets.

    The signal passes through log10 before scaling; all three entries land
    in [0, 1] on the data the spec was fitted from. Given an (n, 3) array
    `out`, which may be `outputs` itself, the n rows are encoded into it
    and `out` is returned.
    """
    rows = _checked_rows(outputs, N_OUTPUTS, "outputs")
    if np.any(rows[:, 0] <= 0):
        raise DomainError("signal must be positive for the log transform")
    maxima = np.asarray(norm.output_max)
    encoded = np.empty_like(rows) if out is None else out
    encoded[:, 0] = np.log10(rows[:, 0]) / maxima[0]
    encoded[:, 1] = rows[:, 1] / maxima[1]
    encoded[:, 2] = rows[:, 2] / maxima[2]
    return encoded


def decode_outputs(encoded: np.ndarray, norm: NormalizationSpec, out=None) -> np.ndarray:
    """Invert encode_outputs on (n, 3) rows back to physical units.

    Given an (n, 3) array `out`, the n rows are decoded into it, column
    by column and with no temporary array, and `out` is returned.
    """
    rows = _checked_rows(encoded, N_OUTPUTS, "outputs")
    decoded = np.empty_like(rows) if out is None else out
    for j, maximum in enumerate(norm.output_max):
        np.multiply(rows[:, j], maximum, decoded[:, j])
    np.power(10.0, decoded[:, 0], decoded[:, 0])
    return decoded


def encode_rows_into(values: np.ndarray, norm: NormalizationSpec, y: np.ndarray) -> None:
    """Encode raw sample rows in place: `values` (n, 10) becomes the network's inputs.

    The rows' targets go to `y` (n, 3). The rows are encoded _BLOCK_ROWS
    at a time, in order: a block's outputs are copied to `y`, then
    encode_inputs() and encode_outputs() encode the block's inputs and
    targets over themselves. So an error names the first offending value
    of the first block holding one, as encode_inputs() and then
    encode_outputs() check it, and the blocks before it are encoded.
    """
    for start in range(0, len(values), _BLOCK_ROWS):
        block, targets = values[start : start + _BLOCK_ROWS], y[start : start + _BLOCK_ROWS]
        targets[...] = block[:, N_NUMERIC_INPUTS + 1 :]
        encode_inputs(block[:, :N_NUMERIC_INPUTS], block[:, N_NUMERIC_INPUTS], norm, block)
        encode_outputs(targets, norm, targets)


def encode_table(table: SampleTable, norm: NormalizationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Encode the rows of `table` into (inputs, targets) arrays.

    The rows are copied into a new array, which encode_rows_into() then
    encodes in place into the inputs; `table` is left unchanged.
    """
    x, y = table.values.copy(), np.empty((len(table), N_OUTPUTS))
    encode_rows_into(x, norm, y)
    return x, y


@dataclass(frozen=True, eq=False)
class SplitAssignment:
    """Row-to-partition assignment, a pure function of (seed, row count)."""

    labels: np.ndarray  # (n,) int8 of TRAIN / VALIDATION / TEST

    def indices(self, label: int) -> np.ndarray:
        """Ascending row indices assigned to `label`."""
        return np.nonzero(self.labels == label)[0]

    def counts(self) -> tuple[int, int, int]:
        return (
            int(np.sum(self.labels == TRAIN)),
            int(np.sum(self.labels == VALIDATION)),
            int(np.sum(self.labels == TEST)),
        )


def split(n_rows: int, seed: int) -> SplitAssignment:
    """Shuffle row indices with `seed` and cut train/validation/test prefixes.

    With DEFAULT_FRACTIONS (f_train, f_val, f_test), sizes are
    floor(f_train * n), floor(f_val * n) and the remainder, so the
    partition is exhaustive and disjoint. A row count that leaves a
    partition empty raises a ConfigurationError naming it: 11 rows leave
    validation empty, so the default shares need at least 12.
    """
    n_train = int(np.floor(DEFAULT_FRACTIONS[0] * n_rows))
    n_val = int(np.floor(DEFAULT_FRACTIONS[1] * n_rows))
    counts = (n_train, n_val, n_rows - n_train - n_val)
    for name, count in zip(("train", "validation", "test"), counts):
        if count < 1:
            raise ConfigurationError(f"a split of {n_rows} rows leaves the {name} partition empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perm = rng.permutation(n_rows)
    labels = np.empty(n_rows, dtype=np.int8)
    labels[perm] = np.repeat(np.array((TRAIN, VALIDATION, TEST), dtype=np.int8), counts)
    return SplitAssignment(labels=labels)


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables that lay out the texts of _positional(), by layout and by length.

    A layout is sign * 21 + k + 4, for the sign bit and k in -4..16. Byte
    j of its text is the constant consts[layout, j] where shifts[layout,
    j] is -1, the sign and the point; otherwise it is byte _FIRST_DIGIT +
    j - shifts[layout, j] of the value's digit row. The shift is 0 before
    the point and 1 after it ("123.45"); for k < 0 it is 1 - k throughout,
    so the leading "0" and the zeros after the point come from the row's
    "0" bytes ("0.00123"); a minus sign adds 1. keep[length] is 0xFF in
    the first `length` bytes and 0 in the rest.
    """
    shifts = np.full((42, _TEXT_BYTES), -1)
    consts = np.zeros((42, _TEXT_BYTES), np.uint8)
    for sign in (0, 1):
        for k in range(-4, 17):
            layout, point = sign * 21 + k + 4, sign + max(k, 0) + 1
            consts[layout, 0] = ord("-") if sign else 0
            consts[layout, point] = ord(".")
            shifts[layout, sign:point] = sign if k >= 0 else sign + 1 - k
            shifts[layout, point + 1 :] = sign + 1 if k >= 0 else sign + 1 - k
    keep = np.arange(_TEXT_BYTES) < np.arange(_TEXT_BYTES + 1)[:, None]
    return shifts, consts, keep * np.uint8(0xFF)


_SHIFTS, _CONSTS, _KEEP = _layout_tables()


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(m * 2**e * 10**(16 - k)), exactly, for m < 2**53 and 16 - k in 0..20.

    m * 5**(16 - k) < 2**100 is formed exactly in two uint64 limbs; the
    product times 2**(e + 16 - k) is then a shift, rounded to even on
    the exact remainder when it shifts right.
    """
    s = 16 - k
    f = _POW5[s]
    ml, mh, fl, fh = m & _LOW32, m >> 32, f & _LOW32, f >> 32
    low = ml * fl
    mid = ml * fh + mh * fl
    lo = low + (mid << 32)
    hi = mh * fh + (mid >> 32) + (lo < low)
    t = e + s
    r = np.clip(-t, 1, 63).astype(np.uint64)
    q = (hi << (64 - r)) | (lo >> r)
    rest, half = lo & ((np.uint64(1) << r) - 1), np.uint64(1) << (r - 1)
    q += (rest > half) | ((rest == half) & (q & 1).astype(bool))
    return np.where(t < 0, q, lo << np.clip(t, 0, 63).astype(np.uint64))


def _positional(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The "%.17g" texts of `x`, all in 1e-4 <= |x| < 1e17: (texts, lengths, ok).

    With k = floor(log10 |x|), "%.17g" prints the 17 digits of D =
    round_half_even(|x| * 10**(16 - k)) in positional notation: k + 1 of
    them before the point, none but "0" when k < 0, and no trailing zero
    after it. k starts from np.log10; where D then falls outside
    [10**16, 10**17), k steps by one and D is formed again from |x|, so it
    is rounded once. texts is (n, _TEXT_BYTES), each row NUL after its
    lengths[i] bytes; where ok is False, D still fell outside and the row
    is not the value's text.
    """
    n = len(x)
    m, e = np.frexp(np.abs(x))
    m = np.ldexp(m, 53).astype(np.uint64)
    e = e.astype(np.int64) - 53
    k = np.clip(np.floor(np.log10(np.abs(x))).astype(np.int64), -4, 16)
    d = _scaled(m, e, k)
    step = (d >= _E17).astype(np.int64) - (d < _E16)
    if step.any():
        k += step
        redo = np.flatnonzero(step)
        d[redo] = _scaled(m[redo], e[redo], np.clip(k[redo], -4, 16))
    ok = (d >= _E16) & (d < _E17)
    d[~ok], k = _E16, np.clip(k, -4, 16)
    # The digit rows: D as its first digit and four groups of four.
    hi = d // _E8
    lo = (d - hi * _E8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    hi -= lead * np.uint32(10**8)
    quads = [hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4]
    # A row of "0" bytes above and below the n digit rows: a shifted read stays inside.
    words = np.full((n + 2, _TEXT_BYTES // 4), _QUADS[0])
    words[1:-1, 1] = _QUADS.take(lead)
    # zeros: D's trailing zero digits, up to its last nonzero group of four.
    zeros = _QUAD_ZEROS.take(quads[0])
    for column, quad in enumerate(quads, start=2):
        words[1:-1, column] = _QUADS.take(quad)
        if column > 2:
            zeros = _QUAD_ZEROS.take(quad) + (quad == 0) * zeros
    # Each shift that a layout here uses is one read of all rows at an offset.
    layout = np.signbit(x) * 21 + k + 4
    digits = words.view(np.uint8).ravel()
    texts = _CONSTS.take(layout, axis=0).ravel()
    shifts = _SHIFTS[np.flatnonzero(np.bincount(layout, minlength=len(_SHIFTS)))]
    for shift in set(shifts[shifts >= 0].tolist()):
        start = _TEXT_BYTES + _FIRST_DIGIT - shift
        read = ((_SHIFTS == shift) * np.uint8(0xFF)).take(layout, axis=0).ravel()
        read &= digits[start : start + texts.size]
        texts |= read
    # The sign, the integer digits ("0" when k < 0), and the point and the
    # 16 - k digits after it, less D's trailing zeros, where any remain.
    kept = np.maximum(16 - k - zeros, 0)
    lengths = layout // 21 + np.maximum(k, 0) + 1 + (kept > 0) * (kept + 1)
    texts &= _KEEP.take(lengths, axis=0).ravel()
    return texts.reshape(n, _TEXT_BYTES), lengths, ok


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each float64 of `values`, as rows of an (n, W) uint8 array.

    Row i holds the ASCII bytes of "%.17g" % values[i], then NUL bytes;
    W is the longest text's length. Values with 1e-4 <= |x| < 1e17 are
    formatted in numpy by _positional(), when a call has _VECTOR_VALUES
    of them; every other value (±0, NaN, ±inf, |x| < 1e-4, |x| >= 1e17)
    is formatted by Python's "%.17g", one at a time (_padded_texts()).
    """
    x = np.asarray(values, np.float64)
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e17)
    if np.count_nonzero(fast) < _VECTOR_VALUES:
        texts, width = _padded_texts(x)
        return texts[:, :width]
    texts, lengths, ok = _positional(np.where(fast, x, 1.0))
    slow = np.flatnonzero(~(fast & ok))
    if not len(slow):
        return texts[:, : lengths.max()]
    texts[slow, :_PADDED_WIDTH], width = _padded_texts(x[slow])
    lengths[slow] = 0
    return texts[:, : max(lengths.max(), width)]


def _padded_texts(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The "%.17g" texts of `x` by Python: (n, _PADDED_WIDTH) NUL-padded rows, and the longest's length."""
    values = x.tolist()
    padded = (_PADDED_FMT * len(values) % tuple(values)).encode("ascii")
    texts = np.frombuffer(padded, np.uint8).reshape(len(values), _PADDED_WIDTH)
    texts = texts * (texts != ord(" "))
    width = _PADDED_WIDTH
    while width and not texts[:, width - 1].any():
        width -= 1
    return texts, width


def _repeats(column: np.ndarray) -> bool:
    """Whether at least half of a column's first _SAMPLE_ROWS values repeat."""
    sample = np.sort(column[:_SAMPLE_ROWS].view(np.uint64))
    return 2 * np.count_nonzero(sample[1:] == sample[:-1]) >= sample.size


def _fields(block: list[np.ndarray]) -> list[np.ndarray]:
    """The fields of each column of `block`, as the (n, w) uint8 rows of _float_texts().

    A bytes column is its own rows. The distinct values of every float
    column whose values repeat are formatted by one _float_texts() call,
    and each such column gathers its texts by its inverse; every other
    float column is formatted whole.
    """
    fields: list = [None] * len(block)
    repeating = []
    for i, column in enumerate(block):
        if column.dtype.kind == "S":
            fields[i] = column.view(np.uint8).reshape(len(column), column.itemsize)
        elif _repeats(column):
            bits = column.view(np.uint64)
            distinct = np.sort(bits)
            distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
            repeating.append((i, distinct.view(np.float64), np.searchsorted(distinct, bits)))
        else:
            fields[i] = _float_texts(column)
    if repeating:
        texts = _float_texts(np.concatenate([distinct for _, distinct, _ in repeating]))
        lengths = np.count_nonzero(texts, axis=1)
        start = 0
        for i, distinct, inverse in repeating:
            rows = slice(start, start + len(distinct))
            fields[i] = texts[rows, : lengths[rows].max()].take(inverse, axis=0)
            start = rows.stop
    return fields


def write_rows(fh, columns) -> None:
    """Write rows to binary file `fh` as CSV lines, _BLOCK_ROWS rows at a time.

    `columns` is a sequence of the rows' columns, such as the rows of a
    (k, n) array: 1-D float64 arrays, and (n,) bytes arrays written
    verbatim. Every float field gets 17 significant digits, and the
    bytes are those numpy's savetxt writes with fmt "%.17g", delimiter
    "," and newline LF: _float_texts() formats floats with 1e-4 <= |x| <
    1e17 exactly in numpy and every other value with "%.17g". In a block,
    a column whose values repeat is formatted once per distinct value
    (values are distinct by their bits, so -0.0 and 0.0, or NaNs of
    either sign, apart), and the fields are laid side by side in one
    uint8 array, each followed by "," and the last by LF. That array's
    NUL padding is deleted, and the bytes are written by one fh.write().
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        fields = _fields([column[start : start + _BLOCK_ROWS] for column in columns])
        fh.write(_joined(fields).replace(b"\0", b""))


def _joined(fields: list[np.ndarray]) -> bytes:
    """The bytes of the rows of `fields` side by side, each followed by "," and the last by LF.

    Each field is dropped from `fields` once it is copied, so the block's
    texts are held about twice at most.
    """
    rows = np.full((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), ord(","), np.uint8)
    at = 0
    while fields:
        field = fields.pop(0)
        # Each row's field as one item of its width: one strided copy.
        width = f"V{field.shape[1]}"
        rows[:, at : at + field.shape[1]].view(width)[:, 0] = field.view(width)[:, 0]
        at += field.shape[1] + 1
    rows[:, -1] = ord("\n")
    return rows.tobytes()


@contextlib.contextmanager
def replacing(path):
    """Open a binary file that replaces `path` once the with-block completes.

    Every sensopt output is written as bytes through this one function.
    The data goes to a temporary file beside `path`: if the block
    raises, the temporary file is removed and whatever `path` held
    before is left untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_table(path, header: str, columns) -> None:
    """Write a `header` line and the rows of `columns` to the CSV file `path`.

    `columns` is as in write_rows(). The file replaces `path` only once
    it is complete; see replacing().
    """
    with replacing(path) as fh:
        fh.write(f"{header}\n".encode("ascii"))
        write_rows(fh, columns)


def write_csv(table: SampleTable, path) -> None:
    """Write `table` with the canonical header, 17 significant digits per field."""
    write_table(path, _HEADER, table.values.T)


def read_csv(path) -> SampleTable:
    """Parse a sample CSV back into a table, losslessly.

    One text-mode pass reads the header and counts the lines after it;
    numpy's loadtxt then parses them into one array of that many rows,
    which the returned table holds. Only when either finds a fault does
    a second pass run, to name the first line with one.

    Raises:
        CsvParseError: a text or value fault (see the module docstring);
            the message carries the 1-based number of the line it names.
    """
    n_cols = len(COLUMNS)
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            n_rows = sum(1 for _ in fh)
    except UnicodeDecodeError:
        raise _first_bad_line(path) from None
    if header.rstrip("\n") != _HEADER:
        raise _first_bad_line(path)
    values = np.empty((0, n_cols))
    if n_rows:
        # Given max_rows, loadtxt allocates the array once at its final
        # size, where growing it as it parsed would leave the heap holes
        # that later allocations cannot reuse. It warns when a blank line
        # does not count towards max_rows; the row count reports those.
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "Input line", UserWarning)
                values = np.loadtxt(
                    path, delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="utf-8",
                    max_rows=n_rows,
                )
        except ValueError:
            values = None
        # loadtxt skips blank lines, which the row count exposes.
        if values is None or values.shape != (n_rows, n_cols):
            raise _first_bad_line(path)
    table = SampleTable(values)
    _validate_rows(table)
    return table


def _line_fault(line_no: int, text: str) -> str | None:
    """The text fault of line `line_no` of a sample CSV, given without its ending, or None.

    Undecodable bytes are in `text` as surrogateescape's lone surrogates.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "not UTF-8 text"
    if line_no == 1:
        return None if text == _HEADER else f"expected header {_HEADER!r}"
    fields = text.split(",") if text else []
    if len(fields) != len(COLUMNS):
        return f"expected {len(COLUMNS)} fields, got {len(fields)}"
    if not all(_NUMBER.fullmatch(field.strip()) for field in fields):
        return "unparseable numeric field"
    return None


def _first_bad_line(path) -> CsvParseError:
    """The error for the first line of `path` with a text fault (see the module docstring)."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # An empty file still has a first line to lack the header.
        lines = itertools.chain([fh.readline()], fh)
        for line_no, line in enumerate(lines, start=1):
            if fault := _line_fault(line_no, line.rstrip("\n")):
                return CsvParseError(f"line {line_no}: {fault}", line_number=line_no)
    return CsvParseError(f"{os.fspath(path)}: unparseable CSV body")


def _validate_rows(table: SampleTable) -> None:
    """Raise a CsvParseError at the first line of the first value fault.

    The kinds are tried in the module docstring's order, each over every row.
    """
    category_fault = f"category must be an integer in 0..{N_CATEGORIES - 1}"
    for mask, fault in (
        (~np.isfinite(table.values).all(axis=1), "non-finite numeric field"),
        (table.column("signal") <= 0, "signal must be positive"),
        (_bad_category(table.column("category")), category_fault),
    ):
        if mask.any():
            line_no = int(np.argmax(mask)) + 2
            raise CsvParseError(f"line {line_no}: {fault}", line_number=line_no)
