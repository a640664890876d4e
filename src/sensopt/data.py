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
fields are float64 values printed with 17 significant digits, so they
read back exactly, or ready-made texts such as the report's ranks and
flags. Files are written with LF line endings, through a temporary
file that replaces the target only once it is complete. In a column whose
values repeat, such as a dataset's settings, input5, category and
output3, the writer formats each distinct value once per block of rows;
the bytes are those of formatting every field. read_csv()
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

# 17 significant digits round-trip any float64 exactly.
_FLOAT_FMT = "%.17g"
# Rows per block of write_rows() and encode_rows_into(): bounds the memory they hold at once.
_BLOCK_ROWS = 4096
# Rows of a block that write_rows() joins into one string at a time.
_JOIN_ROWS = 1024
# Leading rows of a block's column that decide whether its values repeat
# enough to format each distinct value once (see write_rows).
_SAMPLE_ROWS = 64
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
    partition is exhaustive and disjoint.
    """
    if n_rows < 10:
        raise ConfigurationError(f"need at least 10 rows to split, got {n_rows}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perm = rng.permutation(n_rows)
    n_train = int(np.floor(DEFAULT_FRACTIONS[0] * n_rows))
    n_val = int(np.floor(DEFAULT_FRACTIONS[1] * n_rows))
    labels = np.empty(n_rows, dtype=np.int8)
    labels[perm[:n_train]] = TRAIN
    labels[perm[n_train : n_train + n_val]] = VALIDATION
    labels[perm[n_train + n_val :]] = TEST
    return SplitAssignment(labels=labels)


def _repeats(column: np.ndarray) -> bool:
    """Whether at least half of a column's first _SAMPLE_ROWS values repeat."""
    sample = np.sort(column[:_SAMPLE_ROWS].view(np.uint64))
    return 2 * np.count_nonzero(sample[1:] == sample[:-1]) >= sample.size


def _texts(column: np.ndarray) -> list[str]:
    """The "%.17g" text of each value, each distinct value formatted once."""
    distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    texts = [_FLOAT_FMT % v for v in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def write_rows(fh, array) -> None:
    """Write rows to text file `fh` as CSV lines, _BLOCK_ROWS rows at a time.

    `array` is a 2-D float array, or a sequence of its columns: 1-D
    float64 arrays, and lists of ready-made texts written verbatim.
    Every float field gets 17 significant digits, and the bytes are
    those numpy's savetxt writes with fmt "%.17g", delimiter "," and
    newline LF. In a block, each run of adjacent float columns whose
    values do not repeat is formatted by one % operation, and each
    distinct value of a repeating column once (values are distinct by
    their bits, so -0.0 and 0.0, or NaNs of either sign, apart). A
    block that is one such run is written as formatted; otherwise the
    texts of its runs and columns are joined row by row, _JOIN_ROWS
    rows to a string.
    """
    columns = list(np.asarray(array, np.float64).T) if isinstance(array, np.ndarray) else array
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [column[start : start + _BLOCK_ROWS] for column in columns]
        # A column's texts: as given (list), by distinct value (_texts), or in a run (None).
        kinds = [list if isinstance(c, list) else _texts if _repeats(c) else None for c in block]
        if not any(kinds):
            fh.write(_lines(block))
            continue
        texts = []
        for kind, run in itertools.groupby(zip(kinds, block), key=lambda pair: pair[0]):
            run = [column for _, column in run]
            texts += run if kind is list else map(kind, run) if kind else [_lines(run).splitlines()]
        lines = map(",".join, zip(*texts))
        while part := list(itertools.islice(lines, _JOIN_ROWS)):
            fh.write("\n".join(part))
            fh.write("\n")


def _lines(columns: list[np.ndarray]) -> str:
    """The "%.17g" CSV lines of the rows of float `columns`, by one % operation."""
    line = ",".join([_FLOAT_FMT] * len(columns)) + "\n"
    return (line * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


@contextlib.contextmanager
def replacing(path, binary: bool = False):
    """Open a file that replaces `path` once the with-block completes.

    A text file with LF line endings, or a binary one. The data goes to a
    temporary file beside `path`: if the block raises, the temporary file
    is removed and whatever `path` held before is left untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_table(path, header: str, array) -> None:
    """Write a `header` line and the rows of `array` to the CSV file `path`.

    The file replaces `path` only once it is complete; see replacing().
    """
    with replacing(path) as fh:
        fh.write(header + "\n")
        write_rows(fh, array)


def write_csv(table: SampleTable, path) -> None:
    """Write `table` with the canonical header, 17 significant digits per field."""
    write_table(path, _HEADER, table.values)


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
    if len(table) == 0:
        return
    bad_value = np.nonzero(~np.isfinite(table.values).all(axis=1))[0]
    if bad_value.size:
        raise CsvParseError(
            f"line {bad_value[0] + 2}: non-finite numeric field",
            line_number=int(bad_value[0]) + 2,
        )
    bad_signal = np.nonzero(table.column("signal") <= 0)[0]
    if bad_signal.size:
        raise CsvParseError(
            f"line {bad_signal[0] + 2}: signal must be positive",
            line_number=int(bad_signal[0]) + 2,
        )
    bad_cat = np.nonzero(_bad_category(table.column("category")))[0]
    if bad_cat.size:
        raise CsvParseError(
            f"line {bad_cat[0] + 2}: category must be an integer in 0..{N_CATEGORIES - 1}",
            line_number=int(bad_cat[0]) + 2,
        )
