"""Sample table container, normalization transforms, partition splits and CSV I/O.

A sample row is the 10-tuple
(input1..input4, input5, input6, category, signal, snr, output3).
The six numeric inputs are normalized by a per-input maximum, the
category becomes a 4-way one-hot block, and the outputs are scaled to
[0, 1] after a log10 transform of the signal. Maxima are fitted from the
training partition and persisted with the model, so encoding is a pure
function of (row, normalization spec). split() assigns rows to the
train/validation/test partitions in the fixed shares DEFAULT_FRACTIONS.

CSV contract, shared by every float table sensopt writes (the dataset,
the predicted-vs-actual pairs, the selected curves): a header line of
comma-separated column names, then one line per row whose fields are
float64 values printed with 17 significant digits, so they read back
exactly. Files are written with LF line endings, through a temporary
file that replaces the target only once it is complete. In a column whose
values repeat, such as a dataset's settings, input5, category and
output3, the writer formats each distinct value once per block of rows;
the bytes are those of formatting every field. read_csv()
reads UTF-8 text with LF, CRLF or lone CR line endings and rejects,
naming the 1-based line:
  - bytes that are not UTF-8 text;
  - a header other than COLUMNS;
  - a line without exactly 10 fields, blank lines included;
  - a field that is not a decimal literal (quoted fields, `1_0`-style
    and hex literals are rejected);
  - a non-finite field (nan, inf);
  - a non-positive signal, or a category that is not an integer in 0..3.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import os
import re
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
# Rows formatted per % operation: bounds the text held in memory at once.
_BLOCK_ROWS = 4096
# Leading rows of a block's column that decide whether its values repeat
# enough to format each distinct value once (see write_rows).
_SAMPLE_ROWS = 64
# Bytes read at a time when read_csv() counts a file's lines.
_SCAN_BYTES = 1 << 20
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


def _check_category(category: np.ndarray) -> np.ndarray:
    cat = np.asarray(category, dtype=np.float64)
    rounded = np.rint(cat)
    if np.any(cat != rounded) or np.any(rounded < 0) or np.any(rounded >= N_CATEGORIES):
        raise DomainError(
            f"category values must be integers in 0..{N_CATEGORIES - 1}"
        )
    return rounded.astype(np.intp)


def encode_inputs(
    numeric: np.ndarray, category: np.ndarray, norm: NormalizationSpec
) -> np.ndarray:
    """Encode raw inputs into the network's 10-entry input vector.

    Args:
        numeric: shape (6,) or (n, 6), the values of input1..input6.
        category: scalar or shape (n,), integer category 0..3.
        norm: scaling constants to divide by.

    Returns:
        Array of shape (10,) or (n, 10): six normalized numerics followed
        by a one-hot category block.

    Raises:
        RangeError: a numeric value exceeds its recorded maximum.
        DomainError: category outside 0..3 or non-integral.
    """
    arr = np.asarray(numeric, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.shape[1] != N_NUMERIC_INPUTS:
        raise ConfigurationError(
            f"expected {N_NUMERIC_INPUTS} numeric inputs per row, got {rows.shape[1]}"
        )
    maxima = np.asarray(norm.input_max)
    over = rows > maxima
    if np.any(over):
        r, c = np.argwhere(over)[0]
        raise RangeError(
            f"{COLUMNS[c]} value {rows[r, c]!r} exceeds recorded maximum {maxima[c]!r}"
        )
    cat = _check_category(category)
    if cat.ndim == 0:
        cat = cat[None]
    if cat.shape[0] != rows.shape[0]:
        raise ConfigurationError("numeric rows and category entries must match in count")
    encoded = np.zeros((rows.shape[0], ENCODED_INPUT_SIZE))
    np.divide(rows, maxima, out=encoded[:, :N_NUMERIC_INPUTS])
    encoded[np.arange(rows.shape[0]), N_NUMERIC_INPUTS + cat] = 1.0
    return encoded[0] if single else encoded


def encode_outputs(outputs: np.ndarray, norm: NormalizationSpec) -> np.ndarray:
    """Scale physical (signal, snr, output3) rows into normalized targets.

    The signal passes through log10 before scaling; all three entries land
    in [0, 1] on the data the spec was fitted from.
    """
    arr = np.asarray(outputs, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.shape[1] != N_OUTPUTS:
        raise ConfigurationError(f"expected {N_OUTPUTS} outputs per row, got {rows.shape[1]}")
    if np.any(rows[:, 0] <= 0):
        raise DomainError("signal must be positive for the log transform")
    maxima = np.asarray(norm.output_max)
    encoded = np.empty_like(rows)
    encoded[:, 0] = np.log10(rows[:, 0]) / maxima[0]
    encoded[:, 1] = rows[:, 1] / maxima[1]
    encoded[:, 2] = rows[:, 2] / maxima[2]
    return encoded[0] if single else encoded


def decode_outputs(encoded: np.ndarray, norm: NormalizationSpec) -> np.ndarray:
    """Invert encode_outputs back to physical units."""
    arr = np.asarray(encoded, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.shape[1] != N_OUTPUTS:
        raise ConfigurationError(f"expected {N_OUTPUTS} outputs per row, got {rows.shape[1]}")
    maxima = np.asarray(norm.output_max)
    decoded = np.empty_like(rows)
    decoded[:, 0] = 10.0 ** (rows[:, 0] * maxima[0])
    decoded[:, 1] = rows[:, 1] * maxima[1]
    decoded[:, 2] = rows[:, 2] * maxima[2]
    return decoded[0] if single else decoded


def encode_table(
    table: SampleTable, norm: NormalizationSpec, rows: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the rows of `table` at `rows` (all by default) into (inputs, targets) arrays.

    The inputs, the category and the outputs are gathered apart, each
    just before it is encoded, so the rows are never copied as a table.
    """
    values = table.values
    x = encode_inputs(values[rows, :N_NUMERIC_INPUTS], values[rows, N_NUMERIC_INPUTS], norm)
    y = encode_outputs(values[rows, N_NUMERIC_INPUTS + 1 :], norm)
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


def _texts(column: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each value, each distinct value formatted once."""
    distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    texts = [_FLOAT_FMT % v for v in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse]


def write_rows(fh, array) -> None:
    """Write the rows of a 2-D array to text file `fh` as CSV lines.

    Every field gets 17 significant digits, and the bytes are those numpy's
    savetxt writes with fmt "%.17g", delimiter "," and newline LF. A block
    of rows with no repeating column is written by a single % operation.
    Otherwise the block is built column by column: each distinct value of
    a repeating column is formatted once and its text spliced in, each
    other column is formatted by one % operation, and the column texts
    are joined row by row. Values are distinct by their bits, so -0.0
    and 0.0, or NaNs of either sign, are each formatted on their own.
    """
    rows = np.asarray(array, dtype=np.float64)
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        repeated = [_repeats(column) for column in block.T]
        if not any(repeated):
            line = ",".join([_FLOAT_FMT] * block.shape[1]) + "\n"
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
            continue
        columns = [
            _texts(column).tolist() if r else _column_texts(column)
            for r, column in zip(repeated, block.T)
        ]
        fh.write("\n".join(map(",".join, zip(*columns))))
        fh.write("\n")


def _column_texts(column: np.ndarray) -> list[str]:
    """The "%.17g" text of each value, formatted by one % operation."""
    return ((_FLOAT_FMT + "\n") * column.size % tuple(column.tolist())).splitlines()


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

    The body is parsed by numpy's loadtxt; only when that fails does a
    line-by-line pass run, to name the first bad line.

    Raises:
        CsvParseError: bytes that are not UTF-8 text, wrong header, wrong
            field count, an unparseable or non-finite field, a
            non-positive signal or a non-integral category; the message
            carries the offending 1-based line number.
    """
    n_cols = len(COLUMNS)
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        n_rows = _count_lines(path) - 1
    except UnicodeDecodeError:
        raise _first_undecodable_line(path) from None
    if header.rstrip("\n") != _HEADER:
        raise CsvParseError(f"line 1: expected header {_HEADER!r}", line_number=1)
    values = np.empty((0, n_cols))
    if n_rows:
        try:
            values = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="utf-8"
            )
        except ValueError:
            values = None
        # loadtxt skips blank lines, which the row count exposes.
        if values is None or values.shape != (n_rows, n_cols):
            raise _first_bad_line(path)
    table = SampleTable(values)
    _validate_rows(table)
    return table


def _count_lines(path) -> int:
    """The number of lines of `path`, checking on the way that it is UTF-8 text.

    Lines end as in Python's universal newlines mode, at LF, CRLF or a
    lone CR, and a last line without an ending counts too. The file is
    read in binary blocks of _SCAN_BYTES, so no line is decoded alone.

    Raises:
        UnicodeDecodeError: the bytes are not UTF-8 text.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    endings, last = 0, b""
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BYTES):
            decoder.decode(block)
            endings += block.count(b"\n")
            if b"\r" in block:
                endings += block.count(b"\r") - block.count(b"\r\n")
            # A CRLF split between two blocks is one ending, not two.
            endings -= last == b"\r" and block[:1] == b"\n"
            last = block[-1:]
    decoder.decode(b"", final=True)
    return endings + (last not in (b"", b"\r", b"\n"))


def _first_undecodable_line(path) -> CsvParseError:
    """The error for the first line of `path` that is not UTF-8 text."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return CsvParseError(f"line {line_no}: not UTF-8 text", line_number=line_no)
    return CsvParseError(f"{os.fspath(path)}: not UTF-8 text")


def _first_bad_line(path) -> CsvParseError:
    """The error for the first data line of `path` that cannot be parsed."""
    n_cols = len(COLUMNS)
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line_no, line in enumerate(fh, start=2):
            text = line.rstrip("\n")
            fields = text.split(",") if text else []
            if len(fields) != n_cols:
                return CsvParseError(
                    f"line {line_no}: expected {n_cols} fields, got {len(fields)}",
                    line_number=line_no,
                )
            if not all(_NUMBER.fullmatch(field.strip()) for field in fields):
                return CsvParseError(
                    f"line {line_no}: unparseable numeric field", line_number=line_no
                )
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
    cat = table.column("category")
    bad_cat = np.nonzero((cat != np.rint(cat)) | (cat < 0) | (cat >= N_CATEGORIES))[0]
    if bad_cat.size:
        raise CsvParseError(
            f"line {bad_cat[0] + 2}: category must be an integer in 0..{N_CATEGORIES - 1}",
            line_number=int(bad_cat[0]) + 2,
        )
