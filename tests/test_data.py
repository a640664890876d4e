import io
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import sensopt.data
from conftest import random_table
from sensopt.data import (
    COLUMNS,
    DEFAULT_FRACTIONS,
    TEST,
    TRAIN,
    VALIDATION,
    NormalizationSpec,
    SampleTable,
    decode_outputs,
    encode_inputs,
    encode_outputs,
    encode_table,
    fit_normalization,
    read_csv,
    split,
    write_csv,
    write_rows,
)
from sensopt.errors import ConfigurationError, CsvParseError, DomainError, RangeError

NORM = NormalizationSpec(
    input_max=(510.0, 144.0, 500.0, 3650.0, 49.0, 4000.0),
    output_max=(6.0, 32.0, 5.0),
)


def test_column_order():
    assert COLUMNS == (
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


def test_table_shape_checked():
    with pytest.raises(ConfigurationError):
        SampleTable(np.zeros((3, 9)))
    with pytest.raises(ConfigurationError):
        SampleTable(np.zeros(10))


def test_table_column_and_select():
    table = random_table(np.random.default_rng(0), 8)
    assert np.array_equal(table.column("snr"), table.values[:, 8])
    picked = table.select([5, 1, 1])
    assert np.array_equal(picked.values, table.values[[5, 1, 1]])


def test_normalization_validation():
    with pytest.raises(ConfigurationError):
        NormalizationSpec(input_max=(1.0,) * 5, output_max=(1.0,) * 3)
    with pytest.raises(ConfigurationError):
        NormalizationSpec(input_max=(1.0,) * 6, output_max=(1.0, 0.0, 1.0))


def test_fit_normalization_uses_column_maxima():
    table = random_table(np.random.default_rng(1), 64)
    norm = fit_normalization(table)
    for j in range(6):
        assert norm.input_max[j] == table.values[:, j].max()
    assert norm.output_max[0] == np.log10(table.column("signal")).max()
    assert norm.output_max[1] == table.column("snr").max()
    assert norm.output_max[2] == table.column("output3").max()


def test_encode_inputs_layout():
    numeric = np.array([[255.0, 72.0, 250.0, 1825.0, 24.5, 2000.0]])
    encoded = encode_inputs(numeric, [2], NORM)
    assert encoded.shape == (1, 10)
    assert np.allclose(encoded[:, :6], numeric / np.asarray(NORM.input_max))
    assert np.array_equal(encoded[:, 6:], [[0.0, 0.0, 1.0, 0.0]])

    batch = encode_inputs(np.tile(numeric, (3, 1)), [0, 1, 3], NORM)
    assert batch.shape == (3, 10)
    assert np.array_equal(batch[:, 6:], np.eye(4)[[0, 1, 3]])


def test_encode_inputs_errors():
    good = np.array([[100.0, 100.0, 100.0, 100.0, 10.0, 100.0]])
    bad = good.copy()
    bad[0, 3] = 1e6
    with pytest.raises(RangeError, match="input4"):
        encode_inputs(bad, [0], NORM)
    for category in ([4], [1.5], [-1], [np.nan]):
        with pytest.raises(DomainError):
            encode_inputs(good, category, NORM)
    with pytest.raises(ConfigurationError):
        encode_inputs(good[:, :5], [0], NORM)
    # Only (n, 6) rows with (n,) categories: a lone row or a scalar
    # category is rejected, as is a count mismatch.
    for numeric, category in ((good[0], [0]), (good[0], 0), (good, 0), (good, [0, 1])):
        with pytest.raises(ConfigurationError):
            encode_inputs(numeric, category, NORM)


def test_output_round_trip():
    rng = np.random.default_rng(2)
    physical = np.column_stack(
        [10.0 ** rng.uniform(0.5, 5.5, 32), rng.uniform(1, 30, 32), rng.uniform(0.5, 4, 32)]
    )
    encoded = encode_outputs(physical, NORM)
    assert encoded.shape == physical.shape
    assert np.all((encoded > 0) & (encoded < 1.0 + 1e-12))
    recovered = decode_outputs(encoded, NORM)
    assert np.allclose(recovered, physical, rtol=1e-12)
    with pytest.raises(DomainError):
        encode_outputs(np.array([[0.0, 1.0, 1.0]]), NORM)
    # Only (n, 3) rows: a lone row or a wrong width is rejected.
    for rows in (physical[0], physical[:, :2], physical[None]):
        for codec in (encode_outputs, decode_outputs):
            with pytest.raises(ConfigurationError):
                codec(rows, NORM)


def test_encode_table_pairs_inputs_and_outputs():
    table = random_table(np.random.default_rng(3), 16)
    norm = fit_normalization(table)
    x, y = encode_table(table, norm)
    assert x.shape == (16, 10)
    assert y.shape == (16, 3)
    assert np.allclose(y[:, 2], table.column("output3") / norm.output_max[2])


def test_encode_table_is_one_unblocked_encode_bit_for_bit():
    # Ten blocks and a short one of shuffled rows: the bits, and the first
    # offending value, of encoding them all at once, while beside the
    # result only about a block's copies and temporaries are held.
    block = sensopt.data._BLOCK_ROWS
    values = random_table(np.random.default_rng(4), 12 * block).values
    rows = np.random.default_rng(5).permutation(len(values))[: 10 * block + 17]
    table = SampleTable(values[rows])
    tracemalloc.start()
    try:
        x, y = encode_table(table, NORM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.tobytes() == encode_inputs(values[rows, :6], values[rows, 6], NORM).tobytes()
    assert y.tobytes() == encode_outputs(values[rows, 7:], NORM).tobytes()
    assert peak < x.nbytes + y.nbytes + 4 * block * values[0].nbytes
    values[rows[block + 3], 2] = 501.0
    values[rows[-1], 1] = 145.0
    with pytest.raises(RangeError) as unblocked:
        encode_inputs(values[rows, :6], values[rows, 6], NORM)
    with pytest.raises(RangeError, match=re.escape(str(unblocked.value))):
        encode_table(SampleTable(values[rows]), NORM)


def test_split_sizes_and_partitioning():
    assignment = split(100, seed=0)
    assert assignment.counts() == (81, 9, 10)
    pooled = np.concatenate(
        [assignment.indices(TRAIN), assignment.indices(VALIDATION), assignment.indices(TEST)]
    )
    assert np.array_equal(np.sort(pooled), np.arange(100))

    big = split(625_000, seed=11)
    assert big.counts() == (506_250, 56_250, 62_500)


def test_split_is_seed_deterministic():
    a = split(500, seed=4)
    b = split(500, seed=4)
    c = split(500, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_split_validation():
    with pytest.raises(ConfigurationError):
        split(9, seed=0)


@pytest.mark.parametrize("n_rows, empty", [(0, "train"), (10, "validation"), (11, "validation")])
def test_split_rejects_a_row_count_that_leaves_a_partition_empty(n_rows, empty):
    # floor(0.81 n), floor(0.09 n) and the rest: (8, 0, 2) and (8, 0, 3).
    message = f"a split of {n_rows} rows leaves the {empty} partition empty"
    with pytest.raises(ConfigurationError, match=message):
        split(n_rows, seed=0)
    assert split(12, seed=0).counts() == (9, 1, 2)


def test_csv_round_trip_is_lossless(tmp_path):
    table = random_table(np.random.default_rng(6), 300)
    path = tmp_path / "rows.csv"
    write_csv(table, path)
    loaded = read_csv(path)
    assert np.array_equal(loaded.values, table.values)
    # Re-serialization is byte identical.
    second = tmp_path / "again.csv"
    write_csv(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("signal,snr\n1,2\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == 1

    header = ",".join(COLUMNS)
    path.write_text(header + "\n1,2,3\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == 2
    assert "got 3" in str(err.value)

    path.write_text(header + "\n" + "1,2,3,4,5,6,0,10,1,1\n" + "1,2,3,4,5,6,0,oops,1,1\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == 3

    path.write_text(header + "\n1,2,3,4,5,6,0,-10,1,1\n")
    with pytest.raises(CsvParseError, match="signal"):
        read_csv(path)

    path.write_text(header + "\n1,2,3,4,5,6,7,10,1,1\n")
    with pytest.raises(CsvParseError, match="category"):
        read_csv(path)


@pytest.mark.parametrize(
    "faults, message",
    [
        # The kinds are tried in this order, each over every row.
        ({9: (8, "nan"), 5: (7, "-1"), 3: (6, "1.5")}, "line 11: non-finite numeric field"),
        ({5: (7, "-1"), 3: (6, "1.5")}, "line 7: signal must be positive"),
        ({3: (6, "1.5"), 8: (6, "4")}, "line 5: category must be an integer in 0..3"),
    ],
)
def test_read_csv_names_the_first_line_of_the_first_value_fault(tmp_path, faults, message):
    path = tmp_path / "rows.csv"
    write_csv(random_table(np.random.default_rng(3), 12), path)
    lines = path.read_text().splitlines()
    for row, (column, text) in faults.items():
        fields = lines[row + 1].split(",")
        fields[column] = text
        lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert str(err.value) == message
    assert err.value.line_number == int(message.split(":")[0].split()[1])


def test_csv_chunked_reader_boundary(tmp_path):
    # Many writer blocks out, one loadtxt parse back in.
    table = random_table(np.random.default_rng(8), 65_600)
    path = tmp_path / "big.csv"
    write_csv(table, path)
    loaded = read_csv(path)
    assert np.array_equal(loaded.values, table.values)


def test_default_fractions():
    assert DEFAULT_FRACTIONS == (0.81, 0.09, 0.10)


EDGE_VALUES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, -42.0, np.nan]


@pytest.mark.parametrize("n_rows", [0, 1, sensopt.data._BLOCK_ROWS, sensopt.data._BLOCK_ROWS + 1])
def test_write_rows_matches_savetxt(n_rows):
    rng = np.random.default_rng(n_rows)
    values = rng.normal(size=(n_rows, 10)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 10))
    flat = values.ravel()
    flat[: min(flat.size, 2 * len(EDGE_VALUES))] = (EDGE_VALUES * 2)[: flat.size]
    ours, reference = io.BytesIO(), io.StringIO()
    write_rows(ours, values.T)
    np.savetxt(reference, values, fmt="%.17g", delimiter=",", newline="\n")
    assert ours.getvalue() == reference.getvalue().encode("ascii")


_TWO_BLOCKS = sensopt.data._BLOCK_ROWS + 300
_ROW = np.arange(_TWO_BLOCKS)
_TINY = np.finfo(np.float64).smallest_subnormal
_MAX = np.finfo(np.float64).max


@pytest.mark.parametrize(
    "column",
    [
        np.full(_TWO_BLOCKS, 478.0),
        np.array([0.1, 2.0, -3.5e-7, 49.0])[_ROW % 4],
        np.array([0.0, -0.0, 1.0])[_ROW % 3],
        np.array([np.nan, -np.nan, 2.5])[_ROW % 3],
        np.array([_TINY, -_TINY, 3 * _TINY, 2.2e-308, _MAX, -_MAX])[_ROW % 6],
        # The second block adds 3.0 and 0.1, which the first never holds.
        np.where(_ROW < sensopt.data._BLOCK_ROWS, np.array([1.0, 2.0])[_ROW % 2],
                 np.array([2.0, 3.0, 0.1])[_ROW % 3]),
    ],
    ids=["constant", "cycle4", "signed_zeros", "signed_nans", "subnormal_and_max",
         "new_value_in_next_block"],
)
def test_write_rows_matches_savetxt_on_repeating_columns(column):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(_TWO_BLOCKS, 4)) * 1e3
    values[:, 1] = column
    values[:, 3] = column[::-1]
    assert sensopt.data._repeats(values[:, 1]) and not sensopt.data._repeats(values[:, 0])
    ours, reference = io.BytesIO(), io.StringIO()
    write_rows(ours, values.T)
    np.savetxt(reference, values, fmt="%.17g", delimiter=",", newline="\n")
    assert ours.getvalue() == reference.getvalue().encode("ascii")


def _log_uniform():
    rng = np.random.default_rng(27)
    return 10.0 ** rng.uniform(-6, 18, 200_000) * rng.choice([-1.0, 1.0], 200_000)


def _dyadic():
    # m * 2**-j is exact, and some of these need 18 significant digits:
    # ties at the 17th, such as 1049 * 2**-20 and 2**-25.
    odd = np.arange(1, 3000, 2, dtype=np.float64)
    return np.ldexp(odd[:, None], -np.arange(70)[None, :]).ravel()


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-5, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _around_2_53():
    whole = 2.0**53 + np.arange(-100.0, 101.0)
    return np.concatenate([whole, whole / 3.0, -whole])


def _specials():
    tiny, huge = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
              2.2250738585072014e-308, huge, -huge, 1e-4, 9.9999999999999991e-05, 1e17]
    return np.array(values)


@pytest.mark.parametrize(
    "make", [_log_uniform, _dyadic, _powers_of_ten, _around_2_53, _specials],
    ids=["log_uniform", "dyadic_ties", "powers_of_ten", "around_2_53", "specials"],
)
def test_float_texts_are_percent_17g(make, monkeypatch):
    # Every value in 1e-4 <= |x| < 1e17 takes the numpy path, however few.
    monkeypatch.setattr(sensopt.data, "_VECTOR_VALUES", 1)
    values = make()
    texts = sensopt.data._float_texts(values)
    expected = np.array(["%.17g" % v for v in values.tolist()], dtype="S24")
    expected = expected.view(np.uint8).reshape(len(values), 24)
    width = texts.shape[1]
    assert width == np.count_nonzero(expected, axis=1).max()
    wrong = np.flatnonzero((texts != expected[:, :width]).any(axis=1))
    assert [values[i] for i in wrong[:5]] == []
    # The numpy path formats every value of its domain itself.
    magnitude = np.abs(values)
    fast = values[(magnitude >= 1e-4) & (magnitude < 1e17)]
    assert sensopt.data._positional(fast)[2].all()


def test_float_texts_rounds_ties_to_even():
    # 2**-25 = 2.98023223876953125e-08 falls back to Python; 1049 * 2**-20
    # = 0.00100040435791015625, 600 times over, takes the numpy path.
    texts = sensopt.data._float_texts(np.array([2.0**-25, 1049 * 2.0**-20] * 600))
    assert bytes(texts[0]).rstrip(b"\0") == b"2.9802322387695312e-08"
    assert bytes(texts[1]).rstrip(b"\0") == b"0.0010004043579101562"


@pytest.mark.parametrize("repeating", [False, True])
@pytest.mark.parametrize("n_rows", [100, sensopt.data._BLOCK_ROWS + 1])
def test_write_rows_writes_text_columns_verbatim(n_rows, repeating):
    rng = np.random.default_rng(n_rows)
    values = rng.normal(size=(n_rows, 3)) * 1e3
    if repeating:
        values[:, 1] = np.array([478.0, -0.0, 0.1, np.nan])[np.arange(n_rows) % 4]
    assert sensopt.data._repeats(values[:, 1]) == repeating
    names = np.array([f"t{i}" for i in range(n_rows)], dtype="S")
    ranks = np.array(["" if i % 7 == 3 else str(i // 2) for i in range(n_rows)], dtype="S")
    ours = io.BytesIO()
    write_rows(ours, [values[:, 0], names, values[:, 1], values[:, 2], ranks])
    reference = io.StringIO()
    np.savetxt(reference, values, fmt="%.17g", delimiter=",", newline="\n")
    lines = [
        f"{a},{name.decode()},{b},{c},{rank.decode()}\n"
        for (a, b, c), name, rank in zip(
            (line.split(",") for line in reference.getvalue().splitlines()), names, ranks
        )
    ]
    assert ours.getvalue() == "".join(lines).encode("ascii")


def _dataset_lines(n_rows: int) -> list[str]:
    buffer = io.BytesIO()
    write_rows(buffer, random_table(np.random.default_rng(9), n_rows).values.T)
    return [",".join(COLUMNS)] + buffer.getvalue().decode("ascii").splitlines()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: f[:7] + ["oops"] + f[8:], "unparseable numeric field"),
        (lambda f: f[:9], "expected 10 fields, got 9"),
        (lambda f: ["1_0"] + f[1:], "unparseable numeric field"),
        (lambda f: ['"1"'] + f[1:], "unparseable numeric field"),
        (lambda f: [], "expected 10 fields, got 0"),
    ],
)
def test_read_csv_names_the_bad_line_beyond_the_first_block(tmp_path, edit, message):
    lines = _dataset_lines(6000)
    lines[5000] = ",".join(edit(lines[5000].split(",")))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == 5001
    assert str(err.value) == f"line 5001: {message}"


@pytest.mark.parametrize("field", ["1_0", '"1"', "0x10", "1e", "١", " 1 ", "\t+.5e3", "\xa01"])
def test_read_csv_rejects_exactly_the_fields_loadtxt_rejects(tmp_path, field):
    # Line 3 has the field, line 4 is blank: whichever comes first is named.
    lines = _dataset_lines(4)
    lines[2] = field + lines[2][lines[2].index(",") :]
    lines[3] = ""
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        np.loadtxt([field], delimiter=",", comments=None)
        expected = 4
    except ValueError:
        expected = 3
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == expected


@pytest.mark.parametrize("column, value", [("snr", "nan"), ("signal", "inf"), ("input2", "-Infinity")])
def test_read_csv_rejects_non_finite_fields(tmp_path, column, value):
    lines = _dataset_lines(300)
    fields = lines[101].split(",")
    fields[COLUMNS.index(column)] = value
    lines[101] = ",".join(fields)
    path = tmp_path / "nonfinite.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvParseError, match="non-finite") as err:
        read_csv(path)
    assert err.value.line_number == 102
    assert str(err.value).startswith("line 102: ")


def test_read_csv_accepts_crlf_line_endings(tmp_path):
    table = random_table(np.random.default_rng(10), 50)
    path = tmp_path / "rows.csv"
    write_csv(table, path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(read_csv(crlf).values, table.values)


def test_read_csv_accepts_lone_cr_line_endings(tmp_path):
    # Lines end as in Python's universal newlines mode: lone CRs, alone or
    # mixed with LFs and CRLFs, and a last line without an ending.
    table = random_table(np.random.default_rng(13), 40)
    path = tmp_path / "rows.csv"
    write_csv(table, path)
    lines = path.read_bytes().split(b"\n")[:-1]
    cr = tmp_path / "cr.csv"
    cr.write_bytes(b"\r".join(lines) + b"\r")
    assert np.array_equal(read_csv(cr).values, table.values)
    endings = [b"\r", b"\n", b"\r\n"] * 13 + [b"\r"]
    cr.write_bytes(b"".join(line + ending for line, ending in zip(lines, endings)) + lines[-1])
    assert np.array_equal(read_csv(cr).values, table.values)
    # CR CR LF ends a line, then a blank one.
    cr.write_bytes(b"\r\r\n".join(lines) + b"\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(cr)
    assert str(err.value) == "line 2: expected 10 fields, got 0"


@pytest.mark.parametrize("boundary", [1, 2, 3, 7, 64])
def test_read_csv_counts_lines_across_block_boundaries(tmp_path, boundary):
    # About 550 KB, 67 of the text layer's 8 KiB reads. A CRLF and a
    # two-byte character across the given read boundary count once and
    # decode; a trailing blank line and a bad byte are named as before.
    at = boundary * 8192 - 1
    lines = [line.encode("ascii") for line in _dataset_lines(3500)]
    path = tmp_path / "rows.csv"
    # Leading zeros on the first field of the row whose CR comes last
    # before the boundary put that CR just before it.
    padded = list(lines)
    row = b"\r\n".join(lines).count(b"\r", 0, at) - 1
    padded[row] = b"0" * (at - len(b"\r\n".join(lines[: row + 1]))) + lines[row]
    crlf = b"\r\n".join(padded)
    assert crlf[at : at + 2] == b"\r\n"
    path.write_bytes(crlf)
    assert read_csv(path).values.shape == (3500, 10)
    path.write_bytes(crlf + b"\r\n\r\n")
    with pytest.raises(CsvParseError, match="line 3502: expected 10 fields, got 0"):
        read_csv(path)
    # The é goes where its two bytes straddle the boundary.
    row = b"\n".join(lines).count(b"\n", 0, at)
    col = at - sum(len(line) + 1 for line in lines[:row])
    lines[row] = lines[row][:col] + "é".encode() + lines[row][col:]
    assert (b"\n".join(lines))[at : at + 2] == "é".encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvParseError, match=f"line {row + 1}: unparseable numeric field"):
        read_csv(path)
    lines[row] = lines[row][: col + 1] + lines[row][col + 2 :]  # half of the two-byte character
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert str(err.value) == f"line {row + 1}: not UTF-8 text"


def test_read_csv_header_only_gives_empty_table_without_warning(tmp_path):
    for text in (",".join(COLUMNS) + "\n", ",".join(COLUMNS)):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_csv(path)
        assert table.values.shape == (0, 10)


def test_failed_write_leaves_the_old_file_untouched(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    write_csv(random_table(np.random.default_rng(11), 20), path)
    before = path.read_bytes()
    real_write_rows = sensopt.data.write_rows

    def failing_write_rows(fh, columns):
        real_write_rows(fh, columns[:5])
        raise OSError("disk full")

    monkeypatch.setattr(sensopt.data, "write_rows", failing_write_rows)
    with pytest.raises(OSError, match="disk full"):
        write_csv(random_table(np.random.default_rng(12), 20), path)
    with pytest.raises(OSError, match="disk full"):
        write_csv(random_table(np.random.default_rng(12), 20), tmp_path / "new.csv")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


@pytest.mark.parametrize(
    "endings",
    [
        # LF, the ending sensopt writes, adds nothing to the case names.
        pytest.param([b"\n"], id=pytest.HIDDEN_PARAM),
        pytest.param([b"\r\n"], id="crlf"),
        pytest.param([b"\r"], id="cr"),
        pytest.param([b"\r", b"\n", b"\r\n"], id="mixed"),
    ],
)
@pytest.mark.parametrize(
    "row, tail, line_number",
    [(2000, b"\xff\xfe", 2002), (0, b"\xe9", 2), (-1, b"\xff\xfe", 1)],
)
def test_read_csv_names_the_line_that_is_not_utf8(tmp_path, row, tail, line_number, endings):
    # row -1 puts the bytes on the header line; the endings take turns.
    lines = [line.encode("ascii") for line in _dataset_lines(3000)]
    lines[row + 1] += tail
    path = tmp_path / "bad.csv"
    path.write_bytes(b"".join(map(bytes.__add__, lines, itertools.cycle(endings))))
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == line_number
    assert str(err.value) == f"line {line_number}: not UTF-8 text"


@pytest.mark.parametrize(
    "line_number, text, message",
    [
        (3, b"1_0,2,3,4,5,6,0,10,1,1", "line 3: unparseable numeric field"),
        (1, b"signal,snr", f"line 1: expected header {','.join(COLUMNS)!r}"),
    ],
    ids=["literal", "header"],
)
def test_read_csv_names_the_first_line_with_a_text_fault(tmp_path, line_number, text, message):
    # Lines are checked in order, so an earlier line's literal or header
    # is named before the bad byte four lines on.
    lines = [line.encode("ascii") for line in _dataset_lines(10)]
    lines[line_number - 1] = text
    lines[line_number + 3] += b"\xff"
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert str(err.value) == message


def test_replacing_leaves_the_old_file_untouched_when_the_block_raises(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with sensopt.data.replacing(path) as fh:
            fh.write(b"new, half written")
            raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    with sensopt.data.replacing(path) as fh:
        fh.write(b"new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


@pytest.mark.parametrize("input_max0, output_max0", [(np.nan, 1.0), (1.0, np.inf)])
def test_normalization_rejects_non_finite_maxima(input_max0, output_max0):
    with pytest.raises(ConfigurationError, match="finite"):
        NormalizationSpec(input_max=(input_max0,) + (1.0,) * 5, output_max=(output_max0, 1.0, 1.0))
