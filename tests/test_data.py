import io
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
    with pytest.raises(ConfigurationError):
        NormalizationSpec(input_max=(1.0,) * 6, output_max=(1.0,) * 3, signal_log_base=1.0)


def test_fit_normalization_uses_column_maxima():
    table = random_table(np.random.default_rng(1), 64)
    norm = fit_normalization(table)
    for j in range(6):
        assert norm.input_max[j] == table.values[:, j].max()
    assert norm.output_max[0] == np.log10(table.column("signal")).max()
    assert norm.output_max[1] == table.column("snr").max()
    assert norm.output_max[2] == table.column("output3").max()


def test_encode_inputs_layout():
    numeric = np.array([255.0, 72.0, 250.0, 1825.0, 24.5, 2000.0])
    encoded = encode_inputs(numeric, 2, NORM)
    assert encoded.shape == (10,)
    assert np.allclose(encoded[:6], numeric / np.asarray(NORM.input_max))
    assert np.array_equal(encoded[6:], [0.0, 0.0, 1.0, 0.0])

    batch = encode_inputs(np.tile(numeric, (3, 1)), [0, 1, 3], NORM)
    assert batch.shape == (3, 10)
    assert np.array_equal(batch[:, 6:], np.eye(4)[[0, 1, 3]])


def test_encode_inputs_errors():
    good = np.array([100.0, 100.0, 100.0, 100.0, 10.0, 100.0])
    bad = good.copy()
    bad[3] = 1e6
    with pytest.raises(RangeError, match="input4"):
        encode_inputs(bad, 0, NORM)
    with pytest.raises(DomainError):
        encode_inputs(good, 4, NORM)
    with pytest.raises(DomainError):
        encode_inputs(good, 1.5, NORM)
    with pytest.raises(ConfigurationError):
        encode_inputs(good[:5], 0, NORM)


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
        encode_outputs(np.array([0.0, 1.0, 1.0]), NORM)


def test_encode_table_pairs_inputs_and_outputs():
    table = random_table(np.random.default_rng(3), 16)
    norm = fit_normalization(table)
    x, y = encode_table(table, norm)
    assert x.shape == (16, 10)
    assert y.shape == (16, 3)
    assert np.allclose(y[:, 2], table.column("output3") / norm.output_max[2])


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
    with pytest.raises(ConfigurationError):
        split(100, seed=0, fractions=(0.5, 0.25, 0.35))
    with pytest.raises(ConfigurationError):
        split(100, seed=0, fractions=(1.0, 0.0, 0.0))


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
    ours, reference = io.StringIO(), io.StringIO()
    write_rows(ours, values)
    np.savetxt(reference, values, fmt="%.17g", delimiter=",", newline="\n")
    assert ours.getvalue() == reference.getvalue()


def _dataset_lines(n_rows: int) -> list[str]:
    buffer = io.StringIO()
    write_rows(buffer, random_table(np.random.default_rng(9), n_rows).values)
    return [",".join(COLUMNS)] + buffer.getvalue().splitlines()


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

    def failing_write_rows(fh, array):
        real_write_rows(fh, array[:5])
        raise OSError("disk full")

    monkeypatch.setattr(sensopt.data, "write_rows", failing_write_rows)
    with pytest.raises(OSError, match="disk full"):
        write_csv(random_table(np.random.default_rng(12), 20), path)
    with pytest.raises(OSError, match="disk full"):
        write_csv(random_table(np.random.default_rng(12), 20), tmp_path / "new.csv")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


@pytest.mark.parametrize(
    "row, tail, line_number",
    [(2000, b"\xff\xfe", 2002), (0, b"\xe9", 2), (-1, b"\xff\xfe", 1)],
)
def test_read_csv_names_the_line_that_is_not_utf8(tmp_path, row, tail, line_number):
    # row -1 puts the bytes on the header line.
    lines = [line.encode("ascii") for line in _dataset_lines(3000)]
    lines[row + 1] += tail
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvParseError) as err:
        read_csv(path)
    assert err.value.line_number == line_number
    assert str(err.value) == f"line {line_number}: not UTF-8 text"


def test_replacing_leaves_the_old_file_untouched_when_the_block_raises(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with sensopt.data.replacing(path) as fh:
            fh.write("new, half written")
            raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    with sensopt.data.replacing(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]
