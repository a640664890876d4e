"""Interpolated design-space sweep over a trained surrogate.

A sweep's grid is an oracle.GridSpec, built by axis_grid() from one
AxisSpec per input; run_sweep() and predict_curves() check once that
the model maps 10 encoded inputs to 3 outputs and that the (n, 5)
settings are finite and within its maxima. A chunk of
CHUNK_COMBINATIONS settings rows is predicted into (chunk, 200) blocks of
curves by one kernel, _ChunkPredictor.predict(), which checks nothing:
it writes the chunk's settings into an encoded input block whose other
columns were written once, runs the network's tiled forward and
decodes and sorts the outputs, all in buffers sized once for the grid.
curves.criteria_block() scores a whole block with array operations;
dense_ranks() assigns dense ascending ranks per criterion; select_row()
finds the smallest K whose per-criterion top-K sets intersect, breaking
ties by rank sum and then lexicographic settings order.

run_sweep() scores the chunks on one thread per CPU (the calling thread
and helpers), each with its own buffers, and keeps only the settings
and criteria of every candidate, NaN where a predicted signal is not
positive: peak memory is one block of predicted rows per worker plus
one row of settings, criteria and ranks per candidate, never the full
point cloud. The calling thread allocates every worker's
_ChunkPredictor; per chunk, a worker then allocates only the scaled
settings, a short chunk's np.resize() pad, argsort's order array and
criteria_block()'s temporaries. One candidate is selected
under each subset of SELECTION_SUBSETS. predict_curves()
runs the same kernel on a settings array, one chunk after another, and
yields its curves one at a time.
rank_candidates() builds a SweepResult of (settings, criteria) pairs,
select() selects among a SweepResult's rows and is the one maker of a
SelectionResult. write_report_csv() writes every candidate, a block of
rows at a time.

Export rule: a combination's curve has the same bits in every predicted
block of network.BIT_STABLE_ROWS rows or more, whichever combinations
share that block. The kernel never predicts a block of fewer than
MIN_BLOCK_COMBINATIONS combinations, padding a shorter chunk with
repeats of its rows, so predict_curves() yields, for settings of any
length, the curves run_sweep() scored for them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import Curve, CriteriaValues, criteria_block
from .data import (
    COLUMN_INDEX,
    ENCODED_INPUT_SIZE,
    N_NUMERIC_INPUTS,
    N_OUTPUTS,
    check_maxima,
    decode_outputs,
    encode_inputs,
    replacing,
    write_rows,
)
from .errors import ConfigurationError, DomainError, SelectionError, ShapeError
from .network import (
    BIT_STABLE_ROWS,
    Model,
    TileBuffers,
    empty_tile_buffers,
    forward_tiles_into,
    tile_rows,
)
# Not called here: bindings perfbench/spans.py wraps (see tests/test_imports.py).
from .curves import criteria  # noqa: F401
from .network import predict  # noqa: F401
from .oracle import (
    CATEGORY,
    INPUT5,
    ROW_BUDGET,
    ROWS_PER_COMBINATION,
    SETTING_NAMES,
    SETTING_RANGES,
    GridSpec,
)

ALL_CRITERIA = (1, 2, 3, 4)
# The criteria subsets run_sweep() selects a candidate under.
SELECTION_SUBSETS = (ALL_CRITERIA, (1, 2, 3))
DEFAULT_POINTS_PER_AXIS = 9
# Combinations per predicted block: 64 * 200 = 12,800 rows share the
# network's forward tiles.
CHUNK_COMBINATIONS = 64
# The fewest combinations whose block has at least BIT_STABLE_ROWS rows
# (3 * 200 = 600): see the export rule above.
MIN_BLOCK_COMBINATIONS = -(-BIT_STABLE_ROWS // ROWS_PER_COMBINATION)
# Report rows per write_rows() call, one of its blocks: bounds the rank and
# flag byte strings and the field bytes held in memory at once.
_REPORT_BLOCK_ROWS = 4096
# Each settings input's column in a sample row and in the model's input maxima.
_SETTING_COLUMNS = [COLUMN_INDEX[name] for name in SETTING_NAMES]


@dataclass(frozen=True)
class AxisSpec:
    """Arithmetic progression minimum, minimum + step, ... clipped at maximum."""

    minimum: float
    maximum: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.minimum, self.maximum, self.step)):
            raise ConfigurationError(
                f"axis bounds and step must be finite, got {self.minimum!r}, "
                f"{self.maximum!r}, {self.step!r}"
            )
        if self.step <= 0:
            raise ConfigurationError(f"step must be positive, got {self.step!r}")
        if self.maximum < self.minimum:
            raise ConfigurationError(f"maximum {self.maximum!r} below minimum {self.minimum!r}")
        # values() then holds no more values than a grid under the budget.
        if (self.maximum - self.minimum) / self.step >= ROW_BUDGET // ROWS_PER_COMBINATION:
            raise ConfigurationError(f"step {self.step!r} makes an axis over the row budget")

    @property
    def count(self) -> int:
        # The epsilon absorbs float noise when (max - min) / step is integral.
        return int(math.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        vals = self.minimum + self.step * np.arange(self.count)
        return np.minimum(vals, self.maximum)


def axis_grid(axes: Sequence[AxisSpec]) -> GridSpec:
    """The GridSpec, checked as such, of one axis per input of SETTING_NAMES, in order."""
    if len(axes) != len(SETTING_NAMES):
        raise ConfigurationError(f"expected {len(SETTING_NAMES)} axes, got {len(axes)}")
    return GridSpec(*(tuple(axis.values().tolist()) for axis in axes))


def default_sweep_spec(points_per_axis: int = DEFAULT_POINTS_PER_AXIS) -> GridSpec:
    """Uniform grid spanning each input's full recorded range."""
    if points_per_axis < 2:
        raise ConfigurationError("points_per_axis must be at least 2")
    steps = points_per_axis - 1
    return axis_grid([AxisSpec(lo, hi, (hi - lo) / steps) for lo, hi in SETTING_RANGES])


def _check_inside_model(model: Model, settings: np.ndarray) -> None:
    """Raise a ShapeError, DomainError or RangeError if `model` cannot sweep `settings`.

    In this order: model widths other than (10, 3) or settings not (n, 5);
    the first non-finite setting in row-major order; the first value over
    its maximum, input5's sweep first and then `settings` in row-major order.
    """
    widths = (model.config.n_inputs, model.config.n_outputs)
    if widths != (ENCODED_INPUT_SIZE, N_OUTPUTS):
        raise ShapeError(f"model (inputs, outputs) {widths}; a sweep needs (10, 3)")
    if settings.ndim != 2 or settings.shape[1] != len(SETTING_NAMES):
        raise ShapeError(f"settings must have shape (n, 5), got {settings.shape}")
    bad = np.argwhere(~np.isfinite(settings))
    if len(bad):
        r, c = bad[0]
        raise DomainError(f"{SETTING_NAMES[c]} value {float(settings[r, c])!r} is not finite")
    maxima = np.asarray(model.normalization.input_max)
    check_maxima(INPUT5[-1:, None], maxima[[COLUMN_INDEX["input5"]]], ["input5"])
    check_maxima(settings, maxima[_SETTING_COLUMNS], SETTING_NAMES)


class _ChunkPredictor:
    """The buffers that predict and score the chunks of a grid of `n` combinations.

    Made once per worker and run, and reused for every chunk it predicts:
    the grid's chunks of CHUNK_COMBINATIONS combinations and its last,
    possibly shorter, chunk, which forward_tiles_into() may cut into
    longer tiles. The buffers hold blocks of MIN_BLOCK_COMBINATIONS or
    more and the longer of the two tiles, so predicting never allocates them.

    The encoded input block's input5 and one-hot category columns are
    the same for every chunk, so they are encoded here, once, by
    data.encode_inputs() on one combination's rows, and a chunk writes
    only its five settings columns, scaled as encode_inputs() scales
    them. The outputs are decoded by data.decode_outputs() into a
    buffer, so the curves are those of network.predict() on the chunk,
    bit for bit. predict() checks nothing.
    """

    def __init__(self, model: Model, n: int, tiles: TileBuffers | None = None):
        """Buffers for `model`, sharing the tiled biases of `tiles` if given.

        `tiles` must come from a predictor for a grid of the same size.
        """
        self.model = model
        self.settings_max = np.asarray(model.normalization.input_max)[_SETTING_COLUMNS]
        combinations = max(min(n, CHUNK_COMBINATIONS), MIN_BLOCK_COMBINATIONS)
        rows = combinations * ROWS_PER_COMBINATION
        last = max((n - 1) % CHUNK_COMBINATIONS + 1, MIN_BLOCK_COMBINATIONS)
        last_rows = last * ROWS_PER_COMBINATION
        template = np.zeros((ROWS_PER_COMBINATION, N_NUMERIC_INPUTS))
        template[:, COLUMN_INDEX["input5"]] = INPUT5
        combination = encode_inputs(template, CATEGORY, model.normalization)
        self.encoded = np.tile(combination, (combinations, 1))
        self.outputs = np.empty((rows, model.config.n_outputs))
        if tiles is None:
            longest = max(tile_rows(rows), tile_rows(last_rows))
            self.tiles = empty_tile_buffers(model.params, model.config, longest)
        else:
            self.tiles = tiles.for_another_thread()
        self.decoded = np.empty((3, rows))
        self.curves = np.empty((3, combinations, ROWS_PER_COMBINATION))
        # Each row's offset into the decoded columns, for every point: a
        # broadcast (m, 1) operand would make numpy allocate a buffer.
        self.row_starts = np.repeat(
            np.arange(0, rows, ROWS_PER_COMBINATION)[:, None], ROWS_PER_COMBINATION, axis=1
        )

    def predict(self, settings: np.ndarray) -> np.ndarray:
        """The (3, m, 200) signal, snr and output3 curves of one chunk's (m, 5) `settings`.

        Each row is one combination's curve, sorted by ascending signal
        with a stable sort. A chunk of fewer than MIN_BLOCK_COMBINATIONS
        combinations is predicted in a block padded with repeats of its
        rows, by the export rule above. The result is a view into this
        object's buffers, valid until the next call.
        """
        chunk = settings.shape[0]
        if chunk < MIN_BLOCK_COMBINATIONS:
            settings = np.resize(settings, (MIN_BLOCK_COMBINATIONS, settings.shape[1]))
        m = settings.shape[0]
        rows = m * ROWS_PER_COMBINATION
        scaled = settings / self.settings_max
        block = self.encoded[:rows].reshape(m, ROWS_PER_COMBINATION, -1)
        block[:, :, 0:4] = scaled[:, None, 0:4]
        block[:, :, 5] = scaled[:, 4, None]
        outputs = self.outputs[:rows]
        forward_tiles_into(
            self.model.params, self.model.config, self.encoded[:rows], outputs, self.tiles
        )
        decoded = self.decoded[:, :rows]
        decode_outputs(outputs, self.model.normalization, out=decoded.T)
        order = np.argsort(decoded[0].reshape(m, -1), axis=1, kind="stable")
        order += self.row_starts[:m]
        curves = self.curves[:, :m]
        for column, curve in zip(decoded, curves):
            np.take(column, order, out=curve, mode="clip")
        return curves[:, :chunk]


def predict_curves(model: Model, settings) -> Iterator[Curve]:
    """Predict one 200-point curve per row of the (n, 5) `settings`, in row order.

    `settings` is an array or a sequence of rows. They are predicted
    CHUNK_COMBINATIONS at a time by one _ChunkPredictor, each chunk's
    curves copied into arrays of their own. Before any chunk is
    predicted, settings that are not (n, 5) or a model of other widths
    raise a ShapeError, a non-finite setting a DomainError and a setting
    outside the model's normalization range a RangeError, each naming
    its input; a predicted signal that is not positive raises a
    DomainError, from Curve.
    """
    settings = np.asarray(settings, dtype=np.float64)
    _check_inside_model(model, settings)
    n = len(settings)
    if not n:
        return
    predictor = _ChunkPredictor(model, n)
    for start in range(0, n, CHUNK_COMBINATIONS):
        chunk = settings[start : start + CHUNK_COMBINATIONS]
        curves = predictor.predict(chunk).copy()
        for row, signal, snr, output3 in zip(chunk.tolist(), *curves):
            yield Curve(settings=tuple(row), signal=signal, snr=snr, output3=output3)


@dataclass(frozen=True)
class CandidateScore:
    """A SweepResult.candidates row: a combination, its criteria, its dense rank per criterion.

    ranks[i - 1] is the 0-based dense ascending rank under criterion i,
    or None when the candidate is unscorable there (NaN criterion).
    """

    settings: tuple[float, ...]
    criteria: CriteriaValues
    ranks: tuple[int | None, int | None, int | None, int | None]


def _check_subset(subset: Sequence[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(int(i) for i in subset)))
    if not out or any(i not in ALL_CRITERIA for i in out):
        raise ConfigurationError(f"criterion subset must be a nonempty subset of {ALL_CRITERIA}")
    return out


def dense_ranks(values) -> np.ndarray:
    """0-based dense ascending ranks of each column of `values`; -1 where NaN.

    Equal values share a rank. `values` is (n, c); so is the int result.
    """
    values = np.asarray(values, dtype=np.float64)
    ranks = np.full(values.shape, -1, dtype=np.int64)
    for column in range(values.shape[1]):
        scorable = ~np.isnan(values[:, column])
        ranks[scorable, column] = np.unique(values[scorable, column], return_inverse=True)[1]
    return ranks


def select_row(settings, ranks, subset: Sequence[int]) -> tuple[int, int]:
    """Smallest-K prefix-intersection selection on arrays: (row, K).

    `settings` is (n, d) and `ranks` (n, 4), one row per candidate, with
    -1 for a criterion the candidate is unranked on. K is the smallest
    value for which the per-criterion top-K sets (rank < K) over `subset`
    share a candidate. Among that intersection the lowest rank sum wins;
    remaining ties go to the lexicographically smallest settings, then to
    the first row. Rows unranked on any subset criterion are excluded.

    Raises:
        SelectionError: every candidate is unranked on the subset.
    """
    subset = _check_subset(subset)
    picked = np.asarray(ranks)[:, [i - 1 for i in subset]]
    scorable = np.all(picked >= 0, axis=1)
    if not np.any(scorable):
        raise SelectionError(f"no candidate is scorable on criteria {subset}")
    worst = picked.max(axis=1)
    k = int(worst[scorable].min()) + 1
    pool = np.nonzero(scorable & (worst < k))[0]
    # lexsort's last key is the primary one.
    keys = (*np.asarray(settings)[pool].T[::-1], picked[pool].sum(axis=1))
    return int(pool[np.lexsort(keys)[0]]), k


def rank_candidates(
    scored: Sequence[tuple[tuple[float, ...], CriteriaValues]],
) -> SweepResult:
    """The SweepResult, with no selections, of (settings, criteria) pairs.

    Its rows are sorted by settings (lexicographically), so the result is
    independent of input order, and ranked by dense_ranks(): ties share a rank.
    """
    if not scored:
        raise ConfigurationError("no candidates to rank")
    ordered = sorted(scored, key=lambda item: item[0])
    values = np.array([crit.as_tuple() for _, crit in ordered], dtype=np.float64)
    settings = np.array([row for row, _ in ordered], dtype=np.float64)
    return SweepResult(settings, values, dense_ranks(values), selections={})


@dataclass(frozen=True)
class SelectionResult:
    """A selection; `row` indexes the rows of the SweepResult it was selected from."""

    settings: tuple[float, ...]
    criteria: CriteriaValues
    k: int
    subset: tuple[int, ...]
    row: int


def select(result: SweepResult, subset: Sequence[int]) -> SelectionResult:
    """Smallest-K selection over `subset` (see select_row()) among `result`'s rows.

    Raises:
        SelectionError: every candidate is unscorable on the subset.
    """
    subset = _check_subset(subset)
    row, k = select_row(result.settings, result.ranks, subset)
    criteria = CriteriaValues(*result.criteria[row].tolist())
    return SelectionResult(tuple(result.settings[row].tolist()), criteria, k, subset, row)


@dataclass
class SweepResult:
    """Candidates in lexicographic settings order, and the selections made among them.

    Row i of `settings` (n, d), `criteria` (n, 4) and `ranks` (n, 4) is
    one candidate; ranks are 0-based dense ascending ranks per criterion,
    -1 where the candidate is unscorable (NaN criterion). run_sweep()
    selects under each of SELECTION_SUBSETS; a rank_candidates() result
    has no selections.
    """

    settings: np.ndarray
    criteria: np.ndarray
    ranks: np.ndarray
    selections: dict[tuple[int, ...], SelectionResult]

    @property
    def candidates(self) -> list[CandidateScore]:
        """The candidates as CandidateScore records, in row order."""
        rows = zip(self.settings.tolist(), self.criteria.tolist(), self.ranks.tolist())
        return [
            CandidateScore(
                tuple(settings), CriteriaValues(*crit), tuple(None if r < 0 else r for r in ranks)
            )
            for settings, crit, ranks in rows
        ]

    def summary(self) -> dict:
        return {
            "candidate_count": len(self.settings),
            "selections": {
                subset_label(subset): {
                    "settings": dict(zip(SETTING_NAMES, sel.settings)),
                    "criteria": dataclasses.asdict(sel.criteria),
                    "k": sel.k,
                    "criteria_subset": list(sel.subset),
                }
                for subset, sel in self.selections.items()
            },
        }


def subset_label(subset: Sequence[int]) -> str:
    return "".join(f"c{i}" for i in sorted(subset))


def _cpu_count() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(model: Model, spec: GridSpec) -> SweepResult:
    """Score every combination of `spec` and select under each of SELECTION_SUBSETS.

    Before any worker starts, a model of other widths raises a
    ShapeError, a non-finite setting a DomainError and a setting over
    the model's maxima a RangeError. A combination
    whose least predicted signal is not positive gets NaN criteria, so
    it is unranked on all four. The chunks of CHUNK_COMBINATIONS
    combinations are scored by one worker
    per CPU, at most one per chunk: the calling thread and helper
    threads, each with a _ChunkPredictor of its own. A chunk's criteria
    depend on its rows alone, so the result does not depend on the
    number of workers. Workers take chunks in grid order and stop taking
    them once one has failed; every earlier chunk still runs, so the
    error raised is the one the first failing chunk in grid order
    raises, as in a one-chunk-at-a-time loop.
    """
    settings = spec.settings()
    _check_inside_model(model, settings)
    n = settings.shape[0]
    values = np.empty((n, len(ALL_CRITERIA)))
    starts = iter(range(0, n, CHUNK_COMBINATIONS))
    taking = threading.Lock()
    failed = threading.Event()
    failures: dict[int, Exception] = {}

    def work(predictor: _ChunkPredictor) -> None:
        while not failed.is_set():
            with taking:
                start = next(starts, None)
            if start is None:
                return
            stop = start + CHUNK_COMBINATIONS
            try:
                signal, snr, output3 = predictor.predict(settings[start:stop])
                scores = values[start:stop]
                with np.errstate(divide="ignore", invalid="ignore"):
                    scores[...] = criteria_block(signal, snr, output3)
                # A row's first signal is its least, NaNs sorting last.
                scores[signal[:, 0] <= 0] = np.nan
            except Exception as exc:
                failures[start] = exc
                failed.set()

    # The calling thread is a worker too, and it allocates every worker's
    # predictor: with glibc, what a helper thread allocates stays in that
    # thread's malloc arena for the rest of the process.
    first = _ChunkPredictor(model, n)
    predictors = [first] + [
        _ChunkPredictor(model, n, first.tiles)
        for _ in range(min(_cpu_count(), -(-n // CHUNK_COMBINATIONS)) - 1)
    ]
    helpers = [threading.Thread(target=work, args=(p,)) for p in predictors[1:]]
    for helper in helpers:
        helper.start()
    try:
        work(first)
    finally:
        failed.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    result = SweepResult(settings, values, dense_ranks(values), selections={})
    result.selections.update({subset: select(result, subset) for subset in SELECTION_SUBSETS})
    return result


def write_report_csv(result: SweepResult, path) -> None:
    """Flat CSV of every candidate: settings, criteria, ranks, selected flags.

    A subset's flag is 1 on its selection's `row` alone, even where the
    grid repeats that combination. Written by data.write_rows(),
    _REPORT_BLOCK_ROWS rows at a time: the settings and criteria as float
    fields with 17 significant digits, each block's ranks and flags as
    (n,) bytes arrays written verbatim, each distinct rank formatted
    once. Written through a temporary file, like every sensopt table: a
    failed write leaves whatever `path` held before untouched.
    """
    subsets = sorted(result.selections)
    rank_names = [f"rank_c{i}" for i in ALL_CRITERIA]
    flag_names = [f"selected_{subset_label(s)}" for s in subsets]
    selected = [result.selections[s].row for s in subsets]
    header = ",".join([*SETTING_NAMES, "c1", "c2", "c3", "c4", *rank_names, *flag_names])
    with replacing(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(result.settings), _REPORT_BLOCK_ROWS):
            rows = slice(start, start + _REPORT_BLOCK_ROWS)
            settings, ranks = result.settings[rows], result.ranks[rows].T
            # Each distinct rank of the block is formatted once, and its
            # columns' fields share that text.
            distinct, inverse = np.unique(ranks, return_inverse=True)
            texts = np.array([b"" if r < 0 else b"%d" % r for r in distinct.tolist()], dtype="S")
            rank_texts = texts[inverse.reshape(ranks.shape)]
            block = np.arange(start, start + len(settings))
            flag_texts = [np.where(block == row, b"1", b"0") for row in selected]
            write_rows(fh, [*settings.T, *result.criteria[rows].T, *rank_texts, *flag_texts])
