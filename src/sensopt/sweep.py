"""Interpolated design-space sweep over a trained surrogate.

grid_settings() builds the (n, 5) settings array of every combination
of per-input arithmetic progressions, the sweep's only grid form. A
chunk of CHUNK_COMBINATIONS rows of it is predicted into (chunk, 200)
blocks of curves by one kernel, _ChunkPredictor.predict(): it writes
the chunk's settings into an encoded input block whose other columns
were written once, runs the network's tiled forward and decodes and
sorts the outputs, all in buffers sized once for the grid.
curves.criteria_block_into() scores a whole block with array
operations, in a CriteriaScratch that each run_sweep() worker keeps;
dense_ranks() assigns dense ascending ranks per criterion; select_row()
finds the smallest K whose per-criterion top-K sets intersect, breaking
ties by rank sum and then lexicographic settings order.

run_sweep() scores the chunks on one thread per CPU (the calling thread
and helpers), each with its own buffers, and keeps only the settings and criteria
of every candidate: peak memory is one block of predicted rows per
worker plus one row of settings, criteria and ranks per candidate,
never the full point cloud. The calling thread allocates every
worker's buffers; a worker then allocates only argsort's order array
and a few small arrays per chunk, so a helper thread's malloc arena
stays small. One candidate is selected under each subset of
SELECTION_SUBSETS. predict_curves() runs the same kernel on a settings
array, one chunk after another, and yields its curves one at a time.
rank_candidates() and select() are the ranking steps on per-candidate
records. write_report_csv() writes every candidate, a block of rows at
a time.

Export rule: a combination's curve has the same bits in every predicted
block of network.BIT_STABLE_ROWS rows or more, whichever combinations
share that block. So the curve run_sweep() scored for a combination is
reproduced by predicting the combination EXPORT_COPIES times in a row,
on its own or next to other combinations, without its chunk.
scored_curves() applies the rule to export the selected curves.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import Curve, CriteriaScratch, CriteriaValues, criteria_block_into
from .data import ENCODED_INPUT_SIZE, N_NUMERIC_INPUTS, _texts, replacing
from .errors import ConfigurationError, DomainError, RangeError, SelectionError
from .network import (
    BIT_STABLE_ROWS,
    Model,
    TileBuffers,
    empty_tile_buffers,
    forward_tiles_into,
    tile_rows,
)
# Not called here, but perfbench/spans.py wraps the bindings
# sensopt.sweep.criteria and sensopt.sweep.predict, so they stay
# importable from this module.
from .curves import criteria  # noqa: F401
from .network import predict  # noqa: F401
from .oracle import CATEGORY_COUNT, INPUT5_COUNT, ROWS_PER_COMBINATION, SETTING_NAMES, SETTING_RANGES

ALL_CRITERIA = (1, 2, 3, 4)
# The criteria subsets run_sweep() selects a candidate under.
SELECTION_SUBSETS = (ALL_CRITERIA, (1, 2, 3))
DEFAULT_ROW_BUDGET = 24_000_000
DEFAULT_POINTS_PER_AXIS = 9
# Combinations per predicted block: 64 * 200 = 12,800 rows share the
# network's forward tiles.
CHUNK_COMBINATIONS = 64
# Copies of one combination that fill a block of at least BIT_STABLE_ROWS
# rows (3 * 200 = 600): see the export rule above.
EXPORT_COPIES = -(-BIT_STABLE_ROWS // ROWS_PER_COMBINATION)
# Report rows formatted per % operation: bounds the text held in memory.
_REPORT_BLOCK_ROWS = 4096


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
            raise ConfigurationError(
                f"maximum {self.maximum!r} below minimum {self.minimum!r}"
            )

    @property
    def count(self) -> int:
        # The epsilon absorbs float noise when (max - min) / step is integral.
        return int(math.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        vals = self.minimum + self.step * np.arange(self.count)
        return np.minimum(vals, self.maximum)


@dataclass(frozen=True)
class InterpolationSpec:
    """One axis per settings input, in (input1, input2, input3, input4, input6) order.

    Axes must stay inside the recorded grid ranges, and the implied row
    count (combinations x 200) must fit the budget; both are checked here,
    before any work starts.
    """

    axes: tuple[AxisSpec, ...]
    row_budget: int = DEFAULT_ROW_BUDGET

    def __post_init__(self):
        if len(self.axes) != len(SETTING_NAMES):
            raise ConfigurationError(f"expected {len(SETTING_NAMES)} axes, got {len(self.axes)}")
        for name, axis, (lo, hi) in zip(SETTING_NAMES, self.axes, SETTING_RANGES):
            if axis.minimum < lo or axis.maximum > hi:
                raise ConfigurationError(
                    f"{name} axis [{axis.minimum}, {axis.maximum}] outside recorded range [{lo}, {hi}]"
                )
        rows = self.combination_count * ROWS_PER_COMBINATION
        if rows > self.row_budget:
            raise ConfigurationError(
                f"sweep would simulate {rows} rows, over the budget of {self.row_budget}"
            )

    @property
    def combination_count(self) -> int:
        n = 1
        for axis in self.axes:
            n *= axis.count
        return n


def default_sweep_spec(
    points_per_axis: int = DEFAULT_POINTS_PER_AXIS, row_budget: int = DEFAULT_ROW_BUDGET
) -> InterpolationSpec:
    """Uniform spec spanning each input's full recorded range."""
    if points_per_axis < 2:
        raise ConfigurationError("points_per_axis must be at least 2")
    axes = tuple(
        AxisSpec(minimum=lo, maximum=hi, step=(hi - lo) / (points_per_axis - 1))
        for lo, hi in SETTING_RANGES
    )
    return InterpolationSpec(axes=axes, row_budget=row_budget)


def grid_settings(spec: InterpolationSpec) -> np.ndarray:
    """The (n, 5) settings of every combination of `spec`, in lexicographic order."""
    columns = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    return np.stack(columns, axis=-1).reshape(-1, len(SETTING_NAMES))


class _ChunkPredictor:
    """The buffers that predict and score the chunks of a grid of `n` combinations.

    Made once per worker and run, and reused for every chunk it predicts:
    the grid's chunks of CHUNK_COMBINATIONS combinations and its last,
    possibly shorter, chunk, which forward_tiles_into() may cut into
    longer tiles. The tile buffers hold the longer of the two tiles, so
    predicting never allocates them.

    The encoded input block's input5 and one-hot category columns are
    the same for every chunk, so they are written here, once, and a
    chunk writes only its five settings columns. Every value is computed
    as data.encode_inputs() and data.decode_outputs() compute it, so the
    curves are those of network.predict() on the chunk, bit for bit.
    """

    def __init__(self, model: Model, n: int, tiles: TileBuffers | None = None):
        """Buffers for `model`, sharing the tiled biases of `tiles` if given.

        `tiles` must come from a predictor for a grid of the same size.
        """
        self.model = model
        maxima = np.asarray(model.normalization.input_max)
        input5 = np.repeat(np.arange(INPUT5_COUNT, dtype=np.float64), CATEGORY_COUNT)
        if input5[-1] > maxima[4]:
            raise RangeError(
                f"input5 value {float(input5[-1])!r} exceeds recorded maximum "
                f"{float(maxima[4])!r}"
            )
        self.settings_max = maxima[[0, 1, 2, 3, 5]]
        self.output_max = np.asarray(model.normalization.output_max)
        combinations = min(n, CHUNK_COMBINATIONS)
        rows = combinations * ROWS_PER_COMBINATION
        last_rows = ((n - 1) % CHUNK_COMBINATIONS + 1) * ROWS_PER_COMBINATION
        self.encoded = np.zeros((rows, ENCODED_INPUT_SIZE))
        block = self.encoded.reshape(combinations, ROWS_PER_COMBINATION, -1)
        block[:, :, 4] = input5 / maxima[4]
        category = np.tile(np.arange(CATEGORY_COUNT), INPUT5_COUNT)
        block[:, np.arange(ROWS_PER_COMBINATION), N_NUMERIC_INPUTS + category] = 1.0
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
        with a stable sort. The result is a view into this object's
        buffers, valid until the next call.

        Raises:
            RangeError: a setting exceeds the model's normalization maximum.
            DomainError: a predicted signal is not positive.
        """
        over = settings > self.settings_max
        if np.any(over):
            r, c = np.argwhere(over)[0]
            raise RangeError(
                f"{SETTING_NAMES[c]} value {float(settings[r, c])!r} exceeds recorded "
                f"maximum {float(self.settings_max[c])!r}"
            )
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
        np.multiply(outputs[:, 0], self.output_max[0], decoded[0])
        np.power(10.0, decoded[0], decoded[0])
        np.multiply(outputs[:, 1], self.output_max[1], decoded[1])
        np.multiply(outputs[:, 2], self.output_max[2], decoded[2])
        order = np.argsort(decoded[0].reshape(m, -1), axis=1, kind="stable")
        order += self.row_starts[:m]
        curves = self.curves[:, :m]
        for column, curve in zip(decoded, curves):
            np.take(column, order, out=curve, mode="clip")
        # A row's first signal is its least, NaNs sorting last.
        if np.any(curves[0, :, 0] <= 0):
            raise DomainError("curve signal values must be positive")
        return curves


def predict_curves(model: Model, settings) -> Iterator[Curve]:
    """Predict one 200-point curve per row of the (n, 5) `settings`, in row order.

    `settings` is an array or a sequence of rows. They are predicted
    CHUNK_COMBINATIONS at a time by one _ChunkPredictor, each chunk's
    curves copied into arrays of their own. Settings outside the model's
    normalization range raise a RangeError naming the input; a predicted
    signal that is not positive raises a DomainError.
    """
    settings = np.asarray(settings, dtype=np.float64)
    n = len(settings)
    if not n:
        return
    predictor = _ChunkPredictor(model, n)
    for start in range(0, n, CHUNK_COMBINATIONS):
        chunk = settings[start : start + CHUNK_COMBINATIONS]
        curves = predictor.predict(chunk).copy()
        for row, signal, snr, output3 in zip(chunk.tolist(), *curves):
            yield Curve(settings=tuple(row), signal=signal, snr=snr, output3=output3)


def scored_curves(model: Model, settings: Sequence[tuple[float, ...]]) -> list[Curve]:
    """The curves run_sweep() scored for `settings`, bit for bit.

    By the export rule above: all of them are predicted in one block,
    each EXPORT_COPIES times in a row, so the block has
    EXPORT_COPIES * 200 rows or more. That holds for up to
    CHUNK_COMBINATIONS // EXPORT_COPIES combinations.
    """
    repeated = [combination for combination in settings for _ in range(EXPORT_COPIES)]
    return list(predict_curves(model, repeated))[::EXPORT_COPIES]


@dataclass(frozen=True)
class CandidateScore:
    """A combination, its criteria, and its dense rank per criterion.

    ranks[i - 1] is the 0-based dense ascending rank under criterion i,
    or None when the candidate is unscorable there (NaN criterion) or the
    criterion was not ranked.
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


def _rank_tuple(row) -> tuple[int | None, ...]:
    return tuple(None if r < 0 else r for r in row)


def rank_candidates(
    scored: Sequence[tuple[tuple[float, ...], CriteriaValues]],
    subset: Sequence[int] = ALL_CRITERIA,
) -> list[CandidateScore]:
    """Assign dense ascending ranks per criterion in `subset`.

    Ties share a rank. The returned list is sorted by settings
    (lexicographically), so the output is independent of input order.
    """
    subset = _check_subset(subset)
    if not scored:
        raise ConfigurationError("no candidates to rank")
    ordered = sorted(scored, key=lambda item: item[0])
    ranks = dense_ranks([crit.as_tuple() for _, crit in ordered])
    ranks[:, [i - 1 for i in ALL_CRITERIA if i not in subset]] = -1
    return [
        CandidateScore(settings=tuple(settings), criteria=crit, ranks=_rank_tuple(row))
        for (settings, crit), row in zip(ordered, ranks.tolist())
    ]


@dataclass(frozen=True)
class SelectionResult:
    settings: tuple[float, ...]
    criteria: CriteriaValues
    k: int
    subset: tuple[int, ...]


def select(ranked: Sequence[CandidateScore], subset: Sequence[int]) -> SelectionResult:
    """Smallest-K prefix-intersection selection over `subset`; see select_row().

    Raises:
        SelectionError: every candidate is unscorable on the subset.
    """
    subset = _check_subset(subset)
    ranks = np.array(
        [[-1 if r is None else r for r in c.ranks] for c in ranked], dtype=np.int64
    ).reshape(len(ranked), len(ALL_CRITERIA))
    row, k = select_row(np.array([c.settings for c in ranked]), ranks, subset)
    winner = ranked[row]
    return SelectionResult(
        settings=winner.settings, criteria=winner.criteria, k=k, subset=subset
    )


@dataclass
class SweepResult:
    """Every candidate, in grid (so lexicographic settings) order, and the selections.

    Row i of `settings` (n, 5), `criteria` (n, 4) and `ranks` (n, 4) is
    one candidate; ranks are 0-based dense ascending ranks per criterion,
    -1 where the candidate is unscorable (NaN criterion).
    """

    settings: np.ndarray
    criteria: np.ndarray
    ranks: np.ndarray
    selections: dict[tuple[int, ...], SelectionResult]

    @property
    def candidates(self) -> list[CandidateScore]:
        """The candidates as CandidateScore records, in row order."""
        return [
            CandidateScore(
                settings=tuple(settings), criteria=CriteriaValues(*crit), ranks=_rank_tuple(row)
            )
            for settings, crit, row in zip(
                self.settings.tolist(), self.criteria.tolist(), self.ranks.tolist()
            )
        ]

    def summary(self) -> dict:
        return {
            "candidate_count": len(self.settings),
            "selections": {
                subset_label(subset): {
                    "settings": dict(zip(SETTING_NAMES, sel.settings)),
                    "criteria": {
                        "c1": sel.criteria.c1,
                        "c2": sel.criteria.c2,
                        "c3": sel.criteria.c3,
                        "c4": sel.criteria.c4,
                    },
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


def run_sweep(model: Model, spec: InterpolationSpec) -> SweepResult:
    """Score every combination of `spec` and select under each of SELECTION_SUBSETS.

    The chunks of CHUNK_COMBINATIONS combinations are scored by one
    worker per CPU, at most one per chunk: the calling thread and
    helper threads, each with a _ChunkPredictor and a CriteriaScratch
    of its own. A chunk's criteria depend on its rows alone, so the
    result does not depend on the number of workers. Workers take
    chunks in grid order and stop taking them once one has failed;
    every earlier chunk still runs, so the error raised is the one the
    first failing chunk in grid order raises, as in a
    one-chunk-at-a-time loop.
    """
    settings = grid_settings(spec)
    n = settings.shape[0]
    values = np.empty((n, len(ALL_CRITERIA)))
    starts = iter(range(0, n, CHUNK_COMBINATIONS))
    taking = threading.Lock()
    failed = threading.Event()
    failures: dict[int, Exception] = {}

    def work(predictor: _ChunkPredictor, scratch: CriteriaScratch) -> None:
        while not failed.is_set():
            with taking:
                start = next(starts, None)
            if start is None:
                return
            stop = start + CHUNK_COMBINATIONS
            try:
                signal, snr, output3 = predictor.predict(settings[start:stop])
                criteria_block_into(signal, snr, output3, values[start:stop], scratch)
            except Exception as exc:
                failures[start] = exc
                failed.set()

    # The calling thread is a worker too, and it allocates every worker's
    # buffers: with glibc, what a helper thread allocates stays in that
    # thread's malloc arena for the rest of the process.
    chunk = min(n, CHUNK_COMBINATIONS)
    first = _ChunkPredictor(model, n)
    workers = [(first, CriteriaScratch(chunk, ROWS_PER_COMBINATION))] + [
        (_ChunkPredictor(model, n, first.tiles), CriteriaScratch(chunk, ROWS_PER_COMBINATION))
        for _ in range(min(_cpu_count(), -(-n // CHUNK_COMBINATIONS)) - 1)
    ]
    helpers = [threading.Thread(target=work, args=buffers) for buffers in workers[1:]]
    for helper in helpers:
        helper.start()
    try:
        work(*workers[0])
    finally:
        failed.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    ranks = dense_ranks(values)
    selections = {}
    for subset in SELECTION_SUBSETS:
        checked = _check_subset(subset)
        row, k = select_row(settings, ranks, checked)
        selections[checked] = SelectionResult(
            settings=tuple(settings[row].tolist()),
            criteria=CriteriaValues(*values[row].tolist()),
            k=k,
            subset=checked,
        )
    return SweepResult(settings=settings, criteria=values, ranks=ranks, selections=selections)


def write_report_csv(result: SweepResult, path) -> None:
    """Flat CSV of every candidate: settings, criteria, ranks, selected flags.

    Settings and criteria get 17 significant digits. The fields are built
    and written _REPORT_BLOCK_ROWS rows at a time, and each distinct
    setting of a block is formatted once. Written through a temporary
    file, like every sensopt table: a failed write leaves whatever `path`
    held before untouched.
    """
    subsets = sorted(result.selections)
    rank_names = [f"rank_c{i}" for i in ALL_CRITERIA]
    flag_names = [f"selected_{subset_label(s)}" for s in subsets]
    header = ",".join([*SETTING_NAMES, "c1", "c2", "c3", "c4", *rank_names, *flag_names])
    line = ",".join(
        ["%s"] * len(SETTING_NAMES) + ["%.17g"] * len(ALL_CRITERIA)
        + ["%s"] * (len(ALL_CRITERIA) + len(subsets))
    ) + "\n"
    with replacing(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(result.settings), _REPORT_BLOCK_ROWS):
            rows = slice(start, start + _REPORT_BLOCK_ROWS)
            settings, ranks = result.settings[rows], result.ranks[rows]
            rank_fields = ranks.astype(object)
            rank_fields[ranks < 0] = ""
            # An object table keeps the criteria as floats for the %.17g fields.
            fields = np.column_stack([
                *(_texts(column) for column in settings.T),
                result.criteria[rows],
                rank_fields,
                *(
                    np.where(np.all(settings == result.selections[s].settings, axis=1), "1", "0")
                    for s in subsets
                ),
            ])
            fh.write((line * len(fields)) % tuple(fields.ravel().tolist()))
