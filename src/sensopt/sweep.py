"""Interpolated design-space sweep over a trained surrogate.

build_interpolated_grid() streams settings combinations from per-input
arithmetic progressions; predict_blocks() turns them, CHUNK_COMBINATIONS
at a time, into (chunk, 200) blocks of predicted curves;
curves.criteria_block() scores a whole block with array operations;
dense_ranks() assigns dense ascending ranks per criterion; select_row()
finds the smallest K whose per-criterion top-K sets intersect, breaking
ties by rank sum and then lexicographic settings order.
rank_candidates(), select() and predict_curves() are the same steps on
per-candidate records; scoring_chunk() finds the chunk a combination was
scored in, so that its curve can be predicted again bit for bit.

run_sweep() scores each block and discards it, so peak memory is one
block of predicted rows plus one row of criteria and ranks per
candidate, never the full point cloud.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# criteria is not called here, but perfbench/spans.py wraps the binding
# sensopt.sweep.criteria, so it stays importable from this module.
from .curves import Curve, CriteriaValues, criteria, criteria_block
from .data import replacing
from .errors import ConfigurationError, DomainError, SelectionError
from .network import Model, predict
from .oracle import CATEGORY_COUNT, INPUT5_COUNT, ROWS_PER_COMBINATION, SETTING_NAMES, SETTING_RANGES

ALL_CRITERIA = (1, 2, 3, 4)
DEFAULT_ROW_BUDGET = 24_000_000
DEFAULT_POINTS_PER_AXIS = 9
# Combinations per predicted block: 64 * 200 = 12,800 rows share the
# network's forward tiles. It sets which rows share a tile, so the
# exported selected curves must be predicted in the same chunks.
CHUNK_COMBINATIONS = 64
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


def build_interpolated_grid(spec: InterpolationSpec) -> Iterator[tuple[float, ...]]:
    """Stream combinations in lexicographic order; never materializes the grid."""
    value_lists = [tuple(float(v) for v in axis.values()) for axis in spec.axes]
    return itertools.product(*value_lists)


class CurveBlock(NamedTuple):
    """m predicted curves: settings (m, 5); signal, snr, output3 (m, 200).

    Each row is one combination's curve, sorted by ascending signal with
    a stable sort.
    """

    settings: np.ndarray
    signal: np.ndarray
    snr: np.ndarray
    output3: np.ndarray


def predict_blocks(model: Model, grid: Iterable[tuple[float, ...]]) -> Iterator[CurveBlock]:
    """Predict the curves of `grid` a block of CHUNK_COMBINATIONS at a time.

    Blocks come in grid order. Grid values outside the model's
    normalization range raise a RangeError naming the input; a predicted
    signal that is not positive raises a DomainError.
    """
    input5 = np.repeat(np.arange(INPUT5_COUNT, dtype=np.float64), CATEGORY_COUNT)
    category_block = np.tile(np.arange(CATEGORY_COUNT, dtype=np.float64), INPUT5_COUNT)
    iterator = iter(grid)
    while chunk := list(itertools.islice(iterator, CHUNK_COMBINATIONS)):
        settings = np.array(chunk, dtype=np.float64).reshape(len(chunk), len(SETTING_NAMES))
        m = settings.shape[0]
        numeric = np.empty((m, ROWS_PER_COMBINATION, 6))
        numeric[:, :, 0:4] = settings[:, None, 0:4]
        numeric[:, :, 4] = input5
        numeric[:, :, 5] = settings[:, 4, None]
        outputs = predict(model, numeric.reshape(-1, 6), np.tile(category_block, m))
        outputs = outputs.reshape(m, ROWS_PER_COMBINATION, outputs.shape[1])
        order = np.argsort(outputs[:, :, 0], axis=1, kind="stable")
        signal, snr, output3 = (
            np.take_along_axis(outputs[:, :, j], order, axis=1) for j in range(3)
        )
        if np.any(signal <= 0):
            raise DomainError("curve signal values must be positive")
        yield CurveBlock(settings=settings, signal=signal, snr=snr, output3=output3)


def predict_curves(model: Model, grid: Iterable[tuple[float, ...]]) -> Iterator[Curve]:
    """Predict one 200-point curve per combination, in grid order.

    The curves of predict_blocks(), yielded one at a time.
    """
    for block in predict_blocks(model, grid):
        for settings, signal, snr, output3 in zip(
            block.settings.tolist(), block.signal, block.snr, block.output3
        ):
            yield Curve(settings=tuple(settings), signal=signal, snr=snr, output3=output3)


def scoring_chunk(
    spec: InterpolationSpec, settings: Sequence[float]
) -> tuple[list[tuple[float, ...]], int]:
    """The chunk of `spec`'s grid that holds `settings`, and their offset in it.

    run_sweep() predicts the grid in exactly these chunks, so predicting
    the chunk again reproduces the curve it scored for `settings` bit for
    bit: the network sees the same rows in the same tiles.
    """
    index = 0
    for axis, value in zip(spec.axes, settings):
        values = axis.values().tolist()
        index = index * len(values) + values.index(value)
    start = index - index % CHUNK_COMBINATIONS
    stop = start + CHUNK_COMBINATIONS
    return list(itertools.islice(build_interpolated_grid(spec), start, stop)), index - start


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


def run_sweep(
    model: Model,
    spec: InterpolationSpec,
    subsets: Sequence[Sequence[int]] = (ALL_CRITERIA, (1, 2, 3)),
) -> SweepResult:
    """Score every combination of `spec` and select under each subset."""
    settings, values = [], []
    for block in predict_blocks(model, build_interpolated_grid(spec)):
        settings.append(block.settings)
        values.append(criteria_block(block.signal, block.snr, block.output3))
    settings, values = np.concatenate(settings), np.concatenate(values)
    ranks = dense_ranks(values)
    selections = {}
    for subset in subsets:
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

    Written through a temporary file, like every sensopt table: a failed
    write leaves whatever `path` held before untouched.
    """
    subsets = sorted(result.selections)
    rank_names = [f"rank_c{i}" for i in ALL_CRITERIA]
    flag_names = [f"selected_{subset_label(s)}" for s in subsets]
    header = ",".join([*SETTING_NAMES, "c1", "c2", "c3", "c4", *rank_names, *flag_names])
    ranks = np.where(result.ranks < 0, "", result.ranks.astype(str))
    flags = [
        np.where(np.all(result.settings == result.selections[s].settings, axis=1), "1", "0")
        for s in subsets
    ]
    # An object table keeps the floats as floats for the %.17g fields.
    fields = np.column_stack([result.settings.astype(object), result.criteria, ranks, *flags])
    numbers = result.settings.shape[1] + result.criteria.shape[1]
    line = ",".join(["%.17g"] * numbers + ["%s"] * (fields.shape[1] - numbers)) + "\n"
    with replacing(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(fields), _REPORT_BLOCK_ROWS):
            block = fields[start : start + _REPORT_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
