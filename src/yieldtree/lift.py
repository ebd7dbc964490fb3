"""Granularity changes: summary-statistic lifting, rejection-rate lifting,
and downward broadcast of coarse values.

Both lifts read the groups of `model.group_by_ancestor`, whose rows keep
input order: `lift_stats` emits rows in ascending key order and
`lift_reject_rate` in batch-table order.
Per-value arithmetic runs in C builtins; the std is exact integer
arithmetic rounded once, so its bytes do not depend on the CPython version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import gt, lshift, lt, mul, sub
from typing import Any, Callable

from .errors import DataError, UsageError
from .model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    Row,
    Table,
    group_by_ancestor,
)


class Direction(str, Enum):
    """Side of a threshold: where a site value counts toward rejection, or
    where a target value is labeled class 1."""

    BELOW = "below"
    ABOVE = "above"

    @property
    def compare(self) -> Callable[[Any, Any], bool]:
        """Strict `lt` or `gt`: a value equal to the threshold is never beyond it."""
        return lt if self is Direction.BELOW else gt


@dataclass(frozen=True)
class RejectionRule:
    """A wafer is rejected when at least min_count of its site measurements
    of `parameter` fall strictly beyond `threshold`."""

    parameter: str
    threshold: float
    min_count: int = 2
    comparator: Direction = Direction.ABOVE

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise UsageError("min_count must be at least 1")
        if not math.isfinite(self.threshold):
            raise UsageError("threshold must be finite")

    def reject_rate_column(self) -> str:
        return f"{self.parameter}_reject_pct"

    def wafer_rejected(self, site_values: list[float]) -> bool:
        hits = sum(map(self.comparator.compare, site_values, repeat(self.threshold)))
        return hits >= self.min_count


STAT_SUFFIXES = ("mean", "std", "median", "min", "max")


def _group_stats(values: list[float]) -> tuple[float, float, float, float, float]:
    """Mean, sample std, median, min and max, as `statistics` gives them from
    CPython 3.11 on. Each value is v = N * 2**(low - 53) with N an integer, so
    the variance is (n*sum(N*N) - sum(N)**2) / (n*(n-1)) * 4**(low - 53); as in
    `statistics`, its root is rounded to odd on 2*53+3 bits, then divided.
    """
    n = len(values)
    ordered = sorted(values)
    half = n // 2
    median = ordered[half] if n % 2 else (ordered[half - 1] + ordered[half]) / 2
    std = 0.0
    if n > 1:
        mantissas, exponents = zip(*map(math.frexp, values))
        low = min(exponents)
        shifts = map(sub, exponents, repeat(low))
        ints = list(map(lshift, map(int, map(math.ldexp, mantissas, repeat(53))), shifts))
        total = sum(ints)
        num = n * sum(map(mul, ints, ints)) - total * total
        den = n * (n - 1)
        q = (num.bit_length() - den.bit_length() - 109) // 2
        num, den = (num << -2 * q, den) if q < 0 else (num, den << 2 * q)
        root = math.isqrt(num // den)
        root |= root * root * den != num
        q += low - 53
        std = root / (1 << -q) if q < 0 else float(root << q)
    # max(), not ordered[-1]: of equal maxima (0.0 and -0.0) it keeps the first
    return math.fsum(values) / n, std, median, ordered[0], max(values)


def _present_values(
    table: Table, parameter: str, ancestor_level: GranularityLevel
) -> dict[EntityKey, list[float]]:
    """The present values of numeric column `parameter` under each ancestor."""
    if table.column(parameter).kind is not ColumnKind.NUMERIC:
        raise UsageError(f"parameter {parameter!r} is not numeric")
    i = table.column_index(parameter)
    return {
        key: [row.cells[i] for row in rows if row.cells[i] is not MISSING]
        for key, rows in group_by_ancestor(table, ancestor_level).items()
    }


def lift_stats(
    dataset: HierarchicalDataset,
    parameter: str,
    from_level: GranularityLevel,
    to_level: GranularityLevel,
) -> Table:
    """Method A: five summary statistics of `parameter` per coarse entity.

    Output has one row per to_level entity and columns
    ``<parameter>_{mean,std,median,min,max}``.
    """
    if from_level <= to_level:
        raise UsageError(
            f"from_level {from_level.name} must be finer than to_level {to_level.name}"
        )
    values_by_key = _present_values(dataset.table(from_level), parameter, to_level)
    to_table = dataset.tables.get(to_level)
    keys = values_by_key if to_table is None else [row.key for row in to_table.rows]

    new_columns = tuple(
        Column(f"{parameter}_{suffix}", ColumnKind.NUMERIC) for suffix in STAT_SUFFIXES
    )
    rows = []
    for key in sorted(keys):
        values = values_by_key.get(key)
        if not values:
            raise DataError(
                f"no {parameter!r} measurements under {to_level.name} entity {key}"
            )
        rows.append(Row(key, tuple(_group_stats(values))))
    return Table(to_level, new_columns, tuple(rows))


def lift_reject_rate(dataset: HierarchicalDataset, rule: RejectionRule) -> Table:
    """Method B: per batch, the percentage of measured wafers failing the
    k-of-n rule. A wafer with no value of the parameter is not measured; a
    batch with no measured wafer is a DataError.

    The output has one row per batch-table row, in batch-table order, so its
    values align with any table that keeps that order. The percentage is the
    correctly rounded float of the exact ratio.
    """
    for level in (GranularityLevel.BATCH, GranularityLevel.WAFER, GranularityLevel.SITE):
        if level not in dataset.tables:
            raise UsageError(f"Method B needs a {level.name} table")
    values_by_wafer = _present_values(
        dataset.table(GranularityLevel.SITE), rule.parameter, GranularityLevel.WAFER
    )
    wafers_by_batch = group_by_ancestor(
        dataset.table(GranularityLevel.WAFER), GranularityLevel.BATCH
    )

    column = Column(rule.reject_rate_column(), ColumnKind.NUMERIC, units="percent")
    rows = []
    for batch_key, _ in dataset.table(GranularityLevel.BATCH).rows:
        wafer_rows = wafers_by_batch.get(batch_key)
        if wafer_rows is None:
            raise DataError(f"batch {batch_key} has zero wafers")
        rejected = measured = 0
        for wafer_row in wafer_rows:
            values = values_by_wafer.get(wafer_row.key)
            if values:
                measured += 1
                rejected += rule.wafer_rejected(values)
        if not measured:
            raise DataError(f"no {rule.parameter!r} measurements under batch {batch_key}")
        rows.append(Row(batch_key, (100 * rejected / measured,)))
    return Table(GranularityLevel.BATCH, (column,), tuple(rows))


def broadcast_down(
    dataset: HierarchicalDataset,
    column: str,
    from_level: GranularityLevel,
    to_level: GranularityLevel,
) -> Table:
    """Replicate a coarse column onto every descendant row at a finer level.

    A missing ancestor value broadcasts the missing marker.
    """
    if from_level >= to_level:
        raise UsageError(
            f"from_level {from_level.name} must be coarser than to_level {to_level.name}"
        )
    source = dataset.table(from_level)
    target = dataset.table(to_level)
    declaration = source.column(column)
    value_index = source.column_index(column)
    by_key = {row.key: row.cells[value_index] for row in source.rows}

    depth = from_level + 1
    rows = []
    for row in target.rows:
        prefix = row.key[:depth]
        if prefix not in by_key:
            raise DataError(
                f"row {row.key} has no {from_level.name} ancestor {row.key.ancestor(from_level)}"
            )
        rows.append(Row(row.key, (by_key[prefix],)))
    return Table(to_level, (declaration,), tuple(rows))
