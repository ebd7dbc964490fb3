"""Granularity changes: summary-statistic lifting, rejection-rate lifting,
and downward broadcast of coarse values.

Both lifts reduce groups in sorted-key order, so results are identical no
matter how callers schedule the work.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DataError, UsageError
from .model import (
    Column,
    ColumnKind,
    GranularityLevel,
    HierarchicalDataset,
    Row,
    Table,
    group_by_ancestor,
    is_missing,
)


class Direction(str, Enum):
    """Side of a threshold: where a site value counts toward rejection, or
    where a target value is labeled class 1."""

    BELOW = "below"
    ABOVE = "above"

    def beyond(self, value: float, threshold: float) -> bool:
        """Strict comparison: a value equal to the threshold is never beyond it."""
        if self is Direction.BELOW:
            return value < threshold
        return value > threshold


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
        hits = sum(1 for v in site_values if self.comparator.beyond(v, self.threshold))
        return hits >= self.min_count


STAT_SUFFIXES = ("mean", "std", "median", "min", "max")


def _group_stats(values: list[float]) -> tuple[float, float, float, float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    median = statistics.median(values)
    return mean, std, median, min(values), max(values)


def _target_keys(dataset: HierarchicalDataset, to_level: GranularityLevel, groups) -> list:
    """Entities the lifted table must cover: the to_level table's keys when
    that table is present, else the distinct ancestor keys seen in the data."""
    if to_level in dataset.tables:
        return [row.key for row in dataset.tables[to_level].rows]
    return [g.key for g in groups]


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
    if not from_level.is_finer_than(to_level):
        raise UsageError(
            f"from_level {from_level.name} must be finer than to_level {to_level.name}"
        )
    source = dataset.table(from_level)
    column = source.column(parameter)
    if column.kind is not ColumnKind.NUMERIC:
        raise UsageError(f"parameter {parameter!r} is not numeric")

    value_index = source.column_index(parameter)
    groups = group_by_ancestor(source, to_level)
    by_key = {g.key: g for g in groups}

    new_columns = tuple(
        Column(f"{parameter}_{suffix}", ColumnKind.NUMERIC) for suffix in STAT_SUFFIXES
    )
    rows = []
    for key in sorted(_target_keys(dataset, to_level, groups)):
        group = by_key.get(key)
        values = (
            [row.cells[value_index] for row in group.rows if not is_missing(row.cells[value_index])]
            if group
            else []
        )
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
    values align with any table that keeps that order. The percentage is
    computed in exact rational arithmetic and rendered as a float at the end.
    """
    for level in (GranularityLevel.BATCH, GranularityLevel.WAFER, GranularityLevel.SITE):
        if level not in dataset.tables:
            raise UsageError(f"Method B needs a {level.name} table")
    site = dataset.table(GranularityLevel.SITE)
    wafer = dataset.table(GranularityLevel.WAFER)
    if site.column(rule.parameter).kind is not ColumnKind.NUMERIC:
        raise UsageError(f"parameter {rule.parameter!r} is not numeric")

    value_index = site.column_index(rule.parameter)
    sites_by_wafer = {
        g.key: g for g in group_by_ancestor(site, GranularityLevel.WAFER)
    }
    wafers_by_batch = {
        g.key: g for g in group_by_ancestor(wafer, GranularityLevel.BATCH)
    }

    column = Column(rule.reject_rate_column(), ColumnKind.NUMERIC, units="percent")
    rows = []
    for row in dataset.table(GranularityLevel.BATCH).rows:
        batch_key = row.key
        wafer_group = wafers_by_batch.get(batch_key)
        if wafer_group is None:
            raise DataError(f"batch {batch_key} has zero wafers")
        rejected = measured = 0
        for wafer_row in wafer_group.rows:
            site_group = sites_by_wafer.get(wafer_row.key)
            values = (
                [r.cells[value_index] for r in site_group.rows if not is_missing(r.cells[value_index])]
                if site_group
                else []
            )
            if values:
                measured += 1
                rejected += rule.wafer_rejected(values)
        if not measured:
            raise DataError(f"no {rule.parameter!r} measurements under batch {batch_key}")
        rate = Fraction(100 * rejected, measured)
        rows.append(Row(batch_key, (float(rate),)))
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
    if not from_level.is_coarser_than(to_level):
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
