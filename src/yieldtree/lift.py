"""Granularity changes: summary-statistic lifting, rejection-rate lifting,
and downward broadcast of coarse values.

Both lifts read the groups of `model.group_by_ancestor`, whose row
positions keep input order. Each lift has one row per row of its coarse table, in that
table's order; without a coarse table, rows come in ascending key order.
Method B finds each batch's wafers inside that batch's site group and holds
one batch's wafers at a time.
Per-value arithmetic runs in C builtins; the std is exact integer
arithmetic rounded once, so its bytes do not depend on the CPython version.
`mean`, `median` and `midpoint` are the package's one float mean, median and
midpoint; each gives a finite result where a sum of finite values overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import gt, lshift, lt, mul, sub
from typing import Any, Callable, Sequence

from .errors import DataError, UsageError
from .model import (
    MISSING,
    Column,
    ColumnKind,
    GranularityLevel,
    HierarchicalDataset,
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


def stats_columns(parameter: str) -> tuple[str, ...]:
    """Names of the columns a stats lift of `parameter` adds, one per stat."""
    return tuple(f"{parameter}_{suffix}" for suffix in STAT_SUFFIXES)


def mean(values: Sequence[float]) -> float:
    """fsum(values) / n. Where the sum overflows, each value is first scaled
    by 2**-bits, with 2**bits > n, so the sum of n finite values is finite;
    the scaling is exact but for bits far below the sum's last place."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        bits = len(values).bit_length()
        return math.ldexp(math.fsum(map(math.ldexp, values, repeat(-bits))) / len(values), bits)


def midpoint(a: float, b: float) -> float:
    """(a + b) / 2; where the sum overflows, a / 2 + b / 2."""
    middle = (a + b) / 2
    return middle if math.isfinite(middle) else a / 2 + b / 2


def median(ordered: Sequence[float]) -> float:
    """Median of ascending values; of an even count, the midpoint of the middle two."""
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else midpoint(ordered[half - 1], ordered[half])


def _group_stats(values: list[float]) -> tuple[float, float, float, float, float]:
    """Mean, sample std, median, min and max, as `statistics` gives them from
    CPython 3.11 on. Each value is v = N * 2**(low - 53) with N an integer, so
    the variance is (n*sum(N*N) - sum(N)**2) / (n*(n-1)) * 4**(low - 53); as in
    `statistics`, its root is rounded to odd on 2*53+3 bits, then divided.
    """
    n = len(values)
    ordered = sorted(values)
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
    return mean(values), std, median(ordered), ordered[0], max(values)


def _numeric_index(table: Table, parameter: str) -> int:
    """Index of column `parameter`, which must be numeric."""
    if table.column(parameter).kind is not ColumnKind.NUMERIC:
        raise UsageError(f"parameter {parameter!r} is not numeric")
    return table.column_index(parameter)


def lift_stats(
    dataset: HierarchicalDataset,
    parameter: str,
    from_level: GranularityLevel,
    to_level: GranularityLevel,
) -> Table:
    """Method A: five summary statistics of `parameter` per coarse entity,
    in columns ``<parameter>_{mean,std,median,min,max}``."""
    if from_level <= to_level:
        raise UsageError(
            f"from_level {from_level.name} must be finer than to_level {to_level.name}"
        )
    from_table = dataset.table(from_level)
    cells = from_table.cells[_numeric_index(from_table, parameter)]
    groups = group_by_ancestor(from_table, to_level)
    to_table = dataset.tables.get(to_level)
    key_fields = (to_table.key_fields if to_table is not None
                  else list(zip(*groups)) or [()] * (to_level + 1))

    stats = []
    for ids in zip(*key_fields):
        group = map(cells.__getitem__, groups.get(ids, ()))
        values = [value for value in group if value is not MISSING]
        if not values:
            raise DataError(f"no {parameter!r} measurements under {to_level.name} entity {'/'.join(ids)}")
        stats.append(_group_stats(values))
    columns = [Column(name, ColumnKind.NUMERIC) for name in stats_columns(parameter)]
    return Table.from_columns(to_level, columns, key_fields, list(zip(*stats)) or [()] * len(columns))


def lift_reject_rate(dataset: HierarchicalDataset, rule: RejectionRule) -> Table:
    """Method B: per batch, the percentage of measured wafers failing the
    k-of-n rule, as the correctly rounded float of the exact ratio. A batch's
    wafers are found by their ids inside that batch's site group, one batch
    at a time: a wafer with no value of the parameter is not measured, and a
    site with no wafer row is left to `validate_hierarchy`. A batch with no
    measured wafer is a DataError.
    """
    for level in (GranularityLevel.BATCH, GranularityLevel.WAFER, GranularityLevel.SITE):
        if level not in dataset.tables:
            raise UsageError(f"Method B needs a {level.name} table")
    site = dataset.table(GranularityLevel.SITE)
    wafer_ids, values = site.key_fields[1], site.cells[_numeric_index(site, rule.parameter)]
    sites_by_batch = group_by_ancestor(site, GranularityLevel.BATCH)

    batch = dataset.table(GranularityLevel.BATCH)
    rates = []
    for batch_id in batch.key_fields[0]:
        values_by_wafer: dict[str, list[float]] = {}
        for position in sites_by_batch.get((batch_id,), ()):
            if values[position] is not MISSING:
                values_by_wafer.setdefault(wafer_ids[position], []).append(values[position])
        if not values_by_wafer:
            raise DataError(f"no {rule.parameter!r} measurements under batch {batch_id}")
        rejected = sum(map(rule.wafer_rejected, values_by_wafer.values()))
        rates.append(100 * rejected / len(values_by_wafer))
    column = Column(rule.reject_rate_column(), ColumnKind.NUMERIC, units="percent")
    return Table.from_columns(GranularityLevel.BATCH, (column,), batch.key_fields, (rates,))


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
        raise UsageError(f"from_level {from_level.name} must be coarser than to_level {to_level.name}")
    source = dataset.table(from_level)
    target = dataset.table(to_level)
    by_ancestor = dict(zip(source.ancestor_ids(from_level), source.cells[source.column_index(column)]))

    values = []
    for position, ancestor in enumerate(target.ancestor_ids(from_level)):
        if ancestor not in by_ancestor:
            key = target.key(position)
            raise DataError(f"row {key} has no {from_level.name} ancestor {key.ancestor(from_level)}")
        values.append(by_ancestor[ancestor])
    return Table.from_columns(to_level, (source.column(column),), target.key_fields, (values,))
