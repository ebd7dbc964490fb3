"""Time-feature engineering and redundancy screening.

Cyclical encodings expose hour-of-day style patterns; the sequential
encoding (whole minutes from a fixed epoch) exposes one-off events and is
decoded back to a calendar timestamp for reporting; batch order reads the
decimal digits of a batch id, and an id without one is a DataError. Every
encoding appends its columns through `_derive`, which maps one source value
per row and gives missing cells for a missing source.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from enum import Enum
from functools import partial
from itertools import repeat
from operator import mul, sub
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .errors import DataError, UsageError
from .ingest import write_csv
from .lift import mean
from .model import MISSING, Column, ColumnKind, Table

DEFAULT_EPOCH = datetime(1990, 1, 1, 0, 0)

SEQUENTIAL_COLUMN = "minutes_from_epoch"
BATCH_ORDER_COLUMN = "batch_order"
CYCLICAL_COLUMNS = ("hour_of_day", "day_of_week", "week_of_month", "is_weekend", "is_holiday")

DEFAULT_CORRELATION_THRESHOLD = 0.95


class TimeMode(str, Enum):
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class TimeEncodingSpec:
    mode: TimeMode
    epoch: datetime = DEFAULT_EPOCH


def _derive(
    table: Table, columns: Sequence[Column], values: Sequence[Any], cells: Callable[[Any], tuple]
) -> Table:
    """The table with columns appended whose cells are cells(value) of each
    row's source value; a missing source value gives missing cells."""
    blank = (MISSING,) * len(columns)
    derived = [blank if value is MISSING else cells(value) for value in values]
    return table.with_added_columns(columns, list(zip(*derived)) or [()] * len(columns))


def _cyclical_cells(ts: datetime, holidays: frozenset[date]) -> tuple[int, int, int, int, int]:
    day_of_week = ts.weekday()  # 0 = Monday
    week_of_month = math.ceil(ts.day / 7)
    is_weekend = 1 if day_of_week in (5, 6) else 0
    is_holiday = 1 if ts.date() in holidays else 0
    return ts.hour, day_of_week, week_of_month, is_weekend, is_holiday


def encode_cyclical(
    table: Table, time_column: str, holidays: Iterable[date] = ()
) -> Table:
    """Add hour_of_day, day_of_week, week_of_month, is_weekend, is_holiday.

    Missing timestamps yield missing encoded cells. day_of_week uses
    0 = Monday; week_of_month is ceil(day_of_month / 7).
    """
    if table.column(time_column).kind is not ColumnKind.TIMESTAMP:
        raise UsageError(f"column {time_column!r} is not a timestamp")
    columns = [Column(name, ColumnKind.NUMERIC) for name in CYCLICAL_COLUMNS]
    cells = partial(_cyclical_cells, holidays=frozenset(holidays))
    return _derive(table, columns, table.values(time_column), cells)


def encode_sequential(table: Table, time_column: str, spec: TimeEncodingSpec) -> Table:
    """Add minutes_from_epoch: whole minutes from spec.epoch (negative allowed)."""
    if table.column(time_column).kind is not ColumnKind.TIMESTAMP:
        raise UsageError(f"column {time_column!r} is not a timestamp")
    column = Column(SEQUENTIAL_COLUMN, ColumnKind.NUMERIC, units="minutes")
    minute = timedelta(minutes=1)
    return _derive(
        table, [column], table.values(time_column), lambda ts: ((ts - spec.epoch) // minute,)
    )


def decode_sequential(minutes: int, spec: TimeEncodingSpec) -> datetime:
    """Inverse of encode_sequential for minute-precision timestamps."""
    return spec.epoch + timedelta(minutes=int(minutes))


def _digit_order(value: str) -> tuple[int]:
    digits = "".join(ch for ch in value if ch.isdecimal())
    if not digits:
        raise DataError(f"batch id {value!r} has no decimal digit to order by")
    return (int(digits),)


def order_from_batch_id(table: Table, id_column: str) -> Table:
    """Add batch_order: the integer formed by concatenating the ID's digit runs.

    id_column may name an identifier-kind data column or one of the key
    fields (batch_id, wafer_id, site_id, ic_id) at or above the table's
    level. A missing ID gets a missing batch_order; a present ID without a
    decimal digit is a DataError.
    """
    if table.has_column(id_column):
        if table.column(id_column).kind is not ColumnKind.IDENTIFIER:
            raise UsageError(f"column {id_column!r} is not identifier-kind")
        ids = table.values(id_column)
    elif id_column in table.level.key_fields:
        position = table.level.key_fields.index(id_column)
        ids = table.key_fields[position]
    else:
        raise UsageError(
            f"{id_column!r} is neither an identifier column nor a key field "
            f"of the {table.level.name} table"
        )
    return _derive(table, [Column(BATCH_ORDER_COLUMN, ColumnKind.NUMERIC)], ids, _digit_order)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Pearson coefficients over a table's numeric columns.

    matrix entries are None where the coefficient is undefined (constant
    column or fewer than two complete pair rows). Constant columns are
    auto-flagged into suggested_drops.
    """

    columns: tuple[str, ...]
    matrix: tuple[tuple[float | None, ...], ...]
    flagged_pairs: tuple[tuple[str, str, float], ...]
    suggested_drops: tuple[str, ...]
    threshold: float

    def coefficient(self, a: str, b: str) -> float | None:
        i, j = self.columns.index(a), self.columns.index(b)
        return self.matrix[i][j]


def _centred(values: Sequence[float]) -> tuple[list[float], float | None]:
    """Deviations from the mean, and the sum of their squares (None where it overflows)."""
    deviations = list(map(sub, values, repeat(mean(values))))
    try:
        squares = math.fsum(map(mul, deviations, deviations))
    except OverflowError:
        return deviations, None
    return deviations, squares if math.isfinite(squares) else None


def _root_product(ssx: float, ssy: float) -> float:
    """sqrt(ssx * ssy), rooted apart where the product is not a normal finite float."""
    product = ssx * ssy
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(ssx) * math.sqrt(ssy)


def correlation_table(
    table: Table, flag_threshold: float = DEFAULT_CORRELATION_THRESHOLD
) -> CorrelationReport:
    """Pearson coefficient per numeric-column pair over rows where both
    cells are present.

    Pairs with |r| >= flag_threshold are flagged; the later column of each
    flagged pair (schema order) and every constant column land in
    suggested_drops.

    Columns without gaps are centred once; a pair with a gap centres the rows
    where both are present. Every sum is `math.fsum`, correctly rounded on
    every CPython version; a pair whose sum of squares overflows has no
    coefficient.
    """
    numeric = [c.name for c in table.columns if c.kind is ColumnKind.NUMERIC]
    if len(numeric) < 2:
        raise UsageError("correlation table needs at least 2 numeric columns")
    series = {name: table.values(name) for name in numeric}
    if sum(MISSING not in cells for cells in zip(*series.values())) < 2:
        raise UsageError("correlation table needs at least 2 complete rows")

    constant = [name for name in numeric if len(set(series[name]) - {MISSING}) <= 1]
    centred = {name: _centred(v) for name, v in series.items() if MISSING not in v}

    size = len(numeric)
    matrix: list[list[float | None]] = [[None] * size for _ in range(size)]
    flagged: list[tuple[str, str, float]] = []
    drops: list[str] = list(constant)
    for i in range(size):
        if numeric[i] not in constant:
            matrix[i][i] = 1.0
        for j in range(i + 1, size):
            a, b = numeric[i], numeric[j]
            if a in centred and b in centred:
                (dx, ssx), (dy, ssy) = centred[a], centred[b]
            else:
                present = [
                    (x, y)
                    for x, y in zip(series[a], series[b])
                    if x is not MISSING and y is not MISSING
                ]
                (dx, ssx), (dy, ssy) = map(_centred, zip(*present))
            # finite sums of squares bound the covariance: |cov| <= sqrt(ssx * ssy)
            r = math.fsum(map(mul, dx, dy)) / _root_product(ssx, ssy) if ssx and ssy else None
            matrix[i][j] = matrix[j][i] = r
            if r is not None and abs(r) >= flag_threshold:
                flagged.append((a, b, r))
                if b not in drops:
                    drops.append(b)

    ordered_drops = tuple(name for name in numeric if name in drops)
    return CorrelationReport(
        columns=tuple(numeric),
        matrix=tuple(tuple(row) for row in matrix),
        flagged_pairs=tuple(flagged),
        suggested_drops=ordered_drops,
        threshold=flag_threshold,
    )


def flag_correlated(report: CorrelationReport, table: Table) -> Table:
    """Remove the report's suggested_drops columns from the table.

    Single pass: the kept columns are not guaranteed to be pairwise below
    the flag threshold.
    """
    numeric = tuple(c.name for c in table.columns if c.kind is ColumnKind.NUMERIC)
    if report.columns != numeric:
        raise UsageError(
            "correlation report does not match table's numeric columns"
        )
    if not report.suggested_drops:
        return table
    return table.without_columns(report.suggested_drops)


def write_correlation_csv(report: CorrelationReport, path: str | Path) -> None:
    """Export all pairs as CSV with columns col_a, col_b, r, flagged."""
    flagged_set = {(a, b) for a, b, _ in report.flagged_pairs}
    names = report.columns
    write_csv(
        path,
        ["col_a", "col_b", "r", "flagged"],
        (
            [a, b, "" if r is None else repr(r), int((a, b) in flagged_set)]
            for i, a in enumerate(names)
            for b, r in zip(names[i + 1 :], report.matrix[i][i + 1 :])
        ),
    )
