"""CSV ingestion, case-dropping screens, and per-level CSV export.

File format: UTF-8, comma-separated, RFC 4180 quoting, first row header.
Timestamp cells are exactly ``YYYY-MM-DD HH:MM`` in local plant time; no
time-zone arithmetic anywhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any

from .errors import ParseError, SchemaError, UsageError
from .model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    Row,
    Table,
    is_missing,
)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "na", "?"})

# Canonical CSV file name per level, used by export and the CLI.
LEVEL_FILENAMES = {
    GranularityLevel.BATCH: "batch.csv",
    GranularityLevel.WAFER: "wafer.csv",
    GranularityLevel.SITE: "site.csv",
    GranularityLevel.IC: "ic.csv",
}


@dataclass(frozen=True)
class TableSchema:
    """How to read one per-level CSV: key columns, data columns, missing tokens."""

    level: GranularityLevel
    key_columns: tuple[str, ...]
    columns: tuple[Column, ...]
    missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "missing_tokens", frozenset(self.missing_tokens))
        expected = self.level.value + 1
        if len(self.key_columns) != expected:
            raise UsageError(
                f"{self.level.name} schema needs {expected} key columns, "
                f"got {len(self.key_columns)}"
            )
        if any(not name for name in self.key_columns):
            raise UsageError("key column names must be nonempty")
        if not self.missing_tokens:
            raise UsageError("missing-value token set must be nonempty")
        clash = set(self.key_columns) & {c.name for c in self.columns}
        if clash:
            raise UsageError(f"key columns redeclared as data columns: {sorted(clash)}")


def parse_timestamp(text: str) -> datetime:
    return datetime.strptime(text, TIMESTAMP_FORMAT)


def format_timestamp(value: datetime) -> str:
    return value.strftime(TIMESTAMP_FORMAT)


def _parse_cell(text: str, column: Column, row_number: int, tokens: frozenset[str]) -> Any:
    if text in tokens:
        return MISSING
    if column.kind is ColumnKind.NUMERIC:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # fails the finiteness check below
        if not math.isfinite(value):
            raise ParseError(
                f"row {row_number}, column {column.name}: "
                f"cannot parse {text!r} as a finite number"
            )
        return value
    if column.kind is ColumnKind.TIMESTAMP:
        try:
            return parse_timestamp(text)
        except ValueError:
            raise ParseError(
                f"row {row_number}, column {column.name}: "
                f"cannot parse {text!r} as {TIMESTAMP_FORMAT!r}"
            ) from None
    return text


def load_table(path: str | Path, schema: TableSchema) -> Table:
    """Load one CSV into a Table, matching columns by header name.

    Cells equal to a declared missing token become the missing marker. Key
    cells may not be missing. Extra CSV columns are ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file has no header row") from None
        positions: dict[str, int] = {}
        for i, name in enumerate(header):
            positions.setdefault(name, i)
        needed = list(schema.key_columns) + [c.name for c in schema.columns]
        absent = [name for name in needed if name not in positions]
        if absent:
            raise SchemaError(f"{path}: missing declared columns {absent}")

        width = 1 + max(positions[name] for name in needed)
        rows: list[Row] = []
        for row_number, record in enumerate(reader, start=1):
            if len(record) < width:
                raise ParseError(
                    f"{path}: row {row_number} has {len(record)} fields, "
                    f"expected at least {width}"
                )
            ids = []
            for name in schema.key_columns:
                value = record[positions[name]]
                if value in schema.missing_tokens:
                    raise ParseError(
                        f"{path}: row {row_number}: key column {name} is missing"
                    )
                ids.append(value)
            key = EntityKey(schema.level, *ids)
            cells = tuple(
                _parse_cell(record[positions[c.name]], c, row_number, schema.missing_tokens)
                for c in schema.columns
            )
            rows.append(Row(key, cells))

    return Table(schema.level, schema.columns, tuple(rows))


def load_dataset(specs: list[tuple[str | Path, TableSchema]]) -> HierarchicalDataset:
    """Load several per-level CSVs into one dataset."""
    tables: dict[GranularityLevel, Table] = {}
    for path, schema in specs:
        if schema.level in tables:
            raise UsageError(f"two tables declared at {schema.level.name}")
        tables[schema.level] = load_table(path, schema)
    return HierarchicalDataset(tables)


def drop_missing(table: Table) -> tuple[Table, int]:
    """Drop every row that has at least one missing cell."""
    keep = [not any(is_missing(v) for v in row.cells) for row in table.rows]
    kept = table.filter_rows(keep)
    return kept, len(table) - len(kept)


def apply_sensor_limits(
    table: Table,
) -> tuple[Table, list[tuple[EntityKey, str, float]]]:
    """Discard rows with any numeric cell strictly outside its column's limits.

    Boundary values (exactly lo or hi) are kept. Returns the kept table and
    one flag per violating cell of each discarded row.
    """
    limited = [
        (i, col.name, col.sensor_limits)
        for i, col in enumerate(table.columns)
        if col.kind is ColumnKind.NUMERIC and col.sensor_limits is not None
    ]
    if not limited:
        return table, []

    flagged: list[tuple[EntityKey, str, float]] = []
    keep: list[bool] = []
    for row in table.rows:
        row_flags = [
            (row.key, name, row.cells[i])
            for i, name, (lo, hi) in limited
            if not is_missing(row.cells[i]) and not lo <= row.cells[i] <= hi
        ]
        flagged.extend(row_flags)
        keep.append(not row_flags)
    return table.filter_rows(keep), flagged


def _format_cell(value: Any, column: Column) -> str:
    if is_missing(value):
        return ""
    if column.kind is ColumnKind.TIMESTAMP:
        return format_timestamp(value)
    if column.kind is ColumnKind.NUMERIC:
        return repr(float(value))
    return str(value)


def write_table(table: Table, path: str | Path) -> None:
    """Write a table as CSV: canonical key columns first, then data columns.

    Numeric cells use shortest round-trip float formatting so that
    export -> load reproduces identical values.
    """
    path = Path(path)
    key_names = table.level.key_fields
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(key_names) + list(table.column_names))
        for row in table.rows:
            cells = [_format_cell(v, c) for v, c in zip(row.cells, table.columns)]
            writer.writerow(list(row.key.ids) + cells)


def table_schema(table: Table) -> TableSchema:
    """Schema that reads back a CSV produced by write_table for this table."""
    return TableSchema(table.level, table.level.key_fields, table.columns)


def write_dataset(dataset: HierarchicalDataset, directory: str | Path) -> dict[GranularityLevel, Path]:
    """Write every level's table to <directory>/<level>.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[GranularityLevel, Path] = {}
    for level in dataset.levels:
        target = directory / LEVEL_FILENAMES[level]
        write_table(dataset.tables[level], target)
        written[level] = target
    return written


def read_dataset(directory: str | Path, schemas: list[TableSchema]) -> HierarchicalDataset:
    """Load a dataset previously written by write_dataset."""
    directory = Path(directory)
    return load_dataset(
        [(directory / LEVEL_FILENAMES[s.level], s) for s in schemas]
    )
