"""CSV ingestion, case-dropping screens, and CSV export: `write_csv` is the
one CSV writer of the package, for tables and for every CSV artifact. Every
file written, CSV, JSON or text, goes through `_writing`, so a path the OS
refuses is a UsageError.

File format: UTF-8, comma-separated, RFC 4180 quoting, first row header.
Timestamp cells are exactly ``YYYY-MM-DD HH:MM`` in local plant time; no
time-zone arithmetic anywhere. In a table that `load_table` reads, equal key
ids and equal categorical or identifier cells are one `str`, shared by a dict
that the call drops; not by `sys.intern`, whose strings CPython 3.12 keeps
until the process exits.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar
from typing import get_args, get_origin, get_type_hints

from .errors import DataError, ParseError, SchemaError, UsageError
from .model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    Table,
)

T = TypeVar("T")

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "na", "?"})
_TEXT_KINDS = (ColumnKind.CATEGORICAL, ColumnKind.IDENTIFIER)

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
        names = [c.name for c in self.columns]
        clash = set(self.key_columns) & set(names)
        if clash:
            raise UsageError(f"key columns redeclared as data columns: {sorted(clash)}")
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise UsageError(f"columns declared twice: {twice}")


def parse_timestamp(text: str) -> datetime:
    return datetime.strptime(text, TIMESTAMP_FORMAT)


def format_timestamp(value: datetime) -> str:
    return value.strftime(TIMESTAMP_FORMAT)


def read_json(path: Path, what: str) -> Any:
    try:
        with path.open(encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{what} file {path} is not valid UTF-8 JSON: {exc}") from None


@contextmanager
def _writing(path: str | Path) -> Iterator[TextIO]:
    """`path` opened for UTF-8 text; an OSError while opening or writing it is a UsageError."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def write_text(text: str, path: Path) -> None:
    with _writing(path) as handle:
        handle.write(text)


def write_json(doc: Any, path: Path) -> None:
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def read_fields(doc: Any, context: str, **readers: Callable[[Any], Any]) -> dict[str, Any]:
    """Keyword arguments from a JSON object, each field read by its reader.

    A reader takes one JSON value and returns its Python value, or raises
    KeyError, TypeError or ValueError. A field without a reader is a
    UsageError. A null field counts as absent and is left out, so the
    dataclass default applies. A value its reader rejects is a UsageError.
    """
    if not isinstance(doc, dict):
        raise UsageError(f"{context} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(readers))
    if unknown:
        raise UsageError(f"unknown {context} fields: {unknown}")
    fields = {}
    for name, value in doc.items():
        try:
            if value is not None:
                fields[name] = readers[name](value)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{context}: {name} {value!r} is invalid: {exc}") from None
    return fields


def read_tagged(doc: Any, context: str, tag: str, reader: Callable[[Any], T]) -> tuple[T, dict]:
    """The required field `tag` of a JSON object, read, and its other
    fields, unread: e.g. an effect's "type" and its parameters."""
    if not isinstance(doc, dict):
        raise UsageError(f"{context} must be a JSON object, got {doc!r}")
    rest = dict(doc)
    fields = read_fields({tag: rest.pop(tag, None)}, context, **{tag: reader})
    if tag not in fields:
        raise UsageError(f"{context} needs field {tag!r}")
    return fields[tag], rest


def _exactly(kind: type, expected: str) -> Callable[[Any], Any]:
    """Reader of a value of exactly this type: true is not an integer."""

    def read(value: Any) -> Any:
        if type(value) is not kind:
            raise TypeError(f"expected {expected}")
        return value

    return read


integer = _exactly(int, "an integer")
flag = _exactly(bool, "true or false")
text = _exactly(str, "a string")


def number(value: Any) -> float:
    """A finite JSON integer or float, as a float."""
    # the comparison is false for nan and infinities, and exact for integers
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError("expected a finite number")
    return float(value)


def array(item: Callable[[Any], T]) -> Callable[[Any], tuple[T, ...]]:
    """Reader of a JSON array whose items `item` reads."""
    items = _exactly(list, "an array")
    return lambda value: tuple(item(v) for v in items(value))


def choice(options: Mapping[str, T] | type[Enum]) -> Callable[[Any], T]:
    """Reader of a key of options in any letter case; the keys of an enum
    are its lower-case member names, e.g. "batch"."""
    if not isinstance(options, Mapping):
        options = {member.name.lower(): member for member in options}

    def read(value: Any) -> T:
        key = text(value).lower()
        if key not in options:
            raise ValueError(f"expected one of {sorted(options)}")
        return options[key]

    return read


# A date is YYYY-MM-DD: not date.fromisoformat, whose grammar grows with the
# CPython version (3.11 reads "19901225" and "1990-W52-2").
_SCALARS = {
    int: integer, float: number, bool: flag, str: text, datetime: parse_timestamp,
    date: lambda value: datetime.strptime(value, "%Y-%m-%d").date(),
}


def instance(cls: type[T], context: str, **readers: Callable[[Any], Any]) -> Callable[[Any], T]:
    """Reader of a JSON object as the dataclass cls; a field of cls without
    a default is required. Each field is read by the type its annotation
    declares (`_reader`), unless `readers` gives it a reader of its own."""
    fields = dataclasses.fields(cls)
    hints = get_type_hints(cls)
    readers = {
        field.name: _reader(hints[field.name], f"{context}.{field.name}")
        for field in fields
        if field.name not in readers
    } | readers
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]

    def read(doc: Any) -> T:
        values = read_fields(doc, context, **readers)
        for name in required:
            if name not in values:
                raise UsageError(f"{context} needs field {name!r}")
        return cls(**values)

    return read


def _reader(hint: Any, context: str) -> Callable[[Any], Any]:
    """Reader of a JSON value as the declared type hint: X | None as X, a
    tuple or frozenset as an array, an enum by `choice`, a dataclass as an
    object named context, and the scalars by `_SCALARS`."""
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:
        (hint,) = (arg for arg in args if arg is not type(None))
        return _reader(hint, context)
    if origin in (tuple, frozenset):
        return array(_reader(args[0], context))
    if issubclass(hint, Enum):
        return choice(hint)
    if dataclasses.is_dataclass(hint):
        return instance(hint, context)
    return _SCALARS[hint]


# Records parsed together, a column at a time. The freed text of a block stays
# behind as allocator fragments, so blocks of 256 or more raised peak memory.
_BLOCK_ROWS = 64


def _next_records(reader: Any, count: int, path: Path) -> list[list[str]]:
    """Up to count more records; input the reader cannot decode or split is a ParseError."""
    try:
        return list(islice(reader, count))
    except UnicodeDecodeError as exc:
        bad, line = exc.object[exc.start:exc.end], reader.line_num + 1
        raise ParseError(f"{path}: byte {bad!r} on line {line} or later is not UTF-8") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _convert(texts: Sequence[str], kind: ColumnKind, tokens: frozenset[str]) -> list | None:
    """The cells of one column of this kind, or None if a cell does not parse."""
    try:
        if kind is ColumnKind.TIMESTAMP:
            return [MISSING if text in tokens else parse_timestamp(text) for text in texts]
        if kind is not ColumnKind.NUMERIC:
            return [MISSING if text in tokens else text for text in texts]
        values = [MISSING if text in tokens else float(text) for text in texts]
    except ValueError:
        return None
    return values if all(value is MISSING or math.isfinite(value) for value in values) else None


def load_table(path: str | Path, schema: TableSchema) -> Table:
    """Load one CSV into a Table, matching columns by header name.

    Cells equal to a declared missing token become the missing marker. Key
    cells may not be missing, and an empty key cell is missing whatever the
    tokens. Extra CSV columns are ignored. The file must be UTF-8.

    Rows are parsed in fixed blocks, a column at a time. In a file with
    several defects the error names the first defect of the first block that
    has any, in this order: a short row, a missing key cell (key columns in
    schema order), a cell that does not parse (data columns in schema order),
    each at the first such row of the block.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    with handle:
        reader = csv.reader(handle)
        header = _next_records(reader, 1, path)
        if not header:
            raise SchemaError(f"{path}: file has no header row")
        positions: dict[str, int] = {}
        for i, name in enumerate(header[0]):
            positions.setdefault(name, i)
        needed = list(schema.key_columns) + [c.name for c in schema.columns]
        absent = [name for name in needed if name not in positions]
        if absent:
            raise SchemaError(f"{path}: missing declared columns {absent}")

        width = 1 + max(positions[name] for name in needed)
        tokens = schema.missing_tokens
        no_key = tokens | {""}
        shared = {positions[c.name] for c in schema.columns if c.kind in _TEXT_KINDS}
        shared |= {positions[name] for name in schema.key_columns}
        share = {}.setdefault  # the first str read of each id or text, for every later copy
        key_fields: list[list[str]] = [[] for _ in schema.key_columns]
        cells: list[list[Any]] = [[] for _ in schema.columns]
        while block := _next_records(reader, _BLOCK_ROWS, path):
            first = len(key_fields[0]) + 1  # row number of block[0]
            if min(map(len, block)) < width:
                i = next(i for i, record in enumerate(block) if len(record) < width)
                raise ParseError(
                    f"{path}: row {first + i} has {len(block[i])} fields, "
                    f"expected at least {width}"
                )
            fields = [tuple(map(share, f, f)) if i in shared else f for i, f in enumerate(zip(*block))]
            ids = [fields[positions[name]] for name in schema.key_columns]
            for name, column in zip(schema.key_columns, ids):
                if not no_key.isdisjoint(column):
                    i = next(i for i, value in enumerate(column) if value in no_key)
                    raise ParseError(f"{path}: row {first + i}: key column {name} is missing")
            for c, parsed in zip(schema.columns, cells):
                texts = fields[positions[c.name]]
                values = _convert(texts, c.kind, tokens)
                if values is None:
                    i = [_convert([text], c.kind, tokens) for text in texts].index(None)
                    numeric = c.kind is ColumnKind.NUMERIC
                    expected = "a finite number" if numeric else repr(TIMESTAMP_FORMAT)
                    where = f"{path}: row {first + i}, column {c.name}"
                    raise ParseError(f"{where}: cannot parse {texts[i]!r} as {expected}")
                parsed.extend(values)
            deque(map(EntityKey.from_ids, zip(*ids)), maxlen=0)  # each row's ids checked once
            for field, column in zip(key_fields, ids):
                field.extend(column)

    return Table.from_columns(schema.level, schema.columns, key_fields, cells)


def load_dataset(specs: list[tuple[str | Path, TableSchema]]) -> HierarchicalDataset:
    """Load several per-level CSVs into one dataset."""
    tables: dict[GranularityLevel, Table] = {}
    for path, schema in specs:
        if schema.level in tables:
            raise UsageError(f"two tables declared at {schema.level.name}")
        tables[schema.level] = load_table(path, schema)
    return HierarchicalDataset(tables)


def drop_missing(table: Table) -> tuple[Table, int]:
    """Drop every row that has at least one missing cell; a table with no
    missing cell comes back as itself."""
    gaps = [column for column in table.cells if MISSING in column]
    if not gaps:
        return table, 0
    kept = table.filter_rows(bytes(MISSING not in cells for cells in zip(*gaps)))
    return kept, len(table) - len(kept)


def apply_sensor_limits(
    table: Table,
) -> tuple[Table, list[tuple[EntityKey, str, float]]]:
    """Discard rows with any cell strictly outside its column's limits.

    Boundary values (exactly lo or hi) are kept. Returns the kept table (the
    table itself if no row is discarded) and one flag per violating cell of
    each discarded row.
    """
    limited = [
        (i, col.name, col.sensor_limits)
        for i, col in enumerate(table.columns)
        if col.sensor_limits is not None
    ]

    # every violating cell, scanned one limited column at a time, sorted back
    # to row order and, within a row, to column order
    hits = sorted(
        (r, order, name, value)
        for order, (i, name, (lo, hi)) in enumerate(limited)
        for r, value in enumerate(table.cells[i])
        if value is not MISSING and not lo <= value <= hi
    )
    keep = bytearray(b"\x01") * len(table)
    for hit in hits:
        keep[hit[0]] = 0
    return table.filter_rows(keep), [(table.key(r), c, v) for r, _, c, v in hits]


def _format_cell(value: Any, column: Column) -> str:
    if value is MISSING:
        return ""
    if column.kind is ColumnKind.TIMESTAMP:
        return format_timestamp(value)
    if column.kind is ColumnKind.NUMERIC:
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header row, then the rows, as UTF-8 CSV with line-feed line ends."""
    with _writing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_table(table: Table, path: str | Path) -> None:
    """Write a table as CSV: canonical key columns first, then data columns.

    Numeric cells use shortest round-trip float formatting so that
    export -> load reproduces identical values. An empty text cell would
    read back as missing, so it is a UsageError.
    """
    for c, cells in zip(table.columns, table.cells):
        if c.kind in _TEXT_KINDS and "" in cells:
            key = table.key(cells.index(""))
            raise UsageError(f"empty {c.name!r} cell in row {key} would read back as missing")
    texts = (map(_format_cell, cells, repeat(c)) for c, cells in zip(table.columns, table.cells))
    write_csv(path, table.level.key_fields + table.column_names, zip(*table.key_fields, *texts))


def table_schema(table: Table) -> TableSchema:
    """Schema that reads back a CSV produced by write_table for this table. Its
    one missing token is "", which write_table writes only for a missing cell."""
    return TableSchema(table.level, table.level.key_fields, table.columns, {""})


def make_output_dir(directory: Path) -> None:
    """mkdir -p; a path the OS refuses, such as one naming a file, is a UsageError."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {directory}: {exc.strerror}") from None


def write_dataset(dataset: HierarchicalDataset, directory: str | Path) -> dict[GranularityLevel, Path]:
    """Write every level's table to <directory>/<level>.csv."""
    directory = Path(directory)
    make_output_dir(directory)
    written = {level: directory / f"{level.name.lower()}.csv" for level in dataset.levels}
    for level, path in written.items():
        write_table(dataset.tables[level], path)
    return written


def read_dataset(directory: str | Path, schemas: list[TableSchema]) -> HierarchicalDataset:
    """Load a dataset previously written by write_dataset."""
    directory = Path(directory)
    return load_dataset([(directory / f"{s.level.name.lower()}.csv", s) for s in schemas])
