"""Domain types for multi-granularity manufacturing data.

A dataset is a set of keyed tables, one per granularity level, ordered
coarse to fine: batch > wafer > site > IC. A table is stored by column: one
tuple of ids per key field (batch_id first) and one tuple of cells per
column, so it holds no key object per row. The package builds every table
from columns; `Row`, `Table.rows` and `Table.keys` are the row views for
library callers. Values are immutable after construction; every operation
returns new objects. Columns are appended in one place,
`Table.with_added_columns`, which `join_tables` and the encoders call. A
missing cell is `None`, which every layer reads by the name `MISSING`.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from itertools import chain, compress, count, repeat
from math import prod
from operator import add, getitem, setitem
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import UsageError


class GranularityLevel(IntEnum):
    """The four levels, totally ordered coarse (BATCH) to fine (IC)."""

    BATCH = 0
    WAFER = 1
    SITE = 2
    IC = 3

    @property
    def key_fields(self) -> tuple[str, ...]:
        """Identifier field names a key at this level must carry."""
        return _KEY_FIELDS[: self.value + 1]


_KEY_FIELDS = ("batch_id", "wafer_id", "site_id", "ic_id")


MISSING = None


class ColumnKind(IntEnum):
    NUMERIC = 0
    CATEGORICAL = 1
    TIMESTAMP = 2
    IDENTIFIER = 3


@dataclass(frozen=True)
class Column:
    """Declaration of one table column.

    sensor_limits is an inclusive (lo, hi) range and is only meaningful for
    numeric columns.
    """

    name: str
    kind: ColumnKind
    units: str | None = None
    sensor_limits: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise UsageError("column name must be nonempty")
        if self.sensor_limits is not None:
            if self.kind is not ColumnKind.NUMERIC:
                raise UsageError(
                    f"column {self.name!r}: sensor limits require numeric kind"
                )
            if len(self.sensor_limits) != 2 or not self.sensor_limits[0] < self.sensor_limits[1]:
                raise UsageError(
                    f"column {self.name!r}: sensor limits need lo < hi, got {self.sensor_limits}"
                )


class EntityKey(tuple):
    """Key of one row: the tuple of its identifiers, coarse to fine.

    A key at `level` (0 to 3) is exactly its level + 1 non-empty ids; any
    other level or id count is a UsageError. It hashes, compares and sorts
    like that plain tuple, and the ids of its ancestor at `level` are the
    prefix ``key[:level + 1]``. A table stores its rows' ids by field, not
    as keys: the package checks each input row's ids once, through
    `from_ids`, and drops the key.
    """

    __slots__ = ()

    def __new__(cls, level, batch_id=None, wafer_id=None, site_id=None, ic_id=None):
        if level not in range(4):
            raise UsageError(f"key level must be 0 to 3, got {level!r}")
        ids, depth = (batch_id, wafer_id, site_id, ic_id), level + 1
        if ids[depth:].count(None) != len(ids) - depth:
            extra = next(f for f, v in zip(_KEY_FIELDS[depth:], ids[depth:]) if v is not None)
            raise UsageError(f"{GranularityLevel(level).name} key must not carry {extra}")
        return cls.from_ids(ids[:depth])

    @classmethod
    def from_ids(cls, ids: tuple[str, ...]) -> "EntityKey":
        """Checked key of one to four ids, coarse to fine; its level is len(ids) - 1."""
        key = tuple.__new__(cls, ids)
        key.__post_init__()
        return key

    def __post_init__(self) -> None:
        """Check one to four ids, each non-empty; perfbench/tracer.py patches this hook."""
        if not self or len(self) > 4:
            raise UsageError(f"a key needs 1 to 4 ids, got {len(self)}")
        if not all(self):
            missing = _KEY_FIELDS[[bool(v) for v in self].index(False)]
            raise UsageError(f"{self.level.name} key needs {missing}")

    def __reduce__(self):
        return EntityKey, (self.level, *self)

    @property
    def level(self) -> GranularityLevel:
        return GranularityLevel(len(self) - 1)

    batch_id = property(lambda key: key[0])
    wafer_id = property(lambda key: key[1] if len(key) > 1 else None)
    site_id = property(lambda key: key[2] if len(key) > 2 else None)
    ic_id = property(lambda key: key[3] if len(key) > 3 else None)

    @property
    def ids(self) -> tuple[str, ...]:
        """Identifiers coarse to fine, exactly level depth + 1 of them."""
        return tuple(self)

    def ancestor(self, level: GranularityLevel) -> "EntityKey":
        """Key of this row's ancestor at a coarser (or equal) level."""
        if level > self.level:
            raise UsageError(
                f"{level.name} is finer than {self.level.name}; no such ancestor"
            )
        return _prefix_key(self[: level + 1])

    def __repr__(self) -> str:
        return f"EntityKey(GranularityLevel.{self.level.name}, {', '.join(map(repr, self))})"

    def __str__(self) -> str:
        return "/".join(self)


# A prefix of a checked key is a valid key of a coarser level: no re-check.
_prefix_key = partial(tuple.__new__, EntityKey)


class Row(NamedTuple):
    """One row as library callers build and read a table: its key and cells."""

    key: EntityKey
    cells: tuple[Any, ...]


@dataclass(frozen=True, init=False)
class Table:
    """Keyed table at a single granularity level, stored by column:
    `key_fields` holds one tuple of ids per key field of the level (batch
    ids first) and `cells` one tuple per column, in row order.

    `Table(level, columns, rows)` builds one from `Row`s; `from_columns`
    builds one from its key fields and columns. Both end in `__post_init__`,
    the one structural check (column names, field and column counts and
    lengths). Duplicate keys are data rather than construction errors and
    are reported by validate_hierarchy.
    """

    level: GranularityLevel
    columns: tuple[Column, ...]
    key_fields: tuple[tuple[str, ...], ...]
    cells: tuple[tuple[Any, ...], ...]

    def __init__(
        self, level: GranularityLevel, columns: Sequence[Column], rows: Iterable[Row]
    ) -> None:
        rows, columns = tuple(rows), tuple(columns)
        short = next((row for row in rows if len(row.cells) != len(columns)), None)
        if short is not None:
            raise UsageError(f"row {short.key} has {len(short.cells)} cells for {len(columns)} columns")
        key = next((row.key for row in rows if len(row.key) != level + 1), None)
        if key is not None:
            named = 0 < len(key) <= 4  # a key built around its check may not be
            at = f"is at {GranularityLevel(len(key) - 1).name}" if named else f"has {len(key)} ids"
            raise UsageError(f"row {key} {at}, table is {level.name}")
        cells = list(zip(*(row.cells for row in rows))) or [()] * len(columns)
        key_fields = list(zip(*(row.key for row in rows))) or [()] * (level + 1)
        # the dataclass is frozen: fields are set in the instance dict
        vars(self).update(level=level, columns=columns, key_fields=key_fields, cells=cells)
        self.__post_init__()

    @classmethod
    def from_columns(cls, level: GranularityLevel, columns: Sequence[Column],
                     key_fields: Iterable[Iterable[str]], cells: Iterable[Iterable[Any]]) -> "Table":
        """Table of one id sequence per key field and one cell sequence per
        column, in row order; the ids are taken as given."""
        table = cls.__new__(cls)
        vars(table).update(level=level, columns=columns, key_fields=key_fields, cells=cells)
        table.__post_init__()
        return table

    def __post_init__(self) -> None:
        """Store tuples and check them; perfbench/tracer.py patches this hook."""
        vars(self).update(columns=tuple(self.columns), key_fields=tuple(map(tuple, self.key_fields)),
                          cells=tuple(map(tuple, self.cells)))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            twice = sorted({name for name in names if names.count(name) > 1})
            raise UsageError(f"duplicate column names: {twice}")
        if len(self.key_fields) != self.level + 1:
            raise UsageError(f"{len(self.key_fields)} key fields for a {self.level.name} table")
        height = len(self.key_fields[0])
        for name, ids in zip(self.level.key_fields, self.key_fields):
            if len(ids) != height:
                raise UsageError(f"key field {name} has {len(ids)} ids for {height} rows")
        if len(self.cells) != len(self.columns):
            raise UsageError(f"{len(self.cells)} cell columns for {len(self.columns)} columns")
        for column, cells in zip(self.columns, self.cells):
            if len(cells) != height:
                raise UsageError(f"column {column.name!r} has {len(cells)} cells for {height} rows")

    def __len__(self) -> int:
        return len(self.key_fields[0])

    @property
    def keys(self) -> tuple[EntityKey, ...]:
        """Each row's key, built unchecked on each call for library callers."""
        return tuple(map(_prefix_key, zip(*self.key_fields)))

    def key(self, position: int) -> EntityKey:
        """The key of the row at `position`, as `keys` builds it."""
        return _prefix_key(field[position] for field in self.key_fields)

    def ancestor_ids(self, level: GranularityLevel) -> Iterable[str | tuple[str, ...]]:
        """Each row's ancestor at `level` (this one or coarser), in row order: its
        batch id at the batch level, else a tuple of ids made as it is read."""
        fields = self.key_fields[: level + 1]
        return fields[0] if level == GranularityLevel.BATCH else zip(*fields)

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows, built on each call for library callers."""
        return tuple(map(Row, self.keys, zip(*self.cells) if self.cells else repeat(())))

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UsageError(f"no column {name!r} in {self.level.name} table")

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def values(self, name: str) -> list[Any]:
        """Cell values of one column, in row order (missing marker included)."""
        return list(self.cells[self.column_index(name)])

    def row_mapping(self, row: Row) -> dict[str, Any]:
        """One row's cells as a name -> value mapping."""
        return dict(zip(self.column_names, row.cells))

    def with_added_columns(self, columns: Sequence[Column], cells: Sequence[Sequence[Any]]) -> "Table":
        """New table with extra columns appended: one cell sequence per added
        column, in row order; names are new."""
        columns, cells = self.columns + tuple(columns), self.cells + tuple(cells)
        return Table.from_columns(self.level, columns, self.key_fields, cells)

    def without_columns(self, names: Sequence[str]) -> "Table":
        """New table with the named columns removed."""
        drop = set(names)
        unknown = drop - set(self.column_names)
        if unknown:
            raise UsageError(f"cannot drop unknown columns: {sorted(unknown)}")
        keep = [i for i, c in enumerate(self.columns) if c.name not in drop]
        return Table.from_columns(
            self.level, [self.columns[i] for i in keep], self.key_fields, [self.cells[i] for i in keep]
        )

    def filter_rows(self, keep: Sequence[bool]) -> "Table":
        """Rows where the mask is true, order preserved; this table itself if that is all."""
        if len(keep) != len(self):
            raise UsageError("row mask does not align with rows")
        if all(keep):
            return self
        key_fields = [compress(ids, keep) for ids in self.key_fields]
        cells = [compress(column, keep) for column in self.cells]
        return Table.from_columns(self.level, self.columns, key_fields, cells)


@dataclass(frozen=True)
class HierarchicalDataset:
    """At most one table per level; integrity is checked, not enforced."""

    tables: Mapping[GranularityLevel, Table] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for level, table in self.tables.items():
            if table.level is not level:
                raise UsageError(
                    f"table at key {level.name} declares level {table.level.name}"
                )
        object.__setattr__(self, "tables", dict(self.tables))

    @property
    def levels(self) -> tuple[GranularityLevel, ...]:
        return tuple(sorted(self.tables))

    def table(self, level: GranularityLevel) -> Table:
        if level not in self.tables:
            raise UsageError(f"dataset has no {level.name} table")
        return self.tables[level]

    def with_table(self, table: Table) -> "HierarchicalDataset":
        tables = dict(self.tables)
        tables[table.level] = table
        return HierarchicalDataset(tables)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature table plus an aligned binary target (1 = target class)."""

    features: Table
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.features):
            raise UsageError(f"{len(self.labels)} labels for {len(self.features)} rows")
        bad = sorted({v for v in self.labels} - {0, 1})
        if bad:
            raise UsageError(f"labels must be 0 or 1, got {bad}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def positives(self) -> int:
        return sum(self.labels)

    def filter_rows(self, keep: Sequence[bool]) -> "LabeledDataset":
        """New dataset keeping rows where the mask is true; order preserved."""
        return LabeledDataset(self.features.filter_rows(keep), tuple(compress(self.labels, keep)))


@dataclass(frozen=True)
class Violation:
    """One referential-integrity defect found by validate_hierarchy."""

    kind: str  # "orphan" | "duplicate"
    level: GranularityLevel
    key: EntityKey
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.level.name}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    orphans: tuple[Violation, ...]
    duplicates: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.orphans and not self.duplicates

    @property
    def violations(self) -> tuple[Violation, ...]:
        return self.duplicates + self.orphans


def _key_codes(fields: Sequence[Sequence[str]], codes: Sequence[Mapping[str, int]]) -> Iterable[int]:
    """Each row's ids as one int, in row order, in mixed radix: the sum of each
    id's code times the number of codes of every finer field."""
    rows, weight = None, 1
    for ids, code in zip(reversed(fields), reversed(codes[: len(fields)])):
        if weight > 1:
            code = {name: digit * weight for name, digit in code.items()}
        digits = map(code.__getitem__, ids)
        rows = digits if rows is None else map(add, rows, digits)
        weight *= len(code)
    return rows


def _mark(codes: Iterable[int], marks: Iterable[int], size: int,
          rows: int) -> tuple[Callable[[int], Any], int]:
    """Mark each code (0 to size - 1) with 1 or 0 in a byte per possible code,
    or in a dict where that is smaller (about 64 bytes a row). Returns a test
    for the codes and how many distinct codes are marked 1: `rows` only if
    the codes are distinct and every mark is 1."""
    if size > 64 * rows:
        found = dict(zip(codes, marks))
        return found.__contains__, sum(found.values())
    bits = bytearray(size)
    deque(map(setitem, repeat(bits), codes, marks), maxlen=0)
    return partial(getitem, bits), bits.count(1)


def validate_hierarchy(dataset: HierarchicalDataset) -> ValidationReport:
    """Report every orphan child key and every duplicate key in the dataset.

    A key is checked as one int, its ids' codes in mixed radix (one code per
    distinct id of a key field), so no tuple is kept per row. Coarse to fine:
    while every coarser table is clean, one pass of C builtins proves a table
    clean by marking each row's code with whether its ancestor is in the
    nearest coarser table. Any other table is walked; only the walk builds keys.
    """
    duplicates: list[Violation] = []
    orphans: list[Violation] = []
    tables = [dataset.tables[level] for level in dataset.levels]
    codes = []  # one int per distinct id of each key field
    for i in range(4):
        ids = dict.fromkeys(chain.from_iterable(t.key_fields[i] for t in tables if t.level >= i))
        codes.append(dict(zip(ids, count())))
    coarser: list[tuple[GranularityLevel, Callable[[int], Any]]] = []
    for table in tables:
        fields, level = table.key_fields, table.level
        marks = repeat(1)
        if coarser:
            parent, has_parent = coarser[-1]
            marks = map(has_parent, _key_codes(fields[: parent + 1], codes))
        has, clean = _mark(_key_codes(fields, codes), marks, prod(map(len, codes[: len(fields)])), len(table))
        if clean < len(table) or duplicates or orphans:
            seen: set[int] = set()
            ancestors = [_key_codes(fields[: parent + 1], codes) for parent, _ in coarser]
            for key, code, *ancestor_codes in zip(table.keys, _key_codes(fields, codes), *ancestors):
                if code in seen:
                    duplicates.append(Violation("duplicate", level, key, f"key {key} occurs more than once"))
                seen.add(code)
                for (parent, has_parent), ancestor in zip(coarser, ancestor_codes):
                    if not has_parent(ancestor):
                        detail = f"row {key} has no {parent.name} ancestor {key.ancestor(parent)}"
                        orphans.append(Violation("orphan", level, key, detail))
            has = seen.__contains__
        coarser.append((level, has))
    return ValidationReport(tuple(orphans), tuple(duplicates))


def group_by_ancestor(table: Table, ancestor_level: GranularityLevel) -> dict[EntityKey, array]:
    """Map each ancestor key at a strictly coarser level to the positions of
    its rows in the table.

    Keys come in ascending id order and positions in row order within a
    group, so downstream reductions are deterministic whatever the input
    order. Each group is one array of machine integers.
    """
    if ancestor_level >= table.level:
        raise UsageError(f"{ancestor_level.name} is not coarser than {table.level.name}")
    buckets: defaultdict[str | tuple[str, ...], array] = defaultdict(partial(array, "i"))
    for position, ancestor in enumerate(table.ancestor_ids(ancestor_level)):
        buckets[ancestor].append(position)
    batch = ancestor_level == GranularityLevel.BATCH  # its ancestors are ids, not tuples
    return {_prefix_key((a,) if batch else a): buckets[a] for a in sorted(buckets)}


def join_tables(left: Table, right: Table) -> Table:
    """Join two same-level tables on their keys, appending right's columns.

    Every left row must have exactly one match in right; column names must
    not collide. Used to assemble analysis-level feature tables.
    """
    if left.level is not right.level:
        raise UsageError(f"cannot join {left.level.name} table with {right.level.name} table")
    position_of = dict(zip(right.ancestor_ids(right.level), count()))
    if len(position_of) != len(right):
        raise UsageError("right table has duplicate keys; cannot join")
    positions = list(map(position_of.get, left.ancestor_ids(left.level)))
    if None in positions:
        raise UsageError(f"no right-side row for key {left.key(positions.index(None))}")
    return left.with_added_columns(
        right.columns, [list(map(column.__getitem__, positions)) for column in right.cells]
    )
