"""Domain types for multi-granularity manufacturing data.

A dataset is a set of keyed tables, one per granularity level, ordered
coarse to fine: batch > wafer > site > IC. A table is stored by column: one
tuple of row keys and one tuple of cells per column. The package builds
every table from columns; `Row` and `Table.rows` are the row view for
library callers. Values are immutable after construction; every operation
returns new objects. Columns are appended in one place,
`Table.with_added_columns`, which `join_tables` and the encoders call.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from itertools import compress, islice, repeat
from operator import itemgetter, lt
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

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


class _Missing:
    """Singleton marker for an absent cell value; distinct from any value."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


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
    prefix ``key[:level + 1]``.
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
    """Keyed table at a single granularity level, stored by column: `keys`
    holds each row's key and `cells` one tuple per column, in row order.

    `Table(level, columns, rows)` builds one from `Row`s; `from_columns`
    builds one from its keys and columns. Both end in `__post_init__`, the
    one structural check (column names, key levels, column lengths).
    Duplicate keys are data rather than construction errors and are reported
    by validate_hierarchy.
    """

    level: GranularityLevel
    columns: tuple[Column, ...]
    keys: tuple[EntityKey, ...]
    cells: tuple[tuple[Any, ...], ...]

    def __init__(
        self, level: GranularityLevel, columns: Sequence[Column], rows: Iterable[Row]
    ) -> None:
        rows, columns = tuple(rows), tuple(columns)
        short = next((row for row in rows if len(row.cells) != len(columns)), None)
        if short is not None:
            raise UsageError(f"row {short.key} has {len(short.cells)} cells for {len(columns)} columns")
        cells = list(zip(*(row.cells for row in rows))) or [()] * len(columns)
        # the dataclass is frozen: fields are set in the instance dict
        vars(self).update(level=level, columns=columns, keys=[row.key for row in rows], cells=cells)
        self.__post_init__()

    @classmethod
    def from_columns(cls, level: GranularityLevel, columns: Sequence[Column],
                     keys: Iterable[EntityKey], cells: Iterable[Iterable[Any]]) -> "Table":
        """Table of one key per row and one cell sequence per column, in row order."""
        table = cls.__new__(cls)
        vars(table).update(level=level, columns=columns, keys=keys, cells=cells)
        table.__post_init__()
        return table

    def __post_init__(self) -> None:
        """Store tuples and check them; perfbench/tracer.py patches this hook."""
        vars(self).update(
            columns=tuple(self.columns), keys=tuple(self.keys), cells=tuple(map(tuple, self.cells))
        )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            twice = sorted({name for name in names if names.count(name) > 1})
            raise UsageError(f"duplicate column names: {twice}")
        depth, height = self.level + 1, len(self.keys)
        if set(map(len, self.keys)) - {depth}:
            key = next(key for key in self.keys if len(key) != depth)
            named = 0 < len(key) <= 4  # a key built around its check may not be
            at = f"is at {GranularityLevel(len(key) - 1).name}" if named else f"has {len(key)} ids"
            raise UsageError(f"row {key} {at}, table is {self.level.name}")
        if len(self.cells) != len(self.columns):
            raise UsageError(f"{len(self.cells)} cell columns for {len(self.columns)} columns")
        for column, cells in zip(self.columns, self.cells):
            if len(cells) != height:
                raise UsageError(f"column {column.name!r} has {len(cells)} cells for {height} rows")

    def __len__(self) -> int:
        return len(self.keys)

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
        return Table.from_columns(self.level, columns, self.keys, cells)

    def without_columns(self, names: Sequence[str]) -> "Table":
        """New table with the named columns removed."""
        drop = set(names)
        unknown = drop - set(self.column_names)
        if unknown:
            raise UsageError(f"cannot drop unknown columns: {sorted(unknown)}")
        keep = [i for i, c in enumerate(self.columns) if c.name not in drop]
        return Table.from_columns(
            self.level, [self.columns[i] for i in keep], self.keys, [self.cells[i] for i in keep]
        )

    def filter_rows(self, keep: Sequence[bool]) -> "Table":
        """Rows where the mask is true, order preserved; this table itself if that is all."""
        if len(keep) != len(self):
            raise UsageError("row mask does not align with rows")
        if all(keep):
            return self
        cells = [compress(column, keep) for column in self.cells]
        return Table.from_columns(self.level, self.columns, compress(self.keys, keep), cells)


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


def validate_hierarchy(dataset: HierarchicalDataset) -> ValidationReport:
    """Report every orphan child key and every duplicate key in the dataset.

    Coarse to fine, so each coarser key set is complete when a finer table is
    checked. C builtins prove a table clean, with no key set for a finest
    table whose keys strictly ascend; only a table with defects is walked.
    """
    duplicates: list[Violation] = []
    orphans: list[Violation] = []
    coarser: list[tuple[GranularityLevel, int, set[EntityKey] | None]] = []
    for level in dataset.levels:
        keys = dataset.tables[level].keys
        ascending = level is dataset.levels[-1] and all(map(lt, keys, islice(keys, 1, None)))
        seen = None if ascending else set(keys)
        if not (ascending or len(seen) == len(keys)) or not all(
            all(map(parents.__contains__, map(itemgetter(slice(depth)), keys)))
            for _, depth, parents in coarser
        ):
            seen = set()
            for key in keys:
                if key in seen:
                    duplicates.append(Violation("duplicate", level, key, f"key {key} occurs more than once"))
                seen.add(key)
                for parent_level, depth, parents in coarser:
                    if key[:depth] not in parents:
                        detail = f"row {key} has no {parent_level.name} ancestor {key.ancestor(parent_level)}"
                        orphans.append(Violation("orphan", level, key, detail))
        coarser.append((level, level + 1, seen))
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
    depth = ancestor_level + 1
    buckets: defaultdict[tuple[str, ...], array] = defaultdict(partial(array, "q"))
    for position, key in enumerate(table.keys):
        buckets[key[:depth]].append(position)
    return {_prefix_key(prefix): buckets[prefix] for prefix in sorted(buckets)}


def join_tables(left: Table, right: Table) -> Table:
    """Join two same-level tables on their keys, appending right's columns.

    Every left row must have exactly one match in right; column names must
    not collide. Used to assemble analysis-level feature tables.
    """
    if left.level is not right.level:
        raise UsageError(f"cannot join {left.level.name} table with {right.level.name} table")
    position_of = dict(zip(right.keys, range(len(right))))
    if len(position_of) != len(right):
        raise UsageError("right table has duplicate keys; cannot join")
    positions = list(map(position_of.get, left.keys))
    if None in positions:
        raise UsageError(f"no right-side row for key {left.keys[positions.index(None)]}")
    return left.with_added_columns(
        right.columns, [list(map(column.__getitem__, positions)) for column in right.cells]
    )
