"""The hierarchy walk on id prefixes against a brute-force reference.

Every reference below builds each row's ancestor as an EntityKey with
`EntityKey.ancestor` and compares keys, the way the walk was first written.
The inputs are shuffled, carry duplicate keys, orphans at every level and an
IC table, so the prefix walk must agree on order, on text and on counts.
"""

import random
from collections import Counter

import pytest

from conftest import BATCH, IC, SITE, WAFER, traced_peak_share
from yieldtree.errors import DataError
from yieldtree.lift import broadcast_down
from yieldtree.model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    HierarchicalDataset,
    Row,
    Table,
    group_by_ancestor,
    validate_hierarchy,
)
from yieldtree.pipeline import ScreenSettings, _screen_dataset

SEEDS = range(12)


def _column(level):
    return Column(f"v{level.value}", ColumnKind.NUMERIC)


def _child(parent: tuple, level, name: str) -> tuple:
    """Ids of a row at `level` under `parent`; a skipped level reuses the name."""
    return parent + (name,) * (level.value + 1 - len(parent))


def random_dataset(rng: random.Random, levels=(BATCH, WAFER, SITE, IC), orphans=True, duplicates=True):
    """Shuffled tables at the given levels with one numeric column each.

    Children are drawn under existing parents, under parents that were never
    written (orphans, when asked for) and as exact repeats (duplicates).
    """
    ids_by_level = {}
    parents = [()]
    for level in levels:
        ids = []
        for parent in parents:
            for i in range(rng.randint(1, 3)):
                ids.append(_child(parent, level, f"{level.name[0].lower()}{i}"))
        if orphans and parents != [()]:
            # no ancestor at any level, then no parent under an existing grandparent
            ids.append(_child((f"ghost{rng.randint(0, 9)}",), level, "g"))
            stem = rng.choice(parents)
            ids.append(_child(stem[:-1] + ("lost",), level, f"x{rng.randint(0, 2)}"))
        if duplicates:
            ids.extend(rng.choice(ids) for _ in range(rng.randint(0, 2)))
        ids_by_level[level] = ids
        parents = sorted(set(ids))
    tables = {}
    for level, ids in ids_by_level.items():
        rows = [Row(EntityKey(level, *key), (float(i),)) for i, key in enumerate(ids)]
        rng.shuffle(rows)
        tables[level] = Table(level, (_column(level),), tuple(rows))
    return HierarchicalDataset(tables)


def reference_groups(table, level):
    buckets = {}
    for position, row in enumerate(table.rows):
        buckets.setdefault(row.key.ancestor(level), []).append(position)
    return [(key, buckets[key]) for key in sorted(buckets, key=lambda k: k.ids)]


def reference_violations(dataset):
    keys, duplicates, orphans = {}, [], []
    for level in dataset.levels:
        keys[level] = set()
        for row in dataset.tables[level].rows:
            if row.key in keys[level]:
                duplicates.append(("duplicate", level, row.key, f"key {row.key} occurs more than once"))
            keys[level].add(row.key)
    for level in dataset.levels:
        for row in dataset.tables[level].rows:
            for parent in dataset.levels:
                ancestor = row.key.ancestor(parent) if parent < level else None
                if ancestor is not None and ancestor not in keys[parent]:
                    detail = f"row {row.key} has no {parent.name} ancestor {ancestor}"
                    orphans.append(("orphan", level, row.key, detail))
    return orphans, duplicates


def reference_cascade(tables):
    pruned, tables = {}, dict(tables)
    levels = sorted(tables)
    for parent, level in zip(levels, levels[1:]):
        parent_keys = {row.key for row in tables[parent].rows}
        kept = tuple(r for r in tables[level].rows if r.key.ancestor(parent) in parent_keys)
        pruned[level.name.lower()] = len(tables[level]) - len(kept)
        tables[level] = Table(level, tables[level].columns, kept)
    return pruned, tables


def _as_tuples(violations):
    return [(v.kind, v.level, v.key, v.detail) for v in violations]


@pytest.mark.parametrize("seed", SEEDS)
def test_groups_and_their_order_match_reference(seed):
    dataset = random_dataset(random.Random(seed))
    for level in dataset.levels:
        for ancestor in dataset.levels:
            if ancestor < level:
                table = dataset.tables[level]
                groups = group_by_ancestor(table, ancestor).items()
                assert [(key, list(positions)) for key, positions in groups] == reference_groups(table, ancestor)


def test_groups_sorted_by_ids_whatever_the_input_order():
    table = random_dataset(random.Random(99)).tables[SITE]
    reversed_table = Table(SITE, table.columns, table.rows[::-1])
    forward = list(group_by_ancestor(table, WAFER))
    backward = list(group_by_ancestor(reversed_table, WAFER))
    assert forward == backward == sorted(forward, key=lambda k: k.ids)


@pytest.mark.parametrize("seed", SEEDS)
def test_violations_and_their_text_match_reference(seed):
    dataset = random_dataset(random.Random(seed))
    report = validate_hierarchy(dataset)
    orphans, duplicates = reference_violations(dataset)
    assert orphans and duplicates  # the fixture must exercise both kinds
    assert _as_tuples(report.orphans) == orphans
    assert _as_tuples(report.duplicates) == duplicates
    assert [str(v) for v in report.orphans] == [f"orphan at {o[1].name}: {o[3]}" for o in orphans]


def test_orphans_reported_at_every_level():
    dataset = random_dataset(random.Random(3))
    levels = {v.level for v in validate_hierarchy(dataset).orphans}
    assert levels == {WAFER, SITE, IC}


def test_clean_dataset_validates_ok():
    dataset = random_dataset(random.Random(5), orphans=False, duplicates=False)
    assert validate_hierarchy(dataset).ok
    assert validate_hierarchy(key_sorted(dataset)).ok


def key_sorted(dataset):
    """The dataset with every table's rows in ascending key order, as
    generated input and key-sorted CSVs have them."""
    return HierarchicalDataset({
        level: Table(level, table.columns, tuple(sorted(table.rows, key=lambda row: row.key)))
        for level, table in dataset.tables.items()
    })


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("duplicates", [True, False])
@pytest.mark.parametrize("levels", [(BATCH, WAFER, SITE, IC), (BATCH, SITE), (WAFER, IC)])
def test_key_sorted_violations_match_reference(seed, duplicates, levels):
    """Without duplicates the finest table's keys strictly ascend, and it is
    checked with no key set; with them, each duplicate sits next to its twin."""
    dataset = key_sorted(random_dataset(random.Random(seed), levels, duplicates=duplicates))
    report = validate_hierarchy(dataset)
    orphans, twins = reference_violations(dataset)
    assert _as_tuples(report.orphans) == orphans
    assert _as_tuples(report.duplicates) == twins


@pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)], ids=["ascending", "descending"])
def test_an_orphan_under_an_existing_grandparent_is_its_tables_only_defect(order):
    """Every coarser level is checked, not only the coarsest: the one
    orphan here has its batch and lacks its wafer."""
    keys = {BATCH: [("b1",)], WAFER: [("b1", "w1")], SITE: [("b1", "w1", "s1"), ("b1", "w2", "s1")]}
    dataset = HierarchicalDataset({
        level: Table(level, (), tuple(Row(EntityKey(level, *ids), ()) for ids in ids_list[order]))
        for level, ids_list in keys.items()
    })
    report = validate_hierarchy(dataset)
    assert [str(v) for v in report.violations] == ["orphan at SITE: row b1/w2/s1 has no WAFER ancestor b1/w2"]


@pytest.mark.parametrize("duplicates", [True, False])
def test_key_sorted_fixtures_cover_the_finest_table(duplicates):
    """Every key-sorted IC table has orphans; some have a duplicate next to
    its twin when duplicates are asked for, and none ever has otherwise."""
    twins, orphans = [], []
    for seed in SEEDS:
        dataset = key_sorted(random_dataset(random.Random(seed), duplicates=duplicates))
        keys = [row.key for row in dataset.tables[IC].rows]
        twins.append(any(map(tuple.__eq__, keys, keys[1:])))
        orphans.append(any(v.level is IC for v in validate_hierarchy(dataset).orphans))
    assert all(orphans) and any(twins) == duplicates


def test_validation_builds_no_key_set_for_an_ascending_finest_table():
    """Only the coarser tables' key sets are built (the finest one's alone is
    about 26% of the dataset's size)."""
    assert traced_peak_share(validate_hierarchy) < 0.15


def _blank_some_cells(dataset, rng):
    """Mark about one row in five missing, so the missing screen drops it."""
    tables = {}
    for level, table in dataset.tables.items():
        rows = tuple(
            Row(r.key, (MISSING,)) if rng.random() < 0.2 else r for r in table.rows
        )
        tables[level] = Table(level, table.columns, rows)
    return HierarchicalDataset(tables)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("levels", [(BATCH, WAFER, SITE, IC), (BATCH, SITE), (WAFER, IC)])
def test_cascade_prune_counts_match_reference(seed, levels):
    rng = random.Random(seed)
    dataset = _blank_some_cells(random_dataset(rng, levels, orphans=False), rng)
    screened, stats = _screen_dataset(dataset, ScreenSettings(sensor_limits=False))
    survivors = {
        level: table.filter_rows([r.cells[0] is not MISSING for r in table.rows])
        for level, table in dataset.tables.items()
    }
    pruned, expected = reference_cascade(survivors)
    assert stats["orphans_pruned"] == pruned
    assert screened.tables == expected


def test_cascade_fixtures_prune_at_every_level():
    totals = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        dataset = _blank_some_cells(random_dataset(rng, orphans=False), rng)
        totals.update(_screen_dataset(dataset, ScreenSettings(sensor_limits=False))[1]["orphans_pruned"])
    assert set(totals) == {"wafer", "site", "ic"} and all(totals.values())


def reference_broadcast(dataset, column, from_level, to_level):
    source = dataset.tables[from_level]
    index = source.column_index(column)
    by_key = {row.key: row.cells[index] for row in source.rows}
    rows = tuple(Row(r.key, (by_key[r.key.ancestor(from_level)],)) for r in dataset.tables[to_level].rows)
    return Table(to_level, (source.column(column),), rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_down_matches_reference(seed):
    dataset = random_dataset(random.Random(seed), orphans=False)
    for source in dataset.levels:
        for target in dataset.levels:
            if source < target:
                name = _column(source).name
                assert broadcast_down(dataset, name, source, target) == reference_broadcast(
                    dataset, name, source, target
                )


def test_broadcast_down_names_the_first_missing_ancestor():
    dataset = random_dataset(random.Random(4))
    wafers = {row.key for row in dataset.tables[WAFER].rows}
    first = next(r.key for r in dataset.tables[SITE].rows if r.key.ancestor(WAFER) not in wafers)
    with pytest.raises(DataError) as excinfo:
        broadcast_down(dataset, "v1", WAFER, SITE)
    assert str(excinfo.value) == f"row {first} has no WAFER ancestor {first.ancestor(WAFER)}"
