import copy
import pickle
import random

import pytest

from conftest import BATCH, IC, SITE, WAFER, batch_key, site_key, wafer_key
import yieldtree
from yieldtree.errors import UsageError
from yieldtree.model import (
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    LabeledDataset,
    Row,
    Table,
    group_by_ancestor,
    join_tables,
    validate_hierarchy,
)


def test_a_missing_cell_is_none():
    assert yieldtree.MISSING is None


def test_levels_totally_ordered_coarse_to_fine():
    assert list(GranularityLevel) == [BATCH, WAFER, SITE, IC]
    assert BATCH < WAFER < SITE < IC


class TestEntityKey:
    def test_carries_exactly_the_ids_for_its_level(self):
        key = site_key("b1", "w1", "s1")
        assert key.ids == ("b1", "w1", "s1")

    def test_finer_id_rejected(self):
        with pytest.raises(UsageError):
            EntityKey(BATCH, "b1", wafer_id="w1")

    def test_missing_required_id_rejected(self):
        with pytest.raises(UsageError):
            EntityKey(WAFER, "b1")

    def test_ancestor(self):
        key = site_key("b1", "w2", "s3")
        assert key.ancestor(BATCH) == batch_key("b1")
        assert key.ancestor(WAFER) == wafer_key("b1", "w2")
        with pytest.raises(UsageError):
            batch_key("b1").ancestor(SITE)


ONE_KEY_PER_LEVEL = [
    EntityKey(BATCH, "b1"),
    EntityKey(WAFER, "b1", "w2"),
    EntityKey(SITE, "b1", "w2", "s3"),
    EntityKey(IC, "b1", "w2", "s3", "i4"),
]


class TestEntityKeyContract:
    """A key is its ids tuple: it hashes, compares and slices like it."""

    @pytest.mark.parametrize("key", ONE_KEY_PER_LEVEL, ids=lambda k: k.level.name)
    def test_pickle_and_deepcopy_round_trip(self, key):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(key, protocol))
            assert type(back) is EntityKey and back == key and back.level is key.level
        duplicate = copy.deepcopy(key)
        assert type(duplicate) is EntityKey and duplicate == key and duplicate.level is key.level
        assert copy.copy(key) == key

    def test_is_its_ids_tuple(self):
        for key in ONE_KEY_PER_LEVEL:
            assert isinstance(key, tuple) and key == key.ids and hash(key) == hash(key.ids)
            assert len(key) == key.level + 1
            assert key[: BATCH + 1] == ("b1",)

    def test_keys_of_different_levels_never_equal(self):
        for i, left in enumerate(ONE_KEY_PER_LEVEL):
            for j, right in enumerate(ONE_KEY_PER_LEVEL):
                assert (left == right) is (i == j)
        assert len(set(ONE_KEY_PER_LEVEL)) == len(ONE_KEY_PER_LEVEL)

    def test_sorts_like_its_ids(self):
        rng = random.Random(3)
        keys = [
            EntityKey(level, *(rng.choice(["0", "1", "10", "a", "A"]) for _ in range(level + 1)))
            for level in GranularityLevel
            for _ in range(25)
        ]
        rng.shuffle(keys)
        assert sorted(keys) == sorted(keys, key=lambda k: k.ids)

    def test_ancestor_is_an_entity_key_of_that_level(self):
        ic = ONE_KEY_PER_LEVEL[IC]
        for level in GranularityLevel:
            ancestor = ic.ancestor(level)
            assert type(ancestor) is EntityKey and ancestor.level is level
            assert ancestor == ONE_KEY_PER_LEVEL[level]

    def test_fields_read_the_ids_and_none_beyond_the_level(self):
        wafer = ONE_KEY_PER_LEVEL[WAFER]
        assert (wafer.batch_id, wafer.wafer_id, wafer.site_id, wafer.ic_id) == ("b1", "w2", None, None)
        assert EntityKey(WAFER, "b1", "w2", None) == wafer
        assert EntityKey(WAFER, batch_id="b1", wafer_id="w2") == wafer

    def test_empty_id_rejected(self):
        with pytest.raises(UsageError, match="SITE key needs wafer_id"):
            EntityKey(SITE, "b1", "", "s1")
        with pytest.raises(UsageError, match="BATCH key must not carry site_id"):
            EntityKey(BATCH, "b1", None, "s1")

    def test_no_ids_rejected(self):
        with pytest.raises(UsageError, match="a key needs 1 to 4 ids, got 0"):
            EntityKey.from_ids(())

    def test_five_ids_rejected(self):
        with pytest.raises(UsageError, match="a key needs 1 to 4 ids, got 5"):
            EntityKey.from_ids(("b1", "w1", "s1", "i1", "x1"))

    def test_level_above_ic_rejected(self):
        with pytest.raises(UsageError, match="key level must be 0 to 3, got 7"):
            EntityKey(7, "b1")

    def test_negative_level_rejected(self):
        with pytest.raises(UsageError, match="key level must be 0 to 3, got -1"):
            EntityKey(-1, "b1")

    def test_repr_and_str_are_stable(self):
        key = ONE_KEY_PER_LEVEL[SITE]
        assert repr(key) == "EntityKey(GranularityLevel.SITE, 'b1', 'w2', 's3')"
        assert str(key) == "b1/w2/s3"
        assert str(ONE_KEY_PER_LEVEL[BATCH]) == "b1"


class TestColumn:
    def test_limits_require_numeric(self):
        with pytest.raises(UsageError):
            Column("machine", ColumnKind.CATEGORICAL, sensor_limits=(0, 1))

    def test_limits_ordered(self):
        with pytest.raises(UsageError):
            Column("t", ColumnKind.NUMERIC, sensor_limits=(5.0, 5.0))


class TestTable:
    def test_wrong_level_row_rejected(self):
        with pytest.raises(UsageError):
            Table(BATCH, (), (Row(wafer_key("b1", "w1"), ()),))

    def test_cell_arity_checked(self):
        col = Column("x", ColumnKind.NUMERIC)
        with pytest.raises(UsageError):
            Table(BATCH, (col,), (Row(batch_key("b1"), ()),))

    def test_column_helpers(self):
        col = Column("x", ColumnKind.NUMERIC)
        table = Table(BATCH, (col,), (Row(batch_key("b1"), (1.0,)),))
        assert table.column_index("x") == 0
        assert table.values("x") == [1.0]
        with pytest.raises(UsageError):
            table.column_index("y")

    def test_add_and_drop_columns(self):
        col = Column("x", ColumnKind.NUMERIC)
        table = Table(BATCH, (col,), (Row(batch_key("b1"), (1.0,)),))
        grown = table.with_added_columns([Column("y", ColumnKind.NUMERIC)], [(2.0,)])
        assert grown.column_names == ("x", "y")
        assert grown.without_columns(["x"]).column_names == ("y",)
        with pytest.raises(UsageError):
            grown.with_added_columns([Column("x", ColumnKind.NUMERIC)], [(0.0,)])

    def test_wrong_level_key_rejected_with_its_level_named(self):
        for key in (site_key("b1", "w1", "s1"), batch_key("b1")):
            with pytest.raises(UsageError, match=rf"is at {key.level.name}, table is WAFER"):
                Table(WAFER, (), (Row(key, ()),))

    def test_key_built_around_the_check_rejected_with_its_id_count(self):
        # from_ids rejects five ids; a table must still report such a key
        # as a UsageError instead of failing to name its level
        key = tuple.__new__(EntityKey, ("b1", "w1", "s1", "i1", "x1"))
        with pytest.raises(UsageError, match="row b1/w1/s1/i1/x1 has 5 ids, table is WAFER"):
            Table(WAFER, (), (Row(key, ()),))

    def test_short_extra_cells_rejected_by_with_added_columns(self):
        col = Column("x", ColumnKind.NUMERIC)
        table = Table(BATCH, (col,), (Row(batch_key("b1"), (1.0,)), Row(batch_key("b2"), (2.0,))))
        added = [Column("y", ColumnKind.NUMERIC), Column("z", ColumnKind.NUMERIC)]
        with pytest.raises(UsageError, match="column 'z' has 1 cells for 2 rows"):
            table.with_added_columns(added, [(1.0, 2.0), (1.0,)])


    def test_rows_and_columns_build_the_same_table(self):
        x, y = Column("x", ColumnKind.NUMERIC), Column("y", ColumnKind.CATEGORICAL)
        rows = (Row(batch_key("b2"), (2.0, "a")), Row(batch_key("b1"), (1.0, "b")))
        from_rows = Table(BATCH, [x, y], rows)
        from_columns = Table.from_columns(BATCH, (x, y), [["b2", "b1"]], [[2.0, 1.0], ("a", "b")])
        assert from_rows == from_columns
        assert from_rows.rows == from_columns.rows == rows
        assert from_columns.keys == (batch_key("b2"), batch_key("b1"))
        assert from_columns.key_fields == (("b2", "b1"),)
        assert from_columns.cells == ((2.0, 1.0), ("a", "b"))
        assert Table(BATCH, (x,), ()) == Table.from_columns(BATCH, (x,), [()], [()])

    def test_zero_column_table_keeps_its_rows(self):
        keys = tuple(batch_key(f"b{i}") for i in range(3))
        table = Table(BATCH, (), tuple(Row(key, ()) for key in keys))
        assert len(table) == 3 and table.keys == keys and table.rows == tuple(Row(k, ()) for k in keys)
        kept = table.filter_rows([True, False, True])
        assert len(kept) == 2 and kept.keys == (keys[0], keys[2])
        grown = table.with_added_columns([Column("x", ColumnKind.NUMERIC)], [(0.0, 1.0, 2.0)])
        assert len(grown) == 3 and grown.keys == keys
        assert grown.rows == tuple(Row(key, (float(i),)) for i, key in enumerate(keys))

    def test_column_length_checked_on_the_column_path(self):
        col = Column("x", ColumnKind.NUMERIC)
        key_fields = [("b1", "b2")]
        with pytest.raises(UsageError, match="column 'x' has 1 cells for 2 rows"):
            Table.from_columns(BATCH, (col,), key_fields, [(1.0,)])
        with pytest.raises(UsageError, match="0 cell columns for 1 columns"):
            Table.from_columns(BATCH, (col,), key_fields, [])
        with pytest.raises(UsageError, match="2 key fields for a BATCH table"):
            Table.from_columns(BATCH, (), [("b1",), ("w1",)], [])
        with pytest.raises(UsageError, match="key field wafer_id has 1 ids for 2 rows"):
            Table.from_columns(WAFER, (), [("b1", "b1"), ("w1",)], [])


class TestLabeledDataset:
    def _features(self, n):
        column = Column("x", ColumnKind.NUMERIC)
        return Table(BATCH, (column,), tuple(Row(batch_key(f"b{i}"), (float(i),)) for i in range(n)))

    def test_labels_must_align_and_be_binary(self):
        with pytest.raises(UsageError, match="2 labels for 1 rows"):
            LabeledDataset(self._features(1), (0, 1))
        with pytest.raises(UsageError, match="0 or 1"):
            LabeledDataset(self._features(1), (2,))

    def test_filter_rows_keeps_rows_and_labels_together(self):
        labeled = LabeledDataset(self._features(4), (0, 1, 1, 0))
        kept = labeled.filter_rows([True, False, True, True])
        assert [r.key.batch_id for r in kept.features.rows] == ["b0", "b2", "b3"]
        assert kept.labels == (0, 1, 0)
        with pytest.raises(UsageError, match="mask"):
            labeled.filter_rows([True])


def _dataset(batches, wafers):
    batch_table = Table(BATCH, (), tuple(Row(batch_key(b), ()) for b in batches))
    wafer_table = Table(WAFER, (), tuple(Row(wafer_key(b, w), ()) for b, w in wafers))
    return HierarchicalDataset({BATCH: batch_table, WAFER: wafer_table})


class TestValidateHierarchy:
    def test_consistent_fixture_is_ok(self):
        report = validate_hierarchy(_dataset(["b1", "b2"], [("b1", "w1"), ("b2", "w1")]))
        assert report.ok

    def test_orphan_named(self):
        report = validate_hierarchy(_dataset(["b1"], [("b1", "w1"), ("B99", "w1")]))
        assert not report.ok
        assert len(report.orphans) == 1
        assert "B99" in str(report.orphans[0])

    def test_duplicate_key_reported(self):
        site = Table(
            SITE,
            (),
            (Row(site_key("b1", "w1", "s1"), ()), Row(site_key("b1", "w1", "s1"), ())),
        )
        report = validate_hierarchy(HierarchicalDataset({SITE: site}))
        assert not report.ok
        assert len(report.duplicates) == 1

    def test_orphans_checked_against_every_coarser_table(self):
        batch = Table(BATCH, (), (Row(batch_key("b1"), ()),))
        wafer = Table(WAFER, (), (Row(wafer_key("b1", "w1"), ()),))
        site = Table(SITE, (), (Row(site_key("b2", "w1", "s1"), ()),))
        report = validate_hierarchy(HierarchicalDataset({BATCH: batch, WAFER: wafer, SITE: site}))
        # the site row misses both its wafer parent and its batch ancestor
        assert len(report.orphans) == 2


def reference_violations(dataset):
    """Every duplicate and every orphan in report order, by a quadratic scan:
    levels coarse to fine, rows in table order, a row's coarser levels coarse
    to fine. Each repeat of a key is one duplicate; each row, repeats too, is
    an orphan once per coarser table that lacks its ancestor."""
    duplicates, orphans = [], []
    for index, level in enumerate(dataset.levels):
        keys = [row.key for row in dataset.tables[level].rows]
        for position, key in enumerate(keys):
            if key in keys[:position]:
                duplicates.append(("duplicate", level, key, f"key {key} occurs more than once"))
            for coarser in dataset.levels[:index]:
                ancestor = EntityKey(coarser, *key[: coarser + 1])
                if ancestor not in [row.key for row in dataset.tables[coarser].rows]:
                    detail = f"row {key} has no {coarser.name} ancestor {ancestor}"
                    orphans.append(("orphan", level, key, detail))
    return duplicates, orphans


def planted_dataset(rng, levels, orphans=True, duplicates=True):
    """Tables at `levels` with one to three children per clean parent key.
    Planted, each level below the coarsest has an orphan, with no ancestor or
    lacking only its parent where the grandparent exists, and each level
    repeats one of its keys. The finest table is shuffled."""
    tables, parents = {}, [()]
    for level in levels:
        depth = level + 1
        ids = [parent + (f"{level.name[0]}{i}",) * (depth - len(parent))
               for parent in parents for i in range(rng.randint(1, 3))]
        children = list(ids)
        if orphans and parents != [()]:
            stem = ("ghost",) if rng.random() < 0.5 else rng.choice(parents)[:-1] + ("lost",)
            ids.append(stem + ("x",) * (depth - len(stem)))
        parents = children
        if duplicates:
            ids.append(rng.choice(ids))
        if level is levels[-1]:
            rng.shuffle(ids)
        tables[level] = Table(level, (), tuple(Row(EntityKey(level, *i), ()) for i in ids))
    return HierarchicalDataset(tables)


class TestValidateHierarchyReference:
    @pytest.mark.parametrize("seed, levels", [(seed, (BATCH, WAFER, SITE, IC)) for seed in range(8)]
                             + [(8, (BATCH, SITE, IC))])
    @pytest.mark.parametrize("planted", [True, False], ids=["duplicates", "no-duplicates"])
    def test_every_duplicate_and_orphan_in_report_order(self, seed, levels, planted):
        """Without duplicates, C builtins alone must find each table's orphans."""
        dataset = planted_dataset(random.Random(seed), levels, duplicates=planted)
        report = validate_hierarchy(dataset)
        duplicates, orphans = reference_violations(dataset)
        assert {d[1] for d in duplicates} == (set(levels) if planted else set())
        assert {o[1] for o in orphans} == set(levels[1:])
        assert [(v.kind, v.level, v.key, v.detail) for v in report.violations] == duplicates + orphans

    def test_an_unplanted_dataset_has_no_violations(self):
        dataset = planted_dataset(random.Random(0), (BATCH, WAFER, SITE, IC), False, False)
        assert reference_violations(dataset) == ([], []) and validate_hierarchy(dataset).ok


class TestGroupByAncestor:
    def _site_table(self, n_batches, n_wafers, n_sites):
        rows = tuple(
            Row(site_key(f"b{b:02d}", f"w{w:02d}", f"s{s}"), ())
            for b in range(n_batches)
            for w in range(n_wafers)
            for s in range(n_sites)
        )
        return Table(SITE, (), rows)

    def test_1200_site_rows_group_into_10_batches_of_120(self):
        table = self._site_table(10, 24, 5)
        assert len(table) == 1200
        groups = group_by_ancestor(table, BATCH)
        assert len(groups) == 10
        assert all(len(rows) == 120 for rows in groups.values())

    def test_own_level_is_usage_error(self):
        with pytest.raises(UsageError):
            group_by_ancestor(self._site_table(1, 2, 2), SITE)

    def test_one_batch_by_wafer_gives_24_groups_of_5(self):
        table = self._site_table(1, 24, 5)
        groups = group_by_ancestor(table, WAFER)
        assert len(groups) == 24
        assert all(len(rows) == 5 for rows in groups.values())

    def test_partition_property_on_random_tables(self):
        rng = random.Random(1)
        for _ in range(25):
            rows = tuple(
                Row(site_key(f"b{rng.randint(0, 3)}", f"w{rng.randint(0, 3)}", f"s{i}"), ())
                for i in range(rng.randint(1, 40))
            )
            table = Table(SITE, (), rows)
            level = rng.choice([BATCH, WAFER])
            groups = group_by_ancestor(table, level)
            regrouped = sorted(position for group in groups.values() for position in group)
            assert regrouped == list(range(len(rows)))  # union = rows, disjoint
            assert all(rows[p].key.ancestor(level) == key for key, group in groups.items() for p in group)
            assert list(groups) == sorted(
                {r.key.ancestor(level) for r in rows}, key=lambda k: k.ids
            )
            # a plain id tuple compares equal; lift_stats emits these keys as rows
            assert all(type(key) is EntityKey and key.level is level for key in groups)


class TestJoinTables:
    def test_join_by_key(self):
        left = Table(BATCH, (Column("x", ColumnKind.NUMERIC),), (Row(batch_key("b1"), (1.0,)),))
        right = Table(BATCH, (Column("y", ColumnKind.NUMERIC),), (Row(batch_key("b1"), (2.0,)),))
        joined = join_tables(left, right)
        assert joined.column_names == ("x", "y")
        assert joined.rows[0].cells == (1.0, 2.0)

    def test_unmatched_key_rejected(self):
        left = Table(BATCH, (), (Row(batch_key("b1"), ()),))
        right = Table(BATCH, (), (Row(batch_key("b2"), ()),))
        with pytest.raises(UsageError):
            join_tables(left, right)

    def test_first_unmatched_key_named(self):
        x, y = Column("x", ColumnKind.NUMERIC), Column("y", ColumnKind.NUMERIC)
        left = Table(BATCH, (x,), tuple(Row(batch_key(b), (1.0,)) for b in ("b1", "b3", "b4")))
        right = Table(BATCH, (y,), (Row(batch_key("b1"), (2.0,)), Row(batch_key("b4"), (2.0,))))
        with pytest.raises(UsageError, match="no right-side row for key b3"):
            join_tables(left, right)

    def test_duplicate_right_key_rejected(self):
        x, y = Column("x", ColumnKind.NUMERIC), Column("y", ColumnKind.NUMERIC)
        left = Table(BATCH, (x,), (Row(batch_key("b1"), (1.0,)),))
        right = Table(BATCH, (y,), (Row(batch_key("b1"), (2.0,)), Row(batch_key("b1"), (3.0,))))
        with pytest.raises(UsageError, match="duplicate keys"):
            join_tables(left, right)

    def test_column_clash_rejected(self):
        x = Column("x", ColumnKind.NUMERIC)
        left = Table(BATCH, (x,), (Row(batch_key("b1"), (1.0,)),))
        right = Table(BATCH, (x,), (Row(batch_key("b1"), (2.0,)),))
        with pytest.raises(UsageError, match="'x'"):
            join_tables(left, right)

    def test_level_mismatch_rejected(self):
        left = Table(BATCH, (), (Row(batch_key("b1"), ()),))
        right = Table(WAFER, (), (Row(wafer_key("b1", "w1"), ()),))
        with pytest.raises(UsageError, match="cannot join BATCH table with WAFER table"):
            join_tables(left, right)


def random_keys(rng, level, rows):
    """Keys at `level` in random order, over small id pools so that ancestors
    and whole keys repeat."""
    pools = [[f"{name[0]}{i}" for i in range(rng.randint(1, 4))] for name in level.key_fields]
    return [EntityKey.from_ids(tuple(map(rng.choice, pools))) for _ in range(rows)]


def fields_of(keys, level):
    return list(zip(*keys)) or [()] * (level + 1)


class TestKeyFields:
    """A table keeps its ids by key field; each operation gives the keys and
    positions that a brute-force reference over per-row keys gives."""

    @pytest.mark.parametrize("seed", range(24))
    def test_operations_match_per_row_keys(self, seed):
        rng = random.Random(seed)
        level = GranularityLevel(rng.randint(0, 3))
        keys = random_keys(rng, level, rng.randint(0, 40))
        x, y, z = (Column(name, ColumnKind.NUMERIC) for name in "xyz")
        values = [float(i) for i in range(len(keys))]
        table = Table.from_columns(level, (x,), fields_of(keys, level), [values])
        assert table.key_fields == tuple(map(tuple, fields_of(keys, level)))
        assert table.keys == tuple(keys) and {type(key) for key in table.keys} <= {EntityKey}
        assert [table.key(i) for i in range(len(keys))] == keys
        assert table == Table(level, (x,), [Row(key, (value,)) for key, value in zip(keys, values)])

        keep = [rng.random() < 0.6 for _ in keys]
        assert list(table.filter_rows(keep).keys) == [key for key, kept in zip(keys, keep) if kept]
        grown = table.with_added_columns([y], [values])
        assert grown.keys == tuple(keys) and grown.without_columns(["x"]).keys == tuple(keys)

        for ancestor in GranularityLevel:
            if ancestor >= level:
                continue
            groups = group_by_ancestor(table, ancestor)
            prefixes = sorted({key[: ancestor + 1] for key in keys})
            assert list(groups) == prefixes and {type(key) for key in groups} <= {EntityKey}
            for prefix, positions in groups.items():
                assert list(positions) == [i for i, key in enumerate(keys) if key[: ancestor + 1] == prefix]

        left = table.filter_rows([keys.index(key) == i for i, key in enumerate(keys)])
        right_keys = rng.sample(list(left.keys), len(left))
        right_values = [rng.random() for _ in right_keys]
        right = Table.from_columns(level, (z,), fields_of(right_keys, level), [right_values])
        joined = join_tables(left, right)
        assert joined.keys == left.keys
        assert joined.values("z") == [right_values[right_keys.index(key)] for key in left.keys]


class TestValidateSparseIds:
    """Ids that are serials, distinct across every parent, make the key codes
    far sparser than a table's rows, so they are marked in a dict rather
    than in a byte per possible code; the report is the same."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("planted", [True, False], ids=["defects", "clean"])
    def test_report_matches_the_reference(self, seed, planted):
        rng = random.Random(seed)
        batches = [(f"b{i}",) for i in range(80)]
        wafers = [(b, f"w{b}{j}") for b, in batches for j in range(rng.randint(1, 3))]
        sites = [(b, w, f"s{w}{k}") for b, w in wafers for k in range(rng.randint(1, 3))]
        if planted:
            wafers.append(("ghost", "wx"))
            sites += [("b0", "wlost", "sx"), rng.choice(sites)]
        rng.shuffle(sites)
        dataset = HierarchicalDataset({
            level: Table(level, (), [Row(EntityKey.from_ids(ids), ()) for ids in keys])
            for level, keys in ((BATCH, batches), (WAFER, wafers), (SITE, sites))
        })
        report = validate_hierarchy(dataset)
        duplicates, orphans = reference_violations(dataset)
        assert bool(duplicates) is bool(orphans) is planted
        assert [(v.kind, v.level, v.key, v.detail) for v in report.violations] == duplicates + orphans
