import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BATCH, SITE, WAFER, batch_key, build_hierarchy, random_hierarchy, traced_peak_share
from oracles import reject_rate_oracle, stats_oracle, wafer_rejected_oracle
from yieldtree.errors import DataError, UsageError
from yieldtree.lift import (
    Direction,
    RejectionRule,
    _group_stats,
    broadcast_down,
    lift_reject_rate,
    lift_stats,
)
from yieldtree.model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    HierarchicalDataset,
    Row,
    Table,
    group_by_ancestor,
)


def one_batch_dataset(values):
    return build_hierarchy({"b1": {"w1": values}})


class TestLiftStats:
    def test_constant_group(self):
        table = lift_stats(one_batch_dataset([7.0] * 6), "x", SITE, BATCH)
        assert table.rows[0].cells == (7.0, 0.0, 7.0, 7.0, 7.0)

    def test_textbook_example_matches_oracle(self):
        # oracle computed before build: mean 3, sample std sqrt(2.5), median 3
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        table = lift_stats(one_batch_dataset(values), "x", SITE, BATCH)
        mean, std, median, lo, hi = table.rows[0].cells
        assert (mean, median, lo, hi) == (3.0, 3.0, 1.0, 5.0)
        assert std == pytest.approx(1.5811388300841898, abs=0.0)
        assert (mean, std, median, lo, hi) == pytest.approx(stats_oracle(values))

    def test_none_value_is_left_out(self):
        with_none = lift_stats(one_batch_dataset([1.0, None, 4.0]), "x", SITE, BATCH)
        assert with_none == lift_stats(one_batch_dataset([1.0, 4.0]), "x", SITE, BATCH)

    def test_10_batches_of_120_measurements_give_10_vectors(self):
        nest = {
            f"b{b:02d}": {f"w{w:02d}": [float(b + w + s) for s in range(5)] for w in range(24)}
            for b in range(10)
        }
        dataset = build_hierarchy(nest)
        assert len(dataset.table(SITE)) == 1200
        table = lift_stats(dataset, "x", SITE, BATCH)
        assert len(table) == 10
        assert table.column_names == ("x_mean", "x_std", "x_median", "x_min", "x_max")

    def test_empty_group_names_entity(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0]}})
        extra_batch = Table(
            BATCH, (), dataset.table(BATCH).rows + (Row(batch_key("b9"), ()),)
        )
        with pytest.raises(DataError, match="b9"):
            lift_stats(dataset.with_table(extra_batch), "x", SITE, BATCH)

    def test_rows_follow_the_batch_table_order(self):
        """One output row per batch-table row, in batch-table order, as
        lift_reject_rate gives them; nothing re-sorts the keys."""
        dataset = build_hierarchy({"b1": {"w1": [1.0]}, "b2": {"w1": [2.0]}, "b3": {"w1": [3.0]}})
        batch = dataset.table(BATCH)
        order = (batch.rows[1], batch.rows[2], batch.rows[0])
        dataset = dataset.with_table(Table(BATCH, batch.columns, order))
        stats = lift_stats(dataset, "x", SITE, BATCH)
        rates = lift_reject_rate(dataset, RejectionRule("x", 10.0, 1))
        assert [r.key for r in stats.rows] == [r.key for r in order] == [r.key for r in rates.rows]
        assert stats.values("x_mean") == [2.0, 3.0, 1.0]

    def test_without_a_batch_table_rows_come_in_ascending_key_order(self):
        site = build_hierarchy({"b2": {"w1": [2.0]}, "b1": {"w1": [1.0]}}).table(SITE)
        reversed_site = Table(SITE, site.columns, site.rows[::-1])
        stats = lift_stats(HierarchicalDataset({SITE: reversed_site}), "x", SITE, BATCH)
        assert [r.key for r in stats.rows] == [batch_key("b1"), batch_key("b2")]
        assert stats.values("x_mean") == [1.0, 2.0]

    def test_non_numeric_parameter_rejected(self):
        dataset = one_batch_dataset([1.0])
        site = dataset.table(SITE).with_added_columns(
            [Column("tag", ColumnKind.CATEGORICAL)], [("a",)]
        )
        with pytest.raises(UsageError):
            lift_stats(dataset.with_table(site), "tag", SITE, BATCH)

    def test_levels_must_be_finer_to_coarser(self):
        with pytest.raises(UsageError):
            lift_stats(one_batch_dataset([1.0]), "x", BATCH, SITE)

    def test_ordering_invariants_on_random_groups(self):
        rng = random.Random(2)
        for _ in range(30):
            _, dataset = random_hierarchy(rng)
            table = lift_stats(dataset, "x", SITE, BATCH)
            for row in table.rows:
                mean, std, median, lo, hi = row.cells
                assert lo <= median <= hi and lo <= mean <= hi
                assert std >= 0.0
                values = set()
                for site_row in dataset.table(SITE).rows:
                    if site_row.key.ancestor(BATCH) == row.key:
                        values.add(site_row.cells[0])
                assert (std == 0.0) == (len(values) == 1)


def exact_group(rng, size):
    """A seeded group mixing ordinary, rounded, repeated, signed-zero,
    subnormal and 1e+-300 values."""
    special = [0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e-300, 1e300, -1e300, 3.25]
    group = []
    for _ in range(size):
        draw = rng.random()
        if draw < 0.4:
            group.append(rng.gauss(10.0, 3.0))
        elif draw < 0.6:
            group.append(round(rng.uniform(-50.0, 50.0), 2))
        elif draw < 0.8:
            group.append(rng.choice(special))
        elif draw < 0.9 and group:
            group.append(rng.choice(group))
        else:
            group.append(math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1070, 1000)))
    return group


def is_correctly_rounded_root(variance: Fraction, root: float) -> bool:
    """root is sqrt(variance) rounded to nearest, ties to even: variance lies
    between the squares of the midpoints to root's float neighbours."""
    below = (Fraction(math.nextafter(root, 0.0)) + Fraction(root)) / 2 if root else Fraction(0)
    above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    if below * below < variance < above * above:
        return True
    even = (Fraction(root) / Fraction(math.ulp(root))) % 2 == 0
    return even and variance in (below * below, above * above)


class TestGroupStats:
    GROUPS = [
        exact_group(random.Random(seed), size)
        for seed, size in enumerate([1, 2, 3, 5, 120] + list(range(1, 121, 3)) * 4)
    ] + [[1e300, 1e-300, -1e300, 0.0], [7.5] * 9, [0.0, -0.0], [5e-324, 0.0]]

    def test_equals_exact_oracle(self):
        for values in self.GROUPS:
            n = len(values)
            ordered = sorted(values)
            middle = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
            mean, std, median, lo, hi = _group_stats(values)
            assert repr((mean, median, lo, hi)) == repr(
                (math.fsum(values) / n, middle, min(values), max(values))
            )
            if n == 1:
                assert std == 0.0
                continue
            exact = [Fraction(v) for v in values]
            center = sum(exact) / n
            variance = sum((v - center) ** 2 for v in exact) / (n - 1)
            assert is_correctly_rounded_root(variance, std), values

    def test_values_whose_sum_overflows(self):
        mean, std, median, lo, hi = _group_stats([1e308, 1.5e308])
        assert mean == median == 1.25e308
        assert (lo, hi) == (1e308, 1.5e308)
        assert std == pytest.approx(0.5e308 / math.sqrt(2))
        mean, _, median, _, _ = _group_stats([1e308, 1.5e308, 1.2e308, 1.7e308])
        assert mean == pytest.approx(1.35e308) and median == 1.35e308

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev rounds twice before 3.11")
    def test_equals_statistics_bit_for_bit(self):
        for values in self.GROUPS:
            expected = (
                statistics.fmean(values),
                statistics.stdev(values) if len(values) > 1 else 0.0,
                statistics.median(values),
                min(values),
                max(values),
            )
            assert repr(_group_stats(values)) == repr(expected)


class TestLiftRejectRate:
    def test_worked_batch_from_oracle(self):
        wafers = [[11.0, 12.0, 1.0, 1.0, 1.0], [11.0, 1.0, 1.0, 1.0, 1.0], [11.0, 12.0, 13.0, 1.0, 1.0]]
        dataset = build_hierarchy({"b1": {f"w{i}": w for i, w in enumerate(wafers)}})
        rule = RejectionRule("x", 10.0, 2)
        table = lift_reject_rate(dataset, rule)
        expected = reject_rate_oracle(wafers, 10.0, 2)  # 2 of 3 wafers
        assert expected == Fraction(200, 3)
        assert table.rows[0].cells[0] == float(expected) == pytest.approx(66.66666666666667, abs=0.0)

    def test_no_value_above_threshold_gives_zero(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0, 2.0], "w2": [3.0, 0.5]}})
        table = lift_reject_rate(dataset, RejectionRule("x", 10.0, 1))
        assert table.rows[0].cells[0] == 0.0

    def test_saturation_gives_100(self):
        dataset = build_hierarchy({"b1": {"w1": [11.0] * 5, "w2": [12.0] * 5}})
        table = lift_reject_rate(dataset, RejectionRule("x", 10.0, 2))
        assert table.rows[0].cells[0] == 100.0

    def test_strict_comparison_at_threshold(self):
        dataset = build_hierarchy({"b1": {"w1": [10.0, 10.0, 10.0]}})
        table = lift_reject_rate(dataset, RejectionRule("x", 10.0, 1))
        assert table.rows[0].cells[0] == 0.0  # equality is not "above"

    def test_below_comparator(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0, 1.0, 9.0], "w2": [9.0, 9.0, 9.0]}})
        rule = RejectionRule("x", 5.0, 2, Direction.BELOW)
        table = lift_reject_rate(dataset, rule)
        assert table.rows[0].cells[0] == 50.0

    def test_wafer_rejected_counts_int_site_values(self):
        sites = [9, 10, 11, 12, 3]
        for direction, hits in ((Direction.ABOVE, 2), (Direction.BELOW, 2)):
            for k in (1, hits, hits + 1):
                rule = RejectionRule("x", 10.0, k, direction)
                expected = wafer_rejected_oracle(sites, 10.0, k, direction is Direction.ABOVE)
                assert rule.wafer_rejected(sites) == expected == (k <= hits)

    def test_wafer_without_values_is_left_out_of_the_rate(self):
        dataset = build_hierarchy({"b1": {"w1": [11.0, 12.0], "w2": [MISSING]}})
        table = lift_reject_rate(dataset, RejectionRule("x", 10.0, 2))
        assert table.rows[0].cells[0] == 100.0

    def test_wafer_without_sites_is_left_out_of_the_rate(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0, 2.0], "w2": [11.0, 12.0]}})
        lone = Row(EntityKey(WAFER, "b1", "w3"), ())
        wafer = Table(WAFER, (), dataset.table(WAFER).rows + (lone,))
        table = lift_reject_rate(dataset.with_table(wafer), RejectionRule("x", 10.0, 2))
        assert table.rows[0].cells[0] == 50.0

    def test_batch_without_measured_wafers_is_error(self):
        dataset = build_hierarchy({"b1": {"w1": [11.0, 12.0]}, "b2": {"w1": [MISSING, MISSING]}})
        with pytest.raises(DataError, match="b2"):
            lift_reject_rate(dataset, RejectionRule("x", 10.0, 2))

    def test_batch_with_zero_wafers_is_error(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0]}})
        extra = Table(BATCH, (), dataset.table(BATCH).rows + (Row(batch_key("b9"), ()),))
        with pytest.raises(DataError, match="^no 'x' measurements under batch b9$"):
            lift_reject_rate(dataset.with_table(extra), RejectionRule("x", 10.0))

    def test_min_count_validated(self):
        with pytest.raises(UsageError):
            RejectionRule("x", 10.0, 0)

    def test_rows_follow_batch_table_order(self):
        """One output row per batch-table row, in batch-table order, whatever
        the order of the rows at every level: callers align the rates with
        the batch table by position."""
        rng = random.Random(5)
        rule = RejectionRule("x", 10.0, 2)
        for _ in range(20):
            nest, dataset = random_hierarchy(rng, max_batches=8)
            for level in (BATCH, WAFER, SITE):
                table = dataset.table(level)
                rows = tuple(rng.sample(table.rows, len(table.rows)))
                dataset = dataset.with_table(Table(level, table.columns, rows))
            rates = lift_reject_rate(dataset, rule)
            assert [r.key for r in rates.rows] == [r.key for r in dataset.table(BATCH).rows]
            for row in rates.rows:
                wafers = list(nest[row.key.batch_id].values())
                assert row.cells[0] == float(reject_rate_oracle(wafers, 10.0, 2))

    def test_threshold_monotonicity_and_bounds(self):
        rng = random.Random(3)
        nest, dataset = random_hierarchy(rng)
        rates = []
        max_value = max(v for wafers in nest.values() for sites in wafers.values() for v in sites)
        for threshold in [0.0, 5.0, 10.0, 15.0, max_value]:
            table = lift_reject_rate(dataset, RejectionRule("x", threshold, 2))
            values = table.values(table.column_names[0])
            assert all(0.0 <= v <= 100.0 for v in values)
            rates.append(values)
        for earlier, later in zip(rates, rates[1:]):
            assert all(a >= b for a, b in zip(earlier, later))  # nonincreasing in T
        assert all(v == 0.0 for v in rates[-1])  # threshold at max: nothing above


class TestOracleEquivalence:
    def test_both_lifts_match_brute_force_on_random_hierarchies(self):
        """Site rows come shuffled with about one cell in six missing. A
        missing cell is no measurement, so the oracles see the present values
        only, a wafer with none is left out of its batch's rate, and a batch
        with none is a DataError for both lifts."""
        rng = random.Random(4)
        for _ in range(100):
            nest, _ = random_hierarchy(rng)
            for sites in (sites for wafers in nest.values() for sites in wafers.values()):
                sites[:] = [MISSING if rng.random() < 1 / 6 else v for v in sites]
            dataset = build_hierarchy(nest)
            site = dataset.table(SITE)
            dataset = dataset.with_table(Table(SITE, site.columns, tuple(rng.sample(site.rows, len(site.rows)))))
            present = {
                b: [[v for v in sites if v is not MISSING] for sites in wafers.values()]
                for b, wafers in nest.items()
            }
            threshold = rng.uniform(2.0, 18.0)
            k = rng.randint(1, 3)
            rule = RejectionRule("x", threshold, k)
            if not all(map(any, present.values())):
                with pytest.raises(DataError):
                    lift_stats(dataset, "x", SITE, BATCH)
                with pytest.raises(DataError):
                    lift_reject_rate(dataset, rule)
                continue

            stats = lift_stats(dataset, "x", SITE, BATCH)
            for row in stats.rows:
                expected = stats_oracle([v for sites in present[row.key.batch_id] for v in sites])
                for got, want in zip(row.cells, expected):
                    assert got == pytest.approx(want, rel=1e-9)

            rates = lift_reject_rate(dataset, rule)
            for row in rates.rows:
                wafers = [sites for sites in present[row.key.batch_id] if sites]
                assert row.cells[0] == float(reject_rate_oracle(wafers, threshold, k))


def test_reject_rate_lift_holds_one_batch_of_wafers_at_a_time():
    """Method B groups no table by wafer: its peak above the dataset stays
    well below the wafer groups of the whole site table (about 30%)."""
    rule = RejectionRule("x", 10.0, 2)
    assert traced_peak_share(lambda dataset: lift_reject_rate(dataset, rule)) < 0.15

class TestBroadcastDown:
    def _dataset(self, temp=350.0):
        dataset = build_hierarchy({"b1": {f"w{w:02d}": [0.0] * 5 for w in range(24)}})
        batch = Table(
            BATCH,
            (Column("oven_temp", ColumnKind.NUMERIC),),
            tuple(Row(r.key, (temp,)) for r in dataset.table(BATCH).rows),
        )
        return dataset.with_table(batch)

    def test_replicates_to_all_descendants(self):
        table = broadcast_down(self._dataset(), "oven_temp", BATCH, SITE)
        assert len(table) == 120
        assert set(table.values("oven_temp")) == {350.0}

    def test_group_round_trip_recovers_value(self):
        table = broadcast_down(self._dataset(), "oven_temp", BATCH, SITE)
        for positions in group_by_ancestor(table, BATCH).values():
            assert table.rows[positions[0]].cells[0] == 350.0

    def test_missing_value_broadcasts_missing(self):
        table = broadcast_down(self._dataset(MISSING), "oven_temp", BATCH, WAFER)
        assert all(v is MISSING for v in table.values("oven_temp"))

    def test_levels_must_be_coarser_to_finer(self):
        with pytest.raises(UsageError):
            broadcast_down(self._dataset(), "oven_temp", SITE, BATCH)


def test_import_loads_neither_statistics_nor_fractions():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, yieldtree; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
