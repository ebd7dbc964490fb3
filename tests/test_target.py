import math
import random
from datetime import datetime, timedelta

import pytest

from conftest import BATCH, batch_key, build_hierarchy, numeric_table
from oracles import histogram_oracle, valley_oracle
from yieldtree.errors import AnalysisError, DataError, EmptyDatasetError, NoValleyError, UsageError
from yieldtree.lift import RejectionRule, lift_reject_rate
from yieldtree.model import MISSING
from yieldtree.target import (
    Direction,
    TargetSpec,
    ThresholdStrategy,
    apply_grey_region,
    histogram,
    label_by_threshold,
    threshold_median,
    threshold_valley,
    yield_series,
)


class TestLabelByThreshold:
    def test_equality_at_threshold_is_class_zero(self):
        assert label_by_threshold([89.0, 90.0, 91.0], 90.0, Direction.BELOW) == [1, 0, 0]

    def test_saturation(self):
        assert label_by_threshold([1.0, 2.0, 3.0], 10.0, Direction.BELOW) == [1, 1, 1]

    def test_mirrored_direction(self):
        assert label_by_threshold([95.0], 90.0, Direction.ABOVE) == [1]
        assert label_by_threshold([90.0], 90.0, Direction.ABOVE) == [0]

    def test_missing_value_is_error(self):
        with pytest.raises(DataError):
            label_by_threshold([1.0, MISSING], 2.0)

    def test_first_missing_row_named(self):
        with pytest.raises(DataError, match="target value at row 2 is missing"):
            label_by_threshold([1.0, 3.0, MISSING, 4.0, MISSING], 2.0)

    def test_monotone_in_threshold(self):
        rng = random.Random(8)
        values = [rng.uniform(0, 100) for _ in range(50)]
        counts = [
            sum(label_by_threshold(values, t, Direction.BELOW)) for t in (10, 30, 50, 90)
        ]
        assert counts == sorted(counts)


class TestThresholdMedian:
    def test_even_count(self):
        t = threshold_median([80.0, 85.0, 90.0, 95.0])
        assert t == 87.5
        assert label_by_threshold([80.0, 85.0, 90.0, 95.0], t) == [1, 1, 0, 0]

    def test_odd_count(self):
        assert threshold_median([1.0, 2.0, 3.0]) == 2.0

    def test_balances_classes_on_distinct_even_sets(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randrange(2, 40, 2)
            values = rng.sample(range(1000), n)
            values = [float(v) for v in values]
            t = threshold_median(values)
            # brute-force count oracle
            assert sum(1 for v in values if v < t) == n // 2

    def test_needs_two_values(self):
        with pytest.raises(AnalysisError, match="at least 2 values"):
            threshold_median([1.0])

    def test_middle_values_whose_sum_overflows(self):
        assert threshold_median([1.7e308, 1e308, 1.5e308, 1.2e308]) == 1.35e308


class TestHistogram:
    def test_single_value_one_bin(self):
        report = histogram([5.0], 1)
        assert report.counts == (1,)
        assert report.bin_edges[0] < 5.0 < report.bin_edges[1]

    def test_equal_values_above_2_53_widen_by_one_ulp(self):
        report = histogram([1e17, 1e17], 3)
        assert report.bin_edges[0] == math.nextafter(1e17, 0.0)
        assert report.bin_edges[-1] == math.nextafter(1e17, math.inf)
        assert report.counts == (0, 2, 0)

    def test_one_per_bin(self):
        report = histogram([0.0, 10.0], 2)
        assert report.counts == (1, 1)

    def test_range_wider_than_the_largest_float_is_data_error(self):
        with pytest.raises(DataError, match=r"range \[-1e\+308, 1e\+308\]"):
            histogram([1e308, 0.0, -1e308], 4)
        with pytest.raises(DataError, match="range"):
            threshold_valley([1e308, 0.0, -1e308], 4)

    def test_conservation_on_random_values(self):
        rng = random.Random(10)
        for _ in range(30):
            values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 100))]
            bins = rng.randint(1, 12)
            report = histogram(values, bins)
            assert sum(report.counts) == len(values)
            assert list(report.bin_edges) == sorted(set(report.bin_edges))
            _, expected = histogram_oracle(values, bins)
            assert list(report.counts) == expected


class TestThresholdValley:
    def test_two_cluster_worked_example(self):
        # oracle (exhaustive bin-count scan) fixes the expectation at 89.0:
        # counts [3,1,0,0,0,4], deepest leftmost valley is bin (88, 90]
        values = [84.0, 85.0, 85.0, 86.0, 94.0, 95.0, 95.0, 96.0]
        assert valley_oracle(values, 6) == 89.0
        assert threshold_valley(values, 6) == 89.0

    def test_monotone_histogram_has_no_valley(self):
        values = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        with pytest.raises(NoValleyError):
            threshold_valley(values, 3)

    def test_two_cluster_property_against_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            low = [rng.uniform(0, 10) for _ in range(rng.randint(3, 15))]
            high = [rng.uniform(30, 40) for _ in range(rng.randint(3, 15))]
            values = low + high
            bins = rng.randint(5, 10)
            t = threshold_valley(values, bins)
            assert max(low) < t < min(high)
            assert t == valley_oracle(values, bins)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            threshold_valley([1.0, 2.0], 2)
        with pytest.raises(NoValleyError, match="at least 2 distinct values"):
            threshold_valley([1.0, 1.0], 5)


class TestTargetSpec:
    @pytest.mark.parametrize("strategy, fields, message", [
        (ThresholdStrategy.MEDIAN, {"threshold": 90.0}, "median strategy reads no threshold"),
        (ThresholdStrategy.VALLEY, {"threshold": 90.0, "bins": 10}, "valley strategy reads no threshold"),
        (ThresholdStrategy.FIXED, {"threshold": 90.0, "bins": 10}, "fixed strategy reads no bins"),
        (ThresholdStrategy.MEDIAN, {"bins": 10}, "median strategy reads no bins"),
    ])
    def test_field_the_strategy_does_not_read_is_usage_error(self, strategy, fields, message):
        with pytest.raises(UsageError, match=message):
            TargetSpec("yield", strategy, **fields)

    def test_each_strategy_takes_the_field_it_reads(self):
        assert TargetSpec("yield", ThresholdStrategy.FIXED, threshold=90.0).resolve_threshold([1.0]) == 90.0
        assert TargetSpec("yield").resolve_threshold([1.0, 3.0]) == 2.0
        values = [84.0, 85.0, 85.0, 86.0, 94.0, 95.0, 95.0, 96.0]
        assert TargetSpec("yield", ThresholdStrategy.VALLEY, bins=6).resolve_threshold(values) == 89.0


class TestYieldSeries:
    def test_sorted_by_time(self):
        t0 = datetime(1990, 1, 1)
        times = [t0 + timedelta(hours=2), t0, t0 + timedelta(hours=1)]
        series = yield_series(times, [90.0, 95.0, 85.0])
        assert [v for _, v in series] == [95.0, 85.0, 90.0]

    def test_ties_keep_input_order(self):
        t0 = datetime(1990, 1, 1)
        assert [v for _, v in yield_series([t0] * 3, [1.0, 2.0, 3.0])] == [1.0, 2.0, 3.0]

    def test_empty_table(self):
        assert yield_series([], []) == []

    def test_missing_time_or_value_left_out(self):
        t0 = datetime(1990, 1, 1)
        series = yield_series([t0, MISSING, t0], [1.0, 2.0, MISSING])
        assert series == [(t0, 1.0)]

    def test_misaligned_values_rejected(self):
        with pytest.raises(UsageError, match="align"):
            yield_series([datetime(1990, 1, 1)], [1.0, 2.0])


class TestGreyRegion:
    def _features(self, n):
        return numeric_table(BATCH, "f", [(batch_key(f"b{i}"), float(i)) for i in range(n)])

    def test_zero_width_is_identity(self):
        values = [87.0, 89.0, 91.0, 93.0]
        labeled, deleted = apply_grey_region(self._features(4), values, 90.0, 0.0)
        assert deleted == 0
        assert len(labeled) == 4
        assert labeled.labels == (1, 1, 0, 0)

    def test_open_interval_membership(self):
        values = [87.0, 89.0, 91.0, 93.0]
        labeled, deleted = apply_grey_region(self._features(4), values, 90.0, 2.0)
        assert deleted == 2
        assert [r.key.batch_id for r in labeled.features.rows] == ["b0", "b3"]
        assert labeled.labels == (1, 0)

    def test_boundary_value_kept(self):
        labeled, deleted = apply_grey_region(self._features(1), [88.0], 90.0, 2.0)
        assert deleted == 0 and len(labeled) == 1

    def test_all_rows_deleted_is_error(self):
        with pytest.raises(EmptyDatasetError):
            apply_grey_region(self._features(2), [90.0, 90.1], 90.0, 5.0)

    def test_deleting_every_row_of_one_class_is_error(self):
        # 89 and 91 straddle t = 90; the grey region keeps only class-0 rows
        with pytest.raises(EmptyDatasetError, match="deleted every class-1 row"):
            apply_grey_region(self._features(3), [89.0, 91.0, 99.0], 90.0, 2.0)
        with pytest.raises(EmptyDatasetError, match="deleted every class-0 row"):
            apply_grey_region(self._features(3), [80.0, 89.0, 91.0], 90.0, 2.0, Direction.BELOW)

    def test_one_class_input_is_not_rejected(self):
        labeled, deleted = apply_grey_region(self._features(3), [80.0, 81.0, 89.0], 90.0, 2.0)
        assert labeled.labels == (1, 1) and deleted == 1

    def test_conservation_on_random_inputs(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 60)
            values = [rng.uniform(0, 100) for _ in range(n)]
            delta = rng.uniform(0, 5)
            t = rng.uniform(20, 80)
            inside = sum(1 for v in values if t - delta < v < t + delta)
            if inside == n:
                continue
            labeled, deleted = apply_grey_region(self._features(n), values, t, delta)
            assert deleted == inside
            assert len(labeled) + deleted == n


def problem_target(dataset, rule, U, direction=Direction.BELOW, grey_half_width=0.0):
    """The library route to a per-problem target, the one the pipeline takes:
    lift the rejection rate Y per batch, then label the batch table by Y against U."""
    values = lift_reject_rate(dataset, rule).values(rule.reject_rate_column())
    labeled, _ = apply_grey_region(dataset.table(BATCH), values, U, grey_half_width, direction)
    return labeled


class TestMakeProblemTarget:
    def test_all_wafers_pass_means_y_zero_all_labeled(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0] * 5}, "b2": {"w1": [2.0] * 5}})
        labeled = problem_target(dataset, RejectionRule("x", 10.0, 2), 50.0)
        assert labeled.labels == (1, 1)  # Y = 0 < 50 everywhere

    def test_worked_batch_labels_zero(self):
        wafers = {"w1": [11.0, 12.0, 1.0, 1.0, 1.0], "w2": [11.0, 1.0, 1.0, 1.0, 1.0], "w3": [11.0, 12.0, 13.0, 1.0, 1.0]}
        dataset = build_hierarchy({"b1": wafers})
        labeled = problem_target(dataset, RejectionRule("x", 10.0, 2), 50.0, Direction.BELOW)
        assert labeled.labels == (0,)  # Y = 66.67 is not below 50

    def test_u_above_max_saturates(self):
        dataset = build_hierarchy({"b1": {"w1": [11.0] * 5}})
        labeled = problem_target(dataset, RejectionRule("x", 10.0, 2), 150.0)
        assert labeled.labels == (1,)

    def test_grey_half_width_composes(self):
        dataset = build_hierarchy({"b1": {"w1": [11.0] * 5}, "b2": {"w1": [1.0] * 5}})
        with pytest.raises(EmptyDatasetError):
            problem_target(
                dataset, RejectionRule("x", 10.0, 2), 50.0, grey_half_width=60.0
            )
