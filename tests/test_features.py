import csv
import math
import random
from datetime import date, datetime, timedelta

import pytest

from conftest import BATCH, batch_key
from oracles import pearson_oracle, zeller_day_of_week
from yieldtree.errors import UsageError
from yieldtree.features import (
    DEFAULT_EPOCH,
    TimeEncodingSpec,
    TimeMode,
    correlation_table,
    decode_sequential,
    encode_cyclical,
    encode_sequential,
    flag_correlated,
    order_from_batch_id,
    write_correlation_csv,
)
from yieldtree.model import MISSING, Column, ColumnKind, Row, Table, is_missing


def timestamp_table(timestamps):
    column = Column("ts", ColumnKind.TIMESTAMP)
    rows = tuple(Row(batch_key(f"b{i}"), (t,)) for i, t in enumerate(timestamps))
    return Table(BATCH, (column,), rows)


SEQ_SPEC = TimeEncodingSpec(TimeMode.SEQUENTIAL)


class TestCyclical:
    def test_epoch_monday_confirmed_by_zeller(self):
        # independent calendar oracle: 1990-01-01 is a Monday
        assert zeller_day_of_week(1990, 1, 1) == 0
        table = encode_cyclical(timestamp_table([datetime(1990, 1, 1, 0, 0)]), "ts")
        row = table.row_mapping(table.rows[0])
        assert row["hour_of_day"] == 0
        assert row["day_of_week"] == 0
        assert row["week_of_month"] == 1
        assert row["is_weekend"] == 0

    def test_saturday_is_weekend(self):
        assert zeller_day_of_week(1990, 1, 6) == 5
        table = encode_cyclical(timestamp_table([datetime(1990, 1, 6, 12, 0)]), "ts")
        assert table.row_mapping(table.rows[0])["is_weekend"] == 1

    def test_week_of_month_is_ceil_of_day_over_seven(self):
        table = encode_cyclical(timestamp_table([datetime(1990, 1, 8, 0, 0)]), "ts")
        assert table.row_mapping(table.rows[0])["week_of_month"] == 2

    def test_holiday_flag(self):
        table = encode_cyclical(
            timestamp_table([datetime(1990, 12, 25, 9, 0), datetime(1990, 12, 26, 9, 0)]),
            "ts",
            holidays={date(1990, 12, 25)},
        )
        assert table.values("is_holiday") == [1, 0]

    def test_missing_timestamp_encodes_missing(self):
        table = encode_cyclical(timestamp_table([MISSING]), "ts")
        assert all(is_missing(table.row_mapping(table.rows[0])[c]) for c in
                   ("hour_of_day", "day_of_week", "week_of_month", "is_weekend", "is_holiday"))

    def test_missing_timestamp_leaves_the_next_row_encoded(self):
        table = encode_cyclical(timestamp_table([MISSING, datetime(1990, 1, 6, 12, 0)]), "ts")
        assert table.rows[0].cells[1:] == (MISSING,) * 5
        assert table.rows[1].cells[1:] == (12, 5, 1, 1, 0)

    def test_ranges_and_zeller_agreement_on_random_timestamps(self):
        rng = random.Random(5)
        stamps = [
            DEFAULT_EPOCH + timedelta(minutes=rng.randint(-3_000_000, 30_000_000))
            for _ in range(300)
        ]
        table = encode_cyclical(timestamp_table(stamps), "ts")
        for ts, row in zip(stamps, table.rows):
            cells = table.row_mapping(row)
            assert 0 <= cells["hour_of_day"] <= 23
            assert 0 <= cells["day_of_week"] <= 6
            assert 1 <= cells["week_of_month"] <= 6
            assert cells["day_of_week"] == zeller_day_of_week(ts.year, ts.month, ts.day)
            assert cells["week_of_month"] == math.ceil(ts.day / 7)
            assert cells["is_weekend"] == (1 if cells["day_of_week"] in (5, 6) else 0)


class TestSequential:
    def test_epoch_is_zero(self):
        table = encode_sequential(timestamp_table([DEFAULT_EPOCH]), "ts", SEQ_SPEC)
        assert table.values("minutes_from_epoch") == [0]

    def test_next_day_is_1440(self):
        table = encode_sequential(timestamp_table([datetime(1990, 1, 2, 0, 0)]), "ts", SEQ_SPEC)
        assert table.values("minutes_from_epoch") == [1440]

    def test_five_past_midnight(self):
        table = encode_sequential(timestamp_table([datetime(1990, 1, 1, 0, 5)]), "ts", SEQ_SPEC)
        assert table.values("minutes_from_epoch") == [5]

    def test_pre_epoch_is_negative(self):
        table = encode_sequential(timestamp_table([datetime(1989, 12, 31, 23, 59)]), "ts", SEQ_SPEC)
        assert table.values("minutes_from_epoch") == [-1]

    def test_decode_inverts_encode(self):
        assert decode_sequential(0, SEQ_SPEC) == DEFAULT_EPOCH
        assert decode_sequential(1440, SEQ_SPEC) == datetime(1990, 1, 2, 0, 0)

    def test_round_trips_on_random_minutes(self):
        rng = random.Random(6)
        for _ in range(200):
            minutes = rng.randint(-10_000_000, 10_000_000)
            ts = decode_sequential(minutes, SEQ_SPEC)
            encoded = encode_sequential(timestamp_table([ts]), "ts", SEQ_SPEC)
            assert encoded.values("minutes_from_epoch") == [minutes]

    def test_missing_timestamp_encodes_missing(self):
        table = encode_sequential(timestamp_table([MISSING, DEFAULT_EPOCH]), "ts", SEQ_SPEC)
        assert table.values("minutes_from_epoch") == [MISSING, 0]

    def test_strictly_increasing_in_timestamp(self):
        stamps = [DEFAULT_EPOCH + timedelta(minutes=m) for m in (0, 1, 59, 60, 1441)]
        table = encode_sequential(timestamp_table(stamps), "ts", SEQ_SPEC)
        values = table.values("minutes_from_epoch")
        assert values == sorted(values) and len(set(values)) == len(values)


class TestBatchOrder:
    def _ids_table(self, ids):
        column = Column("lot", ColumnKind.IDENTIFIER)
        rows = tuple(Row(batch_key(f"b{i}"), (v,)) for i, v in enumerate(ids))
        return Table(BATCH, (column,), rows)

    def test_digit_extraction(self):
        table = order_from_batch_id(self._ids_table(["B-0451"]), "lot")
        assert table.values("batch_order") == [451]

    def test_concatenated_runs(self):
        table = order_from_batch_id(self._ids_table(["LOT12A07"]), "lot")
        assert table.values("batch_order") == [1207]

    def test_no_digits_is_missing(self):
        table = order_from_batch_id(self._ids_table(["BATCH"]), "lot")
        assert is_missing(table.values("batch_order")[0])

    def test_missing_id_is_missing(self):
        table = order_from_batch_id(self._ids_table([MISSING, "B-7"]), "lot")
        assert table.values("batch_order") == [MISSING, 7]

    def test_key_field_source(self):
        base = Table(BATCH, (), (Row(batch_key("0007"), ()), Row(batch_key("0010"), ())))
        table = order_from_batch_id(base, "batch_id")
        assert table.values("batch_order") == [7, 10]

    def test_order_preserved_for_zero_padded_ids(self):
        ids = [f"L{n:05d}" for n in (3, 14, 159, 2653)]
        table = order_from_batch_id(self._ids_table(ids), "lot")
        values = table.values("batch_order")
        assert values == sorted(values) == [3, 14, 159, 2653]


def columns_table(named_values):
    names = list(named_values)
    length = len(named_values[names[0]])
    columns = tuple(Column(n, ColumnKind.NUMERIC) for n in names)
    rows = tuple(
        Row(batch_key(f"b{i}"), tuple(named_values[n][i] for n in names))
        for i in range(length)
    )
    return Table(BATCH, columns, rows)


class TestCorrelationTable:
    def test_identical_columns_flagged_at_one(self):
        table = columns_table({"a": [1.0, 2.0, 3.0], "a_copy": [1.0, 2.0, 3.0]})
        report = correlation_table(table)
        assert report.coefficient("a", "a_copy") == pytest.approx(1.0)
        assert report.flagged_pairs[0][:2] == ("a", "a_copy")
        assert report.suggested_drops == ("a_copy",)

    def test_negation_flagged_at_minus_one(self):
        table = columns_table({"a": [1.0, 2.0, 3.0], "neg": [-1.0, -2.0, -3.0]})
        report = correlation_table(table)
        assert report.coefficient("a", "neg") == pytest.approx(-1.0)
        assert len(report.flagged_pairs) == 1

    def test_hand_computed_pearson(self):
        # oracle computed before build: r = 0.5
        x, y = [1.0, 2.0, 3.0], [1.0, 3.0, 2.0]
        table = columns_table({"x": x, "y": y})
        report = correlation_table(table)
        assert report.coefficient("x", "y") == pytest.approx(0.5)
        assert report.coefficient("x", "y") == pytest.approx(pearson_oracle(x, y))
        assert report.flagged_pairs == ()

    def test_constant_column_undefined_and_auto_flagged(self):
        table = columns_table({"a": [1.0, 2.0, 3.0], "const": [4.0, 4.0, 4.0]})
        report = correlation_table(table)
        assert report.coefficient("a", "const") is None
        assert report.matrix[1][1] is None
        assert "const" in report.suggested_drops

    def test_matrix_symmetric_unit_diagonal_bounded(self):
        rng = random.Random(7)
        table = columns_table(
            {f"c{i}": [rng.uniform(0, 10) for _ in range(20)] for i in range(4)}
        )
        report = correlation_table(table)
        size = len(report.columns)
        for i in range(size):
            assert report.matrix[i][i] == 1.0
            for j in range(size):
                assert report.matrix[i][j] == report.matrix[j][i]
                if report.matrix[i][j] is not None:
                    assert abs(report.matrix[i][j]) <= 1 + 1e-12

    def test_pairs_use_rows_where_both_present(self):
        table = columns_table({"a": [1.0, 2.0, MISSING, 4.0], "b": [2.0, 4.0, 9.0, 8.0]})
        report = correlation_table(table)
        assert report.coefficient("a", "b") == pytest.approx(1.0)

    @pytest.mark.parametrize("gaps", [False, True])
    def test_matrix_bit_equal_to_per_pair_reference(self, gaps):
        rng = random.Random(11)
        n = 300
        named = {
            "g": [rng.gauss(0.0, 1.0) for _ in range(n)],
            "u": [rng.uniform(-1e6, 1e6) for _ in range(n)],
            "i": [rng.randint(0, 23) for _ in range(n)],
            "const": [2.5] * n,
            "tiny": [rng.gauss(0.0, 1e-300) for _ in range(n)],
        }
        named["near_g"] = [v + rng.gauss(0.0, 0.05) for v in named["g"]]
        if gaps:
            for name in ("u", "near_g", "const"):
                for row in rng.sample(range(n), 40):
                    named[name][row] = MISSING
        report = correlation_table(columns_table(named))
        for i, a in enumerate(report.columns):
            for j, b in enumerate(report.columns):
                if i == j:
                    continue
                present = [
                    (x, y)
                    for x, y in zip(named[a], named[b])
                    if not is_missing(x) and not is_missing(y)
                ]
                expected = pearson_oracle([x for x, _ in present], [y for _, y in present])
                assert repr(report.matrix[i][j]) == repr(expected), (a, b)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            correlation_table(columns_table({"a": [1.0, 2.0]}))
        with pytest.raises(UsageError):
            correlation_table(columns_table({"a": [1.0, MISSING], "b": [2.0, 3.0]}))


class TestFlagCorrelated:
    def test_no_flags_is_identity(self):
        table = columns_table({"x": [1.0, 2.0, 3.0], "y": [1.0, 3.0, 2.0]})
        report = correlation_table(table)
        assert flag_correlated(report, table) == table

    def test_duplicate_pair_keeps_earlier(self):
        table = columns_table({"a": [1.0, 2.0, 3.0], "a_copy": [1.0, 2.0, 3.0]})
        screened = flag_correlated(correlation_table(table), table)
        assert screened.column_names == ("a",)

    def test_three_identical_columns_keep_first(self):
        # enumerating pairs: (a,b), (a,c), (b,c) are all flagged; b and c
        # each appear as the later element, so only a survives
        table = columns_table({n: [1.0, 2.0, 3.0] for n in ("a", "b", "c")})
        report = correlation_table(table)
        assert report.suggested_drops == ("b", "c")
        assert flag_correlated(report, table).column_names == ("a",)

    def test_mismatched_table_rejected(self):
        table = columns_table({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
        other = columns_table({"c": [1.0, 2.0, 3.0], "d": [3.0, 2.0, 1.0]})
        with pytest.raises(UsageError):
            flag_correlated(correlation_table(table), other)

    def test_threshold_configurable(self):
        table = columns_table({"x": [1.0, 2.0, 3.0], "y": [1.0, 3.0, 2.0]})
        report = correlation_table(table, flag_threshold=0.4)
        assert report.suggested_drops == ("y",)


def test_correlation_csv_export(tmp_path):
    table = columns_table({"a": [1.0, 2.0, 3.0], "a_copy": [1.0, 2.0, 3.0], "z": [5.0, 1.0, 4.0]})
    report = correlation_table(table)
    path = tmp_path / "corr.csv"
    write_correlation_csv(report, path)
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["col_a"] + "/" + r["col_b"] for r in rows] == ["a/a_copy", "a/z", "a_copy/z"]
    flagged = {(r["col_a"], r["col_b"]): r["flagged"] for r in rows}
    assert flagged[("a", "a_copy")] == "1"
    assert float(rows[0]["r"]) == pytest.approx(1.0)
