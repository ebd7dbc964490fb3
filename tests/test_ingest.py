import json
from datetime import datetime

import pytest

from conftest import BATCH, batch_key, numeric_table
from yieldtree.cli import main
from yieldtree.errors import ParseError, SchemaError
from yieldtree.ingest import (
    DEFAULT_MISSING_TOKENS,
    TableSchema,
    apply_sensor_limits,
    drop_missing,
    load_dataset,
    load_table,
    table_schema,
    write_table,
)
from yieldtree.model import MISSING, Column, ColumnKind, Row, Table, is_missing


@pytest.fixture
def batch_schema():
    return TableSchema(
        BATCH, ("batch_id",), (Column("oven_temp", ColumnKind.NUMERIC),)
    )


def write_csv(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_minimal_fixture(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,oven_temp\nb1,350\nb2,351.5\nb3,349\n")
        table = load_table(path, batch_schema)
        assert len(table) == 3
        assert table.values("oven_temp") == [350.0, 351.5, 349.0]
        assert table.rows[0].key == batch_key("b1")

    def test_missing_token_becomes_marker(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,oven_temp\nb1,NA\n")
        table = load_table(path, batch_schema)
        assert is_missing(table.values("oven_temp")[0])

    def test_malformed_numeric_names_row_and_column(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,oven_temp\nb1,350\nb2,12..5\n")
        with pytest.raises(ParseError, match=r"row 2.*oven_temp"):
            load_table(path, batch_schema)

    def test_missing_declared_column_is_schema_error(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,temp\nb1,350\n")
        with pytest.raises(SchemaError, match="oven_temp"):
            load_table(path, batch_schema)

    def test_columns_matched_by_name_not_position(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "oven_temp,extra,batch_id\n350,zzz,b1\n")
        table = load_table(path, batch_schema)
        assert table.values("oven_temp") == [350.0]
        assert table.rows[0].key == batch_key("b1")

    def test_timestamp_format(self, tmp_path):
        schema = TableSchema(BATCH, ("batch_id",), (Column("ts", ColumnKind.TIMESTAMP),))
        path = write_csv(tmp_path, "batch_id,ts\nb1,1990-01-02 07:30\n")
        table = load_table(path, schema)
        assert table.values("ts") == [datetime(1990, 1, 2, 7, 30)]
        bad = write_csv(tmp_path, "batch_id,ts\nb1,02/01/1990 07:30\n", "bad.csv")
        with pytest.raises(ParseError, match="ts"):
            load_table(bad, schema)

    def test_missing_key_cell_rejected(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,oven_temp\n,350\n")
        with pytest.raises(ParseError, match="batch_id"):
            load_table(path, batch_schema)

    def test_empty_key_cell_is_parse_error_when_not_a_missing_token(self, tmp_path):
        schema = TableSchema(
            BATCH, ("batch_id",), (Column("yield", ColumnKind.NUMERIC),), {"NA"}
        )
        path = write_csv(tmp_path, "batch_id,yield\nb1,95\n,80\n")
        with pytest.raises(ParseError, match=r"t\.csv: row 2: key column batch_id is missing"):
            load_table(path, schema)

    def test_empty_key_cell_exits_with_data_error(self, tmp_path, capsys):
        write_csv(tmp_path, "batch_id,yield\nb1,95\n,80\n", "batch.csv")
        doc = {
            "input": {"csv": [
                {"path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                 "columns": [{"name": "yield", "kind": "numeric"}],
                 "missing_tokens": ["NA"]},
            ]},
            "targets": [{"name": "t", "source_column": "yield", "strategy": "fixed", "threshold": 90.0}],
            "train": {"min_leaf": 1},
            "outputs": {"dir": "out"},
        }
        config = write_csv(tmp_path, json.dumps(doc), "config.json")
        assert main(["analyze", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "row 2: key column batch_id is missing" in err
        assert "Traceback" not in err


def table_with_missing():
    column = Column("x", ColumnKind.NUMERIC)
    other = Column("y", ColumnKind.NUMERIC)
    rows = [
        Row(batch_key("b0"), (1.0, 1.0)),
        Row(batch_key("b1"), (MISSING, 2.0)),
        Row(batch_key("b2"), (3.0, 3.0)),
        Row(batch_key("b3"), (4.0, MISSING)),
        Row(batch_key("b4"), (MISSING, MISSING)),
    ]
    return Table(BATCH, (column, other), tuple(rows))


class TestDropMissing:
    def test_identity_when_complete(self):
        table = numeric_table(BATCH, "x", [(batch_key(f"b{i}"), float(i)) for i in range(10)])
        kept, dropped = drop_missing(table)
        assert dropped == 0 and kept == table

    def test_counts_rows_not_cells(self):
        kept, dropped = drop_missing(table_with_missing())
        assert dropped == 3  # the two-cell-missing row drops once
        assert [r.key.batch_id for r in kept.rows] == ["b0", "b2"]

    def test_three_of_ten_rows_missing(self):
        entries = [(batch_key(f"b{i}"), MISSING if i < 3 else float(i)) for i in range(10)]
        kept, dropped = drop_missing(numeric_table(BATCH, "x", entries))
        assert (len(kept), dropped) == (7, 3)

    def test_idempotent_and_conserving(self):
        table = table_with_missing()
        kept, dropped = drop_missing(table)
        assert len(kept) + dropped == len(table)
        again, more = drop_missing(kept)
        assert more == 0 and again == kept


class TestSensorLimits:
    def _table(self, values):
        return numeric_table(
            BATCH,
            "x",
            [(batch_key(f"b{i}"), v) for i, v in enumerate(values)],
            sensor_limits=(0.0, 100.0),
        )

    def test_boundary_value_kept(self):
        kept, flagged = apply_sensor_limits(self._table([0.0, 100.0, 50.0]))
        assert len(kept) == 3 and flagged == []

    def test_outside_value_discarded_and_flagged(self):
        kept, flagged = apply_sensor_limits(self._table([100.5, 50.0]))
        assert [r.key.batch_id for r in kept.rows] == ["b1"]
        assert len(flagged) == 1
        key, column, value = flagged[0]
        assert (key.batch_id, column, value) == ("b0", "x", 100.5)

    def test_no_limits_is_identity(self):
        table = numeric_table(BATCH, "x", [(batch_key("b0"), 1e9)])
        kept, flagged = apply_sensor_limits(table)
        assert kept == table and flagged == []

    def test_idempotent_and_conserving(self):
        table = self._table([-1.0, 0.0, 101.0, 99.0])
        kept, flagged = apply_sensor_limits(table)
        assert len(kept) + len({f[0] for f in flagged}) == len(table)
        again, more = apply_sensor_limits(kept)
        assert more == [] and again == kept


class TestRoundTrip:
    def test_write_then_load_reproduces_table(self, tmp_path):
        columns = (
            Column("ts", ColumnKind.TIMESTAMP),
            Column("machine", ColumnKind.CATEGORICAL),
            Column("x", ColumnKind.NUMERIC, units="V", sensor_limits=(0.0, 20.0)),
        )
        rows = (
            Row(batch_key("b1"), (datetime(1990, 1, 1, 8, 0), "3", 0.1 + 0.2)),
            Row(batch_key("b2"), (MISSING, "1", 12.25)),
        )
        table = Table(BATCH, columns, rows)
        path = tmp_path / "batch.csv"
        write_table(table, path)
        assert load_table(path, table_schema(table)) == table

    def test_default_missing_tokens(self):
        assert DEFAULT_MISSING_TOKENS == frozenset({"", "NA", "na", "?"})


class TestNonFiniteNumerics:
    """float() accepts nan and inf; a numeric cell must be a finite number."""

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_load_dataset_raises_parse_error(self, tmp_path, batch_schema, text):
        path = write_csv(tmp_path, f"batch_id,oven_temp\nb1,350\nb2,{text}\n")
        with pytest.raises(ParseError, match=rf"row 2, column oven_temp: .*{text}.* finite"):
            load_dataset([(path, batch_schema)])

    def test_cli_exits_with_data_error(self, tmp_path, capsys):
        write_csv(tmp_path, "batch_id,oven_temp,yield\nb1,350,95\nb2,nan,85\nb3,inf,70\n", "batch.csv")
        doc = {
            "input": {"csv": [
                {"path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                 "columns": [{"name": "oven_temp", "kind": "numeric"},
                             {"name": "yield", "kind": "numeric"}]},
            ]},
            "targets": [{"name": "t", "source_column": "yield", "strategy": "fixed", "threshold": 90.0}],
            "train": {"min_leaf": 1},
            "outputs": {"dir": "out"},
        }
        config = write_csv(tmp_path, json.dumps(doc), "config.json")
        assert main(["analyze", "--config", str(config)]) == 2
        assert "'nan'" in capsys.readouterr().err
