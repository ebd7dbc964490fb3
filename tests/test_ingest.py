import csv
import json
import math
import random
from datetime import datetime
from pathlib import Path

import pytest

from conftest import BATCH, batch_key, numeric_table
from yieldtree import ingest
from yieldtree.cli import main
from yieldtree.errors import ParseError, SchemaError, UsageError
from yieldtree.ingest import (
    DEFAULT_MISSING_TOKENS,
    TableSchema,
    apply_sensor_limits,
    drop_missing,
    load_dataset,
    load_table,
    table_schema,
    write_dataset,
    write_table,
)
from yieldtree.model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    Row,
    Table,
)
from yieldtree.synthfab import FabScenario, generate


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
        assert table.values("oven_temp")[0] is MISSING

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


def analyze_batch_csv(tmp_path, data: bytes) -> int:
    """Run `analyze` on a one-level CSV input whose bytes are `data`."""
    (tmp_path / "batch.csv").write_bytes(data)
    doc = {
        "input": {"csv": [
            {"path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
             "columns": [{"name": "yield", "kind": "numeric"}]},
        ]},
        "targets": [{"name": "t", "source_column": "yield", "strategy": "fixed", "threshold": 90.0}],
        "train": {"min_leaf": 1},
        "outputs": {"dir": "out"},
    }
    config = write_csv(tmp_path, json.dumps(doc), "config.json")
    return main(["analyze", "--config", str(config)])


class TestUnreadableInput:
    """Bytes that are not UTF-8, or a record the CSV reader cannot split,
    are bad data: a ParseError naming the file and the reader's line. A file
    without a header row, or with a cell that does not parse, is bad data
    too, and the error names the file as well."""

    def test_undecodable_byte_is_parse_error(self, tmp_path, batch_schema):
        path = tmp_path / "t.csv"
        path.write_bytes(b"batch_id,oven_temp\nb1,350\nb2,3\xff5\n")
        with pytest.raises(ParseError, match=r"t\.csv: byte b'\\xff' on line 1 or later is not UTF-8"):
            load_table(path, batch_schema)

    def test_undecodable_byte_far_into_a_file_names_a_line_at_or_before_it(
        self, tmp_path, batch_schema
    ):
        lines = [b"batch_id,oven_temp"] + [b"b%d,350" % i for i in range(5000)]
        lines[4000] = b"b3999,3\xff5"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=r"on line (\d+) or later is not UTF-8") as caught:
            load_table(path, batch_schema)
        line = int(caught.value.args[0].split("on line ")[1].split()[0])
        assert 1 < line <= 4001

    def test_oversized_field_is_parse_error(self, tmp_path, batch_schema):
        path = write_csv(tmp_path, "batch_id,oven_temp\nb1,350\nb2," + "9" * 200_000 + "\n")
        with pytest.raises(ParseError, match=r"t\.csv: line 3: field larger than field limit"):
            load_table(path, batch_schema)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"batch_id,yield\nb1,95\nb2,8\xff0\n", "batch.csv: byte b'\\xff' on line 1"),
            (b"batch_id,yield\nb1,95\nb2," + b"9" * 200_000 + b"\n", "batch.csv: line 3: field larger"),
            (b"", "batch.csv: file has no header row"),
            (b"batch_id,yield\nb1,95\nb2,abc\n", "batch.csv: row 2, column yield: cannot parse 'abc'"),
        ],
        ids=["undecodable", "oversized", "empty", "unparsable"],
    )
    def test_cli_exits_with_data_error(self, tmp_path, capsys, data, message):
        assert analyze_batch_csv(tmp_path, data) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert "Traceback" not in err


class TestUnwritableOutput:
    """A path the OS refuses, when it is opened or when it is written, is a
    UsageError naming the path and the reason, whichever writer is used."""

    WRITERS = {
        "csv": lambda path: ingest.write_csv(path, ["a"], [["1"]]),
        "json": lambda path: ingest.write_json({"a": 1}, path),
        "text": lambda path: ingest.write_text("a\n", path),
    }

    @pytest.mark.parametrize("writer", WRITERS)
    def test_directory_is_refused_on_open(self, tmp_path, writer):
        (tmp_path / "taken").mkdir()
        with pytest.raises(UsageError) as caught:
            self.WRITERS[writer](tmp_path / "taken")
        assert str(caught.value) == f"cannot write {tmp_path / 'taken'}: Is a directory"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
    @pytest.mark.parametrize("writer", WRITERS)
    def test_full_device_is_refused_on_write(self, writer):
        with pytest.raises(UsageError) as caught:
            self.WRITERS[writer](Path("/dev/full"))
        assert str(caught.value) == "cannot write /dev/full: No space left on device"


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

    def test_none_cell_is_missing(self):
        entries = [(batch_key("b0"), 1.0), (batch_key("b1"), None), (batch_key("b2"), 3.0)]
        kept, dropped = drop_missing(numeric_table(BATCH, "x", entries))
        assert dropped == 1 and kept.values("x") == [1.0, 3.0]

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

    def test_missing_limited_cell_is_kept(self):
        kept, flagged = apply_sensor_limits(self._table([MISSING, 50.0, 150.0]))
        assert [r.key.batch_id for r in kept.rows] == ["b0", "b1"]
        assert flagged == [(batch_key("b2"), "x", 150.0)]

    def test_none_limited_cell_is_passed_over(self):
        kept, flagged = apply_sensor_limits(self._table([None, 150.0]))
        assert kept.keys == (batch_key("b0"),)
        assert flagged == [(batch_key("b1"), "x", 150.0)]

    def test_flags_in_row_order_then_column_order(self):
        columns = (
            Column("y", ColumnKind.NUMERIC, sensor_limits=(0.0, 1.0)),
            Column("label", ColumnKind.CATEGORICAL),
            Column("x", ColumnKind.NUMERIC, sensor_limits=(0.0, 1.0)),
        )
        cells = [(5.0, "a", 5.0), (0.5, "b", -1.0), (MISSING, "c", 0.5), (-2.0, "d", MISSING)]
        rows = tuple(Row(batch_key(f"b{i}"), c) for i, c in enumerate(cells))
        kept, flagged = apply_sensor_limits(Table(BATCH, columns, rows))
        assert [r.key.batch_id for r in kept.rows] == ["b2"]
        assert [(k.batch_id, name, v) for k, name, v in flagged] == [
            ("b0", "y", 5.0), ("b0", "x", 5.0), ("b1", "x", -1.0), ("b3", "y", -2.0),
        ]

    def test_idempotent_and_conserving(self):
        table = self._table([-1.0, 0.0, 101.0, 99.0])
        kept, flagged = apply_sensor_limits(table)
        assert len(kept) + len({f[0] for f in flagged}) == len(table)
        again, more = apply_sensor_limits(kept)
        assert more == [] and again == kept


class TestScreensReturnTheirInput:
    """A screen that drops nothing hands back the very table it was given,
    not an equal copy, so a screened dataset costs no memory where it is clean."""

    def test_complete_table(self):
        table = numeric_table(BATCH, "x", [(batch_key(f"b{i}"), float(i)) for i in range(10)],
                              sensor_limits=(0.0, 9.0))
        kept, dropped = drop_missing(table)
        assert kept is table and dropped == 0
        assert apply_sensor_limits(table)[0] is table

    def test_limited_column_within_its_limits(self):
        columns = (Column("x", ColumnKind.NUMERIC, sensor_limits=(0.0, 1.0)),
                   Column("y", ColumnKind.NUMERIC))
        cells = [(0.0, 5.0), (MISSING, 6.0), (1.0, 7.0)]
        table = Table(BATCH, columns, tuple(Row(batch_key(f"b{i}"), c) for i, c in enumerate(cells)))
        kept, flagged = apply_sensor_limits(table)
        assert kept is table and flagged == []

    def test_no_limited_column(self):
        table = numeric_table(BATCH, "x", [(batch_key("b0"), 1e9), (batch_key("b1"), MISSING)])
        kept, flagged = apply_sensor_limits(table)
        assert kept is table and flagged == []
        assert drop_missing(table)[0] is not table


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

    def test_none_cells_are_written_empty_and_read_back_missing(self, tmp_path):
        columns = tuple(Column(kind.name.lower(), kind) for kind in ColumnKind)
        rows = (
            Row(batch_key("b1"), (1.5, "m3", datetime(1990, 1, 1, 8, 0), "L7")),
            Row(batch_key("b2"), (None, None, None, None)),
        )
        table = Table(BATCH, columns, rows)
        path = tmp_path / "batch.csv"
        write_table(table, path)
        assert path.read_text(encoding="utf-8").splitlines()[2] == "b2,,,,"
        assert load_table(path, table_schema(table)) == table

    def test_text_cells_equal_to_default_tokens_round_trip(self, tmp_path):
        columns = (Column("machine", ColumnKind.CATEGORICAL), Column("lot", ColumnKind.IDENTIFIER))
        texts = sorted(DEFAULT_MISSING_TOKENS - {""})
        rows = tuple(Row(batch_key(f"b{i}"), (t, t)) for i, t in enumerate(texts))
        table = Table(BATCH, columns, rows + (Row(batch_key("bm"), (MISSING, "x")),))
        path = tmp_path / "batch.csv"
        write_table(table, path)
        assert load_table(path, table_schema(table)) == table

    @pytest.mark.parametrize("kind", [ColumnKind.CATEGORICAL, ColumnKind.IDENTIFIER], ids=lambda kind: kind.name.lower())
    def test_empty_text_cell_is_refused(self, tmp_path, kind):
        rows = (Row(batch_key("b1"), ("3",)), Row(batch_key("b2"), ("",)))
        table = Table(BATCH, (Column("machine", kind),), rows)
        path = tmp_path / "batch.csv"
        with pytest.raises(UsageError, match="empty 'machine' cell in row b2 would read back as missing"):
            write_table(table, path)
        assert not path.exists()

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


TIMESTAMP = "%Y-%m-%d %H:%M"


def reference_load(path, schema):
    """Row-at-a-time loader written from load_table's docstring: the first
    defect in row order, and within a row width, keys, then data columns."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header, *records = list(csv.reader(handle))
    position = {}
    for i, name in enumerate(header):
        position.setdefault(name, i)
    needed = list(schema.key_columns) + [c.name for c in schema.columns]
    width = 1 + max(position[name] for name in needed)
    rows = []
    for number, record in enumerate(records, 1):
        if len(record) < width:
            raise ParseError(
                f"{path}: row {number} has {len(record)} fields, expected at least {width}"
            )
        ids = [record[position[name]] for name in schema.key_columns]
        for name, value in zip(schema.key_columns, ids):
            if value == "" or value in schema.missing_tokens:
                raise ParseError(f"{path}: row {number}: key column {name} is missing")
        cells = []
        for column in schema.columns:
            text = record[position[column.name]]
            where = f"{path}: row {number}, column {column.name}: cannot parse {text!r} as"
            if text in schema.missing_tokens:
                cells.append(MISSING)
            elif column.kind is ColumnKind.NUMERIC:
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(f"{where} a finite number")
                cells.append(value)
            elif column.kind is ColumnKind.TIMESTAMP:
                try:
                    cells.append(datetime.strptime(text, TIMESTAMP))
                except ValueError:
                    raise ParseError(f"{where} {TIMESTAMP!r}") from None
            else:
                cells.append(text)
        rows.append(Row(EntityKey(schema.level, *ids), tuple(cells)))
    return Table(schema.level, schema.columns, tuple(rows))


TOKEN_SETS = [DEFAULT_MISSING_TOKENS, frozenset({"NA"}), frozenset({"-", "null", ""})]


def random_input(rng, all_kinds=False):
    """A valid random CSV of more than two blocks of rows, its schema, header
    and records. The header is shuffled and carries extra columns."""
    level = GranularityLevel(rng.randint(0, 3))
    tokens = rng.choice(TOKEN_SETS)
    kinds = list(ColumnKind)
    if not all_kinds:
        kinds = [rng.choice(kinds) for _ in range(rng.randint(0, 4))]
    columns = tuple(Column(f"c{j}", kind) for j, kind in enumerate(kinds))
    extras = [f"extra{j}" for j in range(rng.randint(0, 2))]
    header = [*level.key_fields, *(c.name for c in columns), *extras]
    rng.shuffle(header)

    def cell(name):
        if name in level.key_fields:
            return f"{name[0]}{rng.randint(0, 9)}"
        if name.startswith("extra"):
            return rng.choice(["", "NA", "1", "x,y"])
        if rng.random() < 0.05:
            return rng.choice(sorted(tokens))
        kind = columns[int(name[1:])].kind
        if kind is ColumnKind.NUMERIC:
            return rng.choice([repr(rng.uniform(-1e3, 1e3)), str(rng.randint(-9, 9)), "1e-300", " 2.5"])
        if kind is ColumnKind.TIMESTAMP:
            day = datetime(1990, 1, 1) + (datetime(2030, 1, 1) - datetime(1990, 1, 1)) * rng.random()
            return day.strftime(TIMESTAMP)
        return rng.choice(["a", "NA", "na", "?", "", "two words", "x,y", 'say "hi"'])

    n = 2 * ingest._BLOCK_ROWS + rng.randint(1, ingest._BLOCK_ROWS)
    records = [[cell(name) for name in header] for _ in range(n)]
    return TableSchema(level, level.key_fields, columns, tokens), header, records


def write_records(path, header, records):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *records])
    return path


def parse_error(load, path, schema):
    with pytest.raises(ParseError) as caught:
        load(path, schema)
    return str(caught.value)


class TestBlockLoaderAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_valid_files_load_as_the_reference_loads_them(self, tmp_path, seed):
        rng = random.Random(seed)
        schema, header, records = random_input(rng)
        path = write_records(tmp_path / "t.csv", header, records)
        table = load_table(path, schema)
        assert table == reference_load(path, schema)
        assert len(table) == len(records)

    @pytest.mark.parametrize("defect", ["short row", "missing key", "bad number", "nan", "bad timestamp"])
    @pytest.mark.parametrize("seed", range(4))
    def test_single_defect_gives_the_reference_error(self, tmp_path, defect, seed):
        rng = random.Random(f"{defect} {seed}")
        schema, header, records = random_input(rng, all_kinds=True)
        # odd seeds put the defect in any row, even seeds past the first block
        row = rng.randint(ingest._BLOCK_ROWS * (1 - seed % 2), len(records) - 1)
        record = records[row]
        position = {name: i for i, name in enumerate(header)}
        needed = list(schema.key_columns) + [c.name for c in schema.columns]
        if defect == "short row":
            records[row] = record[: rng.randint(0, max(position[name] for name in needed))]
        elif defect == "missing key":
            key = rng.choice(schema.key_columns)
            record[position[key]] = rng.choice(["", *sorted(schema.missing_tokens)])
        elif defect == "bad number":
            record[position["c0"]] = rng.choice(["12..5", "abc", "1,5"])
        elif defect == "nan":
            record[position["c0"]] = rng.choice(["nan", "-inf", "Infinity", "1e999"])
        else:
            record[position["c2"]] = "02/01/1990 07:30"
        path = write_records(tmp_path / "t.csv", header, records)
        expected = parse_error(reference_load, path, schema)
        assert f"row {row + 1}" in expected
        assert parse_error(load_table, path, schema) == expected


class TestKeysAndIds:
    def test_equal_ids_and_text_cells_are_one_str(self, tmp_path):
        dataset = generate(FabScenario(seed=5, n_batches=12))
        rng = random.Random(5)
        for level, path in write_dataset(dataset, tmp_path).items():
            with open(path, newline="", encoding="utf-8") as handle:
                header, *records = list(csv.reader(handle))
            rng.shuffle(records)
            write_records(path, header, records)
            schema = table_schema(dataset.tables[level])
            table = load_table(path, schema)
            assert table == reference_load(path, schema)
            texts = [
                [cell for cell in cells if cell is not MISSING]
                for c, cells in zip(table.columns, table.cells)
                if c.kind in (ColumnKind.CATEGORICAL, ColumnKind.IDENTIFIER)
            ]
            assert level is not BATCH or texts
            for column in [*zip(*table.keys), *texts]:
                assert len(set(map(id, column))) == len(set(column))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_key_check_per_row(self, tmp_path, monkeypatch, seed):
        schema, header, records = random_input(random.Random(seed))
        path = write_records(tmp_path / "t.csv", header, records)
        checked = []
        check = EntityKey.__post_init__

        def counted(key):
            checked.append(key)
            check(key)

        monkeypatch.setattr(EntityKey, "__post_init__", counted)
        table = load_table(path, schema)
        assert checked == list(table.keys)
        assert len(checked) == len(records)


class TestDefectOrder:
    """With several defects, the first block that has one is reported, and in
    it: a short row, then a missing key (key columns in schema order), then
    a bad cell (data columns in schema order), each at its first row."""

    SCHEMA = TableSchema(
        GranularityLevel.WAFER,
        ("batch_id", "wafer_id"),
        (Column("x", ColumnKind.NUMERIC), Column("ts", ColumnKind.TIMESTAMP)),
    )

    def load(self, tmp_path, defects):
        b = ingest._BLOCK_ROWS
        records = [[f"b{i}", "w1", "1.5", "1990-01-02 07:30"] for i in range(3 * b)]
        for row, column, text in defects:
            if column is None:
                records[row - 1] = records[row - 1][:2]
            else:
                records[row - 1][column] = text
        path = write_records(tmp_path / "t.csv", ["batch_id", "wafer_id", "x", "ts"], records)
        return parse_error(load_table, path, self.SCHEMA)

    def test_documented_order(self, tmp_path):
        b = ingest._BLOCK_ROWS
        in_second_block = [
            (b + 2, 3, "soon"),  # ts, the second data column
            (b + 4, 2, "abc"),  # x, the first data column
            (b + 6, 1, ""),  # wafer_id, the second key column
            (b + 8, 0, "NA"),  # batch_id, the first key column
            (b + 10, None, None),  # a short row
        ]
        in_third_block = [(2 * b + 1, None, None)]
        path = f"{tmp_path / 't.csv'}"
        expected = [
            f"{path}: row {b + 10} has 2 fields, expected at least 4",
            f"{path}: row {b + 8}: key column batch_id is missing",
            f"{path}: row {b + 6}: key column wafer_id is missing",
            f"{path}: row {b + 4}, column x: cannot parse 'abc' as a finite number",
            f"{path}: row {b + 2}, column ts: cannot parse 'soon' as '%Y-%m-%d %H:%M'",
            f"{path}: row {2 * b + 1} has 2 fields, expected at least 4",
        ]
        for fixed in range(len(in_second_block) + 1):
            defects = in_second_block[: len(in_second_block) - fixed] + in_third_block
            assert self.load(tmp_path, defects) == expected[fixed]
