import copy
import dataclasses
import gc
import json
import re
import weakref
from contextlib import nullcontext
from pathlib import Path

import pytest

from conftest import BATCH, SITE, WAFER, build_hierarchy
from test_golden import X_RULE, csv_config, scenario_config, write_shuffled_csvs
from yieldtree import synthfab
from yieldtree.cli import main
from yieldtree.errors import AnalysisError, DataError, UsageError
from yieldtree.ingest import write_dataset
from yieldtree.model import Column, ColumnKind, Table
from yieldtree.pipeline import (
    ScreenSettings, StatsLift, TargetDirective, TrainSettings, _screen_dataset, config_from_dict,
    run_pipeline,
)
from yieldtree.synthfab import scenario_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def base_config(out_dir, n_batches=40, seed=3):
    return {
        "input": {"scenario": {
            "seed": seed,
            "n_batches": n_batches,
            "effects": [{"type": "machine_defect", "n_machines": 4, "bad_machine_id": 3, "delta_p": 0.4}],
        }},
        "lifts": [{"method": "reject_rate", "parameter": "x", "threshold": 10.0, "min_count": 2}],
        "encodings": {"cyclical": {"time_column": "timestamp"},
                      "sequential": {"time_column": "timestamp"}},
        "features": {"exclude": ["yield"]},
        "targets": [{"name": "prob", "source_column": "x_reject_pct",
                     "strategy": "median", "direction": "above"}],
        "train": {"max_depth": 3, "min_leaf": 5},
        "outputs": {"dir": str(out_dir)},
    }


EXACTLY_ONE = "exactly one of source_column or problem"
BAD_TARGETS = [
    ({"name": "t", "source_column": "yield", "problem": X_RULE}, EXACTLY_ONE),
    ({"name": "t"}, EXACTLY_ONE),
    ({"name": "t", "source_column": None}, EXACTLY_ONE),
    ({"name": "t", "source_column": None, "problem": None}, EXACTLY_ONE),
    ({"name": "no/slash", "source_column": "yield"}, "file-name-safe"),
    ({"name": "", "source_column": "yield"}, "file-name-safe"),
    ({"name": "t", "source_column": "yield", "histogram_bins": 0}, "'t': histogram_bins must be >= 1"),
    ({"name": "t", "source_column": "yield", "histogram_bins": -3}, "'t': histogram_bins must be >= 1"),
    ({"name": "t", "source_column": "yield", "strategy": "fixed"}, "fixed strategy needs a finite threshold"),
    ({"name": "t", "source_column": "yield", "strategy": "valley"}, "valley strategy needs bins >= 3"),
    ({"name": "t", "source_column": "yield", "strategy": "valley", "bins": 2}, "valley strategy needs bins >= 3"),
    ({"name": "t", "source_column": "yield", "grey_half_width": -1.0}, "grey_half_width must be >= 0"),
]

# Target fields the chosen strategy does not read: each one is a usage error.
UNREAD_TARGET_FIELDS = [
    pytest.param({"threshold": 90.0}, "median strategy reads no threshold", id="threshold-median"),
    pytest.param({"U": 90.0}, "median strategy reads no threshold", id="U-median"),
    pytest.param({"strategy": "valley", "bins": 10, "threshold": 90.0},
                 "valley strategy reads no threshold", id="threshold-valley"),
    pytest.param({"strategy": "valley", "bins": 10, "U": 90.0},
                 "valley strategy reads no threshold", id="U-valley"),
    pytest.param({"strategy": "fixed", "threshold": 90.0, "bins": 10},
                 "fixed strategy reads no bins", id="bins-fixed"),
    pytest.param({"bins": 10}, "median strategy reads no bins", id="bins-median"),
    pytest.param({"strategy": "fixed", "threshold": 90.0, "U": 80.0},
                 "both threshold and U", id="threshold-beside-U"),
]


def unread_target(fields):
    return dict({"name": "t", "source_column": "yield"}, **fields)


# Edits of base_config() that must fail as a usage error naming the field:
# wrong JSON types, numbers a float cannot hold, values outside a field's
# range, misspelled fields and names outside an enum. `"max_depth": null` is
# not among them: null reads as absent.
BAD_FIELDS = [
    pytest.param(lambda d: d["targets"][0].update(strategy="fixed", threshold="ninety"),
                 "threshold", id="threshold-not-a-number"),
    pytest.param(lambda d: d["lifts"][0].update(threshold=10 ** 400), "threshold",
                 id="number-beyond-float-range"),
    pytest.param(lambda d: d["train"].update(min_gain=float("nan")), "min_gain", id="nan"),
    pytest.param(lambda d: d["input"]["scenario"].update(n_batches=4.5),
                 "n_batches", id="n_batches-not-an-integer"),
    pytest.param(lambda d: d["features"].update(exclude="yield"),
                 "exclude", id="exclude-not-an-array"),
    pytest.param(lambda d: d.update(screens={"drop_missing": "false"}),
                 "drop_missing", id="drop_missing-not-a-flag"),
    pytest.param(lambda d: d["train"].update(max_dept=3), "max_dept", id="unknown-train-field"),
    pytest.param(lambda d: d["encodings"].update(cyclic={"time_column": "timestamp"}),
                 "cyclic", id="unknown-encoding"),
    pytest.param(lambda d: d["lifts"][0].update(treshold=10.0), "treshold", id="unknown-lift-field"),
    pytest.param(lambda d: d["lifts"][0].update(min_count=2.7), "min_count", id="min_count-not-an-integer"),
    pytest.param(lambda d: d["train"].update(min_leaf=True), "min_leaf", id="true-is-not-an-integer"),
    pytest.param(lambda d: d["targets"][0].update(direction="sideways"), "direction", id="unknown-direction"),
    pytest.param(lambda d: d["lifts"].append({"method": "stats", "parameter": "x", "to_level": "wafer"}),
                 "to_level", id="lift-below-the-batch-level"),
    pytest.param(lambda d: d["targets"].append({"name": "p", "problem": dict(X_RULE, threshold="ten")}),
                 r"^target\.problem: threshold 'ten' is invalid", id="problem-threshold-not-a-number"),
    pytest.param(lambda d: d["targets"][0].update(strategy="fixed", U="ninety"),
                 r"^target: U 'ninety' is invalid", id="U-not-a-number"),
    pytest.param(lambda d: d["train"].update(test_fraction=1.0), "test_fraction", id="test_fraction-1"),
    pytest.param(lambda d: d["train"].update(min_leaf=-1), "min_leaf", id="negative-min_leaf"),
    pytest.param(lambda d: d["train"].update(min_gain=-0.5), "min_gain", id="negative-min_gain"),
    pytest.param(lambda d: d["input"]["scenario"].update(ics_per_wafer=-1),
                 "ics_per_wafer must be >= 0", id="negative-ics_per_wafer"),
    pytest.param(lambda d: d["input"]["scenario"].update(base_reject_prob=1.5),
                 "base_reject_prob must be in", id="base_reject_prob-above-1"),
    pytest.param(lambda d: d["input"]["scenario"].update(batch_interval_minutes=0),
                 "batch_interval_minutes must be >= 1", id="batch_interval_minutes-0"),
    pytest.param(lambda d: d.update(lifts=[5]), "lift must be a JSON object", id="lift-not-an-object"),
]

# Edits of csv_config() that must fail at load with this usage error.
BAD_CSV_INPUTS = [
    pytest.param(lambda d: d[0].update(key_columns=["batch_id", "wafer_id"]),
                 "BATCH schema needs 1 key columns, got 2", id="two-batch-key-columns"),
    pytest.param(lambda d: d[1].update(key_columns=["batch_id", ""]),
                 "key column names must be nonempty", id="empty-key-column-name"),
    pytest.param(lambda d: d[1].update(missing_tokens=[]),
                 "missing-value token set must be nonempty", id="no-missing-tokens"),
    pytest.param(lambda d: d[1]["columns"].append({"name": "wafer_id", "kind": "identifier"}),
                 "key columns redeclared as data columns: ['wafer_id']", id="key-column-redeclared"),
    pytest.param(lambda d: d[2]["columns"].append({"name": "", "kind": "numeric"}),
                 "column name must be nonempty", id="empty-column-name"),
    pytest.param(lambda d: d[2]["columns"].append({"name": "x", "kind": "numeric"}),
                 "columns declared twice: ['x']", id="column-declared-twice"),
]

# Edits of base_config() whose encodings fail at load, on the declared batch columns.
BAD_ENCODINGS = [
    pytest.param(lambda d: d["encodings"]["cyclical"].update(time_column="machine"),
                 "column 'machine' is not a timestamp", id="cyclical-not-a-timestamp"),
    pytest.param(lambda d: d["encodings"]["sequential"].update(time_column="oven_temp"),
                 "column 'oven_temp' is not a timestamp", id="sequential-not-a-timestamp"),
    pytest.param(lambda d: d["encodings"].update(batch_order={"id_column": "machine"}),
                 "column 'machine' is not identifier-kind", id="batch_order-on-categorical"),
    pytest.param(lambda d: d["encodings"].update(batch_order={"id_column": "lot"}),
                 "'lot' is neither an identifier column nor a key field of the BATCH table",
                 id="batch_order-unknown-name"),
]

# Edits of base_config() that fail before the run writes anything: the
# encodings at load, a lift from an absent level while the run lifts.
BAD_RUNS = [
    *BAD_ENCODINGS,
    pytest.param(lambda d: d["lifts"].append({"method": "stats", "parameter": "x", "from_level": "ic"}),
                 "dataset has no IC table", id="stats-lift-from-absent-ics"),
]

# One unknown field in every object of the scenario config and the CSV config.
SCENARIO_OBJECTS = [
    lambda d: d["input"],
    lambda d: d["input"]["scenario"],
    lambda d: d["input"]["scenario"]["effects"][0],
    lambda d: d["screens"],
    lambda d: d["screens"]["correlation"],
    lambda d: d["lifts"][0],
    lambda d: d["lifts"][1],
    lambda d: d["encodings"],
    lambda d: d["encodings"]["cyclical"],
    lambda d: d["encodings"]["sequential"],
    lambda d: d["encodings"]["batch_order"],
    lambda d: d["targets"][0],
    lambda d: d["targets"][1]["problem"],
    lambda d: d["features"],
    lambda d: d["train"],
    lambda d: d["outputs"],
]
CSV_OBJECTS = [
    lambda d: d["input"]["csv"][0],
    lambda d: d["input"]["csv"][0]["columns"][0],
]


def every_object_config(out_dir):
    doc = base_config(out_dir)
    doc["input"]["scenario"]["effects"][0] = {"type": "step_change", "at_time": "1990-01-02 00:00",
                                              "delta_p": 0.3}
    doc["screens"] = {"drop_missing": True, "correlation": {"enabled": True}}
    doc["lifts"].insert(0, {"method": "stats", "parameter": "x"})
    doc["encodings"]["batch_order"] = {"id_column": "batch_id"}
    doc["targets"].append({"name": "x_problem", "problem": X_RULE, "strategy": "fixed", "U": 20.0})
    return copy.deepcopy(doc)  # the edits must not reach the shared X_RULE


def readme_jsonc_blocks():
    """The README's annotated JSON examples, with their // comments removed."""
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [json.loads(re.sub(r"//.*", "", block)) for block in blocks]


def run_config(doc, base="."):
    return run_pipeline(config_from_dict(doc, base))


def read_all_artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestConfigValidation:
    def test_no_target_names_the_field(self, tmp_path):
        doc = base_config(tmp_path / "out")
        del doc["targets"]
        with pytest.raises(UsageError, match="target"):
            config_from_dict(doc, tmp_path)

    def test_exactly_one_input_source(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["input"] = {}
        with pytest.raises(UsageError, match="scenario|csv"):
            config_from_dict(doc, tmp_path)

    def test_unknown_top_level_field(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["surprise"] = 1
        with pytest.raises(UsageError, match="surprise"):
            config_from_dict(doc, tmp_path)

    def test_duplicate_target_names(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"] = doc["targets"] * 2
        with pytest.raises(UsageError, match="unique"):
            config_from_dict(doc, tmp_path)

    def test_singular_target_is_an_unknown_field(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["target"] = doc.pop("targets")[0]
        with pytest.raises(UsageError, match=re.escape("unknown config fields: ['target']")):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("target, message", BAD_TARGETS)
    def test_bad_target_is_usage_error(self, tmp_path, target, message):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [target]
        with pytest.raises(UsageError, match=message):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("fields, message", UNREAD_TARGET_FIELDS)
    def test_target_field_the_strategy_does_not_read_is_usage_error(self, tmp_path, fields, message):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [unread_target(fields)]
        with pytest.raises(UsageError, match=message):
            config_from_dict(doc, tmp_path)

    def test_misspelled_exclude_is_usage_error_naming_it(self, tmp_path):
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["features"]["exclude"] = ["yield", "oven_tmp"]
        with pytest.raises(UsageError, match="features.exclude.*'oven_tmp'"):
            run_config(doc, tmp_path)
        assert not (tmp_path / "out").exists()

    def test_exclude_takes_an_input_column_that_is_not_an_analysis_column(self, tmp_path):
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["features"]["exclude"] = ["yield", "x", "oven_temp"]
        result = run_config(doc, tmp_path)
        assert "x" not in result.feature_table.column_names
        assert "oven_temp" not in result.feature_table.column_names

    def test_stats_lift_below_the_batch_level_is_usage_error(self):
        with pytest.raises(UsageError, match="to_level"):
            StatsLift("x", to_level=WAFER)

    def test_stats_lift_from_the_batch_level_fails_at_load(self, tmp_path, capsys):
        doc = base_config("out")
        doc["lifts"].append({"method": "stats", "parameter": "x", "from_level": "batch"})
        with pytest.raises(UsageError, match="from_level must be finer than batch"):
            config_from_dict(doc, tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: stats lift from_level must be finer than batch\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lifts, message", [
        pytest.param([{"method": "reject_rate", "parameter": "x", "threshold": 10.0},
                      {"method": "reject_rate", "parameter": "x", "threshold": 12.0}],
                     "column 'x_reject_pct' is added by the reject_rate lift of 'x' "
                     "and by the reject_rate lift of 'x'", id="reject-rate"),
        pytest.param([{"method": "stats", "parameter": "x"}, {"method": "stats", "parameter": "x"}],
                     "column 'x_mean' is added by the stats lift of 'x' and by the stats lift of 'x'",
                     id="stats"),
    ])
    def test_two_lifts_adding_one_column_fail_at_load(self, tmp_path, lifts, message):
        doc = base_config(tmp_path / "out")
        doc["lifts"] = lifts
        with pytest.raises(UsageError, match=re.escape(message)):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("column, source", [
        ("x_reject_pct", "the reject_rate lift of 'x'"),
        ("x_std", "the stats lift of 'x'"),
        ("hour_of_day", "the cyclical encoding"),
        ("minutes_from_epoch", "the sequential encoding"),
        ("batch_order", "the batch_order encoding"),
    ], ids=lambda value: value.split()[1] if " " in value else value)
    def test_batch_csv_column_that_a_lift_or_encoding_adds_fails_at_load(
        self, tmp_path, capsys, column, source
    ):
        doc = csv_config()
        doc["lifts"].append({"method": "stats", "parameter": "x"})
        config_from_dict(doc, tmp_path)  # valid before the edit
        doc["input"]["csv"][0]["columns"].append({"name": column, "kind": "numeric"})
        message = f"column {column!r} is added by the batch CSV batch.csv and by {source}"
        with pytest.raises(UsageError, match=re.escape(message)):
            config_from_dict(doc, tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 1  # before any CSV is read
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", BAD_CSV_INPUTS)
    def test_bad_csv_input_fails_at_load(self, tmp_path, edit, message):
        doc = csv_config()
        edit(doc["input"]["csv"])
        with pytest.raises(UsageError, match=re.escape(message)):
            config_from_dict(doc, tmp_path)

    def test_two_csv_inputs_at_one_level_fail_at_load(self, tmp_path):
        doc = csv_config()  # no CSV file exists under tmp_path
        doc["input"]["csv"].insert(2, doc["input"]["csv"][1])
        with pytest.raises(UsageError, match="^two tables declared at WAFER$"):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("config", [base_config, lambda out: copy.deepcopy(csv_config())],
                             ids=["scenario", "csv"])
    @pytest.mark.parametrize("edit, message", BAD_ENCODINGS)
    def test_encoding_on_a_batch_column_of_the_wrong_kind_fails_at_load(
        self, tmp_path, config, edit, message
    ):
        doc = config("out")
        edit(doc)
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc, tmp_path)

    def test_problem_rule_beside_a_lift_of_its_column_is_not_a_second_lift(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"].append({"name": "p", "problem": {**X_RULE, "threshold": 12.0}})
        lifted, problem = config_from_dict(doc, tmp_path).targets
        assert lifted.source_column == problem.source_column == "x_reject_pct"

    def test_null_source_beside_a_problem_is_absent(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [{"name": "p", "source_column": None, "problem": X_RULE},
                          {"name": "s", "source_column": "yield", "problem": None}]
        problem, source = config_from_dict(doc, tmp_path).targets
        assert problem.source_column == "x_reject_pct" and problem.problem is not None
        assert source.source_column == "yield" and source.problem is None


class TestFieldReader:
    @pytest.mark.parametrize("edit, field", BAD_FIELDS)
    def test_bad_field_is_usage_error_naming_it(self, tmp_path, edit, field):
        doc = base_config(tmp_path / "out")
        edit(doc)
        with pytest.raises(UsageError, match=field):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("where, field", [
        *(("target", f.name) for f in dataclasses.fields(TargetDirective)),
        *(("train", f.name) for f in dataclasses.fields(TrainSettings)),
    ])
    def test_every_target_and_train_field_is_read_by_its_type(self, tmp_path, where, field):
        doc = base_config(tmp_path / "out")
        obj = doc["targets"][0] if where == "target" else doc["train"]
        obj[field] = []
        # a scalar field names itself and the array; an object field is named <parent>.<field>
        message = rf"^{where}(: {field} \[\] is invalid|\.{field} must be a JSON object)"
        with pytest.raises(UsageError, match=message):
            config_from_dict(doc, tmp_path)

    def test_bad_scenario_field_is_usage_error(self):
        with pytest.raises(UsageError, match="n_batches"):
            scenario_from_dict({"seed": 1, "n_batches": 4.5})

    @pytest.mark.parametrize("where", range(len(SCENARIO_OBJECTS)))
    def test_unknown_field_rejected_in_every_scenario_config_object(self, tmp_path, where):
        doc = every_object_config(tmp_path / "out")
        config_from_dict(doc, tmp_path)  # valid before the edit
        SCENARIO_OBJECTS[where](doc)["surprise_field"] = 1
        with pytest.raises(UsageError, match="surprise_field"):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("where", range(len(CSV_OBJECTS)))
    def test_unknown_field_rejected_in_every_csv_config_object(self, tmp_path, where):
        doc = copy.deepcopy(csv_config())
        config_from_dict(doc, tmp_path)  # valid before the edit
        CSV_OBJECTS[where](doc)["surprise_field"] = 1
        with pytest.raises(UsageError, match="surprise_field"):
            config_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("obj, field", [
        ({"method": "stats"}, "parameter"),
        ({"method": "reject_rate", "parameter": "x"}, "threshold"),
        ({"parameter": "x", "threshold": 10.0}, "method"),
    ])
    def test_absent_required_lift_field_is_named(self, tmp_path, obj, field):
        doc = base_config(tmp_path / "out")
        doc["lifts"] = [obj]
        with pytest.raises(UsageError, match=f"needs field '{field}'"):
            config_from_dict(doc, tmp_path)

    def test_absent_required_fields_are_named(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["encodings"]["cyclical"] = {"holidays": ["1990-12-25"]}
        with pytest.raises(UsageError, match="encodings.cyclical needs field 'time_column'"):
            config_from_dict(doc, tmp_path)
        doc = copy.deepcopy(csv_config())
        del doc["input"]["csv"][1]["path"]
        with pytest.raises(UsageError, match="csv input needs field 'path'"):
            config_from_dict(doc, tmp_path)
        with pytest.raises(UsageError, match="needs field 'delta_p'"):
            scenario_from_dict({"seed": 1, "n_batches": 2, "effects": [{"type": "cyclic_effect",
                                                                        "period_hours": 24}]})

    def test_null_counts_as_absent_in_every_object(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["train"]["max_depth"] = None
        doc["lifts"][0]["min_count"] = None
        doc["targets"][0]["direction"] = None
        doc["input"]["scenario"]["wafers_per_batch"] = None
        doc["screens"] = {"drop_missing": None, "correlation": None}
        config = config_from_dict(doc, tmp_path)
        assert config.train.max_depth == 5
        assert config.lifts[0].min_count == 2
        assert config.targets[0].direction.value == "below"
        assert config.scenario.wafers_per_batch == 24
        assert config.screens.drop_missing and config.screens.correlation.enabled

    def test_numbers_read_as_floats_and_defaults_come_from_the_dataclasses(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [{"name": "t", "source_column": "yield", "strategy": "fixed", "U": 90}]
        doc["train"] = {}
        config = config_from_dict(doc, tmp_path)
        assert config.targets[0].threshold == 90.0
        assert isinstance(config.targets[0].threshold, float)
        assert config.train.min_gain == 1e-6
        assert config.output_dir == tmp_path / "out"

    def test_readme_examples_parse(self, tmp_path):
        blocks = readme_jsonc_blocks()
        assert len(blocks) == 2
        scenario, config = blocks
        assert scenario_from_dict(scenario).n_batches == 200
        parsed = config_from_dict(config, tmp_path)
        assert [t.name for t in parsed.targets] == ["low_yield", "x_problem"]

    def test_readme_library_example_runs(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        exec(compile(block, str(README), "exec"), {})
        assert re.search(r"^IF .* THEN reject", capsys.readouterr().out, re.M)


class TestHappyPath:
    def test_all_declared_outputs_exist(self, tmp_path):
        out = tmp_path / "out"
        result = run_config(base_config(out), tmp_path)
        names = {p.name for p in out.iterdir()}
        assert {
            "manifest.json", "correlation.csv", "prob_rules.txt",
            "prob_tree.json", "prob_histogram.csv", "prob_over_time.csv",
        } <= names
        assert result.manifest["targets"][0]["rules"] >= 1

    def test_manifest_accounts_for_every_case(self, tmp_path):
        result = run_config(base_config(tmp_path / "out"), tmp_path)
        manifest = result.manifest
        batch_in = manifest["input"]["rows"]["batch"]
        screens = manifest["screens"]
        survivors = (
            batch_in
            - screens["missing_dropped"]["batch"]
            - screens["limit_dropped"]["batch"]
        )
        target = manifest["targets"][0]
        assert target["labeled"]["rows"] + target["grey_deleted"] == survivors

    def test_rerun_is_byte_identical(self, tmp_path):
        doc = base_config(tmp_path / "out")
        run_config(doc, tmp_path)
        first = read_all_artifacts(tmp_path / "out")
        run_config(doc, tmp_path)
        second = read_all_artifacts(tmp_path / "out")
        assert first == second

    def test_test_split_evaluation_recorded(self, tmp_path):
        doc = base_config(tmp_path / "out", n_batches=80)
        doc["train"]["test_fraction"] = 0.25
        doc["train"]["split_seed"] = 5
        result = run_config(doc, tmp_path)
        evaluation = result.manifest["targets"][0]["evaluation"]
        assert evaluation is not None
        assert evaluation["tp"] + evaluation["fp"] + evaluation["tn"] + evaluation["fn"] == 20

    def test_target_sources_never_reach_training(self, tmp_path):
        result = run_config(base_config(tmp_path / "out"), tmp_path)
        feature_names = set(result.feature_table.column_names)
        assert "x_reject_pct" not in feature_names
        assert "yield" not in feature_names
        assert result.targets["prob"].tree.tested_columns() <= feature_names


class TestGreyRegion:
    def test_grey_deletion_matches_interval_membership(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"][0]["strategy"] = "fixed"
        doc["targets"][0]["threshold"] = 10.0
        doc["targets"][0]["grey_half_width"] = 6.0
        result = run_config(doc, tmp_path)
        rates = result.analysis.values("x_reject_pct")
        inside = [v for v in rates if 4.0 < v < 16.0]
        assert result.targets["prob"].grey_deleted == len(inside)

    def test_zero_width_matches_no_grey_pipeline_byte_for_byte(self, tmp_path):
        explicit = base_config(tmp_path / "a")
        explicit["targets"][0]["grey_half_width"] = 0.0
        run_config(explicit, tmp_path)
        implicit = base_config(tmp_path / "b")
        run_config(implicit, tmp_path)
        a = read_all_artifacts(tmp_path / "a")
        b = read_all_artifacts(tmp_path / "b")
        # manifests differ only through the config hash; all analysis
        # artifacts must be byte-identical
        del a["manifest.json"], b["manifest.json"]
        assert a == b


class TestCorrelationScreen:
    def _csv_config(self, tmp_path):
        (tmp_path / "batch.csv").write_text(
            "batch_id,oven_temp,oven_temp_copy,noise,outcome\n"
            + "".join(
                f"b{i:02d},{300 + i},{300 + i},{(i * 7) % 13},{100 - i}\n"
                for i in range(30)
            ),
            encoding="utf-8",
        )
        return {
            "input": {"csv": [{
                "path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                "columns": [
                    {"name": "oven_temp", "kind": "numeric"},
                    {"name": "oven_temp_copy", "kind": "numeric"},
                    {"name": "noise", "kind": "numeric"},
                    {"name": "outcome", "kind": "numeric"},
                ],
            }]},
            "targets": [{"name": "t", "source_column": "outcome", "strategy": "median"}],
            "train": {"max_depth": 3, "min_leaf": 2},
            "outputs": {"dir": "out"},
        }

    def test_duplicate_column_flagged_dropped_and_never_tested(self, tmp_path):
        result = run_config(self._csv_config(tmp_path), tmp_path)
        report = result.correlation
        assert report.coefficient("oven_temp", "oven_temp_copy") == pytest.approx(1.0)
        assert "oven_temp_copy" in report.suggested_drops
        assert "oven_temp_copy" not in result.feature_table.column_names
        tree = result.targets["t"].tree
        assert "oven_temp_copy" not in tree.tested_columns()
        # the surviving duplicate carries the signal instead
        assert "oven_temp" in tree.tested_columns()

    def test_screen_can_be_disabled(self, tmp_path):
        doc = self._csv_config(tmp_path)
        doc["screens"] = {"correlation": {"enabled": False}}
        result = run_config(doc, tmp_path)
        assert result.correlation is None
        assert "oven_temp_copy" in result.feature_table.column_names


class TestScreensAndCascade:
    def test_missing_batch_cascades_to_descendants(self, tmp_path):
        (tmp_path / "batch.csv").write_text(
            "batch_id,oven_temp,yield\nb1,350,95\nb2,NA,85\n", encoding="utf-8"
        )
        (tmp_path / "wafer.csv").write_text(
            "batch_id,wafer_id,rejected\nb1,w1,0\nb1,w2,1\nb2,w1,0\n", encoding="utf-8"
        )
        doc = {
            "input": {"csv": [
                {"path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                 "columns": [{"name": "oven_temp", "kind": "numeric"},
                             {"name": "yield", "kind": "numeric"}]},
                {"path": "wafer.csv", "level": "wafer", "key_columns": ["batch_id", "wafer_id"],
                 "columns": [{"name": "rejected", "kind": "numeric"}]},
            ]},
            "screens": {"correlation": {"enabled": False}},
            "targets": [{"name": "t", "source_column": "yield", "strategy": "fixed", "threshold": 90.0}],
            "train": {"min_leaf": 1},
            "outputs": {"dir": "out"},
        }
        result = run_config(doc, tmp_path)
        screens = result.manifest["screens"]
        assert screens["missing_dropped"]["batch"] == 1
        assert screens["orphans_pruned"]["wafer"] == 1
        assert len(result.analysis) == 1

    def test_clean_dataset_keeps_its_tables(self):
        dataset = build_hierarchy({"b1": {"w1": [1.0, 2.0], "w2": [3.0]}, "b2": {"w1": [4.0]}})
        limited = (Column("x", ColumnKind.NUMERIC, sensor_limits=(0.0, 5.0)),)
        dataset = dataset.with_table(Table(SITE, limited, dataset.tables[SITE].rows))
        screened, stats = _screen_dataset(dict(dataset.tables), ScreenSettings())
        assert stats["limit_flags"] == 0
        assert all(screened.tables[level] is dataset.tables[level] for level in dataset.levels)


def batch_csv_config(directory: Path, rows: str, target: dict) -> dict:
    """One batch CSV under batch_id,oven_temp,yield, oven_temp limited to [300, 400]."""
    (directory / "batch.csv").write_text("batch_id,oven_temp,yield\n" + rows, encoding="utf-8")
    return {
        "input": {"csv": [{
            "path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
            "columns": [{"name": "oven_temp", "kind": "numeric", "sensor_limits": [300, 400]},
                        {"name": "yield", "kind": "numeric"}],
        }]},
        "targets": [dict({"name": "low_yield", "source_column": "yield"}, **target)],
        "outputs": {"dir": "out"},
    }


class TestExitCodes:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_happy_path_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config("out", n_batches=30))
        assert main(["analyze", "--config", path]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_config_without_target_exits_one(self, tmp_path, capsys):
        doc = base_config("out")
        del doc["targets"]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert "target" in capsys.readouterr().err

    def test_no_valley_exits_three(self, tmp_path, capsys):
        doc = base_config("out", n_batches=30)
        doc["input"]["scenario"]["effects"] = []
        doc["input"]["scenario"]["base_reject_prob"] = 0.0
        doc["targets"] = [{"name": "v", "source_column": "oven_temp", "strategy": "valley", "bins": 3}]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 3
        assert "valley" in capsys.readouterr().err.lower()

    def test_orphan_data_exits_two(self, tmp_path, capsys):
        (tmp_path / "batch.csv").write_text("batch_id,yield\nb1,95\n", encoding="utf-8")
        (tmp_path / "wafer.csv").write_text(
            "batch_id,wafer_id,rejected\nB99,w1,0\n", encoding="utf-8"
        )
        doc = {
            "input": {"csv": [
                {"path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                 "columns": [{"name": "yield", "kind": "numeric"}]},
                {"path": "wafer.csv", "level": "wafer", "key_columns": ["batch_id", "wafer_id"],
                 "columns": [{"name": "rejected", "kind": "numeric"}]},
            ]},
            "targets": [{"name": "t", "source_column": "yield", "strategy": "fixed", "threshold": 90.0}],
            "outputs": {"dir": "out"},
        }
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 2
        assert "B99" in capsys.readouterr().err

    @pytest.mark.parametrize("target, message", BAD_TARGETS)
    def test_bad_target_exits_one(self, tmp_path, capsys, target, message):
        doc = base_config("out")
        doc["targets"] = [target]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert message in capsys.readouterr().err

    def test_grey_region_leaving_one_class_exits_three(self, tmp_path, capsys):
        # median reject rate 0.0: the grey region deletes every class-0 batch
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()
        doc["targets"] = [{"name": "x_problem", "problem": X_RULE, "strategy": "median",
                           "direction": "above", "grey_half_width": 2.0}]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 3
        assert "grey region (-2.0, 2.0) deleted every class-0 row" in capsys.readouterr().err

    def test_config_number_that_does_not_parse_exits_one(self, tmp_path, capsys):
        doc = base_config("out")
        doc["targets"][0].update(strategy="fixed", threshold="ninety")
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threshold 'ninety'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields, message", UNREAD_TARGET_FIELDS)
    def test_target_field_the_strategy_does_not_read_exits_one(self, tmp_path, capsys, fields, message):
        doc = base_config("out")
        doc["targets"] = [unread_target(fields)]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("holiday", ["1990-W52-2", "19901225"])
    def test_holiday_that_is_not_yyyy_mm_dd_exits_one(self, tmp_path, capsys, holiday):
        """A holiday reads as YYYY-MM-DD on every Python version: an ISO week
        date or a date without dashes is a usage error on each of them."""
        doc = base_config("out", n_batches=30)
        doc["encodings"]["cyclical"]["holidays"] = [holiday]
        with pytest.raises(UsageError, match=rf"^encodings\.cyclical: holidays \['{holiday}'\] is invalid: "):
            config_from_dict(doc, tmp_path)
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: encodings.cyclical: holidays ['{holiday}'] is invalid: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_misspelled_exclude_exits_one(self, tmp_path, capsys):
        doc = base_config("out", n_batches=30)
        doc["features"]["exclude"] = ["oven_tmp"]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert "'oven_tmp'" in capsys.readouterr().err

    def test_scenario_count_that_is_not_an_integer_exits_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "n_batches": 4.5}), encoding="utf-8")
        assert main(["generate", "--scenario", str(path), "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_batches 4.5" in err
        assert "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"input": "\xff"}')
        assert main(["analyze", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8 JSON" in err
        assert "Traceback" not in err

    def test_scenario_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"seed": 1, "n_batches": "\xff"}')
        assert main(["generate", "--scenario", str(path), "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8 JSON" in err
        assert "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("source, message", [
        ("machine", "source column 'machine' is not numeric"),
        ("timestamp", "source column 'timestamp' is not numeric"),
        ("rejected", "'rejected' is not an analysis column"),
    ])
    def test_column_target_without_a_numeric_analysis_column_exits_one(
        self, tmp_path, capsys, command, source, message
    ):
        doc = base_config("out", n_batches=30)
        doc["targets"] = [{"name": "t", "source_column": source}]
        path = self.write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target 't': ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("parameter", ["nope", "oven_temp"])
    def test_problem_target_without_a_site_column_exits_one(
        self, tmp_path, capsys, command, parameter
    ):
        doc = base_config("out", n_batches=30)
        doc["targets"] = [{"name": "p", "problem": dict(X_RULE, parameter=parameter)}]
        path = self.write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: no column '{parameter}' in SITE table")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_missing_target_value_exits_two_naming_the_first_batch(self, tmp_path, capsys, command):
        (tmp_path / "batch.csv").write_text(
            "batch_id,oven_temp,humidity,yield\n"
            "b1,350,40,95\nb3,355,50,NA\nb2,360,45,NA\nb4,352,41,80\n",
            encoding="utf-8",
        )
        doc = {
            "input": {"csv": [{
                "path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
                "columns": [{"name": n, "kind": "numeric"} for n in ("oven_temp", "humidity", "yield")],
                "missing_tokens": ["NA"],
            }]},
            "screens": {"drop_missing": False},
            "targets": [{"name": "low_yield", "source_column": "yield", "strategy": "fixed",
                         "threshold": 90.0}],
            "outputs": {"dir": "out"},
        }
        path = self.write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: target 'low_yield': 'yield' is missing for batch b3")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_target_range_wider_than_the_largest_float_exits_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, overflowing_range_config(tmp_path))
        assert main(["analyze", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: histogram range [-1e+308, 1e+308]")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_cli_arguments_exit_one(self, capsys):
        assert main(["analyze"]) == 1
        assert main(["not-a-command"]) == 1

    def test_help_exits_zero_and_a_missing_argument_prints_one_error(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: yieldtree ")
        assert main(["analyze"]) == 1
        assert capsys.readouterr().err == (
            "usage: yieldtree analyze [-h] --config CONFIG\n"
            "yieldtree analyze: error: the following arguments are required: --config\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_no_batch_left_after_the_screens_exits_three(self, tmp_path, capsys, command):
        doc = batch_csv_config(tmp_path, "b1,NA,90\nb2,500,80\nb3,350,\n", {})
        path = self.write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err == (
            "analysis error: no batch is left after the screens: "
            "2 dropped for missing cells, 1 for sensor limits\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, rows, target, message", [
        pytest.param("analyze", "b1,350,90\nb2,500,80\n", {},
                     "median threshold needs at least 2 values", id="one-batch-median-analyze"),
        pytest.param("report", "b1,350,90\nb2,500,80\n", {},
                     "median threshold needs at least 2 values", id="one-batch-median-report"),
        pytest.param("analyze", "b1,350,90\nb2,360,90\nb3,370,90\n", {"strategy": "valley", "bins": 3},
                     "valley detection needs at least 2 distinct values", id="constant-valley-analyze"),
    ])
    def test_threshold_that_cannot_be_resolved_leaves_no_output(
        self, tmp_path, capsys, command, rows, target, message
    ):
        path = self.write_config(tmp_path, batch_csv_config(tmp_path, rows, target))
        assert main([command, "--config", path]) == 3
        assert capsys.readouterr().err == f"analysis error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_constant_valley_target_previews_a_null_threshold(self, tmp_path, capsys):
        doc = batch_csv_config(tmp_path, "b1,350,90\nb2,360,90\nb3,370,90\n",
                               {"strategy": "valley", "bins": 3})
        path = self.write_config(tmp_path, doc)
        assert main(["report", "--config", path]) == 0
        assert "target low_yield: threshold preview=None" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["targets"][0]["threshold"] is None

    @pytest.mark.parametrize("correlation", [True, False])
    def test_batch_id_without_a_digit_exits_two_before_any_artifact(
        self, tmp_path, capsys, correlation
    ):
        write_shuffled_csvs(tmp_path / "data")
        letters = str.maketrans("0123456789", "ABCDEFGHIJ")  # batch 0007 becomes BAAAH
        for path in (tmp_path / "data").glob("*.csv"):
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            split = (row.partition(",") for row in rows)
            rows = ["B" + key.translate(letters) + sep + rest for key, sep, rest in split]
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        doc = csv_config()  # batch_order reads batch_id
        doc["screens"] = {"correlation": {"enabled": correlation}}
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: batch id 'B[A-J]{4}' has no decimal digit to order by\n", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", BAD_RUNS)
    def test_analysis_table_that_cannot_be_built_exits_one(self, tmp_path, capsys, edit, message):
        doc = base_config("out", n_batches=30)
        edit(doc)
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_singular_target_exits_one_naming_it(self, tmp_path, capsys):
        doc = base_config("out", n_batches=30)
        doc["target"] = doc.pop("targets")[0]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == "error: unknown config fields: ['target']\n"
        assert not (tmp_path / "out").exists()

    def test_two_csv_inputs_at_one_level_exit_one(self, tmp_path, capsys):
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()
        doc["input"]["csv"].append(doc["input"]["csv"][1])
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == "error: two tables declared at WAFER\n"
        assert not (tmp_path / "out").exists()

    def test_csv_input_without_a_batch_table_exits_one(self, tmp_path, capsys):
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()
        del doc["input"]["csv"][0]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: pipeline analyzes at the batch level; input has no batch table\n"
        )
        assert not (tmp_path / "out").exists()

    def test_reject_rate_lift_without_a_wafer_table_exits_one(self, tmp_path, capsys):
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()  # its reject_rate lift reads the site and wafer tables
        del doc["input"]["csv"][1:]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == "error: Method B needs a WAFER table\n"
        assert not (tmp_path / "out").exists()

    def test_missing_csv_file_exits_two(self, tmp_path, capsys):
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()
        (tmp_path / "data" / "wafer.csv").unlink()
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "wafer.csv" in err
        assert not (tmp_path / "out").exists()

    def test_csv_input_that_is_a_directory_exits_two(self, tmp_path, capsys):
        write_shuffled_csvs(tmp_path / "data")
        (tmp_path / "data" / "wafer.csv").unlink()
        (tmp_path / "data" / "wafer.csv").mkdir()
        path = self.write_config(tmp_path, csv_config())
        assert main(["analyze", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'data' / 'wafer.csv'}: Is a directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_output_dir_on_a_file_exits_one_and_writes_nothing(self, tmp_path, capsys, command, out):
        (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
        path = self.write_config(tmp_path, base_config(out, n_batches=30))
        assert main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make output directory {tmp_path / out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"

    def test_generate_out_on_a_file_exits_one(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 1, "n_batches": 4}), encoding="utf-8")
        (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
        assert main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / "taken")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot make output directory {tmp_path / 'taken'}: File exists\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "taken"]
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("taken", ["correlation.csv", "prob_rules.txt", "manifest.json"])
    def test_artifact_path_the_os_refuses_exits_one(self, tmp_path, capsys, taken):
        """The files written before the refused one remain; none after it is written."""
        order = ["correlation.csv", "prob_histogram.csv", "prob_over_time.csv",
                 "prob_rules.txt", "prob_tree.json", "manifest.json"]
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        path = self.write_config(tmp_path, base_config(out, n_batches=30))
        assert main(["analyze", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / taken}: Is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(order[: order.index(taken) + 1])

    @pytest.mark.parametrize("command", ["analyze", "report", "generate"])
    def test_config_or_scenario_that_is_a_directory_exits_one(self, tmp_path, capsys, command):
        (tmp_path / "input.json").mkdir()
        what = "scenario" if command == "generate" else "config"
        argv = [command, f"--{what}", str(tmp_path / "input.json")]
        if command == "generate":
            argv += ["--out", str(tmp_path / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read {what} file {tmp_path / 'input.json'}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "none.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read config file {tmp_path / 'none.json'}: No such file or directory\n"

    @pytest.mark.parametrize("depth, code", [(512, 0), (513, 1)])
    def test_max_depth_is_at_most_512(self, tmp_path, capsys, depth, code):
        doc = base_config("out", n_batches=30)
        doc["train"]["max_depth"] = depth
        assert main(["analyze", "--config", self.write_config(tmp_path, doc)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: max_depth must be 1 to 512, got 513\n"
        assert (tmp_path / "out").exists() == (code == 0)


def two_feature_csv_config(directory: Path, rows: str) -> dict:
    """One batch CSV under batch_id,oven_temp,humidity,yield with the
    missing-cell screen off, so gaps reach the correlation screen and training."""
    (directory / "batch.csv").write_text("batch_id,oven_temp,humidity,yield\n" + rows, encoding="utf-8")
    return {
        "input": {"csv": [{
            "path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
            "columns": [{"name": n, "kind": "numeric"} for n in ("oven_temp", "humidity", "yield")],
        }]},
        "screens": {"drop_missing": False},
        "targets": [{"name": "low_yield", "source_column": "yield", "strategy": "fixed",
                     "threshold": 90.0}],
        "outputs": {"dir": "out"},
    }


class TestNothingWrittenOnFailure:
    """Every stage runs before the first artifact is written, so a run that
    fails at any stage writes nothing."""

    write_config = TestExitCodes.write_config

    def test_grey_region_deleting_every_row_exits_three(self, tmp_path, capsys):
        doc = base_config("out", n_batches=30)
        doc["targets"] = [{"name": "low_yield", "source_column": "yield", "strategy": "fixed",
                           "threshold": 90.0, "grey_half_width": 1000.0}]
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 3
        assert capsys.readouterr().err == (
            "analysis error: grey region (-910.0, 1090.0) deleted every row\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_feature_cell_at_training_exits_two(self, tmp_path, capsys):
        rows = "b1,350,40,95\nb2,,45,85\nb3,360,50,80\nb4,355,41,92\n"
        doc = two_feature_csv_config(tmp_path, rows)
        doc["screens"]["correlation"] = {"enabled": False}
        path = self.write_config(tmp_path, doc)
        assert main(["analyze", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: missing cell in column 'oven_temp'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_correlation_screen_without_two_complete_rows_exits_one(self, tmp_path, capsys, command):
        doc = two_feature_csv_config(tmp_path, "b1,350,,95\nb2,,45,85\nb3,360,,80\n")
        path = self.write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err == "error: correlation table needs at least 2 complete rows\n"
        assert not (tmp_path / "out").exists()

    def test_failing_rerun_leaves_the_earlier_artifacts_as_they_were(self, tmp_path, capsys):
        doc = base_config("out", n_batches=30)
        assert main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 0
        before = read_all_artifacts(tmp_path / "out")
        doc["input"]["scenario"]["seed"] = 4  # new data: every report would differ
        doc["targets"][0]["grey_half_width"] = 1000.0
        assert main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 3
        assert "deleted every row" in capsys.readouterr().err
        assert read_all_artifacts(tmp_path / "out") == before

    def test_every_reject_rate_is_lifted_before_the_first_tree(self, tmp_path, monkeypatch):
        """A reject rate's working set is freed before the first tree is grown,
        so it never adds to the memory that grown trees hold."""
        from yieldtree import lift, pipeline

        calls = []
        original_lift, original_train = lift.lift_reject_rate, pipeline.train

        def counted_lift(dataset, rule):
            calls.append("lift_reject_rate")
            return original_lift(dataset, rule)

        def counted_train(data, config):
            calls.append("train")
            return original_train(data, config)

        monkeypatch.setattr(lift, "lift_reject_rate", counted_lift)
        monkeypatch.setattr(pipeline, "train", counted_train)
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["targets"].append({"name": "x_any", "problem": dict(X_RULE, min_count=1),
                               "strategy": "median", "direction": "above"})
        run_config(doc, tmp_path)
        assert calls == ["lift_reject_rate"] * 2 + ["train"] * 2


class TestGenerateCommand:
    def test_writes_the_tables_and_echoes_the_scenario(self, tmp_path, capsys):
        doc = {"seed": 1, "n_batches": 12, "wafers_per_batch": 3, "sites_per_wafer": 2}
        (tmp_path / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "data"
        assert main(["generate", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / 'batch.csv'} (12 rows)",
            f"wrote {out / 'wafer.csv'} (36 rows)",
            f"wrote {out / 'site.csv'} (72 rows)",
            f"wrote {out / 'scenario.json'}",
        ]
        assert sorted(p.name for p in out.iterdir()) == [
            "batch.csv", "scenario.json", "site.csv", "wafer.csv"
        ]
        echoed = json.loads((out / "scenario.json").read_text(encoding="utf-8"))
        assert scenario_from_dict(echoed) == scenario_from_dict(doc)


def overflowing_range_config(directory: Path) -> dict:
    """A CSV input whose target values span more than the largest float."""
    (directory / "batch.csv").write_text(
        "batch_id,oven_temp,yield\nb1,350,1e308\nb2,360,-1e308\nb3,355,80\n", encoding="utf-8"
    )
    return {
        "input": {"csv": [{
            "path": "batch.csv", "level": "batch", "key_columns": ["batch_id"],
            "columns": [{"name": n, "kind": "numeric"} for n in ("oven_temp", "yield")],
        }]},
        "targets": [{"name": "low_yield", "source_column": "yield", "strategy": "fixed",
                     "threshold": 90.0}],
        "outputs": {"dir": "out"},
    }


class TestTargetRange:
    def test_range_wider_than_the_largest_float_is_data_error_before_any_artifact(self, tmp_path):
        with pytest.raises(DataError, match="histogram range"):
            run_config(overflowing_range_config(tmp_path), tmp_path)
        assert not (tmp_path / "out").exists()


    def test_median_of_values_near_the_largest_float_is_finite(self, tmp_path, capsys):
        doc = overflowing_range_config(tmp_path)
        rows = "".join(f"b{i},{350 + i},{1e308 + i * 0.14e308!r}\n" for i in range(6))
        (tmp_path / "batch.csv").write_text("batch_id,oven_temp,yield\n" + rows, encoding="utf-8")
        doc["targets"] = [{"name": "low_yield", "source_column": "yield"}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 0
        assert "threshold=1.3500000000000002e+308" in capsys.readouterr().out
        assert "Infinity" not in (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")


class TestMultipleTargets:
    def test_one_tree_per_target_with_shared_features(self, tmp_path):
        doc = base_config(tmp_path / "out", n_batches=60)
        doc["targets"] = [
            {"name": "low_yield", "source_column": "yield", "strategy": "fixed", "threshold": 75.0},
            {"name": "x_problem", "problem": {"parameter": "x", "threshold": 10.0, "min_count": 2},
             "strategy": "fixed", "U": 25.0, "direction": "above"},
        ]
        result = run_config(doc, tmp_path)
        assert set(result.targets) == {"low_yield", "x_problem"}
        names = {p.name for p in (tmp_path / "out").iterdir()}
        for target in ("low_yield", "x_problem"):
            assert {f"{target}_rules.txt", f"{target}_tree.json", f"{target}_histogram.csv"} <= names
        # both sources are shielded from the shared feature table
        assert {"yield", "x_reject_pct"} & set(result.feature_table.column_names) == set()


class TestReportMode:
    def test_no_valley_is_a_null_threshold_preview(self, tmp_path):
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["input"]["scenario"]["effects"] = []
        doc["input"]["scenario"]["base_reject_prob"] = 0.0
        doc["targets"] = [{"name": "v", "source_column": "oven_temp", "strategy": "valley", "bins": 3}]
        result = run_pipeline(config_from_dict(doc, tmp_path), report_only=True)
        assert result.targets["v"].threshold is None
        assert result.manifest["targets"][0]["threshold"] is None

    def test_report_writes_aids_but_never_trains(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, n_batches=30)
        result = run_pipeline(config_from_dict(doc, tmp_path), report_only=True)
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "correlation.csv", "prob_histogram.csv", "prob_over_time.csv"} <= names
        assert not any(n.endswith("_rules.txt") or n.endswith("_tree.json") for n in names)
        assert result.manifest["mode"] == "report"
        assert result.targets["prob"].threshold is not None
        assert result.targets["prob"].tree is None

    def test_report_command_exit_zero(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config("out", n_batches=30)), encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 0


class TestRejectRateComputedOnce:
    def _count_calls(self, monkeypatch):
        from yieldtree import lift

        calls = []
        original = lift.lift_reject_rate

        def counted(dataset, rule):
            calls.append(rule)
            return original(dataset, rule)

        monkeypatch.setattr(lift, "lift_reject_rate", counted)
        return calls

    def test_problem_equal_to_a_configured_lift_reuses_its_column(self, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["targets"] = [{"name": "x_problem", "problem": {"parameter": "x", "threshold": 10.0},
                           "strategy": "median", "direction": "above"}]
        result = run_config(doc, tmp_path)
        assert len(calls) == 1
        assert result.targets["x_problem"].labeled is not None

    def test_problem_unlike_every_lift_is_computed(self, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        doc = base_config(tmp_path / "out", n_batches=30)
        rule = {"parameter": "x", "threshold": 10.0, "min_count": 1}
        doc["targets"] = [{"name": "x_any", "problem": rule, "strategy": "median", "direction": "above"}]
        run_config(doc, tmp_path)
        assert [c.min_count for c in calls] == [2, 1]


class TestGroupingWalks:
    def test_each_lift_groups_the_site_table_once(self, tmp_path, monkeypatch):
        """A stats lift, a reject-rate lift and an unlifted problem target
        group the site table once each, by batch: Method B finds a batch's
        wafers by their ids inside the batch's site group, and groups neither
        the wafer table nor the site table by wafer."""
        from yieldtree import lift

        calls = []
        original = lift.group_by_ancestor

        def counted(table, level):
            calls.append((table.level, level))
            return original(table, level)

        monkeypatch.setattr(lift, "group_by_ancestor", counted)
        doc = base_config(tmp_path / "out", n_batches=30)
        doc["lifts"].append({"method": "stats", "parameter": "x"})
        doc["targets"].append({"name": "x_any", "problem": dict(X_RULE, min_count=1),
                               "strategy": "median", "direction": "above"})
        run_config(doc, tmp_path)
        assert calls == [(SITE, BATCH)] * 3


class TestRunResult:
    def test_input_rows_are_freed_before_the_run_returns(self, tmp_path, monkeypatch):
        site_tables = []
        original = synthfab.generate

        def generate(scenario):
            dataset = original(scenario)
            site_tables.append(weakref.ref(dataset.tables[SITE]))
            return dataset

        monkeypatch.setattr(synthfab, "generate", generate)
        result = run_config(base_config(tmp_path / "out", n_batches=30))
        assert result.targets["prob"].tree is not None
        assert len(site_tables) == 1 and site_tables[0]() is None

    @pytest.mark.parametrize("source", ["scenario", "csv"])
    def test_input_tables_are_freed_before_the_first_tree(self, tmp_path, monkeypatch, source):
        """The target-values loop is the input's last reader, so the
        correlation screen and training reuse the input tables' memory. The
        CSVs are clean: the screens keep the loaded site table itself."""
        from yieldtree import ingest, pipeline

        if source == "scenario":
            module, name, doc = synthfab, "generate", base_config(tmp_path / "out", n_batches=30)
        else:
            scenario = scenario_from_dict({"seed": 23, "n_batches": 40, "wafers_per_batch": 6,
                                           "sites_per_wafer": 4, "batch_interval_minutes": 200})
            write_dataset(synthfab.generate(scenario), tmp_path / "data")
            module, name, doc = ingest, "load_dataset", csv_config()
        site_tables, freed_at_train = [], []
        original_read, original_train = getattr(module, name), pipeline.train

        def read_input(argument):
            dataset = original_read(argument)
            site_tables.append(weakref.ref(dataset.tables[SITE]))
            return dataset

        def train(data, config):
            freed_at_train.append(site_tables[0]() is None)
            return original_train(data, config)

        monkeypatch.setattr(module, name, read_input)
        monkeypatch.setattr(pipeline, "train", train)
        run_config(doc, tmp_path)
        assert len(site_tables) == 1 and freed_at_train and all(freed_at_train)


class TestCollector:
    """A run leaves Python's cyclic collector alone and makes no reference
    cycles of its own."""

    @pytest.fixture
    def collector(self):
        """Sets the collector on or off for the test and restores it afterwards."""
        enabled = gc.isenabled()
        yield lambda on: gc.enable() if on else gc.disable()
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, tmp_path, collector, enabled):
        collector(enabled)
        run_config(base_config(tmp_path / "out", n_batches=30))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_when_the_run_raises(self, tmp_path, collector, enabled):
        write_shuffled_csvs(tmp_path / "data")
        doc = csv_config()
        doc["targets"] = [{"name": "x_problem", "problem": X_RULE, "strategy": "median",
                           "direction": "above", "grey_half_width": 2.0}]
        collector(enabled)
        with pytest.raises(AnalysisError, match="deleted every class-0 row"):
            run_config(doc, tmp_path)
        assert gc.isenabled() is enabled

    def test_objects_the_caller_froze_stay_frozen(self, tmp_path):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_config(base_config(tmp_path / "out", n_batches=30))
            assert frozen > 0 and gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("raises", [False, True], ids=["clean", "raising"])
    def test_a_run_makes_no_call_to_the_collector(self, tmp_path, monkeypatch, raises):
        if raises:
            write_shuffled_csvs(tmp_path / "data")
            doc = csv_config()
            doc["targets"] = [{"name": "x_problem", "problem": X_RULE, "strategy": "median",
                               "direction": "above", "grey_half_width": 2.0}]
            outcome = pytest.raises(AnalysisError, match="deleted every class-0 row")
        else:
            doc, outcome = base_config(tmp_path / "out", n_batches=30), nullcontext()
        calls = []
        for name in ("disable", "enable", "freeze", "unfreeze", "collect", "set_threshold"):
            monkeypatch.setattr(gc, name, lambda *args, name=name, **kwargs: calls.append(name))
        with outcome:
            run_config(doc, tmp_path)
        assert calls == []

    @pytest.mark.parametrize("source", ["scenario", "csv"])
    def test_a_run_leaves_no_yieldtree_object_in_a_cycle(self, tmp_path, source):
        if source == "csv":
            write_shuffled_csvs(tmp_path / "data")
            doc = csv_config()
        else:
            doc = scenario_config()
        gc.collect()  # garbage from before the run is freed, not saved
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            run_config(doc, tmp_path)
            gc.collect()
            cyclic = [
                obj for obj in gc.garbage
                if str(getattr(obj, "__module__", "")).startswith("yieldtree")
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert cyclic == []
