import copy
import gc
import json
import re
from pathlib import Path

import pytest

from conftest import SITE, build_hierarchy
from test_golden import X_RULE, csv_config, scenario_config, write_shuffled_csvs
from yieldtree.cli import main
from yieldtree.errors import AnalysisError, DataError, UsageError
from yieldtree.model import Column, ColumnKind, Table
from yieldtree.pipeline import ScreenSettings, _screen_dataset, config_from_dict, run_pipeline
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
# wrong JSON types, numbers a float cannot hold, misspelled fields and names
# outside an enum. `"max_depth": null` is not among them: null reads as absent.
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

    def test_single_target_alias(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["target"] = doc.pop("targets")[0]
        config = config_from_dict(doc, tmp_path)
        assert [t.name for t in config.targets] == ["prob"]

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

    def test_null_source_beside_a_problem_is_absent(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [{"name": "p", "source_column": None, "problem": X_RULE},
                          {"name": "s", "source_column": "yield", "problem": None}]
        problem, source = config_from_dict(doc, tmp_path).targets
        assert problem.spec.source_column == "x_reject_pct" and problem.problem is not None
        assert source.spec.source_column == "yield" and source.problem is None


class TestFieldReader:
    @pytest.mark.parametrize("edit, field", BAD_FIELDS)
    def test_bad_field_is_usage_error_naming_it(self, tmp_path, edit, field):
        doc = base_config(tmp_path / "out")
        edit(doc)
        with pytest.raises(UsageError, match=field):
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
        assert config.train.config.max_depth == 5
        assert config.lifts[0].min_count == 2
        assert config.targets[0].spec.direction.value == "below"
        assert config.scenario.wafers_per_batch == 24
        assert config.screens.drop_missing and config.screens.correlation.enabled

    def test_numbers_read_as_floats_and_defaults_come_from_the_dataclasses(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["targets"] = [{"name": "t", "source_column": "yield", "strategy": "fixed", "U": 90}]
        doc["train"] = {}
        config = config_from_dict(doc, tmp_path)
        assert config.targets[0].spec.threshold == 90.0
        assert isinstance(config.targets[0].spec.threshold, float)
        assert config.train.config.min_gain == 1e-6
        assert config.output_dir == tmp_path / "out"

    def test_readme_examples_parse(self, tmp_path):
        blocks = readme_jsonc_blocks()
        assert len(blocks) == 2
        scenario, config = blocks
        assert scenario_from_dict(scenario).n_batches == 200
        parsed = config_from_dict(config, tmp_path)
        assert [t.name for t in parsed.targets] == ["low_yield", "x_problem"]


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
        screened, stats = _screen_dataset(dataset, ScreenSettings())
        assert stats["limit_flags"] == 0
        assert all(screened.tables[level] is dataset.tables[level] for level in dataset.levels)


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
        assert not (tmp_path / "out").exists()  # checked before any artifact is written

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
        assert not (tmp_path / "out").exists()  # checked before any artifact is written

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
        assert not (tmp_path / "out").exists()  # checked before any artifact is written

    def test_bad_cli_arguments_exit_one(self, capsys):
        assert main(["analyze"]) == 1
        assert main(["not-a-command"]) == 1


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


class TestCollectorPause:
    """run_pipeline pauses the cyclic collector and hands back the caller's
    state; that is safe only while a run makes no reference cycles."""

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

    def test_a_run_leaves_no_yieldtree_object_in_a_cycle(self, tmp_path):
        gc.collect()  # garbage from before the run is freed, not saved
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            run_config(scenario_config(), tmp_path)
            gc.collect()
            cyclic = [
                obj for obj in gc.garbage
                if str(getattr(obj, "__module__", "")).startswith("yieldtree")
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert cyclic == []
