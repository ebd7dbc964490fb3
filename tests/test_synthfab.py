import math
import re
import statistics
import tracemalloc
from datetime import datetime, timedelta

import pytest

from conftest import BATCH, SITE, WAFER
from yieldtree.errors import UsageError
from yieldtree.features import order_from_batch_id
from yieldtree.ingest import read_dataset, table_schema, write_dataset
from yieldtree.lift import lift_reject_rate
from yieldtree.model import EntityKey, validate_hierarchy
from yieldtree.synthfab import (
    CyclicEffect,
    FabScenario,
    MachineDefect,
    ShiftEffect,
    StepChange,
    SupplierImpurity,
    generate,
    ground_truth,
    planted_labels,
    scenario_from_dict,
    scenario_to_dict,
)

# The README's five planted effects, as its scenario JSON spells them.
README_EFFECTS = [
    {"type": "machine_defect", "n_machines": 4, "bad_machine_id": 3, "delta_p": 0.4},
    {"type": "supplier_impurity", "n_suppliers": 3, "bad_supplier_id": 2, "delta_p": 0.2},
    {"type": "shift_effect", "night_start_hour": 22, "night_end_hour": 6, "delta_p": 0.3},
    {"type": "step_change", "at_time": "1990-02-01 00:00", "delta_p": 0.4},
    {"type": "cyclic_effect", "period_hours": 24, "delta_p": 0.2},
]


def readme_scenario(effects=README_EFFECTS, **fields):
    return scenario_from_dict({"seed": 5, "n_batches": 8, **fields, "effects": effects})


# When each README effect is active for a batch, from the README's definitions.
README_ACTIVE = {
    "machine_defect": lambda timestamp, machine, supplier, start: machine == "3",
    "supplier_impurity": lambda timestamp, machine, supplier, start: supplier == "2",
    "shift_effect": lambda timestamp, machine, supplier, start: not 6 <= timestamp.hour < 22,
    "step_change": lambda timestamp, machine, supplier, start: timestamp >= datetime(1990, 2, 1),
    "cyclic_effect": lambda timestamp, machine, supplier, start: math.sin(
        2.0 * math.pi * ((timestamp - start) / timedelta(hours=24))
    ) >= 0.0,
}


class TestShape:
    def test_default_geometry_1200_site_rows(self):
        dataset = generate(FabScenario(seed=1, n_batches=10))
        assert len(dataset.table(BATCH)) == 10
        assert len(dataset.table(WAFER)) == 240
        assert len(dataset.table(SITE)) == 1200

    def test_ic_table_only_when_requested(self):
        without = generate(FabScenario(seed=1, n_batches=2))
        assert len(without.levels) == 3
        with_ic = generate(FabScenario(seed=1, n_batches=2, ics_per_wafer=10))
        ic_level = with_ic.levels[-1]
        assert len(with_ic.tables[ic_level]) == 2 * 24 * 10

    def test_structurally_valid_and_ordered(self):
        dataset = generate(FabScenario(seed=2, n_batches=12))
        assert validate_hierarchy(dataset).ok
        ordered = order_from_batch_id(dataset.table(BATCH), "batch_id")
        orders = ordered.values("batch_order")
        assert orders == sorted(orders) and len(set(orders)) == len(orders)

    def test_batch_columns(self):
        dataset = generate(FabScenario(seed=3, n_batches=2))
        assert dataset.table(BATCH).column_names == (
            "timestamp", "machine", "operator", "supplier", "oven_temp", "humidity", "yield",
        )


class TestDeterminism:
    def test_same_scenario_generates_equal_datasets(self):
        scenario = FabScenario(seed=7, n_batches=5, effects=(MachineDefect(4, 3, 0.4),))
        assert generate(scenario) == generate(scenario)

    def test_byte_identical_exports(self, tmp_path):
        scenario = FabScenario(seed=7, n_batches=4)
        write_dataset(generate(scenario), tmp_path / "a")
        write_dataset(generate(scenario), tmp_path / "b")
        for name in ("batch.csv", "wafer.csv", "site.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(FabScenario(seed=1, n_batches=3))
        b = generate(FabScenario(seed=2, n_batches=3))
        assert a != b


class TestPlantedSignal:
    def test_wafer_flags_agree_with_rule_exactly(self):
        scenario = FabScenario(seed=11, n_batches=20, effects=(MachineDefect(4, 3, 0.4),))
        dataset = generate(scenario)
        rates = lift_reject_rate(dataset, scenario.rejection_rule())
        flags = {row.key: row.cells[0] for row in dataset.table(WAFER).rows}
        wafers = scenario.wafers_per_batch
        for row in rates.rows:
            rejected = sum(
                flags[key] for key in flags if key.ancestor(BATCH) == row.key
            )
            assert row.cells[0] == pytest.approx(100.0 * rejected / wafers)

    def test_yield_complements_reject_rate(self):
        scenario = FabScenario(seed=12, n_batches=15)
        dataset = generate(scenario)
        rates = lift_reject_rate(dataset, scenario.rejection_rule())
        yields = dataset.table(BATCH).values("yield")
        for row, y in zip(rates.rows, yields):
            assert row.cells[0] + y == pytest.approx(100.0)

    def test_base_rate_within_3_sigma(self):
        # >= 10,000 wafers, no effects
        scenario = FabScenario(seed=13, n_batches=500, base_reject_prob=0.05)
        dataset = generate(scenario)
        flags = dataset.table(WAFER).values("rejected")
        n = len(flags)
        assert n >= 10_000
        rate = sum(flags) / n
        sigma = math.sqrt(0.05 * 0.95 / n)
        assert abs(rate - 0.05) <= 3 * sigma

    def test_machine_defect_separates_reject_rates_by_20_points(self):
        scenario = FabScenario(seed=14, n_batches=200, effects=(MachineDefect(4, 3, 0.4),))
        dataset = generate(scenario)
        rates = lift_reject_rate(dataset, scenario.rejection_rule())
        machines = dataset.table(BATCH).values("machine")
        bad = [row.cells[0] for row, m in zip(rates.rows, machines) if m == "3"]
        good = [row.cells[0] for row, m in zip(rates.rows, machines) if m != "3"]
        assert statistics.mean(bad) - statistics.mean(good) >= 20.0


class TestGroundTruth:
    def test_machine_defect_mapping(self):
        scenario = FabScenario(seed=1, n_batches=2, effects=(MachineDefect(4, 3, 0.4),))
        entry = ground_truth(scenario)[0]
        assert (entry.feature, entry.value) == ("machine", "3")

    def test_shift_effect_wraps_midnight(self):
        scenario = FabScenario(seed=1, n_batches=2, effects=(ShiftEffect(22, 6, 0.3),))
        entry = ground_truth(scenario)[0]
        assert entry.feature == "hour_of_day"
        assert set(entry.value) == {22, 23, 0, 1, 2, 3, 4, 5}

    def test_step_change_maps_to_minutes(self):
        at = datetime(1990, 2, 1, 0, 0)
        scenario = FabScenario(seed=1, n_batches=2, effects=(StepChange(at, 0.3),))
        entry = ground_truth(scenario)[0]
        assert entry.feature == "minutes_from_epoch"
        assert entry.value == (31 * 1440, None)

    def test_supplier_impurity_mapping(self):
        effect = SupplierImpurity(3, 2, 0.2)
        entry = ground_truth(FabScenario(seed=1, n_batches=2, effects=(effect,)))[0]
        assert (entry.effect, entry.feature, entry.value) == (effect, "supplier", "2")

    def test_cyclic_effect_names_its_period(self):
        effect = CyclicEffect(24.0, 0.2)
        entry = ground_truth(FabScenario(seed=1, n_batches=2, effects=(effect,)))[0]
        assert (entry.effect, entry.feature, entry.value) == (
            effect, "minutes_from_epoch", "period=24.0h"
        )

    @pytest.mark.parametrize(
        "effects", [[effect] for effect in README_EFFECTS] + [README_EFFECTS],
        ids=[effect["type"] for effect in README_EFFECTS] + ["all_five"],
    )
    def test_planted_labels_of_readme_effects(self, effects):
        # 600 batches 100 minutes apart start in every hour of the day and run
        # past the step change on 1990-02-01
        scenario = readme_scenario(
            effects, n_batches=600, batch_interval_minutes=100,
            wafers_per_batch=1, sites_per_wafer=2,
        )
        dataset = generate(scenario)
        batch = dataset.table(BATCH)
        tests = [README_ACTIVE[effect["type"]] for effect in effects]
        expected = [
            int(any(active(*cells, scenario.start_time) for active in tests))
            for cells in zip(*map(batch.values, ("timestamp", "machine", "supplier")))
        ]
        assert planted_labels(scenario, dataset) == expected
        assert 0 < sum(expected) < len(expected)

    def test_no_effects_is_empty(self):
        assert ground_truth(FabScenario(seed=1, n_batches=2)) == []

    def test_planted_labels_match_machine_assignment(self):
        scenario = FabScenario(seed=15, n_batches=50, effects=(MachineDefect(4, 1, 0.4),))
        dataset = generate(scenario)
        labels = planted_labels(scenario, dataset)
        machines = dataset.table(BATCH).values("machine")
        assert labels == [1 if m == "1" else 0 for m in machines]


class TestValidation:
    def test_delta_p_bounded_by_base(self):
        with pytest.raises(UsageError):
            FabScenario(seed=1, n_batches=2, base_reject_prob=0.4, effects=(MachineDefect(4, 0, 0.7),))

    def test_bad_ids_in_range(self):
        with pytest.raises(UsageError):
            FabScenario(seed=1, n_batches=2, effects=(MachineDefect(4, 4, 0.1),))
        with pytest.raises(UsageError):
            FabScenario(seed=1, n_batches=2, effects=(SupplierImpurity(3, -1, 0.1),))

    def test_counts_positive(self):
        with pytest.raises(UsageError):
            FabScenario(seed=1, n_batches=0)
        with pytest.raises(UsageError):
            FabScenario(seed=1, n_batches=2, rule_min_count=9)


    @pytest.mark.parametrize("effect, message", [
        ({"type": "shift_effect", "night_start_hour": 24, "night_end_hour": 6},
         "shift hours must be in [0, 24)"),
        ({"type": "shift_effect", "night_start_hour": 22, "night_end_hour": -1},
         "shift hours must be in [0, 24)"),
        ({"type": "shift_effect", "night_start_hour": 5, "night_end_hour": 5},
         "night shift must not be empty"),
        ({"type": "cyclic_effect", "period_hours": 0}, "period_hours must be positive"),
        ({"type": "cyclic_effect", "period_hours": -24.0}, "period_hours must be positive"),
    ])
    def test_effect_checks_keep_their_messages(self, effect, message):
        exact = f"^{re.escape(message)}$"
        effect = dict(effect, delta_p=0.3)
        with pytest.raises(UsageError, match=exact):
            scenario_from_dict({"seed": 1, "n_batches": 2, "effects": [effect]})
        cls = {"shift_effect": ShiftEffect, "cyclic_effect": CyclicEffect}[effect.pop("type")]
        with pytest.raises(UsageError, match=exact):
            FabScenario(seed=1, n_batches=2, effects=(cls(**effect),))


class TestScenarioJson:
    def test_round_trip(self):
        scenario = FabScenario(
            seed=9,
            n_batches=30,
            base_reject_prob=0.1,
            effects=(
                MachineDefect(4, 3, 0.4),
                SupplierImpurity(3, 2, 0.2),
                ShiftEffect(22, 6, 0.3),
                StepChange(datetime(1990, 3, 1, 12, 0), 0.25),
                CyclicEffect(24.0, 0.2),
            ),
        )
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_to_dict_writes_the_five_type_names(self):
        doc = scenario_to_dict(readme_scenario())
        assert [effect["type"] for effect in doc["effects"]] == [
            "machine_defect", "supplier_impurity", "shift_effect", "step_change", "cyclic_effect"
        ]
        assert doc["effects"] == README_EFFECTS

    def test_unknown_fields_rejected(self):
        with pytest.raises(UsageError):
            scenario_from_dict({"seed": 1, "n_batches": 2, "bogus": 1})

    def test_unknown_effect_type_rejected(self):
        with pytest.raises(UsageError):
            scenario_from_dict({"seed": 1, "n_batches": 2, "effects": [{"type": "gremlins"}]})


class TestExportRoundTrip:
    def test_export_then_load_reproduces_dataset(self, tmp_path):
        scenario = FabScenario(seed=21, n_batches=6, ics_per_wafer=3)
        dataset = generate(scenario)
        write_dataset(dataset, tmp_path)
        schemas = [table_schema(dataset.tables[level]) for level in dataset.levels]
        assert read_dataset(tmp_path, schemas) == dataset


class TestGeneratedKeys:
    @pytest.mark.parametrize("seed, ics", [(0, 0), (1, 3), (2, 0)])
    def test_one_key_check_per_generated_row(self, monkeypatch, seed, ics):
        """Each generated row's ids pass EntityKey's check exactly once, one
        level at a time, coarse to fine, in row order within its level, and
        reading the key and row views of the tables checks nothing more."""
        checked = []
        check = EntityKey.__post_init__

        def counted(key):
            checked.append(key)
            check(key)

        monkeypatch.setattr(EntityKey, "__post_init__", counted)
        dataset = generate(FabScenario(seed=seed, n_batches=7, wafers_per_batch=3, ics_per_wafer=ics))
        tables = dataset.tables.values()
        assert len(checked) == sum(map(len, tables))
        depths = [len(key) for key in checked]
        assert depths == sorted(depths)  # each level's checks contiguous, coarse to fine
        for table in tables:
            assert [key for key in checked if len(key) == table.level + 1] == list(table.keys)
        count = len(checked)
        for table in tables:
            assert table.rows and table.keys and table.key(0) == table.keys[0]
        assert len(checked) == count

    def test_site_keys_cost_eight_bytes_per_field_per_row(self):
        """A generated site table holds its keys as three tuples of shared ids:
        dropping it, with its cells kept, frees at most 8 bytes per field and
        row, plus a small constant."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            dataset = generate(FabScenario(seed=3, n_batches=100))
            site = dataset.tables[SITE]
            kept, rows = [dataset.tables[BATCH], dataset.tables[WAFER], site.columns, site.cells], len(site)
            del dataset
            size = tracemalloc.get_traced_memory()[0]
            del site
            freed = size - tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rows == 12_000 and kept
        assert freed <= 8 * 3 * rows + 2048
