"""The benchmark's workloads: each builds one analyze config from a seed.

A workload writes everything it needs (config, and for CSV input the
per-level CSV files) into a fresh work directory. The same seed always
writes the same bytes, so two commits analyze identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from yieldtree import synthfab
from yieldtree.ingest import write_dataset
from yieldtree.rng import PortableRandom, derive_seed

LEVELS = ("batch", "wafer", "site")

# The README's five planted effects.
README_EFFECTS = [
    {"type": "machine_defect", "n_machines": 4, "bad_machine_id": 3, "delta_p": 0.4},
    {"type": "supplier_impurity", "n_suppliers": 3, "bad_supplier_id": 2, "delta_p": 0.2},
    {"type": "shift_effect", "night_start_hour": 22, "night_end_hour": 6, "delta_p": 0.3},
    {"type": "step_change", "at_time": "1990-02-01 00:00", "delta_p": 0.4},
    {"type": "cyclic_effect", "period_hours": 24, "delta_p": 0.2},
]

ENCODINGS = {
    "cyclical": {"time_column": "timestamp", "holidays": ["1990-12-25"]},
    "sequential": {"time_column": "timestamp", "epoch": "1990-01-01 00:00"},
    "batch_order": {"id_column": "batch_id"},
}

X_RULE = {"parameter": "x", "threshold": 10.0, "min_count": 2, "comparator": "above"}
REJECT_RATE_LIFT = dict(X_RULE, method="reject_rate")
STATS_LIFT = {"method": "stats", "parameter": "x", "from_level": "site", "to_level": "batch"}

# csv_shuffled injection rates, as shares of each table's rows. Missing
# tokens go into one cell of a row at every level; out-of-limit values go
# into the columns that declare sensor limits (batch oven_temp, site x).
MISSING_FRACTION = 0.002
OUT_OF_LIMIT_FRACTION = 0.02
OVEN_LIMITS = (300.0, 400.0)
X_LIMITS = (0.0, 20.0)
MISSING_TOKENS = ("", "NA", "na", "?")


@dataclass
class Prepared:
    """One workload's inputs and what a correct run must report about them."""

    config_path: Path
    scenario: synthfab.FabScenario
    input_rows: dict[str, int]
    expected_screens: dict
    input_sha256: str
    unused_spans: frozenset[str]

    @property
    def total_rows(self) -> int:
        return sum(self.input_rows.values())


def _write_config(doc: dict, work: Path) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _sha256_files(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _clean_screens() -> dict:
    """Manifest screen counts of an input the screens must leave intact."""
    return {
        "missing_dropped": {level: 0 for level in LEVELS},
        "limit_dropped": {level: 0 for level in LEVELS},
        "orphans_pruned": {level: 0 for level in LEVELS[1:]},
        "limit_flags": 0,
    }


def _scenario_rows(scenario: dict) -> dict[str, int]:
    wafers = scenario["n_batches"] * scenario["wafers_per_batch"]
    return {
        "batch": scenario["n_batches"],
        "wafer": wafers,
        "site": wafers * scenario["sites_per_wafer"],
    }


def _scenario_workload(
    seed: int, work: Path, scenario: dict, rest: dict, unused: set[str]
) -> Prepared:
    scenario = dict(scenario, seed=seed)
    doc = dict(rest, input={"scenario": scenario}, outputs={"dir": "out"})
    rows = _scenario_rows(scenario)
    config_path = _write_config(doc, work)
    return Prepared(
        config_path=config_path,
        scenario=synthfab.scenario_from_dict(scenario),
        input_rows=rows,
        expected_screens=_clean_screens(),
        input_sha256=_sha256_files([config_path]),
        unused_spans=frozenset(unused),
    )


def fab_sites(seed: int, work: Path) -> Prepared:
    scenario = {
        "n_batches": 500,
        "wafers_per_batch": 24,
        "sites_per_wafer": 5,
        "batch_interval_minutes": 180,
        "effects": README_EFFECTS,
    }
    rest = {
        "lifts": [STATS_LIFT, REJECT_RATE_LIFT],
        "encodings": ENCODINGS,
        "targets": [
            {"name": "low_yield", "source_column": "yield", "strategy": "fixed",
             "threshold": 90.0, "direction": "below", "histogram_bins": 10},
            {"name": "x_problem", "problem": X_RULE, "strategy": "fixed",
             "U": 50.0, "direction": "below"},
        ],
        "features": {"exclude": ["yield"]},
        "train": {"max_depth": 5, "min_leaf": 5, "min_gain": 1e-6,
                  "test_fraction": 0.25, "split_seed": 7},
    }
    return _scenario_workload(seed, work, scenario, rest, {"ingest.load_dataset"})


def long_history(seed: int, work: Path) -> Prepared:
    scenario = {
        "n_batches": 5000,
        "wafers_per_batch": 2,
        "sites_per_wafer": 2,
        "batch_interval_minutes": 15,
        "effects": README_EFFECTS[:4],
    }
    rest = {
        "lifts": [REJECT_RATE_LIFT],
        "encodings": ENCODINGS,
        "targets": [
            {"name": "low_yield", "source_column": "yield", "strategy": "fixed",
             "threshold": 60.0, "direction": "below"},
            {"name": "yield_median", "source_column": "yield", "strategy": "median",
             "direction": "below", "grey_half_width": 10.0},
            {"name": "x_problem", "problem": X_RULE, "strategy": "fixed",
             "U": 40.0, "direction": "above"},
            {"name": "x_any_site", "problem": dict(X_RULE, min_count=1), "strategy": "fixed",
             "U": 60.0, "direction": "above"},
        ],
        "train": {"max_depth": 8, "min_leaf": 5, "min_gain": 1e-6,
                  "test_fraction": 0.25, "split_seed": 7},
    }
    return _scenario_workload(
        seed, work, scenario, rest, {"ingest.load_dataset", "lift.lift_stats"}
    )


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        records = list(csv.reader(handle))
    return records[0], records[1:]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _corrupt(
    rows: list[list[str]], key_width: int, header: list[str], level: str, seed: int,
    limited: tuple[str, tuple[float, float]] | None,
) -> tuple[set, set]:
    """Inject missing tokens and out-of-limit values into chosen rows.

    Returns the keys of the rows that the missing screen and the limit screen
    must drop. The two row sets are disjoint, so each drop is counted once.
    """
    rng = PortableRandom(derive_seed(seed, "corrupt", level))
    order = rng.shuffled(range(len(rows)))
    n_missing = round(MISSING_FRACTION * len(rows))
    n_limit = round(OUT_OF_LIMIT_FRACTION * len(rows)) if limited else 0
    data_columns = header[key_width:]
    missing_keys, limit_keys = set(), set()
    for i in order[:n_missing]:
        column = header.index(data_columns[rng.randint(0, len(data_columns) - 1)])
        rows[i][column] = MISSING_TOKENS[rng.randint(0, len(MISSING_TOKENS) - 1)]
        missing_keys.add(tuple(rows[i][:key_width]))
    for i in order[n_missing:n_missing + n_limit]:
        name, (lo, hi) = limited
        rows[i][header.index(name)] = repr(lo - 50.0 if rng.random() < 0.5 else hi + 50.0)
        limit_keys.add(tuple(rows[i][:key_width]))
    return missing_keys, limit_keys


def _column(name: str, kind: str, limits: tuple[float, float] | None = None) -> dict:
    doc = {"name": name, "kind": kind}
    if limits:
        doc["sensor_limits"] = list(limits)
    return doc


def csv_shuffled(seed: int, work: Path) -> Prepared:
    scenario = synthfab.scenario_from_dict({
        "seed": seed,
        "n_batches": 300,
        "wafers_per_batch": 24,
        "sites_per_wafer": 5,
        "batch_interval_minutes": 240,
        "effects": [README_EFFECTS[0], README_EFFECTS[3]],
    })
    written = write_dataset(synthfab.generate(scenario), work / "data")

    limits = {"batch": ("oven_temp", OVEN_LIMITS), "wafer": None, "site": ("x", X_LIMITS)}
    rows_by_level, missing_dropped, limit_dropped, orphans = {}, {}, {}, {}
    kept_parents = None
    for level, path in sorted(written.items()):
        name, key_width = level.name.lower(), level.value + 1
        header, rows = _read_csv(path)
        missing, limited = _corrupt(rows, key_width, header, name, seed, limits[name])
        rows = PortableRandom(derive_seed(seed, "shuffle", name)).shuffled(rows)
        _write_csv(path, header, rows)
        rows_by_level[name] = len(rows)
        missing_dropped[name] = len(missing)
        limit_dropped[name] = len(limited)

        # The cascade then prunes, level by level, every row whose parent is gone.
        kept = [key for key in (tuple(r[:key_width]) for r in rows)
                if key not in missing and key not in limited]
        if kept_parents is not None:
            orphans[name] = sum(1 for key in kept if key[:-1] not in kept_parents)
            kept = [key for key in kept if key[:-1] in kept_parents]
        kept_parents = set(kept)

    doc = {
        "input": {"csv": [
            {"path": "data/batch.csv", "level": "batch", "key_columns": ["batch_id"],
             "columns": [_column("timestamp", "timestamp"), _column("machine", "categorical"),
                         _column("operator", "categorical"), _column("supplier", "categorical"),
                         _column("oven_temp", "numeric", OVEN_LIMITS),
                         _column("humidity", "numeric"), _column("yield", "numeric")],
             "missing_tokens": list(MISSING_TOKENS)},
            {"path": "data/wafer.csv", "level": "wafer", "key_columns": ["batch_id", "wafer_id"],
             "columns": [_column("rejected", "numeric")], "missing_tokens": list(MISSING_TOKENS)},
            {"path": "data/site.csv", "level": "site",
             "key_columns": ["batch_id", "wafer_id", "site_id"],
             "columns": [_column("x", "numeric", X_LIMITS)], "missing_tokens": list(MISSING_TOKENS)},
        ]},
        "lifts": [REJECT_RATE_LIFT],
        "encodings": ENCODINGS,
        "targets": [
            {"name": "x_problem", "problem": X_RULE, "strategy": "median",
             "direction": "above", "grey_half_width": 2.0},
        ],
        "features": {"exclude": ["yield"]},
        "train": {"max_depth": 5, "min_leaf": 5, "min_gain": 1e-6,
                  "test_fraction": 0.25, "split_seed": 7},
        "outputs": {"dir": "out"},
    }
    config_path = _write_config(doc, work)
    return Prepared(
        config_path=config_path,
        scenario=scenario,
        input_rows=rows_by_level,
        expected_screens={
            "missing_dropped": missing_dropped,
            "limit_dropped": limit_dropped,
            "orphans_pruned": orphans,
            "limit_flags": sum(limit_dropped.values()),
        },
        input_sha256=_sha256_files([config_path] + [written[level] for level in sorted(written)]),
        unused_spans=frozenset({"synthfab.generate", "lift.lift_stats"}),
    )


# name -> (function that writes the inputs, why the workload exists)
WORKLOADS = {
    "fab_sites": (
        fab_sites,
        "deep 24x5 hierarchy, README config: row-level grouping, validation, "
        "lifts and generation dominate while train is small",
    ),
    "long_history": (
        long_history,
        "thin 2x2 hierarchy over many batches with four targets: tree "
        "induction dominates and the planted causes come back as rules",
    ),
    "csv_shuffled": (
        csv_shuffled,
        "shuffled CSV input with injected missing and out-of-limit cells: "
        "parsing, screens and the orphan cascade run on unsorted keys",
    ),
}
