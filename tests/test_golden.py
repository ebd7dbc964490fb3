"""Golden artifact digests: the SHA-256 of every artifact of two fixed runs.

`test_rerun_is_byte_identical` compares two runs of the same code; these
digests compare the code against its earlier self, so a refactor or a
speedup that changes any output byte fails here.

Every float sum behind the artifacts is `math.fsum` or exact integer
arithmetic, each rounded once, so one digest set holds on every supported
CPython version.
"""

import hashlib
from pathlib import Path

from yieldtree import synthfab
from yieldtree.ingest import write_dataset
from yieldtree.pipeline import config_from_dict, run_pipeline
from yieldtree.rng import PortableRandom, derive_seed

X_RULE = {"parameter": "x", "threshold": 10.0, "min_count": 2, "comparator": "above"}

ENCODINGS = {
    "cyclical": {"time_column": "timestamp", "holidays": ["1990-01-03"]},
    "sequential": {"time_column": "timestamp", "epoch": "1990-01-01 00:00"},
    "batch_order": {"id_column": "batch_id"},
}

MISSING_TOKENS = ["", "NA", "na", "?"]


def scenario_config() -> dict:
    """Generated input with an IC level, both lifts, every encoding, and
    problem targets both equal to and different from the configured lift."""
    return {
        "input": {"scenario": {
            "seed": 17,
            "n_batches": 60,
            "wafers_per_batch": 6,
            "sites_per_wafer": 4,
            "ics_per_wafer": 2,
            "batch_interval_minutes": 150,
            "effects": [
                {"type": "machine_defect", "n_machines": 4, "bad_machine_id": 3, "delta_p": 0.4},
                {"type": "shift_effect", "night_start_hour": 22, "night_end_hour": 6, "delta_p": 0.3},
                {"type": "step_change", "at_time": "1990-01-05 00:00", "delta_p": 0.3},
            ],
        }},
        "lifts": [
            {"method": "stats", "parameter": "x", "from_level": "site", "to_level": "batch"},
            dict(X_RULE, method="reject_rate"),
        ],
        "encodings": ENCODINGS,
        "features": {"exclude": ["yield"]},
        "targets": [
            {"name": "low_yield", "source_column": "yield", "strategy": "fixed",
             "threshold": 80.0, "direction": "below", "histogram_bins": 8},
            {"name": "x_problem", "problem": X_RULE, "strategy": "median",
             "direction": "above", "grey_half_width": 2.0},
            {"name": "x_any_site", "problem": dict(X_RULE, min_count=1), "strategy": "fixed",
             "U": 50.0, "direction": "above"},
        ],
        "train": {"max_depth": 4, "min_leaf": 3, "test_fraction": 0.25, "split_seed": 7},
        "outputs": {"dir": "out"},
    }


def _column(name: str, kind: str, limits=None) -> dict:
    doc = {"name": name, "kind": kind}
    if limits:
        doc["sensor_limits"] = list(limits)
    return doc


def write_shuffled_csvs(directory: Path) -> None:
    """Per-level CSVs of a small scenario with rows shuffled, a missing
    token in about one row in forty and an out-of-limit value in about one
    batch and one site row in twenty."""
    scenario = synthfab.scenario_from_dict({
        "seed": 23, "n_batches": 50, "wafers_per_batch": 6, "sites_per_wafer": 4,
        "batch_interval_minutes": 200,
        "effects": [{"type": "machine_defect", "n_machines": 4, "bad_machine_id": 3, "delta_p": 0.4}],
    })
    written = write_dataset(synthfab.generate(scenario), directory)
    limited = {"batch": ("oven_temp", 300.0, 400.0), "site": ("x", 0.0, 20.0)}
    for level, path in sorted(written.items()):
        name, key_width = level.name.lower(), level.value + 1
        header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        rng = PortableRandom(derive_seed("golden", name))
        for row in rows:
            draw = rng.random()
            if draw < 0.025:
                row[rng.randint(key_width, len(header) - 1)] = MISSING_TOKENS[rng.randint(0, 3)]
            elif draw < 0.075 and name in limited:
                column, lo, hi = limited[name]
                row[header.index(column)] = repr(lo - 5.0 if rng.random() < 0.5 else hi + 5.0)
        rows = rng.shuffled(rows)
        path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


def csv_config() -> dict:
    return {
        "input": {"csv": [
            {"path": "data/batch.csv", "level": "batch", "key_columns": ["batch_id"],
             "columns": [_column("timestamp", "timestamp"), _column("machine", "categorical"),
                         _column("operator", "categorical"), _column("supplier", "categorical"),
                         _column("oven_temp", "numeric", (300.0, 400.0)),
                         _column("humidity", "numeric"), _column("yield", "numeric")],
             "missing_tokens": MISSING_TOKENS},
            {"path": "data/wafer.csv", "level": "wafer", "key_columns": ["batch_id", "wafer_id"],
             "columns": [_column("rejected", "numeric")], "missing_tokens": MISSING_TOKENS},
            {"path": "data/site.csv", "level": "site",
             "key_columns": ["batch_id", "wafer_id", "site_id"],
             "columns": [_column("x", "numeric", (0.0, 20.0))], "missing_tokens": MISSING_TOKENS},
        ]},
        "lifts": [dict(X_RULE, method="reject_rate")],
        "encodings": ENCODINGS,
        "features": {"exclude": ["yield"]},
        "targets": [
            {"name": "x_problem", "problem": X_RULE, "strategy": "fixed",
             "U": 20.0, "direction": "above"},
        ],
        "train": {"max_depth": 4, "min_leaf": 3, "test_fraction": 0.25, "split_seed": 7},
        "outputs": {"dir": "out"},
    }


def artifact_digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


# Recorded on CPython 3.10, 3.11, 3.12 and 3.13.
SCENARIO_DIGESTS = {
    "correlation.csv": "238b40bc3877a5d65508b21993d625e0ba8214df0f74e472a4b838c9521ca621",
    "low_yield_histogram.csv": "87a218208a91b8eec7a9e6f8612b99ef41d5ec260a7747e6b23c594e906dd9a0",
    "low_yield_over_time.csv": "cab346daef9fb69205a6e7655455652153ee676a2082d46386e03290ac171b5a",
    "low_yield_rules.txt": "35431bc0123dd9c02417ca9d9aa98fcf459309953d446ad0c04e87102f2c8808",
    "low_yield_tree.json": "cedfc269d4cb5690b673d46eaee17a04e3cbcd8c769164b38873519c6d48da0e",
    "manifest.json": "c0f210aba446588882e03ac117040c58727dbfe2b753cd60980f3f3203ed25a4",
    "x_any_site_histogram.csv": "05a3e1615f7db71f58bc32ff96678b4fe46e481c378d214500f24e0f858e2c3d",
    "x_any_site_over_time.csv": "52f6677d5e430f295f0adc2373dc49227df8686c1e2a027b1103ef066b87d72e",
    "x_any_site_rules.txt": "3fcdea19e1b2958fc98bcc9ffe5be2a736779d2cb497100ea694cbffec65dbdd",
    "x_any_site_tree.json": "fd9cc99665ed24813bc28098ab14b2ca2cf2eed5fcb904ecfd2dcc225dc543d0",
    "x_problem_histogram.csv": "42b62c1cdf259464dc873cc97b3ac41874aadc56aa3b48de31a67ac47f5994f1",
    "x_problem_over_time.csv": "877b9bf4ab8613ea5298e2a1478d2033db42f9555a07e6a7220789245b95dc8f",
    "x_problem_rules.txt": "0088034a876ac72869b849090f8557229aa8a2f22d0158bea225df8f12588deb",
    "x_problem_tree.json": "36cfa611e6815b77ced526ca4bb3e553203640723b13705f6f4d845ba6de597f",
}

CSV_DIGESTS = {
    "correlation.csv": "e35dd33f08e50b0d7573c6fbd49d39394009cad8b64ae0bc5049fed185226bf4",
    "manifest.json": "4257a3c81335668822f6524257bbac24a164b9fa8e13ab6de2a8bb5ac409d500",
    "x_problem_histogram.csv": "2155c27ed1d87b9425a83a886066ced25d9659a3e601d02e92674d990875b665",
    "x_problem_over_time.csv": "5fbdf39350ef5af01bffd5906ce1e008859cd80be63e4884cf8ef63f415d3ca4",
    "x_problem_rules.txt": "2a19846d5301becb507b65b42017593ab6c87a669b67e5060b36319471098f3c",
    "x_problem_tree.json": "ee3897b2d7cff562c1f0e2e10119991c5527e2f98b4ea828bda1ed993786c56f",
}

def test_scenario_artifacts_match_golden_digests(tmp_path):
    result = run_pipeline(config_from_dict(scenario_config(), tmp_path))
    assert artifact_digests(result.output_dir) == SCENARIO_DIGESTS


def test_shuffled_csv_artifacts_match_golden_digests(tmp_path):
    write_shuffled_csvs(tmp_path / "data")
    result = run_pipeline(config_from_dict(csv_config(), tmp_path))
    screens = result.manifest["screens"]
    # the fixture must exercise every screen and the cascade
    assert sum(screens["missing_dropped"].values()) > 0
    assert sum(screens["limit_dropped"].values()) > 0
    assert sum(screens["orphans_pruned"].values()) > 0
    assert artifact_digests(result.output_dir) == CSV_DIGESTS
