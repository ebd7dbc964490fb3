"""Config-driven pipeline: ingest/generate -> screens -> lifts -> encodings
-> correlation screen -> target labeling -> train -> report.

The config is a single JSON document (see README for the annotated schema).
Reruns with identical config and inputs produce byte-identical artifacts:
the manifest carries no timestamps, JSON is written with sorted keys, and
every stage is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Any, Sequence

from . import features as feats
from . import ingest, lift, synthfab, target as targeting
from .errors import DataError, NoValleyError, UsageError
from .induce import (
    DecisionTree,
    EvalReport,
    Rule,
    TrainConfig,
    evaluate,
    extract_rules,
    render_report,
    train,
)
from .model import (
    Column,
    ColumnKind,
    GranularityLevel,
    HierarchicalDataset,
    LabeledDataset,
    Table,
    join_tables,
    validate_hierarchy,
)
from .rng import PortableRandom, derive_seed

VERSION = "0.1.0"

_LEVELS = {level.name.lower(): level for level in GranularityLevel}
_KINDS = {kind.name.lower(): kind for kind in ColumnKind}


def _require(doc: dict, key: str, context: str) -> Any:
    if key not in doc:
        raise UsageError(f"{context} needs field {key!r}")
    return doc[key]


def _level(name: Any, context: str) -> GranularityLevel:
    if not isinstance(name, str) or name.lower() not in _LEVELS:
        raise UsageError(f"{context}: unknown level {name!r}; expected one of {sorted(_LEVELS)}")
    return _LEVELS[name.lower()]


def _column_from_dict(doc: dict) -> Column:
    name = _require(doc, "name", "column")
    kind_name = _require(doc, "kind", f"column {name!r}")
    if kind_name not in _KINDS:
        raise UsageError(f"column {name!r}: unknown kind {kind_name!r}")
    limits = doc.get("sensor_limits")
    return Column(
        name,
        _KINDS[kind_name],
        units=doc.get("units"),
        sensor_limits=tuple(limits) if limits else None,
    )


@dataclass(frozen=True)
class CsvInput:
    path: Path
    schema: ingest.TableSchema


@dataclass(frozen=True)
class ScreenSettings:
    drop_missing: bool = True
    sensor_limits: bool = True
    correlation_enabled: bool = True
    correlation_threshold: float = feats.DEFAULT_CORRELATION_THRESHOLD


@dataclass(frozen=True)
class StatsLift:
    parameter: str
    from_level: GranularityLevel = GranularityLevel.SITE
    to_level: GranularityLevel = GranularityLevel.BATCH


@dataclass(frozen=True)
class RejectRateLift:
    rule: lift.RejectionRule


@dataclass(frozen=True)
class EncodingSettings:
    cyclical_time_column: str | None = None
    holidays: tuple[date, ...] = ()
    sequential_time_column: str | None = None
    epoch: datetime = feats.DEFAULT_EPOCH
    batch_order_id_column: str | None = None


@dataclass(frozen=True)
class TargetDirective:
    """One binary target: a column threshold or a per-problem rejection rule.

    A problem target's spec.source_column is the rule's reject-rate column.
    """

    name: str
    spec: targeting.TargetSpec
    problem: lift.RejectionRule | None = None
    histogram_bins: int = targeting.DEFAULT_HISTOGRAM_BINS

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise UsageError(f"target name {self.name!r} must be a file-name-safe token")


@dataclass(frozen=True)
class TrainSettings:
    config: TrainConfig = TrainConfig()
    test_fraction: float = 0.0
    split_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.test_fraction < 1.0:
            raise UsageError("test_fraction must be in [0, 1)")


@dataclass(frozen=True)
class PipelineConfig:
    scenario: synthfab.FabScenario | None = None
    csv_inputs: tuple[CsvInput, ...] = ()
    screens: ScreenSettings = ScreenSettings()
    lifts: tuple[StatsLift | RejectRateLift, ...] = ()
    encodings: EncodingSettings = EncodingSettings()
    targets: tuple[TargetDirective, ...] = ()
    feature_excludes: tuple[str, ...] = ()
    train: TrainSettings = TrainSettings()
    output_dir: Path = Path("out")
    config_digest: str | None = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (not self.csv_inputs):
            raise UsageError("config needs exactly one input source: scenario or csv")
        if not self.targets:
            raise UsageError("config needs at least one target (field 'targets')")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise UsageError(f"target names must be unique, got {names}")


def _parse_lift(doc: dict) -> StatsLift | RejectRateLift:
    method = _require(doc, "method", "lift directive")
    if method == "stats":
        return StatsLift(
            parameter=_require(doc, "parameter", "stats lift"),
            from_level=_level(doc.get("from_level", "site"), "stats lift"),
            to_level=_level(doc.get("to_level", "batch"), "stats lift"),
        )
    if method == "reject_rate":
        return RejectRateLift(_parse_rule(doc, "reject_rate lift"))
    raise UsageError(f"unknown lift method {method!r}; expected 'stats' or 'reject_rate'")


def _parse_rule(doc: dict, context: str) -> lift.RejectionRule:
    try:
        comparator = lift.Comparator(doc.get("comparator", "above"))
    except ValueError:
        raise UsageError(f"{context}: comparator must be 'above' or 'below'") from None
    return lift.RejectionRule(
        parameter=_require(doc, "parameter", context),
        threshold=float(_require(doc, "threshold", context)),
        min_count=int(doc.get("min_count", 2)),
        comparator=comparator,
    )


def _parse_timestamp_field(doc: dict, key: str, context: str, default: datetime) -> datetime:
    if key not in doc:
        return default
    try:
        return ingest.parse_timestamp(doc[key])
    except (TypeError, ValueError):
        raise UsageError(f"{context}: {key} must be 'YYYY-MM-DD HH:MM'") from None


def _parse_encodings(doc: dict) -> EncodingSettings:
    cyclical = doc.get("cyclical")
    sequential = doc.get("sequential")
    batch_order = doc.get("batch_order")
    holidays: tuple[date, ...] = ()
    if cyclical and "holidays" in cyclical:
        try:
            holidays = tuple(date.fromisoformat(d) for d in cyclical["holidays"])
        except ValueError:
            raise UsageError("encodings.cyclical.holidays must be YYYY-MM-DD dates") from None
    return EncodingSettings(
        cyclical_time_column=_require(cyclical, "time_column", "encodings.cyclical") if cyclical else None,
        holidays=holidays,
        sequential_time_column=_require(sequential, "time_column", "encodings.sequential") if sequential else None,
        epoch=_parse_timestamp_field(sequential or {}, "epoch", "encodings.sequential", feats.DEFAULT_EPOCH),
        batch_order_id_column=_require(batch_order, "id_column", "encodings.batch_order") if batch_order else None,
    )


def _parse_target(doc: dict, index: int) -> TargetDirective:
    context = f"target #{index + 1}"
    name = doc.get("name", "target")
    source_column = doc.get("source_column")
    problem_doc = doc.get("problem")
    if (source_column is None) == (problem_doc is None):
        raise UsageError(f"target {name!r} needs exactly one of source_column or problem")
    problem = None if problem_doc is None else _parse_rule(problem_doc, f"{context}.problem")
    strategy_name = doc.get("strategy", "median")
    try:
        strategy = targeting.ThresholdStrategy(strategy_name)
    except ValueError:
        raise UsageError(f"{context}: unknown strategy {strategy_name!r}") from None
    try:
        direction = targeting.Direction(doc.get("direction", "below"))
    except ValueError:
        raise UsageError(f"{context}: direction must be 'below' or 'above'") from None
    threshold = doc.get("threshold", doc.get("U"))
    spec = targeting.TargetSpec(
        source_column if problem is None else problem.reject_rate_column(),
        strategy,
        threshold=float(threshold) if threshold is not None else None,
        bins=int(doc["bins"]) if "bins" in doc else None,
        direction=direction,
        grey_half_width=float(doc.get("grey_half_width", 0.0)),
    )
    return TargetDirective(
        name,
        spec,
        problem,
        histogram_bins=int(doc.get("histogram_bins", targeting.DEFAULT_HISTOGRAM_BINS)),
    )


def _parse_csv_input(doc: dict, base_dir: Path) -> CsvInput:
    level = _level(_require(doc, "level", "csv input"), "csv input")
    key_columns = tuple(_require(doc, "key_columns", "csv input"))
    columns = tuple(_column_from_dict(c) for c in _require(doc, "columns", "csv input"))
    tokens = doc.get("missing_tokens")
    schema = ingest.TableSchema(
        level,
        key_columns,
        columns,
        frozenset(tokens) if tokens is not None else ingest.DEFAULT_MISSING_TOKENS,
    )
    return CsvInput(base_dir / _require(doc, "path", "csv input"), schema)


def config_from_dict(doc: dict, base_dir: str | Path = ".") -> PipelineConfig:
    """Parse and validate a pipeline config document.

    Relative paths (CSV inputs, output dir) resolve against base_dir,
    normally the directory containing the config file.
    """
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    base_dir = Path(base_dir)
    known = {"input", "screens", "lifts", "encodings", "targets", "target", "features", "train", "outputs"}
    unknown = set(doc) - known
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")

    input_doc = _require(doc, "input", "config")
    scenario = None
    csv_inputs: tuple[CsvInput, ...] = ()
    if "scenario" in input_doc and "csv" in input_doc:
        raise UsageError("config input must declare scenario or csv, not both")
    if "scenario" in input_doc:
        scenario = synthfab.scenario_from_dict(input_doc["scenario"])
    elif "csv" in input_doc:
        csv_inputs = tuple(_parse_csv_input(d, base_dir) for d in input_doc["csv"])
    else:
        raise UsageError("config input needs field 'scenario' or 'csv'")

    screens_doc = doc.get("screens", {})
    correlation_doc = screens_doc.get("correlation", {})
    screens = ScreenSettings(
        drop_missing=bool(screens_doc.get("drop_missing", True)),
        sensor_limits=bool(screens_doc.get("sensor_limits", True)),
        correlation_enabled=bool(correlation_doc.get("enabled", True)),
        correlation_threshold=float(
            correlation_doc.get("threshold", feats.DEFAULT_CORRELATION_THRESHOLD)
        ),
    )

    targets_doc = doc.get("targets")
    if targets_doc is None and "target" in doc:
        targets_doc = [doc["target"]]
    if not targets_doc:
        raise UsageError("config needs at least one target (field 'targets')")

    train_doc = doc.get("train", {})
    train_settings = TrainSettings(
        config=TrainConfig(
            max_depth=int(train_doc.get("max_depth", 5)),
            min_leaf=int(train_doc.get("min_leaf", 5)),
            min_gain=float(train_doc.get("min_gain", 1e-6)),
        ),
        test_fraction=float(train_doc.get("test_fraction", 0.0)),
        split_seed=int(train_doc.get("split_seed", 0)),
    )

    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")
    ).hexdigest()

    return PipelineConfig(
        scenario=scenario,
        csv_inputs=csv_inputs,
        screens=screens,
        lifts=tuple(_parse_lift(d) for d in doc.get("lifts", [])),
        encodings=_parse_encodings(doc.get("encodings", {})),
        targets=tuple(_parse_target(d, i) for i, d in enumerate(targets_doc)),
        feature_excludes=tuple(doc.get("features", {}).get("exclude", [])),
        train=train_settings,
        output_dir=base_dir / doc.get("outputs", {}).get("dir", "out"),
        config_digest=digest,
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(doc, path.parent)


@dataclass
class TargetResult:
    directive: TargetDirective
    threshold: float | None
    grey_deleted: int
    labeled: LabeledDataset | None
    tree: DecisionTree | None
    rules: list[Rule]
    report_text: str | None
    evaluation: EvalReport | None
    artifacts: dict[str, str]


@dataclass
class RunResult:
    manifest: dict
    dataset: HierarchicalDataset
    analysis: Table
    feature_table: Table
    correlation: feats.CorrelationReport | None
    targets: dict[str, TargetResult]
    output_dir: Path


def _screen_dataset(
    dataset: HierarchicalDataset, settings: ScreenSettings
) -> tuple[HierarchicalDataset, dict]:
    stats: dict[str, dict[str, int]] = {"missing_dropped": {}, "limit_dropped": {}, "orphans_pruned": {}}
    flags = 0
    tables: dict[GranularityLevel, Table] = {}
    for level in dataset.levels:
        table = dataset.tables[level]
        if settings.drop_missing:
            table, dropped = ingest.drop_missing(table)
            stats["missing_dropped"][level.name.lower()] = dropped
        if settings.sensor_limits:
            table, flagged = ingest.apply_sensor_limits(table)
            stats["limit_dropped"][level.name.lower()] = len({f[0] for f in flagged})
            flags += len(flagged)
        tables[level] = table

    # cascade: a dropped ancestor takes its descendants with it
    levels = sorted(tables)
    for parent_level, level in zip(levels, levels[1:]):
        parents = {row.key.ids for row in tables[parent_level].rows}
        depth = parent_level + 1
        keep = [row.key.ids[:depth] in parents for row in tables[level].rows]
        stats["orphans_pruned"][level.name.lower()] = len(keep) - sum(keep)
        tables[level] = tables[level].filter_rows(keep)

    stats["limit_flags"] = flags
    return HierarchicalDataset(tables), stats


def _apply_lifts(
    dataset: HierarchicalDataset, analysis: Table, lifts: Sequence[StatsLift | RejectRateLift]
) -> tuple[Table, list[dict]]:
    meta = []
    for directive in lifts:
        if isinstance(directive, StatsLift):
            if directive.to_level is not GranularityLevel.BATCH:
                raise UsageError("pipeline lifts must target the batch level")
            lifted = lift.lift_stats(
                dataset, directive.parameter, directive.from_level, directive.to_level
            )
            meta.append({"method": "stats", "columns": list(lifted.column_names)})
        else:
            lifted = lift.lift_reject_rate(dataset, directive.rule)
            meta.append({"method": "reject_rate", "columns": list(lifted.column_names)})
        analysis = join_tables(analysis, lifted)
    return analysis, meta


def _apply_encodings(
    analysis: Table, settings: EncodingSettings
) -> tuple[Table, list[feats.TimeEncodingSpec], dict]:
    meta: dict[str, list[str]] = {}
    if settings.cyclical_time_column:
        analysis = feats.encode_cyclical(analysis, settings.cyclical_time_column, settings.holidays)
        meta["cyclical"] = list(feats.CYCLICAL_COLUMNS)
    specs: list[feats.TimeEncodingSpec] = []
    if settings.sequential_time_column:
        spec = feats.TimeEncodingSpec(feats.TimeMode.SEQUENTIAL, epoch=settings.epoch)
        analysis = feats.encode_sequential(analysis, settings.sequential_time_column, spec)
        meta["sequential"] = [feats.SEQUENTIAL_COLUMN]
        specs.append(spec)
    if settings.batch_order_id_column:
        analysis = feats.order_from_batch_id(analysis, settings.batch_order_id_column)
        meta["batch_order"] = [feats.BATCH_ORDER_COLUMN]
    return analysis, specs, meta


def _time_column(settings: EncodingSettings, analysis: Table) -> str | None:
    """Column for yield-over-time series: the encoded time column when one
    is configured, else the first timestamp column of the analysis table."""
    configured = settings.cyclical_time_column or settings.sequential_time_column
    if configured:
        return configured
    for column in analysis.columns:
        if column.kind is ColumnKind.TIMESTAMP:
            return column.name
    return None


def _holdout_mask(n: int, fraction: float, seed: int) -> list[bool]:
    """True for the int(fraction * n) rows held out for evaluation."""
    held_out = [False] * n
    if fraction:
        for i in PortableRandom(seed).shuffled(range(n))[: int(fraction * n)]:
            held_out[i] = True
    return held_out


def _eval_to_dict(report: EvalReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "tp": report.tp,
        "fp": report.fp,
        "tn": report.tn,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
    }


def run_pipeline(config: PipelineConfig, report_only: bool = False) -> RunResult:
    """Execute the pipeline and write all declared artifacts.

    report_only stops after the analyst-facing reports (histogram, series,
    correlation, threshold preview): no labeling, training, rules or tree.
    """
    # --- input
    if config.scenario is not None:
        dataset = synthfab.generate(config.scenario)
        input_meta: dict[str, Any] = {"source": "scenario", "seed": config.scenario.seed}
    else:
        dataset = ingest.load_dataset([(c.path, c.schema) for c in config.csv_inputs])
        input_meta = {"source": "csv", "seed": None}
    if GranularityLevel.BATCH not in dataset.tables:
        raise UsageError("pipeline analyzes at the batch level; input has no batch table")
    input_meta["rows"] = {
        level.name.lower(): len(dataset.tables[level]) for level in dataset.levels
    }

    report = validate_hierarchy(dataset)
    if not report.ok:
        details = "; ".join(str(v) for v in report.violations[:10])
        raise DataError(f"hierarchy validation failed: {details}")

    # --- screens
    dataset, screen_meta = _screen_dataset(dataset, config.screens)

    # --- lifts onto the batch-level analysis table
    analysis = dataset.table(GranularityLevel.BATCH)
    analysis, lift_meta = _apply_lifts(dataset, analysis, config.lifts)

    # --- time encodings
    analysis, encoding_specs, encoding_meta = _apply_encodings(analysis, config.encodings)

    # --- feature candidates: everything except target sources and excludes
    source_columns = {t.spec.source_column for t in config.targets}
    shielded = source_columns | set(config.feature_excludes)
    feature_table = analysis.without_columns(
        [name for name in analysis.column_names if name in shielded]
    )

    # --- correlation screen
    correlation = None
    correlation_meta = None
    output_dir = config.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    numeric_candidates = [
        c for c in feature_table.columns if c.kind is ColumnKind.NUMERIC
    ]
    if config.screens.correlation_enabled and len(numeric_candidates) >= 2:
        correlation = feats.correlation_table(
            feature_table, config.screens.correlation_threshold
        )
        feats.write_correlation_csv(correlation, output_dir / "correlation.csv")
        feature_table = feats.flag_correlated(correlation, feature_table)
        correlation_meta = {
            "columns": len(correlation.columns),
            "flagged_pairs": len(correlation.flagged_pairs),
            "dropped": list(correlation.suggested_drops),
            "artifact": "correlation.csv",
        }

    # --- targets
    time_column = _time_column(config.encodings, analysis)
    lifted_rules = {d.rule for d in config.lifts if isinstance(d, RejectRateLift)}
    target_results: dict[str, TargetResult] = {}
    target_meta = []
    for directive in config.targets:
        result = _run_target(
            directive,
            dataset,
            analysis,
            lifted_rules,
            feature_table,
            encoding_specs,
            time_column,
            config.train,
            output_dir,
            report_only,
        )
        target_results[directive.name] = result
        labeled = result.labeled
        target_meta.append(
            {
                "name": directive.name,
                "source": directive.spec.source_column,
                "strategy": directive.spec.strategy.value,
                "direction": directive.spec.direction.value,
                "threshold": result.threshold,
                "grey_half_width": directive.spec.grey_half_width,
                "grey_deleted": result.grey_deleted,
                "labeled": None
                if labeled is None
                else {"rows": len(labeled), "positive": labeled.positives},
                "evaluation": _eval_to_dict(result.evaluation),
                "rules": len(result.rules),
                "artifacts": result.artifacts,
            }
        )

    manifest = {
        "mode": "report" if report_only else "analyze",
        "version": VERSION,
        "config_sha256": config.config_digest,
        "input": input_meta,
        "screens": screen_meta,
        "lifts": lift_meta,
        "encodings": encoding_meta,
        "correlation": correlation_meta,
        "targets": target_meta,
    }
    _write_json(manifest, output_dir / "manifest.json")

    return RunResult(
        manifest=manifest,
        dataset=dataset,
        analysis=analysis,
        feature_table=feature_table,
        correlation=correlation,
        targets=target_results,
        output_dir=output_dir,
    )


def _run_target(
    directive: TargetDirective,
    dataset: HierarchicalDataset,
    analysis: Table,
    lifted_rules: set[lift.RejectionRule],
    feature_table: Table,
    encoding_specs: list[feats.TimeEncodingSpec],
    time_column: str | None,
    train_settings: TrainSettings,
    output_dir: Path,
    report_only: bool,
) -> TargetResult:
    artifacts: dict[str, str] = {}

    # source values aligned with analysis rows, which keep batch-table order
    # as lift_reject_rate does; a lifted problem rule's column is reused
    spec = directive.spec
    if directive.problem is None or directive.problem in lifted_rules:
        values = analysis.values(spec.source_column)
    else:
        values = lift.lift_reject_rate(dataset, directive.problem).values(spec.source_column)

    histogram_report = targeting.histogram(values, directive.histogram_bins)
    histogram_name = f"{directive.name}_histogram.csv"
    targeting.write_histogram_csv(histogram_report, output_dir / histogram_name)
    artifacts["histogram"] = histogram_name

    if time_column is not None and analysis.has_column(time_column):
        series = targeting.yield_series(analysis.values(time_column), values)
        series_name = f"{directive.name}_over_time.csv"
        targeting.write_series_csv(series, output_dir / series_name)
        artifacts["series"] = series_name

    if report_only:
        try:
            threshold = spec.resolve_threshold(values)
        except NoValleyError:
            threshold = None
        return TargetResult(
            directive, threshold, 0, None, None, [], None, None, artifacts
        )

    threshold = spec.resolve_threshold(values)
    labeled, grey_deleted = targeting.apply_grey_region(
        feature_table, values, threshold, spec.grey_half_width, spec.direction
    )

    held_out = _holdout_mask(
        len(labeled),
        train_settings.test_fraction,
        derive_seed(train_settings.split_seed, directive.name),
    )
    train_set = labeled.filter_rows([not h for h in held_out]) if any(held_out) else labeled
    tree = train(train_set, train_settings.config)
    evaluation = evaluate(tree, labeled.filter_rows(held_out)) if any(held_out) else None

    rules = extract_rules(tree)
    report_text = render_report(rules, encoding_specs)
    rules_name = f"{directive.name}_rules.txt"
    (output_dir / rules_name).write_text(report_text, encoding="utf-8")
    artifacts["rules"] = rules_name
    tree_name = f"{directive.name}_tree.json"
    _write_json(tree.to_dict(), output_dir / tree_name)
    artifacts["tree"] = tree_name

    return TargetResult(
        directive,
        threshold,
        grey_deleted,
        labeled,
        tree,
        rules,
        report_text,
        evaluation,
        artifacts,
    )


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
