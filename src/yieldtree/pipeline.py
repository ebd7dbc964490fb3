"""Config-driven pipeline: ingest/generate -> screens -> lifts -> encodings
-> correlation screen -> target labeling -> train -> report.

The config is a single JSON document (see README for the annotated schema).
Reruns with identical config and inputs produce byte-identical artifacts:
the manifest carries no timestamps, JSON is written with sorted keys, and
every stage is deterministic. Each target's source values and histogram are
computed before the output directory is made, so bad target data leaves none.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import asdict, dataclass
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
from .ingest import (
    TableSchema,
    array,
    choice,
    flag,
    instance,
    integer,
    number,
    parse_timestamp,
    read_fields,
    read_json,
    read_tagged,
    text,
    write_json,
)
from .model import (
    MISSING,
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


@dataclass(frozen=True)
class CorrelationScreen:
    enabled: bool = True
    threshold: float = feats.DEFAULT_CORRELATION_THRESHOLD


@dataclass(frozen=True)
class ScreenSettings:
    drop_missing: bool = True
    sensor_limits: bool = True
    correlation: CorrelationScreen = CorrelationScreen()


@dataclass(frozen=True)
class StatsLift:
    parameter: str
    from_level: GranularityLevel = GranularityLevel.SITE
    to_level: GranularityLevel = GranularityLevel.BATCH


@dataclass(frozen=True)
class CyclicalEncoding:
    time_column: str
    holidays: tuple[date, ...] = ()


@dataclass(frozen=True)
class SequentialEncoding:
    time_column: str
    epoch: datetime = feats.DEFAULT_EPOCH


@dataclass(frozen=True)
class BatchOrderEncoding:
    id_column: str


@dataclass(frozen=True)
class EncodingSettings:
    cyclical: CyclicalEncoding | None = None
    sequential: SequentialEncoding | None = None
    batch_order: BatchOrderEncoding | None = None


@dataclass(frozen=True)
class TargetDirective:
    """One binary target: a column threshold or a per-problem rejection rule.

    A problem target's spec.source_column is the rule's reject-rate column.
    """

    spec: targeting.TargetSpec
    name: str = "target"
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
    scenario: synthfab.FabScenario | None
    csv_inputs: tuple[tuple[Path, TableSchema], ...]
    feature_excludes: tuple[str, ...]
    output_dir: Path
    screens: ScreenSettings = ScreenSettings()
    lifts: tuple[StatsLift | lift.RejectionRule, ...] = ()
    encodings: EncodingSettings = EncodingSettings()
    targets: tuple[TargetDirective, ...] = ()
    train: TrainSettings = TrainSettings()
    config_digest: str | None = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (not self.csv_inputs):
            raise UsageError("config needs exactly one input source: scenario or csv")
        if not self.targets:
            raise UsageError("config needs at least one target (field 'targets')")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise UsageError(f"target names must be unique, got {names}")


def _take(fields: dict, *names: str) -> dict:
    """Remove the named fields that are present from fields and return them."""
    return {name: fields.pop(name) for name in names if name in fields}


_RULE = dict(parameter=text, threshold=number, min_count=integer, comparator=choice(lift.Direction))
_LEVEL = choice(GranularityLevel)
_BATCH = choice({"batch": GranularityLevel.BATCH})  # lifts join the batch-level table
_LIFTS = {
    "stats": instance(StatsLift, "stats lift", parameter=text, from_level=_LEVEL, to_level=_BATCH),
    "reject_rate": instance(lift.RejectionRule, "reject_rate lift", **_RULE),
}


def _read_lift(doc: Any) -> StatsLift | lift.RejectionRule:
    read, fields = read_tagged(doc, "lift", "method", choice(_LIFTS))
    return read(fields)


_COLUMN = instance(
    Column, "column", name=text, kind=choice(ColumnKind), units=text, sensor_limits=array(number)
)
_TABLE_SCHEMA = instance(
    TableSchema, "csv input", level=_LEVEL, key_columns=array(text), columns=array(_COLUMN),
    missing_tokens=array(text),
)


def _read_csv_input(base_dir: Path, doc: Any) -> tuple[Path, TableSchema]:
    path, fields = read_tagged(doc, "csv input", "path", text)
    return base_dir / path, _TABLE_SCHEMA(fields)


_CORRELATION = instance(CorrelationScreen, "screens.correlation", enabled=flag, threshold=number)
_SCREENS = instance(
    ScreenSettings, "screens", drop_missing=flag, sensor_limits=flag, correlation=_CORRELATION
)
_CYCLICAL = instance(
    CyclicalEncoding, "encodings.cyclical", time_column=text, holidays=array(date.fromisoformat)
)
_SEQUENTIAL = instance(
    SequentialEncoding, "encodings.sequential", time_column=text, epoch=parse_timestamp
)
_BATCH_ORDER = instance(BatchOrderEncoding, "encodings.batch_order", id_column=text)
_ENCODINGS = instance(
    EncodingSettings, "encodings",
    cyclical=_CYCLICAL, sequential=_SEQUENTIAL, batch_order=_BATCH_ORDER,
)


_PROBLEM = instance(lift.RejectionRule, "target problem", **_RULE)


def _read_target(doc: Any) -> TargetDirective:
    fields = read_fields(
        doc, "target", name=text, source_column=text, problem=_PROBLEM,
        strategy=choice(targeting.ThresholdStrategy), threshold=number, U=number, bins=integer,
        direction=choice(lift.Direction), grey_half_width=number, histogram_bins=integer,
    )
    directive = _take(fields, "name", "problem", "histogram_bins")
    problem = directive.get("problem")
    if ("source_column" in fields) == (problem is not None):
        name = directive.get("name", TargetDirective.name)
        raise UsageError(f"target {name!r} needs exactly one of source_column or problem")
    if problem is not None:
        fields["source_column"] = problem.reject_rate_column()
    if "U" in fields:
        if "threshold" in fields:
            name = directive.get("name", TargetDirective.name)
            raise UsageError(f"target {name!r} gives both threshold and U; give one")
        fields["threshold"] = fields.pop("U")
    return TargetDirective(targeting.TargetSpec(**fields), **directive)


def _read_train(doc: Any) -> TrainSettings:
    fields = read_fields(
        doc, "train", max_depth=integer, min_leaf=integer, min_gain=number,
        test_fraction=number, split_seed=integer,
    )
    split = _take(fields, "test_fraction", "split_seed")
    return TrainSettings(TrainConfig(**fields), **split)


def config_from_dict(doc: dict, base_dir: str | Path = ".") -> PipelineConfig:
    """Parse and validate a pipeline config document.

    Relative paths (CSV inputs, output dir) resolve against base_dir,
    normally the directory containing the config file.
    """
    base_dir = Path(base_dir)
    csv = array(lambda c: _read_csv_input(base_dir, c))
    fields = read_fields(
        doc, "config",
        input=lambda d: read_fields(d, "input", scenario=synthfab.scenario_from_dict, csv=csv),
        screens=_SCREENS, lifts=array(_read_lift), encodings=_ENCODINGS,
        targets=array(_read_target), target=_read_target, train=_read_train,
        features=lambda d: read_fields(d, "features", exclude=array(text)),
        outputs=lambda d: read_fields(d, "outputs", dir=text),
    )
    if "target" in fields:  # the single-target alias
        fields["targets"] = fields.get("targets", ()) + (fields.pop("target"),)
    inputs = fields.pop("input", {})
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")
    ).hexdigest()
    return PipelineConfig(
        scenario=inputs.get("scenario"),
        csv_inputs=inputs.get("csv", ()),
        feature_excludes=fields.pop("features", {}).get("exclude", ()),
        output_dir=base_dir / fields.pop("outputs", {}).get("dir", "out"),
        config_digest=digest,
        **fields,
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    return config_from_dict(read_json(path, "config"), path.parent)


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
        parents = {row.key for row in tables[parent_level].rows}
        depth = parent_level + 1
        keep = [row.key[:depth] in parents for row in tables[level].rows]
        stats["orphans_pruned"][level.name.lower()] = len(keep) - sum(keep)
        tables[level] = tables[level].filter_rows(keep)

    stats["limit_flags"] = flags
    return HierarchicalDataset(tables), stats


def _apply_lifts(
    dataset: HierarchicalDataset, analysis: Table, lifts: Sequence[StatsLift | lift.RejectionRule]
) -> tuple[Table, list[dict]]:
    meta = []
    for directive in lifts:
        if isinstance(directive, StatsLift):
            method = "stats"
            lifted = lift.lift_stats(
                dataset, directive.parameter, directive.from_level, directive.to_level
            )
        else:
            method = "reject_rate"
            lifted = lift.lift_reject_rate(dataset, directive)
        meta.append({"method": method, "columns": list(lifted.column_names)})
        analysis = join_tables(analysis, lifted)
    return analysis, meta


def _apply_encodings(
    analysis: Table, settings: EncodingSettings
) -> tuple[Table, list[feats.TimeEncodingSpec], dict]:
    meta: dict[str, list[str]] = {}
    if settings.cyclical:
        analysis = feats.encode_cyclical(
            analysis, settings.cyclical.time_column, settings.cyclical.holidays
        )
        meta["cyclical"] = list(feats.CYCLICAL_COLUMNS)
    specs: list[feats.TimeEncodingSpec] = []
    if settings.sequential:
        spec = feats.TimeEncodingSpec(feats.TimeMode.SEQUENTIAL, epoch=settings.sequential.epoch)
        analysis = feats.encode_sequential(analysis, settings.sequential.time_column, spec)
        meta["sequential"] = [feats.SEQUENTIAL_COLUMN]
        specs.append(spec)
    if settings.batch_order:
        analysis = feats.order_from_batch_id(analysis, settings.batch_order.id_column)
        meta["batch_order"] = [feats.BATCH_ORDER_COLUMN]
    return analysis, specs, meta


def _time_column(settings: EncodingSettings, analysis: Table) -> str | None:
    """Column for yield-over-time series: the encoded time column when one
    is configured, else the first timestamp column of the analysis table."""
    configured = settings.cyclical or settings.sequential
    if configured:
        return configured.time_column
    return next((c.name for c in analysis.columns if c.kind is ColumnKind.TIMESTAMP), None)


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
    return {**asdict(report), "precision": report.precision, "recall": report.recall}


def run_pipeline(config: PipelineConfig, report_only: bool = False) -> RunResult:
    """Execute the pipeline and write all declared artifacts.

    report_only stops after the analyst-facing reports (histogram, series,
    correlation, threshold preview): no labeling, training, rules or tree.

    The run pauses the cyclic garbage collector (for every thread) and
    restores the caller's setting on return or raise. The pipeline's data
    hold no reference cycles, so reference counting frees them. Survivors
    join the oldest generation unwalked unless the caller froze objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_pipeline(config, report_only)
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _run_pipeline(config: PipelineConfig, report_only: bool) -> RunResult:
    # --- input
    if config.scenario is not None:
        dataset = synthfab.generate(config.scenario)
        input_meta: dict[str, Any] = {"source": "scenario", "seed": config.scenario.seed}
    else:
        dataset = ingest.load_dataset(list(config.csv_inputs))
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
    known = set(analysis.column_names).union(
        *(table.column_names for table in dataset.tables.values())
    )
    unknown = [name for name in config.feature_excludes if name not in known]
    if unknown:
        raise UsageError(
            f"features.exclude names no analysis or input column: {', '.join(map(repr, unknown))}"
        )
    # --- every target's source values and histogram, before any artifact is
    # written, in analysis-row (= batch-table) order; a lifted problem rule's
    # column is reused
    lifted_rules = {d for d in config.lifts if isinstance(d, lift.RejectionRule)}
    target_values = []
    for t in config.targets:
        source = t.spec.source_column
        if t.problem is not None and t.problem not in lifted_rules:
            values = lift.lift_reject_rate(dataset, t.problem).values(source)
        elif not analysis.has_column(source):
            raise UsageError(f"target {t.name!r}: {source!r} is not an analysis column")
        elif analysis.column(source).kind is not ColumnKind.NUMERIC:
            raise UsageError(f"target {t.name!r}: source column {source!r} is not numeric")
        else:
            values = analysis.values(source)
            if MISSING in values:
                gap = analysis.rows[values.index(MISSING)].key
                raise DataError(f"target {t.name!r}: {source!r} is missing for batch {gap}")
        target_values.append((values, targeting.histogram(values, t.histogram_bins)))
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
    if config.screens.correlation.enabled and len(numeric_candidates) >= 2:
        correlation = feats.correlation_table(
            feature_table, config.screens.correlation.threshold
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
    times = None if time_column is None else analysis.values(time_column)
    target_results: dict[str, TargetResult] = {}
    target_meta = []
    for directive, (values, histogram_report) in zip(config.targets, target_values):
        result = _run_target(
            directive, values, histogram_report, times, feature_table, encoding_specs,
            config.train, output_dir, report_only,
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
    write_json(manifest, output_dir / "manifest.json")

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
    values: list[float],
    histogram_report: targeting.HistogramReport,
    times: list[datetime] | None,
    feature_table: Table,
    encoding_specs: list[feats.TimeEncodingSpec],
    train_settings: TrainSettings,
    output_dir: Path,
    report_only: bool,
) -> TargetResult:
    artifacts: dict[str, str] = {}
    spec = directive.spec
    histogram_name = f"{directive.name}_histogram.csv"
    targeting.write_histogram_csv(histogram_report, output_dir / histogram_name)
    artifacts["histogram"] = histogram_name

    if times is not None:
        series = targeting.yield_series(times, values)
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
    write_json(tree.to_dict(), output_dir / tree_name)
    artifacts["tree"] = tree_name

    return TargetResult(
        directive, threshold, grey_deleted, labeled, tree, rules, report_text, evaluation, artifacts
    )
