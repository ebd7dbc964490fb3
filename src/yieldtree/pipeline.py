"""Config-driven pipeline: ingest/generate -> screens -> lifts -> encodings
-> correlation screen -> target labeling -> train -> report.

The config is a single JSON document (see README for the annotated schema).
Reruns with identical config and inputs produce byte-identical artifacts:
the manifest carries no timestamps, JSON is written with sorted keys, and
every stage is deterministic. Every stage runs before the first artifact is
written; a run that fails writes nothing. The screens take over the input
tables, so each is freed once its first screened copy is built; the screened
tables are freed once every target's values are read, before the correlation
screen; the result keeps the batch-level tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Any, Sequence

from . import features as feats
from . import ingest, lift, synthfab, target as targeting
from .errors import DataError, EmptyDatasetError, NoValleyError, UsageError
from .induce import (
    DecisionTree,
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
    instance,
    number,
    read_fields,
    read_json,
    read_tagged,
    text,
    write_json,
)
from .model import (
    MISSING,
    ColumnKind,
    GranularityLevel,
    HierarchicalDataset,
    LabeledDataset,
    Table,
    join_tables,
    validate_hierarchy,
)
from .rng import PortableRandom, derive_seed, sha256

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

    def __post_init__(self) -> None:
        if self.to_level is not GranularityLevel.BATCH:
            raise UsageError("stats lift to_level must be batch: lifts join the batch-level table")
        if self.from_level is GranularityLevel.BATCH:
            raise UsageError("stats lift from_level must be finer than batch")


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
class TargetDirective(targeting.TargetSpec):
    """One binary target: a column threshold or a per-problem rejection rule.

    A problem target's source_column is the rule's reject-rate column.
    """

    source_column: str | None = None
    name: str = "target"
    problem: lift.RejectionRule | None = None
    histogram_bins: int = targeting.DEFAULT_HISTOGRAM_BINS

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise UsageError(f"target name {self.name!r} must be a file-name-safe token")
        if (self.source_column is None) == (self.problem is None):
            raise UsageError(f"target {self.name!r} needs exactly one of source_column or problem")
        if self.histogram_bins < 1:
            raise UsageError(f"target {self.name!r}: histogram_bins must be >= 1")
        if self.problem is not None:
            object.__setattr__(self, "source_column", self.problem.reject_rate_column())
        super().__post_init__()


@dataclass(frozen=True)
class TrainSettings(TrainConfig):
    test_fraction: float = 0.0
    split_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.test_fraction < 1.0:
            raise UsageError("test_fraction must be in [0, 1)")


_ENCODED_COLUMNS = {"cyclical": feats.CYCLICAL_COLUMNS, "sequential": (feats.SEQUENTIAL_COLUMN,),
                    "batch_order": (feats.BATCH_ORDER_COLUMN,)}


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
        levels = [schema.level for _, schema in self.csv_inputs]
        for i, level in enumerate(levels):
            if level in levels[:i]:
                raise UsageError(f"two tables declared at {level.name}")
        if not self.targets:
            raise UsageError("config needs at least one target (field 'targets')")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise UsageError(f"target names must be unique, got {names}")
        # what adds each batch-table column; a problem target's rule is never joined
        batch = [(path, s) for path, s in self.csv_inputs if s.level is GranularityLevel.BATCH]
        adders = [([c.name for c in s.columns], f"the batch CSV {path.name}") for path, s in batch]
        for d in self.lifts:
            stats = isinstance(d, StatsLift)
            names = lift.stats_columns(d.parameter) if stats else [d.reject_rate_column()]
            adders.append((names, f"the {'stats' if stats else 'reject_rate'} lift of {d.parameter!r}"))
        adders += [(names, f"the {method} encoding") for method, names in _ENCODED_COLUMNS.items()
                   if getattr(self.encodings, method)]
        added: dict[str, str] = {}
        for names, source in adders:
            for name in names:
                if name in added:
                    raise UsageError(f"column {name!r} is added by {added[name]} and by {source}")
                added[name] = source
        # the encoders check their columns on a zero-row batch table; with no
        # batch input there is none, and the run reports the missing table
        for columns in [s.columns for _, s in batch] if self.csv_inputs else [synthfab.BATCH_COLUMNS]:
            _apply_encodings(Table(GranularityLevel.BATCH, columns, ()), self.encodings)


_LIFTS = {
    "stats": instance(StatsLift, "stats lift"),
    "reject_rate": instance(lift.RejectionRule, "reject_rate lift"),
}


def _read_lift(doc: Any) -> StatsLift | lift.RejectionRule:
    read, fields = read_tagged(doc, "lift", "method", choice(_LIFTS))
    return read(fields)


_TABLE_SCHEMA = instance(TableSchema, "csv input")


def _read_csv_input(base_dir: Path, doc: Any) -> tuple[Path, TableSchema]:
    path, fields = read_tagged(doc, "csv input", "path", text)
    return base_dir / path, _TABLE_SCHEMA(fields)


_SCREENS = instance(ScreenSettings, "screens")
_ENCODINGS = instance(EncodingSettings, "encodings")
_TARGET = instance(TargetDirective, "target")
_TRAIN = instance(TrainSettings, "train")


def _read_target(doc: Any) -> TargetDirective:
    """A target object; the paper's name U for the threshold is read as threshold."""
    if isinstance(doc, dict) and "U" in doc:
        doc = dict(doc)
        u = read_fields({"U": doc.pop("U")}, "target", U=number)
        if u:
            if doc.get("threshold") is not None:
                name = doc.get("name") or TargetDirective.name
                raise UsageError(f"target {name!r} gives both threshold and U; give one")
            doc["threshold"] = u["U"]
    return _TARGET(doc)


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
        targets=array(_read_target), train=_TRAIN,
        features=lambda d: read_fields(d, "features", exclude=array(text)),
        outputs=lambda d: read_fields(d, "outputs", dir=text),
    )
    inputs = fields.pop("input", {})
    digest = sha256(
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
    threshold: float | None
    grey_deleted: int
    labeled: LabeledDataset | None
    tree: DecisionTree | None
    rules: list[Rule]
    report_text: str | None


@dataclass
class RunResult:
    manifest: dict
    analysis: Table
    feature_table: Table
    correlation: feats.CorrelationReport | None
    targets: dict[str, TargetResult]
    output_dir: Path


def _screen_dataset(
    tables: dict[GranularityLevel, Table], settings: ScreenSettings
) -> tuple[HierarchicalDataset, dict]:
    """Each table screened, coarse to fine, and pruned of the rows whose
    parent row was dropped: a dropped ancestor takes its descendants with it.

    Takes over `tables`: each level's table is popped, screened and stored
    back, so an input table held nowhere else is freed once its first
    screened copy is built (the run frees the screened tables once every
    target's values are read). The tables must have passed
    `validate_hierarchy`, which proves every parent present, so a table below
    a parent table that the screens left whole is not checked.
    """
    stats: dict[str, dict[str, int]] = {"missing_dropped": {}, "limit_dropped": {}, "orphans_pruned": {}}
    flags = 0
    levels = sorted(tables)
    rows_before = {level: len(table) for level, table in tables.items()}
    for parent, level in zip((None, *levels), levels):
        table = tables.pop(level)
        if settings.drop_missing:
            table, dropped = ingest.drop_missing(table)
            stats["missing_dropped"][level.name.lower()] = dropped
        if settings.sensor_limits:
            rows = len(table)
            table, flagged = ingest.apply_sensor_limits(table)
            stats["limit_dropped"][level.name.lower()] = rows - len(table)
            flags += len(flagged)
        if parent is not None:
            keep = b""
            if len(tables[parent]) < rows_before[parent]:
                parent_ids = set(tables[parent].ancestor_ids(parent))
                keep = bytes(map(parent_ids.__contains__, table.ancestor_ids(parent)))
                del parent_ids  # freed before the pruned copy is built
                table = table.filter_rows(keep)
            stats["orphans_pruned"][level.name.lower()] = len(keep) - sum(keep)
        tables[level] = table

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
) -> tuple[Table, feats.TimeEncodingSpec | None, dict]:
    if settings.cyclical:
        analysis = feats.encode_cyclical(
            analysis, settings.cyclical.time_column, settings.cyclical.holidays
        )
    spec = None
    if settings.sequential:
        spec = feats.TimeEncodingSpec(feats.TimeMode.SEQUENTIAL, epoch=settings.sequential.epoch)
        analysis = feats.encode_sequential(analysis, settings.sequential.time_column, spec)
    if settings.batch_order:
        analysis = feats.order_from_batch_id(analysis, settings.batch_order.id_column)
    meta = {method: list(names) for method, names in _ENCODED_COLUMNS.items() if getattr(settings, method)}
    return analysis, spec, meta


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
    tables = dataset.tables
    del dataset  # the screens take over the input tables
    dataset, screen_meta = _screen_dataset(tables, config.screens)
    del tables
    analysis = dataset.table(GranularityLevel.BATCH)
    if not len(analysis):
        raise EmptyDatasetError(
            "no batch is left after the screens: "
            f"{screen_meta['missing_dropped'].get('batch', 0)} dropped for missing cells, "
            f"{screen_meta['limit_dropped'].get('batch', 0)} for sensor limits"
        )

    # --- lifts onto the batch-level analysis table
    analysis, lift_meta = _apply_lifts(dataset, analysis, config.lifts)

    # --- time encodings
    analysis, sequential, encoding_meta = _apply_encodings(analysis, config.encodings)

    # --- feature candidates: everything except target sources and excludes
    known = set(analysis.column_names).union(
        *(table.column_names for table in dataset.tables.values())
    )
    unknown = [name for name in config.feature_excludes if name not in known]
    if unknown:
        raise UsageError(
            f"features.exclude names no analysis or input column: {', '.join(map(repr, unknown))}"
        )
    # --- every target's source values, histogram and threshold, in
    # analysis-row (= batch-table) order; a lifted problem rule's column is
    # reused. A report previews no valley threshold.
    lifted_rules = {d for d in config.lifts if isinstance(d, lift.RejectionRule)}
    target_values = []
    for t in config.targets:
        source = t.source_column
        if t.problem is not None and t.problem not in lifted_rules:
            values = lift.lift_reject_rate(dataset, t.problem).values(source)
        elif not analysis.has_column(source):
            raise UsageError(f"target {t.name!r}: {source!r} is not an analysis column")
        elif analysis.column(source).kind is not ColumnKind.NUMERIC:
            raise UsageError(f"target {t.name!r}: source column {source!r} is not numeric")
        else:
            values = analysis.values(source)
            if MISSING in values:
                gap = analysis.key(values.index(MISSING))
                raise DataError(f"target {t.name!r}: {source!r} is missing for batch {gap}")
        histogram_report = targeting.histogram(values, t.histogram_bins)
        try:
            threshold = t.resolve_threshold(values)
        except NoValleyError:
            if not report_only:
                raise
            threshold = None
        target_values.append((values, histogram_report, threshold))
    del dataset  # the loop above is its last reader: later stages reuse its memory
    source_columns = {t.source_column for t in config.targets}
    shielded = source_columns | set(config.feature_excludes)
    feature_table = analysis.without_columns(
        [name for name in analysis.column_names if name in shielded]
    )

    # --- correlation screen
    correlation = None
    correlation_meta = None
    numeric_candidates = [c for c in feature_table.columns if c.kind is ColumnKind.NUMERIC]
    if config.screens.correlation.enabled and len(numeric_candidates) >= 2:
        correlation = feats.correlation_table(feature_table, config.screens.correlation.threshold)
        feature_table = feats.flag_correlated(correlation, feature_table)
        correlation_meta = {
            "columns": len(correlation.columns),
            "flagged_pairs": len(correlation.flagged_pairs),
            "dropped": list(correlation.suggested_drops),
            "artifact": "correlation.csv",
        }

    # --- each target's labels, tree, evaluation and rules
    fits = [
        _fit_target(directive, values, threshold, feature_table, sequential, config.train, report_only)
        for directive, (values, _, threshold) in zip(config.targets, target_values)
    ]

    # --- artifacts: every stage has run, so a run that fails writes nothing
    output_dir = config.output_dir
    ingest.make_output_dir(output_dir)
    if correlation is not None:
        feats.write_correlation_csv(correlation, output_dir / "correlation.csv")
    time_column = _time_column(config.encodings, analysis)
    times = None if time_column is None else analysis.values(time_column)
    target_meta = [
        _write_target(directive, values, histogram_report, times, fit, output_dir)
        for directive, (values, histogram_report, _), fit in zip(config.targets, target_values, fits)
    ]
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
        analysis=analysis,
        feature_table=feature_table,
        correlation=correlation,
        targets={directive.name: result for directive, (result, _) in zip(config.targets, fits)},
        output_dir=output_dir,
    )


def _fit_target(
    directive: TargetDirective,
    values: list[float],
    threshold: float | None,
    feature_table: Table,
    sequential: feats.TimeEncodingSpec | None,
    train_settings: TrainSettings,
    report_only: bool,
) -> tuple[TargetResult, dict | None]:
    """The target's result and its holdout evaluation, if it has a holdout."""
    if report_only:
        return TargetResult(threshold, 0, None, None, [], None), None
    labeled, grey_deleted = targeting.apply_grey_region(
        feature_table, values, threshold, directive.grey_half_width, directive.direction
    )

    seed = derive_seed(train_settings.split_seed, directive.name)
    held_out = _holdout_mask(len(labeled), train_settings.test_fraction, seed)
    train_set = labeled.filter_rows([not h for h in held_out]) if any(held_out) else labeled
    tree = train(train_set, train_settings)
    evaluation = None
    if any(held_out):
        report = evaluate(tree, labeled.filter_rows(held_out))
        evaluation = {**asdict(report), "precision": report.precision, "recall": report.recall}

    rules = extract_rules(tree)
    report_text = render_report(rules, sequential)
    return TargetResult(threshold, grey_deleted, labeled, tree, rules, report_text), evaluation


def _write_target(
    directive: TargetDirective,
    values: list[float],
    histogram_report: targeting.HistogramReport,
    times: list[datetime] | None,
    fit: tuple[TargetResult, dict | None],
    output_dir: Path,
) -> dict:
    """Write the target's artifacts and return its manifest entry."""
    result, evaluation = fit
    name = directive.name
    artifacts = {"histogram": f"{name}_histogram.csv"}
    targeting.write_histogram_csv(histogram_report, output_dir / artifacts["histogram"])
    if times is not None:
        artifacts["series"] = f"{name}_over_time.csv"
        series = targeting.yield_series(times, values)
        targeting.write_series_csv(series, output_dir / artifacts["series"])
    if result.tree is not None:
        artifacts.update(rules=f"{name}_rules.txt", tree=f"{name}_tree.json")
        ingest.write_text(result.report_text, output_dir / artifacts["rules"])
        write_json(result.tree.to_dict(), output_dir / artifacts["tree"])
    labeled = result.labeled
    return {
        "name": name, "source": directive.source_column, "strategy": directive.strategy.value,
        "direction": directive.direction.value, "threshold": result.threshold,
        "grey_half_width": directive.grey_half_width, "grey_deleted": result.grey_deleted,
        "labeled": None if labeled is None else {"rows": len(labeled), "positive": labeled.positives},
        "evaluation": evaluation, "rules": len(result.rules), "artifacts": artifacts,
    }
