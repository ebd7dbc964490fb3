"""yieldtree: rejection-cause rule mining for multi-granularity fab data.

The pieces, in pipeline order: model (keyed per-level tables), ingest (CSV
plus case-dropping screens), lift (granularity changes), features (time
encodings, correlation screen), target (binary class engineering), induce
(tree induction and rule extraction), synthfab (deterministic generator
with planted causes), pipeline/cli (orchestration).
"""

from .errors import (
    AnalysisError,
    DataError,
    EmptyDatasetError,
    NoValleyError,
    ParseError,
    SchemaError,
    UsageError,
    YieldTreeError,
)
from .features import (
    CorrelationReport,
    TimeEncodingSpec,
    TimeMode,
    correlation_table,
    decode_sequential,
    encode_cyclical,
    encode_sequential,
    flag_correlated,
    order_from_batch_id,
)
from .induce import (
    Condition,
    DecisionTree,
    EvalReport,
    Rule,
    SplitTest,
    TrainConfig,
    TreeNode,
    evaluate,
    extract_rules,
    predict,
    render_report,
    train,
)
from .ingest import (
    TableSchema,
    apply_sensor_limits,
    drop_missing,
    load_dataset,
    load_table,
    read_dataset,
    table_schema,
    write_dataset,
    write_table,
)
from .lift import (
    Direction,
    RejectionRule,
    broadcast_down,
    lift_reject_rate,
    lift_stats,
)
from .model import (
    MISSING,
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    LabeledDataset,
    Row,
    Table,
    ValidationReport,
    group_by_ancestor,
    join_tables,
    validate_hierarchy,
)
from .pipeline import VERSION as __version__
from .pipeline import PipelineConfig, RunResult, config_from_dict, load_config, run_pipeline
from .synthfab import (
    CyclicEffect,
    FabScenario,
    GroundTruthEntry,
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
from .target import (
    HistogramReport,
    TargetSpec,
    ThresholdStrategy,
    apply_grey_region,
    histogram,
    label_by_threshold,
    threshold_median,
    threshold_valley,
    yield_series,
)
