"""Per-layer spans and counts for a traced run, installed from outside src/.

Each span wraps one public function of a yieldtree module. The wrapper is
bound under every name the function has in the loaded yieldtree modules,
because pipeline, lift and target bind some functions with `from ... import`
and patching only the defining module would miss those calls. A layer's
self time is its spans' durations minus the time of the spans they
enclose, so the self times of all spans under run_pipeline add up to it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _tree_counts(tree) -> tuple[int, int]:
    """Nodes of a trained tree, and rows x features over every node whose
    split search ran (the stopping tests of induce.train, replayed)."""
    config = tree.config
    n_features = len(tree.feature_columns)
    nodes = scanned = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        n0, n1 = node.counts
        n = n0 + n1
        if not (n1 in (0, n) or node.depth >= config.max_depth or n < 2 * config.min_leaf):
            scanned += n * n_features
        if not node.is_leaf:
            stack.extend((node.true_child, node.false_child))
    return nodes, scanned


def _count_train(counts, args, tree):
    nodes, scanned = _tree_counts(tree)
    counts["induce.nodes"] += nodes
    counts["induce.split_rows_scanned"] += scanned


def _dataset_rows(dataset) -> int:
    return sum(len(table) for table in dataset.tables.values())


# (function, metric its self time adds to, hook that adds counts from the
# arguments and the result)
SPANS = (
    ("synthfab.generate", "synthfab.generate_s",
     lambda c, a, r: c.update({"synthfab.rows_generated": _dataset_rows(r)})),
    ("ingest.load_dataset", "ingest.load_dataset_s",
     lambda c, a, r: c.update({"ingest.rows_parsed": _dataset_rows(r)})),
    ("ingest.drop_missing", "ingest.screen_s",
     lambda c, a, r: c.update({"ingest.rows_dropped": r[1]})),
    ("ingest.apply_sensor_limits", "ingest.screen_s",
     lambda c, a, r: c.update({"ingest.rows_dropped": len(a[0]) - len(r[0])})),
    ("model.validate_hierarchy", "model.validate_hierarchy_s", None),
    ("model.group_by_ancestor", "model.group_by_ancestor_s",
     lambda c, a, r: c.update({"model.group_calls": 1, "model.rows_grouped": len(a[0])})),
    ("model.join_tables", "model.join_tables_s", None),
    ("model.Table.__post_init__", "model.table_init_s", None),
    ("lift.lift_stats", "lift.lift_stats_s", None),
    ("lift.lift_reject_rate", "lift.lift_reject_rate_s",
     lambda c, a, r: c.update({"lift.reject_rate_calls": 1})),
    ("features.encode_cyclical", "features.encode_s", None),
    ("features.encode_sequential", "features.encode_s", None),
    ("features.order_from_batch_id", "features.encode_s", None),
    ("features.correlation_table", "features.correlation_s",
     lambda c, a, r: c.update(
         {"features.correlation_pairs": len(r.columns) * (len(r.columns) - 1) // 2})),
    ("features.flag_correlated", "features.correlation_s", None),
    ("target.histogram", "target.label_s", None),
    ("target.TargetSpec.resolve_threshold", "target.label_s", None),
    ("target.apply_grey_region", "target.label_s",
     lambda c, a, r: c.update({"target.rows_labeled": len(r[0]), "target.grey_deleted": r[1]})),
    ("induce.train", "induce.train_s", _count_train),
    ("induce.evaluate", "induce.evaluate_s", None),
    ("induce.extract_rules", "induce.report_s", None),
    ("induce.render_report", "induce.report_s", None),
    ("features.write_correlation_csv", "pipeline.write_s", None),
    ("target.write_histogram_csv", "pipeline.write_s", None),
    ("target.write_series_csv", "pipeline.write_s", None),
    ("pipeline.load_config", "pipeline.load_config_s", None),
    ("pipeline.run_pipeline", "pipeline.self_s", None),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)
TIME_METRICS = tuple(dict.fromkeys(metric for _, metric, _ in SPANS))
CALL_COUNTS = (
    "synthfab.rows_generated", "ingest.rows_parsed", "ingest.rows_dropped",
    "model.group_calls", "model.rows_grouped", "lift.reject_rate_calls",
    "features.correlation_pairs", "target.rows_labeled", "target.grey_deleted",
    "induce.nodes", "induce.split_rows_scanned",
)
OBJECT_COUNTS = ("model.entity_keys_built", "model.table_rows_built")


def _yieldtree_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "yieldtree" or name.startswith("yieldtree."))]


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.fired: set[str] = set()
        self._open: list[list[float]] = []  # child time of each open span

    def _wrap(self, name, metric, fn, hook):
        def span(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.self_s[metric] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed
                self.fired.add(name)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return span

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m for m in _yieldtree_modules()}
        for name, metric, hook in SPANS:
            module_name, _, attr = name.partition(".")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:  # a method: patching the class covers every caller
                owner = getattr(modules[module_name], owner_name)
                setattr(owner, method, self._wrap(name, metric, getattr(owner, method), hook))
                continue
            original = getattr(modules[module_name], attr)
            wrapped = self._wrap(name, metric, original, hook)
            for module in modules.values():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)

    def report(self) -> dict:
        return {
            "self_s": {metric: self.self_s.get(metric, 0.0) for metric in TIME_METRICS},
            "counts": {name: self.counts.get(name, 0) for name in CALL_COUNTS},
            "fired": sorted(self.fired),
        }


class ObjectCounter:
    """Counts every EntityKey built and every row of every Table built."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(OBJECT_COUNTS, 0)

    def install(self) -> None:
        from yieldtree.model import EntityKey, Table

        counts = self.counts
        key_check, table_check = EntityKey.__post_init__, Table.__post_init__

        def counted_key(key):
            counts["model.entity_keys_built"] += 1
            key_check(key)

        def counted_table(table):
            table_check(table)
            counts["model.table_rows_built"] += len(table.rows)

        EntityKey.__post_init__ = counted_key
        Table.__post_init__ = counted_table

    def report(self) -> dict:
        return {"counts": dict(self.counts)}
