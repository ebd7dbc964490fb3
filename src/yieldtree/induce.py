"""Binary classification-tree induction and rule extraction.

Greedy recursive partitioning on Gini impurity decrease. Candidate
enumeration and tie-breaking are fully ordered (schema column order, then
ascending threshold / lexicographic category), so identical input yields a
byte-identical tree no matter how the search is scheduled.

The split search follows SLIQ (Mehta, Agrawal & Rissanen, 1996) and SPRINT
(Shafer, Agrawal & Mehta, 1996): `train` sorts the row indices once per
numeric column, with a stable sort on the value, and each split partitions
every sorted list into the two children in order. A stable partition of a
stable sort of range(n) is the stable sort of the child's rows, which are in
ascending index order, so rows with equal values still scan in row order and
candidate order, tie-breaks and every float expression are those of sorting
each node's rows afresh.

`DecisionTree.leaves`, `tested_columns` and `extract_rules` read one tree walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterator, Mapping, Sequence

from .errors import DataError, UsageError
from .features import SEQUENTIAL_COLUMN, TimeEncodingSpec, decode_sequential
from .ingest import format_timestamp
from .lift import midpoint
from .model import MISSING, Column, ColumnKind, LabeledDataset


@dataclass(frozen=True)
class SplitTest:
    """Numeric: value <= threshold. Categorical: value == category."""

    column: str
    threshold: float | None = None
    category: str | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.category is None):
            raise UsageError("split test needs exactly one of threshold or category")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise UsageError("split threshold must be finite")

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None

    def passes(self, value: Any) -> bool:
        if self.is_numeric:
            return value <= self.threshold
        return value == self.category


@dataclass(frozen=True)
class TrainConfig:
    max_depth: int = 5
    min_leaf: int = 5
    min_gain: float = 1e-6

    def __post_init__(self) -> None:
        # train, to_dict and write_json recurse per level: 512 stays under the recursion limit
        if not 1 <= self.max_depth <= 512:
            raise UsageError(f"max_depth must be 1 to 512, got {self.max_depth}")
        if self.min_leaf < 0 or self.min_gain < 0:
            raise UsageError("min_leaf and min_gain must be >= 0")


@dataclass(frozen=True)
class TreeNode:
    """Internal node (test set, both children present) or leaf (test None)."""

    counts: tuple[int, int]  # (class 0, class 1) training rows here
    depth: int
    test: SplitTest | None = None
    true_child: "TreeNode | None" = None
    false_child: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.test is None

    @property
    def predicted_class(self) -> int:
        # tie predicts the non-target class
        return 1 if self.counts[1] > self.counts[0] else 0


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    config: TrainConfig
    feature_columns: tuple[Column, ...]

    def _walk(self) -> Iterator[tuple[TreeNode, tuple[Condition, ...]]]:
        """Every node and the conditions on its path, depth-first, true branch first."""
        stack: list[tuple[TreeNode, tuple[Condition, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            yield node, path
            if not node.is_leaf:
                stack.append((node.false_child, path + (Condition(node.test, True),)))
                stack.append((node.true_child, path + (Condition(node.test, False),)))

    def leaves(self) -> list[TreeNode]:
        return [node for node, _ in self._walk() if node.is_leaf]

    def tested_columns(self) -> set[str]:
        return {node.test.column for node, _ in self._walk() if not node.is_leaf}

    def to_dict(self) -> dict:
        return {
            "config": {
                "max_depth": self.config.max_depth,
                "min_leaf": self.config.min_leaf,
                "min_gain": self.config.min_gain,
            },
            "columns": [
                {"name": c.name, "kind": c.kind.name.lower()} for c in self.feature_columns
            ],
            "root": _encode_node(self.root),
        }


def _encode_node(node: TreeNode) -> dict:
    doc: dict[str, Any] = {"counts": list(node.counts), "depth": node.depth}
    if node.is_leaf:
        doc["leaf"] = True
        doc["class"] = node.predicted_class
    else:
        doc["leaf"] = False
        doc["test"] = {
            "column": node.test.column,
            "op": "le" if node.test.is_numeric else "eq",
            "value": node.test.threshold if node.test.is_numeric else node.test.category,
        }
        doc["true"] = _encode_node(node.true_child)
        doc["false"] = _encode_node(node.false_child)
    return doc


def _gini(n0: int, n1: int) -> float:
    n = n0 + n1
    p1 = n1 / n
    p0 = n0 / n
    return 1.0 - p0 * p0 - p1 * p1


def _best_split(
    columns: Sequence[Column],
    column_values: Mapping[str, list[Any]],
    rows: Sequence[int],
    n1: int,
    sorted_rows: Mapping[str, list[int]],
    labels: Sequence[int],
    min_leaf: int,
) -> tuple[float, SplitTest] | None:
    """Highest-gain candidate in canonical order; ties keep the first.

    Candidate order is schema column order, then ascending threshold for
    numeric columns and lexicographic category for categorical ones. A
    numeric column is scanned through sorted_rows, the node's rows in
    ascending value order with ties in ascending row index. n1 is the
    node's count of class-1 rows.
    """
    n = len(rows)
    parent = _gini(n - n1, n1)
    floor = max(min_leaf, 1)  # an empty child is never a meaningful split
    last = n - floor

    # (gain, column, (left, right) values | category); one SplitTest, built at the end
    best: tuple[float, Column | None, Any] = (-math.inf, None, None)

    for column in columns:
        values = column_values[column.name]
        if column.kind is ColumnKind.NUMERIC:
            left_n1 = 0
            left_value = None
            # position = rows left of the candidate cut; floor >= 1 skips the first row
            for position, i in enumerate(sorted_rows[column.name]):
                right_value = values[i]
                if floor <= position <= last and left_value != right_value:
                    right_n = n - position
                    right_n1 = n1 - left_n1
                    children = (position / n) * _gini(position - left_n1, left_n1) + (
                        right_n / n
                    ) * _gini(right_n - right_n1, right_n1)
                    gain = parent - children
                    if gain > best[0]:
                        best = (gain, column, (left_value, right_value))
                left_n1 += labels[i]
                left_value = right_value
        else:
            tallies: dict[str, list[int]] = {}
            for i in rows:
                tally = tallies.setdefault(values[i], [0, 0])
                tally[labels[i]] += 1
            if len(tallies) < 2:
                continue
            for category in sorted(tallies):
                left_n0, left_n1 = tallies[category]
                left_n = left_n0 + left_n1
                right_n = n - left_n
                if left_n < floor or right_n < floor:
                    continue
                right_n1 = n1 - left_n1
                children = (left_n / n) * _gini(left_n0, left_n1) + (
                    right_n / n
                ) * _gini(right_n - right_n1, right_n1)
                gain = parent - children
                if gain > best[0]:
                    best = (gain, column, category)

    gain, column, value = best
    if column is None:
        return None
    if column.kind is ColumnKind.NUMERIC:
        return gain, SplitTest(column.name, threshold=midpoint(*value))
    return gain, SplitTest(column.name, category=value)


def _partition(order: list[int], flags: bytearray) -> tuple[list[int], list[int]]:
    """Flagged and unflagged rows of order, each in order's sequence."""
    return [i for i in order if flags[i]], [i for i in order if not flags[i]]


def train(data: LabeledDataset, config: TrainConfig = TrainConfig()) -> DecisionTree:
    """Grow a binary classification tree by greedy Gini partitioning.

    Numeric and categorical columns of the feature table participate;
    identifier and timestamp columns are ignored (encode timestamps first).
    Feature cells must be complete: screens run upstream.
    """
    if not len(data):
        raise UsageError("cannot train on an empty dataset")
    columns = tuple(
        c
        for c in data.features.columns
        if c.kind in (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL)
    )
    column_values = {column.name: data.features.values(column.name) for column in columns}
    for name, values in column_values.items():
        if MISSING in values:
            raise DataError(
                f"missing cell in column {name!r} at row {values.index(MISSING)}; "
                "run the screens before training"
            )
    labels = data.labels
    all_rows = list(range(len(labels)))
    # the one sort per numeric column: stable, so equal values keep row order
    root_sorted = {
        c.name: sorted(all_rows, key=column_values[c.name].__getitem__)
        for c in columns
        if c.kind is ColumnKind.NUMERIC
    }
    shared = (columns, column_values, labels, bytearray(len(labels)), config)
    return DecisionTree(_build(all_rows, root_sorted, 0, *shared), config, columns)


def _build(
    rows: list[int],
    sorted_rows: dict[str, list[int]],
    depth: int,
    columns: Sequence[Column],
    column_values: Mapping[str, list[Any]],
    labels: Sequence[int],
    flags: bytearray,
    config: TrainConfig,
) -> TreeNode:
    """The subtree over rows. The arguments after depth are train's, shared by
    every node; flags holds the split outcome of each row of the node being split."""
    n1 = sum(labels[i] for i in rows)
    counts = (len(rows) - n1, n1)
    if n1 in (0, len(rows)) or depth >= config.max_depth or len(rows) < 2 * config.min_leaf:
        return TreeNode(counts, depth)
    found = _best_split(columns, column_values, rows, n1, sorted_rows, labels, config.min_leaf)
    if found is None or found[0] < config.min_gain:
        return TreeNode(counts, depth)
    gain, test = found
    values = column_values[test.column]
    for i in rows:
        flags[i] = test.passes(values[i])
    true_rows, false_rows = _partition(rows, flags)
    true_sorted: dict[str, list[int]] = {}
    false_sorted: dict[str, list[int]] = {}
    for name, order in sorted_rows.items():
        true_sorted[name], false_sorted[name] = _partition(order, flags)
    # the children own their slices now; freeing this node's keeps the lists
    # alive along the recursion path disjoint, at most n rows per column
    sorted_rows.clear()
    shared = (columns, column_values, labels, flags, config)
    return TreeNode(
        counts,
        depth,
        test,
        _build(true_rows, true_sorted, depth + 1, *shared),
        _build(false_rows, false_sorted, depth + 1, *shared),
    )


def predict(tree: DecisionTree, row: Mapping[str, Any]) -> int:
    """Route one row (column name -> value) to a leaf and return its class."""
    node = tree.root
    while not node.is_leaf:
        if node.test.column not in row:
            raise DataError(f"row lacks tested column {node.test.column!r}")
        value = row[node.test.column]
        if value is MISSING:
            raise DataError(f"tested cell {node.test.column!r} is missing")
        node = node.true_child if node.test.passes(value) else node.false_child
    return node.predicted_class


@dataclass(frozen=True)
class Condition:
    """One step of a root-to-leaf path; negated means the false branch."""

    test: SplitTest
    negated: bool = False

    def describe(self) -> str:
        value = _format_value(
            self.test.threshold if self.test.is_numeric else self.test.category
        )
        if self.test.is_numeric:
            op = ">" if self.negated else "<="
        else:
            op = "!=" if self.negated else "="
        return f"{self.test.column} {op} {value}"


@dataclass(frozen=True)
class Rule:
    """Conjunctive path to a class-1 leaf, with its training evidence."""

    conditions: tuple[Condition, ...]
    support: int
    confidence: float


def extract_rules(tree: DecisionTree) -> list[Rule]:
    """One rule per class-1 leaf, ordered by descending confidence then
    descending support."""
    rules = [
        Rule(path, sum(node.counts), node.counts[1] / sum(node.counts))
        for node, path in tree._walk()
        if node.is_leaf and node.predicted_class == 1
    ]
    rules.sort(key=lambda r: (-r.confidence, -r.support))
    return rules


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def _render_condition(condition: Condition, sequential: TimeEncodingSpec | None) -> str:
    test = condition.test
    if sequential is not None and test.is_numeric and test.column == SEQUENTIAL_COLUMN:
        moment = decode_sequential(math.floor(test.threshold), sequential)
        op = ">" if condition.negated else "<="
        return f"time {op} {format_timestamp(moment)}"
    return condition.describe()


def render_report(rules: Sequence[Rule], sequential: TimeEncodingSpec | None = None) -> str:
    """Plain-text report, one line per rule.

    Conditions on the minutes_from_epoch column are decoded back to calendar
    timestamps when a sequential encoding spec is supplied.
    """
    if not rules:
        return "No rules found: no leaf predicts the target class.\n"
    lines = []
    for rule in rules:
        if rule.conditions:
            body = " AND ".join(_render_condition(c, sequential) for c in rule.conditions)
        else:
            body = "always"
        lines.append(
            f"IF {body} THEN reject [support {rule.support}, confidence {rule.confidence:.2f}]"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts and class-1 precision/recall (None when undefined)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float | None:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else None

    @property
    def recall(self) -> float | None:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else None


def evaluate(tree: DecisionTree, holdout: LabeledDataset) -> EvalReport:
    """Confusion counts of the tree's predictions on a labeled holdout."""
    features = holdout.features
    rows = zip(*features.cells) if features.cells else repeat(())
    outcomes = Counter(
        (predict(tree, dict(zip(features.column_names, row))), label)
        for row, label in zip(rows, holdout.labels)
    )
    return EvalReport(tp=outcomes[1, 1], fp=outcomes[1, 0], tn=outcomes[0, 0], fn=outcomes[0, 1])
