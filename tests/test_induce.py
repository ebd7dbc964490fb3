import json
import random

import pytest

from conftest import BATCH, batch_key
from oracles import gini_oracle, split_candidates_oracle
from yieldtree.errors import DataError, UsageError
from yieldtree.features import TimeEncodingSpec, TimeMode
from yieldtree.ingest import write_json
from yieldtree.induce import (
    Condition,
    Rule,
    SplitTest,
    TrainConfig,
    evaluate,
    extract_rules,
    predict,
    render_report,
    train,
)
from yieldtree.model import (
    MISSING,
    Column,
    ColumnKind,
    LabeledDataset,
    Row,
    Table,
)


def make_dataset(columns, rows, labels):
    """columns: (name, kind) pairs; rows: cell tuples."""
    cols = tuple(Column(n, k) for n, k in columns)
    table = Table(
        BATCH, cols, tuple(Row(batch_key(f"b{i:03d}"), cells) for i, cells in enumerate(rows))
    )
    return LabeledDataset(table, tuple(labels))


NUM = ColumnKind.NUMERIC
CAT = ColumnKind.CATEGORICAL

LOOSE = TrainConfig(max_depth=5, min_leaf=1, min_gain=0.0)


def numeric_dataset(values, labels):
    return make_dataset([("x", NUM)], [(v,) for v in values], labels)


class TestTrain:
    def test_pure_root_is_single_leaf(self):
        tree = train(numeric_dataset([1.0, 2.0, 3.0], [0, 0, 0]), LOOSE)
        assert tree.root.is_leaf and tree.root.predicted_class == 0

    def test_worked_example_splits_at_5_5(self):
        # oracle: candidates {1.5, 5.5, 9.5}; 5.5 uniquely zeroes child impurity
        data = numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1])
        candidates = split_candidates_oracle([("x", "numeric")], [{"x": v} for v in (1.0, 2.0, 9.0, 10.0)], [0, 0, 1, 1])
        best = max(candidates, key=lambda c: c[0])
        assert (float(best[0]), best[2]) == (0.5, 5.5)
        tree = train(data, LOOSE)
        assert tree.root.test == SplitTest("x", threshold=5.5)
        assert tree.root.true_child.is_leaf and tree.root.true_child.predicted_class == 0
        assert tree.root.false_child.is_leaf and tree.root.false_child.predicted_class == 1

    def test_perfect_categorical_separator_gives_depth_one(self):
        data = make_dataset(
            [("machine", CAT)],
            [("3",), ("1",), ("3",), ("2",)],
            [1, 0, 1, 0],
        )
        tree = train(data, LOOSE)
        assert tree.root.test == SplitTest("machine", category="3")
        assert tree.root.true_child.is_leaf and tree.root.false_child.is_leaf

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            train(make_dataset([("x", NUM)], [], []), LOOSE)

    def test_first_missing_cell_named_in_schema_then_row_order(self):
        rows = [(1.0, "a"), (2.0, MISSING), (MISSING, "b"), (MISSING, MISSING)]
        data = make_dataset([("x", NUM), ("c", CAT)], rows, [0, 1, 0, 1])
        with pytest.raises(DataError, match="missing cell in column 'x' at row 2"):
            train(data, LOOSE)

    def test_missing_cell_rejected(self):
        with pytest.raises(DataError):
            train(numeric_dataset([1.0, MISSING], [0, 1]), LOOSE)

    def test_max_depth_one_yields_at_most_one_split(self):
        data = numeric_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
        tree = train(data, TrainConfig(max_depth=1, min_leaf=1, min_gain=0.0))
        assert tree.root.depth == 0
        if not tree.root.is_leaf:
            assert tree.root.true_child.is_leaf and tree.root.false_child.is_leaf

    def test_deepest_allowed_tree_trains_and_writes(self, tmp_path):
        """Alternating labels on distinct values split to the deepest allowed
        level; training, to_dict and write_json all recurse per level and
        must stay within the default recursion limit there."""
        data = numeric_dataset([float(i) for i in range(1200)], [i % 2 for i in range(1200)])
        tree = train(data, TrainConfig(max_depth=512, min_leaf=1, min_gain=0.0))
        assert max(leaf.depth for leaf in tree.leaves()) == 512
        write_json(tree.to_dict(), tmp_path / "tree.json")
        assert json.loads((tmp_path / "tree.json").read_text(encoding="utf-8")) == tree.to_dict()

    @pytest.mark.parametrize("depth", [0, 513])
    def test_max_depth_out_of_range_rejected(self, depth):
        with pytest.raises(UsageError, match=f"max_depth must be 1 to 512, got {depth}"):
            TrainConfig(max_depth=depth)

    def test_min_leaf_respected(self):
        data = numeric_dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 0, 0, 0])
        tree = train(data, TrainConfig(max_depth=3, min_leaf=2, min_gain=0.0))
        for leaf in tree.leaves():
            assert sum(leaf.counts) >= 2

    def test_pure_leaves_never_split(self):
        data = numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1])
        tree = train(data, LOOSE)
        for leaf in tree.leaves():
            assert 0 in leaf.counts

    def test_leaf_count_bound(self):
        rng = random.Random(13)
        values = [rng.uniform(0, 1) for _ in range(60)]
        labels = [rng.randint(0, 1) for _ in range(60)]
        config = TrainConfig(max_depth=10, min_leaf=5, min_gain=0.0)
        tree = train(numeric_dataset(values, labels), config)
        assert len(tree.leaves()) <= 60 / config.min_leaf + 1

    def test_tie_break_prefers_earlier_column(self):
        # two identical columns produce identical gains; schema order wins
        data = make_dataset(
            [("a", NUM), ("b", NUM)],
            [(1.0, 1.0), (2.0, 2.0), (9.0, 9.0), (10.0, 10.0)],
            [0, 0, 1, 1],
        )
        tree = train(data, LOOSE)
        assert tree.root.test.column == "a"

    def test_tie_break_prefers_smaller_threshold(self):
        # symmetric XOR-free data where 1.5 and 2.5 give equal gain
        data = numeric_dataset([1.0, 2.0, 3.0], [1, 0, 1])
        tree = train(data, LOOSE)
        assert tree.root.test.threshold == 1.5

    def test_midpoint_of_values_near_the_float_maximum_stays_finite(self):
        # (1e308 + 1.5e308) / 2 overflows to inf; halving each value first does not
        tree = train(numeric_dataset([1e308, 1.5e308], [0, 1]), LOOSE)
        assert tree.root.test == SplitTest("x", threshold=1e308 / 2 + 1.5e308 / 2)
        assert predict(tree, {"x": 1e308}) == 0 and predict(tree, {"x": 1.5e308}) == 1

    def test_deterministic_across_repeats(self):
        rng = random.Random(14)
        for _ in range(10):
            n = rng.randint(2, 30)
            data = make_dataset(
                [("x", NUM), ("m", CAT)],
                [(rng.choice([1.0, 2.0, 3.0, 4.0]), rng.choice("abc")) for _ in range(n)],
                [rng.randint(0, 1) for _ in range(n)],
            )
            first = train(data, LOOSE)
            second = train(data, LOOSE)
            assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
                second.to_dict(), sort_keys=True
            )


def gain_from_counts(node) -> float:
    """Recompute an internal node's achieved Gini gain from node counts alone."""
    n = sum(node.counts)
    parent = float(gini_oracle([0] * node.counts[0] + [1] * node.counts[1]))
    child_term = 0.0
    for child in (node.true_child, node.false_child):
        weight = sum(child.counts) / n
        child_term += weight * float(gini_oracle([0] * child.counts[0] + [1] * child.counts[1]))
    return parent - child_term


class TestSplitOracle:
    def test_root_split_matches_exhaustive_oracle(self):
        rng = random.Random(15)
        checked_splits = 0
        for _ in range(200):
            n_rows = rng.randint(1, 12)
            n_cols = rng.randint(1, 3)
            columns = []
            for c in range(n_cols):
                kind = rng.choice(["numeric", "categorical"])
                columns.append((f"c{c}", kind))
            rows = []
            for _ in range(n_rows):
                cells = []
                for name, kind in columns:
                    if kind == "numeric":
                        cells.append(float(rng.randint(0, 6)))
                    else:
                        cells.append(rng.choice("abcd"))
                rows.append(tuple(cells))
            labels = [rng.randint(0, 1) for _ in range(n_rows)]

            data = make_dataset(
                [(n, NUM if k == "numeric" else CAT) for n, k in columns], rows, labels
            )
            tree = train(data, TrainConfig(max_depth=1, min_leaf=1, min_gain=0.0))

            dict_rows = [dict(zip([n for n, _ in columns], cells)) for cells in rows]
            candidates = split_candidates_oracle(columns, dict_rows, labels)

            pure = sum(labels) in (0, len(labels))
            if pure or not candidates:
                assert tree.root.is_leaf
                continue

            checked_splits += 1
            oracle_max = max(c[0] for c in candidates)
            got = gain_from_counts(tree.root)
            assert got == pytest.approx(float(oracle_max), abs=1e-12)
            # the chosen split is one of the oracle's argmax candidates
            argmax = {
                (name, value)
                for gain, name, value in candidates
                if float(oracle_max - gain) < 1e-12
            }
            test = tree.root.test
            chosen = (test.column, test.threshold if test.is_numeric else test.category)
            assert chosen in argmax
        assert checked_splits >= 100

    def test_every_internal_node_of_deep_trees_matches_exhaustive_oracle(self):
        # Deep trees over heavily tied values: every node's split search runs
        # on the rows routed to it, so a child scanning rows that are not its
        # own shows up as wrong counts, a wrong gain or a non-argmax split.
        checked_nodes = deep_nodes = 0
        for columns, rows, labels, config in deep_tree_cases():
            n_rows = len(rows)
            data = make_dataset(
                [(n, NUM if k == "numeric" else CAT) for n, k in columns], rows, labels
            )
            tree = train(data, config)

            dict_rows = [dict(zip([n for n, _ in columns], cells)) for cells in rows]
            stack = [(tree.root, list(range(n_rows)))]
            while stack:
                node, routed = stack.pop()
                node_labels = [labels[i] for i in routed]
                assert node.counts == (len(routed) - sum(node_labels), sum(node_labels))
                if node.is_leaf:
                    continue
                node_rows = [dict_rows[i] for i in routed]
                candidates = [
                    (gain, name, value)
                    for gain, name, value in split_candidates_oracle(columns, node_rows, node_labels)
                    if config.min_leaf
                    <= left_size(columns, node_rows, name, value)
                    <= len(routed) - config.min_leaf
                ]
                oracle_max = max(c[0] for c in candidates)
                assert gain_from_counts(node) == pytest.approx(float(oracle_max), abs=1e-12)
                argmax = {
                    (name, value)
                    for gain, name, value in candidates
                    if float(oracle_max - gain) < 1e-12
                }
                test = node.test
                assert (test.column, test.threshold if test.is_numeric else test.category) in argmax
                checked_nodes += 1
                deep_nodes += node.depth >= 2
                passes = [test.passes(dict_rows[i][test.column]) for i in routed]
                stack.append((node.true_child, [i for i, p in zip(routed, passes) if p]))
                stack.append((node.false_child, [i for i, p in zip(routed, passes) if not p]))
        assert checked_nodes >= 1000 and deep_nodes >= 500


def deep_tree_cases():
    """The 200 (columns, rows, labels, config) cases of the deep-tree oracle
    test: heavily tied values, depth 4 to 6."""
    rng = random.Random(16)
    for _ in range(200):
        n_rows = rng.randint(10, 60)
        columns = [
            (f"c{c}", rng.choice(["numeric", "categorical"])) for c in range(rng.randint(2, 4))
        ]
        rows = [
            tuple(
                float(rng.randint(0, 5)) if kind == "numeric" else rng.choice("abcd")
                for _, kind in columns
            )
            for _ in range(n_rows)
        ]
        labels = [rng.randint(0, 1) for _ in range(n_rows)]
        config = TrainConfig(
            max_depth=rng.randint(4, 6), min_leaf=rng.randint(1, 3), min_gain=0.0
        )
        yield columns, rows, labels, config


def leaves_reference(node):
    """Leaves under node, true branch first, by plain recursion."""
    if node.is_leaf:
        return [node]
    return leaves_reference(node.true_child) + leaves_reference(node.false_child)


def reference_tested_columns(node):
    """Columns tested under node, by plain recursion."""
    if node.is_leaf:
        return set()
    return {node.test.column}.union(
        reference_tested_columns(node.true_child), reference_tested_columns(node.false_child)
    )


class TestTreeWalk:
    def test_leaves_and_tested_columns_match_recursion_on_deep_trees(self):
        for columns, rows, labels, config in deep_tree_cases():
            data = make_dataset(
                [(n, NUM if k == "numeric" else CAT) for n, k in columns], rows, labels
            )
            tree = train(data, config)
            assert list(map(id, tree.leaves())) == list(map(id, leaves_reference(tree.root)))
            assert tree.tested_columns() == reference_tested_columns(tree.root)


def left_size(columns, rows, name, value) -> int:
    """Rows an oracle candidate sends to its true side."""
    numeric = dict(columns)[name] == "numeric"
    return sum(1 for row in rows if (row[name] <= value if numeric else row[name] == value))


class TestPredict:
    def test_constant_tree(self):
        tree = train(numeric_dataset([1.0], [1]), LOOSE)
        assert predict(tree, {"x": 123.0}) == 1

    def test_boundary_goes_to_true_branch(self):
        tree = train(numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1]), LOOSE)
        assert predict(tree, {"x": 5.5}) == 0  # <= is inclusive

    def test_resubstitution_on_pure_tree(self):
        values = [1.0, 2.0, 9.0, 10.0]
        labels = [0, 0, 1, 1]
        data = numeric_dataset(values, labels)
        tree = train(data, LOOSE)
        table = data.features
        assert [predict(tree, table.row_mapping(row)) for row in table.rows] == labels

    def test_missing_tested_cell_is_error(self):
        tree = train(numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1]), LOOSE)
        with pytest.raises(DataError):
            predict(tree, {"x": MISSING})
        with pytest.raises(DataError):
            predict(tree, {"y": 1.0})


class TestExtractRules:
    def test_all_zero_tree_has_no_rules(self):
        tree = train(numeric_dataset([1.0, 2.0], [0, 0]), LOOSE)
        assert extract_rules(tree) == []

    def test_machine_equals_three_rule(self):
        data = make_dataset(
            [("machine", CAT)], [("3",), ("1",), ("3",), ("2",)], [1, 0, 1, 0]
        )
        rules = extract_rules(train(data, LOOSE))
        assert len(rules) == 1
        assert [c.describe() for c in rules[0].conditions] == ["machine = 3"]
        assert rules[0].support == 2 and rules[0].confidence == 1.0

    def test_false_branch_conditions_are_negated(self):
        data = make_dataset(
            [("machine", CAT), ("x", NUM)],
            [("3", 1.0), ("3", 2.0), ("1", 9.0), ("1", 1.0)],
            [0, 0, 1, 0],
        )
        tree = train(data, LOOSE)
        rules = extract_rules(tree)
        descriptions = [" AND ".join(c.describe() for c in r.conditions) for r in rules]
        assert any("machine != 3" in d or "x >" in d for d in descriptions)

    def test_rules_sorted_by_confidence_then_support(self):
        rng = random.Random(16)
        values = [float(rng.randint(0, 9)) for _ in range(80)]
        labels = [1 if v > 4 and rng.random() < 0.9 else rng.randint(0, 1) for v in values]
        tree = train(numeric_dataset(values, labels), TrainConfig(max_depth=4, min_leaf=3, min_gain=0.0))
        rules = extract_rules(tree)
        ranked = [(r.confidence, r.support) for r in rules]
        assert ranked == sorted(ranked, key=lambda p: (-p[0], -p[1]))


class TestRenderReport:
    def test_format_contract(self):
        rule = Rule(
            conditions=(Condition(SplitTest("machine", category="3")),),
            support=40,
            confidence=0.95,
        )
        text = render_report([rule])
        assert text == "IF machine = 3 THEN reject [support 40, confidence 0.95]\n"

    def test_minutes_from_epoch_decoded(self):
        spec = TimeEncodingSpec(TimeMode.SEQUENTIAL)
        rule = Rule(
            conditions=(Condition(SplitTest("minutes_from_epoch", threshold=1440.0)),),
            support=10,
            confidence=1.0,
        )
        text = render_report([rule], spec)
        assert "time <= 1990-01-02 00:00" in text

    def test_negated_time_condition(self):
        spec = TimeEncodingSpec(TimeMode.SEQUENTIAL)
        rule = Rule(
            conditions=(Condition(SplitTest("minutes_from_epoch", threshold=1440.5), negated=True),),
            support=10,
            confidence=1.0,
        )
        assert "time > 1990-01-02 00:00" in render_report([rule], spec)

    def test_empty_rule_list(self):
        assert "no rules found" in render_report([]).lower()

    def test_root_leaf_of_class_1_is_a_rule_with_no_conditions(self):
        tree = train(numeric_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1] * 6), LOOSE)
        assert tree.root.is_leaf
        expected = "IF always THEN reject [support 6, confidence 1.00]\n"
        assert render_report(extract_rules(tree)) == expected

    def test_deterministic(self):
        rules = [
            Rule((Condition(SplitTest("x", threshold=1.5)),), 7, 0.875),
            Rule((Condition(SplitTest("m", category="a"), negated=True),), 9, 0.75),
        ]
        assert render_report(rules) == render_report(rules)


class TestEvaluate:
    def test_degenerate_predictor_has_zero_recall(self):
        tree = train(numeric_dataset([1.0, 2.0], [0, 0]), LOOSE)
        holdout = numeric_dataset([1.0, 2.0, 3.0], [1, 1, 0])
        report = evaluate(tree, holdout)
        assert report.recall == 0.0 and report.precision is None

    def test_perfect_tree(self):
        data = numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1])
        tree = train(data, LOOSE)
        holdout = numeric_dataset([0.5, 3.0, 8.0, 12.0], [0, 0, 1, 1])
        report = evaluate(tree, holdout)
        assert report.precision == 1.0 and report.recall == 1.0

    def test_counts_conserved(self):
        rng = random.Random(17)
        data = numeric_dataset([rng.uniform(0, 1) for _ in range(30)], [rng.randint(0, 1) for _ in range(30)])
        tree = train(data, TrainConfig(max_depth=2, min_leaf=2))
        holdout = numeric_dataset([rng.uniform(0, 1) for _ in range(25)], [rng.randint(0, 1) for _ in range(25)])
        report = evaluate(tree, holdout)
        assert report.total == 25


class TestSerialization:
    def test_to_dict_spells_out_every_node(self):
        data = make_dataset(
            [("x", NUM), ("m", CAT)],
            [(1.0, "a"), (2.0, "b"), (9.0, "a"), (10.0, "b")],
            [0, 0, 1, 1],
        )
        tree = train(data, TrainConfig(max_depth=3, min_leaf=1, min_gain=0.0))
        assert json.loads(json.dumps(tree.to_dict())) == {
            "config": {"max_depth": 3, "min_leaf": 1, "min_gain": 0.0},
            "columns": [{"name": "x", "kind": "numeric"}, {"name": "m", "kind": "categorical"}],
            "root": {
                "counts": [2, 2], "depth": 0, "leaf": False,
                "test": {"column": "x", "op": "le", "value": 5.5},
                "true": {"counts": [2, 0], "depth": 1, "leaf": True, "class": 0},
                "false": {"counts": [0, 2], "depth": 1, "leaf": True, "class": 1},
            },
        }

    def test_byte_stable(self):
        data = numeric_dataset([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1])
        first = json.dumps(train(data, LOOSE).to_dict(), indent=2, sort_keys=True)
        second = json.dumps(train(data, LOOSE).to_dict(), indent=2, sort_keys=True)
        assert first == second
