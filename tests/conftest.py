"""Shared builders for tests."""

from __future__ import annotations

import random
import tracemalloc

from yieldtree.model import (
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    Row,
    Table,
)
from yieldtree.synthfab import FabScenario, generate

BATCH = GranularityLevel.BATCH
WAFER = GranularityLevel.WAFER
SITE = GranularityLevel.SITE
IC = GranularityLevel.IC


def batch_key(b: str) -> EntityKey:
    return EntityKey(BATCH, b)


def wafer_key(b: str, w: str) -> EntityKey:
    return EntityKey(WAFER, b, w)


def site_key(b: str, w: str, s: str) -> EntityKey:
    return EntityKey(SITE, b, w, s)


def numeric_table(level, column_name, entries, **column_kwargs) -> Table:
    """Table with one numeric column; entries are (key, value) pairs."""
    column = Column(column_name, ColumnKind.NUMERIC, **column_kwargs)
    rows = tuple(Row(key, (value,)) for key, value in entries)
    return Table(level, (column,), rows)


def build_hierarchy(site_values: dict[str, dict[str, list[float]]], parameter: str = "x") -> HierarchicalDataset:
    """Dataset from nested {batch: {wafer: [site values]}}."""
    batch_rows = []
    wafer_rows = []
    site_rows = []
    for b in sorted(site_values):
        batch_rows.append(Row(batch_key(b), ()))
        for w in sorted(site_values[b]):
            wafer_rows.append(Row(wafer_key(b, w), ()))
            for i, value in enumerate(site_values[b][w]):
                site_rows.append(Row(site_key(b, w, f"s{i}"), (value,)))
    return HierarchicalDataset(
        {
            BATCH: Table(BATCH, (), tuple(batch_rows)),
            WAFER: Table(WAFER, (), tuple(wafer_rows)),
            SITE: Table(
                SITE, (Column(parameter, ColumnKind.NUMERIC),), tuple(site_rows)
            ),
        }
    )


def random_hierarchy(rng: random.Random, max_batches=5, max_wafers=6, max_sites=5):
    """Random ragged {batch: {wafer: [values]}} nest plus the dataset."""
    nest: dict[str, dict[str, list[float]]] = {}
    for b in range(rng.randint(1, max_batches)):
        wafers: dict[str, list[float]] = {}
        for w in range(rng.randint(1, max_wafers)):
            wafers[f"w{w}"] = [
                round(rng.uniform(0.0, 20.0), 3) for _ in range(rng.randint(1, max_sites))
            ]
        nest[f"b{b}"] = wafers
    return nest, build_hierarchy(nest)


def traced_peak_share(step) -> float:
    """Peak memory traced while step(dataset) runs, above the size it starts
    from, as a share of the traced size of the dataset: the synthetic seed-3,
    100-batch fab, whose keys ascend at every level."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = generate(FabScenario(seed=3, n_batches=100))
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - size) / (size - before)
