"""Deterministic synthetic-fab generator with planted rejection causes.

Causes are planted at the wafer-rejection-probability level and site values
are synthesized to agree with the k-of-n rejection rule exactly, so the
rejection-rate lift provably can recover the signal. Every batch draws from
its own substream seeded by (seed, batch index); generation is therefore
independent of scheduling and reproducible bit-for-bit.

Each effect class is the one definition of its effect: JSON type name,
fields (read from JSON by their declared types), checks, when it is active,
and the rule evidence it should leave. A new effect type is one such class
plus one entry in PlantedEffect.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, repeat
from typing import Any, ClassVar, Sequence, Union, get_args

from .errors import UsageError
from .features import DEFAULT_EPOCH
from .ingest import array, choice, format_timestamp, instance, read_tagged
from .lift import RejectionRule
from .model import (
    Column,
    ColumnKind,
    EntityKey,
    GranularityLevel,
    HierarchicalDataset,
    Table,
)
from .rng import PortableRandom, derive_seed

DEFAULT_MACHINES = 4
DEFAULT_OPERATORS = 5
DEFAULT_SUPPLIERS = 3


@dataclass(frozen=True)
class MachineDefect:
    """One of n parallel machines raises the wafer rejection probability."""

    type_name: ClassVar[str] = "machine_defect"

    n_machines: int
    bad_machine_id: int
    delta_p: float

    def __post_init__(self) -> None:
        if self.n_machines < 1 or not 0 <= self.bad_machine_id < self.n_machines:
            raise UsageError("bad_machine_id must be in [0, n_machines)")

    def active(self, timestamp: datetime, machine: str, supplier: str, start: datetime) -> bool:
        return machine == str(self.bad_machine_id)

    def evidence(self) -> tuple[str, Any]:
        return "machine", str(self.bad_machine_id)


@dataclass(frozen=True)
class SupplierImpurity:
    """Raw material from one supplier raises the rejection probability."""

    type_name: ClassVar[str] = "supplier_impurity"

    n_suppliers: int
    bad_supplier_id: int
    delta_p: float

    def __post_init__(self) -> None:
        if self.n_suppliers < 1 or not 0 <= self.bad_supplier_id < self.n_suppliers:
            raise UsageError("bad_supplier_id must be in [0, n_suppliers)")

    def active(self, timestamp: datetime, machine: str, supplier: str, start: datetime) -> bool:
        return supplier == str(self.bad_supplier_id)

    def evidence(self) -> tuple[str, Any]:
        return "supplier", str(self.bad_supplier_id)


@dataclass(frozen=True)
class ShiftEffect:
    """Batches started during the night shift suffer; hours wrap midnight.

    The night is [night_start_hour, night_end_hour) modulo 24.
    """

    type_name: ClassVar[str] = "shift_effect"

    night_start_hour: int
    night_end_hour: int
    delta_p: float

    def __post_init__(self) -> None:
        for hour in (self.night_start_hour, self.night_end_hour):
            if not 0 <= hour < 24:
                raise UsageError("shift hours must be in [0, 24)")
        if self.night_start_hour == self.night_end_hour:
            raise UsageError("night shift must not be empty")

    def night_hours(self) -> tuple[int, ...]:
        start, end = self.night_start_hour, self.night_end_hour
        return tuple((start + i) % 24 for i in range((end - start) % 24))

    def active(self, timestamp: datetime, machine: str, supplier: str, start: datetime) -> bool:
        return timestamp.hour in self.night_hours()

    def evidence(self) -> tuple[str, Any]:
        return "hour_of_day", self.night_hours()


@dataclass(frozen=True)
class StepChange:
    """A one-off event: batches started at or after at_time suffer."""

    type_name: ClassVar[str] = "step_change"

    at_time: datetime
    delta_p: float

    def active(self, timestamp: datetime, machine: str, supplier: str, start: datetime) -> bool:
        return timestamp >= self.at_time

    def evidence(self) -> tuple[str, Any]:
        return "minutes_from_epoch", ((self.at_time - DEFAULT_EPOCH) // timedelta(minutes=1), None)


@dataclass(frozen=True)
class CyclicEffect:
    """Periodic degradation: active during the positive half of a sine wave
    of the given period, phased from the scenario start time."""

    type_name: ClassVar[str] = "cyclic_effect"

    period_hours: float
    delta_p: float

    def __post_init__(self) -> None:
        if self.period_hours <= 0:
            raise UsageError("period_hours must be positive")

    def active(self, timestamp: datetime, machine: str, supplier: str, start: datetime) -> bool:
        phase = (timestamp - start) / timedelta(hours=self.period_hours)
        return math.sin(2.0 * math.pi * phase) >= 0.0

    def evidence(self) -> tuple[str, Any]:
        return "minutes_from_epoch", f"period={self.period_hours}h"


PlantedEffect = Union[MachineDefect, SupplierImpurity, ShiftEffect, StepChange, CyclicEffect]


@dataclass(frozen=True)
class FabScenario:
    """Seeded recipe for one synthetic dataset, with queryable ground truth."""

    seed: int
    n_batches: int
    wafers_per_batch: int = 24
    sites_per_wafer: int = 5
    ics_per_wafer: int = 0
    base_reject_prob: float = 0.05
    start_time: datetime = datetime(1990, 1, 1, 8, 0)
    batch_interval_minutes: int = 90
    site_parameter: str = "x"
    site_threshold: float = 10.0
    rule_min_count: int = 2
    effects: tuple[PlantedEffect, ...] = ()

    def __post_init__(self) -> None:
        if self.n_batches < 1 or self.wafers_per_batch < 1 or self.sites_per_wafer < 1:
            raise UsageError("batch, wafer and site counts must be >= 1")
        if self.ics_per_wafer < 0:
            raise UsageError("ics_per_wafer must be >= 0")
        if not 0.0 <= self.base_reject_prob <= 1.0:
            raise UsageError("base_reject_prob must be in [0, 1]")
        if self.batch_interval_minutes < 1:
            raise UsageError("batch_interval_minutes must be >= 1")
        if not 1 <= self.rule_min_count <= self.sites_per_wafer:
            raise UsageError("rule_min_count must be in [1, sites_per_wafer]")
        object.__setattr__(self, "effects", tuple(self.effects))
        ceiling = 1.0 - self.base_reject_prob
        for effect in self.effects:
            if not 0.0 <= effect.delta_p <= ceiling:
                raise UsageError(f"{type(effect).__name__}.delta_p must be in [0, {ceiling}]")

    @property
    def n_machines(self) -> int:
        for effect in self.effects:
            if isinstance(effect, MachineDefect):
                return effect.n_machines
        return DEFAULT_MACHINES

    @property
    def n_suppliers(self) -> int:
        for effect in self.effects:
            if isinstance(effect, SupplierImpurity):
                return effect.n_suppliers
        return DEFAULT_SUPPLIERS

    def rejection_rule(self) -> RejectionRule:
        """The k-of-n site rule wafer rejection is planted against."""
        return RejectionRule(self.site_parameter, self.site_threshold, self.rule_min_count)

    def batch_start(self, index: int) -> datetime:
        return self.start_time + timedelta(minutes=index * self.batch_interval_minutes)


def _reject_probability(scenario: FabScenario, timestamp: datetime, machine: str, supplier: str) -> float:
    p = scenario.base_reject_prob
    for effect in scenario.effects:
        if effect.active(timestamp, machine, supplier, scenario.start_time):
            p += effect.delta_p
    return min(p, 1.0)


def _zero_padded(count: int, minimum_width: int) -> list[str]:
    """The ids 0 .. count - 1, zero-padded to one common width."""
    width = max(minimum_width, len(str(count - 1)))
    return [f"{index:0{width}d}" for index in range(count)]


BATCH_COLUMNS = (
    Column("timestamp", ColumnKind.TIMESTAMP),
    Column("machine", ColumnKind.CATEGORICAL),
    Column("operator", ColumnKind.CATEGORICAL),
    Column("supplier", ColumnKind.CATEGORICAL),
    Column("oven_temp", ColumnKind.NUMERIC, units="C", sensor_limits=(300.0, 400.0)),
    Column("humidity", ColumnKind.NUMERIC, units="percent"),  # inert control column
    Column("yield", ColumnKind.NUMERIC, units="percent"),
)
WAFER_COLUMNS = (Column("rejected", ColumnKind.NUMERIC),)


def _site_columns(scenario: FabScenario) -> tuple[Column, ...]:
    return (Column(scenario.site_parameter, ColumnKind.NUMERIC),)


IC_COLUMNS = (Column("ic_x", ColumnKind.NUMERIC),)


def generate(scenario: FabScenario) -> HierarchicalDataset:
    """Generate batch/wafer/site (and optionally IC) tables.

    Per wafer, the rejection flag is drawn with the batch's planted
    probability and the site values are synthesized so the scenario's
    k-of-n rule fires exactly for rejected wafers.
    """
    t = scenario.site_threshold
    k = scenario.rule_min_count
    sites = scenario.sites_per_wafer

    # each level's cells: row by row for the batch table, the one column of
    # every other table. The loops only draw numbers: a level's key fields are
    # the combinations of its ids, made after them, and each row's ids are
    # checked once, one level at a time in row order, and the key dropped.
    batch_cells, wafer_rejected, site_values, ic_values = [], [], [], []
    for b in range(scenario.n_batches):
        rng = PortableRandom(derive_seed(scenario.seed, b))
        timestamp = scenario.batch_start(b)
        machine = str(rng.randint(0, scenario.n_machines - 1))
        operator = str(rng.randint(0, DEFAULT_OPERATORS - 1))
        supplier = str(rng.randint(0, scenario.n_suppliers - 1))
        oven_temp = rng.normal(350.0, 5.0)
        humidity = rng.uniform(30.0, 60.0)
        p = _reject_probability(scenario, timestamp, machine, supplier)

        accepted = 0
        for _ in range(scenario.wafers_per_batch):
            rejected = rng.random() < p
            if not rejected:
                accepted += 1
            wafer_rejected.append(1.0 if rejected else 0.0)

            # how many sites exceed the threshold: >= k iff rejected
            exceed_count = rng.randint(k, sites) if rejected else rng.randint(0, k - 1)
            exceeding = set(rng.shuffled(range(sites))[:exceed_count])
            for s in range(sites):
                if s in exceeding:
                    site_values.append(rng.uniform(t + 0.5, t + 5.0))
                else:
                    site_values.append(rng.uniform(t - 8.0, t - 0.5))

            for _ in range(scenario.ics_per_wafer):
                ic_values.append(rng.uniform(0.0, 1.0))

        batch_yield = 100 * accepted / scenario.wafers_per_batch
        batch_cells.append((timestamp, machine, operator, supplier, oven_temp, humidity, batch_yield))

    # a Table keeps a tuple as it is: each list is freed before the next is copied
    wafer_rejected = tuple(wafer_rejected)
    site_values = tuple(site_values)
    ic_values = tuple(ic_values)
    batch_ids = _zero_padded(scenario.n_batches, 4)
    wafer_ids = _zero_padded(scenario.wafers_per_batch, 2)
    site_ids = _zero_padded(sites, 1)
    ic_ids = _zero_padded(scenario.ics_per_wafer, 3)
    tables = {
        GranularityLevel.BATCH: (BATCH_COLUMNS, _combinations(batch_ids), zip(*batch_cells)),
        GranularityLevel.WAFER: (WAFER_COLUMNS, _combinations(batch_ids, wafer_ids), [wafer_rejected]),
        GranularityLevel.SITE: (
            _site_columns(scenario), _combinations(batch_ids, wafer_ids, site_ids), [site_values]
        ),
    }
    if ic_ids:  # no IC table when the scenario has no ICs
        ic_sites = [site_ids[i % sites] for i in range(len(ic_ids))]
        ic_fields = _combinations(batch_ids, wafer_ids, ic_sites) + [tuple(ic_ids) * len(wafer_rejected)]
        tables[GranularityLevel.IC] = (IC_COLUMNS, ic_fields, [ic_values])
    for _, fields, _ in tables.values():
        deque(map(EntityKey.from_ids, zip(*fields)), maxlen=0)
    return HierarchicalDataset({level: Table.from_columns(level, *parts) for level, parts in tables.items()})


def _combinations(*ids: Sequence[str]) -> list[tuple[str, ...]]:
    """The key fields of every combination of the ids, one per sequence, in
    the order of nested loops over them: the rows of a generated table."""
    fields, outer, inner = [], 1, math.prod(map(len, ids))
    for level_ids in ids:
        inner //= len(level_ids)
        fields.append(tuple(chain.from_iterable(map(repeat, level_ids, repeat(inner)))) * outer)
        outer *= len(level_ids)
    return fields


@dataclass(frozen=True)
class GroundTruthEntry:
    """What a planted effect should show up as in recovered rules."""

    effect: PlantedEffect
    feature: str
    value: Any


def ground_truth(scenario: FabScenario) -> list[GroundTruthEntry]:
    """Map each planted effect to the feature and value(s) implicating it."""
    return [GroundTruthEntry(effect, *effect.evidence()) for effect in scenario.effects]


def planted_labels(scenario: FabScenario, dataset: HierarchicalDataset) -> list[int]:
    """Per batch row, 1 iff any planted effect was active for that batch.

    This is the generator-side truth used to judge recovered rules on fresh
    data.
    """
    batch = dataset.table(GranularityLevel.BATCH)
    return [
        int(any(effect.active(*cells, scenario.start_time) for effect in scenario.effects))
        for cells in zip(*map(batch.values, ("timestamp", "machine", "supplier")))
    ]


_EFFECTS = {
    effect.type_name: instance(effect, f"{effect.type_name} effect")
    for effect in get_args(PlantedEffect)
}


def _effect_from_dict(doc: Any) -> PlantedEffect:
    read, fields = read_tagged(doc, "effect", "type", choice(_EFFECTS))
    return read(fields)


# Reads a scenario from its JSON form (timestamps as format strings).
scenario_from_dict = instance(FabScenario, "scenario", effects=array(_effect_from_dict))


def scenario_to_dict(scenario: FabScenario) -> dict:
    """Inverse of scenario_from_dict, for echoing scenarios to disk."""
    doc = _json_fields(scenario)
    doc["effects"] = [{"type": e.type_name, **_json_fields(e)} for e in scenario.effects]
    return doc


def _json_fields(obj: Any) -> dict[str, Any]:
    return {
        name: format_timestamp(value) if isinstance(value, datetime) else value
        for name, value in vars(obj).items()
    }
