"""Target-class engineering: thresholding a continuous yield-like variable
into a binary class and grey-region deletion. A per-problem target labels
the rates of `lift.lift_reject_rate` with `apply_grey_region`.

Equality at the threshold is always class 0; the grey region is the open
interval (t - delta, t + delta). A histogram whose value range is wider than
the largest float is a DataError. The histogram and series artifacts are
written by `ingest.write_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Sequence

from .errors import AnalysisError, DataError, EmptyDatasetError, NoValleyError, UsageError
from .ingest import format_timestamp, write_csv
from .lift import Direction, median, midpoint
from .model import MISSING, LabeledDataset, Table

DEFAULT_HISTOGRAM_BINS = 10


class ThresholdStrategy(str, Enum):
    FIXED = "fixed"
    MEDIAN = "median"
    VALLEY = "valley"


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for turning a continuous source column into a binary class."""

    source_column: str
    strategy: ThresholdStrategy = ThresholdStrategy.MEDIAN
    threshold: float | None = None  # fixed strategy
    bins: int | None = None  # valley strategy
    direction: Direction = Direction.BELOW
    grey_half_width: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy is ThresholdStrategy.FIXED:
            if self.threshold is None or not math.isfinite(self.threshold):
                raise UsageError("fixed strategy needs a finite threshold")
        elif self.threshold is not None:
            raise UsageError(
                f"{self.strategy.value} strategy reads no threshold (U); "
                "use the fixed strategy or drop it"
            )
        if self.strategy is ThresholdStrategy.VALLEY:
            if self.bins is None or self.bins < 3:
                raise UsageError("valley strategy needs bins >= 3")
        elif self.bins is not None:
            raise UsageError(
                f"{self.strategy.value} strategy reads no bins; use the valley strategy or drop it"
            )
        if self.grey_half_width < 0:
            raise UsageError("grey_half_width must be >= 0")

    def resolve_threshold(self, values: Sequence[float]) -> float:
        if self.strategy is ThresholdStrategy.FIXED:
            assert self.threshold is not None
            return self.threshold
        if self.strategy is ThresholdStrategy.MEDIAN:
            return threshold_median(values)
        assert self.bins is not None
        return threshold_valley(values, self.bins)


def label_by_threshold(
    values: Sequence[float], t: float, direction: Direction = Direction.BELOW
) -> list[int]:
    """Binary labels: 1 where the value lies strictly on the direction side of t."""
    if MISSING in values:
        raise DataError(
            f"target value at row {values.index(MISSING)} is missing; targets must be complete"
        )
    return list(map(int, map(direction.compare, values, repeat(t))))


def threshold_median(values: Sequence[float]) -> float:
    """Median threshold, balancing examples and counter-examples."""
    if len(values) < 2:
        raise AnalysisError("median threshold needs at least 2 values")
    return median(sorted(values))


@dataclass(frozen=True)
class HistogramReport:
    """Equal-width histogram; the last bin is right-inclusive."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def midpoint(self, bin_index: int) -> float:
        return midpoint(self.bin_edges[bin_index], self.bin_edges[bin_index + 1])


def histogram(values: Sequence[float], bins: int) -> HistogramReport:
    """Equal-width histogram over [min, max].

    A degenerate range (all values equal) is widened by 0.5 on each side, or
    by one ulp where 0.5 does not move it (values above 2**53), so lo < hi.
    """
    if not values:
        raise UsageError("histogram needs at least 1 value")
    if bins < 1:
        raise UsageError("histogram needs bins >= 1")
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
        if lo == hi:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if not math.isfinite(hi - lo):
        raise DataError(f"histogram range [{lo!r}, {hi!r}] is wider than the largest float")
    width = (hi - lo) / bins
    counts = [0] * bins
    for value in values:  # value == hi lands in the last bin
        counts[min(int((value - lo) / (hi - lo) * bins), bins - 1)] += 1
    edges = tuple(lo + i * width for i in range(bins)) + (hi,)
    return HistogramReport(edges, tuple(counts))


def _interior_valleys(counts: Sequence[int]) -> list[int]:
    """Bins strictly below their nearest non-equal neighbor on both sides."""
    valleys = []
    for i in range(len(counts)):
        left = next((counts[j] for j in range(i - 1, -1, -1) if counts[j] != counts[i]), None)
        right = next((counts[j] for j in range(i + 1, len(counts)) if counts[j] != counts[i]), None)
        if left is not None and right is not None and counts[i] < left and counts[i] < right:
            valleys.append(i)
    return valleys


def threshold_valley(values: Sequence[float], bins: int) -> float:
    """Threshold at the midpoint of the deepest (leftmost on ties) histogram
    valley; raises NoValleyError when the histogram has none."""
    if bins < 3:
        raise UsageError("valley detection needs bins >= 3")
    if len(set(values)) < 2:
        raise NoValleyError("valley detection needs at least 2 distinct values")
    report = histogram(values, bins)
    valleys = _interior_valleys(report.counts)
    if not valleys:
        raise NoValleyError(
            f"histogram with {bins} bins has no interior valley; "
            "choose a fixed or median threshold instead"
        )
    chosen = min(valleys, key=lambda i: (report.counts[i], i))
    return report.midpoint(chosen)


def yield_series(
    times: Sequence[datetime], values: Sequence[float]
) -> list[tuple[datetime, float]]:
    """(time, value) pairs sorted ascending by time; ties keep input order.

    Pairs with a missing time or value are left out.
    """
    if len(times) != len(values):
        raise UsageError("values do not align with times")
    series = [
        (t, v)
        for t, v in zip(times, values)
        if t is not MISSING and v is not MISSING
    ]
    series.sort(key=lambda pair: pair[0])  # stable: ties keep input order
    return series


def apply_grey_region(
    features: Table,
    values: Sequence[float],
    t: float,
    delta: float,
    direction: Direction = Direction.BELOW,
) -> tuple[LabeledDataset, int]:
    """Delete rows whose value lies in the open interval (t - delta, t + delta),
    then label the remainder by threshold.

    Raises EmptyDatasetError when the deletion leaves no row, or removes
    every row of a class the values had: a tree cannot learn a class it
    never sees.
    """
    if delta < 0:
        raise UsageError("grey half-width must be >= 0")
    if len(values) != len(features):
        raise UsageError("values do not align with feature rows")
    labeled = LabeledDataset(features, tuple(label_by_threshold(values, t, direction)))
    kept = labeled.filter_rows([not (t - delta < v < t + delta) for v in values])
    grey = f"grey region ({t - delta}, {t + delta})"
    if not kept.labels:
        raise EmptyDatasetError(f"{grey} deleted every row")
    lost = set(labeled.labels) - set(kept.labels)
    if lost:
        raise EmptyDatasetError(f"{grey} deleted every class-{lost.pop()} row")
    return kept, len(labeled) - len(kept)


def write_histogram_csv(report: HistogramReport, path: str | Path) -> None:
    """Export as CSV with columns bin_lo, bin_hi, count."""
    edges = list(map(repr, report.bin_edges))
    write_csv(path, ["bin_lo", "bin_hi", "count"], zip(edges, edges[1:], report.counts))


def write_series_csv(series: Sequence[tuple[datetime, float]], path: str | Path) -> None:
    """Export a (time, value) series as CSV with columns time, value."""
    write_csv(path, ["time", "value"], ((format_timestamp(t), repr(float(v))) for t, v in series))
