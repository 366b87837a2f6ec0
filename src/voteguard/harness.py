"""Experiment harness: rejection-threshold sweeps, ensemble-size sweeps,
and plot-ready report emission (JSON or CSV).

Metric convention: rejected samples are excluded from both the precision
and the recall denominators, i.e. metrics are computed strictly over the
accepted known samples. Unknown-bucket samples never contribute to
metrics, only to rejection rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import ClassificationMetrics, Dataset, compute_metrics, is_int
from .data import DatasetTaxonomy, write_json
from .ensemble import EnsembleConfig, EnsembleModel, fit, predict, rejected
from .persist import log_base_tag

SWEEP_SCHEMA = "voteguard-threshold-sweep"
STABILITY_SCHEMA = "voteguard-stability-sweep"
SCHEMA_VERSION = 1

DEFAULT_GRID_POINTS = 50
# a sweep costs about 0.2 ms per point at paper scale, so this runs for
# seconds, not hours
MAX_GRID_POINTS = 10_000


def default_threshold_grid(n_classes: int, log_base: float = 2.0,
                           points: int = DEFAULT_GRID_POINTS) -> list[float]:
    """Evenly spaced thresholds over [0, log_base(n_classes)], both ends
    included, so ``points`` must be at least 2. It may be at most
    ``MAX_GRID_POINTS``."""
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"points must be at most {MAX_GRID_POINTS}, "
                         f"got {points}")
    top = math.log(n_classes, log_base)
    return [top * i / (points - 1) for i in range(points)]


@dataclass(frozen=True)
class EntropySummary:
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @classmethod
    def of(cls, values: np.ndarray) -> "EntropySummary":
        q = np.percentile(values, [0, 25, 50, 75, 100])
        return cls(*(float(v) for v in q))


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    known_rejection_rate: float
    unknown_rejection_rate: float | None
    metrics: ClassificationMetrics | None   # None when nothing was accepted
    metrics_degenerate: bool                # zero-denominator convention used


@dataclass(frozen=True)
class ThresholdSweepReport:
    points: tuple[SweepPoint, ...]
    baseline_metrics: ClassificationMetrics
    known_entropy: EntropySummary
    unknown_entropy: EntropySummary | None
    log_base: float


@dataclass(frozen=True)
class StabilityPoint:
    m: int
    mean_entropy: float
    std_entropy: float


@dataclass(frozen=True)
class StabilityReport:
    points: tuple[StabilityPoint, ...]
    log_base: float


def run_threshold_sweep(model: EnsembleModel, taxonomy: DatasetTaxonomy,
                        grid: list[float] | None = None,
                        positive_class: int = 1) -> ThresholdSweepReport:
    """Gate every known/unknown sample at each threshold in the grid.

    Records per-threshold rejection fractions and classification metrics
    over the accepted known samples. A sample is rejected iff its entropy
    strictly exceeds the threshold or it lies outside the model's training
    box (see :func:`voteguard.ensemble.rejected`).
    """
    if grid is None:
        grid = default_threshold_grid(model.n_classes,
                                      model.config.entropy_log_base)
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    if not 0 <= positive_class < model.n_classes:
        raise ValueError(f"positive_class must be in [0, {model.n_classes}), "
                         f"got {positive_class}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("threshold grid must be sorted ascending")
    test = taxonomy.test_known
    if len(test) == 0:
        raise ValueError("test_known bucket is empty")
    if not test.fully_labeled:
        raise ValueError("test_known samples must be labeled")

    known = predict(model, test.x)
    labels, truth = known.label, test.y
    unknown = None
    if taxonomy.unknown is not None and len(taxonomy.unknown) > 0:
        unknown = predict(model, taxonomy.unknown.x)

    baseline = compute_metrics(labels, truth, positive_class)
    points = []
    for tau in grid:
        accepted = ~rejected(known, tau)
        known_rej = float(np.mean(~accepted))
        unknown_rej = (float(np.mean(rejected(unknown, tau)))
                       if unknown is not None else None)
        if not np.any(accepted):
            metrics, degenerate = None, True
        else:
            metrics = compute_metrics(labels[accepted], truth[accepted],
                                      positive_class)
            degenerate = (metrics.tp + metrics.fp == 0
                          or metrics.tp + metrics.fn == 0)
        points.append(SweepPoint(threshold=float(tau),
                                 known_rejection_rate=known_rej,
                                 unknown_rejection_rate=unknown_rej,
                                 metrics=metrics,
                                 metrics_degenerate=degenerate))

    return ThresholdSweepReport(
        points=tuple(points),
        baseline_metrics=baseline,
        known_entropy=EntropySummary.of(known.entropy),
        unknown_entropy=(EntropySummary.of(unknown.entropy)
                         if unknown is not None else None),
        log_base=model.config.entropy_log_base,
    )


def run_stability_sweep(config: EnsembleConfig, data: Dataset,
                        eval_set: Dataset,
                        m_grid: list[int]) -> StabilityReport:
    """Summarize prediction entropy over a fixed evaluation set for the
    ensemble of each size M in ``m_grid``, one or more strictly increasing
    sizes >= 1 (same master seed and base config; ``config.m`` unused)."""
    if not (m_grid and all(map(is_int, m_grid)) and m_grid[0] >= 1
            and all(a < b for a, b in zip(m_grid, m_grid[1:]))):
        raise ValueError(f"m_grid must be one or more strictly increasing "
                         f"sizes >= 1, got {m_grid}")
    if len(eval_set) == 0:
        raise ValueError("evaluation set is empty")

    # member i depends only on (master_seed, i), so the first m members of
    # the largest ensemble are the ensemble of size m
    full = fit(replace(config, m=m_grid[-1]), data)
    points = []
    for m in m_grid:
        model = replace(full, learners=full.learners[:m],
                        config=replace(full.config, m=m))
        h = predict(model, eval_set.x).entropy
        points.append(StabilityPoint(m=m, mean_entropy=float(h.mean()),
                                     std_entropy=float(h.std())))
    return StabilityReport(points=tuple(points),
                           log_base=config.entropy_log_base)


# ---------------------------------------------------------------------------
# Report serialization (schemas documented in README)
# ---------------------------------------------------------------------------

def _rounded(value):
    """``value`` with every float in it, through dicts, lists and tuples,
    rounded to 6 significant digits, stable across runs; tuples become
    lists."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


_SCHEMAS = {ThresholdSweepReport: SWEEP_SCHEMA,
            StabilityReport: STABILITY_SCHEMA}


def report_to_dict(report) -> dict:
    """A report as its schema and version, then its dataclass fields with
    floats rounded, the log base stored as its tag."""
    schema = _SCHEMAS.get(type(report))
    if schema is None:
        raise TypeError(f"unknown report type {type(report).__name__}")
    return {"schema": schema, "version": SCHEMA_VERSION,
            **_rounded(asdict(report)),
            "log_base": log_base_tag(report.log_base)}


_SWEEP_CSV_COLUMNS = ("threshold", "known_rejection_rate",
                      "unknown_rejection_rate", "precision", "recall", "f1",
                      "accuracy", "tp", "fp", "tn", "fn", "metrics_degenerate")
_STABILITY_CSV_COLUMNS = ("m", "mean_entropy", "std_entropy")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def emit_report(report, path, fmt: str = "json") -> None:
    """Write a report with a stable field order and 6-significant-digit
    floats, so replays with identical inputs are byte-identical. A CSV
    row holds one point of :func:`report_to_dict`, its metrics flattened
    into it."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    doc = report_to_dict(report)
    if fmt == "json":
        return write_json(path, doc, sort_keys=True)

    columns = (_SWEEP_CSV_COLUMNS if doc["schema"] == SWEEP_SCHEMA
               else _STABILITY_CSV_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for point in doc["points"]:
            cells = {**point, **(point.get("metrics") or {})}
            writer.writerow([_fmt(cells.get(c)) for c in columns])
