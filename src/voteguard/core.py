"""Shared domain types (datasets, classification metrics) and value checks.

Labels are dense integer codes in [0, n_classes). A dataset may carry a
side mapping of class names (e.g. "benign"/"malware") for display only;
all computation happens on the integer codes. Unlabeled samples (unknown
workloads) carry the sentinel ``UNLABELED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

UNLABELED = -1


def is_int(value) -> bool:
    """Whether ``value`` is a Python int; a bool or a numpy integer is not."""
    return type(value) is int


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite Python int or float, not a bool."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:                    # an int past float's range
        return False


def check_names(names, what: str) -> None:
    """Raise ValueError, calling the names ``what``, unless they are unique
    strings, none empty or with surrounding whitespace (a CSV cell reads
    back stripped), and none holding a tab or a line break (``predict``
    prints one name per tab-separated cell and one sample per line). Pass
    distinct values where repeats are allowed."""
    names = list(names)
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must be strings, got {name!r}")
        if not name or name != name.strip():
            raise ValueError(f"{what} must be non-empty and without "
                             f"surrounding whitespace, got {name!r}")
        if "\t" in name or name.splitlines() != [name]:
            raise ValueError(f"{what} must hold no tab or line break, "
                             f"got {name!r}")
    if len(set(names)) < len(names):
        raise ValueError(f"{what} must be unique, got {names}")


@dataclass(frozen=True)
class Dataset:
    """Samples: features, labels, app identities.

    ``x`` has at least one column and is kept C- or F-contiguous as it is
    given, any other layout as a C-contiguous copy; ``ensemble.fit``
    stores its standardized copy F-contiguous for the trees. No result
    depends on the layout. ``y`` uses ``UNLABELED`` (-1) for samples
    without a label. Class names and distinct app ids keep
    :func:`check_names`' rule. Instances are immutable after construction.
    """

    x: np.ndarray                      # (n, d) float64
    y: np.ndarray                      # (n,) int64, UNLABELED where missing
    app_ids: tuple[str, ...]
    n_classes: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if not (x.flags.c_contiguous or x.flags.f_contiguous):
            x = np.ascontiguousarray(x)
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[1] == 0:
            raise ValueError(f"features must be 2-D with at least one "
                             f"column, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("labels and features disagree on sample count")
        if len(self.app_ids) != x.shape[0]:
            raise ValueError("app_ids and features disagree on sample count")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        labeled = y[y != UNLABELED]
        if labeled.size and (labeled.min() < 0 or labeled.max() >= self.n_classes):
            raise ValueError(f"labels out of range [0, {self.n_classes})")
        check_names(dict.fromkeys(self.app_ids), "app_ids")
        check_names(self.class_names or (), "class_names")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ValueError("class_names length must equal n_classes")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def column_order(self) -> np.ndarray:
        """``(d, n)``: row f lists the sample indices sorted stably by
        feature f. Computed on first use and kept, so every tree fitted
        on this dataset shares one sort. Read-only."""
        order = np.argsort(self.x.T, axis=1, kind="stable")
        order.flags.writeable = False
        return order

    @cached_property
    def tie_free(self) -> np.ndarray:
        """``(d,)`` bools: entry f is true when no two samples have equal
        values of feature f (-0.0 equals 0.0). Such a column has no ties in
        any subset of the samples either, so a split search may take every
        boundary between its sorted values without comparing them. Found
        once from :attr:`column_order` and kept. Read-only."""
        # one take per row: a quarter of the time of take_along_axis
        ranked = map(np.take, self.x.T, self.column_order)
        tie_free = np.array([(v[1:] != v[:-1]).all() for v in ranked],
                            dtype=bool)
        tie_free.flags.writeable = False
        return tie_free

    @property
    def fully_labeled(self) -> bool:
        return bool(np.all(self.y != UNLABELED))


@dataclass(frozen=True)
class ClassificationMetrics:
    """Confusion counts and derived ratios for one positive class.

    Zero-denominator convention: precision/recall are 0 when undefined,
    and f1 is 0 when precision + recall is 0, so sweep reports never
    contain NaNs.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    accuracy: float


def compute_metrics(predicted: Sequence[int], truth: Sequence[int],
                    positive_class: int) -> ClassificationMetrics:
    """Confusion counts of ``predicted`` vs ``truth``, one-vs-rest on
    ``positive_class``. Accuracy is exact label agreement (multiclass-safe)."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.size == 0:
        raise ValueError("cannot compute metrics on empty input")
    if pred.shape != true.shape:
        raise ValueError(
            f"length mismatch: {pred.size} predictions vs {true.size} truths")

    pred_pos = pred == positive_class
    true_pos = true == positive_class
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    return metrics_from_counts(tp, fp, fn, pred.size,
                               int(np.sum(pred == true)))


def metrics_from_counts(tp: int, fp: int, fn: int, n: int,
                        correct: int) -> ClassificationMetrics:
    """The metrics of ``n`` > 0 predictions with the given one-vs-rest
    counts, ``correct`` of them equal to the truth; tn is the rest. A
    ratio of Python ints is the correctly rounded float, bit for bit what
    ``np.mean`` of a bool array gives."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return ClassificationMetrics(tp=tp, fp=fp, tn=n - tp - fp - fn, fn=fn,
                                 precision=precision, recall=recall,
                                 f1=f1, accuracy=correct / n)
