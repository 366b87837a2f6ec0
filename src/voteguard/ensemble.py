"""Bagging, vote-frequency posteriors, entropy, and threshold rejection.

An ensemble of M base classifiers is trained on bootstrap replicates of
the (standardized) training data. At prediction time the dispersion of
the per-learner decisions, summarized as the entropy of the vote
distribution, estimates how much the ensemble actually knows about the
input. Entropy measures disagreement, not distance, so the model also keeps
a box around the standardized training data. A prediction is rejected when
its entropy exceeds a threshold or its input lies outside that box.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, is_int
from .learners import (LearnerConfig, TrainedLearner, TreeLearner,
                       check_features, train)

HARD_VOTE = "hard_vote"
SOFT_AVERAGE = "soft_average"
# Standardized values are clamped to +-_Z_MAX, the square root of a quarter
# of float max, so that a linear member's dot product with weights summing
# in magnitude to at most _Z_MAX cannot overflow.
_Z_MAX = 2.0 ** 511


@dataclass(frozen=True)
class EnsembleConfig:
    # the field order is the key order of a model file's config
    m: int = 25
    master_seed: int = 0
    posterior_mode: str = HARD_VOTE
    entropy_log_base: float = 2.0        # 2.0 or math.e
    base: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self):
        if not (is_int(self.m) and self.m >= 1):
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not (is_int(self.master_seed) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be an integer >= 0, "
                             f"got {self.master_seed!r}")
        if self.posterior_mode not in (HARD_VOTE, SOFT_AVERAGE):
            raise ValueError(f"posterior_mode must be {HARD_VOTE!r} or "
                             f"{SOFT_AVERAGE!r}, got {self.posterior_mode!r}")
        if self.entropy_log_base not in (2.0, math.e):
            raise ValueError("entropy_log_base must be 2 or e")


@dataclass(frozen=True)
class Standardizer:
    """Per-feature training mean and standard deviation, shared by all
    ensemble members. Zero-variance features keep sigma = 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        """Raises ValueError when a feature's values are finite but so large
        that their mean or standard deviation overflows."""
        # the reductions sum in an order set by the memory layout, so they
        # always run over C order: the same values give the same bits
        x = np.ascontiguousarray(x)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            std = x.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise ValueError(f"feature {bad[0]} is too large to standardize: "
                             f"its mean or standard deviation overflows")
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    @functools.cached_property
    def _safe_bound(self) -> float:
        """No ``|z|`` reaches ``_Z_MAX`` where every ``|x_j|`` is at most
        this, for then ``|x_j - mean_j| <= _Z_MAX / 2 * min(std_j, 1)``."""
        room = _Z_MAX / 2.0 * np.minimum(self.std, 1.0) - np.abs(self.mean)
        return float(room.min())

    def transform(self, x: np.ndarray) -> np.ndarray:
        """``(x - mean) / std`` for ``(d,)`` or ``(n, d)``, by one test and
        one formula for both. Raises ValueError on a non-finite value. A
        finite value whose ``|z|`` exceeds ``_Z_MAX`` (about 6.7e153),
        overflowing or not, gets ``z = +-_Z_MAX``, outside any training box."""
        bound = self._safe_bound
        # the one test on the common path, with no temporary array; NaN
        # fails every comparison, so a non-finite x fails it too
        if -bound <= x.min(initial=0.0) and x.max(initial=0.0) <= bound:
            return (x - self.mean) / self.std
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
        with np.errstate(over="ignore"):
            z = (x - self.mean) / self.std
        return np.clip(z, -_Z_MAX, _Z_MAX)


@dataclass(frozen=True)
class SupportBox:
    """Per-feature range of the standardized training data, widened on each
    side by max(half its span, 1). Votes on an input outside it may agree
    only because every member extrapolates its outermost split."""

    low: np.ndarray
    high: np.ndarray

    @classmethod
    def fit(cls, z: np.ndarray) -> "SupportBox":
        low, high = z.min(axis=0), z.max(axis=0)
        margin = np.maximum((high - low) / 2.0, 1.0)
        return cls(low=low - margin, high=high + margin)

    @functools.cached_property
    def _bounds(self) -> tuple[list[float], list[float]]:
        """``low`` and ``high`` as lists, for one sample's test."""
        return self.low.tolist(), self.high.tolist()

    def contains(self, z: np.ndarray):
        """Whether every feature of ``z`` (standardized) lies inside the
        box, over the last axis: a numpy bool for one sample ``(d,)`` and
        an ``(n,)`` array for a batch ``(n, d)``."""
        return ((z >= self.low) & (z <= self.high)).all(axis=-1)


def child_seeds(master_seed: int, index: int) -> tuple[int, int]:
    """Derive (bootstrap seed, learner seed) for ensemble member ``index``.

    Uses a SeedSequence keyed on (master_seed, index), so member ``index``
    is the same member in an ensemble of any size.
    """
    state = np.random.SeedSequence([master_seed, index]).generate_state(
        2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def bootstrap_indices(master_seed: int, index: int, n: int) -> np.ndarray:
    """Sample-with-replacement indices for member ``index``'s replicate."""
    boot_seed, _ = child_seeds(master_seed, index)
    return np.random.default_rng(boot_seed).integers(0, n, size=n)


@dataclass(frozen=True)
class Prediction:
    """One sample's prediction; for a batch of n rows each field holds an
    array with one row per sample."""

    vote_distribution: np.ndarray        # over n_classes, sums to 1
    per_learner_labels: tuple[int, ...] | np.ndarray
    entropy: float | np.ndarray
    label: int | np.ndarray
    support: bool | np.ndarray           # input inside the training box


@dataclass(frozen=True)
class Verdict:
    """One sample's prediction, and its label as accepted by :func:`gate`:
    the prediction's label, or None where :func:`rejected` holds."""

    prediction: Prediction
    label: int | None


@dataclass(frozen=True)
class EnsembleModel:
    learners: tuple[TrainedLearner, ...]
    standardizer: Standardizer
    config: EnsembleConfig
    n_classes: int
    support: SupportBox
    class_names: tuple[str, ...] | None = None

    @property
    def n_features(self) -> int:
        return self.standardizer.mean.shape[0]

    @functools.cached_property
    def _tree_walks(self):
        """Every member's node lists (``TreeLearner._walk``), in member
        order, if every member is a tree; else None."""
        if all(isinstance(l, TreeLearner) for l in self.learners):
            return tuple(l._walk for l in self.learners)
        return None


def fit(config: EnsembleConfig, data: Dataset) -> EnsembleModel:
    """Train M learners, one after another, on bootstrap replicates of the
    standardized data. A replicate is a draw of row indices into the one
    standardized dataset, so no member copies the data. That dataset is
    stored once, column-major, and trees share it and one presort of it.
    Every member's replicate and learner seed derive only from
    (master_seed, member index).

    Each member is one call of ``train(config, data, rows=None, seed=0, *,
    start=None)``, with no start until one linear member has been fitted
    by Newton, which takes a replicate that holds both classes; every
    later linear member's Newton loop starts from that member's optimum
    instead of zero weights, since bootstrap replicates' optima lie close
    together. Member i thus depends only on the data, master_seed, i and
    that earlier member, which every ensemble of more than i members
    holds alike.
    """
    if len(data) == 0:
        raise ValueError("cannot fit an ensemble on an empty dataset")
    if not data.fully_labeled:
        raise ValueError("training data contains unlabeled samples")

    standardizer = Standardizer.fit(data.x)
    # F order: each feature's values are contiguous for the trees
    scaled = replace(data, x=np.asfortranarray(standardizer.transform(data.x)))
    n = len(scaled)
    learners, start = [], None
    for i in range(config.m):
        _, learner_seed = child_seeds(config.master_seed, i)
        learner = train(config.base, scaled,
                        bootstrap_indices(config.master_seed, i, n),
                        learner_seed, start=start)
        # a one-class replicate's member has no Newton steps, and its bias
        # of +-1e300 is no start
        if start is None and getattr(learner, "loss_curve", ()):
            start = learner
        learners.append(learner)

    return EnsembleModel(learners=tuple(learners), standardizer=standardizer,
                         config=config, n_classes=data.n_classes,
                         class_names=data.class_names,
                         support=SupportBox.fit(scaled.x))


def entropy_of(dist, log_base: float = 2.0):
    """Shannon entropy of a probability vector ``(K,)`` (a float), or of
    each row of ``(n, K)`` (an array), with 0*log(0) = 0.

    The result is clamped to [0, log_base(K)] so downstream threshold
    comparisons never see negative-zero or rounding overshoot. ``log_base``
    must be 2 or e, as in :class:`EnsembleConfig`.
    """
    if log_base not in (2.0, math.e):
        raise ValueError(f"log_base must be 2 or e, got {log_base}")
    p = np.asarray(dist, dtype=np.float64)
    if (p < 0).any():
        raise ValueError("probability vector has a negative entry")
    total = p.sum(axis=-1)
    off = ~(abs(total - 1.0) <= 1e-6)     # a NaN sum is off too
    if off.any():
        raise ValueError(f"probability vector sums to {total[off].flat[0]}, not 1")
    log = np.log2 if log_base == 2.0 else np.log
    h = -(p * log(np.where(p > 0, p, 1.0))).sum(axis=-1)
    hmax = math.log(p.shape[-1], log_base)
    return np.minimum(np.maximum(h, 0.0), hmax) + 0.0   # +0.0 normalizes -0.0


@functools.lru_cache(maxsize=4096)
def _counted_posterior(counts: tuple[int, ...], m: int, log_base: float):
    """One sample's vote shares ``counts / m``, as a tuple, and their
    :func:`entropy_of`, as a Python float. Memoized per count vector, so a
    stream of gates pays for the checks and logarithms once per count
    vector; numpy sums the terms, as for a batch row, since a sum in
    Python could differ from that row in the last bit."""
    dist = np.array(counts) / m
    return tuple(dist.tolist()), float(entropy_of(dist, log_base))


def _predict_one(model: EnsembleModel, x: np.ndarray) -> Prediction:
    """:func:`gate`'s prediction for one checked sample ``(d,)`` on a model
    whose members are all trees, in Python types, equal bit for bit to the
    sample's row of a batch. The votes come from one loop over every
    member's node lists, with no call to a member. Its d values are summed,
    counted and compared in Python, cheaper than numpy for so few."""
    std = model.standardizer
    # NaN fails the test; transform raises on it and on +-inf, and clamps
    z = ((x - std.mean) / std.std if sum(map(abs, x.tolist())) <=
         std._safe_bound else std.transform(x))
    v, walks = z.tolist(), model._tree_walks
    leaves, labels = [], []
    for feature, threshold, left, right, node_label, _ in walks:
        i = 0
        while feature[i] >= 0:                   # LEAF, -1, marks a leaf
            i = left[i] if v[feature[i]] <= threshold[i] else right[i]
        leaves.append(i)
        labels.append(node_label[i])
    log_base = model.config.entropy_log_base
    if model.config.posterior_mode == HARD_VOTE:
        counts = [labels.count(c) for c in range(model.n_classes)]
        dist, h = _counted_posterior(tuple(counts), len(labels), log_base)
        # a new array, so a caller may write to it
        dist, label = np.array(dist), counts.index(max(counts))
    else:
        # each reached leaf's class shares, the (K,) row predict_proba
        # gives, averaged over an (M, K) array as a batch averages its
        # (M, n, K) one
        dist = np.mean([walk[5][i] for walk, i in zip(walks, leaves)],
                       axis=0)
        h, label = float(entropy_of(dist, log_base)), int(dist.argmax())
    low, high = model.support._bounds
    inside = all(map(operator.le, low, v)) and all(map(operator.le, v, high))
    return Prediction(vote_distribution=dist, per_learner_labels=tuple(labels),
                      entropy=h, label=label, support=inside)


def _predict_rows(model: EnsembleModel, x: np.ndarray) -> Prediction:
    """:func:`predict` for a checked sample ``(d,)`` or batch ``(n, d)``.
    One sample is a one-row batch, whose row comes back in Python types."""
    z = model.standardizer.transform(np.atleast_2d(x))
    votes = np.array([l.predict_label(z) for l in model.learners])
    (m, n), k = votes.shape, model.n_classes
    if model.config.posterior_mode == HARD_VOTE:
        # row i's votes land in bincount slots i*K .. i*K + K-1
        slots = votes + np.arange(0, n * k, k)
        counts = np.bincount(slots.ravel(), minlength=n * k).reshape(n, k)
        dist = counts / m
    else:
        dist = np.mean([l.predict_proba(z) for l in model.learners], axis=0)
    entropy = entropy_of(dist, model.config.entropy_log_base)
    label, support = dist.argmax(axis=1), model.support.contains(z)
    if x.ndim == 2:
        return Prediction(vote_distribution=dist, per_learner_labels=votes.T,
                          entropy=entropy, label=label, support=support)
    return Prediction(vote_distribution=dist[0],
                      per_learner_labels=tuple(votes[:, 0].tolist()),
                      entropy=float(entropy[0]), label=int(label[0]),
                      support=bool(support[0]))


def predict(model: EnsembleModel, x) -> Prediction:
    """Vote distribution, entropy, argmax label and training-box support
    for one sample ``(d,)``, or for each row of a batch ``(n, d)``; see
    :class:`Prediction`. The distribution is the vote shares under hard
    votes and the mean of the members' probabilities under soft averages;
    the entropy is :func:`entropy_of` of it in both modes."""
    # the standardizer checks finiteness
    return _predict_rows(model, check_features(x, model.n_features,
                                               finite=False))


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a finite number >= 0."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be a finite number >= 0, got {threshold}")


def rejected(pred: Prediction, threshold: float):
    """The gating rule, for one prediction (a bool) or a batch (a bool
    array): reject iff the entropy strictly exceeds ``threshold``, a finite
    number >= 0, or the input lies outside the training box."""
    check_threshold(threshold)
    if isinstance(pred.entropy, np.ndarray):
        return (pred.entropy > threshold) | np.logical_not(pred.support)
    # one prediction: a Python bool, with no numpy call for a float
    # threshold (bool() turns a numpy one's comparison into a Python bool)
    return bool(pred.entropy > threshold) or not pred.support


def gate(model: EnsembleModel, x, threshold: float) -> Verdict:
    """Accept the ensemble's label for one sample ``(d,)`` unless its
    entropy strictly exceeds ``threshold`` or it lies outside the training
    box. A batch ``(n, d)``, even of one row, raises ValueError. The
    prediction is :func:`predict`'s, bit for bit; on a model of trees it
    walks all of them in one loop, with no call to a member, and on any
    other model it is :func:`predict`'s one-row batch."""
    if np.ndim(x) != 1:
        raise ValueError(f"gate takes one sample of shape "
                         f"({model.n_features},), got shape {np.shape(x)}")
    # the standardizer checks finiteness
    x = check_features(x, model.n_features, finite=False)
    pred = (_predict_rows(model, x) if model._tree_walks is None
            else _predict_one(model, x))
    label = None if rejected(pred, threshold) else pred.label
    return Verdict(prediction=pred, label=label)
