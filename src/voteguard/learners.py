"""Base classifiers: CART decision tree, logistic regression, linear SVM.

All three train deterministically from (config, data, rows, seed), and
expose hard-label plus class-probability prediction. They are meant
to be bagged; see :mod:`voteguard.ensemble`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import UNLABELED, Dataset, is_finite_number, is_int

LEARNER_KINDS = ("tree", "logistic", "linear_svm")
FEATURE_SUBSAMPLES = ("all", "sqrt")


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    feature_subsample: str = "sqrt"      # one of FEATURE_SUBSAMPLES

    def __post_init__(self):
        if not (self.max_depth is None
                or is_int(self.max_depth) and self.max_depth >= 1):
            raise ValueError(f"max_depth must be an integer >= 1 or None, "
                             f"got {self.max_depth!r}")
        if not (is_int(self.min_samples_split)
                and self.min_samples_split >= 2):
            raise ValueError(f"min_samples_split must be an integer >= 2, "
                             f"got {self.min_samples_split!r}")
        if self.feature_subsample not in FEATURE_SUBSAMPLES:
            raise ValueError("feature_subsample must be 'all' or 'sqrt'")


@dataclass(frozen=True)
class GradientParams:
    max_iters: int = 1000
    tolerance: float = 1e-6
    l2: float = 1e-4

    def __post_init__(self):
        if not (is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        if not (is_finite_number(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be a finite number > 0, "
                             f"got {self.tolerance!r}")
        if not (is_finite_number(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be a finite number >= 0, "
                             f"got {self.l2!r}")


@dataclass(frozen=True)
class LearnerConfig:
    # the field order, here and in the parameter classes, is the key order
    # of a model file's config.base
    kind: str = "tree"
    tree: TreeParams = field(default_factory=TreeParams)
    gradient: GradientParams = field(default_factory=GradientParams)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"kind must be one of {LEARNER_KINDS}, "
                             f"got {self.kind!r}")


def check_features(x, n_features: int, finite: bool = True) -> np.ndarray:
    """``x`` as float64, one sample ``(d,)`` or a batch ``(n, d)``; raises
    ValueError on any other shape or, if ``finite``, a non-finite value.
    The result is C-contiguous: a linear member's ``np.vecdot`` sums in an
    order set by the layout, and the same values must give the same bits."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim not in (1, 2) or x.shape[-1] != n_features:
        raise ValueError(f"expected {n_features} features, got shape {x.shape}")
    if finite and not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    return x


class TrainedLearner:
    """Common surface of fitted base classifiers. Immutable; predict is a
    pure function of the stored parameters. Each kind implements the batch
    ``_labels(rows)`` and ``_proba(rows)``; one sample is a one-row batch.
    The class count is the model's, and no member holds its own."""

    n_features: int
    converged: bool
    seed_used: int

    def predict_label(self, x):
        """An int for one sample ``(d,)``, ``(n,)`` ints for ``(n, d)``."""
        x = check_features(x, self.n_features)
        if x.ndim == 1:
            return int(self._labels(x[None])[0])
        return np.asarray(self._labels(x), dtype=np.int64)

    def predict_proba(self, x) -> np.ndarray:
        """``(K,)`` for one sample ``(d,)``, ``(n, K)`` for ``(n, d)``."""
        x = check_features(x, self.n_features)
        if x.ndim == 1:
            return self._proba(x[None])[0]
        return self._proba(x)


# ---------------------------------------------------------------------------
# Decision tree (CART, Gini impurity)
# ---------------------------------------------------------------------------

class TreeNode(NamedTuple):
    # feature < 0 marks a leaf; counts are per-class training counts here
    feature: int
    threshold: float
    left: int
    right: int
    counts: tuple[float, ...]

LEAF = -1


def _gini(counts, n):
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def best_split(x, y, feature_indices, n_classes, orders=None,
               class_weights=None, total=None, found=None, tie_free=None):
    """Best (feature, threshold, gain) by Gini gain over midpoint candidates.

    ``orders`` is ``(d, m)``: ``orders[f]`` holds the m sample indices to
    search, the same m for every f, sorted stably by ``x[:, f]``. By
    default every sample of ``x`` is searched once and each column is
    sorted here. Ties break toward lower feature index, then lower
    threshold. Returns None when fewer than two samples are searched or no
    candidate yields positive gain.

    A caller that searches many subsets of one sample may pass
    ``class_weights`` instead of ``y``: a ``(K, n)`` array of whole numbers,
    in any numeric dtype, holding the number of times sample r counts in
    row ``y[r]`` and 0 in the others; its ``orders`` then list only
    samples of positive weight. ``total`` is the searched samples' K class
    counts, if known. If ``found`` is a list, the split found appends to
    it the number k of searched samples it sends left, which are
    ``orders[feature][:k]``, and their K class counts, as floats. If
    ``tie_free[f]`` is true, no two of the searched samples share a value
    of feature f (as :attr:`Dataset.tie_free` finds), and the search skips
    comparing them.
    """
    if orders is None:
        orders = np.argsort(x, axis=0, kind="stable").T
    if class_weights is None:
        class_weights = np.zeros((n_classes, y.shape[0]))
        class_weights[y, np.arange(y.shape[0])] = 1.0
    # fewer than two samples have no boundary, and none would make n = 0
    m = orders.shape[1]
    if m < 2:
        return None
    if total is None:
        total = class_weights.take(orders[0], axis=1).sum(axis=1,
                                                          dtype=np.float64)
    n = total.sum()
    parent = _gini(total, n)

    best = None
    best_gain = 0.0
    # work space that every feature reuses: the running class counts, then
    # four arrays of one value per boundary for _gini_gains
    sums = np.empty((len(class_weights), m))
    work = np.empty((4, m - 1))
    for f in feature_indices:
        order = orders[f]
        if tie_free is not None and tie_free[f]:
            # every value differs from the next: no gather, and a slice
            n_edges, boundaries = m - 1, slice(None, -1)
        else:
            # gathers along one column: x[:, f] is contiguous when x is
            # F-contiguous, as the standardized data that trees pass is
            sv = x[:, f].take(order)
            edges = sv[:-1] != sv[1:]
            n_edges = np.count_nonzero(edges)
            if n_edges == 0:
                continue
            # a slice, not a gather, when every value differs from the next
            boundaries = (slice(None, -1) if n_edges == m - 1
                          else np.flatnonzero(edges))
        # class counts up to each boundary: whole numbers, so the float
        # sums are exact whatever the weights' dtype
        left_counts = [np.cumsum(w.take(order), dtype=np.float64,
                                 out=s)[boundaries]
                       for w, s in zip(class_weights, sums)]
        gains = _gini_gains(parent, n, total, left_counts,
                            work[:, :n_edges])
        i = int(np.argmax(gains))          # first max -> lowest threshold
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            b = i if n_edges == m - 1 else int(boundaries[i])
            lo, hi = x[:, f].take(order[b:b + 2]).tolist()
            # the midpoint of two neighbouring floats may round up to hi,
            # and x <= hi would send hi left as well; a sum that overflows
            # (a Python float gives +-inf without a warning) leaves
            # [lo, hi]: split at lo instead
            mid = (lo + hi) / 2.0
            best = (int(f), mid if lo <= mid < hi else lo, best_gain)
            best_left = b + 1, [float(c[i]) for c in left_counts]
    if best is not None and found is not None:
        found.extend(best_left)
    return best


def _gini_gains(parent, n, total, left_counts, work):
    """The Gini gain at each boundary whose class counts on the left are
    ``left_counts``, out of ``total`` (n in all) at a node of impurity
    ``parent``, written into ``work``, four rows of one value per boundary.

    The gain is ``parent - (n_left / n) * gini_left - (n_right / n) *
    gini_right``, each impurity ``1 - sum((count / size) ** 2)`` summed in
    class order: the same operations on the same values, so every gain
    keeps its bits."""
    gains, n_right, gini, share = work
    n_left = np.add(left_counts[0], left_counts[1], out=gains)
    for c in left_counts[2:]:
        n_left += c
    np.subtract(n, n_left, out=n_right)
    # the first class's square is also 0 plus it, where Python's sum starts
    np.divide(left_counts[0], n_left, out=gini)
    gini *= gini
    for c in left_counts[1:]:
        np.divide(c, n_left, out=share)
        share *= share
        gini += share
    np.subtract(1.0, gini, out=gini)
    np.divide(n_left, n, out=gains)
    gains *= gini
    np.subtract(parent, gains, out=gains)
    np.subtract(total[0], left_counts[0], out=gini)
    gini /= n_right
    gini *= gini
    for t, c in zip(total[1:], left_counts[1:]):
        np.subtract(t, c, out=share)
        share /= n_right
        share *= share
        gini += share
    np.subtract(1.0, gini, out=gini)
    n_right /= n
    n_right *= gini
    gains -= n_right
    return gains


@dataclass(frozen=True)
class TreeLearner(TrainedLearner):
    nodes: tuple[TreeNode, ...]
    n_features: int
    seed_used: int
    converged: bool = True

    @functools.cached_property
    def _walk(self):
        """This tree as columns, built on first use: each node's feature,
        threshold, left and right child, argmax label (ties toward the
        lower class) and class shares, an ``(N, K)`` array. Its lists serve
        only ``ensemble._predict_one``, the package's one Python walk."""
        *columns, counts = zip(*self.nodes)
        counts = np.array(counts, dtype=np.float64)
        return (*columns, counts.argmax(axis=1).tolist(),
                counts / counts.sum(axis=1, keepdims=True))

    @functools.cached_property
    def _levels(self):
        """This tree as arrays for :meth:`_level_walk`, built on first use:
        each node's feature, threshold, left and right child and argmax
        label, where a leaf is its own child under threshold +inf, and
        the tree's depth."""
        feature, threshold, left, right, label, _ = self._walk
        leaf = np.array(feature) == LEAF
        me = np.arange(len(feature))
        depth = [0] * len(feature)
        for i, f in enumerate(feature):      # children come after parents
            if f != LEAF:
                depth[left[i]] = depth[right[i]] = depth[i] + 1
        return (np.where(leaf, 0, feature), np.where(leaf, np.inf, threshold),
                np.where(leaf, me, left), np.where(leaf, me, right),
                np.array(label), max(depth))

    def _level_walk(self, rows):
        """The leaf each row reaches, as an array: every row goes down one
        level per step, and a row at its leaf stays there."""
        feature, threshold, left, right, _, depth = self._levels
        flat = rows.ravel()
        base = np.arange(0, flat.size, rows.shape[1])
        node = np.zeros(len(rows), dtype=np.intp)
        for _ in range(depth):
            node = np.where(flat[base + feature[node]] <= threshold[node],
                            left[node], right[node])
        return node

    def _labels(self, rows):
        return self._levels[4][self._level_walk(rows)]

    def _proba(self, rows):
        return self._walk[5][self._level_walk(rows)]


def _train_tree(config: LearnerConfig, data: Dataset, rows,
                seed: int) -> TreeLearner:
    params = config.tree
    # fit's standardized features are column-major, so every gather reads
    # along one feature
    x, y = data.x, data.y
    n, d = x.shape
    rng = np.random.default_rng(seed)
    if params.feature_subsample == "sqrt":
        k = min(d, math.isqrt(d - 1) + 1)  # ceil(sqrt(d))
    else:
        k = d

    draws = np.bincount(rows, minlength=n)
    # each row's draw count in the narrowest dtype that holds the largest
    draws = draws.astype(np.min_scalar_type(draws.max()))
    drawn = draws > 0
    # one column per class, row r's draw count in its class's column and 0
    # in the others: a split search gathers from these small arrays
    class_weights = np.empty((data.n_classes, n), dtype=draws.dtype)
    for c, row in enumerate(class_weights):
        np.multiply(draws, y == c, out=row)
    presort, tie_free = data.column_order, data.tie_free
    # each feature's drawn rows, once each, in presorted order
    orders = np.compress(drawn.take(presort).ravel(), presort).reshape(d, -1)
    go_left = np.empty(n, dtype=bool)

    nodes = []                 # TreeNode fields in lists, to set children
    # stack entries: (per-feature sorted rows, class counts, depth, parent
    # node index, is_left_child)
    stack = [(orders, class_weights.sum(axis=1, dtype=np.float64), 0, None,
              False)]
    while stack:
        orders, counts, depth, parent, is_left = stack.pop()
        me = len(nodes)
        if parent is not None:
            nodes[parent][2 if is_left else 3] = me

        node = [LEAF, 0.0, LEAF, LEAF, tuple(counts.tolist())]
        nodes.append(node)                   # a leaf unless it splits
        pure = np.count_nonzero(counts) <= 1
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if pure or depth_capped or counts.sum() < params.min_samples_split:
            continue

        if k < d:
            feats = np.sort(rng.choice(d, size=k, replace=False))
        else:
            feats = np.arange(d)
        found = []
        split = best_split(x, y, feats, data.n_classes, orders=orders,
                           class_weights=class_weights, total=counts,
                           found=found, tie_free=tie_free)
        if split is None:
            continue

        feature, threshold, _ = split
        node[:2] = feature, float(threshold)
        # the left child holds a prefix of the split feature's sorted rows,
        # and its class counts are the search's sums up to that prefix
        n_left, left_counts = found
        order = orders[feature]
        go_left[order[:n_left]] = True
        go_left[order[n_left:]] = False
        left_counts = np.array(left_counts)
        # a stable partition keeps each feature's list sorted
        left = go_left.take(orders).ravel()
        # push right first so the left child is built (and draws RNG) first
        stack.append((np.compress(~left, orders).reshape(d, -1),
                      counts - left_counts, depth + 1, me, False))
        stack.append((np.compress(left, orders).reshape(d, -1),
                      left_counts, depth + 1, me, True))

    return TreeLearner(nodes=tuple(map(TreeNode._make, nodes)),
                       n_features=d, seed_used=seed)


# ---------------------------------------------------------------------------
# Linear models, both fitted by damped Newton (linear SVM: L2-loss)
# ---------------------------------------------------------------------------

def _sigmoid(s):
    e = np.exp(-np.abs(s))               # overflow-safe on both sides
    return np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Each linear kind's objective before the L2 penalty, as a function of the
# scores s = x @ w + b on +-1 targets z, each row weighted by c: the
# c-weighted sum of the row losses, and each row's slope d loss/ds and
# (generalized) curvature d2 loss/ds2, times its weight. With weights of
# 1/n the loss is the mean over the rows.

def _logistic(s, z, c):
    m = z * s
    e = np.exp(-np.abs(m))               # overflow-safe on both sides
    q = 1.0 + e
    # softplus(-m) = log(1 + exp(-m)); its slope in s is -z * sigmoid(-m)
    loss = c @ (np.maximum(-m, 0.0) + np.log1p(e))
    slope = -(c * z) * np.where(m > 0.0, e, 1.0) / q
    return loss, slope, c * e / (q * q)


def _squared_hinge(s, z, c):
    r = np.maximum(0.0, 1.0 - z * s)
    # the curvature is 2 inside the margin, 0 outside
    return c @ (r * r), -2.0 * (c * z * r), 2.0 * c * (r > 0.0)


_OBJECTIVES = {"logistic": _logistic, "linear_svm": _squared_hinge}


def _penalized(kind, w, b, x, z, l2):
    """``kind``'s objective at (w, b) on the rows ``x``, each weighted
    1/n, plus the L2 penalty on ``w``: the loss, and (d/dw, d/db)."""
    n = x.shape[0]
    loss, slope, _ = _OBJECTIVES[kind](x @ w + b, z, np.full(n, 1.0 / n))
    return (float(loss + 0.5 * l2 * (w @ w)),
            (x.T @ slope + l2 * w, float(slope.sum())))


def logistic_loss(w, b, x, z, l2):
    """Mean log loss on +-1 targets ``z`` plus an L2 penalty on the weights."""
    return _penalized("logistic", w, b, x, z, l2)[0]


def logistic_gradient(w, b, x, z, l2):
    return _penalized("logistic", w, b, x, z, l2)[1]


def hinge_loss(w, b, x, z, l2):
    """Mean squared hinge ``max(0, 1 - m)^2`` over the margins
    ``m = z * (x @ w + b)`` on +-1 targets ``z``, plus an L2 penalty on the
    weights: the L2-loss SVM objective."""
    return _penalized("linear_svm", w, b, x, z, l2)[0]


def hinge_gradient(w, b, x, z, l2):
    """Gradient of the squared hinge ``hinge_loss``."""
    return _penalized("linear_svm", w, b, x, z, l2)[1]


@dataclass(frozen=True)
class LinearLearner(TrainedLearner):
    weights: np.ndarray
    bias: float
    converged: bool
    seed_used: int
    loss_curve: tuple[float, ...] = ()   # training-time only, not persisted

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def _scores(self, rows):
        # one dot product per row: a matrix-vector product may sum a row in
        # another order depending on the rows batched with it
        return np.vecdot(rows, self.weights) + self.bias

    def _labels(self, rows):
        # score > 0 (tie -> class 0); fl(a + b) > 0 exactly when a > -b
        return np.vecdot(rows, self.weights) > -self.bias

    def _proba(self, rows):
        # Raw margin through a sigmoid for both linear kinds; the SVM output
        # is a monotone squashing, not a calibrated probability.
        p1 = _sigmoid(self._scores(rows))
        return np.column_stack([1.0 - p1, p1])


def _newton(g: GradientParams, x, z, c, objective, *, start=None):
    """Minimize ``objective`` on the rows ``x`` weighted by ``c``, plus the
    L2 penalty, by damped Newton: each step solves the (generalized)
    Hessian system and backtracks from step 1 until the Armijo test holds.
    Stops once the Newton decrement lambda^2 / 2 is below the tolerance,
    after taking that last step. The squared hinge is piecewise quadratic,
    so full steps reach its optimum in finitely many iterations. Each trial
    evaluates the objective once, and a step starts from the slopes and
    curvatures of the trial it accepted.

    The loop starts from zero weights and bias, or from a copy of those of
    the :class:`LinearLearner` ``start``: :func:`voteguard.ensemble.fit`
    passes its first Newton-fitted member, whose optimum lies close to
    every other bootstrap replicate's."""
    n, d = x.shape
    xb = np.column_stack([x, np.ones(n)])
    # The bias is unpenalized. The jitter keeps the solve defined for l2=0,
    # where the Hessian is singular if the samples (for the hinge: those
    # inside the margin) span fewer than d + 1 dimensions.
    penalty = np.diag(np.append(np.full(d, g.l2), 0.0) + 1e-12)
    if start is None:
        w, b = np.zeros(d), 0.0
    else:
        w, b = np.array(start.weights, dtype=np.float64), float(start.bias)
    loss, slope, curvature = objective(x @ w + b, z, c)
    prev = float(loss + 0.5 * g.l2 * (w @ w))
    losses = [prev]
    for _ in range(g.max_iters):
        grad = np.append(x.T @ slope + g.l2 * w, slope.sum())
        hessian = (xb.T * curvature) @ xb + penalty
        step = -np.linalg.solve(hessian, grad)
        slope_along = float(grad @ step)     # -lambda^2
        done = -slope_along / 2.0 < g.tolerance
        rate = 1.0
        for _ in range(50):
            tw, tb = w + rate * step[:d], b + rate * float(step[d])
            loss, t_slope, t_curvature = objective(x @ tw + tb, z, c)
            cur = float(loss + 0.5 * g.l2 * (tw @ tw))
            if cur <= prev + 1e-4 * rate * slope_along:
                break
            rate *= 0.5
        else:
            # no step lowers the loss beyond rounding: optimal if done
            return w, b, done, losses
        w, b, slope, curvature = tw, tb, t_slope, t_curvature
        losses.append(cur)
        prev = cur
        if done:
            return w, b, True, losses
    return w, b, False, losses


def _train_linear(config: LearnerConfig, data: Dataset, rows, seed: int, *,
                  start=None) -> LinearLearner:
    if data.n_classes != 2:
        raise ValueError(f"{config.kind} supports binary problems only")
    # each distinct row once, weighted by its share of the draws: the same
    # objective as the copied rows data.x[rows], duplicates included
    draws = np.bincount(rows)
    keep = np.flatnonzero(draws)
    y = data.y[keep]
    if (y == y[0]).all():
        # the limit logistic regression tends to on one class: zero
        # weights, and a bias whose sigmoid is exactly 1.0 or 0.0, so
        # every sample gets that class with certainty
        return LinearLearner(weights=np.zeros(data.d),
                             bias=1e300 if y[0] == 1 else -1e300,
                             converged=True, seed_used=seed)

    z = np.where(y == 1, 1.0, -1.0)
    w, b, converged, losses = _newton(
        config.gradient, data.x[keep], z, draws[keep] / rows.size,
        _OBJECTIVES[config.kind], start=start)
    return LinearLearner(weights=w, bias=b, converged=converged,
                         seed_used=seed, loss_curve=tuple(losses))


def train(config: LearnerConfig, data: Dataset, rows=None, seed: int = 0,
          *, start: LinearLearner | None = None) -> TrainedLearner:
    """Fit one base classifier on ``data.x[rows]``: a row listed twice
    counts twice, and the default lists every row once. ``seed``, an
    integer in [0, 2**64), draws a tree's features at each split. A linear
    kind's Newton loop starts from zero weights, or from the finite
    weights and bias of the :class:`LinearLearner` ``start``, which
    :func:`voteguard.ensemble.fit` sets to its first Newton-fitted member
    for every later linear member; a tree takes no start. Deterministic
    given (config, data, rows, seed, start).

    A learner that hits max_iters without meeting the tolerance is returned
    with converged=False, never raised.
    """
    if not (is_int(seed) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), "
                         f"got {seed!r}")
    rows = np.arange(len(data)) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise ValueError("cannot train on an empty dataset")
    # a float or bool array would index other rows than it names
    if (rows.dtype.kind not in "iu" or rows.ndim != 1 or rows.min() < 0
            or rows.max() >= len(data)):
        raise ValueError(f"rows must be a list of indices below {len(data)}")
    rows = rows.astype(np.int64, copy=False)
    if np.any(data.y[rows] == UNLABELED):
        raise ValueError("training data contains unlabeled samples")
    if config.kind == "tree":
        if start is not None:
            raise ValueError("a tree takes no start")
        return _train_tree(config, data, rows, seed)
    if start is not None:
        if np.shape(start.weights) != (data.d,):
            raise ValueError(f"start must hold {data.d} weights, "
                             f"got shape {np.shape(start.weights)}")
        if not (np.isfinite(start.weights).all()
                and math.isfinite(start.bias)):
            raise ValueError("start must have finite weights and bias")
    return _train_linear(config, data, rows, seed, start=start)
