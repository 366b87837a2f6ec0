import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voteguard import learners
from voteguard.core import Dataset, presort
from voteguard.data import SyntheticSpec, generate_synthetic
from voteguard.ensemble import Standardizer, bootstrap_indices
from voteguard.learners import (_OBJECTIVES, LEAF, GradientParams,
                                LearnerConfig, LinearLearner, TreeNode,
                                TreeParams,
                                _gini_gain, _sigmoid,
                                best_split, hinge_gradient, hinge_loss,
                                logistic_gradient, logistic_loss, train)
from conftest import make_binary_dataset


def one_d(xs, ys):
    return Dataset(x=np.array(xs, dtype=float).reshape(-1, 1),
                   y=np.array(ys), app_ids=("a",) * len(xs), n_classes=2)


class TestTree:
    def test_separable_pair_single_split(self):
        learner = train(LearnerConfig(kind="tree"), one_d([0.0, 1.0], [0, 1]))
        root = learner.nodes[0]
        assert root.feature == 0
        assert 0.0 < root.threshold < 1.0
        assert learner.predict_label([0.0]) == 0
        assert learner.predict_label([1.0]) == 1
        assert learner.predict_label([0.9]) == 1

    def test_leaf_frequencies_normalized(self):
        # constant feature: no split possible, root leaf counts {0:3, 1:1}
        learner = train(LearnerConfig(kind="tree"),
                        one_d([2.0, 2.0, 2.0, 2.0], [0, 0, 0, 1]))
        np.testing.assert_allclose(learner.predict_proba([2.0]), [0.75, 0.25])

    def test_single_class_constant(self):
        learner = train(LearnerConfig(kind="tree"), one_d([0.0, 1.0], [0, 0]))
        assert learner.converged
        np.testing.assert_array_equal(learner.predict_proba([5.0]), [1.0, 0.0])

    def test_max_depth_respected(self, small_dataset):
        cfg = LearnerConfig(kind="tree", tree=TreeParams(max_depth=1))
        learner = train(cfg, small_dataset)
        root = learner.nodes[0]
        assert all(n.feature == -1 for i, n in enumerate(learner.nodes) if i != 0)
        assert root.feature >= 0 or len(learner.nodes) == 1

    def test_root_split_matches_brute_force(self):
        # exhaustive enumeration of (feature, midpoint) candidates
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 3))
            x = rng.uniform(-1, 1, size=(n, d))
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            expected = brute_force_split(x, y)
            got = best_split(x, y, np.arange(d), 2)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == expected[0]
                assert got[1] == pytest.approx(expected[1], abs=1e-12)

    def test_deterministic_retraining(self, small_dataset):
        cfg = LearnerConfig(kind="tree")
        a = train(cfg, small_dataset, seed=9)
        b = train(cfg, small_dataset, seed=9)
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert (na.feature, na.threshold, na.left, na.right) == \
                   (nb.feature, nb.threshold, nb.left, nb.right)
            assert np.array_equal(na.counts, nb.counts)

    def test_dimension_mismatch(self, small_dataset):
        learner = train(LearnerConfig(kind="tree"), small_dataset)
        for x in ([1.0, 2.0, 3.0], np.zeros((4, 3)), np.zeros((4, 2, 2))):
            with pytest.raises(ValueError, match="features"):
                learner.predict_label(x)

    def test_nonfinite_input(self, small_dataset):
        learner = train(LearnerConfig(kind="tree"), small_dataset)
        for x in ([np.nan, 0.0], [[0.0, 1.0], [np.nan, 0.0], [2.0, 3.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                learner.predict_label(x)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_single_sample(self, small_dataset, bad):
        learner = train(LearnerConfig(kind="tree"), small_dataset)
        for method in (learner.predict_label, learner.predict_proba):
            with pytest.raises(ValueError, match="non-finite"):
                method([0.0, bad])

    def test_sample_on_threshold_goes_left(self):
        learner = train(LearnerConfig(kind="tree"), one_d([0.0, 1.0], [0, 1]))
        at = learner.nodes[0].threshold
        assert learner.predict_label([at]) == 0
        assert learner.predict_label([[at], [1.0]]).tolist() == [0, 1]


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "ties"])
def test_three_class_split_matches_brute_force(grid):
    # class 0's counts are the total less the other classes'
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
        x = (rng.integers(-2, 3, size=(n, d)) / 2.0 if grid
             else rng.uniform(-1, 1, size=(n, d)))
        y = rng.integers(0, 3, size=n)
        if len(np.unique(y)) < 2:
            continue
        expected = brute_force_split(x, y, n_classes=3)
        got = best_split(x, y, np.arange(d), 3)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1], abs=1e-12)
            assert got[2] == pytest.approx(expected[2], abs=1e-12)
        checked += 1


def brute_force_split(x, y, n_classes=2):
    def gini(labels):
        if labels.size == 0:
            return 0.0
        p = np.bincount(labels, minlength=n_classes) / labels.size
        return 1.0 - np.sum(p ** 2)

    n = y.size
    parent = gini(y)
    best = None
    best_gain = 0.0
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2.0
            left = y[x[:, f] <= t]
            right = y[x[:, f] > t]
            gain = parent - (left.size / n) * gini(left) \
                - (right.size / n) * gini(right)
            if gain > best_gain:
                best_gain = gain
                best = (f, t, gain)
    return best


class TestLinearModels:
    @pytest.mark.parametrize("kind", ["logistic", "linear_svm"])
    def test_separable_gaussians_high_accuracy(self, kind):
        rng = np.random.default_rng(0)
        n = 200
        y = rng.integers(0, 2, size=n)
        x = (rng.standard_normal((n, 1)) + np.where(y == 1, 5.0, -5.0)[:, None])
        data = Dataset(x=x, y=y, app_ids=("a",) * n, n_classes=2)
        learner = train(LearnerConfig(kind=kind), data)
        pred = np.array([learner.predict_label(v) for v in x])
        acc = np.mean(pred == y)
        # independent oracle: the exhaustive-best threshold classifier at x=0
        oracle_acc = np.mean((x[:, 0] > 0).astype(int) == y)
        assert acc >= 0.99
        assert acc >= oracle_acc - 0.01

    def test_sign_rule(self):
        learner = LinearLearner(weights=np.array([1.0]), bias=0.0,
                                converged=True, seed_used=0)
        assert learner.predict_label([3.0]) == 1
        assert learner.predict_label([-3.0]) == 0
        assert learner.predict_label([0.0]) == 0   # tie toward lower index

    def test_zero_score_probability(self):
        learner = LinearLearner(weights=np.array([1.0]), bias=0.0,
                                converged=True, seed_used=0)
        np.testing.assert_allclose(learner.predict_proba([0.0]), [0.5, 0.5])

    def test_single_class_constant(self):
        # a one-class replicate gives zero weights and a bias of +-1e300:
        # that one class and its certain probability, bit for bit, for one
        # sample and a batch, whatever the input, clamped values included
        rows = np.array([[0.3], [-2.0 ** 511], [2.0 ** 511], [0.0]])
        for kind in ("logistic", "linear_svm"):
            for label in (0, 1):
                learner = train(LearnerConfig(kind=kind),
                                one_d([0.0, 1.0], [label, label]), seed=7)
                assert learner.weights.tolist() == [0.0]
                assert learner.bias == (1e300 if label else -1e300)
                assert learner.converged and learner.seed_used == 7
                assert learner.loss_curve == ()
                proba = np.zeros(2)
                proba[label] = 1.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for row in rows:
                        assert learner.predict_label(row) == label
                        assert learner.predict_proba(row).tobytes() == \
                            proba.tobytes()
                    assert learner.predict_label(rows).tolist() == [label] * 4
                    assert learner.predict_proba(rows).tobytes() == \
                        np.tile(proba, (4, 1)).tobytes()

    def test_non_convergence_is_reported_not_raised(self, small_dataset):
        cfg = LearnerConfig(kind="linear_svm",
                            gradient=GradientParams(max_iters=1))
        learner = train(cfg, small_dataset)
        assert learner.converged is False

    def test_deterministic_retraining(self, small_dataset):
        cfg = LearnerConfig(kind="logistic")
        a = train(cfg, small_dataset)
        b = train(cfg, small_dataset)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_logistic_reaches_optimum_at_paper_scale(self):
        tax = generate_synthetic(SyntheticSpec(regime="ood", n_train=2000,
                                               d=8, seed=0))
        x = Standardizer.fit(tax.train.x).transform(tax.train.x)
        rows = bootstrap_indices(0, 0, len(x))
        member = Dataset(x=x[rows], y=tax.train.y[rows],
                         app_ids=("known",) * len(rows), n_classes=2)
        learner = train(LearnerConfig(kind="logistic"), member)
        assert learner.converged is True
        z = np.where(member.y == 1, 1.0, -1.0)
        gw, gb = logistic_gradient(learner.weights, learner.bias, member.x, z,
                                   GradientParams().l2)
        assert np.linalg.norm(np.append(gw, gb)) <= 1e-6

    def test_linear_svm_reaches_optimum_at_paper_scale(self):
        tax = generate_synthetic(SyntheticSpec(regime="ood", n_train=2000,
                                               d=8, seed=0))
        x = Standardizer.fit(tax.train.x).transform(tax.train.x)
        rows = bootstrap_indices(0, 0, len(x))
        member = Dataset(x=x[rows], y=tax.train.y[rows],
                         app_ids=("known",) * len(rows), n_classes=2)
        g = GradientParams()
        learner = train(LearnerConfig(kind="linear_svm", gradient=g), member)
        assert learner.converged is True
        tight = train(LearnerConfig(kind="linear_svm",
                                    gradient=GradientParams(tolerance=1e-15)),
                      member)
        z = np.where(member.y == 1, 1.0, -1.0)
        loss = hinge_loss(learner.weights, learner.bias, member.x, z, g.l2)
        best = hinge_loss(tight.weights, tight.bias, member.x, z, g.l2)
        # both fits reach the squared hinge's exact optimum, so the sign of
        # loss - best is rounding: allow a few ulps below zero
        assert -8 * np.finfo(float).eps * best <= loss - best <= g.tolerance

    def test_linear_svm_unregularized_separable_neither_raises_nor_warns(self):
        data = make_binary_dataset(n=5, d=8, separation=10.0, seed=0)
        cfg = LearnerConfig(kind="linear_svm", gradient=GradientParams(l2=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            learner = train(cfg, data)
        assert learner.converged
        assert np.all(np.isfinite(learner.weights))
        assert np.array_equal(learner.predict_label(data.x), data.y)

    def test_logistic_unregularized_separable_neither_raises_nor_warns(self):
        # five samples in eight dimensions: separable, and the unpenalized
        # Hessian is singular at every step
        data = make_binary_dataset(n=5, d=8, separation=10.0, seed=0)
        cfg = LearnerConfig(kind="logistic", gradient=GradientParams(l2=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            learner = train(cfg, data)
        assert learner.converged
        assert np.all(np.isfinite(learner.weights))
        assert np.array_equal(learner.predict_label(data.x), data.y)

    def test_multiclass_rejected(self):
        data = Dataset(x=np.zeros((3, 1)), y=np.array([0, 1, 2]),
                       app_ids=("a", "b", "c"), n_classes=3)
        with pytest.raises(ValueError, match="binary"):
            train(LearnerConfig(kind="logistic"), data)


@pytest.mark.parametrize("loss_fn,grad_fn", [
    (logistic_loss, logistic_gradient),
    (hinge_loss, hinge_gradient),
])
def test_gradients_match_finite_differences(loss_fn, grad_fn):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4))
    z = np.where(rng.integers(0, 2, 30) == 1, 1.0, -1.0)
    l2 = 1e-2
    h = 1e-6
    for _ in range(10):
        w = rng.standard_normal(4)
        b = float(rng.standard_normal())
        gw, gb = grad_fn(w, b, x, z, l2)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (loss_fn(w + e, b, x, z, l2) - loss_fn(w - e, b, x, z, l2)) / (2 * h)
            assert abs(fd - gw[j]) <= 1e-5 * max(1.0, abs(fd))
        fd_b = (loss_fn(w, b + h, x, z, l2) - loss_fn(w, b - h, x, z, l2)) / (2 * h)
        assert abs(fd_b - gb) <= 1e-5 * max(1.0, abs(fd_b))


@pytest.mark.parametrize("kind,loss_fn,grad_fn", [
    ("logistic", logistic_loss, logistic_gradient),
    ("linear_svm", hinge_loss, hinge_gradient),
])
def test_score_objective_matches_public_functions(kind, loss_fn, grad_fn):
    # Newton works from the scores s = x @ w + b, each row weighted; at
    # weights of 1/n the public functions that criterion 07 checks must
    # give the same bits
    objective = _OBJECTIVES[kind]
    rng = np.random.default_rng(11)
    h = 1e-6
    for trial in range(20):
        n, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-3, 3)
        x = scale * rng.standard_normal((n, d))
        z = np.where(rng.integers(0, 2, n) == 1, 1.0, -1.0)
        w, b = rng.standard_normal(d), float(rng.standard_normal())
        l2 = float(rng.choice([0.0, 1e-4, 1.0]))
        s = x @ w + b
        loss, slope, _ = objective(s, z, np.full(n, 1.0 / n))
        assert float(loss + 0.5 * l2 * (w @ w)) == loss_fn(w, b, x, z, l2)
        gw, gb = x.T @ slope + l2 * w, float(slope.sum())
        pw, pb = grad_fn(w, b, x, z, l2)
        assert gw.tobytes() == pw.tobytes() and gb == pb
        # at unit weights, slope and curvature are the per-sample
        # derivatives of the loss
        ones = np.ones(n)
        _, slope, curvature = objective(s, z, ones)
        one = [objective(s[i:i + 1] + e, z[i:i + 1], ones[:1])[0]
               for i in range(n) for e in (h, -h)]
        fd = (np.array(one[::2]) - np.array(one[1::2])) / (2 * h)
        np.testing.assert_allclose(slope, fd, rtol=1e-5, atol=1e-6)
        fd2 = (objective(s + h, z, ones)[1]
               - objective(s - h, z, ones)[1]) / (2 * h)
        kink = np.abs(z * s - 1.0) < 2 * h    # the hinge's curvature jumps
        np.testing.assert_allclose(curvature[~kink], fd2[~kink],
                                   rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("kind", ["logistic", "linear_svm"])
@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 30))
def test_weighted_objective_equals_repeated_rows(kind, data, n):
    # a distinct row weighted by its draw count over the draws is that row
    # repeated as often, each copy weighted 1 over the draws
    objective = _OBJECTIVES[kind]
    s = data.draw(arrays(np.float64, n, elements=st.floats(-40, 40)))
    z = data.draw(arrays(np.float64, n, elements=st.sampled_from([-1.0,
                                                                 1.0])))
    draws = data.draw(arrays(np.int64, n, elements=st.integers(1, 6)))
    repeated = np.repeat(np.arange(n), draws)
    size = repeated.size
    loss, slope, curvature = objective(s, z, draws / size)
    r_loss, r_slope, r_curvature = objective(
        s[repeated], z[repeated], np.full(size, 1.0 / size))
    # each row's slope and curvature, summed over its copies
    ends = np.cumsum(draws) - draws
    np.testing.assert_allclose(loss, r_loss, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(slope, np.add.reduceat(r_slope, ends),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(curvature,
                               np.add.reduceat(r_curvature, ends),
                               rtol=1e-12, atol=0.0)


def test_sigmoid_matches_masked_formula_bit_for_bit():
    s = np.array([-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 5e-324, 0.3,
                  36.0, 800.0])
    # the earlier form: each side of 0 through its own exp
    expected = np.empty_like(s)
    pos = s >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    expected[~pos] = e / (1.0 + e)
    assert _sigmoid(s).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["logistic", "linear_svm"])
def test_loss_non_increasing_at_default_rate(kind):
    data = make_binary_dataset(n=80, d=3, separation=3.0, seed=5)
    x = (data.x - data.x.mean(axis=0)) / data.x.std(axis=0)
    scaled = Dataset(x=x, y=data.y, app_ids=data.app_ids, n_classes=2)
    learner = train(LearnerConfig(kind=kind), scaled)
    assert len(learner.loss_curve) > 1
    assert all(b <= a for a, b in zip(learner.loss_curve,
                                      learner.loss_curve[1:]))
    pred = np.array([learner.predict_label(v) for v in x])
    assert np.mean(pred == data.y) >= 0.9


class TestTrainValidation:
    def test_empty_dataset(self):
        empty = Dataset(x=np.zeros((0, 1)), y=np.zeros(0, dtype=int),
                        app_ids=(), n_classes=2)
        with pytest.raises(ValueError, match="empty"):
            train(LearnerConfig(kind="tree"), empty)

    def test_unlabeled_sample(self):
        data = Dataset(x=np.zeros((2, 1)), y=np.array([0, -1]),
                       app_ids=("a", "b"), n_classes=2)
        with pytest.raises(ValueError, match="unlabeled"):
            train(LearnerConfig(kind="tree"), data)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            LearnerConfig(kind="perceptron")
        with pytest.raises(ValueError):
            TreeParams(min_samples_split=1)


class TestStart:
    def start(self, weights, bias=0.0):
        return LinearLearner(weights=np.array(weights), bias=bias,
                             converged=True, seed_used=0)

    def test_tree_refuses_a_start(self, small_dataset):
        with pytest.raises(ValueError, match="a tree takes no start"):
            train(LearnerConfig(kind="tree"), small_dataset,
                  start=self.start([0.0, 0.0]))

    @pytest.mark.parametrize("kind", ["logistic", "linear_svm"])
    @pytest.mark.parametrize("weights,bias,message", [
        ([0.0, 0.0, 0.0], 0.0, r"start must hold 2 weights, got shape \(3,\)"),
        ([math.nan, 0.0], 0.0, "start must have finite weights and bias"),
        ([0.0, 0.0], math.inf, "start must have finite weights and bias"),
    ])
    def test_bad_start_refused(self, small_dataset, kind, weights, bias,
                               message):
        with pytest.raises(ValueError, match=message):
            train(LearnerConfig(kind=kind), small_dataset,
                  start=self.start(weights, bias))

    @pytest.mark.parametrize("kind", ["logistic", "linear_svm"])
    def test_start_at_the_optimum_takes_one_step(self, small_dataset, kind):
        config = LearnerConfig(kind=kind)
        cold = train(config, small_dataset)
        warm = train(config, small_dataset, start=cold)
        assert warm.converged and len(warm.loss_curve) <= 2
        assert warm.loss_curve[0] == cold.loss_curve[-1]
        np.testing.assert_allclose(warm.weights, cold.weights, atol=1e-6)


def assert_same_learner(a, b):
    assert type(a) is type(b)
    assert a.converged == b.converged
    if hasattr(a, "nodes"):
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert (na.feature, na.threshold, na.left, na.right) == \
                   (nb.feature, nb.threshold, nb.left, nb.right)
            assert np.array_equal(na.counts, nb.counts)
    else:
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def leaf_of(learner, row):
    i = 0
    while learner.nodes[i].feature >= 0:
        node = learner.nodes[i]
        i = node.left if row[node.feature] <= node.threshold else node.right
    return i


@st.composite
def row_draws(draw, kind):
    """A config, a small dataset on a coarse grid (so feature values tie),
    a bootstrap-like draw of its rows with repeats, and a seed."""
    n_classes = draw(st.sampled_from([2, 3])) if kind == "tree" else 2
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    x = rng.integers(-3, 4, size=(n, d)) / 2.0
    y = rng.integers(0, n_classes, size=n)
    rows = rng.integers(0, n, size=n + draw(st.integers(-n + 1, n)))
    tree = TreeParams(
        max_depth=draw(st.one_of(st.none(), st.integers(1, 4))),
        min_samples_split=draw(st.integers(2, 5)),
        feature_subsample=draw(st.sampled_from(["all", "sqrt"])))
    config = LearnerConfig(kind=kind, tree=tree,
                           gradient=GradientParams(max_iters=50))
    data = Dataset(x=x, y=y, app_ids=("a",) * n, n_classes=n_classes)
    return config, data, rows, draw(st.integers(0, 2 ** 32))


@pytest.mark.parametrize("kind", ["tree", "logistic", "linear_svm"])
@settings(max_examples=100)
@given(case=st.data())
def test_rows_equal_subset(kind, case):
    # fitting on row indices is fitting on the copied rows
    config, data, rows, seed = case.draw(row_draws(kind))
    learner = train(config, data, rows, seed)
    copied = Dataset(x=data.x[rows], y=data.y[rows],
                     app_ids=("a",) * len(rows), n_classes=data.n_classes)
    if config.kind == "tree":
        assert_same_learner(learner, train(config, copied, seed=seed))
        # each leaf counts exactly the drawn rows that prediction routes to it
        routed = np.array([leaf_of(learner, data.x[r]) for r in rows])
        for i, node in enumerate(learner.nodes):
            if node.feature < 0:
                assert np.array_equal(node.counts, np.bincount(
                    data.y[rows[routed == i]], minlength=data.n_classes))
        return
    # a linear member fits each distinct row once, weighted by its draw
    # count: the order of the draws moves no bit. The copies sum in another
    # order, so their fit reaches the same optimum within the tolerance.
    shuffled = np.random.default_rng(seed).permutation(rows)
    assert_same_learner(learner, train(config, data, shuffled, seed))
    fitted = train(config, copied, seed=seed)
    assert learner.converged and fitted.converged
    loss_fn = logistic_loss if kind == "logistic" else hinge_loss
    z = np.where(copied.y == 1, 1.0, -1.0)
    l2 = config.gradient.l2
    assert abs(loss_fn(learner.weights, learner.bias, copied.x, z, l2)
               - loss_fn(fitted.weights, fitted.bias, copied.x, z, l2)) \
        <= config.gradient.tolerance


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 25), n_classes=st.integers(2, 4))
def test_weighted_split_equals_repeated_rows(data, n, n_classes):
    x = data.draw(arrays(np.float64, (n, 3), elements=st.integers(-2, 2)))
    y = data.draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    weights = data.draw(arrays(np.int64, n, elements=st.integers(1, 4)))
    feats = np.arange(3)
    orders = np.argsort(x, axis=0, kind="stable").T
    class_weights = np.zeros((n_classes, n), dtype=np.int64)
    class_weights[y, np.arange(n)] = weights
    repeated = np.repeat(np.arange(n), weights)
    assert best_split(x, None, feats, n_classes, orders=orders,
                      class_weights=class_weights) \
        == best_split(x[repeated], y[repeated], feats, n_classes)


def exhaustive_split(x, class_weights, orders, feats):
    """What ``best_split`` should return, found by taking ``_gini_gain`` at
    every boundary between distinct values: the first greatest gain of
    each feature, and across features only a strictly greater one. Also
    the left side it finds: the count of samples and their class counts."""
    total = class_weights.take(orders[0], axis=1).sum(axis=1, dtype=float)
    n = float(total.sum())
    p = total / n
    parent = 1.0 - float(np.sum(p * p))
    best, best_gain, best_left = None, 0.0, None
    for f in feats:
        order = orders[f]
        values = x[order, f]
        left = np.zeros(len(total))
        top = None
        for b in range(len(order) - 1):
            left += class_weights[:, order[b]]
            if values[b] == values[b + 1]:
                continue
            gain = _gini_gain(parent, n, total.tolist(), left.tolist())
            if top is None or gain > top[0]:
                top = gain, b, left.tolist()
        if top is not None and top[0] > best_gain:
            best_gain, b, counts = top
            lo, hi = values[b], values[b + 1]
            mid = (lo + hi) / 2.0
            best = (int(f), mid if lo <= mid < hi else lo, best_gain)
            best_left = [b + 1, counts]
    return best, best_left


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(2, 30), n_classes=st.integers(2, 4))
def test_split_equals_exhaustive_search(data, n, n_classes):
    # columns on a coarse grid, whose values tie, and columns without ties;
    # draw counts as class weights, rows drawn 0 times left out of the
    # orders, and a subset of the features searched
    d = 4
    columns = [data.draw(arrays(np.float64, n, elements=st.integers(-2, 2)))
               if data.draw(st.booleans())
               else np.array(data.draw(st.permutations(range(n)))) / 7.0
               for _ in range(d)]
    x = np.column_stack(columns)
    y = data.draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    draws = data.draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    assume(np.count_nonzero(draws) >= 2)
    feats = np.array(sorted(data.draw(st.sets(st.integers(0, d - 1),
                                              min_size=1))))
    class_weights = np.zeros((n_classes, n), dtype=np.uint8)
    class_weights[y, np.arange(n)] = draws
    presorted, tie_free = presort(x)
    orders = np.array([o[draws[o] > 0] for o in presorted])
    found = []
    expected, left = exhaustive_split(x, class_weights, orders, feats)
    assert best_split(x, None, feats, n_classes, orders=orders,
                      class_weights=class_weights, found=found,
                      tie_free=tie_free) == expected
    assert found == ([] if expected is None else left)


def test_split_confirms_every_boundary_tied_in_impurity(monkeypatch):
    # the boundaries at 7.5 and 18 leave children of equal weighted
    # impurity, 10/7 + 18/9 = 48/14, but rounding ranks them one way by that
    # score and the other way by the exact gain: both must reach the exact
    # gain, which picks 7.5
    x = np.array([7.0, 21.0, 8.0, 12.0, 3.0, 15.0, 15.0, 1.0, 0.0])[:, None]
    y = np.array([1, 0, 0, 0, 1, 1, 0, 0, 1])
    draws = np.array([3, 2, 1, 2, 1, 3, 1, 2, 1])
    class_weights = np.zeros((2, 9))
    class_weights[y, np.arange(9)] = draws
    orders = presort(x)[0]
    confirmed = []

    def gini_gain(parent, n, total, left):
        confirmed.append(left)
        return _gini_gain(parent, n, total, left)

    monkeypatch.setattr(learners, "_gini_gain", gini_gain)
    got = best_split(x, None, [0], 2, orders=orders,
                     class_weights=class_weights)
    assert confirmed == [[2.0, 5.0], [6.0, 8.0]]
    assert got == exhaustive_split(x, class_weights, orders, [0])[0]
    assert got[1] == 7.5


def reference_tree(config, data, rows, seed):
    """The tree ``train(config, data, rows, seed)`` should grow, grown by plain
    recursion on the copied rows: each node draws its features as train
    does, in the same order (a node, then its left subtree, then its
    right), searches them with public ``best_split`` and sends a row left
    when its value is at most the threshold. Nodes as TreeNode tuples."""
    x, y = data.x[rows], data.y[rows]
    params, d, n_classes = config.tree, data.d, data.n_classes
    k = d if params.feature_subsample == "all" else math.isqrt(d - 1) + 1
    rng = np.random.default_rng(seed)
    nodes = []

    def grow(x, y, depth):
        me = len(nodes)
        counts = np.bincount(y, minlength=n_classes).astype(float)
        nodes.append(TreeNode(LEAF, 0.0, LEAF, LEAF, tuple(counts.tolist())))
        if (np.count_nonzero(counts) <= 1 or len(y) < params.min_samples_split
                or params.max_depth is not None and depth >= params.max_depth):
            return
        feats = (np.sort(rng.choice(d, size=k, replace=False)) if k < d
                 else np.arange(d))
        split = best_split(x, y, feats, n_classes)
        if split is None:
            return
        feature, threshold, _ = split
        go = x[:, feature] <= threshold
        grow(x[go], y[go], depth + 1)
        right = len(nodes)
        grow(x[~go], y[~go], depth + 1)
        nodes[me] = TreeNode(feature, threshold, me + 1, right, nodes[me].counts)

    grow(x, y, 0)
    return nodes


@settings(max_examples=100)
@given(case=row_draws("tree"), tied=st.booleans(), seed=st.integers(0, 99))
def test_tree_equals_reference_tree(case, tied, seed):
    # node for node: the split, the children and the class counts that
    # train takes from the search's sums and the sorted rows' prefix
    config, data, rows, fit_seed = case
    if not tied:
        x = np.random.default_rng(seed).uniform(-1, 1, size=data.x.shape)
        data = Dataset(x=x, y=data.y, app_ids=data.app_ids,
                       n_classes=data.n_classes)
    assert train(config, data, rows, fit_seed).nodes == tuple(
        reference_tree(config, data, rows, fit_seed))


@settings(max_examples=100)
@given(case=row_draws("tree"), data=st.data(), seed=st.integers(0, 99))
def test_tree_equals_reference_tree_with_mixed_ties(case, data, seed):
    # one dataset with columns on the coarse grid, whose values tie, and
    # columns without ties, whose search skips comparing the values
    config, tied, rows, fit_seed = case
    assume(tied.d >= 2)
    untied = data.draw(st.lists(st.integers(0, tied.d - 1), min_size=1,
                                max_size=tied.d - 1, unique=True))
    x = tied.x.copy()
    x[:, untied] = np.random.default_rng(seed).uniform(
        -1, 1, size=(len(x), len(untied)))
    mixed = Dataset(x=x, y=tied.y, app_ids=tied.app_ids,
                    n_classes=tied.n_classes)
    assert mixed.tie_free[untied].all()
    assert train(config, mixed, rows, fit_seed).nodes == tuple(
        reference_tree(config, mixed, rows, fit_seed))


@pytest.mark.parametrize("heavy", [256, 65_536], ids=["over-255", "over-65535"])
def test_draw_counts_past_narrow_dtypes(heavy):
    # one row drawn more often than a uint8 (or uint16) count holds: the
    # class weights widen, so the fit and the split stay those of the
    # copied rows
    rng = np.random.default_rng(heavy)
    n, d, n_classes = 30, 3, 3
    data = Dataset(x=rng.integers(-3, 4, size=(n, d)) / 2.0,
                   y=rng.integers(0, n_classes, size=n), app_ids=("a",) * n,
                   n_classes=n_classes)
    rows = np.concatenate([np.full(heavy, 7), rng.integers(0, n, size=n)])
    copied = Dataset(x=data.x[rows], y=data.y[rows],
                     app_ids=("a",) * len(rows), n_classes=n_classes)
    for subsample in ("all", "sqrt"):
        config = LearnerConfig(kind="tree",
                               tree=TreeParams(feature_subsample=subsample))
        learner = train(config, data, rows, heavy)
        assert sum(learner.nodes[0].counts) == len(rows)
        assert_same_learner(learner, train(config, copied, seed=heavy))

    weights = np.bincount(rows, minlength=n)
    feats = np.arange(d)
    orders = np.argsort(data.x, axis=0, kind="stable").T
    expected = best_split(copied.x, copied.y, feats, n_classes)
    assert expected is not None
    # the draw counts as class weights in the narrowest dtype that holds
    # them, and the left side found from the sorted rows' prefix
    class_weights = np.zeros((n_classes, n),
                             dtype=np.min_scalar_type(weights.max()))
    class_weights[data.y, np.arange(n)] = weights
    assert class_weights.dtype.itemsize == (2 if heavy < 65_536 else 4)
    found = []
    assert best_split(data.x, None, feats, n_classes, orders=orders,
                      class_weights=class_weights, found=found) == expected
    feature, threshold, _ = expected
    k, left_counts = found
    go = copied.x[:, feature] <= threshold
    assert np.array_equal(np.sort(orders[feature][:k]),
                          np.flatnonzero(data.x[:, feature] <= threshold))
    assert left_counts == np.bincount(copied.y[go],
                                      minlength=n_classes).tolist()


@settings(max_examples=200)
@given(data=st.data(), b=st.integers(1, 30), n_classes=st.integers(2, 4))
def test_gini_gains_keep_their_bits(data, b, n_classes):
    # the gain of each boundary, on Python floats, equals bit for bit the
    # formula evaluated on arrays of every boundary
    total = np.array(data.draw(st.lists(st.integers(1, 10 ** 6),
                                        min_size=n_classes,
                                        max_size=n_classes)), dtype=float)
    left = [np.floor(data.draw(arrays(np.float64, b, elements=st.floats(
        0, 1))) * t) for t in total]
    n_left = sum(left)
    assume(np.all(n_left > 0) and np.all(n_left < total.sum()))
    n = total.sum()
    parent = 1.0 - float(np.sum((total / n) * (total / n)))
    n_right = n - n_left
    gini_left = 1.0 - sum((c / n_left) ** 2 for c in left)
    gini_right = 1.0 - sum(((t - c) / n_right) ** 2 for t, c in zip(total, left))
    expected = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
    got = [_gini_gain(parent, float(n), total.tolist(),
                      [float(c[i]) for c in left]) for i in range(b)]
    assert np.array(got).tobytes() == expected.tobytes()


def test_split_between_neighbouring_floats():
    # (lo + hi) / 2 rounds up to hi here; a threshold of hi sent both rows
    # left, and with no depth cap the same split repeated without end
    lo = np.nextafter(0.5, 1.0)
    hi = np.nextafter(lo, 1.0)
    assert (lo + hi) / 2.0 == hi
    data = one_d([lo, hi], [0, 1])
    cfg = LearnerConfig(kind="tree", tree=TreeParams(max_depth=1))
    learner = train(cfg, data)
    assert learner.predict_label(data.x).tolist() == [0, 1]
    assert len(train(LearnerConfig(kind="tree"), data).nodes) == 3


def test_split_where_midpoint_overflows():
    # lo + hi overflows to -inf here: a threshold of -inf sent no row left,
    # so the node split the same way again until the depth cap, and the
    # numpy sum warned
    data = one_d([-1.7e308, -1.6e308], [0, 1])
    cfg = LearnerConfig(kind="tree", tree=TreeParams(max_depth=4))
    learner = train(cfg, data)
    assert [node.threshold for node in learner.nodes] == [-1.7e308, 0.0, 0.0]
    assert learner.predict_label(data.x).tolist() == [0, 1]


def test_rows_out_of_range_rejected(small_dataset):
    for rows in ([0, len(small_dataset)], [-1, 0], [[0, 1]]):
        with pytest.raises(ValueError, match="indices"):
            train(LearnerConfig(kind="tree"), small_dataset, rows)
    with pytest.raises(ValueError, match="empty"):
        train(LearnerConfig(kind="tree"), small_dataset, [])


def test_rows_not_integers_rejected(small_dataset):
    # [0.5, 1.7] would fit rows 0 and 1, the mask [True, False] rows 1 and 0
    config = LearnerConfig(kind="tree")
    for rows in ([0.5, 1.7], [True, False], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="rows must be a list of indices"):
            train(config, small_dataset, rows)
    for dtype in (np.int32, np.uint64):
        assert_same_learner(
            train(config, small_dataset, np.array([0, 1, 1], dtype=dtype)),
            train(config, small_dataset, [0, 1, 1]))


@pytest.mark.parametrize("field_name", ["tolerance", "l2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_gradient_params_rejected(field_name, value):
    with pytest.raises(ValueError, match="finite"):
        GradientParams(**{field_name: value})


@pytest.mark.parametrize("cls, field_name, value", [
    *((TreeParams, "max_depth", v) for v in (2.5, True, np.int64(2), "3")),
    *((TreeParams, "min_samples_split", v) for v in (2.5, True, np.int64(2))),
    *((GradientParams, "max_iters", v) for v in (2.5, True, np.int64(5))),
    *(pytest.param(GradientParams, name, v, id=f"{name}-{id_}")
      for name in ("tolerance", "l2")
      for v, id_ in ((True, "bool"), ("0.1", "text"), (10 ** 400, "huge"))),
])
def test_config_refuses_wrong_types(cls, field_name, value):
    # fit took some of these and ran to the end; numpy or the range check
    # raised TypeError or OverflowError on the others
    with pytest.raises(ValueError) as info:
        cls(**{field_name: value})
    number = field_name in ("tolerance", "l2")
    what = "a finite number" if number else "an integer"
    assert str(info.value).startswith(f"{field_name} must be {what}")
    assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("seed", [0.5, True, np.uint64(1), -1, 2 ** 64],
                         ids=["float", "bool", "numpy-int", "negative",
                              "2-64"])
def test_train_refuses_bad_seed(small_dataset, seed):
    # the seed is train's argument, checked as LearnerConfig checked it
    with pytest.raises(ValueError) as info:
        train(LearnerConfig(), small_dataset, seed=seed)
    assert str(info.value) == (f"seed must be an integer in [0, 2**64), "
                               f"got {seed!r}")
    assert train(LearnerConfig(), small_dataset,
                 seed=2 ** 64 - 1).seed_used == 2 ** 64 - 1


def assert_walks_agree(learner, rows):
    """The level walk sends every row to the leaf a node-by-node walk
    reaches, and a batch votes as its rows do one at a time."""
    leaves = [leaf_of(learner, r) for r in rows]
    assert learner._level_walk(rows).tolist() == leaves
    assert learner.predict_label(rows).tolist() == \
        [learner.predict_label(r) for r in rows]
    assert learner.predict_proba(rows).tobytes() == \
        np.array([learner.predict_proba(r) for r in rows]).tobytes()


def on_every_threshold(learner, x, n_rows):
    """``n_rows`` rows cycled from ``x``, the first ones each set to lie
    exactly on one split's threshold."""
    rows = np.resize(x, (n_rows, x.shape[1]))
    splits = [node for node in learner.nodes if node.feature >= 0]
    for j, node in enumerate(splits[:n_rows]):
        rows[j, node.feature] = node.threshold
    return rows


@pytest.mark.parametrize("n_rows", [63, 64], ids=["63-rows", "64-rows"])
@settings(max_examples=50)
@given(case=st.data())
def test_level_walk_equals_row_walk(n_rows, case):
    config, data, rows, seed = case.draw(row_draws("tree"))
    learner = train(config, data, rows, seed)
    assert_walks_agree(learner, on_every_threshold(learner, data.x, n_rows))


def test_level_walk_of_deep_tree():
    data = make_binary_dataset(n=400, d=3, separation=0.5, seed=1)
    learner = train(LearnerConfig(kind="tree"), data)
    assert learner._levels[5] >= 8
    assert_walks_agree(learner, on_every_threshold(learner, data.x, 400))


def test_level_walk_of_single_leaf():
    learner = train(LearnerConfig(kind="tree"), one_d([0.0, 1.0], [1, 1]))
    assert len(learner.nodes) == 1 and learner._levels[5] == 0
    rows = np.linspace(-1, 2, 64).reshape(-1, 1)
    assert_walks_agree(learner, rows)
    assert learner.predict_label(rows).tolist() == [1] * 64


class TestOneSampleTreeWalk:
    """A tree member's one-sample ``predict_label``: the base class's
    one-row batch, which checks the row and walks it by levels."""

    @pytest.fixture
    def learner(self):
        data = make_binary_dataset(n=200, d=3, separation=1.0, seed=2)
        return train(LearnerConfig(kind="tree", tree=TreeParams(max_depth=4)),
                     data), data.x

    def assert_alone_equals_batches(self, learner, rows):
        alone = [learner.predict_label(r) for r in rows]
        assert alone == [learner._walk[4][leaf_of(learner, r)] for r in rows]
        for n_rows in (63, 128):
            batch = np.resize(rows, (n_rows, rows.shape[1]))
            assert learner.predict_label(batch).tolist() == \
                np.resize(alone, n_rows).tolist()

    def test_label_is_a_python_int(self, learner):
        learner, x = learner
        assert all(type(learner.predict_label(r)) is int for r in x[:10])

    def test_rows_on_every_threshold(self, learner):
        learner, x = learner
        n_splits = sum(node.feature >= 0 for node in learner.nodes)
        assert 1 < n_splits < 64
        self.assert_alone_equals_batches(
            learner, on_every_threshold(learner, x, n_splits))

    def test_negative_zero_on_zero_threshold(self):
        learner = train(LearnerConfig(kind="tree"),
                        one_d([-1.0, 1.0], [0, 1]))
        assert learner.nodes[0].threshold == 0.0
        rows = np.array([[-0.0], [0.0], [np.nextafter(0.0, 1.0)]])
        assert [learner.predict_label(r) for r in rows] == [0, 0, 1]
        self.assert_alone_equals_batches(learner, rows)

    def test_list_equals_array_and_one_row_batch(self, learner):
        learner, x = learner
        for row in x[:10]:
            label = learner.predict_label(row)
            assert learner.predict_label(row.tolist()) == label
            batch = learner.predict_label(row[None])
            assert batch.dtype == np.int64 and batch.tolist() == [label]

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 1, 3)])
    def test_wrong_shape_keeps_its_message(self, learner, shape):
        learner, _ = learner
        message = f"expected 3 features, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            learner.predict_label(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_keeps_its_message(self, learner, bad, at):
        learner, x = learner
        row = x[0].copy()
        row[at] = bad
        for sample in (row, row.tolist()):
            with pytest.raises(ValueError,
                               match="^input contains non-finite values$"):
                learner.predict_label(sample)

    @pytest.mark.parametrize("big", [1e308, -1e308, np.finfo(float).max])
    def test_finite_row_whose_sum_overflows_gets_a_label(self, learner, big):
        # the sum of this row is +-inf, yet every value in it is finite
        learner, _ = learner
        row = np.full(3, big)
        assert not math.isfinite(sum(row.tolist()))
        label = learner.predict_label(row)
        assert label == learner._walk[4][leaf_of(learner, row)]
        assert learner.predict_label(row.tolist()) == label
        assert learner.predict_label(row[None]).tolist() == [label]

    @pytest.mark.parametrize("values", [(np.inf, -np.inf), (-np.inf, np.inf),
                                        (np.nan, 1e308), (1e308, np.inf)])
    def test_non_finite_among_large_values_raises(self, learner, values):
        learner, _ = learner
        row = np.array([values[0], 1e308, values[1]])
        for sample in (row, row.tolist(), row[None]):
            with pytest.raises(ValueError,
                               match="^input contains non-finite values$"):
                learner.predict_label(sample)
