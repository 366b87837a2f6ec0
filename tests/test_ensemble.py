import itertools
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voteguard.core import Dataset
from voteguard.ensemble import (EnsembleConfig, EnsembleModel, Prediction,
                                Standardizer, SupportBox, Verdict,
                                bootstrap_indices, entropy_of, fit, gate,
                                predict, rejected)
from voteguard.learners import (LEAF, LEVEL_WALK_ROWS, LearnerConfig,
                                LinearLearner, TreeLearner, TreeNode,
                                TreeParams, train)
from voteguard.persist import load_model, save_model
from conftest import make_binary_dataset
from test_learners import leaf_of


class TestEntropyOf:
    def test_pure_distribution(self):
        assert entropy_of([1.0, 0.0]) == 0.0

    def test_maximal_binary(self):
        assert entropy_of([0.5, 0.5], log_base=2.0) == pytest.approx(1.0)

    def test_uniform_ternary_natural_log(self):
        assert entropy_of([1 / 3] * 3, log_base=math.e) == \
            pytest.approx(math.log(3), abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            entropy_of([1.1, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            entropy_of([0.6, 0.6])

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="sums to nan, not 1"):
            entropy_of([math.nan, 0.5])

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="sums to nan, not 1"):
            entropy_of([[0.5, 0.5], [math.nan, 1.0]])

    @pytest.mark.parametrize("log_base", [10, 0.5, 1])
    def test_log_base_other_than_2_or_e_rejected(self, log_base):
        # base 10 would take natural logs, 0.5 would clamp to -1 and 1
        # would divide by zero
        with pytest.raises(ValueError,
                           match=f"log_base must be 2 or e, got {log_base}"):
            entropy_of([0.9, 0.1], log_base)

    @given(st.integers(2, 6), st.integers(0, 10 ** 9))
    def test_bounds_hold(self, k, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(k))
        h = entropy_of(p, log_base=2.0)
        assert 0.0 <= h <= math.log2(k)


@pytest.mark.parametrize("log_base", [2.0, math.e], ids=["base2", "base-e"])
# K = 5 adds count vectors whose entropy needs the upper clamp in base e
@pytest.mark.parametrize("k,max_m", [(2, 40), (3, 40), (4, 20), (5, 10)])
def test_hard_vote_posterior_matches_every_count_vector(k, max_m, log_base):
    # each count vector's memoized one-sample result against its row in a
    # batch, where numpy sums every row's entropy terms
    for m in range(1, max_m + 1):
        counts = np.array([c + (m - sum(c),) for c in
                           itertools.product(range(m + 1), repeat=k - 1)
                           if sum(c) <= m])
        votes = np.array([np.repeat(np.arange(k), c) for c in counts],
                         dtype=float)
        model = voting_model(k, m, log_base)
        batch = predict(model, votes)
        assert batch.vote_distribution.tobytes() == (counts / m).tobytes()
        for row, dist, h in zip(votes, batch.vote_distribution,
                                batch.entropy):
            one = predict(model, row)
            assert one.vote_distribution.tobytes() == dist.tobytes()
            assert np.float64(one.entropy).tobytes() == h.tobytes()


def constant_ensemble(votes):
    """Ensemble of voters over 1 standardized feature, 2 classes, whose box
    holds the input 0: each one the zero-weight linear member that train
    fits on a replicate of its one class."""
    learners = tuple(LinearLearner(weights=np.zeros(1),
                                   bias=1e300 if v else -1e300,
                                   converged=True, seed_used=0)
                     for v in votes)
    config = EnsembleConfig(base=LearnerConfig(kind="logistic"), m=len(votes))
    return EnsembleModel(learners=learners,
                         standardizer=Standardizer(mean=np.zeros(1),
                                                   std=np.ones(1)),
                         config=config, n_classes=2,
                         support=SupportBox(low=-np.ones(1), high=np.ones(1)))


class TestPredict:
    def test_unanimous_votes(self):
        model = constant_ensemble([0] * 10)
        pred = predict(model, [0.0])
        np.testing.assert_array_equal(pred.vote_distribution, [1.0, 0.0])
        assert pred.entropy == 0.0
        assert pred.label == 0

    def test_even_split_maximal_entropy(self):
        model = constant_ensemble([0] * 5 + [1] * 5)
        pred = predict(model, [0.0])
        np.testing.assert_array_equal(pred.vote_distribution, [0.5, 0.5])
        assert pred.entropy == pytest.approx(1.0)

    def test_six_two_split(self):
        model = constant_ensemble([1] * 6 + [0] * 2)
        pred = predict(model, [0.0])
        np.testing.assert_array_equal(pred.vote_distribution, [0.25, 0.75])
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert pred.entropy == pytest.approx(expected, abs=1e-12)
        assert pred.entropy == pytest.approx(0.8113, abs=1e-4)

    def test_hard_vote_counts_exact(self, small_dataset):
        config = EnsembleConfig(base=LearnerConfig(kind="tree"), m=7,
                                master_seed=3)
        model = fit(config, small_dataset)
        for x in small_dataset.x[:10]:
            pred = predict(model, x)
            z = model.standardizer.transform(x)
            votes = [l.predict_label(z) for l in model.learners]
            expected = np.bincount(votes, minlength=2) / 7
            np.testing.assert_array_equal(pred.vote_distribution, expected)
            assert pred.per_learner_labels == tuple(votes)

    def test_soft_average_is_mean_of_probas(self, small_dataset):
        config = EnsembleConfig(base=LearnerConfig(kind="logistic"), m=5,
                                posterior_mode="soft_average")
        model = fit(config, small_dataset)
        x = small_dataset.x[0]
        z = model.standardizer.transform(x)
        expected = np.mean([l.predict_proba(z) for l in model.learners], axis=0)
        np.testing.assert_allclose(predict(model, x).vote_distribution,
                                   expected)

    def test_permutation_invariance(self, small_dataset):
        config = EnsembleConfig(base=LearnerConfig(kind="tree"), m=8)
        model = fit(config, small_dataset)
        perm = np.random.default_rng(0).permutation(8)
        shuffled = EnsembleModel(
            learners=tuple(model.learners[i] for i in perm),
            standardizer=model.standardizer, config=model.config,
            n_classes=model.n_classes, support=model.support)
        for x in small_dataset.x[:5]:
            a, b = predict(model, x), predict(shuffled, x)
            np.testing.assert_array_equal(a.vote_distribution,
                                          b.vote_distribution)
            assert a.entropy == b.entropy and a.label == b.label
            assert sorted(a.per_learner_labels) == sorted(b.per_learner_labels)

    def test_dimension_mismatch(self, small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2),
                    small_dataset)
        for x in ([1.0], np.zeros((3, 3)), np.zeros((3, 2, 2))):
            with pytest.raises(ValueError, match="features"):
                predict(model, x)


class TestFit:
    def test_single_voter_zero_entropy(self, small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=1),
                    small_dataset)
        for x in small_dataset.x:
            assert predict(model, x).entropy == 0.0

    def test_bootstrap_distinct_fraction(self):
        # oracle: direct simulation of 1 - (1 - 1/n)^n
        n = 500
        fractions = [np.unique(bootstrap_indices(11, i, n)).size / n
                     for i in range(100)]
        assert np.mean(fractions) == pytest.approx(0.632, abs=0.03)

    def test_seed_isolation(self, small_dataset):
        n = len(small_dataset)
        same = [np.array_equal(bootstrap_indices(1, i, n),
                               bootstrap_indices(1, i, n)) for i in range(5)]
        differ = [not np.array_equal(bootstrap_indices(1, i, n),
                                     bootstrap_indices(2, i, n))
                  for i in range(5)]
        assert all(same) and any(differ)

    def test_zero_variance_feature_handled(self):
        data = Dataset(x=np.array([[1.0, 0.5], [1.0, -0.5], [1.0, 0.7],
                                   [1.0, -0.9]]),
                       y=np.array([1, 0, 1, 0]), app_ids=("a",) * 4,
                       n_classes=2)
        model = fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=3),
                    data)
        assert np.all(model.standardizer.std > 0)
        predict(model, [1.0, 0.1])

    def test_rejects_unlabeled(self):
        data = Dataset(x=np.zeros((2, 1)), y=np.array([0, -1]),
                       app_ids=("a", "b"), n_classes=2)
        with pytest.raises(ValueError, match="unlabeled"):
            fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)

    @pytest.mark.parametrize("scale", [1e200, 1e307])
    def test_features_too_large_to_standardize_rejected(self, small_dataset,
                                                        scale):
        # finite values whose variance (1e200) or sum (1e307) overflows,
        # with no warning: the suite turns warnings into errors
        x = small_dataset.x.copy()
        x[:, 1] *= scale
        data = replace(small_dataset, x=x)
        with pytest.raises(ValueError, match="^feature 1 is too large to "
                                             "standardize"):
            fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)


class TestGate:
    def test_unanimous_accepted_at_zero_threshold(self):
        model = constant_ensemble([1] * 4)
        verdict = gate(model, [0.0], threshold=0.0)
        assert [f.name for f in fields(Verdict)] == ["prediction", "label"]
        assert verdict.label == 1

    def test_even_split_rejected(self):
        model = constant_ensemble([0] * 5 + [1] * 5)
        verdict = gate(model, [0.0], threshold=0.40)
        assert verdict.label is None

    def test_six_two_split_accepted_at_higher_threshold(self):
        model = constant_ensemble([1] * 6 + [0] * 2)
        verdict = gate(model, [0.0], threshold=0.9)
        assert verdict.label == 1

    def test_negative_threshold_rejected(self):
        model = constant_ensemble([1] * 2)
        for threshold in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="threshold"):
                gate(model, [0.0], threshold=threshold)

    def test_outside_training_box_rejected_at_max_threshold(self,
                                                            small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=9),
                    small_dataset)
        far = small_dataset.x.max(axis=0) + [20.0, 0.0]
        verdict = gate(model, far, threshold=1.0)
        assert verdict.prediction.support is False
        assert verdict.label is None
        # the votes stay the members' own and agree, so the entropy-only
        # rule (entropy > threshold) would accept: the box only gates
        votes = np.bincount(verdict.prediction.per_learner_labels,
                            minlength=2) / 9
        assert np.array_equal(verdict.prediction.vote_distribution, votes)
        assert verdict.prediction.entropy == entropy_of(votes) == 0.0

    def test_batch_refused_with_its_shape(self, small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3),
                    small_dataset)
        for n in (2, 1):
            with pytest.raises(ValueError) as info:
                gate(model, small_dataset.x[:n], threshold=0.5)
            assert str(info.value) == (f"gate takes one sample of shape "
                                       f"(2,), got shape ({n}, 2)")

    def test_non_finite_input_raises(self, small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3),
                    small_dataset)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                gate(model, [0.0, bad], threshold=1.0)
            with pytest.raises(ValueError, match="non-finite"):
                predict(model, [[0.0, 0.0], [bad, 0.0]])

    def test_overflowing_input_rejected_without_warning(self, small_dataset):
        # feature 1 spread 0.1: 1.79e308 / its std overflows to inf
        x = small_dataset.x * [1.0, 0.1]
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=9),
                    replace(small_dataset, x=x))
        assert model.standardizer.std[1] < 1.0
        rows = np.vstack([x[:4], [[0.0, 1.79e308], [0.0, -1.79e308]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = predict(model, rows)
            verdicts = [gate(model, r, threshold=1.0) for r in rows]
            z = model.standardizer.transform(rows[4:])
        big = 2.0 ** 511                  # its square stays below float max
        assert z[:, 1].tolist() == [big, -big]
        assert [v.prediction.support for v in verdicts[4:]] == [False, False]
        assert [v.label for v in verdicts[4:]] == [None] * 2
        assert batch.support.tolist() == [True] * 4 + [False] * 2
        clean = predict(model, rows[:4])
        assert batch.entropy[:4].tobytes() == clean.entropy.tobytes()
        assert batch.vote_distribution[:4].tobytes() == \
            clean.vote_distribution.tobytes()

    def test_inside_training_box_unaffected(self, small_dataset):
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=9),
                    small_dataset)
        # inside the box, each verdict is the entropy-only rule's
        for x in small_dataset.x:
            verdict = gate(model, x, threshold=0.5)
            pred = verdict.prediction
            uncertain = pred.entropy > 0.5
            assert pred.support is True
            assert verdict.label == (None if uncertain else pred.label)

    def test_monotone_rejection_sets(self, small_dataset):
        overlap = make_binary_dataset(n=120, d=2, separation=0.5, seed=2)
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=15),
                    overlap)
        entropies = np.array([predict(model, x).entropy for x in overlap.x])
        for t1, t2 in [(0.1, 0.5), (0.3, 0.9), (0.0, 0.2)]:
            rejected_t1 = set(np.nonzero(entropies > t1)[0])
            rejected_t2 = set(np.nonzero(entropies > t2)[0])
            assert rejected_t2 <= rejected_t1

    def test_rejected_gives_a_bool_for_one_and_an_array_for_a_batch(self):
        overlap = make_binary_dataset(n=120, d=2, separation=0.5, seed=2)
        model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=15),
                    overlap)
        # rows just inside and just outside the box's upper edge on
        # feature 0, beside rows whose entropies straddle each threshold
        std, mean = model.standardizer.std, model.standardizer.mean
        edge = model.support.high[0] * std[0] + mean[0]
        rows = np.vstack([overlap.x[:40],
                          [[edge - 1e-6, 0.0], [edge + 1e-6, 0.0]]])
        batch = predict(model, rows)
        assert batch.support.tolist() == [True] * 41 + [False]
        entropies = sorted(set(batch.entropy.tolist()))
        assert len(entropies) > 2
        for t in [0.0, *entropies, *np.nextafter(entropies, -1.0)[1:]]:
            decisions = rejected(batch, t)
            assert isinstance(decisions, np.ndarray)
            assert decisions.dtype == bool
            assert decisions.tolist() == ((batch.entropy > t)
                                          | ~batch.support).tolist()
            ones = [rejected(predict(model, r), t) for r in rows]
            assert all(type(one) is bool for one in ones)
            assert ones == decisions.tolist()


@pytest.mark.parametrize("mode", ["hard_vote", "soft_average"])
@pytest.mark.parametrize("kind", ["tree", "logistic", "linear_svm"])
def test_results_do_not_depend_on_memory_layout(kind, mode, tmp_path):
    data = make_binary_dataset(n=300, d=4, separation=1.0, seed=6)
    f_data = replace(data, x=np.asfortranarray(data.x))
    assert not f_data.x.flags.c_contiguous
    config = EnsembleConfig(base=LearnerConfig(kind=kind), m=7,
                            posterior_mode=mode)
    model = fit(config, data)
    save_model(model, tmp_path / "c")
    save_model(fit(config, f_data), tmp_path / "f")
    assert (tmp_path / "c").read_bytes() == (tmp_path / "f").read_bytes()
    rows = make_binary_dataset(n=300, d=4, separation=1.0, seed=7).x
    c, f = predict(model, rows), predict(model, np.asfortranarray(rows))
    for field in fields(Prediction):
        assert np.asarray(getattr(c, field.name)).tobytes() == \
            np.asarray(getattr(f, field.name)).tobytes(), field.name


@pytest.fixture(scope="module")
def fitted_models(tmp_path_factory):
    """One overlapping-class ensemble per learner kind, so votes split; the
    tree one also as load_model reads it back, cut to its first 3 members,
    and with its last 3 members swapped for logistic ones."""
    data = make_binary_dataset(n=80, d=3, separation=1.0, seed=4)
    models = {kind: fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=7,
                                       master_seed=2), data)
              for kind in ("tree", "logistic", "linear_svm")}
    trees = models["tree"]
    path = tmp_path_factory.mktemp("trees") / "model.json"
    save_model(trees, path)
    models["tree-loaded"] = load_model(path)
    models["tree-first-3"] = replace(trees, learners=trees.learners[:3],
                                     config=replace(trees.config, m=3))
    models["tree-and-logistic"] = replace(
        trees, learners=trees.learners[:4] + models["logistic"].learners[:3])
    return models


@pytest.mark.parametrize("mode", ["hard_vote", "soft_average"])
@pytest.mark.parametrize("kind", ["tree", "logistic", "linear_svm",
                                  "tree-loaded", "tree-first-3",
                                  "tree-and-logistic"])
@settings(max_examples=40, deadline=None)
@given(rows=arrays(np.float64,
                   st.tuples(st.integers(1, 9) | st.just(LEVEL_WALK_ROWS),
                             st.just(3)),
                   elements=st.floats(-12, 12) | st.sampled_from(
                       [1e300, -1e300, 1.79e308, -1.79e308, 7e153, -7e153])))
def test_batch_rows_equal_single_samples(fitted_models, kind, mode, rows):
    model = fitted_models[kind]
    model = replace(model, config=replace(model.config, posterior_mode=mode))
    batch = predict(model, rows)
    assert batch.per_learner_labels.shape == (len(rows), model.config.m)
    for i, x in enumerate(rows):
        # gate's prediction, from one loop over all trees where every
        # member is one and from a one-row batch otherwise, is predict's
        for one in (predict(model, x), gate(model, x, 0.5).prediction):
            assert batch.vote_distribution[i].tobytes() == \
                one.vote_distribution.tobytes()
            assert tuple(batch.per_learner_labels[i].tolist()) == \
                one.per_learner_labels
            assert all(type(v) is int for v in one.per_learner_labels)
            assert type(one.entropy) is float
            assert batch.entropy[i].tobytes() == \
                np.float64(one.entropy).tobytes()
            if mode == "hard_vote":
                assert np.float64(one.entropy).tobytes() == entropy_of(
                    one.vote_distribution,
                    model.config.entropy_log_base).tobytes()
            assert type(one.label) is int and one.label == batch.label[i]
            assert one.support is bool(batch.support[i])
    z = model.standardizer.transform(rows)
    for learner in model.learners:
        assert learner.predict_label(z).tolist() == \
            [learner.predict_label(r) for r in z]
        assert learner.predict_proba(z).tobytes() == \
            np.array([learner.predict_proba(r) for r in z]).tobytes()


@st.composite
def tree_ensembles(draw):
    """Trees of differing depths, single leaves among them, on 2 or 3
    classes, and rows to predict, some on a split's threshold."""
    n_classes = draw(st.sampled_from([2, 3]))
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    data = Dataset(x=rng.integers(-3, 4, size=(n, d)) / 2.0,
                   y=rng.integers(0, n_classes, size=n),
                   app_ids=("a",) * n, n_classes=n_classes)
    learners = []
    for seed in range(draw(st.integers(1, 6))):
        tree = TreeParams(max_depth=draw(st.one_of(st.none(),
                                                   st.integers(1, 4))))
        rows = rng.integers(0, n, size=n)
        if draw(st.booleans()):                  # one class: a single leaf
            rows = rows[data.y[rows] == data.y[rows[0]]]
        learners.append(train(LearnerConfig(kind="tree", tree=tree), data,
                              rows, seed))
    mode = draw(st.sampled_from(["hard_vote", "soft_average"]))
    model = EnsembleModel(
        learners=tuple(learners),
        standardizer=Standardizer(mean=np.zeros(d), std=np.ones(d)),
        config=EnsembleConfig(m=len(learners), posterior_mode=mode),
        n_classes=n_classes,
        support=SupportBox(low=np.full(d, -2.0), high=np.full(d, 2.0)))
    # values on the grid and on the splits' thresholds, where a row goes left
    values = np.concatenate([np.arange(-4, 5) / 2.0,
                             [node.threshold for l in learners
                              for node in l.nodes if node.feature != LEAF]])
    return model, rng.choice(values, size=(draw(st.integers(1, 8)), d))


@settings(max_examples=200)
@given(case=tree_ensembles())
def test_tree_votes_equal_node_by_node_walk(case):
    model, rows = case
    batch = predict(model, rows)
    for i, x in enumerate(rows):
        counts = [np.array(l.nodes[leaf_of(l, x)].counts)
                  for l in model.learners]
        votes = tuple(int(c.argmax()) for c in counts)
        if model.config.posterior_mode == "hard_vote":
            dist = np.bincount(votes, minlength=model.n_classes) / len(votes)
        else:
            dist = np.mean([c / c.sum() for c in counts], axis=0)
        assert tuple(batch.per_learner_labels[i].tolist()) == votes
        assert batch.vote_distribution[i].tobytes() == dist.tobytes()
        for one in (predict(model, x), gate(model, x, 0.5).prediction):
            assert one.per_learner_labels == votes
            assert one.vote_distribution.tobytes() == dist.tobytes()
            assert np.float64(one.entropy).tobytes() == \
                batch.entropy[i].tobytes()
            assert one.label == batch.label[i]
            assert one.support is bool(batch.support[i])


@pytest.mark.parametrize("mode", ["hard_vote", "soft_average"])
def test_gate_on_trees_asks_no_member(fitted_models, monkeypatch, mode):
    # gate walks every tree in one loop; a one-sample predict is a
    # one-row batch, which asks each member
    model = fitted_models["tree"]
    model = replace(model, config=replace(model.config, posterior_mode=mode))
    rows = make_binary_dataset(n=20, d=3, separation=1.0, seed=5).x
    batch = predict(model, rows)

    def refuse(self, x):
        raise AssertionError("a member was asked")

    monkeypatch.setattr(TreeLearner, "predict_label", refuse)
    monkeypatch.setattr(TreeLearner, "predict_proba", refuse)
    for i, x in enumerate(rows):
        verdict = gate(model, x, 0.5)
        assert verdict.prediction.vote_distribution.tobytes() == \
            batch.vote_distribution[i].tobytes()
        assert verdict.label == (None if rejected(batch, 0.5)[i]
                                 else batch.label[i])
    with pytest.raises(AssertionError, match="a member was asked"):
        predict(model, rows[0])


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(m=0)
    with pytest.raises(ValueError):
        EnsembleConfig(posterior_mode="median")
    with pytest.raises(ValueError):
        EnsembleConfig(entropy_log_base=10.0)
    # numpy's SeedSequence would fail on it inside fit, after standardizing
    with pytest.raises(ValueError,
                       match=r"^master_seed must be an integer >= 0, "
                             r"got -1$"):
        EnsembleConfig(master_seed=-1)


@pytest.mark.parametrize("field_name, value", [
    *(("m", v) for v in (2.0, True, np.int64(2), "2")),
    *(("master_seed", v) for v in (1.5, True, np.int64(0))),
])
def test_config_refuses_wrong_types(field_name, value):
    # fit ran on m=True, and on m=2.0 died inside numpy with a TypeError
    with pytest.raises(ValueError) as info:
        EnsembleConfig(**{field_name: value})
    assert str(info.value) == (f"{field_name} must be an integer >= "
                               f"{int(field_name == 'm')}, got {value!r}")


def vote_tree(feature, k, d):
    """A tree over ``d`` features that votes ``round(x[feature])`` for
    values 0..k-1: a chain of splits at 0.5, 1.5, ..., k - 1.5."""
    nodes = []
    for c in range(k - 1):
        me = len(nodes)
        nodes.append(TreeNode(feature, c + 0.5, me + 1, me + 2, (1.0,) * k))
        nodes.append(TreeNode(LEAF, 0.0, LEAF, LEAF,
                              tuple(float(i == c) for i in range(k))))
    nodes.append(TreeNode(LEAF, 0.0, LEAF, LEAF,
                          tuple(float(i == k - 1) for i in range(k))))
    return TreeLearner(nodes=tuple(nodes), n_features=d, seed_used=0)


def voting_model(k, m, log_base=2.0):
    """M tree members on M standardized features, member j voting the value
    of feature j, so a row is its own vote vector; the box is [-1, k]."""
    return EnsembleModel(
        learners=tuple(vote_tree(j, k, m) for j in range(m)),
        standardizer=Standardizer(mean=np.zeros(m), std=np.ones(m)),
        config=EnsembleConfig(m=m, entropy_log_base=log_base),
        n_classes=k,
        support=SupportBox(low=np.full(m, -1.0), high=np.full(m, float(k))))


class TestOneSampleHardVote:
    """One sample's hard-vote tail, counted in Python, against a batch."""

    @pytest.mark.parametrize("log_base", [2.0, math.e],
                             ids=["base2", "base-e"])
    @pytest.mark.parametrize("m", [1, 7, 25])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_rows_equal_batch_rows_bit_for_bit(self, k, m, log_base):
        model = voting_model(k, m, log_base)
        rng = np.random.default_rng([k, m])
        # each row's votes drawn from its own class shares, so that both
        # unanimous and evenly split rows occur
        shares = rng.dirichlet(np.full(k, 0.5), size=160)
        votes = np.array([rng.choice(k, size=m, p=p) for p in shares])
        batch = predict(model, votes.astype(float))
        for i, row in enumerate(votes.astype(float)):
            for one in (predict(model, row), gate(model, row, 0.5).prediction):
                assert one.per_learner_labels == tuple(votes[i].tolist())
                assert one.vote_distribution.dtype == np.float64
                assert one.vote_distribution.tobytes() == \
                    batch.vote_distribution[i].tobytes()
                assert type(one.entropy) is float
                assert np.float64(one.entropy).tobytes() == \
                    batch.entropy[i].tobytes()
                assert type(one.label) is int and one.label == batch.label[i]
                assert one.support is bool(batch.support[i]) is True

    @pytest.mark.parametrize("votes,label", [
        ([1, 0, 1, 0], 0), ([2, 1, 2, 1, 0], 1), ([2, 0, 1], 0),
        ([3, 3, 2, 2, 1, 1], 1)])
    def test_tied_votes_give_the_lowest_class(self, votes, label):
        model = voting_model(4, len(votes))
        row = np.array(votes, dtype=float)
        assert predict(model, row).label == label
        assert predict(model, row[None]).label.tolist() == [label]

    def test_writing_a_result_leaves_the_next_unchanged(self):
        model = voting_model(3, 7)
        row = np.array([0, 0, 1, 2, 2, 2, 0], dtype=float)
        first = predict(model, row)
        want = first.vote_distribution.tobytes()
        first.vote_distribution[:] = 5.0
        assert predict(model, row).vote_distribution.tobytes() == want
        assert predict(model, row).entropy == first.entropy

    def test_box_edges_alone_and_in_a_batch(self):
        low, high = np.array([-1.0, -2.5]), np.array([1.0, 3.0])
        model = replace(voting_model(2, 2),
                        support=SupportBox(low=low, high=high))
        rows, inside = [], []
        for f in range(2):
            for edge, beyond in ((low, -np.inf), (high, np.inf)):
                on = np.where(np.arange(2) == f, edge, 0.0)
                past = on.copy()
                past[f] = np.nextafter(edge[f], beyond)
                rows += [on, past]
                inside += [True, False]
        rows = np.array(rows)
        assert [predict(model, r).support for r in rows] == inside
        assert [gate(model, r, 1.0).prediction.support for r in rows] == inside
        assert [model.support.contains(r) for r in rows] == inside
        assert predict(model, rows).support.tolist() == inside
        assert model.support.contains(rows).tolist() == inside
