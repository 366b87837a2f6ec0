import json
from dataclasses import replace

import numpy as np
import pytest

from voteguard.core import Dataset
from voteguard.ensemble import EnsembleConfig, fit, gate, predict
from voteguard.learners import ConstantLearner, LearnerConfig
from voteguard.persist import ModelFormatError, load_model, save_model
from conftest import make_binary_dataset


@pytest.mark.parametrize("kind", ["tree", "logistic", "linear_svm"])
def test_round_trip_reproduces_predictions(kind, tmp_path):
    data = make_binary_dataset(n=80, d=3, separation=2.0, seed=4)
    model = fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=6,
                               master_seed=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    assert loaded.n_classes == model.n_classes
    assert loaded.config == model.config
    rng = np.random.default_rng(0)
    for x in rng.uniform(-5, 5, size=(50, 3)):
        a, b = predict(model, x), predict(loaded, x)
        assert np.array_equal(a.vote_distribution, b.vote_distribution)
        assert a.entropy == b.entropy
        assert a.label == b.label
        assert a.per_learner_labels == b.per_learner_labels


def test_support_box_round_trip_is_bit_exact(tmp_path):
    data = make_binary_dataset(n=80, d=3, separation=2.0, seed=4)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.support.low.tobytes() == model.support.low.tobytes()
    assert loaded.support.high.tobytes() == model.support.high.tobytes()


def test_model_without_support_box_accepts_on_support(tmp_path):
    data = make_binary_dataset(n=80, d=3, separation=2.0, seed=4)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["support"]
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    far = data.x.max(axis=0) + 50.0
    assert loaded.support is None
    assert predict(loaded, far).support is True
    assert predict(loaded, np.array([far])).support.tolist() == [True]
    assert gate(model, far, threshold=1.0).label is None
    assert gate(loaded, far, threshold=1.0).label is not None


def test_support_box_of_wrong_width_rejected(tmp_path):
    data = make_binary_dataset(n=30, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["support"]["high"] = doc["support"]["high"][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="support box"):
        load_model(path)


def test_constant_learner_round_trip(tmp_path):
    data = make_binary_dataset(n=20, d=2, seed=0)
    rows = np.nonzero(data.y == 1)[0]
    single = Dataset(x=data.x[rows], y=data.y[rows],
                     app_ids=("app-1",) * len(rows), n_classes=2)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=3), single)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert predict(loaded, [0.0, 0.0]).label == 1


@pytest.mark.parametrize("mode", ["hard_vote", "soft_average"])
def test_mixed_members_vote_in_member_order(tmp_path, mode):
    data = make_binary_dataset(n=80, d=3, separation=1.0, seed=4)
    trees = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3), data)
    linear = fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=2),
                 data)
    constant = ConstantLearner(label=1, n_classes=2, n_features=3,
                               seed_used=0)
    t, l = trees.learners, linear.learners
    members = (l[0], t[0], constant, t[1], l[1], t[2])
    model = replace(trees, learners=members,
                    config=replace(trees.config, m=6, posterior_mode=mode))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    x = np.random.default_rng(0).uniform(-3, 3, size=(40, 3))
    z = loaded.standardizer.transform(x)
    expected = np.column_stack([m.predict_label(z) for m in loaded.learners])
    proba = np.mean([m.predict_proba(z) for m in loaded.learners], axis=0)
    pred = predict(loaded, x)
    assert [type(m) for m in loaded.learners] == [type(m) for m in members]
    assert np.array_equal(pred.per_learner_labels, expected)
    assert pred.per_learner_labels[:, 2].tolist() == [1] * 40
    if mode == "soft_average":
        assert pred.vote_distribution.tobytes() == proba.tobytes()
    for i, row in enumerate(x):
        assert predict(loaded, row).per_learner_labels == tuple(expected[i])


def test_class_names_survive(tmp_path):
    data = make_binary_dataset(n=30, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).class_names == ("benign", "malware")


def test_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)


def test_rejects_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('["voteguard-ensemble"]')
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)


def test_rejects_future_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "voteguard-ensemble", "format_version": 99}')
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_legacy_learning_rate_key_loads_bit_identically(tmp_path):
    data = make_binary_dataset(n=80, d=3, separation=2.0, seed=4)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="linear_svm"), m=4),
                data)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert "learning_rate" not in doc["config"]["base"]["gradient"]
    doc["config"]["base"]["gradient"]["learning_rate"] = 0.1
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    assert loaded.config == model.config
    x = np.random.default_rng(0).uniform(-5, 5, size=(50, 3))
    a, b = predict(model, x), predict(loaded, x)
    assert np.array_equal(a.per_learner_labels, b.per_learner_labels)
    assert a.entropy.tobytes() == b.entropy.tobytes()
    for la, lb in zip(model.learners, loaded.learners):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias == lb.bias


@pytest.mark.parametrize("block", ["tree", "gradient"])
def test_unknown_config_field_rejected(tmp_path, block):
    data = make_binary_dataset(n=30, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["config"]["base"][block]["momentum"] = 0.9
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="momentum"):
        load_model(path)


def test_config_keys_follow_field_order(tmp_path):
    # model files are written unsorted: a field reorder changes the format
    data = make_binary_dataset(n=30, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    config = json.loads(path.read_text())["config"]
    assert list(config) == ["m", "master_seed", "posterior_mode",
                            "entropy_log_base", "base"]
    assert list(config["base"]) == ["kind", "seed", "tree", "gradient"]
    assert list(config["base"]["tree"]) == ["max_depth", "min_samples_split",
                                            "feature_subsample"]
    assert list(config["base"]["gradient"]) == ["max_iters", "tolerance",
                                                "l2"]
