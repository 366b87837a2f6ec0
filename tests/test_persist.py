import functools
import json
import math
import operator
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voteguard.core import Dataset
from voteguard.ensemble import EnsembleConfig, fit, gate, predict
from voteguard.learners import (GradientParams, LearnerConfig,
                                LinearLearner, TreeParams)
from voteguard.persist import ModelFormatError, load_model, save_model
from conftest import TRICKY, make_binary_dataset


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


@pytest.mark.parametrize("feature,low", [(0, [1e308] * 3),
                                         (2, [-9.0, -9.0, 9.5])])
def test_inverted_support_box_rejected(tmp_path, feature, low):
    data = make_binary_dataset(n=30, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["support"]["low"] = low
    doc["support"]["high"] = [9.0] * 3
    path.write_text(json.dumps(doc))
    message = f"{path}: support box low exceeds high at feature {feature}"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


def test_constant_learner_round_trip(tmp_path):
    data = make_binary_dataset(n=20, d=2, seed=0)
    rows = np.nonzero(data.y == 1)[0]
    single = Dataset(x=data.x[rows], y=data.y[rows],
                     app_ids=("app-1",) * len(rows), n_classes=2)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=3), single)
    path = tmp_path / "model.json"
    save_model(model, path)
    # each member is a linear one with zero weights and a bias of 1e300
    learners = json.loads(path.read_text())["learners"]
    assert [(m["weights"], m["bias"]) for m in learners] == \
        [([0.0, 0.0], 1e300)] * 3
    loaded = load_model(path)
    assert predict(loaded, [0.0, 0.0]).label == 1


def test_log_base_e_round_trip(tmp_path):
    data = make_binary_dataset(n=40, d=3, separation=1.0, seed=3)
    model = fit(EnsembleConfig(m=3, entropy_log_base=math.e), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["config"]["entropy_log_base"] == "e"
    loaded = load_model(path)
    assert loaded.config == model.config
    x = data.x[:10]
    assert predict(loaded, x).entropy.tobytes() == \
        predict(model, x).entropy.tobytes()


@pytest.fixture(scope="module")
def logistic_doc(tmp_path_factory):
    """A saved two-member logistic model, as its JSON document."""
    data = make_binary_dataset(n=40, d=3, separation=1.0, seed=3)
    path = tmp_path_factory.mktemp("logistic") / "model.json"
    save_model(fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=2),
                   data), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("member,message", [
    (lambda linear: {**linear, "weights": [2.0 ** 510] * 3},
     "learner 0: weights must sum in magnitude to at most 2**511"),
], ids=["weights-past-2-511"])
def test_member_out_of_range_rejected(logistic_doc, tmp_path, member,
                                      message):
    doc = json.loads(json.dumps(logistic_doc))
    doc["learners"][0] = member(doc["learners"][0])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("mode", ["hard_vote", "soft_average"])
def test_mixed_members_vote_in_member_order(tmp_path, mode):
    # a model in memory may mix any members; a file holds the members train
    # makes for its config.base.kind, here linear ones, one of them what a
    # one-class replicate gives
    data = make_binary_dataset(n=80, d=3, separation=1.0, seed=4)
    trees = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=3), data)
    linear = fit(EnsembleConfig(base=LearnerConfig(kind="logistic"), m=2),
                 data)
    constant = LinearLearner(weights=np.zeros(3), bias=1e300, converged=True,
                             seed_used=0)
    t, l = trees.learners, linear.learners
    mixed = replace(trees, learners=(l[0], constant, t[0], t[1], l[1], t[2]),
                    config=replace(trees.config, m=6, posterior_mode=mode))
    saved = replace(linear, learners=(l[0], constant, l[1]),
                    config=replace(linear.config, m=3, posterior_mode=mode))
    path = tmp_path / "model.json"
    save_model(saved, path)
    loaded = load_model(path)
    assert [type(m) for m in loaded.learners] == \
        [type(m) for m in saved.learners]
    x = np.random.default_rng(0).uniform(-3, 3, size=(40, 3))
    for model in (mixed, loaded):
        z = model.standardizer.transform(x)
        expected = np.column_stack([m.predict_label(z)
                                    for m in model.learners])
        proba = np.mean([m.predict_proba(z) for m in model.learners], axis=0)
        pred = predict(model, x)
        assert np.array_equal(pred.per_learner_labels, expected)
        assert pred.per_learner_labels[:, 1].tolist() == [1] * 40
        if mode == "soft_average":
            assert pred.vote_distribution.tobytes() == proba.tobytes()
        for i, row in enumerate(x):
            assert predict(model, row).per_learner_labels == \
                tuple(expected[i])
            assert gate(model, row, 1.0).prediction.per_learner_labels == \
                tuple(expected[i])


@pytest.mark.parametrize("kind, member", [
    ("tree", 0), ("tree", 1), ("logistic", 1), ("linear_svm", 0)])
def test_members_of_another_kind_are_not_saved(tmp_path, kind, member):
    # a file whose members are not of config.base.kind failed to load, as
    # "unknown linear member fields ['nodes']"; the save now fails first,
    # and leaves the file it would have replaced as it was
    data = make_binary_dataset(n=40, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=2), data)
    other = fit(EnsembleConfig(base=LearnerConfig(
        kind="logistic" if kind == "tree" else "tree"), m=1), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    learners = list(model.learners)
    learners[member] = other.learners[0]
    with pytest.raises(ValueError) as info:
        save_model(replace(model, learners=tuple(learners)), path)
    assert str(info.value) == (
        f"learner {member} is a {type(other.learners[0]).__name__}, not a "
        f"member of config.base.kind {kind!r}")
    assert path.read_bytes() == before


def test_member_count_other_than_config_m_is_not_saved(tmp_path):
    # such a file failed to load, as "config.m is 5 but the file holds 3
    # learners"; the save now fails first, and leaves the file as it was
    data = make_binary_dataset(n=40, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=5), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    with pytest.raises(ValueError) as info:
        save_model(replace(model, learners=model.learners[:3]), path)
    assert str(info.value) == "config.m is 5 but the model holds 3 learners"
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", ["tree", "logistic", "linear_svm"])
def test_saved_model_has_one_line_per_member(tmp_path, kind):
    # the header keys on one line, each member on its own, then "]}"
    data = make_binary_dataset(n=80, d=3, separation=1.0, seed=4)
    model = fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=7), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 7 + 2
    assert lines[0].endswith('"learners":[') and lines[-1] == "]}"
    for i, line in enumerate(lines[1:-1]):
        member = json.loads(line.removesuffix(","))
        assert member["seed_used"] == model.learners[i].seed_used
    x = np.random.default_rng(0).uniform(-5, 5, size=(60, 3))
    a, b = predict(model, x), predict(load_model(path), x)
    assert a.vote_distribution.tobytes() == b.vote_distribution.tobytes()
    assert a.entropy.tobytes() == b.entropy.tobytes()
    assert np.array_equal(a.per_learner_labels, b.per_learner_labels)


def _with_nan(model, where):
    """``model`` with a NaN or an infinity at ``where``."""
    std, box = model.standardizer, model.support
    if where == "std":
        return replace(model, standardizer=replace(
            std, std=np.append(std.std[:-1], math.inf)))
    if where == "box":
        return replace(model, support=replace(
            box, low=np.append(-math.inf, box.low[1:])))
    learners = list(model.learners)
    member = learners[1]
    if where == "threshold":
        nodes = list(member.nodes)
        nodes[0] = nodes[0]._replace(threshold=math.nan)
        learners[1] = replace(member, nodes=tuple(nodes))
    elif where == "count":
        nodes = list(member.nodes)
        nodes[-1] = nodes[-1]._replace(counts=(math.inf, 1.0))
        learners[1] = replace(member, nodes=tuple(nodes))
    elif where == "weight":
        learners[1] = replace(member, weights=np.append(math.nan,
                                                        member.weights[1:]))
    else:
        learners[1] = replace(member, bias=-math.inf)
    return replace(model, learners=tuple(learners))


@pytest.mark.parametrize("kind, where, problem", [
    ("tree", "threshold", "learner 1"),
    ("tree", "count", "learner 1"),
    ("tree", "std", "the standardizer or support box"),
    ("logistic", "weight", "learner 1"),
    ("logistic", "bias", "learner 1"),
    ("logistic", "box", "the standardizer or support box"),
])
def test_non_finite_value_is_not_saved(tmp_path, kind, where, problem):
    # such a file was written with NaN or Infinity in it, and then
    # load_model refused it; the save now fails first and writes nothing
    data = make_binary_dataset(n=40, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=3), data)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as info:
        save_model(_with_nan(model, where), path)
    assert str(info.value) == (f"{problem} holds a non-finite value, which "
                               "load_model refuses")
    assert not path.exists()


@pytest.fixture(scope="module")
def tree_doc(tmp_path_factory):
    """A saved ten-member tree model, as its JSON document."""
    data = make_binary_dataset(n=80, d=3, separation=1.0, seed=4)
    path = tmp_path_factory.mktemp("trees") / "model.json"
    save_model(fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=10),
                   data), path)
    doc = json.loads(path.read_text())
    assert all(len(member["nodes"]) > 3 for member in doc["learners"])
    return doc


def _first_split(nodes):
    return next(j for j, node in enumerate(nodes) if node[0] >= 0)


@pytest.mark.parametrize("first", ["converged", "child"])
def test_fault_in_the_earliest_member_is_named(tree_doc, tmp_path, first):
    # the node lists are checked together, but a member's fault is named
    # before any fault of a later member, whichever check finds it
    doc = json.loads(json.dumps(tree_doc))
    members = doc["learners"]
    bad_converged, bad_child = (1, 4) if first == "converged" else (4, 1)
    members[bad_converged]["converged"] = "yes"
    nodes = members[bad_child]["nodes"]
    j = _first_split(nodes)
    nodes[j][2] = j
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    if first == "converged":
        message = "learner 1: converged must be true or false, got 'yes'"
    else:
        message = (f"learner 1: tree node {j} {nodes[j]!r}: children must be "
                   f"node indices above the node's own and below "
                   f"{len(nodes)}")
    assert str(info.value) == f"{path}: {message}"


def test_first_faulty_member_named_before_an_earlier_check(tree_doc,
                                                           tmp_path):
    # learner 9's fault is one that an earlier check finds (a feature that
    # is not an integer), and learner 7's a later one (a negative count):
    # learner 7 is named, with the message a tree-by-tree check gave
    doc = json.loads(json.dumps(tree_doc))
    members = doc["learners"]
    members[9]["nodes"][0][0] = "x"
    node = members[7]["nodes"][3]
    node[4][0] = -1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == (
        f"{path}: learner 7: tree node 3 {node!r}: counts must be finite, "
        ">= 0, not all 0 and sum to a finite number")


def test_class_names_survive(tmp_path):
    data = make_binary_dataset(n=30, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).class_names == ("benign", "malware")


# names Dataset accepts, and names it refuses: empty, padded, not strings
NAME = st.one_of(TRICKY, st.sampled_from(["", " a", "a\n", "b"]),
                 st.integers(0, 1))


@settings(max_examples=40)
@given(names=st.tuples(NAME, NAME))
def test_model_fitted_on_any_dataset_reloads(names):
    # ("a", "a") and (0, 1) were fitted and saved, and then load_model
    # refused the file: every check of the names now comes first
    data = make_binary_dataset(n=20, seed=3)
    valid = (all(isinstance(n, str) and n and n == n.strip() for n in names)
             and names[0] != names[1])
    if not valid:
        with pytest.raises(ValueError, match="^class_names must be "):
            replace(data, class_names=names)
        return
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2),
                replace(data, class_names=names))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, path)
        assert load_model(path).class_names == names


@pytest.mark.parametrize("names,problem", [
    (["benign", "benign"], "must be unique, got ['benign', 'benign']"),
    ([" benign", "malware"], "must be non-empty and without surrounding "
                             "whitespace, got ' benign'"),
    (["benign", ""], "must be non-empty and without surrounding "
                     "whitespace, got ''"),
    ([0, 1], "must be strings, got 0"),
    (["benign"], "must be a list of 2 names, got ['benign']"),
    ("bm", "must be a list of 2 names, got 'bm'"),
], ids=["twice", "padded", "empty", "ints", "one", "string"])
def test_class_names_a_dataset_refuses_rejected(tmp_path, names, problem):
    data = make_binary_dataset(n=30, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["class_names"] = names
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: class_names {problem}"


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


def test_rejects_format_1_with_advice_to_retrain(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"format": "voteguard-ensemble", "format_version": 1}')
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == (f"{path}: format_version 1 is no longer read; "
                               f"retrain the model to write format_version 2")


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


@pytest.mark.parametrize("make, problem", [
    (lambda: EnsembleConfig(m=True), "m must be an integer >= 1, got True"),
    (lambda: EnsembleConfig(m=2, base=LearnerConfig(
        tree=TreeParams(max_depth=True))),
     "max_depth must be an integer >= 1 or None, got True"),
    (lambda: EnsembleConfig(m=2, base=LearnerConfig(
        tree=TreeParams(min_samples_split=2.5))),
     "min_samples_split must be an integer >= 2, got 2.5"),
    (lambda: EnsembleConfig(m=2, base=LearnerConfig(
        gradient=GradientParams(l2=True))),
     "l2 must be a finite number >= 0, got True"),
], ids=["m", "max-depth", "min-samples-split", "l2"])
def test_config_the_loader_refuses_is_not_saved(make, problem):
    # fit took these values, and only save_model refused them; the config
    # classes now refuse them, so no model can hold one
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == problem


@pytest.mark.parametrize("key, value, problem", [
    ("m", 2.0, "config.m must be an integer >= 1, got 2.0"),
    # format 2 stores no seed: the fit draws each member's from master_seed
    ("base.seed", True, "unknown LearnerConfig fields ['seed']"),
    ("base.tree.max_depth", 2.5, "config.base.tree.max_depth must be an "
                                 "integer >= 1 or None, got 2.5"),
    ("base.gradient.tolerance", "1e-6", "config.base.gradient.tolerance "
                                        "must be a finite number > 0, got "
                                        "'1e-6'"),
    ("posterior_mode", 0, "config.posterior_mode must be 'hard_vote' or "
                          "'soft_average', got 0"),
    ("entropy_log_base", 2, "config.entropy_log_base must be the log base "
                            "tag '2' or 'e', got 2"),
], ids=["m", "seed", "max-depth", "tolerance", "posterior-mode", "log-base"])
def test_config_error_names_its_block(tmp_path, key, value, problem):
    # the config class checks a loaded value, and the loader names its block
    path = tmp_path / "model.json"
    save_model(fit(EnsembleConfig(m=2), make_binary_dataset(n=30, seed=1)),
               path)
    doc = json.loads(path.read_text())
    *parents, last = key.split(".")
    functools.reduce(operator.getitem, parents, doc["config"])[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {problem}"


def test_failed_save_leaves_the_old_file(tmp_path):
    # a value JSON cannot hold left a truncated file in place of the model
    data = make_binary_dataset(n=30, d=3, seed=1)
    path = tmp_path / "model.json"
    save_model(fit(EnsembleConfig(m=2), data), path)
    before = path.read_bytes()
    model = fit(EnsembleConfig(m=2), replace(data, n_classes=np.int64(2)))
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == before


def test_config_keys_follow_field_order(tmp_path):
    # model files are written unsorted: a field reorder changes the format
    data = make_binary_dataset(n=30, d=3, seed=1)
    model = fit(EnsembleConfig(base=LearnerConfig(kind="tree"), m=2), data)
    path = tmp_path / "model.json"
    save_model(model, path)
    config = json.loads(path.read_text())["config"]
    assert list(config) == ["m", "master_seed", "posterior_mode",
                            "entropy_log_base", "base"]
    assert list(config["base"]) == ["kind", "tree", "gradient"]
    assert list(config["base"]["tree"]) == ["max_depth", "min_samples_split",
                                            "feature_subsample"]
    assert list(config["base"]["gradient"]) == ["max_iters", "tolerance",
                                                "l2"]


def _paths(doc, path=()):
    """The path of every value inside a JSON document, as a list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        paths.append(path + (key,))
        if isinstance(value, (dict, list)):
            paths += _paths(value, path + (key,))
    return paths


@pytest.fixture(scope="module")
def saved_docs(tmp_path_factory):
    """A hard-vote tree model and a soft-average logistic model, as their
    saved JSON documents, each with the paths of all its values and of all
    its objects, the document itself included."""
    data = make_binary_dataset(n=60, d=3, separation=1.0, seed=4)
    root = tmp_path_factory.mktemp("mutations")
    docs = {}
    for kind, mode in (("tree", "hard_vote"), ("logistic", "soft_average")):
        model = fit(EnsembleConfig(base=LearnerConfig(kind=kind), m=3,
                                   posterior_mode=mode), data)
        save_model(model, root / f"{kind}.json")
        doc = json.loads((root / f"{kind}.json").read_text())
        assert doc["format_version"] == 2
        paths = _paths(doc)
        objects = [()] + [p for p in paths
                          if isinstance(functools.reduce(operator.getitem,
                                                         p, doc), dict)]
        docs[kind] = doc, paths, objects
    return root, docs


_DELETE, _ADD = object(), object()
# other JSON types, and numbers at the ends of float's range and past
# int64's; json writes and reads inf and nan too
_REPLACEMENTS = [_DELETE, None, True, False, 0, 1, -1, 0.5, -0.0, 5e-324,
                 1e308, -1e308, 2 ** 70, -2 ** 70, math.inf, -math.inf,
                 math.nan, "", "x", [], [0], [[0]], {}, {"x": 0}]


@settings(max_examples=400)
@given(kind=st.sampled_from(["tree", "logistic"]), data=st.data(),
       value=st.sampled_from([_ADD, *_REPLACEMENTS]))
def test_mutated_model_fails_cleanly_or_predicts(saved_docs, kind, data,
                                                 value):
    # one field replaced by another JSON type or an extreme number, or
    # deleted: the loader raises ModelFormatError, or its model predicts;
    # a key added to any object, even one another object holds: the
    # loader raises ModelFormatError
    root, docs = saved_docs
    doc, paths, objects = docs[kind]
    doc = json.loads(json.dumps(doc))
    path = root / "mutated.json"
    if value is _ADD:
        where = data.draw(st.sampled_from(objects), label="object")
        block = functools.reduce(operator.getitem, where, doc)
        names = sorted({p[-1] for p in paths if type(p[-1]) is str} - {*block})
        block[data.draw(st.sampled_from(["x", *names]), label="key")] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match=rf"^{re.escape(str(path))}: "):
            load_model(path)
        return
    *where, key = data.draw(st.sampled_from(paths), label="path")
    block = functools.reduce(operator.getitem, where, doc)
    if value is _DELETE:
        del block[key]
    else:
        block[key] = value
    path.write_text(json.dumps(doc))
    rows = np.random.default_rng(0).normal(0.0, 2.0, size=(70, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        batch = predict(model, rows)
        one = predict(model, rows[0])
    assert np.isfinite(batch.entropy).all() and np.isfinite(one.entropy)
    assert np.allclose(batch.vote_distribution.sum(axis=1), 1.0)
    assert batch.vote_distribution[0].tobytes() == \
        one.vote_distribution.tobytes()
