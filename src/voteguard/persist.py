"""Versioned on-disk model format.

A model file is a single self-describing JSON document: header (format
version, class/feature counts, posterior mode, log base, standardizer,
training support box) followed by per-learner parameters. Floats are
written with full repr precision so a save/load round trip reproduces
predictions bit-exactly.
Tree nodes are stored as a flat list with child indices, so arbitrarily
deep trees serialize without recursion. The loader checks that each
split's children come after it, so every walk of a loaded tree ends.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .ensemble import (_Z_MAX, EnsembleConfig, EnsembleModel, Standardizer,
                       SupportBox)
from .learners import (LEAF, ConstantLearner, GradientParams, LearnerConfig,
                       LinearLearner, TreeLearner, TreeNode, TreeParams)

FORMAT_NAME = "voteguard-ensemble"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or from an unknown version."""


def log_base_tag(base: float) -> str:
    """The tag model files and reports store for an entropy log base."""
    return "2" if base == 2.0 else "e"


def log_base_from_tag(tag: str) -> float:
    """Inverse of :func:`log_base_tag`; raises ValueError on any other tag."""
    if tag == "2":
        return 2.0
    if tag == "e":
        return math.e
    raise ValueError(f"unknown entropy log base tag {tag!r}")


def _learner_to_dict(learner) -> dict:
    common = {"converged": learner.converged, "seed_used": learner.seed_used}
    if isinstance(learner, TreeLearner):
        return {
            "type": "tree",
            "nodes": learner.nodes,         # json writes tuples as lists
            **common,
        }
    if isinstance(learner, LinearLearner):
        return {
            "type": "linear",
            "kind": learner.kind,
            "weights": learner.weights.tolist(),
            "bias": learner.bias,
            **common,
        }
    if isinstance(learner, ConstantLearner):
        return {"type": "constant", "label": learner.label, **common}
    raise ModelFormatError(f"cannot serialize learner {type(learner).__name__}")


def _is_int(value) -> bool:
    return type(value) is int                # JSON true and false are not


def _is_finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:                    # an int past float's range
        return False


def _vector(raw, name: str, n_features: int) -> np.ndarray:
    """``raw`` as a float64 array, checked to be ``n_features`` finite
    numbers."""
    if not (isinstance(raw, list) and len(raw) == n_features
            and all(map(_is_finite_number, raw))):
        raise ModelFormatError(
            f"{name} must be a list of {n_features} finite numbers")
    return np.array(raw, dtype=np.float64)


def _tree_nodes(raw, n_classes: int, n_features: int) -> tuple[TreeNode, ...]:
    """A saved node list, checked to be a tree whose every walk ends: each
    split's children lie after it, as in the preorder ``train`` writes."""
    if not (isinstance(raw, list) and raw
            and all(type(node) is list and len(node) == 5 for node in raw)):
        raise ModelFormatError("tree nodes must be a non-empty list of "
                               "[feature, threshold, left, right, counts]")
    feature, threshold, left, right, counts = zip(*raw)
    if not all(type(row) is list and len(row) == n_classes for row in counts):
        raise ModelFormatError(
            f"tree node counts must be lists of {n_classes} numbers")
    if not (all(_is_int(v) for column in (feature, left, right)
                for v in column)
            and all(type(v) in (int, float) for v in threshold)
            and all(type(v) in (int, float) for row in counts for v in row)):
        raise ModelFormatError("tree node features and children must be "
                               "integers, thresholds and counts numbers")
    try:
        f, lo, hi = (np.array(c, dtype=np.int64) for c in (feature, left, right))
        t = np.array(threshold, dtype=np.float64)
        c = np.array(counts, dtype=np.float64)
    except OverflowError:
        raise ModelFormatError("tree node value out of range") from None
    i, n = np.arange(len(raw)), len(raw)
    leaf = f == LEAF
    with np.errstate(over="ignore"):         # a sum past float max is inf
        total = c.sum(axis=1)
    problems = (
        (~leaf & ((f < 0) | (f >= n_features)),
         f"feature is neither {LEAF} (a leaf) nor an index below {n_features}"),
        (~np.isfinite(t), "threshold is not finite"),
        (leaf & ((lo != LEAF) | (hi != LEAF)),
         f"a leaf's children must be {LEAF}"),
        (~leaf & ((lo <= i) | (hi <= i) | (lo >= n) | (hi >= n)),
         f"children must be node indices above the node's own and below {n}"),
        (~np.isfinite(c).all(axis=1) | (c < 0).any(axis=1)
         | ~((0 < total) & (total < np.inf)),
         "counts must be finite, >= 0, not all 0 and sum to a finite "
         "number"),
    )
    for bad, what in problems:
        if bad.any():
            j = int(np.argmax(bad))
            raise ModelFormatError(f"tree node {j} {raw[j]!r}: {what}")
    # a node reached through two splits may lie at two depths, and the
    # level walk, which runs to the deepest, would stop short of it
    parents = np.bincount(np.concatenate((lo[~leaf], hi[~leaf])), minlength=n)
    if (parents[1:] != 1).any():
        j = 1 + int(np.argmax(parents[1:] != 1))
        raise ModelFormatError(f"tree node {j} is the child of {parents[j]} "
                               "splits, not of exactly 1")
    return tuple(map(TreeNode._make, zip(feature, t.tolist(), left, right,
                                         map(tuple, c.tolist()))))


def _learner_from_dict(raw: dict, n_classes: int, n_features: int):
    kind = raw.get("type")
    if kind == "tree":
        return TreeLearner(nodes=_tree_nodes(raw["nodes"], n_classes,
                                             n_features),
                           n_classes=n_classes, n_features=n_features,
                           seed_used=raw["seed_used"],
                           converged=raw["converged"])
    if kind == "linear":
        # standardized inputs are clamped to +-_Z_MAX, so a dot product
        # with these weights is at most _Z_MAX**2 = 2**1022 in magnitude,
        # and adding the bias cannot overflow; a sum that does is inf
        bias = raw["bias"]
        if not (_is_finite_number(bias) and abs(bias) <= _Z_MAX ** 2):
            raise ModelFormatError(f"bias {bias!r} is not a finite number "
                                   "of magnitude at most 2**1022")
        weights = _vector(raw["weights"], "weights", n_features)
        with np.errstate(over="ignore"):
            magnitude = np.abs(weights).sum()
        if not magnitude <= _Z_MAX:
            raise ModelFormatError("weights must sum in magnitude to at "
                                   "most 2**511")
        return LinearLearner(kind=raw["kind"], weights=weights,
                             bias=float(bias), n_classes=n_classes,
                             converged=raw["converged"],
                             seed_used=raw["seed_used"])
    if kind == "constant":
        label = raw["label"]
        if not (_is_int(label) and 0 <= label < n_classes):
            raise ModelFormatError(
                f"constant learner label {label!r} is not a class index "
                f"below {n_classes}")
        return ConstantLearner(label=label, n_classes=n_classes,
                               n_features=n_features,
                               seed_used=raw["seed_used"],
                               converged=raw["converged"])
    raise ModelFormatError(f"unknown learner type {kind!r}")


def _config_to_dict(config: EnsembleConfig) -> dict:
    # the config classes' field order is the file's key order
    return {**dataclasses.asdict(config),
            "entropy_log_base": log_base_tag(config.entropy_log_base)}


def _object(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{name} must be an object")
    return raw


def _params(cls, raw: dict):
    """``cls`` built from a config block; a field ``cls`` does not have is
    an error."""
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ModelFormatError(f"unknown {cls.__name__} fields {unknown}")
    return cls(**raw)


def _config_from_dict(raw: dict) -> EnsembleConfig:
    base = _object(raw["base"], "config.base")
    tree = _object(base["tree"], "config.base.tree")
    gradient = _object(base["gradient"], "config.base.gradient")
    # the types the config classes compare and compute with; they check
    # the values themselves
    for name, block, key, ok, what in (
            ("config", raw, "master_seed", _is_int, "an integer"),
            ("config.base", base, "seed", _is_int, "an integer"),
            ("config.base.tree", tree, "max_depth",
             lambda v: v is None or _is_int(v), "an integer or null"),
            ("config.base.tree", tree, "min_samples_split", _is_int,
             "an integer"),
            ("config.base.gradient", gradient, "max_iters", _is_int,
             "an integer"),
            ("config.base.gradient", gradient, "tolerance",
             _is_finite_number, "a finite number"),
            ("config.base.gradient", gradient, "l2", _is_finite_number,
             "a finite number")):
        if key in block and not ok(block[key]):
            raise ModelFormatError(
                f"{name}.{key} must be {what}, got {block[key]!r}")
    return EnsembleConfig(
        m=raw["m"],
        master_seed=raw["master_seed"],
        posterior_mode=raw["posterior_mode"],
        entropy_log_base=log_base_from_tag(raw["entropy_log_base"]),
        base=LearnerConfig(
            kind=base["kind"],
            seed=base["seed"],
            tree=_params(TreeParams, tree),
            gradient=_params(GradientParams, gradient),
        ),
    )


def save_model(model: EnsembleModel, path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "class_names": list(model.class_names) if model.class_names else None,
        "config": _config_to_dict(model.config),
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
        "support": {
            "low": model.support.low.tolist(),
            "high": model.support.high.tolist(),
        },
        "learners": [_learner_to_dict(l) for l in model.learners],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    """Read a model file; raises ModelFormatError, naming ``path``, when the
    file is not a model of this format, lacks a key it needs or holds a
    value the model cannot use, or is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: model file is not valid JSON: "
                               f"{exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: model file is not UTF-8 text: "
                               f"{exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {doc.get('format_version')}")
    try:
        return _model_from_dict(doc)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing key {exc}") from None
    except ValueError as exc:           # ModelFormatError included
        raise ModelFormatError(f"{path}: {exc}") from None


def _model_from_dict(doc: dict) -> EnsembleModel:
    n_classes = doc["n_classes"]
    n_features = doc["n_features"]
    if not (_is_int(n_classes) and n_classes >= 2):
        raise ModelFormatError(
            f"n_classes must be an integer >= 2, got {n_classes!r}")
    if not (_is_int(n_features) and n_features >= 1):
        raise ModelFormatError(
            f"n_features must be an integer >= 1, got {n_features!r}")
    names = doc.get("class_names")
    if names is not None and not (
            isinstance(names, list) and len(names) == n_classes
            and all(isinstance(name, str) for name in names)
            and len(set(names)) == n_classes):
        raise ModelFormatError(
            f"class_names must be {n_classes} unique strings, got {names!r}")
    raw_learners = doc["learners"]
    if not (isinstance(raw_learners, list) and raw_learners
            and all(isinstance(raw, dict) for raw in raw_learners)):
        raise ModelFormatError("learners must be a non-empty list of objects")
    raw_config = _object(doc["config"], "config")
    if not (_is_int(raw_config["m"]) and raw_config["m"] == len(raw_learners)):
        raise ModelFormatError(
            f"config.m is {raw_config['m']!r} but the file holds "
            f"{len(raw_learners)} learners")
    config = _config_from_dict(raw_config)
    raw_std = _object(doc["standardizer"], "standardizer")
    standardizer = Standardizer(
        mean=_vector(raw_std["mean"], "standardizer mean", n_features),
        std=_vector(raw_std["std"], "standardizer std", n_features),
    )
    if not (standardizer.std > 0).all():
        raise ModelFormatError("standardizer std must be > 0 throughout")
    raw_box = _object(doc["support"], "support box")
    support = SupportBox(
        low=_vector(raw_box["low"], "support box low", n_features),
        high=_vector(raw_box["high"], "support box high", n_features),
    )
    learners = []
    for i, raw in enumerate(raw_learners):
        try:
            learners.append(_learner_from_dict(raw, n_classes, n_features))
        except ModelFormatError as exc:
            raise ModelFormatError(f"learner {i}: {exc}") from None
    return EnsembleModel(learners=tuple(learners), standardizer=standardizer,
                         config=config, n_classes=n_classes,
                         class_names=tuple(names) if names else None,
                         support=support)
