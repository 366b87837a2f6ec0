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
import functools
import math
import typing

import numpy as np

from .core import check_names
from .data import read_json, write_json
from .ensemble import (_Z_MAX, EnsembleConfig, EnsembleModel, Standardizer,
                       SupportBox)
from .learners import (LEAF, ConstantLearner, LinearLearner, TreeLearner,
                       TreeNode)

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


# every object of a model file, by the name its errors give, with its keys
# in the order save_model writes them
_KEYS = {
    "model file": ("format", "format_version", "n_classes", "n_features",
                   "class_names", "config", "standardizer", "support",
                   "learners"),
    "standardizer": ("mean", "std"),
    "support box": ("low", "high"),
    **{f"{kind} member": ("type", *keys, "converged", "seed_used")
       for kind, keys in (("tree", ("nodes",)),
                          ("linear", ("kind", "weights", "bias")),
                          ("constant", ("label",)))},
}


def _to_dict(name: str, *values) -> dict:
    return dict(zip(_KEYS[name], values, strict=True))


def _record(raw, name: str, keys=None, owner: str | None = None) -> tuple:
    """``raw``'s values for ``keys`` (by default, ``name``'s in ``_KEYS``)
    in order, checked to be an object with exactly those keys. Errors name
    the object ``name``, and ``owner``, or else ``name``, as the keys'."""
    keys = _KEYS[name] if keys is None else keys
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{name} must be an object")
    unknown = sorted(raw.keys() - set(keys))
    if unknown:
        raise ModelFormatError(f"unknown {owner or name} fields {unknown}")
    for key in keys:
        if key not in raw:
            raise ModelFormatError(f"missing key {key!r}")
    return tuple(map(raw.__getitem__, keys))


def _vectors(raw, name: str, n_features: int) -> dict:
    """The object ``name`` in ``raw``, a vector of finite numbers a key."""
    return {key: _vector(value, f"{name} {key}", n_features)
            for key, value in zip(_KEYS[name], _record(raw, name))}


def _learner_to_dict(learner) -> dict:
    if isinstance(learner, TreeLearner):
        kind, params = "tree", (learner.nodes,)  # json writes tuples as lists
    elif isinstance(learner, LinearLearner):
        kind, params = "linear", (learner.kind, learner.weights.tolist(),
                                  learner.bias)
    elif isinstance(learner, ConstantLearner):
        kind, params = "constant", (learner.label,)
    else:
        raise ModelFormatError(
            f"cannot serialize learner {type(learner).__name__}")
    return _to_dict(f"{kind} member", kind, *params, learner.converged,
                    learner.seed_used)


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


def _learner_from_dict(raw: dict, n_classes: int, n_features: int,
                       base_kind: str):
    kind = raw.get("type")
    if kind not in ("tree", "linear", "constant"):
        raise ModelFormatError(f"unknown learner type {kind!r}")
    # train makes a tree of every tree member, and a linear member or, from
    # a single-class replicate, a constant one of every other
    if (kind == "tree") != (base_kind == "tree"):
        raise ModelFormatError(f"a {kind} member in a model whose "
                               f"config.base.kind is {base_kind!r}")
    _, *params, converged, seed_used = _record(raw, f"{kind} member")
    if type(converged) is not bool:
        raise ModelFormatError(
            f"converged must be true or false, got {converged!r}")
    # the range LearnerConfig.seed allows
    if not (_is_int(seed_used) and 0 <= seed_used < 2 ** 64):
        raise ModelFormatError(f"seed_used must be an integer in "
                               f"[0, 2**64), got {seed_used!r}")
    common = {"converged": converged, "seed_used": seed_used}
    if kind == "tree":
        return TreeLearner(nodes=_tree_nodes(*params, n_classes, n_features),
                           n_features=n_features, **common)
    if kind == "linear":
        linear_kind, weights, bias = params
        if n_classes != 2:
            raise ModelFormatError(
                f"a linear member needs n_classes 2, got {n_classes}")
        if linear_kind != base_kind:
            raise ModelFormatError(f"a linear member's kind is "
                                   f"{linear_kind!r}, but config.base.kind "
                                   f"is {base_kind!r}")
        # standardized inputs are clamped to +-_Z_MAX, so a dot product
        # with these weights is at most _Z_MAX**2 = 2**1022 in magnitude,
        # and adding the bias cannot overflow; a sum that does is inf
        if not (_is_finite_number(bias) and abs(bias) <= _Z_MAX ** 2):
            raise ModelFormatError(f"bias {bias!r} is not a finite number "
                                   "of magnitude at most 2**1022")
        weights = _vector(weights, "weights", n_features)
        with np.errstate(over="ignore"):
            magnitude = np.abs(weights).sum()
        if not magnitude <= _Z_MAX:
            raise ModelFormatError("weights must sum in magnitude to at "
                                   "most 2**511")
        return LinearLearner(kind=linear_kind, weights=weights,
                             bias=float(bias), **common)
    (label,) = params
    if not (_is_int(label) and 0 <= label < n_classes):
        raise ModelFormatError(
            f"constant learner label {label!r} is not a class index "
            f"below {n_classes}")
    return ConstantLearner(label=label, n_classes=n_classes,
                           n_features=n_features, **common)


def _config_to_dict(config: EnsembleConfig) -> dict:
    # the config classes' field order is the file's key order
    return {**dataclasses.asdict(config),
            "entropy_log_base": log_base_tag(config.entropy_log_base)}


# each config field type's JSON check, and what it says a value must be
_JSON_TYPES = {int: (_is_int, "an integer"),
               int | None: (lambda v: v is None or _is_int(v),
                            "an integer or null"),
               float: (_is_finite_number, "a finite number"),
               str: (lambda v: type(v) is str, "a string")}
# a config class's fields by name, each with its type
_field_types = functools.cache(typing.get_type_hints)


def _read_config(cls, raw, name: str):
    """``cls`` read from the config block ``raw``, the inverse of
    ``_config_to_dict``: every field present, no other key, and each
    value of its field's JSON type, a nested config class read the same
    way. ``cls`` checks the values' ranges."""
    types = _field_types(cls)
    values = dict(zip(types, _record(raw, name, types, cls.__name__)))
    for key, kind in types.items():
        value = values[key]
        if dataclasses.is_dataclass(kind):
            values[key] = _read_config(kind, value, f"{name}.{key}")
        elif key == "entropy_log_base":     # stored as a tag, not a value
            values[key] = log_base_from_tag(value)
        else:
            ok, what = _JSON_TYPES[kind]
            if not ok(value):
                raise ModelFormatError(f"{name}.{key} must be {what}, "
                                       f"got {value!r}")
    return cls(**values)


def save_model(model: EnsembleModel, path) -> None:
    """Write ``model`` to ``path``. A config that :func:`load_model` would
    refuse raises ModelFormatError naming the field, and nothing is written."""
    std, box = model.standardizer, model.support
    config = _config_to_dict(model.config)
    _read_config(EnsembleConfig, config, "config")
    doc = _to_dict(
        "model file", FORMAT_NAME, FORMAT_VERSION, model.n_classes,
        model.n_features,
        list(model.class_names) if model.class_names else None, config,
        _to_dict("standardizer", std.mean.tolist(), std.std.tolist()),
        _to_dict("support box", box.low.tolist(), box.high.tolist()),
        [_learner_to_dict(l) for l in model.learners])
    write_json(path, doc, sort_keys=False)   # keys in _KEYS' order


def load_model(path) -> EnsembleModel:
    """Read a model file; raises ModelFormatError, naming ``path``, when the
    file is not a model of this format, an object in it lacks a key or holds
    another, a value is one the model cannot use, or it is not JSON."""
    doc = read_json(path, "model file", ModelFormatError)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("format_version")
    if not (_is_int(version) and version == FORMAT_VERSION):
        raise ModelFormatError(f"{path}: unsupported format_version {version}")
    try:
        return _model_from_dict(doc)
    except ValueError as exc:           # ModelFormatError included
        raise ModelFormatError(f"{path}: {exc}") from None


def _model_from_dict(doc: dict) -> EnsembleModel:
    (_, _, n_classes, n_features, names, raw_config, raw_std, raw_box,
     raw_learners) = _record(doc, "model file")
    if not (_is_int(n_classes) and n_classes >= 2):
        raise ModelFormatError(
            f"n_classes must be an integer >= 2, got {n_classes!r}")
    if not (_is_int(n_features) and n_features >= 1):
        raise ModelFormatError(
            f"n_features must be an integer >= 1, got {n_features!r}")
    if names is not None:       # as a Dataset's, which a CSV's labels match
        if not (isinstance(names, list) and len(names) == n_classes):
            raise ModelFormatError(f"class_names must be a list of "
                                   f"{n_classes} names, got {names!r}")
        check_names(names, "class_names")
    if not (isinstance(raw_learners, list) and raw_learners
            and all(isinstance(raw, dict) for raw in raw_learners)):
        raise ModelFormatError("learners must be a non-empty list of objects")
    config = _read_config(EnsembleConfig, raw_config, "config")
    if config.m != len(raw_learners):
        raise ModelFormatError(f"config.m is {config.m} but the file holds "
                               f"{len(raw_learners)} learners")
    standardizer = Standardizer(**_vectors(raw_std, "standardizer",
                                           n_features))
    if not (standardizer.std > 0).all():
        raise ModelFormatError("standardizer std must be > 0 throughout")
    support = SupportBox(**_vectors(raw_box, "support box", n_features))
    learners = []
    for i, raw in enumerate(raw_learners):
        try:
            learners.append(_learner_from_dict(raw, n_classes, n_features,
                                               config.base.kind))
        except ModelFormatError as exc:
            raise ModelFormatError(f"learner {i}: {exc}") from None
    return EnsembleModel(learners=tuple(learners), standardizer=standardizer,
                         config=config, n_classes=n_classes,
                         class_names=tuple(names) if names else None,
                         support=support)
