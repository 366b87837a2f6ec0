"""Versioned on-disk model format.

A model file is a single self-describing JSON document: header (format
version, class/feature counts, posterior mode, log base, standardizer,
training support box) followed by per-learner parameters, the header on
one line and each member on a line of its own. Floats are written with
full repr precision so a save/load round trip reproduces predictions
bit-exactly.
Tree nodes are stored as a flat list with child indices, so arbitrarily
deep trees serialize without recursion. The loader checks that each
split's children come after it, so every walk of a loaded tree ends. It
checks the node lists of all members at once; a file whose members fail is
read again member by member, so the error names the first member at fault
and that member's first fault.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .core import check_names, is_finite_number, is_int
from .data import read_json
from .ensemble import (_Z_MAX, EnsembleConfig, EnsembleModel, Standardizer,
                       SupportBox)
from .learners import LEAF, LinearLearner, TreeLearner, TreeNode

FORMAT_NAME = "voteguard-ensemble"
FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or from an unknown version."""


def log_base_tag(base: float) -> str:
    """The tag model files and reports store for an entropy log base."""
    return "2" if base == 2.0 else "e"


def log_base_from_tag(tag: str) -> float:
    """Inverse of :func:`log_base_tag`; raises ValueError on any other tag."""
    if tag not in ("2", "e"):
        raise ValueError(f"entropy_log_base must be the log base tag '2' or "
                         f"'e', got {tag!r}")
    return 2.0 if tag == "2" else math.e


# every object of a model file, by the name its errors give, with its keys
# in the order save_model writes them; config.base.kind says which of the
# two member objects every member is
_KEYS = {
    "model file": ("format", "format_version", "n_classes", "n_features",
                   "class_names", "config", "standardizer", "support",
                   "learners"),
    "standardizer": ("mean", "std"),
    "support box": ("low", "high"),
    "tree member": ("nodes", "converged", "seed_used"),
    "linear member": ("weights", "bias", "converged", "seed_used"),
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


def _learner_to_dict(index: int, learner, kind: str) -> dict:
    # load_model reads every member as the kind config.base.kind names, so
    # a member of another type would write a file that does not load
    tree = kind == "tree"
    if not isinstance(learner, TreeLearner if tree else LinearLearner):
        raise ValueError(f"learner {index} is a {type(learner).__name__}, "
                         f"not a member of config.base.kind {kind!r}")
    if tree:
        name, params = "tree member", (learner.nodes,)  # tuples as lists
    else:
        name, params = "linear member", (learner.weights.tolist(),
                                         learner.bias)
    return _to_dict(name, *params, learner.converged, learner.seed_used)


def _vector(raw, name: str, n_features: int) -> np.ndarray:
    """``raw`` as a float64 array, checked to be ``n_features`` finite
    numbers."""
    if not (isinstance(raw, list) and len(raw) == n_features
            and all(map(is_finite_number, raw))):
        raise ModelFormatError(
            f"{name} must be a list of {n_features} finite numbers")
    return np.array(raw, dtype=np.float64)


_NODES_ERROR = ("tree nodes must be a non-empty list of "
                "[feature, threshold, left, right, counts]")


def _checked_trees(raws, n_classes: int, n_features: int) -> list:
    """Every saved node list in ``raws``, each checked to be a tree whose
    every walk ends: each split's children lie after it, as in the preorder
    ``train`` writes. The lists are checked together, one check at a time,
    and the first check that fails raises ModelFormatError; a message that
    names a node gives its index within its tree."""
    offsets = [0, *itertools.accumulate(map(len, raws))]
    nodes = list(itertools.chain.from_iterable(raws))
    if not (set(map(type, nodes)) == {list} and set(map(len, nodes)) == {5}):
        raise ModelFormatError(_NODES_ERROR)
    feature, threshold, left, right, counts = zip(*nodes)
    if not (set(map(type, counts)) == {list}
            and set(map(len, counts)) == {n_classes}):
        raise ModelFormatError(
            f"tree node counts must be lists of {n_classes} numbers")
    values = list(itertools.chain.from_iterable(counts))
    if not (set(map(type, feature + left + right)) == {int}
            and set(map(type, threshold)) <= {int, float}
            and set(map(type, values)) <= {int, float}):
        raise ModelFormatError("tree node features and children must be "
                               "integers, thresholds and counts numbers")
    try:
        f, lo, hi = (np.array(c, dtype=np.int64) for c in (feature, left, right))
        t = np.array(threshold, dtype=np.float64)
        c = np.array(values, dtype=np.float64).reshape(-1, n_classes)
    except OverflowError:
        raise ModelFormatError("tree node value out of range") from None
    # each node's index in its tree, and the tree's node count
    sizes = np.diff(offsets)
    start = np.repeat(offsets[:-1], sizes)
    i, n = np.arange(len(nodes)) - start, np.repeat(sizes, sizes)
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
         # {n}: the tree's node count, filled in below
         "children must be node indices above the node's own and below {n}"),
        (~np.isfinite(c).all(axis=1) | (c < 0).any(axis=1)
         | ~((0 < total) & (total < np.inf)),
         "counts must be finite, >= 0, not all 0 and sum to a finite "
         "number"),
    )
    for bad, what in problems:
        if bad.any():
            k = int(np.argmax(bad))
            raise ModelFormatError(
                f"tree node {i[k]} {nodes[k]!r}: {what.format(n=n[k])}")
    # a node reached through two splits may lie at two depths, and the
    # level walk, which runs to the deepest, would stop short of it
    split = ~leaf
    parents = np.bincount(np.concatenate((lo[split] + start[split],
                                          hi[split] + start[split])),
                          minlength=len(nodes))
    bad = (parents != 1) & (i != 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ModelFormatError(f"tree node {i[k]} is the child of "
                               f"{parents[k]} splits, not of exactly 1")
    built = list(map(TreeNode._make, zip(feature, t.tolist(), left, right,
                                         map(tuple, c.tolist()))))
    return [tuple(built[a:b]) for a, b in itertools.pairwise(offsets)]


def _learners(raws, n_classes: int, n_features: int, base_kind: str) -> list:
    """The members ``raws``, each read by :func:`_learner_from_dict`, and
    every tree's node list checked at once by :func:`_checked_trees`."""
    learners = [_learner_from_dict(raw, n_classes, n_features, base_kind)
                for raw in raws]
    if base_kind != "tree":
        return learners
    trees = _checked_trees([nodes for nodes, _ in learners], n_classes,
                           n_features)
    return [TreeLearner(nodes=nodes, n_features=n_features, **common)
            for nodes, (_, common) in zip(trees, learners)]


def _learner_from_dict(raw: dict, n_classes: int, n_features: int,
                       base_kind: str):
    """The member ``raw``. A tree member is its node list, checked only to
    be a non-empty list, and its TreeLearner's other fields by name:
    :func:`_learners` checks every tree's nodes at once."""
    # train fits a tree under kind "tree" and a linear member under the
    # other kinds, so config.base.kind says which keys a member holds
    tree = base_kind == "tree"
    *params, converged, seed_used = _record(
        raw, "tree member" if tree else "linear member")
    if type(converged) is not bool:
        raise ModelFormatError(
            f"converged must be true or false, got {converged!r}")
    # the range train's seed allows
    if not (is_int(seed_used) and 0 <= seed_used < 2 ** 64):
        raise ModelFormatError(f"seed_used must be an integer in "
                               f"[0, 2**64), got {seed_used!r}")
    common = {"converged": converged, "seed_used": seed_used}
    if tree:
        nodes, = params
        if not (isinstance(nodes, list) and nodes):
            raise ModelFormatError(_NODES_ERROR)
        return nodes, common
    weights, bias = params
    if n_classes != 2:
        raise ModelFormatError(
            f"a linear member needs n_classes 2, got {n_classes}")
    # standardized inputs are clamped to +-_Z_MAX, so a dot product with
    # these weights is at most _Z_MAX**2 = 2**1022 in magnitude, and adding
    # the bias cannot overflow; a sum that does is inf
    if not (is_finite_number(bias) and abs(bias) <= _Z_MAX ** 2):
        raise ModelFormatError(f"bias {bias!r} is not a finite number "
                               "of magnitude at most 2**1022")
    weights = _vector(weights, "weights", n_features)
    with np.errstate(over="ignore"):
        magnitude = np.abs(weights).sum()
    if not magnitude <= _Z_MAX:
        raise ModelFormatError("weights must sum in magnitude to at "
                               "most 2**511")
    return LinearLearner(weights=weights, bias=float(bias), **common)


def _config_to_dict(config: EnsembleConfig) -> dict:
    # the config classes' field order is the file's key order
    return {**dataclasses.asdict(config),
            "entropy_log_base": log_base_tag(config.entropy_log_base)}


def _read_config(cls, raw, name: str):
    """``cls`` read from the config block ``raw``, the inverse of
    ``_config_to_dict``: every field present, no other key, a nested config
    class read the same way; ``cls``' error, which names a field, prefixed
    with ``name``."""
    factories = {f.name: f.default_factory for f in dataclasses.fields(cls)}
    values = dict(zip(factories, _record(raw, name, factories, cls.__name__)))
    for key, factory in factories.items():
        if dataclasses.is_dataclass(factory):          # a config class
            values[key] = _read_config(factory, values[key], f"{name}.{key}")
    try:
        if cls is EnsembleConfig:            # the log base is stored as a tag
            values["entropy_log_base"] = log_base_from_tag(
                values["entropy_log_base"])
        return cls(**values)
    except ValueError as exc:
        raise ModelFormatError(f"{name}.{exc}") from None


def _line(value, what: str) -> str:
    """``value`` as one line of compact JSON; a non-finite float, which
    load_model refuses, raises ValueError naming ``what`` holds it."""
    try:
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError(f"{what} holds a non-finite value, which "
                         "load_model refuses") from None


def save_model(model: EnsembleModel, path) -> None:
    """Write ``model`` to ``path`` as one JSON document of M + 2 lines: the
    header keys, then each of the M members, then the closing brackets.
    Raises ValueError, before the file is opened, if ``config.m`` is not the
    member count, a member is not of the type ``config.base.kind`` trains,
    or the model holds a non-finite value: load_model refuses each file."""
    if model.config.m != len(model.learners):
        raise ValueError(f"config.m is {model.config.m} but the model holds "
                         f"{len(model.learners)} learners")
    std, box = model.standardizer, model.support
    header = _line(_to_dict(
        "model file", FORMAT_NAME, FORMAT_VERSION, model.n_classes,
        model.n_features,
        list(model.class_names) if model.class_names else None,
        _config_to_dict(model.config),
        _to_dict("standardizer", std.mean.tolist(), std.std.tolist()),
        _to_dict("support box", box.low.tolist(), box.high.tolist()),
        []), "the standardizer or support box")    # keys in _KEYS' order
    members = [_line(_learner_to_dict(i, l, model.config.base.kind),
                     f"learner {i}") for i, l in enumerate(model.learners)]
    # the header ends in the empty list of members: "[]}"
    text = "\n".join((header[:-2], ",\n".join(members), "]}\n"))
    Path(path).write_text(text, encoding="utf-8")


def load_model(path) -> EnsembleModel:
    """Read a model file; raises ModelFormatError, naming ``path``, when the
    file is not a model of this format, an object in it lacks a key or holds
    another, a value is one the model cannot use, or it is not JSON."""
    doc = read_json(path, "model file", ModelFormatError)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("format_version")
    if is_int(version) and version == 1:
        raise ModelFormatError(f"{path}: format_version 1 is no longer read; "
                               f"retrain the model to write format_version "
                               f"{FORMAT_VERSION}")
    if not (is_int(version) and version == FORMAT_VERSION):
        raise ModelFormatError(f"{path}: unsupported format_version {version}")
    try:
        return _model_from_dict(doc)
    except ValueError as exc:           # ModelFormatError included
        raise ModelFormatError(f"{path}: {exc}") from None


def _model_from_dict(doc: dict) -> EnsembleModel:
    (_, _, n_classes, n_features, names, raw_config, raw_std, raw_box,
     raw_learners) = _record(doc, "model file")
    if not (is_int(n_classes) and n_classes >= 2):
        raise ModelFormatError(
            f"n_classes must be an integer >= 2, got {n_classes!r}")
    if not (is_int(n_features) and n_features >= 1):
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
    # SupportBox.fit widens each side by at least 1; an inverted box would
    # put every sample outside it
    inverted = np.flatnonzero(support.low > support.high)
    if inverted.size:
        raise ModelFormatError(f"support box low exceeds high at feature "
                               f"{inverted[0]}")
    args = n_classes, n_features, config.base.kind
    try:
        learners = _learners(raw_learners, *args)
    except ModelFormatError:
        # read again member by member: the first member at fault, and its
        # first fault in check order
        for i, raw in enumerate(raw_learners):
            try:
                _learners([raw], *args)
            except ModelFormatError as exc:
                raise ModelFormatError(f"learner {i}: {exc}") from None
        raise
    return EnsembleModel(learners=tuple(learners), standardizer=standardizer,
                         config=config, n_classes=n_classes,
                         class_names=tuple(names) if names else None,
                         support=support)
