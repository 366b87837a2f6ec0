"""Dataset ingestion and synthetic regimes.

Ingestion is CSV-only: feature extraction from raw hardware signals is
upstream of this package. Parsing is strict; a single bad row fails the
whole load with row numbers in the error, since silently dropped rows
would corrupt downstream uncertainty experiments. CSVs, manifests and
model files are UTF-8 text, with or without a byte-order mark.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import UNLABELED, Dataset, check_names, is_finite_number, is_int

UNKNOWN_APP_ID = "unknown"
REGIMES = ("ood", "overlap")
_WRITE_BLOCK = 1024        # rows write_csv formats at a time
# the manifest's keys in the order they are checked, each with its value's
# JSON type; a list holds strings, and only unknown_app_ids may be left out
_MANIFEST_KEYS = (("classes", list), ("label_column", str),
                  ("app_id_column", str), ("feature_columns", list),
                  ("unknown_app_ids", list))


class CsvFormatError(ValueError):
    """Raised when a CSV file violates the declared schema."""


@dataclass(frozen=True)
class CsvSchema:
    """A dataset's columns and class names, and every rule they keep: at
    least two class names, which keep ``core.check_names``' rule; at least
    one feature column; and one role per column, so the label, the app id
    and each feature are read from a column of their own. Any other schema
    raises ValueError, whose message names each field by its manifest key
    (``classes`` for ``class_names``)."""

    label_column: str
    app_id_column: str
    feature_columns: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError("classes must hold at least two names")
        if not self.feature_columns:
            raise ValueError("feature_columns must hold at least one name")
        check_names(self.class_names, "classes")
        # a column with two roles would make app ids of feature values, or
        # leak the label into the features, and write_csv would name it
        # twice in a header that load_csv refuses
        roles = (self.label_column, self.app_id_column, *self.feature_columns)
        if len(set(roles)) < len(roles):
            # a Counter keeps its keys in the order they first occur
            twice = next(c for c, n in Counter(roles).items() if n > 1)
            raise ValueError(f"gives column {twice!r} two roles; "
                             f"label_column, app_id_column and "
                             f"feature_columns must be distinct")


@dataclass(frozen=True, kw_only=True)
class DatasetTaxonomy:
    """Known train/test buckets plus the held-out unknown-application
    bucket. ``train`` is None where a fitted model is only evaluated."""

    train: Dataset | None = None
    test_known: Dataset
    unknown: Dataset | None

    def __post_init__(self):
        if self.unknown is not None:
            known_ids = set(self.test_known.app_ids)
            if self.train is not None:
                known_ids.update(self.train.app_ids)
            overlap = known_ids & set(self.unknown.app_ids)
            if overlap:
                raise ValueError(
                    f"app_ids appear in both known and unknown buckets: "
                    f"{sorted(overlap)[:5]}")


def read_json(path, what: str, error: type[ValueError]):
    """The JSON document in the file ``path``, UTF-8 text with or without
    a byte-order mark. A file that cannot be decoded (not UTF-8 text, not
    valid JSON, nested too deeply, or with an integer past Python's digit
    limit) raises ``error``: one line naming ``path`` and ``what`` it is."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {what} is not UTF-8 text: {exc}") from None
        except ValueError as exc:       # JSONDecodeError, or too many digits
            raise error(f"{path}: {what} is not valid JSON: {exc}") from None
        except RecursionError:
            raise error(f"{path}: {what} is nested too deeply to "
                        "read") from None


def write_json(path, doc, sort_keys: bool) -> None:
    """Write ``doc`` to ``path`` as JSON, one-space indents and a trailing
    newline. The whole text is built before the file is opened, so a value
    JSON cannot hold raises and leaves any file at ``path`` as it was."""
    text = json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_manifest(path) -> tuple[CsvSchema, frozenset[str]]:
    """Read the JSON manifest describing a CSV dataset: its schema and its
    unknown app ids.

    Keys: classes (ordered list), label_column, app_id_column,
    feature_columns, unknown_app_ids (optional). This checks the JSON
    shape (an object with exactly those keys, the two column names strings
    and the others lists of strings) and, by ``core.check_names``, the
    unknown app ids; ``CsvSchema`` checks the rest. Any fault, and a file
    that is not UTF-8 JSON, raises CsvFormatError naming ``path``; a
    missing key is named in the order of ``_MANIFEST_KEYS``."""
    raw = read_json(path, "manifest", CsvFormatError)
    if not isinstance(raw, dict):
        raise CsvFormatError(f"{path}: manifest must be a JSON object")
    # a misspelt optional key would otherwise read as absent
    extra = sorted(raw.keys() - {key for key, _ in _MANIFEST_KEYS})
    if extra:
        raise CsvFormatError(f"{path}: unknown manifest fields {extra}")
    for key, kind in _MANIFEST_KEYS:
        if key not in raw and key != "unknown_app_ids":
            raise CsvFormatError(f"{path}: manifest missing key {key!r}")
        value = raw.get(key, [])
        if not (isinstance(value, kind) and (
                kind is str or all(isinstance(v, str) for v in value))):
            what = "a string" if kind is str else "a list of strings"
            raise CsvFormatError(f"{path}: manifest {key} must be {what}, "
                                 f"got {value!r}")
    try:
        schema = CsvSchema(label_column=raw["label_column"],
                           app_id_column=raw["app_id_column"],
                           feature_columns=tuple(raw["feature_columns"]),
                           class_names=tuple(raw["classes"]))
        unknown = raw.get("unknown_app_ids", [])
        check_names(dict.fromkeys(unknown), "unknown_app_ids")
    except ValueError as exc:
        raise CsvFormatError(f"{path}: manifest {exc}") from None
    return schema, frozenset(unknown)


def write_manifest(path, schema: CsvSchema, unknown_app_ids) -> None:
    """Write the manifest that load_manifest reads back as ``(schema,
    frozenset(unknown_app_ids))``: every key, sorted, one-space indents and a
    trailing newline. Ids load_manifest refuses raise ValueError first."""
    ids = list(unknown_app_ids)
    check_names(dict.fromkeys(ids), "unknown_app_ids")
    values = (list(schema.class_names), schema.label_column,
              schema.app_id_column, list(schema.feature_columns), ids)
    doc = {key: value for (key, _), value in zip(_MANIFEST_KEYS, values)}
    write_json(path, doc, sort_keys=True)


def _diagnose(row, lineno, schema, columns, label_of):
    """One row's features, label and app id, read cell by cell, and each
    bad cell's problem as ``(position, message)``: positions 0..d-1 are the
    features, d the label and d+1 the app id. A cell the row lacks reads
    as None. Non-finite values are returned as parsed; the caller checks
    them."""
    cells = [row[i] if i < len(row) else None for i in columns]
    d = len(schema.feature_columns)
    features, problems = [], []
    for j, (col, cell) in enumerate(zip(schema.feature_columns, cells)):
        try:
            features.append(float(cell))
        except (TypeError, ValueError):
            problems.append((j, f"row {lineno}: bad value {cell!r} "
                                f"in column {col!r}"))
            features.append(0.0)
    label_raw = (cells[d] or "").strip()
    label = label_of.get(label_raw)
    if label is None:
        problems.append((d, f"row {lineno}: label {label_raw!r} not in "
                            f"declared classes {list(schema.class_names)}"))
        label = UNLABELED
    app_id = (cells[d + 1] or "").strip()
    if not app_id:
        problems.append((d + 1, f"row {lineno}: empty app_id"))
        app_id = "?"
    return features, label, app_id, problems


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a headered CSV into a Dataset; strict, all-or-nothing.

    Labels must be class names from the schema; an empty label cell marks
    an unlabeled sample (unknown bucket). Any non-finite or unparsable
    feature, and any app id that ``core.check_names`` refuses, fails the
    load with the offending row numbers: the physical line each record
    starts on, the header being line 1. Blank lines are
    skipped, a short row reads its missing cells as None (a bad feature,
    an empty label or app id) and cells past the header are ignored. A
    file that is not UTF-8 text fails with the line of its first bad byte,
    and one the csv module cannot split with the line it failed on.
    """
    d = len(schema.feature_columns)
    # an empty label cell is unlabeled, whatever the class names
    label_of = {**{name: i for i, name in enumerate(schema.class_names)},
                "": UNLABELED}
    values = array("d")                  # row-major features
    rows_y: list[int] = []
    app_ids: list[str] = []
    # one str per distinct app id, which every row of that app shares
    distinct_ids: dict[str, str] = {}
    lines = array("l")                   # the line each row starts on
    # (row index, position in the row, message); see _diagnose
    problems: list[tuple[int, int, str]] = []

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file, no header row")
            wanted = (*schema.feature_columns, schema.label_column,
                      schema.app_id_column)
            counts = Counter(header)
            missing = [c for c in wanted if c not in counts]
            if missing:
                raise CsvFormatError(f"{path}: missing columns {missing}")
            for c in wanted:
                if counts[c] > 1:
                    raise CsvFormatError(
                        f"{path}: column {c!r} appears "
                        f"{counts[c]} times in the header")
            position = {name: i for i, name in enumerate(header)}
            columns = [position[c] for c in wanted]
            feature_at, (label_at, app_at) = columns[:d], columns[d:]

            next_line = reader.line_num + 1
            for row in reader:
                lineno, next_line = next_line, reader.line_num + 1
                if not row:
                    continue
                try:
                    values.extend(map(float, map(row.__getitem__, feature_at)))
                    label = label_of.get(row[label_at].strip())
                    app_id = row[app_at].strip()
                    if label is None or not app_id:
                        raise ValueError
                except (ValueError, IndexError):
                    # this row only: drop what it appended, then diagnose it
                    del values[len(rows_y) * d:]
                    row_x, label, app_id, found = _diagnose(
                        row, lineno, schema, columns, label_of)
                    values.extend(row_x)
                    problems.extend((len(rows_y), j, m) for j, m in found)
                rows_y.append(label)
                app_ids.append(distinct_ids.setdefault(app_id, app_id))
                lines.append(lineno)
    except UnicodeDecodeError:
        # a streamed decode counts bytes from its chunk: find the byte again
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise CsvFormatError(f"{path}: line {line}: not UTF-8 text: "
                                 f"{exc}") from None
        raise
    except csv.Error as exc:                 # e.g. a cell past the size limit
        raise CsvFormatError(
            f"{path}: line {reader.line_num}: {exc}") from None

    x = np.frombuffer(values).reshape(-1, d)      # a view, not a copy
    finite = np.isfinite(x)
    if not finite.all():
        problems.extend((int(r), int(j), f"row {lines[r]}: non-finite value "
                                          f"in column "
                                          f"{schema.feature_columns[j]!r}")
                        for r, j in zip(*np.nonzero(~finite)))
    # an app id that check_names refuses, which Dataset would refuse
    # without naming a row, at each row that holds it
    bad_ids = {}
    for app_id in distinct_ids:
        try:
            check_names((app_id,), "app_id")
        except ValueError as exc:
            bad_ids[app_id] = str(exc)
    if bad_ids:
        problems.extend((r, d + 1, f"row {lines[r]}: {bad_ids[app_id]}")
                        for r, app_id in enumerate(app_ids)
                        if app_id in bad_ids)
    if problems:
        problems.sort()
        shown = "; ".join(m for _, _, m in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise CsvFormatError(f"{path}: {shown}{more}")
    if not rows_y:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(x=x, y=np.array(rows_y), app_ids=tuple(app_ids),
                   n_classes=len(schema.class_names),
                   class_names=schema.class_names)


def write_csv(data: Dataset, path, schema: CsvSchema) -> None:
    """Inverse of load_csv, for exporting generated datasets. The file is
    byte for byte what ``csv.writer`` gives row by row: each feature is
    its float's ``repr``, and each row's label and app id cells are
    written by ``csv.writer``, so they are quoted as it quotes them. Rows
    are formatted ``_WRITE_BLOCK`` at a time. Raises ValueError, before
    the file is created, when the schema does not name every feature
    column or every label. Every app id reads back unchanged, since
    ``Dataset`` holds none that ``core.check_names`` refuses."""
    names = schema.class_names
    if len(schema.feature_columns) != data.d:
        raise ValueError(f"schema names {len(schema.feature_columns)} "
                         f"feature columns for data with {data.d} features")
    top = int(data.y.max(initial=UNLABELED))
    if top >= len(names):
        raise ValueError(f"schema names {len(names)} classes for data with "
                         f"label {top}")

    def tail(label, app_id):
        """``,label,app_id`` and the line end, as csv.writer writes them."""
        out = io.StringIO()
        csv.writer(out).writerow(
            ("", "" if label == UNLABELED else names[label], app_id))
        return out.getvalue()

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*schema.feature_columns, schema.label_column,
                                 schema.app_id_column])
        for lo in range(0, len(data), _WRITE_BLOCK):
            hi = lo + _WRITE_BLOCK
            reprs = map(repr, data.x[lo:hi].ravel().tolist())
            rows = map(",".join, zip(*[reprs] * data.d))
            keys = list(zip(data.y[lo:hi].tolist(), data.app_ids[lo:hi]))
            # one tail per distinct pair in this block, not in the file
            tails = {k: tail(*k) for k in dict.fromkeys(keys)}
            fh.write("".join(map(str.__add__, rows,
                                 map(tails.__getitem__, keys))))


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-Gaussian binary problem with an unknown bucket in one of two
    regimes: a far-away cluster (ood) or more draws from the overlapping
    class mixture itself (overlap)."""

    regime: str                          # one of REGIMES
    n_train: int = 2000
    n_test: int = 500
    n_unknown: int = 500
    d: int = 8
    class_separation: float = 6.0        # distance between class means, in sigma
    ood_distance: float = 20.0           # unknown cluster to nearest mean, in sigma
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for name, least in (("n_train", 2), ("n_test", 2), ("n_unknown", 0),
                            ("d", 1), ("seed", 0)):
            if not (is_int(v := getattr(self, name)) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {v!r}")
        for name in ("class_separation", "ood_distance"):
            if not (is_finite_number(v := getattr(self, name)) and v > 0):
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {v!r}")
        if self.regime == "ood" and self.ood_distance <= self.class_separation:
            raise ValueError(f"ood_distance must exceed the class separation "
                             f"({self.class_separation}) in the ood regime, "
                             f"got {self.ood_distance}")
        if self.regime == "ood" and not is_finite_number(
                self.class_separation / 2.0 + self.ood_distance):
            raise ValueError(f"ood_distance must leave the unknown cluster's "
                             f"centre, class_separation / 2 + ood_distance, "
                             f"finite, got {self.ood_distance}")
        # numpy shapes no array of more than intp max bytes, and each bucket
        # is one (rows, d) float64 array, of at least 2 rows but unknown's
        cells = np.iinfo(np.intp).max // 8
        if self.d > cells // 2:
            raise ValueError(f"d must be at most {cells // 2}, got {self.d}")
        for name in ("n_train", "n_test", "n_unknown"):
            if (v := getattr(self, name)) > cells // self.d:
                raise ValueError(f"{name} must be at most {cells // self.d} "
                                 f"for d = {self.d}, got {v}")


def _gaussian_class_points(rng, n, d, separation):
    y = rng.integers(0, 2, size=n)
    centers = np.where(y[:, None] == 1, separation / 2.0, -separation / 2.0)
    x = rng.standard_normal((n, d))
    x[:, 0] += centers[:, 0]
    return x, y


def generate_synthetic(spec: SyntheticSpec) -> DatasetTaxonomy:
    """Generate train / test_known / unknown buckets per the spec's regime.

    Classes are isotropic unit-variance Gaussians with means +-sep/2 on
    the first coordinate, which keeps the Bayes error analytically
    checkable. In the ood regime the unknown cluster sits ood_distance
    past the class-1 mean on the same axis and is unlabeled; in the
    overlap regime unknown samples are fresh draws from the class mixture
    under a disjoint application id.
    """
    rng = np.random.default_rng(spec.seed)
    names = ("benign", "malware")

    def bucket(x, y, app_prefix):
        ids = (f"{app_prefix}-0", f"{app_prefix}-1")
        app_ids = tuple(map(ids.__getitem__, y.tolist()))
        return Dataset(x=x, y=y, app_ids=app_ids, n_classes=2,
                       class_names=names)

    x, y = _gaussian_class_points(rng, spec.n_train, spec.d,
                                  spec.class_separation)
    train = bucket(x, y, "known")
    x, y = _gaussian_class_points(rng, spec.n_test, spec.d,
                                  spec.class_separation)
    test = bucket(x, y, "known")

    unknown = None
    if spec.n_unknown > 0:
        if spec.regime == "ood":
            ux = rng.standard_normal((spec.n_unknown, spec.d))
            ux[:, 0] += spec.class_separation / 2.0 + spec.ood_distance
            uy = np.full(spec.n_unknown, UNLABELED)
        else:
            ux, uy = _gaussian_class_points(rng, spec.n_unknown, spec.d,
                                            spec.class_separation)
        unknown = Dataset(x=ux, y=uy,
                          app_ids=(UNKNOWN_APP_ID,) * spec.n_unknown,
                          n_classes=2, class_names=names)
    return DatasetTaxonomy(train=train, test_known=test, unknown=unknown)
