import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import voteguard
from conftest import TRICKY, make_binary_dataset
from voteguard.core import UNLABELED, Dataset
from voteguard.data import (_WRITE_BLOCK, CsvFormatError, CsvSchema,
                            DatasetTaxonomy, SyntheticSpec,
                            generate_synthetic, load_csv, load_manifest,
                            write_csv, write_manifest)

SCHEMA = CsvSchema(label_column="label", app_id_column="app",
                   feature_columns=("f0", "f1"),
                   class_names=("benign", "malware"))


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n"
                     "0.1,0.2,benign,calc\n"
                     "1.5,-0.3,malware,worm\n"
                     "0.0,0.0,benign,calc\n")
        ds = load_csv(p, SCHEMA)
        assert len(ds) == 3 and ds.d == 2
        assert ds.y.tolist() == [0, 1, 0]
        assert ds.app_ids == ("calc", "worm", "calc")

    def test_unknown_label_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n0.1,0.2,goodware,calc\n")
        with pytest.raises(CsvFormatError, match="row 2.*goodware"):
            load_csv(p, SCHEMA)

    def test_nan_feature_rejected_whole_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n"
                     "0.1,0.2,benign,calc\n"
                     "NaN,0.2,benign,calc\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(p, SCHEMA)

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_feature_rejected_whole_file(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n"
                     "0.1,0.2,benign,calc\n"
                     f"0.1,{cell},benign,calc\n")
        with pytest.raises(CsvFormatError, match="row 3: non-finite.*'f1'"):
            load_csv(p, SCHEMA)

    def test_unparsable_value_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n0.1,oops,benign,calc\n")
        with pytest.raises(CsvFormatError, match="row 2.*'f1'"):
            load_csv(p, SCHEMA)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label,app\n0.1,benign,calc\n")
        with pytest.raises(CsvFormatError, match="missing columns"):
            load_csv(p, SCHEMA)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_csv(p, SCHEMA)

    def test_empty_label_is_unlabeled(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n0.1,0.2,,mystery\n")
        ds = load_csv(p, SCHEMA)
        assert ds.y.tolist() == [UNLABELED]

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(x=rng.standard_normal((5, 2)),
                     y=np.array([0, 1, 0, 1, UNLABELED]),
                     app_ids=("a", "b", "a", "b", "u"), n_classes=2,
                     class_names=SCHEMA.class_names)
        p = tmp_path / "d.csv"
        write_csv(ds, p, SCHEMA)
        back = load_csv(p, SCHEMA)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.app_ids == ds.app_ids


    def test_rows_numbered_by_line_after_a_blank_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app\n"
                     "0.1,0.2,benign,calc\n"
                     "\n"
                     "0.1,oops,benign,calc\n")
        with pytest.raises(CsvFormatError,
                           match="row 4: bad value 'oops' in column 'f1'"):
            load_csv(p, SCHEMA)

    def test_rows_numbered_by_line_after_a_multi_line_record(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('f0,f1,label,app\n'
                     '0.1,0.2,"benign\n",calc\n'
                     '0.3,0.4,malware,worm\n')
        assert load_csv(p, SCHEMA).y.tolist() == [0, 1]
        p.write_text('f0,f1,label,app\n'
                     '0.1,0.2,"benign\n",calc\n'
                     'oops,0.4,malware,worm\n')
        with pytest.raises(CsvFormatError,
                           match="row 4: bad value 'oops' in column 'f0'"):
            load_csv(p, SCHEMA)

    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,app,label,extra\n"
                     "0.1,0.2,calc\n"
                     "0.3,0.4,worm,malware,ignored,ignored\n")
        ds = load_csv(p, SCHEMA)
        assert ds.y.tolist() == [UNLABELED, 1]
        assert ds.app_ids == ("calc", "worm")

    def test_schema_column_named_twice_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label,app,f1\n0.1,0.2,benign,calc,9.9\n")
        with pytest.raises(CsvFormatError,
                           match="column 'f1' appears 2 times in the header"):
            load_csv(p, SCHEMA)
        p.write_text("f0,f1,label,app,note,note\n0.1,0.2,benign,calc,a,b\n")
        assert load_csv(p, SCHEMA).x.tolist() == [[0.1, 0.2]]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20))
@example([(-0.0, 5e-324), (1e308, -1e308), (2.2250738585072014e-308,
                                            -1.5e-310)])
def test_write_load_round_trips_floats_bit_for_bit(rows):
    ds = Dataset(x=np.array(rows, dtype=np.float64).reshape(-1, 2),
                 y=np.zeros(len(rows), dtype=np.int64),
                 app_ids=("a",) * len(rows), n_classes=2,
                 class_names=SCHEMA.class_names)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        write_csv(ds, p, SCHEMA)
        back = load_csv(p, SCHEMA)
    assert back.x.tobytes() == ds.x.tobytes()


def _write_csv_row_by_row(data, path, schema):
    """The reference for write_csv: one csv.writer row per sample, each
    feature written as its float's repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*schema.feature_columns, schema.label_column,
                         schema.app_id_column])
        for i in range(len(data)):
            label = int(data.y[i])
            name = "" if label == UNLABELED else schema.class_names[label]
            writer.writerow([*(repr(float(v)) for v in data.x[i]), name,
                             data.app_ids[i]])


@settings(max_examples=40)
@given(n=st.sampled_from([0, 1, 2, 9, _WRITE_BLOCK - 1, _WRITE_BLOCK,
                          _WRITE_BLOCK + 1]),
       d=st.sampled_from([1, 8]),
       # (where in the flat feature array, as a fraction; value)
       special=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                  FINITE), max_size=8),
       apps=st.lists(TRICKY, min_size=1, max_size=4),
       names=st.lists(TRICKY, min_size=2, max_size=2, unique=True),
       seed=st.integers(0, 2**32 - 1))
@example(n=_WRITE_BLOCK + 1, d=8,
         special=[(0.0, -0.0), (0.1, 5e-324), (0.2, 1e-05), (0.3, 1e16),
                  (0.4, 1e308), (0.5, -1e308)],
         apps=["a,b", 'x"\r\n y', "é 😀"],
         names=['b "1"', "m,\n€"], seed=0)
def test_write_csv_matches_row_by_row_csv_writer(n, d, special, apps, names,
                                                 seed):
    # each row draws its label and app id apart, so one app id comes under
    # several labels; rows either side of a block boundary, too, must each
    # be written as csv.writer writes them alone
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    for where, value in special if n else ():
        x.flat[int(where * n * d)] = value
    data = Dataset(x=x, y=rng.integers(UNLABELED, 2, size=n),
                   app_ids=tuple(apps[i] for i in
                                 rng.integers(0, len(apps), size=n)),
                   n_classes=2)
    schema = CsvSchema(label_column="label", app_id_column="app",
                       feature_columns=tuple(f"f{j}" for j in range(d)),
                       class_names=tuple(names))
    with tempfile.TemporaryDirectory() as tmp:
        block, row = Path(tmp) / "block.csv", Path(tmp) / "row.csv"
        write_csv(data, block, schema)
        _write_csv_row_by_row(data, row, schema)
        assert block.read_bytes() == row.read_bytes()


def test_write_csv_rejects_a_schema_with_other_features(tmp_path):
    data = make_binary_dataset(n=5, d=4)
    p = tmp_path / "d.csv"
    with pytest.raises(ValueError) as info:
        write_csv(data, p, SCHEMA)
    assert str(info.value) == ("schema names 2 feature columns for data "
                               "with 4 features")
    assert not p.exists()


def test_write_csv_rejects_a_schema_without_every_class(tmp_path):
    data = Dataset(x=np.zeros((3, 2)), y=np.array([0, 1, 2]),
                   app_ids=("a", "b", "c"), n_classes=3)
    p = tmp_path / "d.csv"
    with pytest.raises(ValueError) as info:
        write_csv(data, p, SCHEMA)
    assert str(info.value) == "schema names 2 classes for data with label 2"
    assert not p.exists()


def test_schema_with_a_class_named_twice_rejected():
    # load_csv would read both classes' rows as the later class
    with pytest.raises(ValueError) as info:
        CsvSchema(label_column="label", app_id_column="app",
                  feature_columns=("f0",), class_names=("benign", "benign"))
    assert str(info.value) == \
        "classes must be unique, got ['benign', 'benign']"


def test_schema_with_a_class_that_is_no_string_rejected():
    # it raised AttributeError: 'int' object has no attribute 'strip'
    with pytest.raises(ValueError) as info:
        replace(SCHEMA, class_names=(1, 2))
    assert str(info.value) == "classes must be strings, got 1"


CELL = st.one_of(FINITE.map(repr),
                 st.sampled_from(["oops", "", "nan", "-inf", " 1.5 ", "1e999"]))
ROW = st.tuples(st.lists(CELL, min_size=2, max_size=2),
                st.sampled_from(["benign", " malware ", "", "goodware"]),
                st.sampled_from(["calc", "", "  "]),
                st.integers(1, 4),       # cells written; a short row ends early
                st.booleans())           # a blank line before the row


def _expected_problems(cells, lineno):
    """The problems of one row, read cell by cell."""
    f0, f1, label, app = [*cells, None, None, None][:4]
    problems = []
    for col, cell in (("f0", f0), ("f1", f1)):
        try:
            v = float(cell)
        except (TypeError, ValueError):
            problems.append(f"row {lineno}: bad value {cell!r} "
                            f"in column {col!r}")
        else:
            if not math.isfinite(v):
                problems.append(f"row {lineno}: non-finite value "
                                f"in column {col!r}")
    label = (label or "").strip()
    if label not in ("", "benign", "malware"):
        problems.append(f"row {lineno}: label {label!r} not in declared "
                        f"classes ['benign', 'malware']")
    if not (app or "").strip():
        problems.append(f"row {lineno}: empty app_id")
    return problems


@given(st.lists(ROW, min_size=1, max_size=25))
def test_problems_listed_by_row_then_column_and_capped(rows):
    out = io.StringIO()
    out.write("f0,f1,label,app\n")
    writer = csv.writer(out, lineterminator="\n")
    lineno, expected = 1, []
    for features, label, app, kept, blank in rows:
        if blank:
            out.write("\n")
            lineno += 1
        cells = [*features, label, app][:kept]
        writer.writerow(cells)
        lineno += 1
        expected += _expected_problems(cells, lineno)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_text(out.getvalue())
        if not expected:
            assert len(load_csv(p, SCHEMA)) == len(rows)
            return
        with pytest.raises(CsvFormatError) as info:
            load_csv(p, SCHEMA)
    more = f" (+{len(expected) - 10} more)" if len(expected) > 10 else ""
    assert str(info.value) == f"{p}: {'; '.join(expected[:10])}{more}"


def test_load_manifest(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"classes": ["benign", "malware"], "label_column": "label",'
                 ' "app_id_column": "app", "feature_columns": ["f0", "f1"],'
                 ' "unknown_app_ids": ["worm"]}')
    schema, unknown = load_manifest(p)
    assert schema == SCHEMA
    assert unknown == {"worm"}


def test_manifest_missing_key_rejected(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"classes": ["benign", "malware"], "app_id_column": "app",'
                 ' "feature_columns": ["f0", "f1"]}')
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value) == f"{p}: manifest missing key 'label_column'"


def test_manifest_not_utf8_rejected(tmp_path):
    p = tmp_path / "m.json"
    p.write_bytes('{"classes": ["bénign", "malware"]}'.encode("latin-1"))
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value).startswith(f"{p}: manifest is not UTF-8 text: ")


@pytest.mark.parametrize("name", ["", " benign", "benign\n"])
def test_class_name_no_csv_cell_can_match_rejected(tmp_path, name):
    # load_csv strips cells and reads an empty label as unlabeled
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "classes": [name, "malware"], "label_column": "label",
        "app_id_column": "app", "feature_columns": ["f0", "f1"]}))
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value) == (
        f"{p}: manifest classes must be non-empty and without surrounding "
        f"whitespace, got {name!r}")
    with pytest.raises(ValueError, match="^classes must be non-empty"):
        CsvSchema(label_column="label", app_id_column="app",
                  feature_columns=("f0",), class_names=("benign", name))


def test_csv_with_header_and_no_rows_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,label,app\n\n")
    with pytest.raises(CsvFormatError) as info:
        load_csv(p, SCHEMA)
    assert str(info.value) == f"{p}: no data rows"


@pytest.mark.parametrize("change,twice", [
    ({"app_id_column": "f0"}, "f0"), ({"app_id_column": "label"}, "label"),
    ({"label_column": "f1"}, "f1"), ({"feature_columns": ["f0", "app"]}, "app")])
def test_manifest_column_with_two_roles_rejected(tmp_path, change, twice):
    # app ids read from a feature never match unknown_app_ids, and a label
    # read as a feature leaks it
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "classes": ["benign", "malware"], "label_column": "label",
        "app_id_column": "app", "feature_columns": ["f0", "f1"], **change}))
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value) == (
        f"{p}: manifest gives column {twice!r} two roles; label_column, "
        f"app_id_column and feature_columns must be distinct")


@pytest.mark.parametrize("fields,twice", [
    ({"label_column": "f0"}, "f0"), ({"app_id_column": "label"}, "label"),
    ({"feature_columns": ("f0", "f0")}, "f0")],
    ids=["label-is-feature", "app-id-is-label", "feature-twice"])
def test_schema_column_with_two_roles_rejected(fields, twice):
    # write_csv would name the column twice in its header, and load_csv
    # refuses such a file
    with pytest.raises(ValueError) as info:
        replace(SCHEMA, **fields)
    assert str(info.value) == (
        f"gives column {twice!r} two roles; label_column, app_id_column "
        f"and feature_columns must be distinct")


def test_schema_names_the_first_column_that_repeats():
    with pytest.raises(ValueError, match="^gives column 'f1' two roles"):
        replace(SCHEMA, feature_columns=("f1", "f0", "f0", "f1"))


def test_wide_header_checked_in_linear_time(tmp_path):
    # each wanted column was found by a scan of the header, and a repeated
    # role by a scan of the roles after each: at 40,000 columns a load took
    # about 50 s, and refusing a repeated last name about 16 s
    names = tuple(f"f{i}" for i in range(40_000))
    schema = replace(SCHEMA, feature_columns=names)
    data = Dataset(x=np.zeros((4, len(names))), y=np.array([0, 1, 0, 1]),
                   app_ids=("calc",) * 4, n_classes=2,
                   class_names=SCHEMA.class_names)
    write_csv(data, tmp_path / "wide.csv", schema)
    write_manifest(tmp_path / "manifest.json", schema, [])
    start = time.perf_counter()
    loaded = load_csv(tmp_path / "wide.csv",
                      load_manifest(tmp_path / "manifest.json")[0])
    assert time.perf_counter() - start < 3
    assert loaded.x.shape == (4, 40_000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^gives column 'f39999' two roles"):
        replace(SCHEMA, feature_columns=(*names, names[-1]))
    assert time.perf_counter() - start < 3


@settings(max_examples=40)
@given(columns=st.lists(TRICKY, min_size=3, max_size=6, unique=True),
       names=st.lists(TRICKY, min_size=2, max_size=3, unique=True),
       ids=st.lists(TRICKY, max_size=4))
def test_write_manifest_round_trips(columns, names, ids):
    schema = CsvSchema(label_column=columns[0], app_id_column=columns[1],
                       feature_columns=tuple(columns[2:]),
                       class_names=tuple(names))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.json"
        write_manifest(p, schema, ids)
        assert load_manifest(p) == (schema, frozenset(ids))


@pytest.mark.parametrize("held_out", [" known-1", "known-1\n", ""],
                         ids=["padded", "newline", "empty"])
def test_unknown_app_id_no_csv_cell_can_match_rejected(tmp_path, held_out):
    # load_csv reads every app id stripped and refuses an empty one, so
    # such an id held out nothing, and its app's rows were fitted
    p = tmp_path / "m.json"
    message = (f"unknown_app_ids must be non-empty and without surrounding "
               f"whitespace, got {held_out!r}")
    with pytest.raises(ValueError) as info:
        write_manifest(p, SCHEMA, ["worm", held_out, "worm"])
    assert str(info.value) == message
    assert not p.exists()
    write_manifest(p, SCHEMA, ["worm"])
    doc = json.loads(p.read_text())
    p.write_text(json.dumps({**doc, "unknown_app_ids": ["worm", held_out]}))
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value) == f"{p}: manifest {message}"


def test_manifest_missing_two_keys_names_the_same_one_every_run(tmp_path):
    # the keys are checked in a fixed order, whatever the string hash seed
    p = tmp_path / "m.json"
    p.write_text('{"app_id_column": "app", "feature_columns": ["f0"]}')
    with pytest.raises(CsvFormatError) as info:
        load_manifest(p)
    assert str(info.value) == f"{p}: manifest missing key 'classes'"
    src = str(Path(voteguard.__file__).parents[1])
    code = ("import sys\nfrom voteguard.data import load_manifest\n"
            "try:\n    load_manifest(sys.argv[1])\n"
            "except ValueError as exc:\n    print(exc)\n")
    for seed in ("1", "2", "3"):
        run = subprocess.run(
            [sys.executable, "-c", code, str(p)], capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert run.stdout == f"{info.value}\n", run.stderr


def test_byte_order_mark_is_accepted(tmp_path):
    spec = SyntheticSpec(regime="ood", n_train=20, n_test=2, n_unknown=0, d=2)
    write_csv(generate_synthetic(spec).train, tmp_path / "d.csv", SCHEMA)
    (tmp_path / "m.json").write_text(
        '{"classes": ["benign", "malware"], "label_column": "label",'
        ' "app_id_column": "app", "feature_columns": ["f0", "f1"],'
        ' "unknown_app_ids": ["worm"]}')
    for name in ("d.csv", "m.json"):
        (tmp_path / f"bom-{name}").write_bytes(
            b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
    assert load_manifest(tmp_path / "bom-m.json") == \
        load_manifest(tmp_path / "m.json")
    plain, bom = (load_csv(tmp_path / name, SCHEMA)
                  for name in ("d.csv", "bom-d.csv"))
    assert np.array_equal(plain.x, bom.x) and np.array_equal(plain.y, bom.y)
    assert (plain.app_ids, plain.n_classes, plain.class_names) == \
        (bom.app_ids, bom.n_classes, bom.class_names)


def app_dataset(counts_by_app, seed=0):
    """counts_by_app: {app_id: (n_class0, n_class1)}"""
    rng = np.random.default_rng(seed)
    xs, ys, apps = [], [], []
    for app, (n0, n1) in counts_by_app.items():
        for label, n in ((0, n0), (1, n1)):
            xs.append(rng.standard_normal((n, 2)))
            ys.append(np.full(n, label))
            apps.extend([app] * n)
    return Dataset(x=np.vstack(xs), y=np.concatenate(ys),
                   app_ids=tuple(apps), n_classes=2)


class TestGenerateSynthetic:
    def test_ood_midpoint_classifier_near_perfect(self):
        # closed form: error = P(N(0,1) > sep/2) = 1 - Phi(5) ~ 2.9e-7
        spec = SyntheticSpec(regime="ood", n_train=100, n_test=2000,
                             n_unknown=10, d=3, class_separation=10.0,
                             ood_distance=30.0, seed=0)
        tax = generate_synthetic(spec)
        pred = (tax.test_known.x[:, 0] > 0).astype(int)
        assert np.mean(pred == tax.test_known.y) >= 0.999

    def test_overlap_regime_accuracy_near_bayes(self):
        # Bayes accuracy = Phi(sep/2) = Phi(0.25) ~ 0.5987
        spec = SyntheticSpec(regime="overlap", n_train=100, n_test=2000,
                             n_unknown=100, d=3, class_separation=0.5, seed=0)
        tax = generate_synthetic(spec)
        pred = (tax.test_known.x[:, 0] > 0).astype(int)
        acc = np.mean(pred == tax.test_known.y)
        bayes = 0.5 * (1 + math.erf(0.25 / math.sqrt(2)))
        assert acc == pytest.approx(bayes, abs=0.03)
        assert acc <= 0.65

    def test_ood_unknown_cluster_position(self):
        spec = SyntheticSpec(regime="ood", n_train=100, n_test=100,
                             n_unknown=400, d=4, class_separation=6.0,
                             ood_distance=20.0, seed=1)
        tax = generate_synthetic(spec)
        center = tax.unknown.x.mean(axis=0)
        assert center[0] == pytest.approx(23.0, abs=0.2)
        assert np.all(np.abs(center[1:]) < 0.2)
        assert np.all(tax.unknown.y == UNLABELED)

    def test_overlap_unknown_from_same_mixture(self):
        spec = SyntheticSpec(regime="overlap", n_train=100, n_test=100,
                             n_unknown=2000, d=2, class_separation=0.5, seed=1)
        tax = generate_synthetic(spec)
        assert abs(tax.unknown.x[:, 0].mean()) < 0.2
        assert set(tax.unknown.app_ids) == {"unknown"}
        assert set(tax.unknown.app_ids).isdisjoint(tax.train.app_ids)

    def test_no_unknown_bucket(self):
        spec = SyntheticSpec(regime="overlap", n_train=10, n_test=10,
                             n_unknown=0, d=2, class_separation=1.0, seed=0)
        assert generate_synthetic(spec).unknown is None

    def test_reproducible(self):
        spec = SyntheticSpec(regime="ood", n_train=50, n_test=50,
                             n_unknown=50, d=2, class_separation=6.0,
                             ood_distance=20.0, seed=9)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.unknown.x, b.unknown.x)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="ood_distance"):
            SyntheticSpec(regime="ood", class_separation=6.0, ood_distance=5.0)
        with pytest.raises(ValueError, match="regime"):
            SyntheticSpec(regime="far")
        # numpy's generator would fail on it, after the spec was accepted
        with pytest.raises(ValueError,
                           match=r"^seed must be an integer >= 0, got -1$"):
            SyntheticSpec(regime="ood", seed=-1)

    @pytest.mark.parametrize("field_name, value, what", [
        ("d", 2.0, "an integer >= 1"),
        ("n_train", 10.5, "an integer >= 2"),
        ("n_test", np.int64(10), "an integer >= 2"),
        ("n_unknown", True, "an integer >= 0"),
        ("seed", 1.5, "an integer >= 0"),
        ("class_separation", "6", "a finite number > 0"),
        ("class_separation", True, "a finite number > 0"),
        ("ood_distance", math.inf, "a finite number > 0"),
    ])
    def test_spec_refuses_wrong_types(self, field_name, value, what):
        # each ended in a TypeError from numpy or from the spec's own check
        with pytest.raises(ValueError) as info:
            SyntheticSpec(regime="ood", **{field_name: value})
        assert str(info.value) == f"{field_name} must be {what}, got {value!r}"


def test_taxonomy_rejects_overlapping_app_ids():
    data = app_dataset({"a": (5, 5)})
    with pytest.raises(ValueError, match="both known and unknown"):
        DatasetTaxonomy(train=data, test_known=data, unknown=data)
