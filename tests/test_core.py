import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import voteguard
from voteguard.core import (Dataset, compute_metrics, is_finite_number,
                            is_int)


class TestComputeMetrics:
    def test_direct_counts(self):
        m = compute_metrics([1, 1, 0, 0], [1, 0, 0, 0], positive_class=1)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2 / 3, abs=1e-4)

    def test_perfect_prediction(self):
        m = compute_metrics([0, 1, 1, 0], [0, 1, 1, 0], positive_class=1)
        assert m.precision == m.recall == m.f1 == m.accuracy == 1.0

    def test_degenerate_denominators(self):
        m = compute_metrics([0, 0], [1, 1], positive_class=1)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_metrics([0, 1], [0], positive_class=1)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [], positive_class=1)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=50),
           st.integers(0, 2))
    def test_bounds_and_count_conservation(self, pairs, positive):
        pred, truth = zip(*pairs)
        m = compute_metrics(pred, truth, positive_class=positive)
        for v in (m.precision, m.recall, m.f1, m.accuracy):
            assert 0.0 <= v <= 1.0
        assert m.tp + m.fp + m.tn + m.fn == len(pairs)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=50))
    def test_swapping_positive_class_transposes_counts(self, pairs):
        pred, truth = zip(*pairs)
        a = compute_metrics(pred, truth, positive_class=1)
        b = compute_metrics(pred, truth, positive_class=0)
        assert (a.tp, a.fp, a.tn, a.fn) == (b.tn, b.fn, b.tp, b.fp)


class TestDataset:
    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x=np.array([[np.nan]]), y=np.array([0]),
                    app_ids=("a",), n_classes=2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(x=np.zeros((1, 1)), y=np.array([5]),
                    app_ids=("a",), n_classes=2)

    def test_rejects_empty_app_id(self):
        with pytest.raises(ValueError, match="app_id"):
            Dataset(x=np.zeros((1, 1)), y=np.array([0]),
                    app_ids=("",), n_classes=2)

    @pytest.mark.parametrize("app_id", [" calc", "  ", "calc\n"])
    def test_rejects_an_app_id_a_csv_cannot_read_back(self, app_id):
        # load_csv strips every cell: " calc" would read back as "calc", and
        # "  " as an empty app id, which fails the load; so write_csv never
        # meets such an id. Repeats of one id are allowed.
        with pytest.raises(ValueError) as info:
            Dataset(x=np.zeros((3, 2)), y=np.array([0, 1, 0]),
                    app_ids=("calc", app_id, app_id), n_classes=2)
        assert str(info.value) == ("app_ids must be non-empty and without "
                                   f"surrounding whitespace, got {app_id!r}")

    @pytest.mark.parametrize("names,message", [
        (("a", "a"), "must be unique, got ['a', 'a']"),
        ((0, 1), "must be strings, got 0"),
        (("a", b"b"), "must be strings, got b'b'"),
        ((" a", "b"), "must be non-empty and without surrounding "
                      "whitespace, got ' a'"),
        (("a", "b\n"), "must be non-empty and without surrounding "
                       "whitespace, got 'b\\n'"),
        (("", "b"), "must be non-empty and without surrounding "
                    "whitespace, got ''"),
        # predict prints names in tab-separated cells, one sample a line
        (("a\tb", "b"), "must hold no tab or line break, got 'a\\tb'"),
        (("a", "b\nc"), "must hold no tab or line break, got 'b\\nc'"),
        (("a\u2028b", "b"), "must hold no tab or line break, "
                            "got 'a\\u2028b'"),
    ], ids=["twice", "ints", "bytes", "padded", "newline", "empty", "tab",
            "inner-newline", "line-separator"])
    def test_rejects_class_names_no_model_file_could_hold(self, names,
                                                          message):
        # ("a", "a") and (0, 1) were fitted and saved, and then load_model
        # refused the file it was given
        with pytest.raises(ValueError) as info:
            Dataset(x=np.zeros((2, 1)), y=np.array([0, 1]),
                    app_ids=("a", "b"), n_classes=2, class_names=names)
        assert str(info.value) == f"class_names {message}"

    def test_rejects_zero_feature_columns(self):
        # fit died in the standardizer with numpy's "zero-size array to
        # reduction operation minimum which has no identity"
        with pytest.raises(ValueError) as info:
            Dataset(x=np.zeros((4, 0)), y=np.zeros(4), app_ids=("a",) * 4,
                    n_classes=2)
        assert str(info.value) == ("features must be 2-D with at least one "
                                   "column, got shape (4, 0)")

    def test_tie_free_flags_each_column(self):
        # column 1's only tie is one pair, and column 2's -0.0 and 0.0
        # compare equal, so both have ties
        x = np.array([[3.0, 1.0, -0.0, 0.5],
                      [1.0, 2.0, 7.0, -0.5],
                      [2.0, 1.0, 0.0, 0.0],
                      [0.0, 4.0, 6.0, 9.0]])
        data = Dataset(x=x, y=np.zeros(4, dtype=int), app_ids=("a",) * 4,
                       n_classes=2)
        assert data.tie_free.tolist() == [True, False, False, True]
        assert data.tie_free is data.tie_free          # computed once
        with pytest.raises(ValueError, match="read-only"):
            data.tie_free[1] = True

    def test_f_contiguous_features_kept_without_copy(self):
        x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        data = Dataset(x=x, y=np.zeros(4, dtype=int), app_ids=("a",) * 4,
                       n_classes=2)
        assert data.x is x

    def test_c_contiguous_features_kept_as_given(self):
        x = np.arange(12.0).reshape(4, 3)
        data = Dataset(x=x, y=np.zeros(4, dtype=int), app_ids=("a",) * 4,
                       n_classes=2)
        assert data.x is x

    @pytest.mark.parametrize("view", [lambda x: x[::2], lambda x: x[:, ::2]],
                             ids=["rows", "columns"])
    def test_non_contiguous_features_stored_c_contiguous(self, view):
        x = view(np.arange(48.0).reshape(8, 6))
        assert not (x.flags.c_contiguous or x.flags.f_contiguous)
        data = Dataset(x=x, y=np.zeros(len(x), dtype=int),
                       app_ids=("a",) * len(x), n_classes=2)
        assert data.x.flags.c_contiguous
        assert not np.shares_memory(data.x, x)
        assert np.array_equal(data.x, x)

    def test_layout_leaves_presort_and_ties_unchanged(self):
        rng = np.random.default_rng(3)
        # columns 0-2 have ties, column 3 has none
        x = np.column_stack([rng.integers(0, 5, (50, 3)).astype(float),
                             rng.permutation(50) / 7.0])
        c, f = (Dataset(x=v, y=np.zeros(50, dtype=int), app_ids=("a",) * 50,
                        n_classes=2)
                for v in (x, np.asfortranarray(x)))
        assert f.x.flags.f_contiguous and not f.x.flags.c_contiguous
        assert np.array_equal(c.column_order, f.column_order)
        assert c.tie_free.tolist() == f.tie_free.tolist() == \
            [False, False, False, True]


def test_every_exported_name_resolves():
    assert len(set(voteguard.__all__)) == len(voteguard.__all__)
    for name in voteguard.__all__:
        assert hasattr(voteguard, name), name


def test_number_predicates():
    # the rules a config value and a model file's number are held to
    assert is_int(0) and is_int(-3) and is_int(2 ** 70)
    assert not any(map(is_int, (True, 1.0, np.int64(1), "1", None)))
    assert is_finite_number(0) and is_finite_number(-1.5)
    assert is_finite_number(2 ** 70)
    assert not any(map(is_finite_number, (False, math.nan, math.inf,
                                          10 ** 400, np.float64(1.0), "1")))
