import numpy as np
import pytest
from hypothesis import given, strategies as st

import voteguard
from voteguard.core import Dataset, compute_metrics


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


def test_every_exported_name_resolves():
    assert len(set(voteguard.__all__)) == len(voteguard.__all__)
    for name in voteguard.__all__:
        assert hasattr(voteguard, name), name
