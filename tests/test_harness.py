import csv
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voteguard import harness
from voteguard.core import UNLABELED, Dataset, compute_metrics
from voteguard.data import DatasetTaxonomy, SyntheticSpec, generate_synthetic
from voteguard.ensemble import (EnsembleConfig, Prediction, fit, predict,
                                rejected)
from voteguard.harness import (MAX_GRID_POINTS, StabilityPoint,
                               StabilityReport, SweepPoint,
                               default_threshold_grid, emit_report,
                               report_to_dict, run_stability_sweep,
                               run_threshold_sweep)
from voteguard.learners import LearnerConfig
from voteguard.persist import log_base_from_tag


def overlap_setup(seed=0, n=400):
    spec = SyntheticSpec(regime="overlap", n_train=n, n_test=n // 2,
                         n_unknown=n // 2, d=4, class_separation=0.5,
                         seed=seed)
    tax = generate_synthetic(spec)
    config = EnsembleConfig(base=LearnerConfig(kind="tree"), m=15,
                            master_seed=seed)
    return fit(config, tax.train), tax, config


@pytest.fixture(scope="module")
def overlap_sweep():
    model, tax, config = overlap_setup()
    report = run_threshold_sweep(model, tax)
    return model, tax, report


class TestThresholdSweep:
    def test_max_threshold_rejects_nothing(self, overlap_sweep):
        _, _, report = overlap_sweep
        last = report.points[-1]
        assert last.threshold == pytest.approx(1.0)
        assert last.known_rejection_rate == 0.0
        assert last.unknown_rejection_rate == 0.0

    def test_zero_threshold_rejects_non_unanimous(self, overlap_sweep):
        model, tax, report = overlap_sweep
        from voteguard.ensemble import predict
        h = np.array([predict(model, x).entropy for x in tax.test_known.x])
        assert report.points[0].threshold == 0.0
        assert report.points[0].known_rejection_rate == \
            pytest.approx(np.mean(h > 0))
        assert report.points[0].known_rejection_rate > 0

    def test_rejection_rates_monotone_non_increasing(self, overlap_sweep):
        _, _, report = overlap_sweep
        known = [p.known_rejection_rate for p in report.points]
        unknown = [p.unknown_rejection_rate for p in report.points]
        assert all(b <= a for a, b in zip(known, known[1:]))
        assert all(b <= a for a, b in zip(unknown, unknown[1:]))

    def test_accepted_precision_dominates_baseline(self, overlap_sweep):
        # rejecting uncertain samples must not hurt precision by more
        # than the stated slack, at any threshold that rejects something
        _, _, report = overlap_sweep
        base = report.baseline_metrics.precision
        for p in report.points:
            if p.known_rejection_rate > 0 and p.metrics is not None \
                    and not p.metrics_degenerate:
                assert p.metrics.precision >= base - 0.01

    def test_entropy_summaries_ordered(self, overlap_sweep):
        _, _, report = overlap_sweep
        for s in (report.known_entropy, report.unknown_entropy):
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    def test_no_unknown_bucket(self, overlap_sweep):
        model, tax, _ = overlap_sweep
        solo = DatasetTaxonomy(train=tax.train, test_known=tax.test_known,
                               unknown=None)
        report = run_threshold_sweep(model, solo, grid=[0.5, 1.0])
        assert report.unknown_entropy is None
        assert all(p.unknown_rejection_rate is None for p in report.points)

    def test_unsorted_grid_rejected(self, overlap_sweep):
        model, tax, _ = overlap_sweep
        with pytest.raises(ValueError, match="sorted"):
            run_threshold_sweep(model, tax, grid=[0.5, 0.1])

    def test_empty_grid_rejected(self, overlap_sweep):
        model, tax, _ = overlap_sweep
        with pytest.raises(ValueError, match="non-empty"):
            run_threshold_sweep(model, tax, grid=[])

    def test_positive_class_out_of_range_rejected(self, overlap_sweep):
        model, tax, _ = overlap_sweep
        for positive_class in (-1, model.n_classes):
            with pytest.raises(ValueError, match="positive_class"):
                run_threshold_sweep(model, tax, positive_class=positive_class)


def per_point_sweep(known, truth, unknown, grid, positive_class):
    """The sweep's points by the rule at each threshold in turn: ``rejected``
    on both buckets, then ``compute_metrics`` on the accepted known rows."""
    points = []
    for tau in grid:
        accepted = ~rejected(known, tau)
        unknown_rej = (float(np.mean(rejected(unknown, tau)))
                       if unknown is not None else None)
        if not np.any(accepted):
            metrics, degenerate = None, True
        else:
            metrics = compute_metrics(known.label[accepted], truth[accepted],
                                      positive_class)
            degenerate = (metrics.tp + metrics.fp == 0
                          or metrics.tp + metrics.fn == 0)
        points.append(SweepPoint(
            threshold=float(tau),
            known_rejection_rate=float(np.mean(~accepted)),
            unknown_rejection_rate=unknown_rej, metrics=metrics,
            metrics_degenerate=degenerate))
    return tuple(points)


# few distinct entropies, so that ties occur and grid values meet them
ENTROPIES = (0.0, 0.1, 0.5, 0.5 + 2 ** -40, 1.0, 1.5)


@st.composite
def drawn_predictions(draw, n, k, all_outside):
    """A batch ``Prediction`` of ``n`` rows whose entropies, labels and
    supports are drawn directly; none is in the box if ``all_outside``."""
    entropy = np.array(draw(st.lists(st.sampled_from(ENTROPIES),
                                     min_size=n, max_size=n)))
    label = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                   max_size=n)), dtype=np.int64)
    support = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))
                       if not all_outside else [False] * n, dtype=bool)
    return Prediction(vote_distribution=np.full((n, k), 1 / k),
                      per_learner_labels=label[:, None], entropy=entropy,
                      label=label, support=support)


@settings(max_examples=300)
@given(data=st.data(), k=st.integers(2, 4), n_known=st.integers(1, 25),
       n_unknown=st.one_of(st.none(), st.integers(0, 25)),
       grid=st.lists(st.sampled_from(ENTROPIES + (0.2, 2.0)), min_size=1,
                     max_size=12).map(sorted))
def test_sorted_sweep_equals_the_rule_at_each_point(data, k, n_known,
                                                    n_unknown, grid):
    positive_class = data.draw(st.integers(0, k - 1))
    known = data.draw(drawn_predictions(n_known, k, data.draw(st.booleans())))
    truth = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                        min_size=n_known,
                                        max_size=n_known)), dtype=np.int64)
    test = Dataset(x=np.arange(float(n_known))[:, None], y=truth,
                   app_ids=("known",) * n_known, n_classes=k)
    unknown, unknown_data = None, None
    if n_unknown is not None:
        unknown_data = Dataset(x=-1 - np.arange(float(n_unknown))[:, None],
                               y=np.full(n_unknown, UNLABELED),
                               app_ids=("unknown",) * n_unknown, n_classes=k)
        if n_unknown:
            unknown = data.draw(drawn_predictions(n_unknown, k,
                                                  data.draw(st.booleans())))

    def stub_predict(model, x):
        # known row i holds i, and unknown row i holds -1 - i
        col = x[:, 0].astype(int)
        pred, rows = (known, col) if col[0] >= 0 else (unknown, -1 - col)
        return Prediction(*(getattr(pred, f)[rows] for f in (
            "vote_distribution", "per_learner_labels", "entropy", "label",
            "support")))

    model = SimpleNamespace(n_classes=k,
                            config=SimpleNamespace(entropy_log_base=2.0))
    taxonomy = DatasetTaxonomy(test_known=test, unknown=unknown_data)
    with mock.patch.object(harness, "predict", stub_predict):
        report = run_threshold_sweep(model, taxonomy, grid, positive_class)
    expected = per_point_sweep(known, truth, unknown, grid, positive_class)
    assert report.points == expected
    # repr tells apart every two floats that differ in a bit, and a numpy
    # int from a Python one
    assert repr(report.points) == repr(expected)
    if not known.support.any():
        assert all(p.metrics is None and p.metrics_degenerate
                   for p in report.points)


class TestSweepGridValues:
    @pytest.mark.parametrize("grid", [[0.0, math.nan], [-1.0, 0.5],
                                      [0.5, math.inf]])
    def test_bad_value_rejected(self, overlap_sweep, grid):
        model, tax, _ = overlap_sweep
        bad = next(v for v in grid if not (math.isfinite(v) and v >= 0))
        with pytest.raises(ValueError) as info:
            run_threshold_sweep(model, tax, grid=grid)
        assert str(info.value) == \
            f"threshold must be a finite number >= 0, got {bad}"

    def test_bucket_checks_come_first(self, overlap_sweep):
        model, _, _ = overlap_sweep
        for n, message in ((0, "test_known bucket is empty"),
                           (3, "test_known samples must be labeled")):
            test = Dataset(x=np.zeros((n, 4)), y=np.full(n, UNLABELED),
                           app_ids=("app",) * n, n_classes=2)
            with pytest.raises(ValueError, match=message):
                run_threshold_sweep(model, DatasetTaxonomy(
                    test_known=test, unknown=None), grid=[math.nan])


class TestDefaultGrid:
    def test_spans_entropy_range(self):
        grid = default_threshold_grid(2, 2.0)
        assert len(grid) == 50
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0)
        grid_e = default_threshold_grid(3, math.e)
        assert grid_e[-1] == pytest.approx(math.log(3))

    def test_fewer_than_two_points_rejected(self):
        for points in (1, 0, -4):
            with pytest.raises(ValueError, match="at least 2"):
                default_threshold_grid(2, 2.0, points=points)

    def test_more_than_the_cap_rejected(self):
        assert len(default_threshold_grid(2, 2.0, points=MAX_GRID_POINTS)) \
            == MAX_GRID_POINTS
        for points in (MAX_GRID_POINTS + 1, 10 ** 11):
            with pytest.raises(ValueError, match="at most 10000"):
                default_threshold_grid(2, 2.0, points=points)


class TestStabilitySweep:
    def test_single_voter_zero_mean(self):
        _, tax, config = overlap_setup(n=100)
        report = run_stability_sweep(config, tax.train, tax.test_known, [1])
        assert report.points[0].mean_entropy == 0.0

    def test_overlap_entropy_nontrivial(self):
        _, tax, config = overlap_setup(n=200)
        report = run_stability_sweep(config, tax.train, tax.test_known, [2, 4])
        assert report.points[-1].mean_entropy > 0.1

    def test_stabilization(self):
        _, tax, config = overlap_setup(n=300)
        report = run_stability_sweep(config, tax.train, tax.test_known,
                                     [16, 32, 64])
        means = [p.mean_entropy for p in report.points]
        assert abs(means[2] - means[1]) <= abs(means[1] - means[0]) + 0.02

    def test_grid_validation(self):
        _, tax, config = overlap_setup(n=100)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_stability_sweep(config, tax.train, tax.test_known, [4, 2])

    @pytest.mark.parametrize("grid", [[], [0, 2], [2, 2]])
    def test_grid_message_names_the_grid(self, grid):
        _, tax, config = overlap_setup(n=100)
        with pytest.raises(ValueError) as info:
            run_stability_sweep(config, tax.train, tax.test_known, grid)
        assert str(info.value) == (f"m_grid must be one or more strictly "
                                   f"increasing sizes >= 1, got {grid}")

    @pytest.mark.parametrize("grid", [[np.int64(1), np.int64(2)], [1.0, 2.0],
                                      [True, 2]], ids=["numpy", "float", "bool"])
    def test_grid_of_non_integers_rejected(self, grid):
        # the grid's fault, not that of the m it would set
        _, tax, config = overlap_setup(n=100)
        with pytest.raises(ValueError) as info:
            run_stability_sweep(config, tax.train, tax.test_known, grid)
        assert str(info.value) == (f"m_grid must be one or more strictly "
                                   f"increasing sizes >= 1, got {grid}")

    def test_each_size_equals_its_own_fit(self):
        # the sweep fits the largest ensemble once and scores its prefixes
        _, tax, config = overlap_setup(n=100)
        report = run_stability_sweep(config, tax.train, tax.test_known,
                                     [1, 3, 4])
        for point in report.points:
            model = fit(replace(config, m=point.m), tax.train)
            h = predict(model, tax.test_known.x).entropy
            assert (point.mean_entropy, point.std_entropy) == \
                (float(h.mean()), float(h.std()))


class TestEmitReport:
    def test_csv_row_count(self, overlap_sweep, tmp_path):
        model, tax, _ = overlap_sweep
        report = run_threshold_sweep(model, tax, grid=[0.2, 0.5, 0.9])
        out = tmp_path / "r.csv"
        emit_report(report, out, fmt="csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4            # header + 3 grid points
        assert lines[0].startswith("threshold,known_rejection_rate")

    @pytest.mark.parametrize("sweep", ["threshold", "no-unknown",
                                       "stability"])
    def test_csv_cells_equal_json_values(self, overlap_sweep, tmp_path,
                                         sweep):
        model, tax, _ = overlap_sweep
        if sweep == "stability":
            report = run_stability_sweep(model.config, tax.train,
                                         tax.test_known, [1, 3])
        else:
            if sweep == "no-unknown":        # empty unknown-rate cells
                tax = DatasetTaxonomy(train=tax.train,
                                      test_known=tax.test_known, unknown=None)
            report = run_threshold_sweep(model, tax, grid=[0.0, 0.5, 1.0])
        emit_report(report, tmp_path / "r.csv", fmt="csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        points = report_to_dict(report)["points"]
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            values = {**point, **(point.get("metrics") or {})}
            for column, cell in row.items():
                value = values[column]
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == str(value).lower()
                else:
                    assert type(value)(cell) == value, column

    def test_report_keys_follow_field_order(self, overlap_sweep):
        model, tax, report = overlap_sweep
        doc = report_to_dict(report)
        assert list(doc) == ["schema", "version", "points",
                             "baseline_metrics", "known_entropy",
                             "unknown_entropy", "log_base"]
        assert list(doc["points"][0]) == [
            "threshold", "known_rejection_rate", "unknown_rejection_rate",
            "metrics", "metrics_degenerate"]
        assert list(doc["baseline_metrics"]) == [
            "tp", "fp", "tn", "fn", "precision", "recall", "f1", "accuracy"]
        assert list(doc["known_entropy"]) == ["min", "q1", "median", "q3",
                                              "max"]
        stability = report_to_dict(run_stability_sweep(
            model.config, tax.train, tax.test_known, [1]))
        assert list(stability) == ["schema", "version", "points", "log_base"]
        assert list(stability["points"][0]) == ["m", "mean_entropy",
                                                "std_entropy"]

    def test_unknown_report_type_rejected(self, overlap_sweep):
        _, _, report = overlap_sweep
        with pytest.raises(TypeError, match="SweepPoint"):
            report_to_dict(report.points[0])

    def test_byte_identical_replay(self, overlap_sweep, tmp_path):
        _, _, report = overlap_sweep
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, a, fmt="json")
        emit_report(report, b, fmt="json")
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_the_old_file(self, overlap_sweep, tmp_path):
        # a report holding a value JSON cannot hold, a numpy int: the write
        # left a truncated file in place of the old one
        path = tmp_path / "report.json"
        emit_report(overlap_sweep[2], path)
        before = path.read_bytes()
        report = StabilityReport(points=(StabilityPoint(
            m=np.int64(1), mean_entropy=0.0, std_entropy=0.0),), log_base=2.0)
        with pytest.raises(TypeError):
            emit_report(report, path)
        assert path.read_bytes() == before

    def test_unknown_format_rejected(self, overlap_sweep, tmp_path):
        _, _, report = overlap_sweep
        with pytest.raises(ValueError, match="format"):
            emit_report(report, tmp_path / "r.xml", fmt="xml")

    def test_unknown_log_base_tag_rejected(self, overlap_sweep):
        _, _, report = overlap_sweep
        tag = report_to_dict(report)["log_base"]
        assert log_base_from_tag(tag) == report.log_base
        with pytest.raises(ValueError, match="log base tag"):
            log_base_from_tag("10")
