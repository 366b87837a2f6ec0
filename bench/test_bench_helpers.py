"""Tests for the benchmark's own helpers: percentiles, the latency buffer,
the pass schedule, span self time, output checks, the tracing wrappers,
and BENCHMARK.json's agreement with the metric tables in run.py."""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from checks import (Checks, ModelShas, earlier_model_shas, predict_line,
                    sweep_problems, votes_match_labels)
from measure import Latencies, SpeedSampler, percentile
from run import END_TO_END, PER_LAYER, layer_values
from tracing import Instrumentation, Tracer, per_round, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_percentile_reports_value_count_and_tail():
    values = list(range(1, 1001))
    p50 = percentile(values, 50)
    assert p50.value == pytest.approx(500.5)
    assert p50.n == 1000 and p50.beyond == 500
    p99 = percentile(values, 99)
    assert p99.value == pytest.approx(990.01)
    assert p99.beyond == 10
    assert percentile([3.0], 99) == (3.0, 1, 0)
    assert percentile([5, 1, 3], 0).value == 1
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_takes_numpy_arrays():
    p50 = percentile(np.array([4.0, 1.0, 2.0, 3.0]), 50)
    assert p50 == (2.5, 4, 2)
    with pytest.raises(ValueError):
        percentile(np.array([]), 50)


def test_latency_buffer_keeps_first_calls_and_counts_the_rest():
    lat = Latencies(3)
    for v in (5.0, 6.0, 7.0, 8.0, 9.0):
        lat.add(v)
    assert lat.values.tolist() == [5.0, 6.0, 7.0]
    assert lat.calls == 5


def test_gate_loop_memory_does_not_grow_with_the_number_of_blocks(tmp_path):
    from workloads import Session, _timed_gates

    session = Session(tmp_path, trace=False, speed=SpeedSampler(period=100.0))
    session.vg = SimpleNamespace(ensemble=SimpleNamespace(
        gate=lambda model, x, tau: x))
    lat = Latencies(250)
    buffer, nbytes = lat.values.base, lat.nbytes
    with session.speed:
        for block in range(40):
            verdicts = []
            timing = _timed_gates(session, None, range(100), verdicts, lat)
            assert verdicts == list(range(100)) and timing.seconds > 0
            assert (lat.nbytes, lat.values.base) == (nbytes, buffer)
    assert lat.calls == 4000 and lat.values.size == 250
    assert np.all(lat.values >= 0)
    # A traced block passes no buffer and adds no latencies.
    _timed_gates(session, None, range(10), [], None)
    assert lat.calls == 4000


def test_passes_start_only_when_another_fits():
    from workloads import passes

    now = [0.0]

    def run(seconds, minimum, pass_len):
        now[0] = 0.0
        n = 0
        for _ in passes(seconds, minimum, clock=lambda: now[0]):
            now[0] += pass_len
            n += 1
        return n, now[0]

    assert run(20, 1, 6) == (3, 18)         # a 4th would end at 24 > 20
    assert run(20, 1, 16) == (1, 16)        # a 2nd would end at 32
    assert run(20, 2, 16) == (2, 32)        # the minimum is always made
    assert run(20, 20, 0.5) == (40, 20)


def _results(path, source, shas):
    path.write_text(json.dumps({"provenance": {"source_sha256": source},
                                "details": {"model_sha256": shas}}))


def test_model_sha_check_compares_with_earlier_runs_only(tmp_path):
    model = tmp_path / "model.json"
    model.write_text("model A")
    alone = ModelShas(Checks(), {})
    alone.record("tree", model)
    # The first record of a model has nothing to be compared with.
    assert alone.checks.attempted == 0
    alone.record("tree", model)
    assert (alone.checks.attempted, alone.checks.failed) == (1, 0)

    results = tmp_path / "results"
    results.mkdir()
    _results(results / "w-seed3-trace0.json", "src1", {"tree": alone.shas["tree"]})
    _results(results / "w-seed3-trace1.json", "src2", {"tree": "0" * 64})
    _results(results / "w-seed4-trace0.json", "src1", {"tree": "1" * 64})
    earlier = earlier_model_shas(results, "w", 3, "src1")
    assert earlier == {"tree": {"w-seed3-trace0.json": alone.shas["tree"]}}

    same = ModelShas(Checks(), earlier)
    same.record("tree", model)
    assert (same.checks.attempted, same.checks.failed) == (1, 0)

    model.write_text("model B")
    other = ModelShas(Checks(), earlier)
    other.record("tree", model)
    assert (other.checks.attempted, other.checks.failed) == (1, 1)
    assert "w-seed3-trace0.json" in other.checks.problems[0]


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0 [0, 10]; children 1 [1, 4] and 2 [3, 6] overlap, child 3
    # [8, 12] sticks out of the parent; span 4 [2, 3] is a grandchild.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    selfs = self_times(start, end, parent)
    # covered part of the parent: [1, 6] and [8, 10]
    assert selfs.tolist() == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_child_inside_earlier_child():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 5.0, 3.0]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(6.0)


def _sweep(known, unknown):
    return {"schema": "voteguard-threshold-sweep",
            "points": [{"threshold": i / (len(known) - 1),
                        "known_rejection_rate": k,
                        "unknown_rejection_rate": u}
                       for i, (k, u) in enumerate(zip(known, unknown))]}


def test_sweep_checks_accept_a_valid_sweep():
    falling = [1.0 - i / 49 for i in range(50)]
    assert sweep_problems(_sweep(falling, falling)) == []


def test_sweep_checks_catch_a_wrong_sweep():
    falling = [1.0 - i / 49 for i in range(50)]
    rising = falling[:10] + [0.9] + falling[11:]
    doc = _sweep(falling, rising)
    doc["schema"] = "voteguard-stability-sweep"
    problems = sweep_problems(doc)
    assert any("schema" in p for p in problems)
    assert any("unknown_rejection_rate rises at point 10" in p for p in problems)
    assert any("49 points" in p for p in sweep_problems(_sweep(falling[:49], falling[:49])))
    assert sweep_problems([]) == ["sweep report is not a JSON object"]
    missing = _sweep(falling, falling)
    missing["points"][3]["unknown_rejection_rate"] = None
    assert sweep_problems(missing) == ["unknown_rejection_rate missing from some points"]


def _verdict(dist, labels, entropy=0.0, label=1):
    return SimpleNamespace(label=label, prediction=SimpleNamespace(
        vote_distribution=np.asarray(dist), per_learner_labels=tuple(labels),
        entropy=entropy))


def test_vote_oracle():
    assert votes_match_labels(_verdict([0.25, 0.75], [1, 0, 1, 1]), 2)
    assert not votes_match_labels(_verdict([0.5, 0.5], [1, 0, 1, 1]), 2)


def test_predict_line_matches_cli_format():
    names = ("benign", "malware")
    assert predict_line(3, "known-1", _verdict([0, 1], [1], 0.0), names) == \
        "3\tknown-1\tmalware\t0.000000"
    rejected = _verdict([0.5, 0.5], [0, 1], 1.0, label=None)
    assert predict_line(0, "unknown", rejected, names) == \
        "0\tunknown\tuncertain\t1.000000"


def test_checks_count_failures():
    checks = Checks()
    checks.check(True, "fine")
    checks.check(False, "broken")
    assert (checks.attempted, checks.failed, checks.problems) == (2, 1, ["broken"])
    assert checks.error_rate == 0.5


def test_instrumentation_wraps_every_importer_and_restores():
    import voteguard
    from voteguard import core, ensemble, harness, learners

    originals = (ensemble.predict, harness.predict, voteguard.predict,
                 learners.TrainedLearner.predict_label)
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=40)
    data = core.Dataset(x=rng.standard_normal((40, 2)) + y[:, None] * 3, y=y,
                        app_ids=("app",) * 40, n_classes=2)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    tracer.begin_op("pass")
    inst.install()
    try:
        model = ensemble.fit(ensemble.EnsembleConfig(m=3), data)
        harness.predict(model, data.x[0])
    finally:
        inst.uninstall()
    assert (ensemble.predict, harness.predict, voteguard.predict,
            learners.TrainedLearner.predict_label) == originals
    assert inst.missing == set()

    rounds = per_round(tracer)
    assert rounds["ensemble.fit.calls"] == 1
    assert rounds["learners.train.tree.calls"] == 3
    assert rounds["learners.members"] == 3
    assert rounds["ensemble.predict.calls"] == 1
    assert rounds["learners.predict_label.calls"] == 3
    names = [tracer.names[i] for i in tracer.name]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    assert ("learners.predict_label", "ensemble.predict") in zip(names, parents)


def test_per_round_sums_medians_over_operation_kinds():
    tracer = Tracer(clock=iter(range(100)).__next__)
    tracer.begin_op("setup")
    with tracer.span("data.load_csv"):
        pass
    for length in (1, 3, 5):
        tracer.begin_op("pass")
        i = tracer.open("ensemble.gate")
        for _ in range(length - 1):
            tracer.clock()
        tracer.close(i)
    rounds = per_round(tracer)
    assert rounds["data.load_csv.s"] == 1
    assert rounds["ensemble.gate.s"] == 3          # median of 1, 3, 5
    assert rounds["ensemble.gate.calls"] == 1


def test_layer_values_ratios():
    values = layer_values({"data.load_csv.rows": 100.0, "data.load_csv.s": 0.5,
                           "learners.members": 4.0, "learners.converged": 3.0},
                          overhead=0.1)
    assert values["data.load_csv.rows_per_s"] == 200.0
    assert values["learners.converged_ratio"] == 0.75
    assert values["trace.overhead_ratio"] == 0.1
    assert set(values) == set(PER_LAYER)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_speed_sampler_scales_and_restores_signal_handler():
    import signal
    from measure import REFERENCE_S

    def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
        return "done"

    with SpeedSampler(period=100.0) as speed:
        # no tick inside the region: one sample is taken after it
        result, seconds, scaled = speed.timed(busy)
        assert result == "done" and len(speed.samples) == 1
        assert scaled == pytest.approx(seconds * REFERENCE_S / speed.samples[0])
    with SpeedSampler(period=0.005) as speed:
        _, seconds, _ = speed.timed(busy)
        assert len(speed.samples) >= 2 and speed.spent > 0
        # the handler's time is left out of the region's time
        assert 0.05 - speed.spent - 0.01 < seconds < 0.051 - min(speed.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
