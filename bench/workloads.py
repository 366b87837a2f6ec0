"""The three workloads. Each calls the voteguard CLI in-process through
``voteguard.cli.cli_main`` with its output captured to memory, or calls
``voteguard.ensemble.gate`` directly, with ``--workers 1`` and one thread.

Every workload uses the ``ood`` synthetic regime (d=8) with the workload
seed, ensembles of M=25 members and master seed 0, and gates at tau=0.5.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple
from pathlib import Path
from statistics import median

import numpy as np

from checks import (Checks, ModelShas, predict_line, sweep_problems,
                    votes_match_labels)
from measure import Latencies, SpeedSampler, percentile
from tracing import Instrumentation, Tracer

M = 25
MASTER_SEED = 0
THRESHOLD = 0.5
LEARNERS = ("tree", "logistic", "linear_svm")

GATE_BLOCK = 1000          # gate calls per pass of gate-stream
GATE_MIN_BLOCKS = 20       # so a run makes at least 20k gate calls


@dataclass
class Run:
    """What a workload measured. ``values`` maps a metric name to its value
    and ``samples`` to the number of samples behind it."""

    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, n: int) -> None:
        self.values[name] = float(value)
        self.samples[name] = int(n)


class Timing(NamedTuple):
    seconds: float      # wall time
    scaled: float       # wall time at the reference machine speed


class Session:
    """One run's state: the loaded voteguard modules, the work directory,
    the output checks, and the tracer when the run is traced."""

    def __init__(self, workdir: Path, trace: bool, speed: SpeedSampler,
                 earlier_shas: dict[str, dict[str, str]] | None = None):
        self.workdir = workdir
        self.speed = speed
        self.checks = Checks()
        self.model_shas = ModelShas(self.checks, earlier_shas or {})
        self.tracer = Tracer() if trace else None
        self._instrumentation = Instrumentation(self.tracer) if trace else None
        self.vg = None

    def import_voteguard(self) -> None:
        """Import voteguard and its CLI afresh, so that each set-up pays the
        import cost. numpy stays imported: the benchmark itself needs it."""
        for name in [n for n in sys.modules
                     if n == "voteguard" or n.startswith("voteguard.")]:
            del sys.modules[name]
        importlib.import_module("voteguard.cli")
        self.vg = sys.modules["voteguard"]
        inst = self._instrumentation
        if inst is not None and inst.installed:
            inst.uninstall()
            inst.install()

    @contextlib.contextmanager
    def op(self, kind: str, traced: bool = True):
        """One operation of the workload, traced when the run is traced and
        ``traced`` is set."""
        if self.tracer is None or not traced:
            yield
            return
        self.tracer.begin_op(kind)
        self._instrumentation.install()
        try:
            yield
        finally:
            self._instrumentation.uninstall()

    @property
    def untraced_names(self) -> set[str]:
        """Traced names this voteguard does not have."""
        return self._instrumentation.missing if self._instrumentation else set()

    @property
    def tracing(self) -> bool:
        return self._instrumentation is not None and self._instrumentation.installed

    def timed(self, fn) -> tuple[object, Timing]:
        """Call ``fn()``; return its result and its timing."""
        result, seconds, scaled = self.speed.timed(fn)
        return result, Timing(seconds, scaled)

    def cli(self, *argv) -> tuple[str, Timing]:
        """Run one CLI command; returns its stdout and timing."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span("cli." + argv[0].replace("-", "_"))
                if self.tracing else contextlib.nullcontext())

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                return self.vg.cli.cli_main(argv)

        code, timing = self.timed(call)
        self.checks.check(code == 0, f"{argv[0]} exited {code}: "
                          f"{err.getvalue().strip()[:200]}")
        return out.getvalue(), timing

    def synth(self, out_dir: Path, seed: int, n_train: int, n_test: int,
              n_unknown: int) -> None:
        self.cli("synth", "--regime", "ood", "--n-train", n_train,
                 "--n-test", n_test, "--n-unknown", n_unknown, "--d", 8,
                 "--seed", seed, "--out-dir", out_dir)

    def train(self, data_dir: Path, kind: str, model: Path) -> Timing:
        return self.cli("train", "--data", data_dir / "train.csv",
                        "--manifest", data_dir / "manifest.json",
                        "--out", model, "--learner", kind, "--m", M,
                        "--master-seed", MASTER_SEED, "--workers", 1)[1]

    def load(self, data_dir: Path, name: str):
        schema, _ = self.vg.data.load_manifest(data_dir / "manifest.json")
        return self.vg.data.load_csv(data_dir / name, schema)


def passes(seconds: float, minimum: int, clock=time.perf_counter):
    """Yield pass numbers 0, 1, 2, ...: ``minimum`` of them, and after that
    another only while the last pass, were it to take as long again, would
    end before ``seconds`` have passed since the first began."""
    deadline = clock() + seconds
    n, last = 0, 0.0
    while n < minimum or clock() + last <= deadline:
        began = clock()
        yield n
        last = clock() - began
        n += 1


def _timed_gates(session: Session, model, rows, verdicts: list,
                 latencies: Latencies | None) -> Timing:
    """``ensemble.gate`` on each row in turn, appending its verdicts to
    ``verdicts``. Each call's latency, less the speed sampler's time within
    it, goes to ``latencies`` unless that is None. Returns the loop's
    timing."""
    gate, speed = session.vg.ensemble.gate, session.speed

    def loop():
        for x in rows:
            spent, t0 = speed.spent, time.perf_counter()
            verdicts.append(gate(model, x, THRESHOLD))
            t1 = time.perf_counter()
            if latencies is not None:
                latencies.add(t1 - t0 - (speed.spent - spent))

    return session.timed(loop)[1]


class Quality:
    """Verdict counts behind the three quality rates at tau=0.5."""

    def __init__(self):
        self.known = self.accepted = self.correct = 0
        self.unknown = self.unknown_rejected = 0

    def add_known(self, verdict, truth: int) -> None:
        self.known += 1
        if verdict.label is not None:
            self.accepted += 1
            self.correct += verdict.label == truth

    def add_unknown(self, verdict) -> None:
        self.unknown += 1
        self.unknown_rejected += verdict.label is None

    def put(self, run: Run) -> None:
        run.put("accepted_accuracy",
                self.correct / self.accepted if self.accepted else 0.0,
                self.accepted)
        run.put("known_reject_rate", 1 - self.accepted / self.known, self.known)
        run.put("unknown_reject_rate", self.unknown_rejected / self.unknown,
                self.unknown)


def _gate_stats(run: Run, latencies: list[Latencies], wall: float) -> None:
    """The gate percentiles over the kept latencies, and the calls per
    second over all calls and the ``wall`` seconds of the loops."""
    kept = np.concatenate([lat.values for lat in latencies])
    calls = sum(lat.calls for lat in latencies)
    p10 = percentile(kept, 10)
    run.put("gate_p10_us", p10.value * 1e6, p10.n)
    p50 = percentile(kept, 50)
    p99 = percentile(kept, 99)
    run.put("gate_p50_us", p50.value * 1e6, p50.n)
    run.put("gate_p99_us", p99.value * 1e6, p99.n)
    run.put("gate_per_s", calls / wall, calls)
    run.details["gate_p99_samples_beyond"] = p99.beyond


def _replay(session, kind, model_path, printed, known, rows, latencies):
    """Gate every known row again, timing each call, and check that the
    line ``predict`` printed for the row is the one the verdict gives.
    Returns the model, the verdicts and the seconds the gate loop took."""
    model = session.vg.persist.load_model(model_path)
    names = model.class_names or tuple(str(i) for i in range(model.n_classes))
    lines = printed.splitlines()[1:]
    session.checks.check(len(lines) == len(rows), f"{kind}: predict printed "
                         f"{len(lines)} rows, expected {len(rows)}")
    verdicts = []
    wall = _timed_gates(session, model, rows, verdicts, latencies).seconds
    for i, v in enumerate(verdicts):
        expected = predict_line(i, known.app_ids[i], v, names)
        got = lines[i] if i < len(lines) else None
        session.checks.check(got == expected, f"{kind} row {i}: predict "
                             f"printed {got!r}, gate gives {expected!r}")
    return model, verdicts, wall


def _check_sweep(session, kind, path) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            problems = sweep_problems(json.load(fh))
    except (OSError, ValueError) as exc:
        problems = [f"sweep report unreadable: {exc}"]
    session.checks.check(not problems, f"{kind}: {'; '.join(problems)}")


def pipeline(session: Session, seed: int, seconds: float, *, n_train: int,
             n_test: int, n_unknown: int, learners, setup_reps: int) -> Run:
    """train -> predict -> sweep-threshold for each learner kind, in passes
    while another fits in ``seconds`` (see ``passes``). After each pass,
    outside its timing, every row ``predict`` printed is replayed through
    ``ensemble.gate``: the replay checks the verdicts. The first pass's
    replay gives the gate latencies; later ones are only counted, so that
    the benchmark holds the same memory however fast the program is."""
    run = Run()
    data = session.workdir / "data"
    tracer = session.tracer

    def set_up():
        session.import_voteguard()
        session.synth(data, seed, n_train, n_test, n_unknown)

    _put_setup(run, session, set_up, setup_reps)

    known = session.load(data, "test_known.csv")
    unknown = session.load(data, "unknown.csv")
    rows = [known.x[i] for i in range(len(known))]
    args = {"data": data / "test_known.csv", "unknown": data / "unknown.csv",
            "manifest": data / "manifest.json"}

    phases = {p: [] for p in ("train_s", "predict_s", "sweep_s", "pipeline_s")}
    per_kind = {f"{p}.{k}": [] for p in ("train_s", "predict_s", "sweep_s")
                for k in learners}
    pass_times, traced_times = [], []
    latencies = {k: Latencies(len(rows)) for k in learners}
    replay_s = 0.0
    quality = None
    # A traced run alternates untraced and traced passes, so the two can be
    # compared for the tracing overhead.
    for n in passes(seconds, 2 if tracer else 1):
        traced = tracer is not None and n % 2 == 1
        times, printed = {}, {}
        with session.op("pass", traced):
            for kind in learners:
                model = session.workdir / f"model-{kind}.json"
                times["train_s", kind] = session.train(data, kind, model)
                printed[kind], times["predict_s", kind] = session.cli(
                    "predict", "--model", model, "--data", args["data"],
                    "--manifest", args["manifest"], "--threshold", THRESHOLD)
                times["sweep_s", kind] = session.cli(
                    "sweep-threshold", "--model", model,
                    "--test-known", args["data"], "--unknown", args["unknown"],
                    "--manifest", args["manifest"],
                    "--out", session.workdir / f"sweep-{kind}.json")[1]
        scaled = sum(t.scaled for t in times.values())
        if traced:
            traced_times.append(scaled)
        else:
            pass_times.append(scaled)
            for (phase, kind), t in times.items():
                per_kind[f"{phase}.{kind}"].append(t.seconds)
            for phase in ("train_s", "predict_s", "sweep_s"):
                phases[phase].append(sum(times[phase, k].seconds for k in learners))
            phases["pipeline_s"].append(sum(t.seconds for t in times.values()))

        # Checks and the gate replay, after the timed region.
        first = quality is None
        if first:
            quality = Quality()
        for kind in learners:
            model = session.workdir / f"model-{kind}.json"
            session.model_shas.record(kind, model)
            _check_sweep(session, kind, session.workdir / f"sweep-{kind}.json")
            ensemble_model, verdicts, wall = _replay(
                session, kind, model, printed[kind], known, rows, latencies[kind])
            replay_s += wall
            if first:
                for v, y in zip(verdicts, known.y.tolist()):
                    quality.add_known(v, y)
                for x in unknown.x:
                    quality.add_unknown(session.vg.ensemble.gate(
                        ensemble_model, x, THRESHOLD))

    for name, values in phases.items():
        run.put(name, median(values), len(values))
    run.put("pass_s", median(pass_times), len(pass_times))
    for name, values in per_kind.items():
        run.details[name] = median(values)
    for kind, values in latencies.items():
        run.details[f"gate_p50_us.{kind}"] = percentile(values.values, 50).value * 1e6
    _gate_stats(run, list(latencies.values()), replay_s)
    quality.put(run)
    run.details["model_sha256"] = session.model_shas.shas
    run.details["pass_scaled_s"] = pass_times
    if traced_times:
        _overhead(run, traced_times, pass_times)
    return run


def _put_setup(run: Run, session: Session, set_up, reps: int) -> None:
    timings = []
    for _ in range(reps):
        with session.op("setup"):
            timings.append(session.timed(set_up)[1])
    run.put("setup_s", median(t.scaled for t in timings), reps)
    run.details["setup_wall_s"] = [t.seconds for t in timings]


def _overhead(run: Run, traced: list[float], untraced: list[float]) -> None:
    """The traced passes' median scaled time over the untraced passes',
    minus 1."""
    run.details["pass_s.traced"] = median(traced)
    run.details["pass_s.untraced"] = median(untraced)
    run.values["trace.overhead_ratio"] = median(traced) / median(untraced) - 1


def gate_stream(session: Session, seed: int, seconds: float, *,
                setup_reps: int) -> Run:
    """A closed loop with one caller: ``ensemble.gate`` on one sample at a
    time, in passes of 1000 calls, at least 20 of them and then while
    another fits in ``seconds``. The stream is 4 known samples to 1
    unknown. The percentiles are over the first 20k untraced calls; later
    calls count only in ``gate_per_s``. The quality rates are over the
    first cycle through the stream, since every cycle gives the same
    verdicts."""
    run = Run()
    data = session.workdir / "data"
    model_path = session.workdir / "model-tree.json"
    tracer = session.tracer

    # The inputs and the model, outside every timing.
    session.import_voteguard()
    with session.op("prep"):
        session.synth(data, seed, 2000, 4000, 1000)
        session.train(data, "tree", model_path)
        known = session.load(data, "test_known.csv")
        unknown = session.load(data, "unknown.csv")
        order = np.random.default_rng([seed, 1]).permutation(
            len(known) + len(unknown)).tolist()
        app_ids = known.app_ids + unknown.app_ids
        stream = session.vg.core.Dataset(
            x=np.vstack([known.x, unknown.x])[order],
            y=np.concatenate([known.y, unknown.y])[order],
            app_ids=tuple(app_ids[i] for i in order),
            n_classes=known.n_classes, class_names=known.class_names)
        schema, _ = session.vg.data.load_manifest(data / "manifest.json")
        session.vg.data.write_csv(stream, data / "stream.csv", schema)
    session.model_shas.record("tree", model_path)
    run.details["model_sha256"] = session.model_shas.shas

    loaded = {}

    def set_up():
        session.import_voteguard()
        loaded["model"] = session.vg.persist.load_model(model_path)
        loaded["stream"] = session.load(data, "stream.csv")

    _put_setup(run, session, set_up, setup_reps)
    model, stream = loaded["model"], loaded["stream"]

    rows = [stream.x[i] for i in range(len(stream))]
    truth = stream.y.tolist()
    unlabeled = session.vg.core.UNLABELED
    latencies = Latencies(GATE_MIN_BLOCKS * GATE_BLOCK)
    blocks, traced_blocks = [], []
    wall = 0.0
    quality = Quality()
    for n in passes(seconds, GATE_MIN_BLOCKS * (2 if tracer else 1)):
        traced = tracer is not None and n % 2 == 1
        positions = range(n * GATE_BLOCK, (n + 1) * GATE_BLOCK)
        idx = [pos % len(rows) for pos in positions]
        verdicts = []
        with session.op("pass", traced):
            timing = _timed_gates(session, model, [rows[i] for i in idx],
                                  verdicts, None if traced else latencies)
        if traced:
            traced_blocks.append(timing.scaled)
        else:
            blocks.append(timing.scaled)
            wall += timing.seconds

        # Checks, after the timed region.
        for pos, i, v in zip(positions, idx, verdicts):
            session.checks.check(
                votes_match_labels(v, model.n_classes),
                f"stream row {i}: vote distribution "
                f"{v.prediction.vote_distribution.tolist()} is not the label "
                f"histogram over M")
            if pos >= len(rows):
                continue            # quality counts the first cycle only
            if truth[i] == unlabeled:
                quality.add_unknown(v)
            else:
                quality.add_known(v, truth[i])

    run.put("pass_s", median(blocks), len(blocks))
    run.details["pass_scaled_s"] = blocks
    _gate_stats(run, [latencies], wall)
    quality.put(run)
    if traced_blocks:
        _overhead(run, traced_blocks, blocks)
    return run


WORKLOADS = {
    "paper-pipeline": lambda s, seed, sec: pipeline(
        s, seed, sec, n_train=2000, n_test=500, n_unknown=500,
        learners=LEARNERS, setup_reps=9),
    "tree-100k": lambda s, seed, sec: pipeline(
        s, seed, sec, n_train=100_000, n_test=5000, n_unknown=5000,
        learners=("tree",), setup_reps=3),
    "gate-stream": lambda s, seed, sec: gate_stream(s, seed, sec, setup_reps=9),
}
