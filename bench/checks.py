"""Output checks. Each check is one attempted operation; a failed check is
kept with a one-line description so the results file says what went wrong.
All checks run after the timed region they check."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from measure import sha256_file

SWEEP_SCHEMA = "voteguard-threshold-sweep"
SWEEP_POINTS = 50
UNCERTAIN = "uncertain"
MAX_KEPT_PROBLEMS = 50


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_KEPT_PROBLEMS:
                self.problems.append(problem)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sweep_problems(doc) -> list[str]:
    """What is wrong with a threshold-sweep report: its schema, its number of
    points, and any rise of a rejection rate as the threshold rises."""
    if not isinstance(doc, dict):
        return ["sweep report is not a JSON object"]
    problems = []
    if doc.get("schema") != SWEEP_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, not {SWEEP_SCHEMA!r}")
    points = doc.get("points")
    if not isinstance(points, list):
        return problems + ["sweep report has no points list"]
    if len(points) != SWEEP_POINTS:
        problems.append(f"{len(points)} points, not {SWEEP_POINTS}")
    for key in ("known_rejection_rate", "unknown_rejection_rate"):
        rates = [p.get(key) for p in points]
        if any(not isinstance(r, (int, float)) for r in rates):
            problems.append(f"{key} missing from some points")
            continue
        rises = [i for i in range(1, len(rates)) if rates[i] > rates[i - 1]]
        if rises:
            problems.append(f"{key} rises at point {rises[0]}")
    return problems


def predict_line(index: int, app_id: str, verdict, class_names) -> str:
    """The line ``voteguard predict`` prints for one row, given the verdict
    ``ensemble.gate`` returns for it."""
    name = UNCERTAIN if verdict.label is None else class_names[verdict.label]
    return f"{index}\t{app_id}\t{name}\t{verdict.prediction.entropy:.6f}"


def votes_match_labels(verdict, n_classes: int) -> bool:
    """Criterion 02's oracle: the vote distribution is the per-learner label
    histogram divided by the ensemble size."""
    pred = verdict.prediction
    labels = np.asarray(pred.per_learner_labels)
    expected = np.bincount(labels, minlength=n_classes) / labels.size
    return bool(np.array_equal(pred.vote_distribution, expected))


def earlier_model_shas(results: Path, workload: str, seed: int,
                       source_sha: str) -> dict[str, dict[str, str]]:
    """The model sha256s that earlier runs recorded in their results files
    for the same workload and seed, from the same voteguard sources:
    ``{model: {results file name: sha256}}``."""
    earlier: dict[str, dict[str, str]] = {}
    for path in sorted(results.glob(f"{workload}-seed{seed}-trace*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if doc.get("provenance", {}).get("source_sha256") != source_sha:
            continue
        for model, sha in doc.get("details", {}).get("model_sha256", {}).items():
            earlier.setdefault(model, {})[path.name] = sha
    return earlier


class ModelShas:
    """Checks that one seed always gives the same model files. Each model's
    sha256 is compared with every earlier record of it: the first pass of
    this run, and the results files of earlier runs (see
    ``earlier_model_shas``). A model with no earlier record is recorded
    without a check, since comparing it with itself proves nothing."""

    def __init__(self, checks: Checks, earlier: dict[str, dict[str, str]]):
        self.checks = checks
        self.earlier = {model: dict(refs) for model, refs in earlier.items()}
        self.shas: dict[str, str] = {}      # each model's first sha256 in this run

    def record(self, model: str, path) -> None:
        sha = sha256_file(path)
        for where, ref in self.earlier.get(model, {}).items():
            self.checks.check(sha == ref, f"{model}: model sha256 {sha} "
                              f"differs from {ref} in {where}")
        if model not in self.shas:
            self.shas[model] = sha
            self.earlier.setdefault(model, {})["this run's first pass"] = sha
