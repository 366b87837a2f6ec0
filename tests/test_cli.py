import contextlib
import dataclasses
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import voteguard
from voteguard.cli import build_parser, cli_main
from voteguard.data import load_csv, load_manifest
from voteguard.ensemble import EnsembleConfig, fit
from voteguard.learners import (LEARNER_KINDS, GradientParams, LearnerConfig,
                                TreeParams)
from voteguard.persist import save_model


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth -> train shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert cli_main(["synth", "--regime", "ood", "--out-dir", str(data),
                     "--n-train", "300", "--n-test", "120",
                     "--n-unknown", "120", "--d", "4", "--seed", "1"]) == 0
    assert cli_main(["train", "--data", str(data / "train.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(root / "model.json"), "--m", "9"]) == 0
    assert cli_main(["train", "--data", str(data / "train.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(root / "linear.json"), "--m", "3",
                     "--learner", "logistic"]) == 0
    return root


def test_synth_writes_expected_files(pipeline_dir):
    data = pipeline_dir / "data"
    for name in ("train.csv", "test_known.csv", "unknown.csv",
                 "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["classes"] == ["benign", "malware"]
    assert manifest["unknown_app_ids"] == ["unknown"]


def test_sweep_threshold_end_to_end(pipeline_dir, capsys):
    data = pipeline_dir / "data"
    out = pipeline_dir / "sweep.json"
    code, _, _ = run(capsys, "sweep-threshold",
                     "--model", str(pipeline_dir / "model.json"),
                     "--test-known", str(data / "test_known.csv"),
                     "--unknown", str(data / "unknown.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "voteguard-threshold-sweep"
    assert len(doc["points"]) == 50
    rates = [p["known_rejection_rate"] for p in doc["points"]]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_sweep_size_takes_no_m(pipeline_dir, tmp_path, capsys):
    # the sizes come from --m-grid alone
    data = pipeline_dir / "data"
    out = tmp_path / "stability.json"
    code, stdout, err = run(capsys, "sweep-size",
                            "--data", str(data / "train.csv"),
                            "--eval", str(data / "test_known.csv"),
                            "--manifest", str(data / "manifest.json"),
                            "--m-grid", "2,4", "--out", str(out), "--m", "5")
    assert code == 2 and stdout == "" and not out.exists()
    assert "--m" in err.splitlines()[-1]


def test_sweep_size_end_to_end(pipeline_dir, capsys):
    data = pipeline_dir / "data"
    out = pipeline_dir / "stability.csv"
    code, _, _ = run(capsys, "sweep-size",
                     "--data", str(data / "train.csv"),
                     "--eval", str(data / "test_known.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--m-grid", "2,4", "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,mean_entropy,std_entropy"
    assert len(lines) == 3


def test_sweep_size_ignores_workers(pipeline_dir, tmp_path, capsys):
    data = pipeline_dir / "data"
    reports = []
    for workers in ("1", "8"):
        out = tmp_path / f"stability-{workers}.json"
        code, _, _ = run(capsys, "sweep-size",
                         "--data", str(data / "train.csv"),
                         "--eval", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--m-grid", "2,4,8", "--out", str(out),
                         "--workers", workers)
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_predict_prints_labels_and_entropy(pipeline_dir, capsys):
    data = pipeline_dir / "data"
    code, out, _ = run(capsys, "predict",
                       "--model", str(pipeline_dir / "model.json"),
                       "--data", str(data / "test_known.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--threshold", "0.4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index\tapp_id\tverdict\tentropy"
    # well-separated data: unanimous benign predictions exist
    assert any("benign" in l and "0.000000" in l for l in lines[1:])


def test_predict_uncertain_verdict(pipeline_dir, tmp_path, capsys):
    # threshold 0 rejects anything with the slightest vote split
    data = pipeline_dir / "data"
    code, out, _ = run(capsys, "predict",
                       "--model", str(pipeline_dir / "model.json"),
                       "--data", str(data / "unknown.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--threshold", "0")
    assert code == 0
    assert all(l.split("\t")[2] in ("benign", "malware", "uncertain")
               for l in out.strip().splitlines()[1:])


def test_predict_rejects_far_cluster_at_max_threshold(pipeline_dir, capsys):
    # the ood cluster lies outside the training box, whatever the votes say
    data = pipeline_dir / "data"
    code, out, _ = run(capsys, "predict",
                       "--model", str(pipeline_dir / "model.json"),
                       "--data", str(data / "unknown.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--threshold", "1")
    assert code == 0
    assert all(l.split("\t")[2] == "uncertain"
               for l in out.strip().splitlines()[1:])


def test_bad_threshold_exits_1(pipeline_dir, capsys):
    data = pipeline_dir / "data"
    for threshold in ("-0.1", "nan", "inf", "-inf"):
        code, out, err = run(capsys, "predict",
                             "--model", str(pipeline_dir / "model.json"),
                             "--data", str(data / "test_known.csv"),
                             "--manifest", str(data / "manifest.json"),
                             f"--threshold={threshold}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_kept_parser_carries_nothing_between_commands(pipeline_dir,
                                                      tmp_path, capsys):
    # one parser serves every command of a process: a flag, an argparse
    # error or --help leaves nothing behind for the next command
    assert build_parser() is build_parser()
    data = pipeline_dir / "data"
    train = ["train", "--data", str(data / "train.csv"),
             "--manifest", str(data / "manifest.json"), "--m", "5"]
    models = [tmp_path / f"{name}.json" for name in ("depth3", "same", "new")]
    assert run(capsys, *train, "--out", str(models[0]),
               "--max-depth", "3")[0] == 0
    assert run(capsys, *train, "--out", str(models[1]))[0] == 0
    done = subprocess.run(
        [sys.executable, "-m", "voteguard.cli", *train, "--out",
         str(models[2])], capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": str(Path(voteguard.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert models[1].read_bytes() == models[2].read_bytes()
    assert models[0].read_bytes() != models[1].read_bytes()

    predict = ["predict", "--model", str(models[1]),
               "--data", str(data / "test_known.csv"),
               "--manifest", str(data / "manifest.json"),
               "--threshold", "0.5"]
    build_parser.cache_clear()
    alone = run(capsys, *predict)
    assert alone[0] == 0 and alone[1]
    for before, code in ((["predict", "--threshold", "x"], 2),
                         (["predict", "--help"], 0),
                         (["--help"], 0)):
        assert run(capsys, *before)[0] == code
        assert run(capsys, *predict) == alone


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run(capsys, "train", "--manifest", "m.json",
                       "--out", "model.json")
    assert code == 2
    assert "--data" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_nonexistent_dataset_exits_1(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"classes": ["benign", "malware"],'
                        ' "label_column": "label", "app_id_column": "app",'
                        ' "feature_columns": ["f0"]}')
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "ghost.csv"),
                       "--manifest", str(manifest),
                       "--out", str(tmp_path / "m.model"))
    assert code == 1
    assert "error:" in err


def test_replay_is_byte_identical(tmp_path):
    outs = []
    for name in ("one", "two"):
        d = tmp_path / name
        assert cli_main(["synth", "--regime", "overlap", "--out-dir",
                         str(d / "data"), "--n-train", "120", "--n-test", "60",
                         "--n-unknown", "60", "--d", "3",
                         "--class-separation", "0.5", "--seed", "5"]) == 0
        assert cli_main(["train", "--data", str(d / "data" / "train.csv"),
                         "--manifest", str(d / "data" / "manifest.json"),
                         "--out", str(d / "model.json"), "--m", "5"]) == 0
        assert cli_main(["sweep-threshold", "--model", str(d / "model.json"),
                         "--test-known", str(d / "data" / "test_known.csv"),
                         "--unknown", str(d / "data" / "unknown.csv"),
                         "--manifest", str(d / "data" / "manifest.json"),
                         "--out", str(d / "sweep.json")]) == 0
        outs.append(d)
    for name in ("data/train.csv", "model.json", "sweep.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_non_finite_or_bad_training_flags_exit_1(pipeline_dir, tmp_path, capsys):
    data = pipeline_dir / "data"
    out = tmp_path / "model.json"
    for flag, value in [("--tolerance", "nan"), ("--l2", "nan"),
                        ("--l2", "-inf"), ("--workers", "0"),
                        ("--workers", "-3")]:
        code, _, err = run(capsys, "train", "--data", str(data / "train.csv"),
                           "--manifest", str(data / "manifest.json"),
                           "--out", str(out), "--learner", "linear_svm",
                           "--m", "2", f"{flag}={value}")
        assert code == 1, (flag, value)
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--grid-points", "1"),
                                        ("--grid-points", "0"),
                                        ("--positive-class", "2"),
                                        ("--positive-class", "-1")])
def test_bad_sweep_flags_exit_1(pipeline_dir, tmp_path, capsys, flag, value):
    data = pipeline_dir / "data"
    out = tmp_path / "sweep.json"
    code, _, err = run(capsys, "sweep-threshold",
                       "--model", str(pipeline_dir / "model.json"),
                       "--test-known", str(data / "test_known.csv"),
                       "--unknown", str(data / "unknown.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--out", str(out), f"{flag}={value}")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_grid_points_past_the_cap_exit_1(pipeline_dir, tmp_path, capsys):
    # a sweep costs about 0.2 ms per point: 10^11 points would run for
    # weeks, so the flag fails before a grid is built
    data = pipeline_dir / "data"
    out = tmp_path / "sweep.json"
    code, stdout, err = run(capsys, "sweep-threshold",
                            "--model", str(pipeline_dir / "model.json"),
                            "--test-known", str(data / "test_known.csv"),
                            "--manifest", str(data / "manifest.json"),
                            "--out", str(out), "--grid-points=100000000000")
    assert code == 1 and stdout == "" and not out.exists()
    assert err == ("error: --grid-points must be at most 10000, "
                   "got 100000000000\n")


def test_size_past_memory_exits_1(tmp_path, capsys):
    # the first array of 10^13 rows (72.8 TiB) cannot be allocated: numpy
    # fails at once, before any memory is touched or any file written
    out = tmp_path / "d"
    code, stdout, err = run(capsys, "synth", "--regime", "ood",
                            "--n-train", "10000000000000", "--out-dir",
                            str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("error: out of memory: Unable to allocate")
    assert err.count("\n") == 1


def test_overflowing_input_is_rejected_not_an_error(pipeline_dir, tmp_path,
                                                   capsys):
    # finite values so large that standardizing them, and a linear member's
    # dot product, overflow: each such row gets a vote with no warning,
    # lies outside the training box and leaves the other rows alone
    data = pipeline_dir / "data"
    manifest = str(data / "manifest.json")
    std = json.loads((pipeline_dir / "model.json").read_text())[
        "standardizer"]["std"]
    assert min(std) < 1.0                # so 1.79e308 / std overflows
    lines = (data / "test_known.csv").read_text().splitlines(True)
    assert lines[0].startswith(",".join(f"f{j}" for j in range(len(std))))
    for i, signs in ((1, "+-"), (2, "-+")):
        cells = lines[i].split(",")
        cells[:len(std)] = [f"{signs[j % 2]}1.79e308"
                            for j in range(len(std))]
        lines[i] = ",".join(cells)
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(lines))
    for learner in ("tree", "logistic", "linear_svm"):
        for mode in ("hard_vote", "soft_average"):
            model = str(tmp_path / f"{learner}-{mode}.json")
            assert cli_main(["train", "--data", str(data / "train.csv"),
                             "--manifest", manifest, "--out", model,
                             "--m", "3", "--learner", learner,
                             "--posterior-mode", mode]) == 0
            capsys.readouterr()
            flags = ["--model", model, "--manifest", manifest,
                     "--threshold", "1"]
            code, out, err = run(capsys, "predict", "--data", str(huge),
                                 *flags)
            assert code == 0 and err == "", (learner, mode)
            code, clean, _ = run(capsys, "predict",
                                 "--data", str(data / "test_known.csv"),
                                 *flags)
            got, want = out.splitlines(), clean.splitlines()
            for line in got[1:3]:        # NaN fails 0 <= h
                verdict, h = line.split("\t")[2:]
                assert verdict == "uncertain" and 0 <= float(h) <= 1
            assert got[3:] == want[3:] and got[0] == want[0]
            sweep = tmp_path / "sweep.json"
            code, _, err = run(capsys, "sweep-threshold", "--model", model,
                               "--test-known", str(huge),
                               "--manifest", manifest, "--out", str(sweep))
            assert code == 0 and err == "" and sweep.exists()


# training flags with a bad value: the library rejects each under its own
# parameter name, except --workers, which the CLI checks itself since the
# library has no worker count
_TRAINING_FLAGS = [("--m", "0"), ("--workers", "0"), ("--max-depth", "0"),
                   ("--min-samples-split", "1"), ("--max-iters", "0"),
                   ("--tolerance", "0"), ("--l2", "-1")]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param("sweep-size", "--m-grid", "", id="m-grid-empty"),
    pytest.param("sweep-size", "--m-grid", "2,x", id="m-grid-not-int"),
    pytest.param("sweep-size", "--m-grid", "0,2", id="m-grid-zero"),
    pytest.param("sweep-size", "--m-grid", "4,2", id="m-grid-decreasing"),
    pytest.param("synth", "--seed", "-1", id="synth-seed-negative"),
    pytest.param("train", "--master-seed", "-1",
                 id="train-master-seed-negative"),
    pytest.param("sweep-size", "--master-seed", "-1",
                 id="sweep-size-master-seed-negative"),
    *(pytest.param(command, flag, value, id=f"{command}{flag}={value}")
      for command in ("train", "sweep-size") for flag, value in _TRAINING_FLAGS
      if (command, flag) != ("sweep-size", "--m")),
    *(pytest.param("synth", flag, value, id=f"synth{flag}={value}")
      for flag, value in [("--d", "0"), ("--n-train", "-5"),
                          ("--n-unknown", "-1"), ("--class-separation", "0"),
                          ("--ood-distance", "1")]),
    *(pytest.param("sweep-threshold", flag, value,
                   id=f"sweep-threshold{flag}={value}")
      for flag, value in [("--grid-points", "1"), ("--positive-class", "5")]),
])
def test_bad_flag_error_names_the_flag(pipeline_dir, tmp_path, capsys,
                                       command, flag, value):
    data = pipeline_dir / "data"
    out = tmp_path / "out"
    argv = {
        "synth": ["--regime", "ood", "--out-dir", str(out)],
        "train": ["--data", str(data / "train.csv"), "--out", str(out),
                  "--manifest", str(data / "manifest.json")],
        "sweep-size": ["--data", str(data / "train.csv"),
                       "--eval", str(data / "test_known.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--m-grid", "2,4", "--out", str(out)],
        "sweep-threshold": ["--model", str(pipeline_dir / "model.json"),
                            "--test-known", str(data / "test_known.csv"),
                            "--manifest", str(data / "manifest.json"),
                            "--out", str(out)],
    }[command]
    code, stdout, err = run(capsys, command, *argv, f"{flag}={value}")
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith(f"error: {flag} must ") and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["learners", "config.base"])
def test_model_missing_key_exits_1(pipeline_dir, tmp_path, capsys, missing):
    doc = json.loads((pipeline_dir / "model.json").read_text())
    *parents, key = missing.split(".")
    block = doc
    for name in parents:
        block = block[name]
    del block[key]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(model) in err and repr(key) in err


def _tree_member_first(doc):
    # a one-leaf tree member, as a tree model holds it
    doc["learners"][0] = {"nodes": [[-1, 0.0, -1, -1, [1.0, 1.0]]],
                          "converged": True, "seed_used": 0}


def _each_member(key, value):
    def mutate(doc):
        for learner in doc["learners"]:
            learner[key] = value
    return mutate


@pytest.mark.parametrize("name,mutate,message", [
    ("model.json", lambda doc: doc.pop("support"), "missing key 'support'"),
    ("model.json", lambda doc: doc.update(support=None),
     "support box must be an object"),
    ("linear.json",
     lambda doc: doc["config"]["base"]["gradient"].update(learning_rate=0.1),
     "unknown GradientParams fields ['learning_rate']"),
    # format 2 stores each fact once: config.base.kind says what every
    # member is, and the fit never read config.base.seed
    ("model.json", lambda doc: doc.update(format_version=1),
     "format_version 1 is no longer read; retrain the model to write "
     "format_version 2"),
    ("model.json", _each_member("type", "tree"),
     "learner 0: unknown tree member fields ['type']"),
    ("linear.json", _each_member("type", "linear"),
     "learner 0: unknown linear member fields ['type']"),
    ("model.json", lambda doc: doc["config"]["base"].update(seed=0),
     "unknown LearnerConfig fields ['seed']"),
    ("linear.json", _tree_member_first,
     "learner 0: unknown linear member fields ['nodes']"),
], ids=["support-missing", "support-null", "learning-rate", "version-1",
        "tree-type", "linear-type", "base-seed", "tree-in-linear"])
def test_model_without_box_or_with_stale_key_exits_1(pipeline_dir, tmp_path,
                                                     capsys, name, mutate,
                                                     message):
    # every model has its training box, and the loader reads only the keys
    # the writer writes
    doc = json.loads((pipeline_dir / name).read_text())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {model}: {message}\n"


# each object of a model file: the test file that holds it, where, the name
# its errors give and its keys. A config block's keys are its class's
# fields. format and format_version are read before the object's keys and
# have their own messages, so they are left out here.
_OBJECTS = {
    **{block: ("model.json", block.split("."), cls.__name__,
               [f.name for f in dataclasses.fields(cls)])
       for block, cls in (("config", EnsembleConfig),
                          ("config.base", LearnerConfig),
                          ("config.base.tree", TreeParams),
                          ("config.base.gradient", GradientParams))},
    "top": ("model.json", [], "model file",
            ["n_classes", "n_features", "class_names", "config",
             "standardizer", "support", "learners"]),
    "standardizer": ("model.json", ["standardizer"], "standardizer",
                     ["mean", "std"]),
    "support": ("model.json", ["support"], "support box", ["low", "high"]),
    "tree-member": ("model.json", ["learners", 0], "tree member",
                    ["nodes", "converged", "seed_used"]),
    "linear-member": ("linear.json", ["learners", 0], "linear member",
                      ["weights", "bias", "converged", "seed_used"]),
}


@pytest.mark.parametrize("block,key", [
    *(pytest.param(block, key, id=f"missing-{block}.{key}")
      for block, (*_, keys) in _OBJECTS.items() for key in keys),
    *(pytest.param(block, None, id=f"extra-{block}") for block in _OBJECTS),
])
def test_config_block_holds_its_fields_and_no_other_key(
        pipeline_dir, tmp_path, capsys, block, key):
    # one rule for every object of a model file, config blocks included:
    # each of its keys is present, and no other key is
    name, where, owner, _ = _OBJECTS[block]
    doc = json.loads((pipeline_dir / name).read_text())
    raw = doc
    for step in where:
        raw = raw[step]
    if key is None:
        raw["extra"] = 0
        message = f"unknown {owner} fields ['extra']"
    else:
        del raw[key]
        message = f"missing key {key!r}"
    if where[0:1] == ["learners"]:
        message = f"learner 0: {message}"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {model}: {message}\n"


def _three_classes(doc):
    doc.update(n_classes=3, class_names=None)
    doc["config"]["posterior_mode"] = "soft_average"


@pytest.mark.parametrize("name,mutate,message", [
    ("linear.json", _three_classes,
     "learner 0: a linear member needs n_classes 2, got 3"),
    ("linear.json", _each_member("kind", 7),
     "learner 0: unknown linear member fields ['kind']"),
    ("linear.json", _each_member("converged", "no"),
     "learner 0: converged must be true or false, got 'no'"),
    ("model.json", _each_member("converged", 1),
     "learner 0: converged must be true or false, got 1"),
    ("linear.json", _each_member("seed_used", [1]),
     "learner 0: seed_used must be an integer in [0, 2**64), got [1]"),
    ("model.json", _each_member("seed_used", 2 ** 64),
     f"learner 0: seed_used must be an integer in [0, 2**64), "
     f"got {2 ** 64}"),
    ("model.json", _each_member("seed_used", -1),
     "learner 0: seed_used must be an integer in [0, 2**64), got -1"),
    ("model.json", _each_member("seed_used", True),
     "learner 0: seed_used must be an integer in [0, 2**64), got True"),
], ids=["linear-3-classes", "kind-7", "converged-string", "converged-1",
        "seed-used-list", "seed-used-2-64", "seed-used-negative",
        "seed-used-bool"])
def test_bad_member_field_exits_1(pipeline_dir, tmp_path, capsys, name,
                                  mutate, message):
    # a member's fields load with the types and values train writes, and a
    # linear member votes between exactly two classes
    doc = json.loads((pipeline_dir / name).read_text())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {model}: {message}\n"


def _base_kind(kind):
    def mutate(doc):
        doc["config"]["base"]["kind"] = kind
    return mutate


def _constant_first(doc):
    # the constant member format_version 1 wrote for a one-class replicate
    doc["learners"][0] = {"type": "constant", "label": 0, "converged": True,
                          "seed_used": 0}


@pytest.mark.parametrize("name,mutate,message", [
    ("linear.json", _each_member("kind", "linear_svm"),
     "learner 0: unknown linear member fields ['kind']"),
    ("linear.json", _base_kind("tree"),
     "learner 0: unknown tree member fields ['bias', 'weights']"),
    ("model.json", _base_kind("logistic"),
     "learner 0: unknown linear member fields ['nodes']"),
    ("model.json", _constant_first,
     "learner 0: unknown tree member fields ['label', 'type']"),
], ids=["linear-kind", "base-tree", "tree-base-logistic", "constant-in-tree"])
def test_member_type_differs_from_base_kind_exits_1(pipeline_dir, tmp_path,
                                                    capsys, name, mutate,
                                                    message):
    # config.base.kind alone says what every member is: a tree, or a linear
    # member of that kind; a member of the other shape has keys its object
    # does not hold
    doc = json.loads((pipeline_dir / name).read_text())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {model}: {message}\n"


def _split_node(doc):
    """The first tree's node list and the index of its first split."""
    nodes = doc["learners"][0]["nodes"]
    return nodes, next(i for i, node in enumerate(nodes) if node[0] >= 0)


def _self_child(doc):
    nodes, i = _split_node(doc)
    nodes[i][2] = i


def _shared_child(doc):
    # a node under two splits may lie at two depths, and a batch walk runs
    # only to the deepest
    nodes, i = _split_node(doc)
    nodes[i][3] = nodes[i][2]


def _node_field(field, value):
    def mutate(doc):
        nodes, i = _split_node(doc)
        nodes[i][field] = value
    return mutate


def _leaf_counts(counts):
    def mutate(doc):
        nodes = doc["learners"][0]["nodes"]
        next(node for node in nodes if node[0] == -1)[4] = counts
    return mutate


def _set(key, value):
    def mutate(doc):
        *parents, last = key.split(".")
        block = doc
        for name in parents:
            block = block[name]
        block[last] = value(block[last]) if callable(value) else value
    return mutate


def _set_linear(key, value):
    def mutate(doc):
        _set(key, value)(doc["learners"][0])
    mutate.linear = True
    return mutate


@pytest.mark.parametrize("mutate", [
    _self_child,
    _shared_child,
    _node_field(0, 99),
    _node_field(3, 10 ** 6),
    _node_field(1, "0.5"),
    _leaf_counts([1.0]),
    _leaf_counts([1e308, 1e308]),
    _set("learners", 5),
    _set("learners", []),
    _set("config.m", 3),
    _set("n_classes", 1),
    _set("class_names", lambda names: names[:1]),
    _set("standardizer", [0.0]),
    _set("standardizer.mean", lambda mean: mean[:3]),
    _set("standardizer.std", lambda std: [0.0, *std[1:]]),
    _set("standardizer.std", lambda std: [-1.0, *std[1:]]),
    _set("standardizer.mean", lambda mean: [float("nan"), *mean[1:]]),
    _set("standardizer.mean", lambda mean: ["0", *mean[1:]]),
    _set("support.low", lambda low: [*low[:3], float("-inf")]),
    _set("support.high", lambda high: [10 ** 400, *high[1:]]),
    _set("support.low", lambda low: [1e308] * len(low)),
    _set("config.master_seed", "0"),
    _set("config.base.seed", 0.5),
    _set("config.base.tree.max_depth", "3"),
    _set("config.base.tree.min_samples_split", 2.5),
    _set("config.base.tree.feature_subsample", "most"),
    _set("config.base.gradient.max_iters", True),
    _set("config.base.gradient.tolerance", float("nan")),
    _set("config.base.gradient.l2", "1e-4"),
    _set("config.posterior_mode", ["hard_vote"]),
    _set("config.entropy_log_base", 10),
    _set_linear("weights", lambda weights: weights[:3]),
    _set_linear("weights", lambda weights: [float("inf"), *weights[1:]]),
    _set_linear("bias", "0.5"),
    _set_linear("bias", float("nan")),
    _set("format_version", True),
    _set("format_version", 1.0),
], ids=["self-child", "shared-child", "feature-99", "child-1e6",
        "string-threshold", "counts-one-short", "counts-sum-inf",
        "learners-5", "learners-empty", "m-3", "n-classes-1", "class-names-one-short", "standardizer-list",
        "mean-one-short", "std-0", "std-negative", "mean-nan", "mean-string",
        "low-inf", "high-huge-int", "low-above-high", "master-seed-string",
        "seed-float", "max-depth-string", "min-samples-split-float",
        "feature-subsample-most", "max-iters-bool", "tolerance-nan",
        "l2-string", "posterior-mode-list", "log-base-10",
        "weights-one-short", "weights-inf", "bias-string", "bias-nan",
        "format-version-true", "format-version-float"])
def test_malformed_model_exits_1(pipeline_dir, tmp_path, capsys, mutate):
    name = "linear.json" if getattr(mutate, "linear", False) else "model.json"
    doc = json.loads((pipeline_dir / name).read_text())
    mutate(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    code, out, err = run(capsys, "predict", "--model", str(model),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(data / "manifest.json"),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(model) in err


@pytest.mark.parametrize("change", [
    lambda m: [m],
    lambda m: {**m, "label_column": 5},
    lambda m: {**m, "app_id_column": None},
    lambda m: {**m, "feature_columns": "f0"},
    lambda m: {**m, "feature_columns": []},
    lambda m: {**m, "feature_columns": ["f0", "f0"]},
    lambda m: {**m, "classes": ["benign"]},
    lambda m: {**m, "classes": ["benign", "benign"]},
    lambda m: {**m, "classes": ["benign", 1]},
    lambda m: {**m, "unknown_app_ids": "unknown"},
    lambda m: {**m, "unknown_app_ids": [None]},
    lambda m: {**m, "app_id_column": "f0"},
    lambda m: {**m, "app_id_column": "label"},
    lambda m: {**m, "label_column": "f1"},
], ids=["list", "label-column-int", "app-id-column-null",
        "features-string", "features-empty", "features-twice",
        "one-class", "class-twice", "class-int", "unknown-string",
        "unknown-null", "app-id-is-feature", "app-id-is-label",
        "label-is-feature"])
def test_malformed_manifest_exits_1(pipeline_dir, tmp_path, capsys, change):
    data = pipeline_dir / "data"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        change(json.loads((data / "manifest.json").read_text()))))
    code, out, err = run(capsys, "predict",
                         "--model", str(pipeline_dir / "model.json"),
                         "--data", str(data / "test_known.csv"),
                         "--manifest", str(manifest), "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(manifest) in err


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 40-row synth pipeline, an M = 3 model fitted with its manifest,
    and that manifest with the path of every value in it."""
    root = tmp_path_factory.mktemp("small")
    data = root / "data"
    assert cli_main(["synth", "--regime", "ood", "--out-dir", str(data),
                     "--n-train", "40", "--n-test", "10", "--n-unknown",
                     "10", "--d", "2", "--seed", "3"]) == 0
    assert cli_main(["train", "--data", str(data / "train.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(root / "model.json"), "--m", "3"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    paths = [(key,) for key in manifest] + [
        (key, i) for key, value in manifest.items()
        if isinstance(value, list) for i in range(len(value))]
    return root, manifest, paths


_DELETE = object()
# a placeholder written as a list nested 100,000 deep, past the recursion
# limit of json's parser
_DEEP = "<deep>"
# other JSON types, numbers past float's and int64's range, and names the
# manifest holds elsewhere
_MANIFEST_VALUES = [_DELETE, None, True, 0, -1, 0.5, 2 ** 70, math.inf,
                    math.nan, "", " ", "x", "f0", "label", "app_id", "benign",
                    "unknown", [], [0], ["x"], ["f0", "f0"], ["benign"],
                    [[]], {}, {"x": 0}]


@settings(max_examples=300)
@example(command="train", data=None, value=_DEEP)
@example(command="predict", data=None, value=_DEEP)
@given(command=st.sampled_from(["train", "predict"]), data=st.data(),
       value=st.sampled_from(_MANIFEST_VALUES))
def test_mutated_manifest_fails_cleanly_or_runs(small_pipeline, command,
                                                data, value):
    # one manifest field, or one entry of a list in it, deleted or replaced
    # by another JSON type or name: the run exits 0, or 1 with one error
    # line, and never raises or warns
    root, manifest, paths = small_pipeline
    doc = json.loads(json.dumps(manifest))
    *parent, key = (("classes",) if data is None
                    else data.draw(st.sampled_from(paths), label="field"))
    block = functools.reduce(operator.getitem, parent, doc)
    if value is _DELETE:
        del block[key]
    else:
        block[key] = value
    path = root / "mutated.json"
    path.write_text(json.dumps(doc).replace(
        json.dumps(_DEEP), "[" * 100_000 + "]" * 100_000))
    flags = (["--data", root / "data" / "train.csv", "--m", "3",
              "--out", root / "mutated-model.json"] if command == "train"
             else ["--data", root / "data" / "test_known.csv",
                   "--model", root / "model.json", "--threshold", "0.5"])
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = cli_main([command, "--manifest", str(path), *map(str, flags)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def _run_cleanly(argv) -> str:
    """Run the CLI on ``argv``: it exits 0, or 1 with one ``error:`` line on
    stderr, and raises and warns nothing. Returns what it wrote to stderr."""
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = cli_main(list(map(str, argv)))
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().startswith("error:"), argv
        assert err.getvalue().count("\n") == 1, argv
    return err.getvalue()


# bytes an edit inserts: a BOM, quotes, a lone CR, NUL, separators, a byte
# that is not UTF-8, number text, and a cell past the csv module's
# 131,072-character field limit
_CSV_BYTES = [b"\xef\xbb\xbf", b'"', b'""', b"\r", b"\x00", b",", b"\n",
              b"\xff", b"-", b"e", b"nan", b"9" * 400, b"x" * 131_073]
_CSV_EDITS = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0), st.sampled_from(_CSV_BYTES)),
    st.tuples(st.just("delete"), st.integers(0), st.integers(1, 40)),
    st.tuples(st.just("truncate"), st.integers(0), st.none())),
    min_size=1, max_size=3)


def _edit_csv(raw: bytes, edit) -> bytes:
    kind, at, arg = edit
    at %= len(raw) + 1
    if kind == "flip" and at < len(raw):
        return raw[:at] + bytes([raw[at] ^ arg]) + raw[at + 1:]
    if kind == "insert":
        return raw[:at] + arg + raw[at:]
    if kind == "delete":
        return raw[:at] + raw[at + arg:]
    return raw[:at]


@settings(max_examples=150)
@example(edits=[("insert", 0, b"\xef\xbb\xbf")])
@example(edits=[("insert", 40, b"x" * 131_073)])
@example(edits=[("insert", 40, b"\r"), ("insert", 60, b"\x00")])
@example(edits=[("insert", 40, b'"')])
@example(edits=[("truncate", 50, None)])
@given(edits=_CSV_EDITS)
def test_mutated_csv_fails_cleanly_or_runs(small_pipeline, edits):
    # test_known.csv with bytes flipped, inserted or deleted, or cut short,
    # read as data to score, as known data to sweep and as training data
    root = small_pipeline[0]
    data = root / "data"
    raw = (data / "test_known.csv").read_bytes()
    for edit in edits:
        raw = _edit_csv(raw, edit)
    path = root / "mutated.csv"
    path.write_bytes(raw)
    manifest = ["--manifest", data / "manifest.json"]
    _run_cleanly(["predict", "--model", root / "model.json", "--data", path,
                  "--threshold", "0.5", *manifest])
    _run_cleanly(["sweep-threshold", "--model", root / "model.json",
                  "--test-known", path, "--out", root / "sweep.json",
                  *manifest])
    _run_cleanly(["train", "--data", path, "--m", "3",
                  "--out", root / "fuzz-model.json", *manifest])


# every value a numeric flag is set to: integers for an int flag, and all
# for a float flag; no size that allocates or runs long (--m, --n-train,
# --d, --grid-points) is set
_INT_VALUES = ["0", "-1", str(2 ** 64), str(10 ** 30)]
_FLOAT_VALUES = [*_INT_VALUES, "-0.0", "nan", "inf", "-inf", "1e308",
                 "1e-320"]
_LEARNER_FLAGS = [("--max-depth", _INT_VALUES),
                  ("--min-samples-split", _INT_VALUES),
                  ("--max-iters", _INT_VALUES),
                  ("--tolerance", _FLOAT_VALUES), ("--l2", _FLOAT_VALUES),
                  ("--master-seed", _INT_VALUES), ("--workers", _INT_VALUES)]
_NUMERIC_FLAGS = {
    **{f"train-{kind}": _LEARNER_FLAGS for kind in LEARNER_KINDS},
    "sweep-size": _LEARNER_FLAGS,
    "predict": [("--threshold", _FLOAT_VALUES)],
    "sweep-threshold": [("--positive-class", _INT_VALUES)],
    "synth": [("--n-test", _INT_VALUES), ("--n-unknown", _INT_VALUES),
              ("--seed", _INT_VALUES), ("--class-separation", _FLOAT_VALUES),
              ("--ood-distance", _FLOAT_VALUES)],
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flags in _NUMERIC_FLAGS.items()
    for flag, values in flags for value in values])
def test_numeric_flag_fails_cleanly_or_runs(small_pipeline, tmp_path,
                                            command, flag, value):
    # zero, negative, signed zero, non-finite, huge and subnormal values,
    # each written --flag=value: as a token of its own, -inf reads as an
    # option name
    root = small_pipeline[0]
    data = root / "data"
    manifest = ["--manifest", data / "manifest.json"]
    out = tmp_path / "out"
    argv = {
        **{f"train-{kind}": ["train", "--data", data / "train.csv",
                             "--m", "3", "--learner", kind, "--out", out,
                             *manifest] for kind in LEARNER_KINDS},
        "sweep-size": ["sweep-size", "--data", data / "train.csv",
                       "--eval", data / "test_known.csv", "--m-grid", "1,3",
                       "--out", out, *manifest],
        "predict": ["predict", "--model", root / "model.json",
                    "--data", data / "test_known.csv", *manifest],
        "sweep-threshold": ["sweep-threshold", "--model", root / "model.json",
                            "--test-known", data / "test_known.csv",
                            "--unknown", data / "unknown.csv", "--out", out,
                            *manifest],
        "synth": ["synth", "--regime", "ood", "--out-dir", out,
                  "--n-train", "40", "--n-test", "10", "--n-unknown", "10",
                  "--d", "2"],
    }[command]
    err = _run_cleanly([*argv, f"{flag}={value}"])
    if command == "synth" and err:
        # every size and distance synth refuses is named by its flag
        assert err.startswith("error: --"), err


@pytest.mark.parametrize("command", ["train", "sweep-threshold"])
@pytest.mark.parametrize("name", ["", " benign"], ids=["empty", "padded"])
def test_class_name_no_csv_cell_can_match_exits_1(pipeline_dir, tmp_path,
                                                  capsys, command, name):
    # load_csv reads an empty label cell as unlabeled and strips every
    # cell, so no row could carry either class
    data = pipeline_dir / "data"
    doc = json.loads((data / "manifest.json").read_text())
    doc["classes"] = [name, "malware"]
    manifest, out = tmp_path / "manifest.json", tmp_path / "out.json"
    flags = {"train": ["--data", data / "train.csv", "--m", "3"],
             "sweep-threshold": ["--model", pipeline_dir / "model.json",
                                 "--test-known", data / "test_known.csv",
                                 "--unknown", data / "unknown.csv"]}[command]
    manifest.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, *map(str, flags),
                            "--manifest", str(manifest), "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: {manifest}: manifest classes must be non-empty "
                   f"and without surrounding whitespace, got {name!r}\n")


def test_features_too_large_to_standardize_exit_1(pipeline_dir, tmp_path,
                                                  capsys):
    # every feature times 1e200: finite, but its variance overflows; train
    # warned and wrote a model whose std was Infinity, which predict refused
    data = pipeline_dir / "data"
    lines = (data / "train.csv").read_text().splitlines(True)
    d = len(json.loads((data / "manifest.json").read_text())[
        "feature_columns"])
    assert lines[0].startswith(",".join(f"f{j}" for j in range(d)))
    scaled = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[:d] = (repr(float(c) * 1e200) for c in cells[:d])
        scaled.append(",".join(cells))
    big = tmp_path / "train.csv"
    big.write_text("".join(scaled))
    out = tmp_path / "model.json"
    code, stdout, err = run(capsys, "train", "--data", str(big),
                            "--manifest", str(data / "manifest.json"),
                            "--out", str(out), "--m", "2")
    assert code == 1 and stdout == "" and not out.exists()
    assert err == ("error: feature 0 is too large to standardize: its mean "
                   "or standard deviation overflows\n")


def test_unconverged_members_warn(pipeline_dir, tmp_path, capsys):
    data = pipeline_dir / "data"
    code, _, err = run(capsys, "train", "--data", str(data / "train.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--out", str(tmp_path / "model.json"),
                       "--learner", "linear_svm", "--max-iters", "1",
                       "--m", "4")
    assert code == 0
    assert err == "warning: 4 base classifiers did not converge\n"


@pytest.mark.parametrize("target,content", [
    ("manifest.json", b'{"classes": ["benign"\n'),
    ("model.json", b'{"classes": ["benign"\n'),
    ("model.json", b"\xff\xfe{}"),
    ("test_known.csv", "knéwn".encode("latin-1")),
    ("test_known.csv", b"k" * 200_000),
], ids=["manifest-json", "model-json", "model-utf16", "csv-latin1",
        "csv-cell-too-long"])
def test_unreadable_input_exits_1(pipeline_dir, tmp_path, capsys, target,
                                  content):
    data = pipeline_dir / "data"
    paths = {"model.json": pipeline_dir / "model.json",
             "manifest.json": data / "manifest.json",
             "test_known.csv": data / "test_known.csv"}
    bad = tmp_path / target
    if target.endswith(".csv"):          # ``content`` is line 3's app id
        lines = paths[target].read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"known", content)
        content = b"".join(lines)
    bad.write_bytes(content)
    paths[target] = bad
    code, out, err = run(capsys, "predict",
                         "--model", str(paths["model.json"]),
                         "--data", str(paths["test_known.csv"]),
                         "--manifest", str(paths["manifest.json"]),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    if target.endswith(".csv"):
        assert err.startswith(f"error: {bad}: line 3: ")


@pytest.mark.parametrize("content,problem", [
    (b"[" * 200_000, "is nested too deeply to read"),
    pytest.param(b"[" + b"1" * 5000 + b"]",
                 "is not valid JSON: Exceeds the limit", id="digits",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="this Python has no integer digit limit")),
    (b'{"classes": ["benign"\n', "is not valid JSON: "),
    (b"\xff\xfe{}", "is not UTF-8 text: "),
], ids=["nested", "digits", "invalid", "not-utf8"])
@pytest.mark.parametrize("target", ["model", "manifest"])
def test_undecodable_json_exits_1_naming_the_file(pipeline_dir, tmp_path,
                                                   capsys, target, content,
                                                   problem):
    # a model file or manifest that json cannot decode, for any reason,
    # fails with one line naming it; deep nesting gave a traceback, and
    # too many digits a line that named no file
    data = pipeline_dir / "data"
    bad = tmp_path / f"{target}.json"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    if target == "model":
        argv = ["predict", "--model", bad, "--data", data / "test_known.csv",
                "--manifest", data / "manifest.json", "--threshold", "0.5"]
        what = "model file"
    else:
        argv = ["train", "--data", data / "train.csv", "--manifest", bad,
                "--out", out]
        what = "manifest"
    code, stdout, err = run(capsys, *map(str, argv))
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith(f"error: {bad}: {what} {problem}")
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def overlap_dir(tmp_path_factory):
    """Overlap data (its unknown rows are labeled, so they could be fitted)
    and ``mixed.csv``: ``train.csv`` with ``unknown.csv``'s rows appended."""
    root = tmp_path_factory.mktemp("overlap")
    assert cli_main(["synth", "--regime", "overlap", "--out-dir", str(root),
                     "--n-train", "120", "--n-test", "60", "--n-unknown",
                     "60", "--d", "3", "--class-separation", "0.5",
                     "--seed", "2"]) == 0
    unknown_rows = (root / "unknown.csv").read_text().splitlines(True)[1:]
    (root / "mixed.csv").write_text((root / "train.csv").read_text()
                                    + "".join(unknown_rows))
    assert cli_main(["train", "--data", str(root / "train.csv"),
                     "--manifest", str(root / "manifest.json"),
                     "--out", str(root / "model.json"), "--m", "3"]) == 0
    return root


def _argv(command, csv_flag, root, csv, out):
    """``command`` on the overlap data, with ``csv_flag`` naming ``csv``."""
    flags = {
        "train": {"--data": root / "train.csv", "--out": out, "--m": 3},
        "predict": {"--model": root / "model.json",
                    "--data": root / "test_known.csv", "--threshold": 0.5},
        "sweep-size": {"--data": root / "train.csv",
                       "--eval": root / "test_known.csv", "--m-grid": "1,2",
                       "--out": out},
        "sweep-threshold": {"--model": root / "model.json",
                            "--test-known": root / "test_known.csv",
                            "--unknown": root / "unknown.csv", "--out": out},
    }[command]
    flags.update({"--manifest": root / "manifest.json", csv_flag: csv})
    return [command, *(str(v) for item in flags.items() for v in item)]


@pytest.mark.parametrize("command,csv_flag,clean", [
    ("train", "--data", "train.csv"),
    ("sweep-size", "--data", "train.csv"),
    ("sweep-threshold", "--test-known", "test_known.csv"),
], ids=["train-data", "sweep-size-data", "sweep-threshold-test-known"])
def test_known_input_rejects_declared_unknown_app_ids(
        overlap_dir, tmp_path, capsys, command, csv_flag, clean):
    out = tmp_path / "out"
    code, _, _ = run(capsys, *_argv(command, csv_flag, overlap_dir,
                                    overlap_dir / clean, out))
    assert code == 0
    out.unlink()
    mixed, manifest = overlap_dir / "mixed.csv", overlap_dir / "manifest.json"
    code, stdout, err = run(capsys, *_argv(command, csv_flag, overlap_dir,
                                           mixed, out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: {mixed}: app ids declared unknown in "
                   f"{manifest}: ['unknown']\n")


@pytest.mark.parametrize("command,csv_flag", [
    ("predict", "--data"),
    ("sweep-size", "--eval"),
    ("sweep-threshold", "--unknown"),
], ids=["predict-data", "sweep-size-eval", "sweep-threshold-unknown"])
def test_other_inputs_accept_unknown_rows(overlap_dir, tmp_path, capsys,
                                          command, csv_flag):
    code, _, err = run(capsys, *_argv(command, csv_flag, overlap_dir,
                                      overlap_dir / "unknown.csv",
                                      tmp_path / "out"))
    assert code == 0, err


def test_sweep_unknown_sharing_known_app_ids_names_both_files(
        overlap_dir, tmp_path, capsys):
    out = tmp_path / "out"
    train, known = overlap_dir / "train.csv", overlap_dir / "test_known.csv"
    code, stdout, err = run(capsys, *_argv("sweep-threshold", "--unknown",
                                           overlap_dir, train, out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: {train}: app ids also in {known}: "
                   f"['known-0', 'known-1']\n")


@pytest.mark.parametrize("unknown_ids", [[], None], ids=["empty", "absent"])
def test_no_declared_unknown_app_ids_leaves_train_unchanged(
        overlap_dir, tmp_path, capsys, unknown_ids):
    doc = json.loads((overlap_dir / "manifest.json").read_text())
    if unknown_ids is None:
        del doc["unknown_app_ids"]
    else:
        doc["unknown_app_ids"] = unknown_ids
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    for name in ("train.csv", "mixed.csv"):
        code, _, err = run(capsys, "train", "--data", str(overlap_dir / name),
                           "--manifest", str(manifest),
                           "--out", str(tmp_path / f"{name}.model"),
                           "--m", "3")
        assert code == 0, err
    assert (tmp_path / "train.csv.model").read_bytes() == \
        (overlap_dir / "model.json").read_bytes()


def test_misspelt_manifest_key_fails_train(overlap_dir, tmp_path, capsys):
    # read as absent, a misspelt unknown_app_ids would let train fit the
    # rows of the app it names
    doc = json.loads((overlap_dir / "manifest.json").read_text())
    del doc["unknown_app_ids"]
    doc["unknown_app_id"] = ["known-0"]
    manifest, out = tmp_path / "manifest.json", tmp_path / "model.json"
    manifest.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "train",
                            "--data", str(overlap_dir / "train.csv"),
                            "--manifest", str(manifest), "--out", str(out),
                            "--m", "3")
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: {manifest}: unknown manifest fields "
                   f"['unknown_app_id']\n")


@pytest.mark.parametrize("where", ["app-id-tab", "app-id-newline",
                                   "class-tab"])
def test_name_that_would_break_predict_tsv_exits_1(pipeline_dir, tmp_path,
                                                   capsys, where):
    # a newline in an app id printed a forged row, and a tab a fifth column
    data = pipeline_dir / "data"
    manifest, csv_path = data / "manifest.json", tmp_path / "test_known.csv"
    lines = (data / "test_known.csv").read_text().splitlines(True)
    if where == "class-tab":
        doc = json.loads(manifest.read_text())
        doc["classes"] = ["benign", "mal\tware"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        csv_path = data / "test_known.csv"
        message = (f"{manifest}: manifest classes must hold no tab or line "
                   f"break, got 'mal\\tware'")
    else:
        app_id = {"app-id-tab": "known-1\tx",
                  "app-id-newline": "known-1\nfake\t0\tmalware\t0.0"}[where]
        cells = lines[2].rstrip("\r\n").split(",")
        cells[-1] = f'"{app_id}"'              # a quoted CSV cell
        csv_path.write_text("".join(lines[:2]) + ",".join(cells) + "\n"
                            + "".join(lines[3:]))
        message = (f"{csv_path}: row 3: app_id must hold no tab or line "
                   f"break, got {app_id!r}")
    code, out, err = run(capsys, "predict", "--model",
                         str(pipeline_dir / "model.json"), "--data",
                         str(csv_path), "--manifest", str(manifest),
                         "--threshold", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("held_out", [" known-1", "known-1\n", ""],
                         ids=["padded", "newline", "empty"])
def test_unknown_app_id_no_csv_cell_can_match_fails_train(
        overlap_dir, tmp_path, capsys, held_out):
    # load_csv reads every app id stripped, so " known-1" matched no row:
    # train exited 0 and fitted the known-1 rows it was told to hold out
    doc = json.loads((overlap_dir / "manifest.json").read_text())
    doc["unknown_app_ids"] = [held_out]
    manifest, out = tmp_path / "manifest.json", tmp_path / "model.json"
    manifest.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "train",
                            "--data", str(overlap_dir / "train.csv"),
                            "--manifest", str(manifest), "--out", str(out),
                            "--m", "3")
    assert code == 1 and stdout == "" and not out.exists()
    assert err == (f"error: {manifest}: manifest unknown_app_ids must be "
                   f"non-empty and without surrounding whitespace, got "
                   f"{held_out!r}\n")


def test_model_file_with_a_byte_order_mark_predicts_the_same(
        pipeline_dir, tmp_path, capsys):
    # a manifest with a BOM loaded, and a model file with one failed as
    # "not valid JSON: Unexpected UTF-8 BOM"
    data, model = pipeline_dir / "data", pipeline_dir / "model.json"
    bom = tmp_path / "model.json"
    bom.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    outputs = [run(capsys, "predict", "--model", str(path),
                   "--data", str(data / "test_known.csv"),
                   "--manifest", str(data / "manifest.json"),
                   "--threshold", "0.5") for path in (model, bom)]
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs[1] == outputs[0]


def _predict_with_warnings_as_errors(model, data, manifest):
    """CLI ``predict`` at threshold 0.5 in a new interpreter run with
    ``-W error``."""
    src = str(Path(voteguard.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "voteguard.cli", "predict",
         "--model", str(model), "--data", str(data),
         "--manifest", str(manifest), "--threshold", "0.5"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})


def test_oversized_linear_weights_rejected_without_traceback(pipeline_dir,
                                                             tmp_path):
    # weights summing in magnitude past 2**511 could overflow a member's
    # dot product with a clamped input; run with warnings as errors
    doc = json.loads((pipeline_dir / "linear.json").read_text())
    for learner in doc["learners"]:
        learner["weights"] = [(-1) ** j * 1e308
                              for j in range(len(learner["weights"]))]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = pipeline_dir / "data"
    done = _predict_with_warnings_as_errors(model, data / "test_known.csv",
                                            data / "manifest.json")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {model}: learner 0: weights ")


def test_linear_bias_bounded_so_scores_cannot_overflow(pipeline_dir,
                                                       tmp_path):
    # weights at their 2**511 bound score a clamped row at up to 2**1022;
    # a bias of at most 2**1022 more stays below float max, and a soft
    # average, which adds the bias to the score, then runs with no warning
    data = pipeline_dir / "data"
    lines = (data / "test_known.csv").read_text().splitlines(True)
    doc = json.loads((pipeline_dir / "linear.json").read_text())
    doc["config"]["posterior_mode"] = "soft_average"
    d = doc["n_features"]
    cells = lines[1].split(",")
    cells[:d] = [f"{'+-'[j % 2]}1.79e308" for j in range(d)]
    huge = tmp_path / "huge.csv"
    huge.write_text(lines[0] + ",".join(cells))
    assert [sorted(learner) for learner in doc["learners"]] == \
        [["bias", "converged", "seed_used", "weights"]] * 3
    for bias, code in ((2.0 ** 1022, 0), (1.7e308, 1)):
        for learner in doc["learners"]:
            learner["weights"] = [(-1) ** j * 2.0 ** 511 / d
                                  for j in range(d)]
            learner["bias"] = bias
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        done = _predict_with_warnings_as_errors(model, huge,
                                                data / "manifest.json")
        assert done.returncode == code, done.stderr
        if code:
            assert done.stdout == "" and done.stderr.count("\n") == 1
            assert done.stderr.startswith(f"error: {model}: learner 0: bias ")
        else:
            assert done.stderr == "" and done.stdout.count("\n") == 2


def _with_classes(classes):
    def change(manifest):
        manifest["classes"] = classes
    return change


_CLASS_COMMANDS = {
    "predict": lambda data, out: ["--data", data / "test_known.csv",
                                  "--threshold", "0.5"],
    "sweep-threshold": lambda data, out: [
        "--test-known", data / "test_known.csv",
        "--unknown", data / "unknown.csv", "--out", out],
}


def _with_manifest(capsys, root, tmp_path, command, change, model=None):
    """``command`` on the pipeline data, its manifest changed by
    ``change``; a sweep writes ``sweep.json`` in ``tmp_path``."""
    doc = json.loads((root / "data" / "manifest.json").read_text())
    change(doc)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    model = model or root / "model.json"
    flags = [*_CLASS_COMMANDS[command](root / "data", tmp_path / "sweep.json"),
             "--model", model, "--manifest", manifest]
    return (*run(capsys, command, *map(str, flags)), manifest)


@pytest.mark.parametrize("command", sorted(_CLASS_COMMANDS))
@pytest.mark.parametrize("classes", [
    ["malware", "benign"],
    ["benign", "malicious"],
    ["benign", "malware", "adware"],
], ids=["swapped", "renamed", "extra"])
def test_manifest_classes_differing_from_model_exit_1(
        pipeline_dir, tmp_path, capsys, command, classes):
    # a swapped manifest scored every label as the other class, and a third
    # class ran against the two-class model; both exited 0
    code, out, err, manifest = _with_manifest(
        capsys, pipeline_dir, tmp_path, command, _with_classes(classes))
    model = pipeline_dir / "model.json"
    assert code == 1 and out == ""
    assert err == (f"error: {manifest}: classes {classes} differ from those "
                   f"of {model}: ['benign', 'malware']\n")
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("command", sorted(_CLASS_COMMANDS))
def test_model_without_class_names_compared_by_count(
        pipeline_dir, tmp_path, capsys, command):
    doc = json.loads((pipeline_dir / "model.json").read_text())
    doc["class_names"] = None
    model = tmp_path / "unnamed.json"
    model.write_text(json.dumps(doc))
    code, _, err, _ = _with_manifest(capsys, pipeline_dir, tmp_path, command,
                                     lambda m: None, model)
    assert code == 0, err
    code, out, err, manifest = _with_manifest(
        capsys, pipeline_dir, tmp_path, command,
        _with_classes(["benign", "malware", "adware"]), model)
    assert code == 1 and out == ""
    assert err == (f"error: {manifest}: classes ['benign', 'malware', "
                   f"'adware'] differ from those of {model}: 2 unnamed "
                   f"classes\n")


def test_train_defaults_are_the_library_defaults(pipeline_dir, tmp_path,
                                                 capsys):
    # every flag not given takes the default of the config class it sets
    data = pipeline_dir / "data"
    out = tmp_path / "cli.json"
    code, _, err = run(capsys, "train", "--data", str(data / "train.csv"),
                       "--manifest", str(data / "manifest.json"),
                       "--out", str(out))
    assert code == 0, err
    schema, _ = load_manifest(data / "manifest.json")
    library = tmp_path / "library.json"
    save_model(fit(EnsembleConfig(), load_csv(data / "train.csv", schema)),
               library)
    assert out.read_bytes() == library.read_bytes()
