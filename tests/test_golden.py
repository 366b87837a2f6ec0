"""Golden outputs: the sha256 of every file the CLI pipeline writes on
paper-scale ``synth --regime ood --seed 0`` data, against ``golden.json``.

A change that moves any output byte fails here, and the failure names
each output that moved. A change that means to move them rewrites the
record with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each output whose hash it changed, and says
which outputs changed, and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from voteguard.cli import cli_main

GOLDEN = Path(__file__).with_name("golden.json")
KINDS = ("tree", "logistic", "linear_svm")
MODES = ("hard_vote", "soft_average")
DATA_FILES = ("train.csv", "test_known.csv", "unknown.csv", "manifest.json")


def _cli(*argv) -> str:
    """Run one command in-process; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    assert code == 0, f"exit {code}: voteguard {' '.join(map(str, argv))}"
    return out.getvalue()


def golden_outputs(root: Path) -> dict[str, str]:
    """Run the pipeline under ``root``: the sha256 of each output, by name.
    Output files and the ``predict`` stdout are hashed; the other commands
    print only the paths they wrote."""
    data = root / "data"
    _cli("synth", "--regime", "ood", "--seed", 0, "--out-dir", data)
    manifest = ("--manifest", data / "manifest.json")
    files = {name: data / name for name in DATA_FILES}
    stdout = {}
    for kind in KINDS:
        for mode in MODES:
            tag = f"{kind}.{mode}"
            model = root / f"{tag}.model.json"
            _cli("train", "--data", data / "train.csv", *manifest,
                 "--out", model, "--learner", kind, "--posterior-mode", mode)
            files[model.name] = model
            for split in ("test_known", "unknown"):
                stdout[f"{tag}.predict.{split}.tsv"] = _cli(
                    "predict", "--model", model, "--data",
                    data / f"{split}.csv", *manifest, "--threshold", 0.5)
            for fmt in ("json", "csv"):
                out = root / f"{tag}.sweep-threshold.{fmt}"
                _cli("sweep-threshold", "--model", model,
                     "--test-known", data / "test_known.csv",
                     "--unknown", data / "unknown.csv", *manifest,
                     "--out", out, "--format", fmt)
                files[out.name] = out
    out = root / "tree.sweep-size.json"
    _cli("sweep-size", "--data", data / "train.csv",
         "--eval", data / "test_known.csv", *manifest,
         "--m-grid", "1,2,5,9,25", "--out", out)
    files[out.name] = out

    blobs = {name: path.read_bytes() for name, path in files.items()}
    blobs.update((name, text.encode()) for name, text in stdout.items())
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in sorted(blobs.items())}


def write_golden() -> None:
    """Rewrite the record from the code as it stands, and print the name of
    each output whose hash this changed, added or dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_outputs(Path(tmp))
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]
           if GOLDEN.exists() else {})
    record = {"numpy": np.__version__, "python": platform.python_version(),
              "platform": f"{platform.system()} {platform.machine()}",
              "sha256": hashes}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    for name in sorted(old.keys() | hashes.keys()):
        if old.get(name) != hashes.get(name):
            print(name)


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want, got = golden["sha256"], golden_outputs(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (
        f"{len(changed)} outputs differ from {GOLDEN.name}, written with "
        f"numpy {golden['numpy']} on {golden['platform']}: "
        f"{', '.join(changed)}")


if __name__ == "__main__":
    write_golden()
