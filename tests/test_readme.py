"""The README's examples run as written: its Python block, and each
``voteguard`` line of its CLI pipeline, in a fresh working directory."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from voteguard.cli import cli_main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
# each fenced block's language and text
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_python_example_runs(tmp_path, monkeypatch):
    (code,) = [text for lang, text in BLOCKS if lang == "python"]
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), {})


def test_cli_pipeline_runs(tmp_path, monkeypatch):
    (pipeline,) = [text for lang, text in BLOCKS
                   if lang == "sh" and text.startswith("voteguard ")]
    commands = pipeline.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    for line in commands:
        program, *argv = shlex.split(line)
        assert program == "voteguard"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0, line
