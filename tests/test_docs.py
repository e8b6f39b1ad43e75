"""The documentation runs: every demo script exits 0, and the README's
library quick start runs as the README shows it, so a change to the public
API that leaves either stale fails here; the README's command-line
synopsis lists every flag of every subcommand; and its model documents
parse."""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fdsolve import parse_model
from fdsolve.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    # an empty glob would leave the demo test with no case to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # a child process with this checkout's sources first on the path, as
    # ``PYTHONPATH=src python demos/<name>.py`` runs it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_library_quick_start_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md: Library quick start", "exec"), {})


def test_readme_command_line_synopsis_lists_every_flag():
    # each subcommand's synopsis, from its "fdsolve <command>" line to the
    # next such line, names every long option its parser takes
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    synopses = {m.group(1): m.group(0) for m in
                re.finditer(r"^fdsolve (\S+).*?(?=^fdsolve |\Z)", block,
                            re.S | re.M)}
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(synopses) == set(commands)
    for name, parser in commands.items():
        flags = {opt for a in parser._actions for opt in a.option_strings
                 if opt.startswith("--") and opt != "--help"}
        missing = sorted(f for f in flags
                         if not re.search(re.escape(f) + r"\b(?!-)",
                                          synopses[name]))
        assert not missing, f"{name}: {missing}"


def test_readme_model_documents_parse():
    # every JSON block of "Model documents" is a valid model document
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Model documents", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    for block in blocks:
        parse_model(block)
