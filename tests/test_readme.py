"""The README's examples run as written: the library block, the example config and the command-line usage."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from multidetect.cli import main
from multidetect.config import resolve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def first_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the line ``heading``."""
    start = README.index(f"\n{heading}\n")
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(first_block("## Library use", "python"), {})
    assert out.getvalue().splitlines()[0] == "0.45651 binomial"


def test_configuration_block_resolves():
    raw = json.loads(first_block("### Configuration", "json"))
    resolved = resolve(raw)
    assert resolved.experiment.n_trials == raw["n_trials"]
    assert resolved.echo["detector_model"] == {"model": "ideal"}


def long_options(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) - {"--help"}


def test_command_line_block_lists_each_commands_options():
    for line in first_block("## Command line", "sh").splitlines():
        command = line.split()[1]
        help_text = io.StringIO()
        with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
            main([command, "--help"])
        assert long_options(line) == long_options(help_text.getvalue()), command
