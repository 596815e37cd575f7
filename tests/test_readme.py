"""The README's examples run as written: the library block and the example config."""

import contextlib
import io
import json
import re
from pathlib import Path

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
