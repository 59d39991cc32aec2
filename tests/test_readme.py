"""README's "Command line" examples: each runs through ``cli.main`` and exits 0,
and the figures in their comments hold."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from qlimits.cli import main
from qlimits.constants import HBAR

_README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """The lines of the sh block under "## Command line", continuations joined."""
    text = _README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def _argv(line):
    words = shlex.split(line, comments=True)
    assert words[0] == "qlimits"
    return words[1:]


@pytest.fixture
def in_tmp_path(tmp_path, monkeypatch, capsys):
    """A working directory holding run.json, the schedule-file example's input."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--protocol", "grover", "--n", "10", "--work", "1e-30",
                 "--format", "json", "--out", "run.json"]) == 0
    capsys.readouterr()


def test_the_examples_are_found():
    assert len(_examples()) == 14


@pytest.mark.parametrize("line", _examples())
def test_every_example_exits_0(in_tmp_path, capsys, line):
    assert main(_argv(line)) == 0
    assert capsys.readouterr().err == ""


# (example, its comment's figure, the output field, the figure's value, the
# tolerance: half a unit of the last printed digit, or for sqrt(3) hbar the
# closed forms' 1e-12 relative contract)
@pytest.mark.parametrize("command, figure, key, value, tolerance", [
    ("keylength --scenario datacenter", "quantum_bits: 394", "quantum_bits", 394, 0),
    ("keylength --work 1e16 --time 5a --mode deterministic", "385 bits",
     "deterministic_bits", 385, 0),
    ("bound quantum --n 2 --time 1s --psuccess 1", "sqrt(3)*hbar", "value",
     math.sqrt(3.0) * HBAR, 1e-12 * HBAR),
    ("bound ballistic --n 128 --work 6.5e-6 --solve time", "4.7e-10 s", "value", 4.7e-10,
     0.05e-10),
    ("cosmic --h0 67.36 --omega-lambda 0.6847", "4.62e69 J", "work_J", 4.62e69, 0.005e69),
])
def test_the_commented_figures_hold(capsys, command, figure, key, value, tolerance):
    (line,) = [line for line in _examples() if _argv(line) == command.split()]
    assert figure in line.split("#", 1)[1]
    assert main(command.split()) == 0
    assert abs(json.loads(capsys.readouterr().out)[key] - value) <= tolerance
