"""The python blocks of README's "Library example" run, and print what their
comments state: each print line whose comment is a Python literal must
print that literal."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def example_blocks():
    """The python code blocks of the "Library example" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def stated_outputs(block):
    """(k, literal): the k-th print line of the block states its output as
    a literal in its comment."""
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    for k, line in enumerate(prints):
        comment = line.partition("#")[2].strip()
        try:
            yield k, ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue


def test_the_example_states_outputs():
    assert len(example_blocks()) == 2
    assert [lit for b in example_blocks() for _, lit in stated_outputs(b)] == [
        [[0, 1], [0, 2], [1, 2]], ["10", "11", "20", "21"], []]


@pytest.mark.parametrize("block", example_blocks(), ids=["complex", "ball"])
def test_example_block_runs_and_prints_what_it_states(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == sum(line.startswith("print(") for line in block.splitlines())
    for k, literal in stated_outputs(block):
        assert lines[k] == str(literal)
